import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_params
from ghz_sim.errors import (ConfigurationError, TruncationError,
                            UntunedError)
from ghz_sim.fock_core import HilbertShape, basis_state, partial_trace
from ghz_sim import ghz_protocol
from ghz_sim.ghz_protocol import (MODELS, POPULATION_FLOOR,
                                  ProtocolSchedule, evolve_lab, ghz_schedule,
                                  protocol_timeseries, pulse_times,
                                  target_state, tune_coupling)
from ghz_sim.evolution import EvolutionResult, block_propagator
from ghz_sim.hamiltonian import (BlockParams, SystemParams,
                                 block_basis_labels)

# frozen from the closed-form arithmetic: g = Omega / (eta_c sqrt(15)) for
# Omega = 8.95e6 rad/s, eta_c = 0.05, and t_1 = pi sqrt(15) / (4 Omega)
TUNED_G = 46217601.26474184
T1_SECONDS = 3.3986972145030265e-07


class TestTuneCoupling:
    def test_paper_defaults_frozen_value(self):
        assert tune_coupling(8.95e6, 0.05, 1) == pytest.approx(TUNED_G, abs=0)
        assert TUNED_G / 1e6 == pytest.approx(46.22, abs=0.01)

    def test_condition_identities(self):
        omega, eta_c = 8.95e6, 0.05
        g = tune_coupling(omega, eta_c, 1)
        assert g * eta_c * math.sqrt(15.0) == pytest.approx(omega, rel=1e-14)
        mu = math.hypot(g * eta_c, omega)
        assert mu == pytest.approx(4.0 * omega / math.sqrt(15.0), rel=1e-14)

    def test_monotone_decreasing_with_asymptote(self):
        omega, eta_c = 1.0, 0.1
        values = [tune_coupling(omega, eta_c, p) for p in range(1, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        p = 500
        assert tune_coupling(omega, eta_c, p) == pytest.approx(
            omega / (4 * p * eta_c), rel=1e-3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            tune_coupling(1.0, 0.0)
        with pytest.raises(ValueError):
            tune_coupling(1.0, 0.1, p=0)

    @given(p=st.integers(1, 20), omega=st.floats(0.1, 100.0),
           eta_c=st.floats(0.01, 0.5))
    def test_ghz_condition_for_any_p(self, p, omega, eta_c):
        g = tune_coupling(omega, eta_c, p)
        a = g * eta_c
        mu = math.hypot(a, omega)
        assert abs(mu / a - 4.0 * p) < 1e-12 * 4.0 * p


class TestGhzSchedule:
    def test_paper_operation_time(self):
        schedule = ghz_schedule(scaled_params(), shape=HilbertShape(2, 2))
        assert schedule.t_p == pytest.approx(T1_SECONDS, rel=1e-12)
        assert schedule.t_p * 1e6 == pytest.approx(0.34, rel=0.01)
        assert schedule.block.a * schedule.t_p == pytest.approx(math.pi / 4.0,
                                                                rel=1e-12)
        assert schedule.block.mu * schedule.t_p == pytest.approx(math.pi,
                                                                 rel=1e-12)

    def test_algebraic_time_identity(self):
        # t_p = pi sqrt(16 p^2 - 1) / (4 Omega), cross-checked against the
        # mu coming out of tune_coupling
        omega = 8.95e6
        for p in (1, 2, 3, 5):
            params = scaled_params(g=tune_coupling(omega, 0.05, p))
            schedule = ghz_schedule(params, p=p, shape=HilbertShape(2, 2))
            expected = math.pi * math.sqrt(16.0 * p * p - 1.0) / (4.0 * omega)
            assert schedule.t_p == pytest.approx(expected, rel=1e-12)

    def test_p2_target_sign_flips(self):
        shape = HilbertShape(2, 2)
        params = scaled_params(g=tune_coupling(8.95e6, 0.05, 2))
        schedule = ghz_schedule(params, p=2, shape=shape)
        target = target_state(("g", 0, 0), schedule.shape, p=schedule.p)
        amp = target.amplitudes[shape.index("g", 0, 0)]
        assert amp == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)
        assert schedule.t_p > ghz_schedule(scaled_params(),
                                           shape=shape).t_p

    def test_untuned_params_rejected_with_ratio(self):
        params = scaled_params(g=1e6)  # arbitrary, not tuned
        with pytest.raises(UntunedError, match="mu/a") as info:
            ghz_schedule(params, shape=HilbertShape(2, 2))
        # the library names its remedy; the condition alone names none
        assert str(info.value).endswith("; retry with tune=True or adjust g")
        assert "mu/a" in info.value.condition
        assert "tune=True" not in info.value.condition

    def test_tune_flag_fixes_untuned_params(self):
        params = scaled_params(g=1e6)
        schedule = ghz_schedule(params, shape=HilbertShape(2, 2), tune=True)
        assert schedule.params.g == pytest.approx(TUNED_G, abs=0)

    def test_a_tuned_g_that_misses_the_condition_is_refused_by_p(self):
        # 16 p^2 overflows, so the tuned g underflows to 0: the miss is the
        # tuning's, not that of a g held as given
        with pytest.raises(ConfigurationError) as info:
            ghz_schedule(scaled_params(), p=10 ** 300, tune=True)
        assert not isinstance(info.value, UntunedError)
        assert str(info.value) == (
            "tuning g for p = 1e+300 gives g = 0.000e+00 rad/s, which misses "
            "the GHZ condition: mu/a = inf, required 4e+300")

    def test_tuning_with_phi_compensates_effective_coupling(self):
        phi = math.pi / 3
        schedule = ghz_schedule(scaled_params(g=0.0, phi=phi),
                                shape=HilbertShape(2, 2), tune=True)
        assert schedule.params.g * math.cos(phi) == pytest.approx(TUNED_G,
                                                                  rel=1e-12)

    def test_tuning_impossible_at_node_null(self):
        with pytest.raises(ConfigurationError, match="phi"):
            ghz_schedule(scaled_params(g=0.0, phi=math.pi / 2),
                         shape=HilbertShape(2, 2), tune=True)

    def test_held_g_at_a_vanishing_cos_phi_is_refused_as_vanishing(self):
        # one check for a tuned and a held g: no g meets the condition there
        with pytest.raises(ConfigurationError,
                           match="vanishes at phi") as info:
            ghz_schedule(scaled_params(g=1e6, phi=math.pi / 2),
                         shape=HilbertShape(2, 2))
        assert not isinstance(info.value, UntunedError)

    def test_schedule_holds_the_whole_run(self):
        params = scaled_params(g=1e6, phi=0.4)
        schedule = ghz_schedule(params, m=2, n=3, tune=True)
        assert schedule.shape == HilbertShape(3, 4)
        assert schedule.params == replace(params, g=schedule.params.g)
        assert schedule.block == BlockParams.from_params(schedule.params, 2, 3)

    @settings(deadline=None, max_examples=20)
    @given(p=st.integers(1, 12))
    def test_schedule_invariants_any_p(self, p):
        params = scaled_params(g=tune_coupling(8.95e6, 0.05, p))
        schedule = ghz_schedule(params, p=p, shape=HilbertShape(2, 2))
        assert abs(schedule.block.mu * schedule.t_p - p * math.pi) \
            < 1e-12 * p * math.pi
        assert abs(schedule.block.a * schedule.t_p - math.pi / 4.0) < 1e-12


class TestTargetState:
    def test_printed_four_state_table(self):
        shape = HilbertShape(2, 2)
        inv = 1.0 / math.sqrt(2.0)
        cases = {
            ("g", 0, 0): {("g", 0, 0): -inv, ("e", 1, 1): 1j * inv},
            ("e", 0, 0): {("e", 0, 0): -inv, ("g", 1, 1): 1j * inv},
            ("g", 1, 1): {("g", 1, 1): -inv, ("e", 0, 0): 1j * inv},
            ("e", 1, 1): {("e", 1, 1): -inv, ("g", 0, 0): 1j * inv},
        }
        for initial, entries in cases.items():
            tgt = target_state(initial, shape)
            expected = np.zeros(shape.total_dim, dtype=complex)
            for lbl, amp in entries.items():
                expected[shape.index(*lbl)] = amp
            assert np.max(np.abs(tgt.amplitudes - expected)) == 0.0

    def test_general_block_and_even_p(self):
        shape = HilbertShape(4, 4)
        tgt = target_state(("e", 2, 2), shape, m=3, n=3, p=2)
        assert tgt.amplitudes[shape.index("e", 2, 2)] == pytest.approx(
            1 / math.sqrt(2), abs=0)
        assert tgt.amplitudes[shape.index("g", 3, 3)] == pytest.approx(
            -1j / math.sqrt(2), abs=0)

    @pytest.mark.parametrize("p", [1, 2])
    def test_every_block_label_is_the_propagated_column(self, p):
        # the tuned (2, 3) block: the closed form at t_p, embedded in the
        # full space, lands on each label's target
        shape = HilbertShape(4, 5)
        schedule = ghz_schedule(scaled_params(), m=2, n=3, p=p, shape=shape,
                                tune=True)
        labels = block_basis_labels(2, 3)
        idx = [shape.index(*lbl) for lbl in labels]
        u = block_propagator(schedule.block, schedule.t_p)
        for col, lbl in enumerate(labels):
            amps = np.zeros(shape.total_dim, dtype=complex)
            amps[idx] = u[:, col]
            tgt = target_state(lbl, shape, m=2, n=3, p=p).amplitudes
            assert np.max(np.abs(amps - tgt)) < 1e-10

    def test_label_outside_block_rejected(self):
        with pytest.raises(ValueError):
            target_state(("g", 2, 2), HilbertShape(4, 4), m=1, n=1)

    def test_label_outside_truncation_is_index_error(self):
        with pytest.raises(IndexError):
            target_state(("g", 0, 0), HilbertShape(1, 1), m=1, n=1)


class TestRunProtocol:
    @pytest.mark.parametrize("model", MODELS)
    def test_row_zero_of_a_g00_series_scores_one_half(self, model):
        # the target is -(1/sqrt2)(|g,0,0> - i|e,1,1>), so the initial
        # state |g,0,0> has |<target|g,0,0>|^2 = 1/2 in every model
        shape = HilbertShape(3, 3)
        schedule = ghz_schedule(scaled_params(Omega=1.0), shape=shape)
        series = protocol_timeseries(schedule, ("g", 0, 0), model,
                                     [0.0, schedule.t_p / 50.0])
        assert abs(series.fidelity[0] - 0.5) <= 1e-15

    def test_block_model_reaches_target_exactly(self):
        shape = HilbertShape(2, 2)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        for initial in (("g", 0, 0), ("e", 0, 0), ("g", 1, 1), ("e", 1, 1)):
            series = protocol_timeseries(schedule, initial, "block",
                                         pulse_times(schedule.t_p, 101))
            assert series.fidelity[-1] == pytest.approx(1.0, abs=1e-10)
            assert series.block_leakage[-1] == 0.0
            assert series.norm[-1] == pytest.approx(1.0, abs=1e-12)

    def test_ld_full_leaks_out_of_the_block(self):
        shape = HilbertShape(6, 6)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        series = protocol_timeseries(schedule, ("g", 0, 0), "ld",
                                     pulse_times(schedule.t_p, 101))
        assert series.fidelity[-1] < 1.0
        assert series.block_leakage[-1] > 0.0
        assert series.norm[-1] == pytest.approx(1.0, abs=1e-9)
        assert abs(1.0 - series.populations[-1].sum()) < 1e-4

    def test_carrier_flip_with_g_zero(self):
        # g = 0 for time pi/(2 Omega) is a bare carrier pi-pulse:
        # |g,0,0> -> -i |e,0,0>, which is orthogonal to the scheduled target
        # -(1/sqrt2)(|g,0,0> - i|e,1,1>) and has overlap 1/2 with the
        # flipped-state target -(1/sqrt2)(|e,0,0> - i|g,1,1>)
        omega = 1.0
        params = scaled_params(Omega=omega, g=0.0)
        shape = HilbertShape(3, 3)
        block = BlockParams.from_params(params, 1, 1)
        t = math.pi / (2.0 * omega)
        schedule = ProtocolSchedule(params=params, shape=shape, block=block,
                                    p=1, t_p=t)
        series = protocol_timeseries(schedule, ("g", 0, 0), "ld",
                                     [0.0, t])
        pops = series.populations[-1]
        assert np.flatnonzero(pops).tolist() == [shape.index("e", 0, 0)]
        assert pops[shape.index("e", 0, 0)] == pytest.approx(1.0)
        assert series.fidelity[-1] == pytest.approx(0.0, abs=1e-12)
        flipped_target = target_state(("e", 0, 0), shape).amplitudes
        state_amps = np.zeros(shape.total_dim, dtype=complex)
        state_amps[shape.index("e", 0, 0)] = -1j
        assert abs(np.vdot(flipped_target, state_amps)) ** 2 == \
            pytest.approx(0.5, abs=1e-12)

    def test_truncation_error_prescribes_larger_shape(self):
        shape = HilbertShape(3, 3)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        times = pulse_times(schedule.t_p, 101)
        with pytest.raises(TruncationError, match="3x3") as refused:
            protocol_timeseries(schedule, ("g", 0, 0), "ld", times)
        # refused after scoring: the error carries the refused run's scores
        series = refused.value.series
        leak = ghz_protocol._evolve_states(schedule, ("g", 0, 0), "ld",
                                           times, None).truncation_leak
        assert series.truncation_leak.tolist() == leak.tolist()
        assert str(refused.value) == (
            f"top-level population {leak.max():.3e} exceeds 1.0e-04; rerun "
            f"with a shape larger than 3x3")
        assert series.times.tolist() == times.tolist()

    def test_block_model_rejects_states_outside_block(self):
        shape = HilbertShape(4, 4)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        with pytest.raises(ValueError, match="block"):
            protocol_timeseries(schedule, ("g", 2, 2), "block",
                                pulse_times(schedule.t_p, 101))

    def test_unknown_model_rejected(self):
        shape = HilbertShape(2, 2)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        with pytest.raises(ValueError, match="model"):
            protocol_timeseries(schedule, ("g", 0, 0), "nope",
                                pulse_times(schedule.t_p, 101))

    def test_short_time_lab_run_agrees_with_rwa(self):
        params = scaled_params(Omega=1.0)
        shape = HilbertShape(3, 3)
        schedule = ghz_schedule(params, shape=shape)
        t_short = schedule.t_p / 50.0
        times = [0.0, t_short]
        lab = protocol_timeseries(schedule, ("g", 0, 0), "lab", times)
        rwa = protocol_timeseries(schedule, ("g", 0, 0), "rwa", times)
        assert lab.fidelity[-1] == pytest.approx(rwa.fidelity[-1], abs=5e-3)
        assert lab.norm[-1] == pytest.approx(1.0, abs=1e-6)

    def test_a_default_step_beyond_the_work_bound_is_refused_unstepped(
            self, monkeypatch):
        # at omega_L = 0 no period caps the step, and the drift target at
        # H's undressed spectral radius (9.0e10 rad/s) sets 1.5e-13 s, about
        # 2.2e6 steps: refused as the default step before any integration
        params = replace(scaled_params(), omega_L=0.0)
        shape = HilbertShape(3, 3)
        schedule = ghz_schedule(params, shape=shape)

        def engine(*args, **kwargs):
            raise AssertionError("the integrator was called")

        monkeypatch.setattr(ghz_protocol, "evolve_timedep", engine)
        with pytest.raises(ConfigurationError,
                           match=r"^the default lab step dt is at most "
                                 r".* more than MAX_RK4_STEPS = 1,000,000; "
                                 r".*spectral radius .* give a config dt"):
            evolve_lab(params, basis_state(shape, "g", 0, 0),
                       pulse_times(schedule.t_p, 101))

    def test_a_dt_above_the_resolution_guard_is_refused_unstepped(
            self, monkeypatch):
        # T / 50 = 1.8e-12 s at omega_L = 3.58e10 rad/s
        params = scaled_params()
        shape = HilbertShape(3, 3)

        def engine(*args, **kwargs):
            raise AssertionError("the integrator was called")

        monkeypatch.setattr(ghz_protocol, "evolve_timedep", engine)
        with pytest.raises(ConfigurationError,
                           match=r"^dt = 1\.000e-11 violates the resolution "
                                 r"guard dt <= T / 50 = 1\.755e-12 "):
            evolve_lab(params, basis_state(shape, "g", 0, 0), [0.0, 1e-9],
                       dt=1e-11)

    @pytest.mark.parametrize("omega_0, omega_c, omega_L",
                             [(0.0, 0.0, 0.0), (1000.0, 980.0, 1000.0)])
    def test_a_grid_of_t_zero_alone_returns_the_initial_state(
            self, omega_0, omega_c, omega_L):
        # with no period, the default step of a run to t = 0 was t = 0
        # itself, which the integrator refused as a step
        params = SystemParams(Omega=1, g=0.1, eta_L=0.05, eta_c=0.05, nu=20,
                              omega_0=omega_0, omega_c=omega_c,
                              omega_L=omega_L)
        initial = basis_state(HilbertShape(3, 3), "g", 0, 0)
        result = evolve_lab(params, initial, [0.0])
        assert result.times.tolist() == [0.0]
        assert np.array_equal(result.amplitudes, [initial.amplitudes])

    @pytest.mark.parametrize("omega_L", [4000.0, 0.0])
    def test_lab_run_passes_the_laser_period(self, monkeypatch, omega_L):
        # in the laser frame only C exp(-2i omega_L t) is time dependent:
        # period pi / omega_L, which also sets the step guard; omega_L = 0
        # leaves H constant, with no period to pass
        params = replace(scaled_params(Omega=1.0), omega_L=omega_L)
        shape = HilbertShape(3, 3)
        schedule = ghz_schedule(params, shape=shape)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs)
            return engine(*args, **kwargs)

        engine = ghz_protocol.evolve_timedep
        monkeypatch.setattr(ghz_protocol, "evolve_timedep", spy)
        protocol_timeseries(schedule, ("g", 0, 0), "lab", [0.0, 1e-3])
        assert [kw["period"] for kw in seen] == \
            [math.pi / omega_L if omega_L else None]
        assert "omega_max" not in seen[0]
        # the names a caller's tracer binds
        assert {"t_end", "dt", "store_times"} <= set(seen[0])

    @pytest.mark.parametrize("model", ["block", "ld"])
    @pytest.mark.parametrize("n_times", [0, 1])
    def test_too_few_samples_rejected(self, model, n_times):
        # one sample would report the t = 0 state as the pulse result
        shape = HilbertShape(6, 6)
        params = scaled_params()
        schedule = ghz_schedule(params, shape=shape)
        with pytest.raises(ConfigurationError, match="n_times must be >= 2"):
            protocol_timeseries(schedule, ("g", 0, 0), model,
                                pulse_times(schedule.t_p, n_times))

    @pytest.mark.parametrize("model", ["block", "ld", "rwa", "lab"])
    @pytest.mark.parametrize("times", [[math.nan], [0.0, math.inf], []])
    def test_non_finite_or_empty_times_are_refused_before_any_work(
            self, monkeypatch, model, times):
        # a NaN time once came back from the block and ld models as NaN
        # amplitudes, with no error; no Hamiltonian is diagonalised now
        def no_eigensolver(*args, **kwargs):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
        schedule = ghz_schedule(scaled_params(), shape=HilbertShape(3, 3))
        with pytest.raises(ValueError,
                           match="must be finite and strictly increasing"):
            protocol_timeseries(schedule, ("g", 0, 0), model, times)

    def test_target_marginals_maximally_mixed(self):
        shape = HilbertShape(2, 2)
        for initial in (("g", 0, 0), ("e", 0, 0), ("g", 1, 1), ("e", 1, 1)):
            tgt = target_state(initial, shape)
            for slot in ("ion", "vib", "cav"):
                eigs = np.sort(np.linalg.eigvalsh(partial_trace(tgt, {slot})))
                assert np.allclose(eigs[-2:], 0.5, atol=1e-12)


def per_row_scores(amplitudes, target, block_idx):
    """Score each row the way the per-row scoring loop did: one np.vdot, a
    left-to-right block sum, one np.linalg.norm and the floored populations
    of that row alone."""
    fid, norm, leak, pops = [], [], [], []
    for row in amplitudes:
        row_pops = np.abs(row) ** 2
        fid.append(float(abs(np.vdot(target, row)) ** 2))
        norm.append(float(np.linalg.norm(row)))
        in_block = 0
        for i in block_idx:
            in_block = in_block + float(row_pops[i])
        leak.append(max(1.0 - in_block, 0.0))
        pops.append([float(p) if p > POPULATION_FLOOR else 0.0
                     for p in row_pops])
    return fid, norm, leak, pops


SCORING_CASES = [(model, dim) for model in ("block", "ld", "rwa")
                 for dim in (2, 6, 16)] + [("lab", 3)]


@pytest.mark.parametrize("model, dim", SCORING_CASES)
def test_array_scoring_matches_per_row_formulas_exactly(model, dim):
    shape = HilbertShape(dim, dim)
    params = scaled_params(Omega=1.0) if model == "lab" \
        else scaled_params()
    schedule = ghz_schedule(params, shape=shape)
    # the lab model runs a short window of few RK4 steps, and the full
    # models at 2x2 one short enough to stay inside the truncation guard
    t_end = schedule.t_p
    if model == "lab":
        t_end /= 50.0
    elif dim == 2 and model != "block":
        t_end /= 1000.0
    times = np.linspace(0.0, t_end, 5 if model == "lab" else 101)
    initial = ("e", 0, 0)
    series = protocol_timeseries(schedule, initial, model, times)
    result = ghz_protocol._evolve_states(schedule, initial, model, times,
                                         None)
    fid, norm, leak, pops = per_row_scores(
        result.amplitudes, target_state(initial, shape).amplitudes,
        [shape.index(*lbl) for lbl in block_basis_labels(1, 1)])
    if model == "block":
        leak = [0.0] * len(times)

    assert series.times.tolist() == times.tolist()
    assert series.fidelity.tolist() == fid
    assert series.norm.tolist() == norm
    assert series.block_leakage.tolist() == leak
    assert series.truncation_leak.tolist() == result.truncation_leak.tolist()
    assert series.populations.tolist() == pops
    assert series.populations.shape == (len(times), shape.total_dim)
    with pytest.raises(ValueError):
        series.fidelity[0] = 0.0


# D = 8, 72 and 512: the smallest shape that holds the (1, 1) block is 2x2
@pytest.mark.parametrize("side, n_times", [(side, n_times)
                                           for side in (2, 6, 16)
                                           for n_times in (1, 2, 101)])
def test_fidelity_is_one_vdot_per_row_bit_for_bit(monkeypatch, side,
                                                  n_times):
    # random rows, not a physical run: the batched scorer must give each
    # row the bits of abs(np.vdot(target, row)) ** 2 whatever it holds
    shape = HilbertShape(side, side)
    rng = np.random.default_rng(side * 1000 + n_times)
    size = (n_times, shape.total_dim)
    amps = rng.normal(size=size) + 1j * rng.normal(size=size)
    monkeypatch.setattr(ghz_protocol, "_evolve_states",
                        lambda *run: EvolutionResult(run[3], amps, shape))
    schedule = ghz_schedule(scaled_params(), shape=shape)
    # such rows lie far above the truncation guard, which refuses them
    # after they are scored and carries the scores
    with pytest.raises(TruncationError) as refused:
        protocol_timeseries(schedule, ("g", 0, 0), "ld",
                            np.arange(float(n_times)))
    series = refused.value.series
    target = target_state(("g", 0, 0), shape).amplitudes
    assert series.fidelity.tolist() == [
        float(abs(np.vdot(target, row)) ** 2) for row in amps]
