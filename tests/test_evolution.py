import math
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (BAD_TIMES, doubled_block_matrix, lab_reference,
                      make_block, scaled_lab_period, scaled_params)
from ghz_sim import evolution
from ghz_sim.errors import AccuracyError, ConfigurationError, ModelError
from ghz_sim.evolution import (BLOCK_PERMUTATION, EvolutionResult,
                               block_propagator, evolve_static, evolve_timedep,
                               to_interaction_picture)
from ghz_sim.fock_core import HilbertShape, QuantumState, basis_state, kron3, pauli_ops
from ghz_sim.ghz_protocol import ghz_schedule
from ghz_sim.hamiltonian import (BlockParams, SystemParams, block_matrix,
                                 build_ld_hamiltonian, rotating_frame_energies,
                                 rotating_frame_source)


@pytest.fixture
def eigh_calls(monkeypatch):
    """Start from an empty memo; count np.linalg.eigh calls and check
    that every earlier eigensystem is freed before each one runs."""
    calls, earlier = [], []
    eigh = np.linalg.eigh

    def spy(h, *args, **kwargs):
        assert evolution._held is None
        assert all(vecs() is None for vecs in earlier)
        calls.append(h.shape)
        evals, vecs = eigh(h, *args, **kwargs)
        earlier.append(weakref.ref(vecs))
        return evals, vecs

    monkeypatch.setattr(evolution, "_held", None)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


@pytest.fixture
def evolutions(monkeypatch):
    """Count the EvolutionResults evolve_static builds: one per run it
    evolves, none for a run it returns again."""
    built = []
    result = evolution.EvolutionResult

    def spy(*args, **kwargs):
        built.append(args[0])
        return result(*args, **kwargs)

    monkeypatch.setattr(evolution, "EvolutionResult", spy)
    return built


class TestBlockPropagator:
    def test_ghz_point(self):
        # mu t = pi and a t = pi/4: initial |g,m-1,n-1> lands on
        # -(1/sqrt2)(|g,m-1,n-1> - i |e,m,n>)
        omega = 1.0
        a = omega / math.sqrt(15.0)
        block = make_block(omega, a)
        t1 = math.pi / block.mu
        assert a * t1 == pytest.approx(math.pi / 4.0, abs=1e-12)
        psi = block_propagator(block, t1)[:, 2]
        expected = np.array([0.0, 1j / math.sqrt(2), -1 / math.sqrt(2), 0.0])
        assert np.max(np.abs(psi - expected)) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(omega=st.floats(0.2, 3.0), a=st.floats(0.01, 2.0),
           t=st.floats(0.0, 10.0))
    def test_unitary(self, omega, a, t):
        u = block_propagator(make_block(omega, a), t)
        assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12

    @settings(deadline=None, max_examples=30)
    @given(omega=st.floats(0.2, 3.0), a=st.floats(0.01, 2.0),
           t=st.floats(0.0, 5.0), s=st.floats(0.0, 5.0))
    def test_composition(self, omega, a, t, s):
        block = make_block(omega, a)
        u_ts = block_propagator(block, t) @ block_propagator(block, s)
        assert np.max(np.abs(u_ts - block_propagator(block, t + s))) < 1e-10

    def test_permutation_commutes_with_block_matrix_exactly(self):
        params = scaled_params(Omega=1.3, eta_c=0.21, g=2.7)
        for m, n in ((1, 1), (2, 3)):
            h = block_matrix(BlockParams.from_params(params, m, n))
            assert np.array_equal(BLOCK_PERMUTATION @ h, h @ BLOCK_PERMUTATION)

    def test_propagator_commutes_with_permutation(self):
        u = block_propagator(make_block(1.1, 0.4), 2.3)
        assert np.max(np.abs(BLOCK_PERMUTATION @ u - u @ BLOCK_PERMUTATION)) < 1e-14

    def test_closed_form_is_exact_propagator_of_doubled_sideband_chain(self):
        # honest characterization of the closed form: it matches
        # expm(-iHt) of the doubled-coupling chain to machine precision
        # (and therefore not the coupling-a block; see test_acceptance)
        rng = np.random.default_rng(5)
        for _ in range(5):
            omega = rng.uniform(0.3, 2.0)
            a = rng.uniform(0.05, 1.5)
            t = rng.uniform(0.0, 6.0)
            u = block_propagator(make_block(omega, a), t)
            u_ref = scipy.linalg.expm(-1j * doubled_block_matrix(omega, a) * t)
            assert np.max(np.abs(u - u_ref)) < 1e-12

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), t=st.floats(0.0, 8.0))
    def test_norm_preserved_for_random_states(self, seed, t):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        out = block_propagator(make_block(0.9, 0.35), t) @ amps
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)


def block_propagator_per_time(block: BlockParams, t: float) -> np.ndarray:
    """Reference: the per-time closed form the array form must reproduce
    bit for bit."""
    if t < 0:
        raise ValueError("propagation time must be >= 0")
    a, mu, omega = block.a, block.mu, block.Omega
    sa, ca = np.sin(a * t), np.cos(a * t)
    sm, cm = np.sin(mu * t), np.cos(mu * t)
    ratio_a = a / mu if mu > 0 else 0.0
    ratio_o = omega / mu if mu > 0 else 0.0

    u = np.zeros((4, 4), dtype=complex)
    # initial |g,m-1,n-1>
    u[2, 2] = ratio_a * sa * sm + ca * cm
    u[3, 2] = -1j * ratio_o * ca * sm
    u[0, 2] = -ratio_o * sa * sm
    u[1, 2] = 1j * (ratio_a * ca * sm - sa * cm)
    # initial |e,m-1,n-1>
    u[3, 3] = ca * cm - ratio_a * sa * sm
    u[2, 3] = -1j * ratio_o * ca * sm
    u[1, 3] = -ratio_o * sa * sm
    u[0, 3] = -1j * (ratio_a * ca * sm + sa * cm)
    # initial |g,m,n> and |e,m,n>: permutation images of columns 3 and 2
    u[:, 0] = BLOCK_PERMUTATION @ u[:, 3]
    u[:, 1] = BLOCK_PERMUTATION @ u[:, 2]
    return u


class TestBlockPropagatorArray:
    """The array form equals the per-time closed form at every time."""

    @staticmethod
    def assert_rows_equal(block, times):
        stack = block_propagator(block, times)
        assert stack.shape == (len(times), 4, 4)
        for t, u in zip(times, stack):
            assert np.array_equal(u,
                                  block_propagator_per_time(block, float(t)))

    @pytest.mark.parametrize("p", [1, 2])
    def test_pulse_grid(self, p):
        params = scaled_params(Omega=8.95e6, eta_c=0.05)
        schedule = ghz_schedule(params, p=p, tune=True)
        self.assert_rows_equal(schedule.block,
                               np.linspace(0.0, schedule.t_p, 101))

    def test_random_blocks(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            block = make_block(rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0))
            self.assert_rows_equal(block, np.sort(rng.uniform(0.0, 50.0, 64)))

    def test_mu_zero_block(self):
        block = make_block(0.0, 0.0)
        assert block.mu == 0.0
        self.assert_rows_equal(block, np.linspace(0.0, 3.0, 7))

    def test_scalar_time_gives_one_matrix(self):
        block = make_block(1.1, 0.4)
        assert np.array_equal(block_propagator(block, 2.3),
                              block_propagator_per_time(block, 2.3))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_bad_scalar_time_is_refused(self, t):
        # NaN compares False against 0, so a sign test alone returned a
        # NaN matrix for it
        with pytest.raises(ValueError, match="propagation time must be "
                                             "finite and strictly increasing"):
            block_propagator(make_block(1.0, 0.3), t)


class TestEvolveStatic:
    def test_zero_hamiltonian_constant_state(self):
        shape = HilbertShape(2, 2)
        psi0 = basis_state(shape, "e", 1, 0)
        result = evolve_static(np.zeros((8, 8), dtype=complex), psi0,
                               [0.0, 1.0, 5.0])
        for amps in result.amplitudes:
            assert np.array_equal(amps, psi0.amplitudes)

    def test_carrier_rabi_closed_form(self):
        omega = 1.3
        shape = HilbertShape(1, 1)
        _, sp, sm = pauli_ops()
        h = omega * kron3(sp + sm, np.eye(1), np.eye(1))
        psi0 = basis_state(shape, "g", 0, 0)
        times = [0.0, 0.4, 1.1, math.pi / (2 * omega)]
        result = evolve_static(h, psi0, times)
        for t, amps in zip(times, result.amplitudes):
            expected = np.array([math.cos(omega * t), -1j * math.sin(omega * t)])
            assert np.max(np.abs(amps - expected)) < 1e-12

    def test_norm_and_energy_preserved(self):
        params = scaled_params(Omega=1.0)
        shape = HilbertShape(4, 4)
        h = build_ld_hamiltonian(params, shape)
        psi0 = basis_state(shape, "g", 0, 0)
        times = np.linspace(0.0, 10.0, 21)
        result = evolve_static(h, psi0, times)
        energies = []
        for amps in result.amplitudes:
            assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)
            energies.append(np.vdot(amps, h @ amps).real)
        spread = np.max(energies) - np.min(energies)
        scale = max(abs(np.max(energies)), np.max(np.abs(np.linalg.eigvalsh(h))))
        assert spread <= 1e-9 * scale

    def test_truncation_leak_reported(self):
        shape = HilbertShape(2, 2)
        psi0 = basis_state(shape, "e", 1, 1)
        result = evolve_static(np.zeros((8, 8), dtype=complex), psi0, [0.0, 1.0])
        assert np.array_equal(result.truncation_leak, [1.0, 1.0])

    def test_rows_are_the_exact_per_time_product(self):
        params = scaled_params(Omega=1.0)
        shape = HilbertShape(5, 5)
        h = build_ld_hamiltonian(params, shape)
        psi0 = basis_state(shape, "g", 0, 0)
        times = np.linspace(0.0, 7.0, 15)
        result = evolve_static(h, psi0, times)
        evals, vecs = np.linalg.eigh(h)
        coeffs = vecs.conj().T @ psi0.amplitudes
        for t, amps in zip(times, result.amplitudes):
            assert np.array_equal(
                amps, vecs @ (np.exp(-1j * evals * t) * coeffs))


class TestEigensystemReuse:
    """evolve_static diagonalises each distinct H once: the held eigensystem
    is keyed on every bit of H, and a reused run equals a cold one."""

    @staticmethod
    def run(h):
        shape = HilbertShape(3, 3)
        return evolve_static(h, basis_state(shape, "g", 0, 0),
                             np.linspace(0.0, 5.0, 11)).amplitudes

    @staticmethod
    def ld_matrix():
        return build_ld_hamiltonian(scaled_params(Omega=1.0),
                                    HilbertShape(3, 3))

    def cold(self, h):
        evolution._held = None
        return self.run(h)

    def test_a_repeated_hamiltonian_is_diagonalised_once(self, eigh_calls):
        h = self.ld_matrix()
        first = self.run(h)
        again = self.run(h)
        rebuilt = self.run(self.ld_matrix())
        assert len(eigh_calls) == 1
        assert np.array_equal(again, first)
        assert np.array_equal(rebuilt, first)

    def test_reused_run_is_bitwise_a_cold_run(self, eigh_calls):
        h = self.ld_matrix()
        self.run(h)
        reused = self.run(h)
        assert np.array_equal(reused, self.cold(h))
        assert len(eigh_calls) == 2

    @pytest.mark.parametrize("edit", ["one_ulp", "negative_zero"])
    def test_any_changed_bit_recomputes(self, eigh_calls, edit):
        h = self.ld_matrix()
        self.run(h)
        changed = h.copy()
        if edit == "one_ulp":
            value = np.nextafter(h[0, 9].real, np.inf)
            changed[0, 9] = changed[9, 0] = value
            assert value != h[0, 9].real
        else:
            # an entry -0.0 compares equal to +0.0 but is another bit pattern
            changed[0, 0] = complex(-0.0, 0.0)
            assert np.array_equal(changed, h)
        got = self.run(changed)
        assert len(eigh_calls) == 2
        assert np.array_equal(got, self.cold(changed))

    def test_an_in_place_edit_of_the_same_array_recomputes(self, eigh_calls):
        h = self.ld_matrix()
        before = self.run(h)
        h[0, 9] *= 2.0
        h[9, 0] *= 2.0
        after = self.run(h)
        assert len(eigh_calls) == 2
        assert not np.array_equal(after, before)
        assert np.array_equal(after, self.cold(h))

    def test_one_read_only_eigensystem_is_held(self, eigh_calls):
        # the spy asserts the first pair is freed before the second eigh
        self.run(self.ld_matrix())
        evals, vecs = evolution._held["evals"], evolution._held["vecs"]
        assert not evals.flags.writeable and not vecs.flags.writeable
        del evals, vecs
        self.run(build_ld_hamiltonian(scaled_params(Omega=2.0),
                                      HilbertShape(3, 3)))
        assert len(eigh_calls) == 2

    def test_hermiticity_is_checked_once_per_distinct_hamiltonian(
            self, eigh_calls, monkeypatch):
        checked = []
        check = evolution._require_hermitian_at

        def spy(h, index):
            checked.append(h.shape)
            return check(h, index)

        monkeypatch.setattr(evolution, "_require_hermitian_at", spy)
        h = self.ld_matrix()
        self.run(h)
        self.run(h.copy())
        assert len(checked) == 1
        h[0, 9] += 1.0
        with pytest.raises(ModelError):
            self.run(h)
        assert len(checked) == 2
        assert len(eigh_calls) == 1


class TestRunReuse:
    """evolve_static returns its last result again when H, the initial
    amplitudes and the times all repeat bit for bit; any other run
    evolves."""

    SHAPE = HilbertShape(3, 3)
    TIMES = np.linspace(0.0, 5.0, 11)

    def h(self):
        return build_ld_hamiltonian(scaled_params(Omega=1.0), self.SHAPE)

    def evolve(self, h, label=("g", 0, 0), times=TIMES):
        return evolve_static(h, basis_state(self.SHAPE, *label), times)

    def test_a_repeated_run_is_returned_again(self, eigh_calls, evolutions):
        first = self.evolve(self.h())
        again = self.evolve(self.h(), times=list(self.TIMES))
        assert again is first
        assert len(eigh_calls) == 1 and len(evolutions) == 1

    @pytest.mark.parametrize("change", ["initial", "times", "h_in_place"])
    def test_a_changed_run_evolves_again(self, eigh_calls, evolutions,
                                         change):
        h, label, times = self.h(), ("g", 0, 0), self.TIMES.copy()
        first = self.evolve(h, label, times)
        if change == "initial":
            label = ("e", 0, 0)
        elif change == "times":
            times[-1] = np.nextafter(times[-1], np.inf)
        else:
            h[0, 9] *= 2.0
            h[9, 0] *= 2.0
        second = self.evolve(h, label, times)
        assert second is not first
        assert len(evolutions) == 2
        assert len(eigh_calls) == (2 if change == "h_in_place" else 1)
        evolution._held = None
        assert np.array_equal(second.amplitudes,
                              self.evolve(h, label, times).amplitudes)

    def test_another_shape_of_the_same_dimension_evolves_again(
            self, eigh_calls, evolutions):
        # H = 0 has the same bits on 2x3 and 3x2, and so has |g,0,0>
        h = np.zeros((12, 12), dtype=complex)
        first = evolve_static(h, basis_state(HilbertShape(2, 3), "g", 0, 0),
                              self.TIMES)
        second = evolve_static(h, basis_state(HilbertShape(3, 2), "g", 0, 0),
                               self.TIMES)
        assert second is not first
        assert second.shape == HilbertShape(3, 2)
        assert len(eigh_calls) == 1 and len(evolutions) == 2

    def test_the_held_result_does_not_follow_the_callers_times(
            self, eigh_calls, evolutions):
        times = self.TIMES.copy()
        first = self.evolve(self.h(), times=times)
        times *= 2.0
        assert np.array_equal(first.times, self.TIMES)
        assert self.evolve(self.h(), times=self.TIMES) is first
        assert self.evolve(self.h(), times=times) is not first
        assert len(evolutions) == 2

    def test_the_reused_result_is_read_only(self, eigh_calls, evolutions):
        self.evolve(self.h())
        result = self.evolve(self.h())
        assert len(evolutions) == 1
        for values in (result.times, result.amplitudes,
                       result.truncation_leak, result.norms):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0


def dense_deviation(h):
    return float(np.max(np.abs(h - h.conj().T)))


def word_index(h):
    return np.flatnonzero(h.view(np.uint64).ravel())


class TestHermiticityCheck:
    """The check reads max |H - H†| off the pairs of H's nonzero words: the
    dense float bit for bit, and a non-finite entry is refused before any
    subtraction; evolve_static runs it on every H it has not held."""

    @staticmethod
    def hermitian(sparse):
        if sparse:
            return build_ld_hamiltonian(scaled_params(Omega=1.0),
                                        HilbertShape(3, 3))
        rng = np.random.default_rng(5)
        h = rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18))
        return h + h.conj().T

    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("perturbation", ["entry", "pair", "row"])
    def test_sparse_deviation_is_the_dense_one(self, sparse, perturbation):
        h = self.hermitian(sparse)
        if perturbation == "entry":
            h[2, 13] += 3e-10
        elif perturbation == "pair":
            h[2, 13] += 3e-10
            h[13, 2] += 1e-10j
        else:
            h[4] += np.linspace(-4e-10, 4e-10, 18) * (1 + 0.5j)
        dense = dense_deviation(h)
        assert dense > 0
        got = evolution._require_hermitian_at(h, word_index(h))
        assert np.float64(got).tobytes() == np.float64(dense).tobytes()

    def test_an_exact_hermitian_matrix_deviates_by_zero(self):
        for h in (self.hermitian(True), np.zeros((4, 4), dtype=complex)):
            assert evolution._require_hermitian_at(h, word_index(h)) == 0.0

    @staticmethod
    def evolve(h):
        return evolve_static(h, basis_state(HilbertShape(3, 3), "g", 0, 0),
                             [0.0, 1.0])

    def test_a_deviation_above_the_tolerance_is_refused(self):
        h = self.hermitian(True)
        h[2, 13] += 1e-6
        with pytest.raises(ModelError,
                           match=r"max \|H - H†\| = 1\.000e-06"):
            self.evolve(h)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf,
                                       complex(0, math.nan),
                                       complex(1.0, math.inf)])
    @pytest.mark.parametrize("row, column", [(3, 3), (2, 13)])
    def test_non_finite_entries_are_refused_without_a_warning(self, entry,
                                                              row, column):
        # a NaN deviation compares False against the tolerance; it is refused
        h = self.hermitian(True)
        h[row, column] = h[column, row] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelError, match="not Hermitian"):
                self.evolve(h)


class TestWorkBound:
    """require_bounded_work counts a time-dependent run's work from dt, the
    period and the sample times alone, and refuses it just past either
    bound; evolve_timedep runs it before any step."""

    def test_periods_up_to_the_bound_pass_and_one_more_is_refused(self):
        bound = evolution.MAX_PERIOD_POWERS
        evolution.require_bounded_work(None, 1.0, np.array([0.0, bound + 0.5]))
        with pytest.raises(ConfigurationError, match="MAX_PERIOD_POWERS"):
            evolution.require_bounded_work(None, 1.0,
                                           np.array([0.0, bound + 1.0]))

    def test_steps_without_a_period_count_one_per_dt_and_per_sample(self):
        bound = evolution.MAX_RK4_STEPS
        evolution.require_bounded_work(1.0, None, np.array([0.0, bound - 2]))
        with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
            evolution.require_bounded_work(1.0, None,
                                           np.array([0.0, 1.0, bound - 2]))

    def test_steps_with_a_period_count_both_passes(self):
        # T / dt to march U(T), then the offsets: T / dt plus one per sample
        bound = evolution.MAX_RK4_STEPS
        period = (bound - 2) / 2
        evolution.require_bounded_work(1.0, period,
                                       np.array([0.0, period + 0.5]))
        with pytest.raises(ConfigurationError, match="MAX_RK4_STEPS"):
            evolution.require_bounded_work(
                1.0, period, np.array([0.0, 1.0, period + 0.5]))

    @pytest.mark.parametrize("dt, t_end, match", [
        (1e-7, 1.5, "MAX_RK4_STEPS"),
        (1e-3, evolution.MAX_PERIOD_POWERS + 1.0, "MAX_PERIOD_POWERS")])
    def test_evolve_timedep_refuses_before_any_step(self, dt, t_end, match):
        def source(t):
            raise AssertionError(f"H({t}) evaluated: the run was not refused")

        with pytest.raises(ConfigurationError, match=match):
            evolve_timedep(source, basis_state(HilbertShape(1, 1), "g", 0, 0),
                           t_end=t_end, dt=dt, period=1.0)


def random_rows(shape, n_rows, seed):
    rng = np.random.default_rng(seed)
    size = (n_rows, shape.total_dim)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


# D = 2, 8, 72 and 512 (1x1 to 16x16), each with 1, 2 and 101 sample times
STACKED_CASES = [(HilbertShape(side, side), n_times)
                 for side in (1, 2, 6, 16) for n_times in (1, 2, 101)]


@pytest.mark.parametrize("shape, n_times", STACKED_CASES)
def test_stacked_rows_are_the_per_row_product_bit_for_bit(shape, n_times):
    # a random Hermitian H and state: every row of the one stacked product
    # is the per-time gemv vecs @ w
    rng = np.random.default_rng(shape.total_dim * 1000 + n_times)
    a = random_rows(shape, shape.total_dim, seed=n_times)
    h = a + a.conj().T
    psi = random_rows(shape, 1, seed=shape.total_dim)[0]
    psi0 = QuantumState(shape, psi / np.linalg.norm(psi))
    times = np.cumsum(rng.random(n_times))
    result = evolve_static(h, psi0, times)
    evals, vecs = np.linalg.eigh(h)
    coeffs = np.conj(vecs.T @ psi0.amplitudes.conj())
    for t, amps in zip(times, result.amplitudes):
        assert np.array_equal(amps, vecs @ (np.exp(-1j * evals * t) * coeffs))


@pytest.mark.parametrize("shape, n_times", STACKED_CASES)
def test_norms_are_the_per_row_dot_products_bit_for_bit(shape, n_times):
    amps = random_rows(shape, n_times, seed=shape.total_dim + n_times)
    result = EvolutionResult(np.arange(float(n_times)), amps, shape)
    assert result.norms.tolist() == [
        math.sqrt(re.dot(re) + im.dot(im))
        for re, im in zip(amps.real, amps.imag)]


class TestEvolutionResult:
    def test_truncation_leak_matches_label_loop_exactly(self):
        shape = HilbertShape(12, 9)
        amps = random_rows(shape, 20, seed=4)
        result = EvolutionResult(np.arange(20.0), amps, shape)
        top = [shape.index(s, m, n) for s, m, n in shape.labels()
               if m == shape.vib_dim - 1 or n == shape.cav_dim - 1]
        expected = [np.sum((np.abs(row) ** 2)[top]) for row in amps]
        assert np.array_equal(result.truncation_leak, expected)

    @pytest.mark.parametrize("vib, cav", [(1, 1), (2, 3), (3, 2), (6, 6),
                                          (16, 16)])
    def test_truncation_leak_matches_a_boolean_grid_mask_exactly(self, vib,
                                                                 cav):
        # the mask as an (ion, vib, cav) grid with its top vib and top cav
        # planes set, raveled to flat index order
        shape = HilbertShape(vib, cav)
        grid = np.zeros((shape.ion_dim, vib, cav), dtype=bool)
        grid[:, -1, :] = True
        grid[:, :, -1] = True
        amps = random_rows(shape, 7, seed=vib * 100 + cav)
        result = EvolutionResult(np.arange(7.0), amps, shape)
        top = np.abs(amps.compress(grid.ravel(), 1))
        assert np.array_equal(result.truncation_leak,
                              np.sum(top * top, axis=1))

    def test_norms_match_linalg_norm_exactly(self):
        shape = HilbertShape(6, 6)
        amps = random_rows(shape, 30, seed=9)
        result = EvolutionResult(np.arange(30.0), amps, shape)
        assert np.array_equal(result.norms,
                              [np.linalg.norm(row) for row in amps])

    def test_amplitudes_read_only_and_final_state(self):
        # the final state is the last row, read in place
        shape = HilbertShape(2, 3)
        amps = random_rows(shape, 3, seed=6)
        result = EvolutionResult([0.0, 1.0, 2.0], amps, shape)
        with pytest.raises(ValueError):
            result.amplitudes[0, 0] = 0.0
        assert np.array_equal(result.amplitudes[-1], amps[-1])
        assert result.amplitudes[-1].base is result.amplitudes

    def test_row_count_and_width_must_match(self):
        shape = HilbertShape(2, 2)
        with pytest.raises(ValueError):
            EvolutionResult([0.0, 1.0], np.zeros((3, 8)), shape)
        with pytest.raises(ValueError):
            EvolutionResult([0.0, 1.0], np.zeros((2, 9)), shape)

    @pytest.mark.parametrize("times, message", BAD_TIMES)
    def test_bad_times_are_refused(self, times, message):
        with pytest.raises(ValueError, match="times " + message):
            EvolutionResult(times, np.zeros((len(times), 2)),
                            HilbertShape(1, 1))

    def test_two_dimensional_times_are_refused(self):
        with pytest.raises(ValueError, match="times must be one-dimensional"):
            EvolutionResult([[0.0, 1.0]], np.zeros((1, 2)), HilbertShape(1, 1))


def free_params():
    """No laser and no cavity coupling, off resonance: H is the free H0."""
    return SystemParams(Omega=0.0, g=0.0, eta_L=0.05, eta_c=0.05, nu=3.0,
                        omega_0=15.0, omega_c=12.0, omega_L=14.0)


def mild_lab_source():
    params = scaled_params(Omega=1.0, nu_ratio=3.0, omega0_ratio=5.0)
    shape = HilbertShape(2, 2)
    return params, shape, lab_reference(params, shape)


class TestEvolveTimedep:
    def test_free_evolution_keeps_populations(self):
        shape = HilbertShape(2, 2)
        source = lab_reference(free_params(), shape)
        rng = np.random.default_rng(3)
        amps = rng.normal(size=shape.total_dim) + 1j * rng.normal(size=shape.total_dim)
        psi0 = QuantumState(shape, amps / np.linalg.norm(amps))
        result = evolve_timedep(source, psi0, 1.0, dt=2e-3,
                                store_times=[0.0, 0.5, 1.0])
        for amps in result.amplitudes:
            assert np.allclose(np.abs(amps) ** 2, np.abs(psi0.amplitudes) ** 2,
                               atol=1e-9)

    def test_fourth_order_self_convergence(self):
        params, shape, source = mild_lab_source()
        psi0 = basis_state(shape, "g", 0, 0)
        t_end = 0.5

        def terminal(dt):
            return evolve_timedep(source, psi0, t_end, dt).amplitudes[-1]

        ref = terminal(3e-3 / 8)
        err_coarse = np.linalg.norm(terminal(3e-3) - ref)
        err_fine = np.linalg.norm(terminal(1.5e-3) - ref)
        order = math.log2(err_coarse / err_fine)
        assert order == pytest.approx(4.0, abs=0.3)

    def test_resolution_guard(self):
        # the period T of H(t) caps the step at T / 50
        params, shape, source = mild_lab_source()
        psi0 = basis_state(shape, "g", 0, 0)
        period = 2 * math.pi / params.omega_L
        with pytest.raises(ConfigurationError, match="resolution guard"):
            evolve_timedep(source, psi0, 1.0, dt=2 * period / 50,
                           period=period)
        # at the guard boundary the call is accepted
        evolve_timedep(source, psi0, 10 * period / 50, dt=period / 50,
                       period=period)

    def test_norm_drift_raises_accuracy_error(self):
        shape = HilbertShape(1, 1)
        _, sp, sm = pauli_ops()
        h = 5.0 * kron3(sp + sm, np.eye(1), np.eye(1))
        psi0 = basis_state(shape, "g", 0, 0)
        with pytest.raises(AccuracyError) as err:
            evolve_timedep(lambda t: h, psi0, 50.0, dt=0.25)
        assert err.value.drift is not None and err.value.drift > 1e-6

    @pytest.mark.parametrize("dt", [0.0, math.nan, math.inf])
    def test_rejects_bad_dt(self, dt):
        shape = HilbertShape(1, 1)
        psi0 = basis_state(shape, "g", 0, 0)
        with pytest.raises(ConfigurationError, match="finite"):
            evolve_timedep(lambda t: np.zeros((2, 2)), psi0, 1.0, dt=dt)


class TestPeriodPropagator:
    def test_runs_inside_the_first_period_are_bit_identical(self):
        shape, source, period, dt = scaled_lab_period()
        psi0 = basis_state(shape, "g", 0, 0)
        times = np.linspace(0.0, 0.9 * period, 7)
        whole = evolve_timedep(source, psi0, times[-1], dt, store_times=times)
        folded = evolve_timedep(source, psi0, times[-1], dt, store_times=times,
                                period=period)
        assert np.array_equal(folded.amplitudes, whole.amplitudes)
        assert folded.norm_drift == whole.norm_drift

    def test_unitarity_bound_raises_at_coarse_dt(self):
        # at T / 200 each step's norm drift stays under the limit, but the
        # worst-case bound over 5 periods does not; at T / 400 the bound
        # passes, and norm_drift includes it
        shape, source, period, dt = scaled_lab_period()
        psi0 = basis_state(shape, "g", 0, 0)
        times = [0.0, 5.3 * period]
        whole, folded = (evolve_timedep(source, psi0, times[-1], dt,
                                        store_times=times, period=periodic)
                         for periodic in (None, period))
        assert whole.norm_drift < folded.norm_drift < 1e-6
        whole = evolve_timedep(source, psi0, times[-1], period / 200,
                               store_times=times)
        assert whole.norm_drift < 1e-6
        with pytest.raises(AccuracyError, match="unitarity bound") as err:
            evolve_timedep(source, psi0, times[-1], period / 200,
                           store_times=times, period=period)
        assert err.value.drift > 1e-6

    @pytest.mark.parametrize("period", [0.0, -1.0, math.nan])
    def test_rejects_bad_period(self, period):
        shape, source, _, dt = scaled_lab_period()
        with pytest.raises(ValueError, match="period"):
            evolve_timedep(source, basis_state(shape, "g", 0, 0), 1e-3, dt,
                           period=period)

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        shape, source, _, dt = scaled_lab_period()
        with pytest.raises(ValueError, match="t_end must be a finite"):
            evolve_timedep(source, basis_state(shape, "g", 0, 0), t_end, dt)


def held(state, times):
    """Trajectory that keeps ``state`` at every one of ``times``."""
    return EvolutionResult(times, np.tile(state.amplitudes, (len(times), 1)),
                           state.shape)


class TestInteractionPicture:
    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 1000), t=st.floats(0.0, 5.0))
    def test_populations_unchanged(self, seed, t):
        shape = HilbertShape(2, 3)
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=shape.total_dim) + 1j * rng.normal(size=shape.total_dim)
        state = QuantumState(shape, amps / np.linalg.norm(amps))
        out = to_interaction_picture(held(state, [t]), scaled_params(Omega=1.0))
        assert np.allclose(np.abs(out.amplitudes[0]) ** 2,
                           np.abs(state.amplitudes) ** 2, atol=1e-12)

    @pytest.mark.parametrize("vib, cav", [(1, 1), (3, 4), (16, 16)])
    def test_matches_per_state_label_loop_exactly(self, vib, cav):
        # the one composed phase of laser frame and interaction picture is
        # the detuning form, differences taken before any product; on the
        # benchmark's lab hierarchy (rad/s) and with the laser and cavity
        # both off resonance at optical frequencies too
        shape = HilbertShape(vib, cav)
        times = np.array([0.0, 0.3, 1.7, 4.2])
        amps = random_rows(shape, len(times), seed=8)
        resonant = scaled_params()
        lab = SystemParams(Omega=8.95 * 1e6, g=resonant.g, eta_L=0.05,
                           eta_c=0.05, nu=44.75 * 1e6, omega_0=223.75 * 1e6,
                           omega_c=179.0 * 1e6, omega_L=223.75 * 1e6)
        detuned = SystemParams(
            Omega=resonant.Omega, g=resonant.g, eta_L=0.05, eta_c=0.05,
            nu=resonant.nu, omega_0=resonant.omega_0,
            omega_c=resonant.omega_c + 0.1 * resonant.nu,
            omega_L=resonant.omega_L - 0.3 * resonant.nu)
        for params in (scaled_params(Omega=1.0), free_params(), lab,
                       detuned):
            out = to_interaction_picture(
                EvolutionResult(times, amps, shape), params)
            energies = np.empty(shape.total_dim)
            for s, m, n in shape.labels():
                sign = 1.0 if s == "e" else -1.0
                energies[shape.index(s, m, n)] = (
                    params.nu * (m + 0.5)
                    + (params.omega_c - params.omega_L) * n
                    + 0.5 * (params.omega_0 - params.omega_L) * sign)
            assert np.array_equal(rotating_frame_energies(params, shape),
                                  energies)
            for t, row, rotated in zip(times, amps, out.amplitudes):
                assert np.array_equal(
                    rotated, np.exp(1j * energies * float(t)) * row)

    def test_no_optical_phase_at_resonance(self):
        # omega_0 = omega_L: |g,m,n> and |e,m,n> turn at exactly one rate,
        # nu (m + 1/2) + (omega_c - omega_L) n, of the order of nu
        params = scaled_params()
        shape = HilbertShape(3, 4)
        energies = rotating_frame_energies(params, shape).reshape(2, -1)
        assert np.array_equal(energies[0], energies[1])
        assert np.max(np.abs(energies)) < 10 * params.nu

    def test_free_lab_evolution_is_constant_in_interaction_picture(self):
        # with Omega = g = 0 the laser-frame evolution is pure detuning
        # phases, so the interaction-picture state never moves
        params = free_params()
        shape = HilbertShape(2, 2)
        source = rotating_frame_source(params, shape)
        rng = np.random.default_rng(9)
        amps = rng.normal(size=shape.total_dim) + 1j * rng.normal(size=shape.total_dim)
        psi0 = QuantumState(shape, amps / np.linalg.norm(amps))
        times = [0.0, 0.7, 1.4]
        result = evolve_timedep(source, psi0, times[-1], dt=1e-3,
                                store_times=times)
        rotated = to_interaction_picture(result, params)
        assert np.array_equal(rotated.times, times)
        assert np.max(np.abs(rotated.amplitudes - psi0.amplitudes)) < 1e-8
