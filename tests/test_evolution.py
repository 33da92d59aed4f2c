import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import scaled_params
from ghz_sim import evolution
from ghz_sim.errors import AccuracyError, ConfigurationError, ModelError
from ghz_sim.evolution import (BLOCK_PERMUTATION, EvolutionResult,
                               block_propagator, evolve_static, evolve_timedep,
                               to_interaction_picture)
from ghz_sim.fock_core import HilbertShape, QuantumState, basis_state, kron3, pauli_ops
from ghz_sim.ghz_protocol import ghz_schedule
from ghz_sim.hamiltonian import (BlockParams, SystemParams, block_matrix,
                                 build_ld_hamiltonian, lab_hamiltonian_source,
                                 rotating_frame_energies,
                                 rotating_frame_source)


# times that break the sample-time contract, with the refusal each gets
BAD_TIMES = [
    ([math.nan], "must be finite and strictly increasing"),
    ([-1.0, math.inf], "must be finite and strictly increasing"),
    ([-2.0, -1.0], "must be >= 0"),
    ([0.0, 1.0, 1.0], "must be finite and strictly increasing"),
    ([], "must be finite and strictly increasing"),
]


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


def make_block(omega, a):
    return BlockParams(m=1, n=1, Omega=omega, a=a, mu=math.hypot(a, omega))


def doubled_block_matrix(omega, a):
    """4x4 chain whose exact propagator the closed form is: carrier Omega on
    both pairs, sideband element 2a."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = omega
    h[2, 3] = h[3, 2] = omega
    h[0, 3] = h[3, 0] = 2.0 * a
    return h


class TestBlockPropagator:
    def test_identity_at_t_zero(self):
        u = block_propagator(make_block(1.0, 0.3), 0.0)
        assert np.allclose(u, np.eye(4), atol=1e-15)

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

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="propagation time must be >= 0"):
            block_propagator(make_block(1.0, 0.3), -0.1)

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), t=st.floats(0.0, 8.0))
    def test_norm_preserved_for_random_states(self, seed, t):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        out = block_propagator(make_block(0.9, 0.35), t) @ amps
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_linearity(self):
        block = make_block(1.0, 0.5)
        t = 1.7
        e1 = np.array([1, 0, 0, 0], dtype=complex)
        e3 = np.array([0, 0, 1, 0], dtype=complex)
        combo = (e1 + 2j * e3) / math.sqrt(5)
        out = block_propagator(block, t) @ combo
        parts = (block_propagator(block, t) @ e1
                 + 2j * block_propagator(block, t) @ e3)
        assert np.allclose(out, parts / math.sqrt(5), atol=1e-14)


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

    def test_one_negative_time_rejected(self):
        # a grid of sample times, so a negative one after 0.5 breaks the
        # increase before the sign is looked at
        with pytest.raises(ValueError, match="strictly increasing"):
            block_propagator(make_block(1.0, 0.3),
                             np.array([0.0, 0.5, -1e-12, 1.0]))

    @pytest.mark.parametrize("times, message", BAD_TIMES)
    def test_bad_times_are_refused(self, times, message):
        with pytest.raises(ValueError, match="propagation time " + message):
            block_propagator(make_block(1.0, 0.3), np.array(times))

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

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(11)
        shape = HilbertShape(3, 2)
        d = shape.total_dim
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        psi0 = basis_state(shape, "g", 1, 1)
        t = 0.83
        result = evolve_static(h, psi0, [t])
        expected = scipy.linalg.expm(-1j * h * t) @ psi0.amplitudes
        assert np.max(np.abs(result.final_state.amplitudes - expected)) < 1e-11

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

    def test_non_hermitian_rejected(self):
        shape = HilbertShape(1, 1)
        h = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ModelError):
            evolve_static(h, basis_state(shape, "g", 0, 0), [0.1])

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf,
                                       complex(0, math.nan)])
    def test_non_finite_entries_rejected(self, entry):
        # a NaN deviation compares False against the tolerance; it is refused
        shape = HilbertShape(1, 1)
        for h in (np.array([[0, entry], [entry, 0]], dtype=complex),
                  np.array([[entry, 0], [0, 0]], dtype=complex)):
            with pytest.raises(ModelError, match="not Hermitian"):
                evolve_static(h, basis_state(shape, "g", 0, 0), [0.0, 1.0])

    def test_times_must_increase(self):
        shape = HilbertShape(1, 1)
        with pytest.raises(ValueError, match="strictly increasing"):
            evolve_static(np.zeros((2, 2), dtype=complex),
                          basis_state(shape, "g", 0, 0), [0.0, 1.0, 0.5])

    @pytest.mark.parametrize("times, message", BAD_TIMES)
    def test_bad_times_are_refused_before_eigh(self, times, message,
                                               eigh_calls):
        shape = HilbertShape(1, 1)
        with pytest.raises(ValueError, match="times " + message):
            evolve_static(np.zeros((2, 2), dtype=complex),
                          basis_state(shape, "g", 0, 0), times)
        assert eigh_calls == []


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
        *_, evals, vecs = evolution._held
        assert not evals.flags.writeable and not vecs.flags.writeable
        del evals, vecs
        self.run(build_ld_hamiltonian(scaled_params(Omega=2.0),
                                      HilbertShape(3, 3)))
        assert len(eigh_calls) == 2

    def test_hermiticity_is_checked_on_every_call(self, eigh_calls):
        h = self.ld_matrix()
        self.run(h)
        h[0, 9] += 1.0
        with pytest.raises(ModelError):
            self.run(h)
        assert len(eigh_calls) == 1


def random_rows(shape, n_rows, seed):
    rng = np.random.default_rng(seed)
    size = (n_rows, shape.total_dim)
    return rng.normal(size=size) + 1j * rng.normal(size=size)


class TestEvolutionResult:
    def test_truncation_leak_matches_label_loop_exactly(self):
        shape = HilbertShape(12, 9)
        amps = random_rows(shape, 20, seed=4)
        result = EvolutionResult(np.arange(20.0), amps, shape)
        top = [shape.index(s, m, n) for s, m, n in shape.labels()
               if m == shape.vib_dim - 1 or n == shape.cav_dim - 1]
        expected = [np.sum((np.abs(row) ** 2)[top]) for row in amps]
        assert np.array_equal(result.truncation_leak, expected)

    def test_norms_match_linalg_norm_exactly(self):
        shape = HilbertShape(6, 6)
        amps = random_rows(shape, 30, seed=9)
        result = EvolutionResult(np.arange(30.0), amps, shape)
        assert np.array_equal(result.norms,
                              [np.linalg.norm(row) for row in amps])

    def test_amplitudes_read_only_and_final_state(self):
        shape = HilbertShape(2, 3)
        amps = random_rows(shape, 3, seed=6)
        result = EvolutionResult([0.0, 1.0, 2.0], amps, shape)
        with pytest.raises(ValueError):
            result.amplitudes[0, 0] = 0.0
        assert result.final_state.shape == shape
        assert np.array_equal(result.final_state.amplitudes, amps[-1])

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
    return params, shape, lab_hamiltonian_source(params, shape)


class TestEvolveTimedep:
    def test_constant_hamiltonian_matches_static(self):
        params = scaled_params(Omega=1.0)
        shape = HilbertShape(3, 3)
        h = build_ld_hamiltonian(params, shape)
        psi0 = basis_state(shape, "g", 0, 0)
        t_end = 2.5
        static = evolve_static(h, psi0, [t_end])
        timedep = evolve_timedep(lambda t: h, psi0, t_end, dt=5e-3)
        dev = np.max(np.abs(static.final_state.amplitudes
                            - timedep.final_state.amplitudes))
        assert dev < 1e-8

    def test_free_evolution_keeps_populations(self):
        shape = HilbertShape(2, 2)
        source = lab_hamiltonian_source(free_params(), shape)
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
            return evolve_timedep(source, psi0, t_end, dt).final_state.amplitudes

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

    def test_rejects_bad_dt(self):
        shape = HilbertShape(1, 1)
        psi0 = basis_state(shape, "g", 0, 0)
        with pytest.raises(ConfigurationError):
            evolve_timedep(lambda t: np.zeros((2, 2)), psi0, 1.0, dt=0.0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_dt(self, dt):
        shape = HilbertShape(1, 1)
        psi0 = basis_state(shape, "g", 0, 0)
        with pytest.raises(ConfigurationError, match="finite"):
            evolve_timedep(lambda t: np.zeros((2, 2)), psi0, 1.0, dt=dt)


def scaled_lab_period():
    """Lab source on the scaled hierarchy (omega_L = 4000 Omega) at 3x3, its
    laser period T and the step T / 400."""
    params = scaled_params(Omega=1.0)
    shape = HilbertShape(3, 3)
    period = 2 * math.pi / params.omega_L
    return (shape, lab_hamiltonian_source(params, shape), period,
            period / 400)


class TestPeriodPropagator:
    # the period path and the whole-pulse path are two RK4 discretisations
    # of one flow, each about 1e-12 from it at dt = T / 400 (measured gap
    # 3.6e-12 over 5.3 periods)
    PIN_ATOL = 1e-10

    def test_matches_whole_pulse_over_several_periods(self):
        shape, source, period, dt = scaled_lab_period()
        psi0 = basis_state(shape, "e", 0, 0)
        times = np.linspace(0.0, 5.3 * period, 12)
        whole = evolve_timedep(source, psi0, times[-1], dt, store_times=times)
        folded = evolve_timedep(source, psi0, times[-1], dt, store_times=times,
                                period=period)
        assert np.array_equal(folded.times, times)
        assert np.max(np.abs(folded.amplitudes - whole.amplitudes)) \
            < self.PIN_ATOL
        # norm_drift includes the unitarity bound k ||U(T)†U(T) - 1||
        assert whole.norm_drift < folded.norm_drift < 1e-6

    def test_store_times_exactly_at_whole_periods(self):
        # floor(13 T / T) rounds to 12 here, so that row is read at tau ~ T
        shape, source, period, dt = scaled_lab_period()
        psi0 = basis_state(shape, "g", 0, 0)
        times = np.array([0.0, period, 2 * period, 13 * period])
        assert math.floor(times[-1] / period) == 12
        whole = evolve_timedep(source, psi0, times[-1], dt, store_times=times)
        folded = evolve_timedep(source, psi0, times[-1], dt, store_times=times,
                                period=period)
        assert np.array_equal(folded.amplitudes[0], psi0.amplitudes)
        assert np.max(np.abs(folded.amplitudes - whole.amplitudes)) \
            < self.PIN_ATOL

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
        # worst-case bound over 5 periods does not
        shape, source, period, _ = scaled_lab_period()
        psi0 = basis_state(shape, "g", 0, 0)
        times = [0.0, 5.3 * period]
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

    @pytest.mark.parametrize("times", [
        [0.0, math.nan, 1.0], [0.0, math.inf, 1.0], [0.0, 0.5, 0.5, 1.0],
        [0.0, 0.7, 0.5, 1.0], []])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_bad_store_times_are_refused_before_any_step(self, times,
                                                         periodic):
        shape, source, period, dt = scaled_lab_period()
        calls = []

        def counted(t):
            calls.append(t)
            return source(t)

        t_end = times[-1] if times else 1.0
        scale = period if periodic else 1e-3
        with pytest.raises(ValueError, match="store_times must be finite "
                                             "and strictly increasing"):
            evolve_timedep(counted, basis_state(shape, "g", 0, 0),
                           t_end * scale, dt,
                           store_times=[t * scale for t in times],
                           period=period if periodic else None)
        assert calls == []

    @pytest.mark.parametrize("t_end", [math.nan, math.inf, -1.0])
    def test_rejects_bad_t_end(self, t_end):
        shape, source, _, dt = scaled_lab_period()
        with pytest.raises(ValueError, match="t_end must be a finite"):
            evolve_timedep(source, basis_state(shape, "g", 0, 0), t_end, dt)

    def test_rejects_negative_store_times(self):
        # a negative time would need U(T)^-1
        shape, source, period, dt = scaled_lab_period()
        with pytest.raises(ValueError, match=">= 0"):
            evolve_timedep(source, basis_state(shape, "g", 0, 0), 2 * period,
                           dt, store_times=[-0.5 * period, 2 * period],
                           period=period)


def held(state, times):
    """Trajectory that keeps ``state`` at every one of ``times``."""
    return EvolutionResult(times, np.tile(state.amplitudes, (len(times), 1)),
                           state.shape)


class TestInteractionPicture:
    def test_identity_at_t_zero(self):
        shape = HilbertShape(2, 2)
        state = basis_state(shape, "e", 1, 0)
        out = to_interaction_picture(held(state, [0.0]), scaled_params())
        assert np.array_equal(out.amplitudes[0], state.amplitudes)

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

    def test_matches_per_state_label_loop_exactly(self):
        # the one composed phase of laser frame and interaction picture is
        # the detuning form, differences taken before any product
        shape = HilbertShape(3, 4)
        times = np.array([0.0, 0.3, 1.7, 4.2])
        amps = random_rows(shape, len(times), seed=8)
        for params in (scaled_params(Omega=1.0), free_params()):
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
