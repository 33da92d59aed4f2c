import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_sim.fock_core import (CAV, HilbertShape, ION, QuantumState, SLOTS,
                               VIB, basis_state, kron3, ladder_ops,
                               partial_trace, pauli_ops)


def random_state(shape, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=shape.total_dim) + 1j * rng.normal(size=shape.total_dim)
    return QuantumState(shape, amps / np.linalg.norm(amps))


class TestHilbertShape:
    def test_total_dim(self):
        assert HilbertShape(3, 4).total_dim == 24

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            HilbertShape(0, 3)
        with pytest.raises(ValueError):
            HilbertShape(3, 0)
        with pytest.raises(ValueError):
            HilbertShape(3, 3, ion_dim=3)

    def test_index_ordering_s_slowest_then_m_then_n(self):
        sh = HilbertShape(3, 4)
        assert sh.index("g", 0, 0) == 0
        assert sh.index("g", 0, 1) == 1
        assert sh.index("g", 1, 0) == 4
        assert sh.index("e", 0, 0) == 12
        assert [sh.index(*lbl) for lbl in sh.labels()] == list(range(24))

    def test_index_out_of_range(self):
        sh = HilbertShape(2, 2)
        with pytest.raises(IndexError):
            sh.index("g", 2, 0)
        with pytest.raises(IndexError):
            sh.index("e", 0, 2)
        with pytest.raises(IndexError):
            sh.index("x", 0, 0)


class TestLadderOps:
    def test_dim_one_both_zero(self):
        low, up = ladder_ops(1)
        assert low.shape == (1, 1) and not low.any() and not up.any()

    def test_dim_three_entries(self):
        low, _ = ladder_ops(3)
        assert low[0, 1] == 1.0
        assert low[1, 2] == pytest.approx(np.sqrt(2), abs=0)
        assert np.count_nonzero(low) == 2

    def test_number_operator_diagonal(self):
        low, up = ladder_ops(5)
        number = up @ low
        assert np.allclose(number, np.diag(np.arange(5.0)), atol=1e-12)
        assert np.count_nonzero(number - np.diag(np.diag(number))) == 0

    def test_zero_dim_rejected(self):
        with pytest.raises(ValueError):
            ladder_ops(0)

    @given(dim=st.integers(min_value=1, max_value=20))
    def test_raise_is_exact_conjugate_transpose(self, dim):
        low, up = ladder_ops(dim)
        assert np.array_equal(up, low.conj().T)


class TestPauliOps:
    def test_algebra(self):
        sz, sp, sm = pauli_ops()
        assert np.allclose(sp @ sm + sm @ sp, np.eye(2))
        assert np.allclose((sp + sm) @ (sp + sm), np.eye(2))

    def test_sign_convention(self):
        sz, sp, sm = pauli_ops()
        g = np.array([1, 0], dtype=complex)
        e = np.array([0, 1], dtype=complex)
        assert np.array_equal(sz @ g, -g)
        assert np.array_equal(sz @ e, e)
        assert np.array_equal(sp @ g, e)
        assert np.array_equal(sm, sp.conj().T)


def dims(shape):
    return {ION: shape.ion_dim, VIB: shape.vib_dim, CAV: shape.cav_dim}


def embed(op, slot, shape):
    """``op`` on one slot, the identity on the others, through kron3."""
    factors = {s: np.eye(d, dtype=complex) for s, d in dims(shape).items()}
    factors[slot] = op
    return kron3(*(factors[s] for s in SLOTS))


class TestEmbed:
    # the builders lift single-slot operators with kron3 and identities;
    # these pin that convention against the flat basis order
    def test_identity_any_slot(self):
        sh = HilbertShape(3, 2)
        for slot in SLOTS:
            eye = np.eye(dims(sh)[slot], dtype=complex)
            assert np.array_equal(embed(eye, slot, sh), np.eye(sh.total_dim))

    def test_disjoint_slots_commute(self):
        sh = HilbertShape(3, 2)
        sz, _, _ = pauli_ops()
        low, up = ladder_ops(3)
        a = embed(sz, ION, sh)
        b = embed(up @ low, VIB, sh)
        assert np.allclose(a @ b, b @ a)

    def test_lifted_matrix_element(self):
        sh = HilbertShape(2, 2)
        _, sp, _ = pauli_ops()
        lifted = embed(sp, ION, sh)
        bra = basis_state(sh, "e", 1, 0).amplitudes
        ket = basis_state(sh, "g", 1, 0).amplitudes
        assert np.vdot(bra, lifted @ ket) == 1.0

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000), slot=st.sampled_from(SLOTS))
    def test_embed_preserves_hermiticity_and_products(self, seed, slot):
        sh = HilbertShape(3, 2)
        d = dims(sh)[slot]
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = a + a.conj().T
        lifted = embed(herm, slot, sh)
        assert np.array_equal(lifted, lifted.conj().T)
        assert np.allclose(embed(a @ b, slot, sh),
                           embed(a, slot, sh) @ embed(b, slot, sh))


class TestBasisState:
    def test_unit_norm(self):
        state = basis_state(HilbertShape(2, 2), "g", 0, 0)
        assert np.linalg.norm(state.amplitudes) == 1.0

    def test_orthonormal(self):
        sh = HilbertShape(2, 2)
        e11 = basis_state(sh, "e", 1, 1)
        g11 = basis_state(sh, "g", 1, 1)
        assert np.vdot(e11.amplitudes, g11.amplitudes) == 0.0

    def test_completeness(self):
        sh = HilbertShape(2, 3)
        total = sum(np.outer(basis_state(sh, *lbl).amplitudes,
                             basis_state(sh, *lbl).amplitudes.conj())
                    for lbl in sh.labels())
        assert np.array_equal(total, np.eye(sh.total_dim))

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            basis_state(HilbertShape(2, 2), "g", 2, 0)


class TestPartialTrace:
    def test_product_state_pure_marginal(self):
        sh = HilbertShape(3, 3)
        rho = partial_trace(basis_state(sh, "g", 0, 0), {ION})
        assert np.allclose(rho, np.diag([1.0, 0.0]))
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_ghz_ion_marginal_maximally_mixed(self):
        sh = HilbertShape(2, 2)
        amps = np.zeros(sh.total_dim, dtype=complex)
        amps[sh.index("g", 0, 0)] = 1 / np.sqrt(2)
        amps[sh.index("e", 1, 1)] = -1j / np.sqrt(2)
        rho = partial_trace(QuantumState(sh, amps), {ION})
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-15)

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            partial_trace(basis_state(HilbertShape(2, 2), "g", 0, 0), set())

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000),
           keep=st.sets(st.sampled_from(SLOTS), min_size=1, max_size=2))
    def test_trace_one_hermitian_psd(self, seed, keep):
        state = random_state(HilbertShape(3, 2), seed)
        rho = partial_trace(state, keep)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_two_slot_reduction_consistent_with_kron3(self):
        sh = HilbertShape(2, 2)
        state = random_state(sh, 7)
        rho_ion_vib = partial_trace(state, {ION, VIB})
        # tracing the vib slot out of the two-slot reduction gives the ion one
        rho_ion = partial_trace(state, {ION})
        reduced = rho_ion_vib.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.allclose(reduced, rho_ion, atol=1e-12)


def test_quantum_state_is_immutable():
    state = basis_state(HilbertShape(2, 2), "g", 0, 0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_kron3_matches_embed_composition():
    sh = HilbertShape(3, 2)
    sz, sp, sm = pauli_ops()
    low, up = ladder_ops(3)
    blow, bup = ladder_ops(2)
    direct = kron3(sp, low, bup)
    composed = embed(sp, ION, sh) @ embed(low, VIB, sh) @ embed(bup, CAV, sh)
    assert np.allclose(direct, composed)
