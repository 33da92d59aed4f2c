import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import o_k_oracle, scaled_params
from ghz_sim.errors import ConfigurationError
from ghz_sim.fock_core import HilbertShape, kron3, ladder_ops, pauli_ops
from ghz_sim.hamiltonian import (BlockParams, SystemParams,
                                 _quadrature_functions, block_matrix,
                                 build_ld_hamiltonian, build_O_k,
                                 build_rwa_hamiltonian, effective_coupling,
                                 lab_hamiltonian_source, rotating_frame_source)

# values frozen from the finite-series evaluation of <m|O_k|m>; the
# independent Laguerre oracle conftest.o_k_oracle reproduces them within 1e-15
O0_M1_ETA01 = 0.9850623544007555
FL_M2_ETA01 = 0.9751619802327883
FC_M1_ETA005 = 0.04993753904622905


class TestOkOperator:
    def test_eta_zero_is_identity_over_k_factorial(self):
        for k in (0, 1, 2, 3):
            expected = np.eye(5) / math.factorial(k)
            assert np.array_equal(build_O_k(k, 0.0, 5), expected)

    def test_ground_entry_closed_form(self):
        for eta in (0.05, 0.2, 0.7):
            op = build_O_k(0, eta, 3)
            assert op[0, 0].real == pytest.approx(math.exp(-eta ** 2 / 2), abs=0)

    def test_m1_eta01_frozen_oracle_value(self):
        op = build_O_k(0, 0.1, 2)
        assert op[1, 1].real == pytest.approx(O0_M1_ETA01, abs=1e-15)
        assert o_k_oracle(0, 0.1, 1) == pytest.approx(O0_M1_ETA01, abs=0)

    def test_matches_independent_series_everywhere(self):
        for k in (0, 1, 2):
            for eta in (0.0, 0.1, 0.4):
                op = build_O_k(k, eta, 7)
                expected = [o_k_oracle(k, eta, m) for m in range(7)]
                assert np.allclose(np.diag(op).real, expected, atol=1e-15)

    def test_entries_real_and_in_unit_interval_for_k0(self):
        # positivity holds while eta^2 stays below the first Laguerre zero of
        # every kept level; for dim 10 that means eta <~ 0.35
        for eta in (0.05, 0.1, 0.2, 0.3):
            op = build_O_k(0, eta, 10)
            diag = np.diag(op)
            assert np.max(np.abs(diag.imag)) == 0.0
            assert np.all(diag.real > 0.0) and np.all(diag.real <= 1.0)

    def test_entries_stay_real_even_at_large_eta(self):
        diag = np.diag(build_O_k(0, 1.0, 10))
        assert np.max(np.abs(diag.imag)) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            build_O_k(0, 0.1, 0)
        with pytest.raises(ValueError):
            build_O_k(-1, 0.1, 3)


def f_l(m, eta):
    """Carrier dressing F^L_{m,m} = <m| O_0(eta) |m>, read off build_O_k."""
    return build_O_k(0, eta, m + 1)[m, m].real


def f_c(m, eta):
    """Sideband dressing F^c_{m,m-1} = <m| eta a† O_1(eta) |m-1>
    = eta sqrt(m) <m-1| O_1(eta) |m-1>, read off build_O_k."""
    return eta * math.sqrt(m) * build_O_k(1, eta, m)[m - 1, m - 1].real


class TestMatrixElements:
    def test_FL_eta_zero_is_one(self):
        for m in (0, 1, 5, 9):
            assert f_l(m, 0.0) == 1.0

    def test_FL_ground_closed_form(self):
        assert f_l(0, 0.2) == pytest.approx(math.exp(-0.02), abs=0)

    def test_FL_m2_frozen_oracle_value(self):
        assert f_l(2, 0.1) == pytest.approx(FL_M2_ETA01, abs=1e-15)
        assert o_k_oracle(0, 0.1, 2) == pytest.approx(FL_M2_ETA01, abs=1e-15)

    def test_Fc_lamb_dicke_limit(self):
        # F^c_{1,0} / eta_c -> 1 as eta_c -> 0
        for eta in (1e-3, 1e-5):
            assert f_c(1, eta) / eta == pytest.approx(1.0, rel=1e-5)

    def test_Fc_m1_frozen_value(self):
        assert f_c(1, 0.05) == pytest.approx(FC_M1_ETA005, abs=1e-15)
        assert FC_M1_ETA005 == pytest.approx(0.05 * math.exp(-0.00125), abs=1e-15)

    def test_Fc_zero_eta_vanishes(self):
        assert f_c(4, 0.0) == 0.0

    def test_Fc_general_matches_series(self):
        assert f_c(3, 0.2) == pytest.approx(
            0.2 * math.sqrt(3) * o_k_oracle(1, 0.2, 2), abs=1e-15)


def generic_lab_params():
    return SystemParams(Omega=1.3, g=0.7, eta_L=0.13, eta_c=0.21, nu=3.0,
                        omega_0=17.0, omega_c=5.0, omega_L=11.0, phi=0.4)


def lab_oracle(params, shape, t):
    """Independent assembly of the lab-frame Hamiltonian: test-local ladder
    matrices and scipy.linalg.expm (Pade) for the operator exponential/sine."""
    M, N = shape.vib_dim, shape.cav_dim
    alow = np.diag(np.sqrt(np.arange(1, M)), k=1).astype(complex)
    blow = np.diag(np.sqrt(np.arange(1, N)), k=1).astype(complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    x = alow + alow.conj().T
    h0 = (params.nu * kron3(np.eye(2), alow.conj().T @ alow + 0.5 * np.eye(M),
                            np.eye(N))
          + params.omega_c * kron3(np.eye(2), np.eye(M), blow.conj().T @ blow)
          + 0.5 * params.omega_0 * kron3(sz, np.eye(M), np.eye(N)))
    exp_op = scipy.linalg.expm(1j * params.eta_L * x)
    arg = params.eta_c * x + params.phi * np.eye(M)
    sin_op = (scipy.linalg.expm(1j * arg) - scipy.linalg.expm(-1j * arg)) / 2j
    laser = params.Omega * kron3(sp, exp_op, np.eye(N)) * np.exp(-1j * params.omega_L * t)
    cavity = params.g * kron3(sp + sp.conj().T, sin_op,
                              blow + blow.conj().T)
    return h0 + laser + laser.conj().T + cavity


class TestLabHamiltonian:
    def test_node_no_lamb_dicke_carrier_only(self):
        # eta_L = eta_c = 0, phi = 0: the cavity term vanishes (sin 0 = 0) and
        # the interaction is the bare carrier drive
        params = SystemParams(Omega=2.0, g=3.0, eta_L=0.0, eta_c=0.0, nu=1.0,
                              omega_0=10.0, omega_c=9.0, omega_L=10.0, phi=0.0)
        shape = HilbertShape(3, 3)
        t = 0.7
        h = lab_hamiltonian_source(params, shape)(t)
        h0 = lab_hamiltonian_source(
            SystemParams(Omega=0.0, g=0.0, eta_L=0.0, eta_c=0.0, nu=1.0,
                         omega_0=10.0, omega_c=9.0, omega_L=10.0), shape)(t)
        _, sp, sm = pauli_ops()
        carrier = 2.0 * (np.exp(-1j * 10.0 * t) * kron3(sp, np.eye(3), np.eye(3)))
        assert np.allclose(h - h0, carrier + carrier.conj().T, atol=1e-12)

    def test_antinode_cavity_term(self):
        # phi = pi/2 with eta_c = 0: sin(pi/2) = 1, full cavity coupling
        params = SystemParams(Omega=0.0, g=1.5, eta_L=0.0, eta_c=0.0, nu=1.0,
                              omega_0=10.0, omega_c=9.0, omega_L=10.0,
                              phi=np.pi / 2)
        shape = HilbertShape(2, 3)
        h = lab_hamiltonian_source(params, shape)(0.0)
        h0 = lab_hamiltonian_source(
            SystemParams(Omega=0.0, g=0.0, eta_L=0.0, eta_c=0.0, nu=1.0,
                         omega_0=10.0, omega_c=9.0, omega_L=10.0,
                         phi=np.pi / 2), shape)(0.0)
        _, sp, sm = pauli_ops()
        blow, bup = ladder_ops(3)
        expected = 1.5 * kron3(sp + sm, np.eye(2), bup + blow)
        assert np.allclose(h - h0, expected, atol=1e-12)

    @pytest.mark.parametrize("t", [0.0, 0.37, 2.1])
    def test_matches_independent_assembly(self, t):
        params = generic_lab_params()
        shape = HilbertShape(4, 3)
        h = lab_hamiltonian_source(params, shape)(t)
        assert np.max(np.abs(h - lab_oracle(params, shape, t))) < 1e-11

    def test_equals_per_call_lowering_term_exactly(self):
        # the lowering term is built once; H(t) keeps the values of the
        # expression that took laser_up.conj().T on every call
        params = generic_lab_params()
        shape = HilbertShape(4, 3)
        M, N = shape.vib_dim, shape.cav_dim
        b_low, b_up = ladder_ops(N)
        _, sigma_p, sigma_m = pauli_ops()
        eye_c = np.eye(N, dtype=complex)
        h_free = np.zeros((shape.total_dim,) * 2, dtype=complex)
        for s, m, n in shape.labels():
            i = shape.index(s, m, n)
            h_free[i, i] = (params.nu * (m + 0.5) + params.omega_c * n
                            + 0.5 * params.omega_0 * (1.0 if s == "e" else -1.0))
        exp_op, sin_op = _quadrature_functions(params.eta_L, params.eta_c,
                                               params.phi, M)
        h_static = h_free + params.g * kron3(sigma_p + sigma_m, sin_op,
                                             b_up + b_low)
        laser_up = params.Omega * kron3(sigma_p, exp_op, eye_c)
        source = lab_hamiltonian_source(params, shape)
        for t in (0.0, 0.37, 2.1, 1e3):
            phase = np.exp(-1j * params.omega_L * t)
            expected = (h_static + phase * laser_up
                        + np.conj(phase) * laser_up.conj().T)
            assert np.array_equal(source(t), expected)

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.3])
    def test_hermitian_at_every_time(self, t):
        h = lab_hamiltonian_source(generic_lab_params(), HilbertShape(4, 3))(t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def frame_generator(shape):
    """Diagonal of sigma_z / 2 + b†b, the generator of the laser frame."""
    sign = np.array([-0.5, 0.5])[:, None, None]
    n = np.arange(shape.cav_dim)[None, None, :]
    return (sign + n + np.zeros((1, shape.vib_dim, 1))).ravel()


FRAME_PARAMS = [generic_lab_params(), scaled_params(Omega=1.0)]


class TestRotatingFrameSource:
    @pytest.mark.parametrize("params", FRAME_PARAMS, ids=["generic", "scaled"])
    @pytest.mark.parametrize("phi", [0.0, 0.3])
    @pytest.mark.parametrize("t", [0.0, 0.37, 2.1, 41.3])
    def test_laser_frame_returns_the_lab_hamiltonian(self, params, phi, t):
        # R(t) [H_rot(t) + omega_L (sigma_z / 2 + b†b)] R(t)† = H(t) with
        # R(t) = exp(-i omega_L t (sigma_z / 2 + b†b)), diagonal
        params = replace(params, phi=phi)
        shape = HilbertShape(4, 3)
        gen = frame_generator(shape)
        r = np.exp(-1j * params.omega_L * t * gen)
        h_rot = rotating_frame_source(params, shape)(t)
        back = (r[:, None] * (h_rot + params.omega_L * np.diag(gen))
                * r.conj()[None, :])
        lab = lab_hamiltonian_source(params, shape)(t)
        assert np.max(np.abs(back - lab)) < 1e-9 * np.max(np.abs(lab))

    @pytest.mark.parametrize("t", [0.0, 0.37, 2.1])
    def test_periodic_in_half_a_laser_period(self, t):
        params = generic_lab_params()
        source = rotating_frame_source(params, HilbertShape(4, 3))
        h = source(t)
        assert np.max(np.abs(source(t + math.pi / params.omega_L) - h)) \
            < 1e-12 * np.max(np.abs(h))

    def test_static_part_holds_only_detunings(self):
        # at resonance the laser-frame Hamiltonian has no entry of the size of
        # omega_0: its largest is set by nu and the couplings
        params = scaled_params(Omega=1.0)
        h = rotating_frame_source(params, HilbertShape(4, 3))(0.37)
        assert np.max(np.abs(h)) < 10 * params.nu
        assert params.omega_0 > 100 * params.nu

    @pytest.mark.parametrize("t", [0.0, 0.5, 3.3])
    def test_hermitian_at_every_time(self, t):
        h = rotating_frame_source(generic_lab_params(), HilbertShape(4, 3))(t)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


class TestRwaHamiltonian:
    def test_printed_matrix_elements(self):
        params = scaled_params(Omega=1.0, eta_c=0.05, eta_L=0.1, g=2.0)
        shape = HilbertShape(3, 3)
        h = build_rwa_hamiltonian(params, shape)
        g11 = shape.index("g", 1, 1)
        e11 = shape.index("e", 1, 1)
        e00 = shape.index("e", 0, 0)
        # Omega F^L_{1,1} and g_eff F^c_{1,0} sqrt(1), F^c_{1,0} =
        # eta_c <0|O_1|0>, from the independent Laguerre oracle
        assert h[g11, e11] == pytest.approx(1.0 * o_k_oracle(0, 0.1, 1),
                                            abs=1e-15)
        assert h[g11, e00] == pytest.approx(
            2.0 * 0.05 * o_k_oracle(1, 0.05, 0), abs=1e-15)

    def test_eta_c_zero_kills_sideband(self):
        params = scaled_params(Omega=1.0, eta_c=0.0, eta_L=0.1, g=2.0)
        shape = HilbertShape(3, 3)
        h = build_rwa_hamiltonian(params, shape)
        for s1, m1, n1 in shape.labels():
            for s2, m2, n2 in shape.labels():
                if (m1, n1) != (m2, n2):
                    assert h[shape.index(s1, m1, n1), shape.index(s2, m2, n2)] == 0.0

    def test_block_sparsity_pattern(self):
        params = scaled_params(Omega=1.0, eta_c=0.12, eta_L=0.08, g=2.0)
        shape = HilbertShape(4, 4)
        h = build_rwa_hamiltonian(params, shape)
        assert np.max(np.abs(h - h.conj().T)) == 0.0
        for s1, m1, n1 in shape.labels():
            for s2, m2, n2 in shape.labels():
                i, j = shape.index(s1, m1, n1), shape.index(s2, m2, n2)
                carrier = s1 != s2 and (m1, n1) == (m2, n2)
                sideband = (s1 != s2 and abs(m1 - m2) == 1
                            and (m1 - m2) == (n1 - n2))
                if not (carrier or sideband):
                    assert h[i, j] == 0.0

    def test_resonance_violations_named(self):
        good = scaled_params()
        with pytest.raises(ConfigurationError, match="carrier"):
            build_rwa_hamiltonian(
                SystemParams(**{**good.__dict__, "omega_L": good.omega_L * 1.01}),
                HilbertShape(2, 2))
        with pytest.raises(ConfigurationError, match="sideband"):
            build_rwa_hamiltonian(
                SystemParams(**{**good.__dict__, "nu": good.nu * 1.01}),
                HilbertShape(2, 2))


class TestLdHamiltonian:
    def test_block_restriction_reproduces_printed_4x4(self):
        params = scaled_params(Omega=1.0, eta_c=0.05, g=2.0)
        shape = HilbertShape(3, 3)
        h = build_ld_hamiltonian(params, shape)
        idx = [shape.index("g", 1, 1), shape.index("e", 1, 1),
               shape.index("g", 0, 0), shape.index("e", 0, 0)]
        a = 2.0 * 0.05
        expected = np.array([[0, 1.0, 0, a],
                             [1.0, 0, 0, 0],
                             [0, 0, 0, 1.0],
                             [a, 0, 1.0, 0]], dtype=complex)
        assert np.allclose(h[np.ix_(idx, idx)], expected, atol=1e-15)

    def test_chain_leakage_element(self):
        # |e,1,1> couples up to |g,2,2> with strength 2 g eta_c, a coupling the
        # 4-state block does not contain
        params = scaled_params(Omega=1.0, eta_c=0.05, g=2.0)
        shape = HilbertShape(3, 3)
        h = build_ld_hamiltonian(params, shape)
        elem = h[shape.index("g", 2, 2), shape.index("e", 1, 1)]
        assert elem == pytest.approx(2.0 * 2.0 * 0.05, rel=1e-15)

    def test_g_zero_pure_carrier(self):
        params = scaled_params(Omega=1.7, g=0.0)
        shape = HilbertShape(3, 2)
        h = build_ld_hamiltonian(params, shape)
        _, sp, sm = pauli_ops()
        assert np.array_equal(h, 1.7 * kron3(sp + sm, np.eye(3), np.eye(2)))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 5), (6, 6)])
    @pytest.mark.parametrize("phi", [0.0, 0.3])
    def test_equals_the_explicit_formula(self, dims, phi):
        # the undressed RWA is Omega (sigma_+ + sigma_-)
        # + g cos(phi) eta_c (sigma_+ a b + sigma_- a† b†), entry for entry
        params = scaled_params(phi=phi)
        M, N = dims
        a_low, a_up = ladder_ops(M)
        b_low, b_up = ladder_ops(N)
        _, sp, sm = pauli_ops()
        expected = (params.Omega * kron3(sp + sm, np.eye(M), np.eye(N))
                    + params.g * math.cos(phi) * params.eta_c
                    * (kron3(sp, a_low, b_low) + kron3(sm, a_up, b_up)))
        assert np.array_equal(
            build_ld_hamiltonian(params, HilbertShape(M, N)), expected)

    def test_rwa_to_ld_difference_scales_as_eta_squared(self):
        shape = HilbertShape(5, 5)

        def diff(eta):
            params = scaled_params(Omega=1.0, eta_c=eta, eta_L=eta, g=2.0)
            return np.max(np.abs(build_rwa_hamiltonian(params, shape)
                                 - build_ld_hamiltonian(params, shape)))

        ratio = diff(0.1) / diff(0.05)
        assert ratio == pytest.approx(4.0, abs=0.8)


def out_of_place_dressed(params, shape, o0, o1):
    """The dressed assembly as one expression, carrier + sideband +
    sideband†, each term a fresh array: the reference for the in-place
    builder."""
    a_low, _ = ladder_ops(shape.vib_dim)
    b_low, _ = ladder_ops(shape.cav_dim)
    _, sp, sm = pauli_ops()
    g_eff = effective_coupling(params.g, params.phi)
    carrier = params.Omega * kron3(sp + sm, o0,
                                   np.eye(shape.cav_dim, dtype=complex))
    sideband_up = g_eff * params.eta_c * kron3(sp, o1 @ a_low, b_low)
    return carrier + sideband_up + sideband_up.conj().T


@pytest.mark.parametrize("dims", [(2, 2), (3, 5), (6, 6), (10, 10), (16, 16)])
@pytest.mark.parametrize("phi", [0.0, 0.3])
@pytest.mark.parametrize("eta", [0.02, 0.05, 0.1, 0.3])
def test_in_place_assembly_is_bitwise_the_out_of_place_sum(eta, phi, dims):
    # equal bits, sign of zero included: evolve_static keys its reuse on them
    params = scaled_params(eta_c=eta, eta_L=eta, phi=phi)
    shape = HilbertShape(*dims)
    eye = np.eye(shape.vib_dim, dtype=complex)
    for built, o0, o1 in (
            (build_ld_hamiltonian(params, shape), eye, eye),
            (build_rwa_hamiltonian(params, shape),
             build_O_k(0, eta, shape.vib_dim),
             build_O_k(1, eta, shape.vib_dim))):
        expected = out_of_place_dressed(params, shape, o0, o1)
        assert np.array_equal(built.view(np.uint64),
                              expected.view(np.uint64))


class TestBlockHamiltonian:
    def test_tuned_couplings(self):
        # Omega = 1, g eta_c = 1/sqrt(15): nonzeros (0,1) = (2,3) = 1 and
        # (0,3) = 1/sqrt(15)
        params = scaled_params(Omega=1.0, eta_c=0.05)
        block = BlockParams.from_params(params, 1, 1)
        h = block_matrix(block)
        assert h[0, 1] == 1.0 and h[2, 3] == 1.0
        assert h[0, 3].real == pytest.approx(1.0 / math.sqrt(15.0), rel=1e-12)
        assert np.count_nonzero(h) == 6
        assert block.a == h[0, 3].real
        assert block.mu == pytest.approx(math.hypot(block.a, 1.0), abs=0)

    def test_omega_zero_single_sideband_oscillation(self):
        params = scaled_params(Omega=0.0, eta_c=0.1, g=3.0)
        block = BlockParams.from_params(params, 1, 1)
        h = block_matrix(block)
        assert h[0, 1] == 0.0 and h[2, 3] == 0.0
        assert h[0, 3] == pytest.approx(block.a, abs=0)
        freqs = np.linalg.eigvalsh(h)
        assert np.allclose(sorted(freqs), [-block.a, 0.0, 0.0, block.a],
                           atol=1e-15)

    def test_invalid_block_indices(self):
        params = scaled_params()
        with pytest.raises(ValueError, match="block indices"):
            BlockParams.from_params(params, 0, 1)
        with pytest.raises(ValueError, match="block indices"):
            BlockParams.from_params(params, 1, 0)


class TestEffectiveCoupling:
    def test_values(self):
        assert effective_coupling(3.0, 0.0) == 3.0
        assert abs(effective_coupling(3.0, np.pi / 2)) < 1e-15
        assert effective_coupling(10e6, np.pi / 3) == pytest.approx(5e6, rel=1e-12)

    @given(g=st.floats(0, 1e8), phi=st.floats(-10, 10))
    def test_even_and_periodic(self, g, phi):
        assert effective_coupling(g, phi) == pytest.approx(
            effective_coupling(g, -phi), rel=1e-9, abs=1e-9 * max(g, 1.0))
        assert effective_coupling(g, phi) == pytest.approx(
            effective_coupling(g, phi + 2 * np.pi), rel=1e-6,
            abs=1e-6 * max(g, 1.0))


class TestSystemParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            scaled_params(Omega=-1.0)
        with pytest.raises(ValueError):
            scaled_params(eta_c=-0.1)

    def test_resonance_flags(self):
        # resonant, detuned and within the relative 1e-9 tolerance, through
        # require_resonances, the one place the two conditions are checked
        params = scaled_params()
        params.require_resonances()
        for key, message in (("omega_L", "carrier condition"),
                             ("omega_c", "red-sideband condition")):
            value = getattr(params, key)
            replace(params, **{key: value * (1 + 1e-10)}).require_resonances()
            for factor in (1.001, 1 + 2e-8):
                with pytest.raises(ConfigurationError, match=message):
                    replace(params, **{key: value * factor}).require_resonances()


@settings(deadline=None, max_examples=20)
@given(omega=st.floats(0.1, 10.0), g=st.floats(0.0, 10.0),
       eta_l=st.floats(0.0, 0.5), eta_c=st.floats(0.0, 0.5),
       phi=st.floats(-1.5, 1.5))
def test_every_builder_hermitian(omega, g, eta_l, eta_c, phi):
    params = scaled_params(Omega=omega, eta_c=eta_c, eta_L=eta_l, g=g, phi=phi)
    shape = HilbertShape(3, 3)
    for h in (build_rwa_hamiltonian(params, shape),
              build_ld_hamiltonian(params, shape),
              lab_hamiltonian_source(params, shape)(0.31),
              block_matrix(BlockParams.from_params(params, 1, 1))):
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
