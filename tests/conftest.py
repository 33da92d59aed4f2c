import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

from ghz_sim.checks import _o_k_entry_laguerre
from ghz_sim.fock_core import HilbertShape, kron3
from ghz_sim.ghz_protocol import tune_coupling
from ghz_sim.hamiltonian import BlockParams, SystemParams


# times that break the sample-time contract, with the refusal each gets
BAD_TIMES = [
    ([math.nan], "must be finite and strictly increasing"),
    ([-1.0, math.inf], "must be finite and strictly increasing"),
    ([-2.0, -1.0], "must be >= 0"),
    ([0.0, 1.0, 1.0], "must be finite and strictly increasing"),
    ([], "must be finite and strictly increasing"),
    ([0.0, math.nan, 1.0], "must be finite and strictly increasing"),
    ([0.0, math.inf, 1.0], "must be finite and strictly increasing"),
    ([0.0, 0.5, 0.5, 1.0], "must be finite and strictly increasing"),
    ([0.0, 0.7, 0.5, 1.0], "must be finite and strictly increasing"),
    # a negative time after 0.5 breaks the increase before the sign is seen
    ([0.0, 0.5, -1e-12, 1.0], "must be finite and strictly increasing"),
    ([-0.5, 2.0], "must be >= 0"),
]


# the reduced lab hierarchy nu = 5 Omega, omega_0 = omega_L = 5 nu (MHz)
LAB_HIERARCHY = {"Omega": 8.95, "nu": 44.75, "omega_0": 223.75,
                 "omega_L": 223.75, "omega_c": 179.0}


def scaled_params(Omega=8.95e6, eta_c=0.05, eta_L=0.05, g=None, phi=0.0,
                  nu_ratio=20.0, omega0_ratio=200.0):
    """Resonant parameter set with the scaled hierarchy nu = nu_ratio * Omega,
    omega_0 = omega0_ratio * nu; g defaults to the tuned p=1 value."""
    nu = nu_ratio * Omega
    omega_0 = omega0_ratio * nu
    if g is None:
        g = tune_coupling(Omega, eta_c, 1)
    return SystemParams(Omega=Omega, g=g, eta_L=eta_L, eta_c=eta_c, nu=nu,
                        omega_0=omega_0, omega_c=omega_0 - nu, omega_L=omega_0,
                        phi=phi)


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


# independent oracle for <m|O_k|m>: the generalized-Laguerre closed form
# exp(-eta^2/2) m!/(m+k)! L_m^(k)(eta^2) shared with the validate suite, not a
# copy of the production series
o_k_oracle = _o_k_entry_laguerre


def lab_reference(params, shape):
    """The lab-frame Hamiltonian H(t) = H0 + H_int(t) as a callable of t, the
    reference the package's laser-frame source is checked against. Assembled
    independently: test-local ladder matrices and scipy.linalg.expm (Pade)
    for the operator exponential and sine. The static part and the laser
    term are built once, so a call only applies the laser phase
    exp(-i omega_L t)."""
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
    cavity = params.g * kron3(sp + sp.conj().T, sin_op, blow + blow.conj().T)
    h_static = h0 + cavity
    laser_up = params.Omega * kron3(sp, exp_op, np.eye(N))
    laser_down = laser_up.conj().T

    def h_of_t(t):
        phase = np.exp(-1j * params.omega_L * t)
        return h_static + phase * laser_up + np.conj(phase) * laser_down

    return h_of_t


def scaled_lab_period():
    """Lab source on the scaled hierarchy (omega_L = 4000 Omega) at 3x3, its
    laser period T and the step T / 400."""
    params = scaled_params(Omega=1.0)
    shape = HilbertShape(3, 3)
    period = 2 * math.pi / params.omega_L
    return shape, lab_reference(params, shape), period, period / 400


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded by path (the
    benchmark directory is not a package) as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
