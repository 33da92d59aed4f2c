"""Hamiltonians for a trapped two-level ion coupled to its motion and a cavity mode.

Four levels of approximation are built here, all in units hbar = 1 with every
frequency an angular frequency in rad/s:

* lab frame (:func:`lab_hamiltonian_source`): H0 + H_int with the full
  operator-valued laser phase exp(i eta_L (a† + a)) and standing-wave
  coupling sin(eta_c (a† + a) + phi), time dependent through the laser
  phase exp(-i omega_L t); exactly the same in the laser frame
  (:func:`rotating_frame_source`), where only the counter-rotating cavity
  term stays time dependent, at 2 omega_L, and the static part carries only
  detunings from the laser;
* interaction picture after the rotating-wave approximation
  (:func:`build_rwa_hamiltonian`; carrier and red sideband resonant): time
  independent, carrier dressed by the diagonal operator O_0 and sideband by
  eta_c a† O_1 (:func:`build_O_k`);
* its Lamb-Dicke limit (:func:`build_ld_hamiltonian`), O_0 = O_1 = 1;
* the 4x4 block (:func:`block_matrix` of a :class:`BlockParams`) on
  {|g,m,n>, |e,m,n>, |g,m-1,n-1>, |e,m-1,n-1>}.

Operator functions (exp, sin) of the quadrature eta (a† + a) are evaluated by
eigendecomposition of the truncated quadrature. That is not exact: f(P x P)
differs from P f(x) P in the top two Fock levels, where at 6 levels the entry
error of exp(i eta x) reaches 7.5e-3 at eta = 0.05 and 0.23 at eta = 0.3
(2.6e-9 and 1.1e-4 below them); ROADMAP item 1 has the exact elements.

Standing-wave offset: when the trap centre sits a phase phi away from the node,
the lab-frame coupling keeps phi inside the sine, while every approximate model
replaces g by the effective coupling g cos(phi) (see :func:`effective_coupling`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigurationError
from .fock_core import HilbertShape, kron3, ladder_ops, pauli_ops

RESONANCE_RTOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters of the ion-cavity system (angular frequencies, rad/s).

    Attributes
    ----------
    Omega : float
        Ion-laser (carrier) coupling.
    g : float
        Ion-cavity coupling.
    eta_L, eta_c : float
        Lamb-Dicke parameters of the laser and cavity fields.
    nu : float
        Trap frequency.
    omega_0, omega_c, omega_L : float
        Ion transition, cavity and laser frequencies.
    phi : float
        Standing-wave node offset phase, radians.
    """

    Omega: float
    g: float
    eta_L: float
    eta_c: float
    nu: float
    omega_0: float
    omega_c: float
    omega_L: float
    phi: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(
                    f"{f.name} must be finite, got {getattr(self, f.name)!r}")
        for name in ("Omega", "g", "nu", "omega_0", "omega_c", "omega_L"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.eta_L < 0 or self.eta_c < 0:
            raise ValueError("Lamb-Dicke parameters must be >= 0")

    def require_resonances(self):
        """Refuse a laser off the carrier (omega_L = omega_0) or a cavity off
        the red sideband (omega_0 - omega_c = nu), each to a relative
        RESONANCE_RTOL of the largest frequency involved (at least 1)."""
        scale = max(abs(self.omega_L), abs(self.omega_0), 1.0)
        if abs(self.omega_L - self.omega_0) > RESONANCE_RTOL * scale:
            raise ConfigurationError(
                "carrier condition omega_L = omega_0 violated: "
                f"omega_L={self.omega_L!r}, omega_0={self.omega_0!r}"
            )
        scale = max(abs(self.omega_0), abs(self.omega_c), abs(self.nu), 1.0)
        if (abs((self.omega_0 - self.omega_c) - self.nu)
                > RESONANCE_RTOL * scale):
            raise ConfigurationError(
                "red-sideband condition omega_0 - omega_c = nu violated: "
                f"omega_0 - omega_c = {self.omega_0 - self.omega_c!r}, nu={self.nu!r}"
            )


def effective_coupling(g: float, phi: float) -> float:
    """Cavity coupling seen by an ion displaced phi from the standing-wave node."""
    return g * math.cos(phi)


@dataclass(frozen=True)
class BlockParams:
    """Derived couplings of one 4-state block.

    a = g_eff * eta_c * sqrt(m n) with g_eff = g cos(phi),
    mu = sqrt(a^2 + Omega^2).
    """

    m: int
    n: int
    Omega: float
    a: float
    mu: float

    @classmethod
    def from_params(cls, params: SystemParams, m: int, n: int) -> "BlockParams":
        if m < 1 or n < 1:
            raise ValueError("block indices m, n must be >= 1")
        # sqrt(m)*sqrt(n), not sqrt(m*n): matches the Kronecker-product float
        # path bit for bit, so the 4x4 equals the full-LD restriction exactly
        a = (effective_coupling(params.g, params.phi) * params.eta_c
             * (math.sqrt(m) * math.sqrt(n)))
        return cls(m=m, n=n, Omega=params.Omega, a=a, mu=math.hypot(a, params.Omega))


def _o_k_entry(k: int, eta: float, m: int) -> float:
    """Diagonal matrix element <m| O_k |m> of the dressing operator.

    Finite series exp(-eta^2/2) sum_{p=0}^{m} (-eta^2)^p m! / (p! (p+k)! (m-p)!);
    the (i eta)^(2p) factor of the operator series is (-eta^2)^p, so entries are real.
    """
    total = 0.0
    for p in range(m + 1):
        total += (
            (-(eta * eta)) ** p
            * math.factorial(m)
            / (math.factorial(p) * math.factorial(p + k) * math.factorial(m - p))
        )
    return math.exp(-(eta * eta) / 2.0) * total


def build_O_k(k: int, eta: float, dim: int) -> np.ndarray:
    """Diagonal dressing operator O_k on a vibrational space of ``dim`` levels."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return np.diag([_o_k_entry(k, eta, m) for m in range(dim)]).astype(complex)


def _quadrature_functions(eta_L: float, eta_c: float, phi: float,
                          dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(exp(i eta_L x), sin(eta_c x + phi)) of the vibrational quadrature x = a† + a,
    via eigendecomposition of the Hermitian quadrature."""
    lower, upper = ladder_ops(dim)
    x = lower + upper
    evals, vecs = np.linalg.eigh(x)
    exp_op = (vecs * np.exp(1j * eta_L * evals)) @ vecs.conj().T
    sin_op = (vecs * np.sin(eta_c * evals + phi)) @ vecs.conj().T
    return exp_op, sin_op


def _free_energies(shape: HilbertShape, nu: float, omega_c: float,
                   omega_0: float) -> np.ndarray:
    """Diagonal of nu (a†a + 1/2) + omega_c b†b + omega_0 sigma_z / 2 in flat
    index order: nu (m + 1/2) + omega_c n + omega_0 s / 2, s = -1 for g."""
    m = np.arange(shape.vib_dim)[None, :, None]
    n = np.arange(shape.cav_dim)[None, None, :]
    sign = np.array([-1.0, 1.0])[:, None, None]  # ION_LABELS order (g, e)
    return (nu * (m + 0.5) + omega_c * n + 0.5 * omega_0 * sign).ravel()


def rotating_frame_energies(params: SystemParams,
                            shape: HilbertShape) -> np.ndarray:
    """Diagonal of the free part of the rotating-frame Hamiltonian, the
    detunings from the laser: nu (m + 1/2) + (omega_c - omega_L) n
    + (omega_0 - omega_L) s / 2. The differences are taken before any product
    with n or t, so no digits are lost at optical frequencies."""
    return _free_energies(shape, params.nu, params.omega_c - params.omega_L,
                          params.omega_0 - params.omega_L)


def _lab_terms(params: SystemParams, shape: HilbertShape
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Interaction terms of the lab-frame Hamiltonian, split by how they turn
    under the laser frame, with E = exp(i eta_L x), S = sin(eta_c x + phi):
    the laser's raising term Omega sigma_+ E, the co-rotating cavity terms
    g (sigma_+ S b + sigma_- S b†), and the counter-rotating cavity terms
    C = g sigma_- S b and g sigma_+ S b†."""
    N = shape.cav_dim
    b_low, b_up = ladder_ops(N)
    _, sigma_p, sigma_m = pauli_ops()
    exp_op, sin_op = _quadrature_functions(params.eta_L, params.eta_c,
                                           params.phi, shape.vib_dim)
    laser_up = params.Omega * kron3(sigma_p, exp_op, np.eye(N, dtype=complex))
    co_rotating = params.g * (kron3(sigma_p, sin_op, b_low)
                              + kron3(sigma_m, sin_op, b_up))
    counter_down = params.g * kron3(sigma_m, sin_op, b_low)
    counter_up = params.g * kron3(sigma_p, sin_op, b_up)
    return laser_up, co_rotating, counter_down, counter_up


def lab_hamiltonian_source(params: SystemParams,
                           shape: HilbertShape) -> Callable[[float], np.ndarray]:
    """Time-dependent lab-frame Hamiltonian H(t) = H0 + H_int(t) as a callable.

    The reference definition of the model: the protocol integrates the same
    physics in the laser frame (:func:`rotating_frame_source`). The static
    part (free evolution plus the cavity standing-wave term) and the laser's
    raising and lowering terms are precomputed; per call only the scalar
    laser phase exp(-i omega_L t) is applied. H(t) is periodic with period
    2 pi / omega_L.
    """
    laser_up, co_rotating, counter_down, counter_up = _lab_terms(params, shape)
    h_free = np.diag(_free_energies(shape, params.nu, params.omega_c,
                                    params.omega_0))
    h_static = h_free + co_rotating + counter_down + counter_up
    laser_down = laser_up.conj().T

    def h_of_t(t: float) -> np.ndarray:
        phase = np.exp(-1j * params.omega_L * t)
        return h_static + phase * laser_up + np.conj(phase) * laser_down

    return h_of_t


def rotating_frame_source(params: SystemParams,
                          shape: HilbertShape) -> Callable[[float], np.ndarray]:
    """The lab-frame Hamiltonian in the laser frame, as a callable of t.

    With R(t) = exp(-i omega_L t (sigma_z / 2 + b†b)) and psi_lab = R psi,
    psi obeys H_rot(t) = R† H R - omega_L (sigma_z / 2 + b†b), exactly:

        H_rot(t) = h0 + exp(-2i omega_L t) C + exp(+2i omega_L t) C†,
        h0 = nu (a†a + 1/2) + (omega_c - omega_L) b†b
             + (omega_0 - omega_L) sigma_z / 2 + Omega (sigma_+ E + sigma_- E†)
             + g (sigma_+ S b + sigma_- S b†),
        C = g sigma_- S b.

    The laser and co-rotating cavity terms become static, and h0 carries only
    detunings; the one time dependence left is C at twice the laser frequency,
    so H_rot is periodic with period pi / omega_L. No approximation is made.
    """
    laser_up, co_rotating, counter_down, counter_up = _lab_terms(params, shape)
    h0 = (np.diag(rotating_frame_energies(params, shape))
          + laser_up + laser_up.conj().T + co_rotating)

    def h_of_t(t: float) -> np.ndarray:
        phase = np.exp(-2j * params.omega_L * t)
        return h0 + phase * counter_down + np.conj(phase) * counter_up

    return h_of_t


def _dressed_hamiltonian(params: SystemParams, shape: HilbertShape,
                         o0: np.ndarray, o1: np.ndarray) -> np.ndarray:
    """Omega (sigma_+ + sigma_-) o0 + g_eff eta_c [sigma_+ (o1 a) b + h.c.]
    for vibrational dressing operators o0, o1; requires the carrier and
    red-sideband resonance conditions."""
    params.require_resonances()
    a_low, _ = ladder_ops(shape.vib_dim)
    b_low, _ = ladder_ops(shape.cav_dim)
    _, sigma_p, sigma_m = pauli_ops()
    g_eff = effective_coupling(params.g, params.phi)
    # assembled in place: the same products and sums in the same order as
    # carrier + sideband + sideband†, so the same bits, with one D x D
    # array fewer alive at the peak (traced: 16.9 -> 12.7 MB at 16x16)
    h = kron3(sigma_p + sigma_m, o0, np.eye(shape.cav_dim, dtype=complex))
    h *= params.Omega
    side = kron3(sigma_p, o1 @ a_low, b_low)
    side *= g_eff * params.eta_c
    h += side
    h += side.conj().T
    return h


def build_rwa_hamiltonian(params: SystemParams, shape: HilbertShape) -> np.ndarray:
    """Interaction-picture Hamiltonian after the rotating-wave approximation.

    H = Omega (sigma_+ + sigma_-) O_0(eta_L)
        + g_eff [sigma_+ b (eta_c O_1(eta_c) a) + h.c.]

    so that <g,m,n|H|e,m,n> = Omega <m|O_0|m> and <g,m,n|H|e,m-1,n-1> =
    g_eff eta_c sqrt(m) <m-1|O_1|m-1> sqrt(n). Time independent; requires
    the carrier and red-sideband resonance conditions.
    """
    M = shape.vib_dim
    return _dressed_hamiltonian(params, shape, build_O_k(0, params.eta_L, M),
                                build_O_k(1, params.eta_c, M))


def build_ld_hamiltonian(params: SystemParams, shape: HilbertShape) -> np.ndarray:
    """Lamb-Dicke limit of the RWA Hamiltonian: the RWA with undressed
    operators, O_0 = O_1 = 1 (what :func:`build_O_k` gives at eta = 0).

    H = Omega (sigma_+ + sigma_-) + g_eff eta_c (sigma_+ a b + sigma_- a† b†),
    equal to :func:`build_rwa_hamiltonian` up to O(eta^2) corrections.
    """
    eye_v = np.eye(shape.vib_dim, dtype=complex)
    return _dressed_hamiltonian(params, shape, eye_v, eye_v)


def block_basis_labels(m: int, n: int) -> tuple[tuple[str, int, int], ...]:
    """Concrete (s, m, n) labels of the 4-state block, in block basis order.
    Reversed, the order pairs each state with its GHZ partner."""
    return (("g", m, n), ("e", m, n), ("g", m - 1, n - 1), ("e", m - 1, n - 1))


def block_matrix(block: BlockParams) -> np.ndarray:
    """4x4 Lamb-Dicke Hamiltonian of one block on (|g,m,n>, |e,m,n>,
    |g,m-1,n-1>, |e,m-1,n-1>): carrier couplings Omega, sideband coupling a;
    of ``BlockParams.from_params(params, m, n)``, the LD matrix's block."""
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = block.Omega
    h[2, 3] = h[3, 2] = block.Omega
    h[0, 3] = h[3, 0] = block.a
    return h
