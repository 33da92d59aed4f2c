"""Named consistency checks behind the ``validate`` CLI command.

Each check measures one quantity (a residual, a deviation, a ratio error)
and compares it against its pinned threshold. The suite is deterministic:
randomized checks draw from a fixed seed.

Two checks compare the closed-form block propagator against the 4x4 block
matrix. These currently fail by a factor-2 discrepancy in the sideband
coupling that is intrinsic to the implemented closed form (see
:func:`ghz_sim.evolution.block_propagator`); ``validate`` reports the measured
discrepancy rather than hiding it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evolution import (BLOCK_PERMUTATION, block_propagator, evolve_static,
                        evolve_timedep)
from .fock_core import HilbertShape, basis_state, partial_trace
from .ghz_protocol import ghz_schedule, target_state, tune_coupling
from .hamiltonian import (BlockParams, SystemParams, block_basis_labels,
                          block_matrix, build_block_hamiltonian,
                          build_ld_hamiltonian, build_O_k,
                          build_rwa_hamiltonian)

CHECK_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float
    detail: str


def _scaled_params(Omega: float = 8.95e6, eta_c: float = 0.05,
                   eta_L: float = 0.05,
                   g: float | None = None) -> SystemParams:
    """Resonant parameter set with the scaled hierarchy omega_0 = 200 nu,
    nu = 20 Omega used throughout the quick checks."""
    nu = 20.0 * Omega
    omega_0 = 200.0 * nu
    if g is None:
        g = tune_coupling(Omega, eta_c, 1)
    return SystemParams(Omega=Omega, g=g, eta_L=eta_L, eta_c=eta_c, nu=nu,
                        omega_0=omega_0, omega_c=omega_0 - nu, omega_L=omega_0)


def _random_block(rng: np.random.Generator) -> BlockParams:
    """A (1, 1) block with Omega then a drawn uniformly from rng."""
    omega = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.05, 1.0)
    return BlockParams(m=1, n=1, Omega=omega, a=a, mu=math.hypot(a, omega))


def _expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * evals * t)) @ vecs.conj().T


def _laguerre_generalized(n: int, k: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^{(k)}(x) by the three-term recurrence."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, 1.0 + k - x
    for i in range(2, n + 1):
        prev, cur = cur, ((2 * i - 1 + k - x) * cur - (i - 1 + k) * prev) / i
    return cur


def _o_k_entry_laguerre(k: int, eta: float, m: int) -> float:
    """Independent path for <m|O_k|m>: exp(-eta^2/2) m!/(m+k)! L_m^{(k)}(eta^2)."""
    ratio = math.factorial(m) / math.factorial(m + k)
    return math.exp(-eta * eta / 2.0) * ratio * _laguerre_generalized(m, k, eta * eta)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_operation_time() -> CheckResult:
    Omega = 8.95e6
    t1 = math.pi * math.sqrt(15.0) / (4.0 * Omega)
    err = abs(t1 - 0.34e-6) / 0.34e-6
    return CheckResult("operation_time", err < 0.01, err, 0.01,
                       f"t1 = {t1 * 1e6:.6f} us for Omega = 8.95 MHz (angular)")


def check_tuning_identity() -> CheckResult:
    Omega, eta_c = 8.95e6, 0.05
    errs = []
    for p in (1, 2, 3):
        g = tune_coupling(Omega, eta_c, p)
        block = BlockParams.from_params(_scaled_params(Omega, eta_c, g=g), 1, 1)
        errs.append(abs(block.mu / block.a - 4.0 * p) / (4.0 * p))
        t_p = p * math.pi / block.mu
        errs.append(abs(block.mu * t_p - p * math.pi) / (p * math.pi))
        errs.append(abs(block.a * t_p - math.pi / 4.0) / (math.pi / 4.0))
        if p == 1:
            errs.append(abs(g * eta_c * math.sqrt(15.0) - Omega) / Omega)
            errs.append(abs(block.mu - 4.0 * Omega / math.sqrt(15.0))
                        / (4.0 * Omega / math.sqrt(15.0)))
    worst = max(errs)
    return CheckResult("tuning_identity", worst < 1e-12, worst, 1e-12,
                       "mu/a = 4p, g eta_c sqrt(15) = Omega, mu = 4 Omega/sqrt(15)")


def check_block_schrodinger_residual() -> CheckResult:
    """Finite-difference residual ||i dpsi/dt - H psi|| / ||H psi|| of the
    closed-form propagator against the 4x4 block matrix, at 20 random
    (Omega, a, t) triples."""
    rng = np.random.default_rng(CHECK_SEED)
    worst = 0.0
    for _ in range(20):
        block = _random_block(rng)
        h = block_matrix(block)
        t = rng.uniform(0.1, 3.0) / block.mu
        psi0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi0 /= np.linalg.norm(psi0)
        step = 1e-6 / block.mu
        psi_plus = block_propagator(block, t + step) @ psi0
        psi_minus = block_propagator(block, t - step) @ psi0
        psi = block_propagator(block, t) @ psi0
        dpsi = (psi_plus - psi_minus) / (2.0 * step)
        residual = np.linalg.norm(1j * dpsi - h @ psi) / np.linalg.norm(h @ psi)
        worst = max(worst, float(residual))
    return CheckResult("block_schrodinger_residual", worst < 1e-5, worst, 1e-5,
                       "closed form vs 4x4 block matrix (sideband factor-2 "
                       "discrepancy shows up here)")


def check_block_vs_expm() -> CheckResult:
    """Closed-form propagator vs matrix exponential of the 4x4 block."""
    rng = np.random.default_rng(CHECK_SEED + 1)
    worst = 0.0
    for _ in range(5):
        block = _random_block(rng)
        h = block_matrix(block)
        for t in np.linspace(0.0, 2.0 * math.pi / block.mu, 20):
            dev = np.max(np.abs(block_propagator(block, t) - _expm_unitary(h, t)))
            worst = max(worst, float(dev))
    return CheckResult("block_vs_expm", worst < 1e-10, worst, 1e-10,
                       "closed form vs expm(-iHt) of the same 4x4")


def check_states_table() -> CheckResult:
    """Tuned block propagator at t_1 maps each block basis state onto its
    printed GHZ target, amplitudes matched including global sign."""
    params = _scaled_params()
    shape = HilbertShape(2, 2)
    schedule = ghz_schedule(params, shape=shape)
    labels = block_basis_labels(1, 1)
    idx = [shape.index(*lbl) for lbl in labels]
    u = block_propagator(schedule.block, schedule.t_p)
    worst = 0.0
    for col, lbl in enumerate(labels):
        amps = np.zeros(shape.total_dim, dtype=complex)
        amps[idx] = u[:, col]
        tgt = target_state(lbl, shape).amplitudes
        worst = max(worst, float(np.max(np.abs(amps - tgt))))
    return CheckResult("states_table", worst < 1e-10, worst, 1e-10,
                       "four initial states vs their printed targets at t_1")


def check_ghz_marginals() -> CheckResult:
    shape = HilbertShape(2, 2)
    worst = 0.0
    for lbl in block_basis_labels(1, 1):
        tgt = target_state(lbl, shape)
        for slot in ("ion", "vib", "cav"):
            eigs = np.sort(np.linalg.eigvalsh(partial_trace(tgt, {slot})))[::-1]
            worst = max(worst, float(np.max(np.abs(eigs[:2] - 0.5))))
    return CheckResult("ghz_marginals", worst < 1e-12, worst, 1e-12,
                       "every single-subsystem reduction has eigenvalues {1/2, 1/2}")


def check_block_structure() -> CheckResult:
    """The 4x4 block equals the restriction of the full LD Hamiltonian, and the
    RWA matrix couples only carrier and sideband partner states."""
    params = _scaled_params()
    shape = HilbertShape(5, 5)
    h_ld = build_ld_hamiltonian(params, shape)
    worst = 0.0
    for m in (1, 2):
        for n in (1, 2):
            h_block, _ = build_block_hamiltonian(params, m, n)
            idx = [shape.index(*lbl) for lbl in block_basis_labels(m, n)]
            worst = max(worst, float(np.max(np.abs(h_ld[np.ix_(idx, idx)] - h_block))))
    h_rwa = build_rwa_hamiltonian(params, shape)
    for s1, m1, n1 in shape.labels():
        for s2, m2, n2 in shape.labels():
            i, j = shape.index(s1, m1, n1), shape.index(s2, m2, n2)
            carrier = s1 != s2 and (m1, n1) == (m2, n2)
            sideband = s1 != s2 and abs(m1 - m2) == 1 and (m1 - m2) == (n1 - n2)
            if not (carrier or sideband):
                worst = max(worst, float(abs(h_rwa[i, j])))
    return CheckResult("block_structure", worst < 1e-14, worst, 1e-14,
                       "4x4 restriction identity and RWA sparsity pattern")


def check_ld_convergence() -> CheckResult:
    """Max-entry difference between the RWA and LD Hamiltonians scales as
    O(eta^2): halving eta from 0.1 to 0.05 shrinks it by 4 within 20%."""
    shape = HilbertShape(5, 5)

    def diff(eta):
        params = _scaled_params(eta_c=eta, eta_L=eta)
        return float(np.max(np.abs(build_rwa_hamiltonian(params, shape)
                                   - build_ld_hamiltonian(params, shape))))

    ratio = diff(0.1) / diff(0.05)
    err = abs(ratio - 4.0)
    return CheckResult("ld_convergence", err < 0.8, err, 0.8,
                       f"difference ratio at eta 0.1 vs 0.05 = {ratio:.4f}")


def check_o_k_series() -> CheckResult:
    """Diagonal dressing operator against an independent generalized-Laguerre
    evaluation."""
    worst = 0.0
    for k in (0, 1, 2):
        for eta in (0.0, 0.05, 0.1, 0.3):
            built = build_O_k(k, eta, 8)
            expected = np.diag([_o_k_entry_laguerre(k, eta, m) for m in range(8)])
            worst = max(worst, float(np.max(np.abs(built - expected))))
    return CheckResult("o_k_series", worst < 1e-12, worst, 1e-12,
                       "O_k diagonal vs independent Laguerre recurrence")


def check_permutation_symmetry() -> CheckResult:
    params = _scaled_params()
    worst = 0.0
    for m, n in ((1, 1), (2, 3)):
        h, _ = build_block_hamiltonian(params, m, n)
        worst = max(worst, float(np.max(np.abs(BLOCK_PERMUTATION @ h
                                               - h @ BLOCK_PERMUTATION))))
    return CheckResult("permutation_symmetry", worst == 0.0, worst, 0.0,
                       "P H = H P exactly for the block matrix")


def check_propagator_composition() -> CheckResult:
    rng = np.random.default_rng(CHECK_SEED + 2)
    worst = 0.0
    for _ in range(10):
        block = _random_block(rng)
        t, s = rng.uniform(0.1, 3.0, size=2)
        dev = np.max(np.abs(block_propagator(block, t) @ block_propagator(block, s)
                            - block_propagator(block, t + s)))
        worst = max(worst, float(dev))
    return CheckResult("propagator_composition", worst < 1e-10, worst, 1e-10,
                       "U(t) U(s) = U(t+s)")


def check_static_timedep_agreement() -> CheckResult:
    """Constant-Hamiltonian cross-check of the fixed-step integrator against
    the eigendecomposition engine."""
    params = _scaled_params(Omega=1.0)
    shape = HilbertShape(3, 3)
    h = build_ld_hamiltonian(params, shape)
    psi0 = basis_state(shape, "g", 0, 0)
    t_end = 2.0
    static = evolve_static(h, psi0, [t_end])
    timedep = evolve_timedep(lambda t: h, psi0, t_end, dt=2e-3)
    dev = float(np.max(np.abs(static.final_state.amplitudes
                              - timedep.final_state.amplitudes)))
    return CheckResult("static_timedep_agreement", dev < 1e-8, dev, 1e-8,
                       "RK4 vs exp(-iHt) for constant H")


_CHECKS = {
    "operation_time": check_operation_time,
    "tuning_identity": check_tuning_identity,
    "block_schrodinger_residual": check_block_schrodinger_residual,
    "block_vs_expm": check_block_vs_expm,
    "states_table": check_states_table,
    "ghz_marginals": check_ghz_marginals,
    "block_structure": check_block_structure,
    "ld_convergence": check_ld_convergence,
    "o_k_series": check_o_k_series,
    "permutation_symmetry": check_permutation_symmetry,
    "propagator_composition": check_propagator_composition,
    "static_timedep_agreement": check_static_timedep_agreement,
}

CHECK_NAMES = tuple(_CHECKS)


def run_checks() -> list[CheckResult]:
    """Run every check in declaration order."""
    return [check() for check in _CHECKS.values()]
