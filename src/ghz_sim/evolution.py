"""Time-evolution engines.

Three engines plus the frame transform that links them:

* :func:`block_propagator` is the closed-form 4x4 propagator of one
  sideband block (see the honesty note in its docstring);
* :func:`evolve_static` evolves under any time-independent Hermitian
  Hamiltonian by eigendecomposition, exp(-iHt) applied exactly;
* :func:`evolve_timedep` integrates the time-dependent lab-frame model with a
  fixed-step classical Runge-Kutta scheme (midpoint Hamiltonian evaluations);
  norm drift is never repaired by renormalization, it is the accuracy signal;
* :func:`to_interaction_picture` applies the diagonal free-evolution phases
  exp(+i H0 t) that map a lab-frame trajectory into the interaction picture.

Every full-space engine returns its trajectory as one (times x dim) complex
amplitude array in an :class:`EvolutionResult`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ConfigurationError, ModelError
from .fock_core import HilbertShape, QuantumState
from .hamiltonian import BlockParams, SystemParams

HERMITICITY_ATOL = 1e-9
NORM_DRIFT_LIMIT = 1e-6

# Permutation that swaps |g,m,n> <-> |e,m-1,n-1> and |e,m,n> <-> |g,m-1,n-1>.
# It commutes with the block Hamiltonian and extends the two printed
# closed-form columns to the remaining two initial states.
BLOCK_PERMUTATION = np.array(
    [[0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [1, 0, 0, 0]], dtype=complex)


@functools.lru_cache(maxsize=None)
def _top_level_mask(shape: HilbertShape) -> np.ndarray:
    """Read-only flat mask of the basis states in the top vib or top cav level."""
    top = np.zeros((shape.ion_dim, shape.vib_dim, shape.cav_dim), dtype=bool)
    top[:, -1, :] = True
    top[:, :, -1] = True
    mask = top.ravel()
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True)
class EvolutionResult:
    """Stored trajectory of one evolution run.

    ``amplitudes`` is a read-only (len(times), shape.total_dim) complex array
    whose row i is the state at ``times[i]``; a complex array passed in is
    marked read-only, not copied. ``truncation_leak[i]`` is that
    row's population in the top vibrational or top cavity level, the
    truncation diagnostic, and ``norms[i]`` its norm, taken on first read;
    ``norm_drift`` is the largest deviation of any norm from 1 seen by the
    engine, by default that of ``norms``.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    shape: HilbertShape
    norm_drift: float | None = None
    truncation_leak: np.ndarray = field(init=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("times must be strictly increasing")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (len(times), self.shape.total_dim):
            raise ValueError(
                f"amplitude array has shape {amps.shape}, expected "
                f"({len(times)}, {self.shape.total_dim})")
        amps.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "amplitudes", amps)
        # compress keeps each row contiguous, so every row is summed in the
        # same order as a one-dimensional sum of that state's populations;
        # squared in place, the same x * x as ** 2 without another copy
        top = np.abs(amps.compress(_top_level_mask(self.shape), axis=1))
        object.__setattr__(self, "truncation_leak",
                           np.sum(np.square(top, out=top), axis=1))
        if self.norm_drift is None:
            object.__setattr__(self, "norm_drift", float(
                np.max(np.abs(self.norms - 1.0), initial=0.0)))

    @functools.cached_property
    def norms(self) -> np.ndarray:
        # row by row: an axis=1 norm sums in another order (outputs move)
        return np.array([np.linalg.norm(row) for row in self.amplitudes])

    @property
    def final_state(self) -> QuantumState:
        return QuantumState(self.shape, self.amplitudes[-1])


def block_propagator(block: BlockParams, t: float) -> np.ndarray:
    """Closed-form 4x4 propagator of one sideband block at time t.

    Columns 2 and 3 (initial |g,m-1,n-1> and |e,m-1,n-1>) are the printed
    closed-form amplitudes built from sin/cos of (a t) and (mu t) with
    a = g_eff eta_c sqrt(mn) and mu = sqrt(a^2 + Omega^2); columns 0 and 1 are
    their images under BLOCK_PERMUTATION, which commutes with the block matrix.

    Consistency note: this closed form is the exact propagator of the block
    Hamiltonian with its sideband element *doubled* (coupling 2a), not of the
    4x4 produced by ``build_block_hamiltonian`` (coupling a). The two engines
    therefore disagree whenever a != 0; the ``validate`` suite measures the
    discrepancy instead of hiding it. At the tuned protocol point
    (mu t = p pi, a t = pi/4) this closed form reproduces the GHZ targets
    exactly, which is what the protocol layer is built on.
    """
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


def require_hermitian(h: np.ndarray, atol: float = HERMITICITY_ATOL):
    dev = float(np.max(np.abs(h - h.conj().T))) if h.size else 0.0
    if dev > atol:
        raise ModelError(f"Hamiltonian is not Hermitian: max |H - H†| = {dev:.3e}")


def evolve_static(h: np.ndarray, initial: QuantumState,
                  times: Sequence[float]) -> EvolutionResult:
    """Evolve under a time-independent Hamiltonian: psi(t) = exp(-iHt) psi(0).

    Computed by eigendecomposition of H, so norms and energy are preserved to
    machine precision at every output time.
    """
    h = np.asarray(h, dtype=complex)
    if h.shape != (initial.shape.total_dim,) * 2:
        raise ValueError(
            f"Hamiltonian shape {h.shape} does not match state dimension "
            f"{initial.shape.total_dim}")
    require_hermitian(h)
    evals, vecs = np.linalg.eigh(h)
    coeffs = vecs.conj().T @ initial.amplitudes

    # one exact product per time; a single (D x D) @ (D x T) matmul would
    # reorder the sums and move the written 12-digit outputs
    times = np.asarray(times, dtype=float)
    amps = np.empty((len(times), len(coeffs)), dtype=complex)
    for i, t in enumerate(times):
        amps[i] = vecs @ (np.exp(-1j * evals * t) * coeffs)
    return EvolutionResult(times, amps, initial.shape)


def _rk4_segment(h_of_t: Callable[[float], np.ndarray], psi: np.ndarray,
                 t0: float, t1: float, dt: float) -> tuple[np.ndarray, float]:
    """March psi from t0 to t1 with uniform steps of at most dt.

    Classical 4th-order Runge-Kutta for i psi' = H(t) psi, with the midpoint
    Hamiltonian shared between the two interior stages. Returns the final
    amplitudes and the largest norm drift seen during the segment.
    """
    span = t1 - t0
    if span <= 0:
        return psi, 0.0
    n_steps = max(1, int(np.ceil(span / dt - 1e-12)))
    h = span / n_steps
    drift = 0.0
    h_t = h_of_t(t0)
    for step in range(n_steps):
        t = t0 + step * h
        h_mid = h_of_t(t + 0.5 * h)
        h_end = h_of_t(t + h)
        k1 = -1j * (h_t @ psi)
        k2 = -1j * (h_mid @ (psi + 0.5 * h * k1))
        k3 = -1j * (h_mid @ (psi + 0.5 * h * k2))
        k4 = -1j * (h_end @ (psi + h * k3))
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_t = h_end
        step_drift = abs(np.linalg.norm(psi) - 1.0)
        drift = max(drift, step_drift)
        if step_drift > NORM_DRIFT_LIMIT:
            raise AccuracyError(
                f"norm drift {step_drift:.3e} exceeded {NORM_DRIFT_LIMIT:.1e} "
                f"at t = {t + h:.6e}; reduce dt", drift=step_drift)
    return psi, drift


def evolve_timedep(h_of_t: Callable[[float], np.ndarray], initial: QuantumState,
                   t_end: float, dt: float, omega_max: float | None = None,
                   store_times: Sequence[float] | None = None) -> EvolutionResult:
    """Integrate i psi' = H(t) psi with a fixed-step 4th-order scheme.

    Parameters
    ----------
    dt : float
        Step-size cap. Each stored interval is subdivided uniformly so the
        actual step never exceeds dt and store times are hit exactly.
    omega_max : float, optional
        Largest frequency in the model; when given, enforces the resolution
        guard dt <= (1/50) (2 pi / omega_max).
    store_times : sequence, optional
        Strictly increasing times at which to record the state (default:
        just 0 and t_end). Must end at t_end.

    Norm drift above 1e-6 at any step raises :class:`AccuracyError`; no
    renormalization is ever applied.
    """
    if dt <= 0:
        raise ConfigurationError("dt must be > 0")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if omega_max is not None and omega_max > 0:
        dt_max = (2.0 * np.pi / omega_max) / 50.0
        if dt > dt_max * (1 + 1e-12):
            raise ConfigurationError(
                f"dt = {dt:.3e} violates the resolution guard "
                f"dt <= (1/50)(2 pi / omega_max) = {dt_max:.3e}")

    if store_times is None:
        store_times = [0.0, t_end] if t_end > 0 else [0.0]
    store_times = list(store_times)
    if abs(store_times[-1] - t_end) > 1e-15 * max(1.0, abs(t_end)):
        raise ValueError("store_times must end at t_end")

    psi = initial.amplitudes.copy()
    t_now = 0.0
    amps = np.empty((len(store_times), len(psi)), dtype=complex)
    drift = 0.0
    for i, t in enumerate(store_times):
        psi, seg_drift = _rk4_segment(h_of_t, psi, t_now, t, dt)
        drift = max(drift, seg_drift)
        t_now = t
        amps[i] = psi
    return EvolutionResult(store_times, amps, initial.shape, norm_drift=drift)


def to_interaction_picture(result: EvolutionResult,
                           params: SystemParams) -> EvolutionResult:
    """Apply U0†(t) = exp(+i H0 t) to every stored state of a lab-frame run.

    U0† is diagonal in the |s, m, n> basis: each basis state picks up
    exp(+i [nu (m + 1/2) + omega_c n + (omega_0 / 2) (+1 for e, -1 for g)] t).
    Populations are unchanged.
    """
    sh = result.shape
    m = np.arange(sh.vib_dim)[None, :, None]
    n = np.arange(sh.cav_dim)[None, None, :]
    sign = np.array([-1.0, 1.0])[:, None, None]  # ION_LABELS order (g, e)
    energies = (params.nu * (m + 0.5) + params.omega_c * n
                + 0.5 * params.omega_0 * sign).ravel()
    phases = np.exp(1j * energies * result.times[:, None])
    return replace(result, amplitudes=phases * result.amplitudes)
