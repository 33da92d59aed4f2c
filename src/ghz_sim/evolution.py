"""Time-evolution engines.

Three engines plus the frame transform that links them:

* :func:`block_propagator` is the closed-form 4x4 propagator of one
  sideband block, at one time or stacked over an array of times (see the
  honesty note in its docstring);
* :func:`evolve_static` evolves under any time-independent Hermitian
  Hamiltonian by eigendecomposition, exp(-iHt) applied exactly; it holds
  its last run, the eigensystem of that H and the read-only result. The
  eigensystem is reused while the next H has the same bits, and the whole
  result while the initial amplitudes and times repeat too (a tuned LD
  sweep over eta_c, eta_L or phi builds one matrix, at one pulse time, at
  every point). Hermiticity is checked once per distinct H, and a reused
  run is the bit-for-bit result of a cold one. All sample times are
  evolved in one numpy call, with no Python loop over them;
* :func:`evolve_timedep` integrates a time-dependent Hamiltonian (the
  lab-frame model, in the laser frame) with a fixed-step classical
  Runge-Kutta scheme (midpoint Hamiltonian evaluations); given the period T
  of H(t) it keeps dt <= T / STEPS_PER_PERIOD, integrates one period only
  and reaches later times through U(k T + tau) = U(tau) U(T)^k, refusing
  a run beyond its work bound (MAX_RK4_STEPS, MAX_PERIOD_POWERS) before
  the first step. Norm drift is never repaired by renormalization, it is
  the accuracy signal;
* :func:`to_interaction_picture` applies the diagonal phases that map a
  laser-frame trajectory into the interaction picture.

Every engine takes its sample times under one contract,
:func:`require_sample_times`: one-dimensional, non-empty, finite, >= 0 and
strictly increasing, refused with ValueError before any eigendecomposition
or step. Every full-space engine returns its trajectory as one
(times x dim) complex amplitude array in an :class:`EvolutionResult`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import AccuracyError, ConfigurationError, ModelError
from .fock_core import HilbertShape, QuantumState
from .hamiltonian import BlockParams, SystemParams, rotating_frame_energies

HERMITICITY_ATOL = 1e-9
NORM_DRIFT_LIMIT = 1e-6
STEPS_PER_PERIOD = 50   # the resolution guard: dt <= T / STEPS_PER_PERIOD
# the work bound of a time-dependent run: its RK4 steps, and its products
# U(T) psi, one per period before the last sample
MAX_RK4_STEPS = 10 ** 6
MAX_PERIOD_POWERS = 10 ** 7

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


def require_sample_times(times: Sequence[float] | np.ndarray,
                         name: str = "times") -> np.ndarray:
    """``times`` as a float array if it meets the sample-time contract (see
    the module docstring); otherwise a ValueError that names ``name``."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not (len(times) and np.all(np.isfinite(times))
            and np.all(np.diff(times) > 0)):
        raise ValueError(f"{name} must be finite and strictly increasing")
    if times[0] < 0:
        raise ValueError(f"{name} must be >= 0")
    return times


@dataclass(frozen=True)
class EvolutionResult:
    """Stored trajectory of one evolution run.

    ``amplitudes`` is a read-only (len(times), shape.total_dim) complex array
    whose row i is the state at ``times[i]`` (:func:`require_sample_times`);
    a complex array passed in is marked read-only, not copied.
    ``truncation_leak[i]`` is that row's population in the top vibrational
    or top cavity level, the truncation diagnostic, and ``norms[i]`` its
    norm, taken on first read for every row at once and bit for bit
    ``np.linalg.norm`` of that row, both read-only; ``norm_drift`` is the
    largest deviation of any norm from 1 seen by the engine, by default
    that of ``norms``.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    shape: HilbertShape
    norm_drift: float | None = None
    truncation_leak: np.ndarray = field(init=False)

    def __post_init__(self):
        times = require_sample_times(self.times)
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
        leak = np.sum(np.square(top, out=top), axis=1)
        leak.flags.writeable = False
        object.__setattr__(self, "truncation_leak", leak)
        if self.norm_drift is None:
            object.__setattr__(self, "norm_drift", float(
                np.max(np.abs(self.norms - 1.0), initial=0.0)))

    @functools.cached_property
    def norms(self) -> np.ndarray:
        # sqrt(re.re + im.im) is np.linalg.norm's arithmetic for a complex
        # row; vecdot makes the same dot call per row (an axis=1 sum of
        # squares adds in another order, and outputs move)
        re, im = self.amplitudes.real, self.amplitudes.imag
        norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
        norms.flags.writeable = False
        return norms

    @property
    def final_state(self) -> QuantumState:
        return QuantumState(self.shape, self.amplitudes[-1])


def block_propagator(block: BlockParams,
                     t: float | np.ndarray) -> np.ndarray:
    """Closed-form 4x4 propagator of one sideband block at time t.

    ``t`` is a scalar, giving one (4, 4) matrix, or an array of times of
    shape (T,), giving the (T, 4, 4) stack of the propagators at each time;
    either (a scalar as one sample) meets :func:`require_sample_times`.

    Columns 2 and 3 (initial |g,m-1,n-1> and |e,m-1,n-1>) are the printed
    closed-form amplitudes built from sin/cos of (a t) and (mu t) with
    a = g_eff eta_c sqrt(mn) and mu = sqrt(a^2 + Omega^2); columns 0 and 1 are
    their images under BLOCK_PERMUTATION, which commutes with the block matrix.

    Consistency note: this closed form is the exact propagator of the block
    Hamiltonian with its sideband element *doubled* (coupling 2a), not of the
    4x4 produced by ``hamiltonian.block_matrix`` (coupling a). The two engines
    therefore disagree whenever a != 0; the ``validate`` suite measures the
    discrepancy instead of hiding it. At the tuned protocol point
    (mu t = p pi, a t = pi/4) this closed form reproduces the GHZ targets
    exactly, which is what the protocol layer is built on.
    """
    t = np.asarray(t, dtype=float)
    require_sample_times(np.atleast_1d(t), "propagation time")
    a, mu, omega = block.a, block.mu, block.Omega
    sa, ca = np.sin(a * t), np.cos(a * t)
    sm, cm = np.sin(mu * t), np.cos(mu * t)
    ratio_a = a / mu if mu > 0 else 0.0
    ratio_o = omega / mu if mu > 0 else 0.0

    u = np.zeros(t.shape + (4, 4), dtype=complex)
    # initial |g,m-1,n-1>
    u[..., 2, 2] = ratio_a * sa * sm + ca * cm
    u[..., 3, 2] = -1j * ratio_o * ca * sm
    u[..., 0, 2] = -ratio_o * sa * sm
    u[..., 1, 2] = 1j * (ratio_a * ca * sm - sa * cm)
    # initial |e,m-1,n-1>
    u[..., 3, 3] = ca * cm - ratio_a * sa * sm
    u[..., 2, 3] = -1j * ratio_o * ca * sm
    u[..., 1, 3] = -ratio_o * sa * sm
    u[..., 0, 3] = -1j * (ratio_a * ca * sm + sa * cm)
    # initial |g,m,n> and |e,m,n>: permutation images of columns 3 and 2
    u[..., 0] = u[..., 3] @ BLOCK_PERMUTATION.T
    u[..., 1] = u[..., 2] @ BLOCK_PERMUTATION.T
    return u


def _require_hermitian_at(h: np.ndarray, index: np.ndarray) -> float:
    """max |H - H†| of a C-contiguous complex H, refused with ModelError if H
    has a non-finite entry or the deviation is above HERMITICITY_ATOL.
    ``index`` holds the flat indices of H's nonzero 64-bit words, two per
    entry (real, imaginary), so it locates every entry that is not +0.

    The deviation is taken over the pairs of those entries only, and it is
    the dense max |H - H†| bit for bit: a pair of +0 entries adds 0, and
    |a - conj(b)| = |b - conj(a)| exactly, so each pair is seen from
    whichever side is not +0. Non-finite entries are refused before any
    subtraction, so none meets inf - inf."""
    rows, cols = np.divmod(index >> 1, h.shape[1])
    entries = h[rows, cols]
    if not np.all(np.isfinite(entries)):
        raise ModelError("Hamiltonian is not Hermitian: it has a non-finite "
                         "entry, so max |H - H†| is not finite")
    dev = float(np.max(np.abs(entries - h[cols, rows].conj()), initial=0.0))
    if dev > HERMITICITY_ATOL:
        raise ModelError(f"Hamiltonian is not Hermitian: max |H - H†| = {dev:.3e}")
    return dev


def _nonzero_words(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of a C-contiguous H's nonzero 64-bit words, and
    those words."""
    words = h.view(np.uint64).ravel()
    # through a bool mask: numpy finds its nonzeros about 4x faster
    index = np.flatnonzero(words != 0)
    return index, words[index]


# The last static run, keyed on the bits of its H: a dict with the key
# ("shape", "index" and "words", H's nonzero 64-bit words and their flat
# indices), H's read-only eigensystem ("evals", "vecs") and, once a run under
# it has finished, that "run": (its state shape with the bytes of its
# initial amplitudes and of its times, its read-only result), set and read
# as one tuple; None before the first call.
_held: dict | None = None


def _eigensystem(h: np.ndarray) -> dict:
    """The held entry of ``h`` (see ``_held``): ``np.linalg.eigh(h)`` read
    only, reused while H's bits repeat.

    The key is every bit of H, without a copy of H: its shape and its
    nonzero uint64 words with their indices (so a -0.0 entry differs from
    +0.0, and an in-place edit of the same array is seen). Equal bits give
    eigh the same input, so the reused pair is the one a cold call returns.
    Hermiticity is checked once per distinct H, on a miss, from the same
    word scan (equal bits pass as they passed before). One entry is held;
    it is released, with its run, before eigh runs on a miss, so at most
    one eigensystem and one run are alive.
    """
    global _held
    h = np.ascontiguousarray(h)
    index, nonzero = _nonzero_words(h)
    if (_held is not None and _held["shape"] == h.shape
            and np.array_equal(_held["index"], index)
            and np.array_equal(_held["words"], nonzero)):
        return _held
    _require_hermitian_at(h, index)
    _held = None
    evals, vecs = np.linalg.eigh(h)
    evals.flags.writeable = False
    vecs.flags.writeable = False
    _held = {"shape": h.shape, "index": index, "words": nonzero,
             "evals": evals, "vecs": vecs}
    return _held


def evolve_static(h: np.ndarray, initial: QuantumState,
                  times: Sequence[float]) -> EvolutionResult:
    """Evolve under a time-independent Hamiltonian: psi(t) = exp(-iHt) psi(0).

    Computed by eigendecomposition of H, so norms and energy are preserved to
    machine precision at every output time. The last run is held (see
    :func:`_eigensystem`): its eigensystem is reused when the next H is
    equal bit for bit, and its read-only result is returned again when the
    state shape is the same and the initial amplitudes and the times are
    equal bit for bit too. eigh of the same bits is the same eigensystem,
    so a reused run writes the same bytes as a cold one. H is checked for
    Hermiticity once per distinct H.

    Row i is V (exp(-i E t_i) * V† psi0), computed for every time in one
    stacked matmul: numpy runs it as one gemv per row from its C loop,
    the bits of the per-time product ``vecs @ w``.
    """
    times = require_sample_times(times).copy()
    times.flags.writeable = False
    h = np.asarray(h, dtype=complex)
    if h.shape != (initial.shape.total_dim,) * 2:
        raise ValueError(
            f"Hamiltonian shape {h.shape} does not match state dimension "
            f"{initial.shape.total_dim}")
    held = _eigensystem(h)
    # the shape too: two shapes of one dimension can share H's bits
    run_key = (initial.shape, initial.amplitudes.tobytes(), times.tobytes())
    run = held.get("run")
    if run is not None and run[0] == run_key:
        return run[1]
    evals, vecs = held["evals"], held["vecs"]
    # V† psi0 as conj(V^T conj(psi0)): conjugation is exact, so these are
    # the same bits without a conjugated D x D copy of V
    coeffs = np.conj(vecs.T @ initial.amplitudes.conj())

    # every time's phase weights in one (T, D) array, exp and weighting in
    # place; then the stacked product (one (D x D) @ (D x T) matmul would
    # reorder the sums and move the written 12-digit outputs)
    weights = (-1j * evals) * times[:, None]
    np.exp(weights, out=weights)
    weights *= coeffs
    amps = np.matmul(vecs, weights[:, :, None])[..., 0]
    result = EvolutionResult(times, amps, initial.shape)
    held["run"] = (run_key, result)
    return result


def _rk4_segment(h_of_t: Callable[[float], np.ndarray], psi: np.ndarray,
                 t0: float, t1: float, dt: float) -> tuple[np.ndarray, float]:
    """March a block of states psi, shape (D, K), from t0 to t1 with uniform
    steps of at most dt.

    Classical 4th-order Runge-Kutta for i psi' = H(t) psi, with the midpoint
    Hamiltonian shared between the two interior stages. Returns the final
    amplitudes and the largest drift of any column's norm from 1 seen during
    the segment.
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
        step_drift = float(np.max(np.abs(np.linalg.norm(psi, axis=0) - 1.0)))
        drift = max(drift, step_drift)
        if step_drift > NORM_DRIFT_LIMIT:
            raise AccuracyError(
                f"norm drift {step_drift:.3e} exceeded {NORM_DRIFT_LIMIT:.1e} "
                f"at t = {t + h:.6e}; reduce dt", drift=step_drift)
    return psi, drift


def require_resolved_step(dt: float, period: float):
    """Refuse a step dt above the resolution guard T / STEPS_PER_PERIOD of a
    period T of H(t), with a relative slack of 1e-12."""
    dt_max = period / STEPS_PER_PERIOD
    if dt > dt_max * (1 + 1e-12):
        raise ConfigurationError(
            f"dt = {dt:.3e} violates the resolution guard "
            f"dt <= T / {STEPS_PER_PERIOD} = {dt_max:.3e} (T = {period:.3e}, "
            f"the period of H(t))")


def require_bounded_work(dt: float | None, period: float | None,
                         times: np.ndarray):
    """Refuse a run of :func:`evolve_timedep` beyond the work bound, counted
    from dt, the period T and the sample times alone: more than
    MAX_PERIOD_POWERS whole periods before the last sample, or more than
    MAX_RK4_STEPS steps. Marching U(T) takes about T / dt steps (when a
    sample lies at or beyond T), and the sample offsets at most span / dt
    plus one per sample, span the largest offset (the last time without a
    period). A dt of None, a step not yet chosen, bounds the periods only."""
    t_end = float(times[-1])
    periods = t_end // period if period is not None else 0.0
    if periods > MAX_PERIOD_POWERS:
        raise ConfigurationError(
            f"the pulse time t = {t_end:.3e} s spans {periods:.3g} periods "
            f"T = {period:.3e} s of H(t), more than MAX_PERIOD_POWERS = "
            f"{MAX_PERIOD_POWERS:,} products U(T) psi; shorten t")
    if dt is None:
        return
    span = t_end if period is None else min(t_end, period)
    steps = span / dt + len(times) + (period / dt if periods > 0 else 0.0)
    if steps > MAX_RK4_STEPS:
        raise ConfigurationError(
            f"dt = {dt:.3e} s takes about {steps:.3g} RK4 steps over "
            f"{len(times):,} sample times, more than MAX_RK4_STEPS = "
            f"{MAX_RK4_STEPS:,}; raise dt")


def evolve_timedep(h_of_t: Callable[[float], np.ndarray], initial: QuantumState,
                   t_end: float, dt: float,
                   store_times: Sequence[float] | None = None,
                   period: float | None = None) -> EvolutionResult:
    """Integrate i psi' = H(t) psi with a fixed-step 4th-order scheme.

    Parameters
    ----------
    dt : float
        Step-size cap. Each integrated interval is subdivided uniformly so the
        actual step never exceeds dt and store times are hit exactly.
    store_times : sequence, optional
        Sample times at which to record the state (default: just 0 and
        t_end), under :func:`require_sample_times`, ending at t_end.
    period : float, optional
        A period T of H(t), H(t + T) = H(t) (pi / omega_L for the
        laser-frame model). It sets the resolution guard
        dt <= T / STEPS_PER_PERIOD, and since U(k T + tau) = U(tau) U(T)^k
        (Floquet) only one period is integrated: if a store time lies at or
        beyond T, the identity is marched over [0, T] to give U(T).

    One march path serves every run. psi_k = U(T)^k psi0 is kept for each
    period k that holds a store time; without a period, or with every store
    time inside the first one, that is psi0 alone as one column. The (D, K)
    block of those columns is marched once through the sorted offsets
    tau_i = t_i - k_i T, and row i is read from column k_i.

    A run beyond the work bound (:func:`require_bounded_work`) raises
    :class:`ConfigurationError` before any step. Norm drift of any marched
    column above 1e-6 at any step raises :class:`AccuracyError`, and so
    does the unitarity bound ||U(T)† U(T) - 1||_2 k_max of a periodic run;
    ``norm_drift`` reports the largest of these. No renormalization is ever
    applied.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be a finite number > 0, got {dt!r}")
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be a finite number >= 0, got {t_end!r}")
    if period is not None:
        if not (math.isfinite(period) and period > 0):
            raise ValueError(
                f"period must be a finite number > 0, got {period!r}")
        require_resolved_step(dt, period)

    if store_times is None:
        store_times = [0.0, t_end] if t_end > 0 else [0.0]
    store_times = require_sample_times(store_times, "store_times")
    if abs(store_times[-1] - t_end) > 1e-15 * max(1.0, abs(t_end)):
        raise ValueError("store_times must end at t_end")
    require_bounded_work(dt, period, store_times)

    # period k_i of each store time and offset tau_i into it (k_i = 0 and
    # tau_i = t_i exactly without a period)
    k = np.zeros(len(store_times), dtype=int)
    offsets = store_times
    if period is not None:
        k = np.floor(store_times / period).astype(int)
        offsets = np.maximum(store_times - k * period, 0.0)
    k_max = int(k.max())
    kept, column = np.unique(k, return_inverse=True)

    dim = initial.shape.total_dim
    drift = 0.0
    if k_max > 0:
        u_period, drift = _rk4_segment(h_of_t, np.eye(dim, dtype=complex),
                                       0.0, period, dt)
        unitarity = k_max * float(np.linalg.norm(
            u_period.conj().T @ u_period - np.eye(dim), 2))
        if unitarity > NORM_DRIFT_LIMIT:
            raise AccuracyError(
                f"unitarity bound k ||U(T)†U(T) - 1|| = {unitarity:.3e} "
                f"over k = {k_max} periods exceeded {NORM_DRIFT_LIMIT:.1e}; "
                f"reduce dt", drift=unitarity)
        drift = max(drift, unitarity)
    block = np.empty((dim, len(kept)), dtype=complex)
    psi, power = initial.amplitudes, 0
    for col, k_col in enumerate(kept):
        for _ in range(k_col - power):
            psi = u_period @ psi
        block[:, col], power = psi, k_col

    amps = np.empty((len(store_times), dim), dtype=complex)
    t_now = 0.0
    for i in np.argsort(offsets, kind="stable"):
        block, seg_drift = _rk4_segment(h_of_t, block, t_now, offsets[i], dt)
        drift = max(drift, seg_drift)
        t_now = offsets[i]
        amps[i] = block[:, column[i]]
    return EvolutionResult(store_times, amps, initial.shape, norm_drift=drift)


def to_interaction_picture(result: EvolutionResult,
                           params: SystemParams) -> EvolutionResult:
    """Map every stored state of a laser-frame run into the interaction picture.

    The interaction picture is exp(+i H0 t) psi_lab and the laser frame has
    psi_lab = exp(-i omega_L t (sigma_z / 2 + b†b)) psi; both are diagonal in
    the |s, m, n> basis, so each basis state picks up the one composed phase
    exp(+i [nu (m + 1/2) + (omega_c - omega_L) n + (omega_0 - omega_L) s / 2] t)
    (s = +1 for e, -1 for g), see :func:`rotating_frame_energies`. The optical
    phases exp(+-i omega_0 t) are never formed. Populations are unchanged.
    """
    energies = rotating_frame_energies(params, result.shape)
    phases = np.exp(1j * energies * result.times[:, None])
    return replace(result, amplitudes=phases * result.amplitudes)
