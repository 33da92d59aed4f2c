"""Protocol layer: coupling tuning, pulse schedule, GHZ targets and scoring.

The scheme drives the carrier and the red sideband simultaneously. For one
4-state block the joint dynamics closes after an interaction time t_p with
mu t_p = p pi, and choosing couplings so that a t_p = pi/4 (equivalently
mu / a = 4 p) turns each basis state of the block into a maximally entangled
three-party state of ion, phonon pair and photon pair.

Four model levels can execute the same schedule: the closed-form block
propagator, the full Lamb-Dicke Hamiltonian, the dressed RWA Hamiltonian and
the time-dependent lab-frame model. The lab-frame model has one entry point,
:func:`evolve_lab`: it is integrated in the exact laser frame over one
period pi / omega_L of its counter-rotating term, which also caps the RK4
step, and one composed diagonal phase takes it into the interaction picture
before it is scored. A run is scored at all its sample times at once, as
arrays of the fidelity against the scheduled target, the norm, the population
that escaped the 4-state block and the basis populations.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, TruncationError, UntunedError
from .evolution import (EvolutionResult, block_propagator, evolve_static,
                        evolve_timedep, to_interaction_picture)
from .fock_core import HilbertShape, QuantumState, basis_state
from .hamiltonian import (BlockParams, SystemParams, block_basis_labels,
                          build_ld_hamiltonian, build_rwa_hamiltonian,
                          rotating_frame_source)

MODEL_TAGS = ("block_analytic", "ld_full", "rwa_full", "lab_frame")

TUNING_RTOL = 1e-9
POPULATION_FLOOR = 1e-6
TRUNCATION_LIMIT = 1e-4

Label = tuple[str, int, int]


def format_label(label: Label) -> str:
    s, m, n = label
    return f"{s},{m},{n}"


def parse_label(text: str) -> Label:
    parts = text.split(",")
    if len(parts) != 3 or parts[0] not in ("g", "e"):
        raise ValueError(f"bad state label {text!r}, expected e.g. 'g,0,0'")
    return (parts[0], int(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class ProtocolSchedule:
    """The whole definition of one pulse: the params it runs with (coupling
    tuned), the truncation, the (m, n) block, the index p and the time
    t_p = p pi / mu. A run also needs the initial label, the model, the
    sample times and the lab step dt (see ``cli.Run``)."""

    params: SystemParams
    shape: HilbertShape
    block: BlockParams
    p: int
    t_p: float


@dataclass(frozen=True)
class FidelityReport:
    """Score of one protocol run at a single time: one ProtocolSeries row."""

    fidelity: float
    block_leakage: float
    populations: np.ndarray
    norm: float


@dataclass(frozen=True)
class ProtocolSeries:
    """Scores of one protocol run as read-only arrays, row i at ``times[i]``:
    (T,) ``fidelity``, ``norm``, ``block_leakage`` and (T, shape.total_dim)
    ``populations`` (column ``shape.index(s, m, n)``; 0 at or below floor)."""

    shape: HilbertShape
    times: np.ndarray
    fidelity: np.ndarray
    norm: np.ndarray
    block_leakage: np.ndarray
    populations: np.ndarray

    @property
    def final(self) -> FidelityReport:
        """Score at the last time, holding a copy of that one row only."""
        return FidelityReport(fidelity=float(self.fidelity[-1]),
                              block_leakage=float(self.block_leakage[-1]),
                              populations=self.populations[-1].copy(),
                              norm=float(self.norm[-1]))


def tune_coupling(Omega: float, eta_c: float, p: int = 1) -> float:
    """Coupling g that satisfies the GHZ condition mu / a = 4 p for m = n = 1.

    g = Omega / (eta_c sqrt(16 p^2 - 1)); for p = 1 this is
    Omega / (eta_c sqrt(15)).
    """
    if eta_c <= 0:
        raise ValueError("eta_c must be > 0 to tune the coupling")
    if p < 1:
        raise ValueError("pulse index p must be >= 1")
    return Omega / (eta_c * math.sqrt(16.0 * p * p - 1.0))


def target_state(initial_label: Label, shape: HilbertShape, m: int = 1,
                 n: int = 1, p: int = 1) -> QuantumState:
    """Post-pulse target for a basis initial state of the (m, n) block.

    initial |s, m-1, n-1>  ->  (-1)^p / sqrt(2) (|s, m-1, n-1> - i |s', m, n>)
    initial |s, m, n>      ->  (-1)^p / sqrt(2) (|s, m, n> - i |s', m-1, n-1>)

    with s' the flipped ion state. For m = n = 1, p = 1 this is the four-state
    table |g,0,0> -> -(1/sqrt2)(|g,0,0> - i|e,1,1>) and its companions.
    """
    labels = block_basis_labels(m, n)
    if initial_label not in labels:
        raise ValueError(
            f"initial label {format_label(initial_label)} is not in the "
            f"(m={m}, n={n}) block")
    # reversed, the block order pairs partners (BLOCK_PERMUTATION)
    partner = labels[::-1][labels.index(initial_label)]
    sign = -1.0 if p % 2 else 1.0
    amps = np.zeros(shape.total_dim, dtype=complex)
    amps[shape.index(*initial_label)] = sign / math.sqrt(2.0)
    amps[shape.index(*partner)] = sign * (-1j) / math.sqrt(2.0)
    return QuantumState(shape, amps)


def fidelity(psi: QuantumState, target: QuantumState) -> float:
    """|<target|psi>|^2; symmetric and insensitive to global phases."""
    if psi.shape != target.shape:
        raise ValueError("states live on different Hilbert shapes")
    return float(abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2)


def ghz_schedule(params: SystemParams, m: int = 1, n: int = 1, p: int = 1,
                 shape: HilbertShape | None = None,
                 tune: bool = False) -> ProtocolSchedule:
    """Build the GHZ pulse schedule for the (m, n) block.

    With ``tune`` the coupling is replaced so that the effective coupling
    g cos(phi) satisfies the condition a t_p = pi / 4; otherwise the params
    must already satisfy mu / a = 4 p (relative tolerance 1e-9). The shape
    defaults to the smallest one that holds the block, (m + 1) x (n + 1).
    """
    for key, level in (("m", m), ("n", n)):
        if level < 1:
            raise ConfigurationError(
                f"{key} must be >= 1 (the block pairs levels {key} - 1 and "
                f"{key}), got {level!r}")
    if shape is None:
        shape = HilbertShape(vib_dim=m + 1, cav_dim=n + 1)
    if tune:
        g_eff = tune_coupling(params.Omega, params.eta_c, p) / math.sqrt(m * n)
        cos_phi = math.cos(params.phi)
        if abs(cos_phi) < 1e-12:
            raise ConfigurationError(
                "cannot tune the coupling: effective coupling g cos(phi) "
                f"vanishes at phi = {params.phi!r}")
        params = replace(params, g=g_eff / cos_phi)
    block = BlockParams.from_params(params, m, n)
    ratio = block.mu / block.a if block.a != 0.0 else math.inf
    if abs(ratio - 4.0 * p) > TUNING_RTOL * 4.0 * p:
        raise UntunedError(f"params are not tuned for a GHZ pulse with "
                           f"p={p}: mu/a = {ratio!r}, required {4 * p}")
    return ProtocolSchedule(params=params, shape=shape, block=block, p=p,
                            t_p=p * math.pi / block.mu)


def _default_lab_dt(source, period: float | None, t_end: float) -> float:
    """Step size for a lab-frame run in the laser frame: inside the
    resolution guard T / 50 of its period T (none when there is no period:
    the Hamiltonian is static) and small enough that the accumulated RK4
    norm drift (about t lambda^6 dt^5 / 144, lambda the spectral radius of H)
    stays an order of magnitude below the 1e-6 drift limit. The unitarity
    bound of a period run, which takes the worst-damped direction and so
    reads about twice that drift, stays below the limit too."""
    dt = period / 50.0 / 1.28 if period is not None else t_end
    if t_end > 0:
        lam = float(np.max(np.abs(np.linalg.eigvalsh(source(0.0)))))
        if lam > 0:
            dt = min(dt, (144.0 * 1e-7 / (t_end * lam ** 6)) ** 0.2)
    return dt


def lab_period(params: SystemParams) -> float | None:
    """Period pi / omega_L of the laser-frame H(t); None (static) at 0."""
    return math.pi / params.omega_L if params.omega_L > 0 else None


def evolve_lab(params: SystemParams, initial: QuantumState,
               times: Sequence[float], dt: float | None = None
               ) -> EvolutionResult:
    """Run the lab-frame model from ``initial`` to each of ``times`` and
    return the trajectory in the interaction picture.

    The run is integrated in the exact laser frame
    (:func:`rotating_frame_source`), where only C exp(-2i omega_L t) and its
    conjugate stay time dependent, so H_rot has period T = pi / omega_L
    (none at omega_L = 0: H_rot is then static). :func:`evolve_timedep`
    integrates one such period with steps of at most ``dt`` (by default the
    largest step that keeps the RK4 norm drift well inside its limit, and
    at most T / 50 / 1.28), and one composed diagonal phase
    (:func:`to_interaction_picture`) takes the result into the interaction
    picture. ``times`` must be strictly increasing and >= 0."""
    source = rotating_frame_source(params, initial.shape)
    period = lab_period(params)
    times = np.asarray(times, dtype=float)
    t_end = float(times[-1])
    if dt is None:
        dt = _default_lab_dt(source, period, t_end)
    return to_interaction_picture(
        evolve_timedep(source, initial, t_end=t_end, dt=dt,
                       store_times=times, period=period),
        params)


def _evolve_states(schedule: ProtocolSchedule, initial_label: Label,
                   model: str, times: np.ndarray,
                   dt: float | None) -> EvolutionResult:
    """Evolve the initial basis state to each requested time under the model;
    full-space runs pass the truncation guard first."""
    params, shape = schedule.params, schedule.shape
    initial = basis_state(shape, *initial_label)

    if model == "block_analytic":
        # target_state has already rejected labels outside the block
        labels = block_basis_labels(schedule.block.m, schedule.block.n)
        col = labels.index(initial_label)
        idx = [shape.index(*lbl) for lbl in labels]
        amps = np.zeros((len(times), shape.total_dim), dtype=complex)
        amps[:, idx] = block_propagator(schedule.block, times)[:, :, col]
        return EvolutionResult(times, amps, shape)

    if model == "ld_full":
        result = evolve_static(build_ld_hamiltonian(params, shape),
                               initial, times)
    elif model == "rwa_full":
        result = evolve_static(build_rwa_hamiltonian(params, shape),
                               initial, times)
    elif model == "lab_frame":
        result = evolve_lab(params, initial, times, dt)
    else:
        raise ValueError(
            f"unknown model {model!r}, expected one of {MODEL_TAGS}")
    worst = result.truncation_leak.max()
    if worst > TRUNCATION_LIMIT:
        raise TruncationError(
            f"top-level population {worst:.3e} exceeds {TRUNCATION_LIMIT:.1e}; "
            f"rerun with shape at least "
            f"{shape.vib_dim + 2}x{shape.cav_dim + 2}")
    return result


def protocol_timeseries(schedule: ProtocolSchedule, initial_label: Label,
                        model: str, times: Sequence[float],
                        dt: float | None = None) -> ProtocolSeries:
    """Run the protocol and score the state at every requested time: per
    time |<target|psi>|^2, the norm, the population outside the 4-state block
    (0 for the block model) and the floored basis populations."""
    shape = schedule.shape
    times = np.asarray(times, dtype=float)
    target = target_state(initial_label, shape, m=schedule.block.m,
                          n=schedule.block.n, p=schedule.p).amplitudes
    result = _evolve_states(schedule, initial_label, model, times, dt)
    # squared in place: the same x * x as ** 2 without a second (T, D)
    # temporary, so an op's heap peak stays that of the per-state code
    pops = np.abs(result.amplitudes)
    np.square(pops, out=pops)
    if model == "block_analytic":
        leakage = np.zeros(len(times))
    else:
        # summed left to right, one block state at a time
        in_block = sum(pops[:, shape.index(*lbl)] for lbl in
                       block_basis_labels(schedule.block.m, schedule.block.n))
        leakage = np.maximum(1.0 - in_block, 0.0)
    pops[pops <= POPULATION_FLOOR] = 0.0
    # one np.vdot per row: a batched product sums in another order
    fid = np.array([abs(np.vdot(target, row)) ** 2
                    for row in result.amplitudes])
    series = (result.times.copy(), fid, result.norms, leakage, pops)
    for values in series:
        values.flags.writeable = False
    return ProtocolSeries(shape, *series)


def _physical_memory() -> int:
    """Bytes of physical memory: page size x physical pages."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_memory(shape: HilbertShape, model: str, n_times: int):
    """Refuse, before anything is allocated, a run whose largest dense array
    exceeds physical memory: the (n_times, D) complex trajectory of every
    model, or the D x D complex Hamiltonian of ld, rwa and lab."""
    physical = _physical_memory()
    dim = shape.total_dim
    need, what = 16 * n_times * dim, f"its n_times = {n_times} trajectory"
    if model != "block_analytic" and 16 * dim * dim > need:
        need, what = 16 * dim * dim, f"its {dim} x {dim} Hamiltonian"
    if need > physical:
        raise ConfigurationError(
            f"shape {shape.vib_dim}x{shape.cav_dim} needs {need:,} bytes for "
            f"{what}, more than the {physical:,} bytes of physical memory")


def pulse_times(t_p: float, n_times: int) -> np.ndarray:
    """The grid of n_times >= 2 uniform samples from 0 to t_p of a pulse."""
    if n_times < 2:
        raise ConfigurationError(f"n_times must be >= 2 (the series runs "
                                 f"from t = 0 to t_p), got {n_times}")
    return np.linspace(0.0, t_p, n_times)


def run_protocol(schedule: ProtocolSchedule, initial_label: Label, model: str,
                 dt: float | None = None, n_times: int = 101) -> FidelityReport:
    """Evolve the initial state to t_p under the chosen model and score it.

    The run is sampled on :func:`pulse_times` so the truncation diagnostic
    sees the whole trajectory; the report scores the final sample.
    """
    times = pulse_times(schedule.t_p, n_times)
    return protocol_timeseries(schedule, initial_label, model, times,
                               dt=dt).final

