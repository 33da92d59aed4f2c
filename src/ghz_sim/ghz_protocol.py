"""Protocol layer: coupling tuning, pulse schedule, GHZ targets and scoring.

The scheme drives the carrier and the red sideband simultaneously. For one
4-state block the joint dynamics closes after an interaction time t_p with
mu t_p = p pi, and choosing couplings so that a t_p = pi/4 (equivalently
mu / a = 4 p) turns each basis state of the block into a maximally entangled
three-party state of ion, phonon pair and photon pair.

Four models (:data:`MODELS`, whose rules :func:`require_model` holds) can
execute the same schedule: ``block``, the closed-form block propagator,
``ld``, the full Lamb-Dicke Hamiltonian, ``rwa``, the dressed RWA one and
``lab``, the time-dependent lab-frame model. The last has one entry point,
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
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, TruncationError, UntunedError
from .evolution import (MAX_RK4_STEPS, STEPS_PER_PERIOD, EvolutionResult,
                        block_propagator, evolve_static, evolve_timedep,
                        require_bounded_work, require_resolved_step,
                        require_sample_times, rk4_step_count,
                        to_interaction_picture)
from .fock_core import HilbertShape, QuantumState, basis_state
from .hamiltonian import (BlockParams, SystemParams, block_basis_labels,
                          build_ld_hamiltonian, build_rwa_hamiltonian,
                          rotating_frame_source)

MODELS = ("block", "ld", "rwa", "lab")
BLOCK, LD, RWA, LAB = MODELS

TUNING_RTOL = 1e-9
POPULATION_FLOOR = 1e-6
TRUNCATION_LIMIT = 1e-4

Label = tuple[str, int, int]


def format_label(label: Label) -> str:
    s, m, n = label
    return f"{s},{m},{n}"


def parse_label(text: str) -> Label:
    parts = text.split(",") if isinstance(text, str) else []
    if len(parts) == 3 and parts[0] in ("g", "e"):
        try:
            return (parts[0], int(parts[1]), int(parts[2]))
        except ValueError:
            pass
    raise ConfigurationError(
        f"bad initial state label {text!r}, expected e.g. 'g,0,0'")


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
class ProtocolSeries:
    """Scores of one protocol run as read-only arrays, row i at ``times[i]``:
    (T,) ``fidelity``, ``norm``, ``block_leakage``, ``truncation_leak`` and
    (T, shape.total_dim) ``populations`` (column ``shape.index(s, m, n)``; 0
    at or below floor)."""

    shape: HilbertShape
    times: np.ndarray
    fidelity: np.ndarray
    norm: np.ndarray
    block_leakage: np.ndarray
    truncation_leak: np.ndarray
    populations: np.ndarray


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


def ghz_schedule(params: SystemParams, m: int = 1, n: int = 1, p: int = 1,
                 shape: HilbertShape | None = None,
                 tune: bool = False) -> ProtocolSchedule:
    """Build the GHZ pulse schedule for the (m, n) block.

    With ``tune`` the coupling is replaced so that the effective coupling
    g cos(phi) satisfies the condition a t_p = pi / 4 (a tuned g that misses
    it, as when 16 p^2 overflows, is refused by p); otherwise the params
    must already satisfy mu / a = 4 p (relative tolerance 1e-9), or an
    UntunedError is raised; either way a vanishing or negative cos(phi) is
    refused. The shape defaults to the smallest one that holds the block,
    (m + 1) x (n + 1), and a smaller one is refused.
    """
    for key, level in (("m", m), ("n", n)):
        if level < 1:
            raise ConfigurationError(
                f"{key} must be >= 1 (the block pairs levels {key} - 1 and "
                f"{key}), got {level!r}")
    if p < 1:
        raise ConfigurationError(f"pulse index p must be >= 1, got {p!r}")
    cos_phi = math.cos(params.phi)
    if abs(cos_phi) < 1e-12:
        raise ConfigurationError(
            f"effective coupling g cos(phi) vanishes at phi = {params.phi!r}, "
            f"so no g meets the GHZ condition")
    if cos_phi < 0:
        raise ConfigurationError(
            f"effective coupling g cos(phi) is negative at phi = "
            f"{params.phi!r} (cos(phi) = {cos_phi:.3e}), so no g >= 0 meets "
            f"the GHZ condition; use a phi with cos(phi) > 0")
    if shape is None:
        shape = HilbertShape(vib_dim=m + 1, cav_dim=n + 1)
    if tune:
        g_eff = tune_coupling(params.Omega, params.eta_c, p) / math.sqrt(m * n)
        params = replace(params, g=g_eff / cos_phi)
    block = BlockParams.from_params(params, m, n)
    ratio = block.mu / block.a if block.a != 0.0 else math.inf
    if abs(ratio - 4.0 * p) > TUNING_RTOL * 4.0 * p:
        if tune:
            raise ConfigurationError(
                f"tuning g for p = {p:.3g} gives g = {params.g:.3e} rad/s, "
                f"which misses the GHZ condition: mu/a = {ratio!r}, required "
                f"{4 * p:.3g}")
        raise UntunedError(f"params are not tuned for a GHZ pulse with "
                           f"p={p}: mu/a = {ratio!r}, required {4 * p}")
    if shape.vib_dim <= m or shape.cav_dim <= n:
        raise ConfigurationError(
            f"shape {shape.vib_dim}x{shape.cav_dim} cannot hold the (m, n) = "
            f"({m}, {n}) block; the smallest shape that holds it is "
            f"{m + 1}x{n + 1}")
    return ProtocolSchedule(params=params, shape=shape, block=block, p=p,
                            t_p=p * math.pi / block.mu)


def physical_memory() -> int:
    """Bytes of physical memory: page size x physical pages."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def require_model(model: str, shape: HilbertShape, n_times: int,
                  dt: float | None = None):
    """Refuse, with nothing built or allocated, a run of ``model`` on
    ``shape`` to ``n_times`` sample times, with step ``dt``, that cannot be
    done: a name not in MODELS; a dt on any model but lab, the one with a
    time step; or a largest dense array beyond physical memory, the
    (n_times, D) complex trajectory of every model or the D x D complex
    Hamiltonian of every model but block."""
    if model not in MODELS:
        raise ConfigurationError(
            f"unknown model {model!r}; choose from {sorted(MODELS)}")
    if dt is not None and model != LAB:
        raise ConfigurationError(
            f"dt = {dt:.3e} s steps only the {LAB} model; model {model} has "
            f"no time step, so it would be ignored")
    physical = physical_memory()
    dim = shape.total_dim
    need, what = 16 * n_times * dim, f"its n_times = {n_times} trajectory"
    if model != BLOCK and 16 * dim * dim > need:
        need, what = 16 * dim * dim, f"its {dim} x {dim} Hamiltonian"
    if need > physical:
        raise ConfigurationError(
            f"shape {shape.vib_dim}x{shape.cav_dim} needs {need:,} bytes for "
            f"{what}, more than the {physical:,} bytes of physical memory")


def lab_step(params: SystemParams, source: Callable[[float], np.ndarray],
             times: np.ndarray, dt: float | None = None
             ) -> tuple[float, float | None]:
    """The step and period of a lab-frame run of H(t) = ``source(t)`` to
    each of ``times``, or a ConfigurationError that names why it cannot be
    run. The period of H(t) is pi / omega_L (None at omega_L = 0: H is
    static). A given dt is checked, with no eigensolver, against its
    resolution guard (:func:`require_resolved_step`) and the work bound
    (:func:`require_bounded_work`), and returned as given.

    Without a dt the step is the largest that keeps the accumulated RK4 norm
    drift (about t lam^6 dt^5 / 144) an order of magnitude below the 1e-6
    drift limit, and at most T / STEPS_PER_PERIOD / 1.28, with lam the
    spectral radius of H(0). The unitarity bound of a period run, which
    takes the worst-damped direction and so reads about twice that drift,
    stays below the limit too. A default step beyond MAX_RK4_STEPS is
    refused, named as the default step and by what sets it."""
    period = math.pi / params.omega_L if params.omega_L > 0 else None
    if dt is not None and period is not None:
        require_resolved_step(dt, period)
    require_bounded_work(dt, period, times)
    if dt is not None:
        return dt, period
    t_end = float(times[-1])
    # without a period one step spans the run; a grid of t = 0 alone takes
    # no step, so any finite step serves it
    dt = (period / STEPS_PER_PERIOD / 1.28 if period is not None
          else t_end or 1.0)
    if t_end <= 0:
        return dt, period
    lam = float(np.max(np.abs(np.linalg.eigvalsh(source(0.0)))))
    if lam > 0:
        dt = min(dt, (144.0 * 1e-7 / (t_end * lam ** 6)) ** 0.2)
    steps = rk4_step_count(dt, period, times)
    if steps > MAX_RK4_STEPS:
        raise ConfigurationError(
            f"the default lab step dt is at most {dt:.3e} s and takes about "
            f"{steps:.3g} RK4 steps or more over {len(times):,} sample "
            f"times, more than MAX_RK4_STEPS = {MAX_RK4_STEPS:,}; that step "
            f"is the largest that keeps the RK4 norm drift below its target "
            f"over t = {t_end:.3e} s at the spectral radius of H, which is at "
            f"least {lam:.3e} rad/s, so give a config dt, shorten the pulse "
            f"(t or p) or use a smaller shape")
    return dt, period


def run_step(schedule: ProtocolSchedule, model: str, times: np.ndarray,
             dt: float | None = None) -> float | None:
    """The step a run of ``model`` to ``times`` takes, evolving nothing:
    None for a model without a time step, and for lab the step
    :func:`lab_step` returns, ``dt`` as checked or, when None, the default
    step, the one case that builds the laser-frame source."""
    if model != LAB:
        return None
    params, shape = schedule.params, schedule.shape
    return lab_step(params,
                    lambda t: rotating_frame_source(params, shape)(t),
                    times, dt)[0]


def evolve_lab(params: SystemParams, initial: QuantumState,
               times: Sequence[float], dt: float | None = None
               ) -> EvolutionResult:
    """Run the lab-frame model from ``initial`` to each of ``times`` and
    return the trajectory in the interaction picture.

    The run is integrated in the exact laser frame
    (:func:`rotating_frame_source`), where only C exp(-2i omega_L t) and its
    conjugate stay time dependent, so H_rot has period T = pi / omega_L
    (none at omega_L = 0: H_rot is then static). :func:`evolve_timedep`
    integrates one such period with steps of at most ``dt``, checked by
    :func:`lab_step` or, when None, chosen there at the spectral radius of
    H(0) (a CLI run passes the step it resolved), and one composed diagonal
    phase (:func:`to_interaction_picture`) takes it into the interaction
    picture. :func:`require_sample_times` checks ``times`` first."""
    times = require_sample_times(times)
    source = rotating_frame_source(params, initial.shape)
    dt, period = lab_step(params, source, times, dt)
    return to_interaction_picture(
        evolve_timedep(source, initial, t_end=float(times[-1]), dt=dt,
                       store_times=times, period=period),
        params)


def _evolve_states(schedule: ProtocolSchedule, initial_label: Label,
                   model: str, times: np.ndarray,
                   dt: float | None) -> EvolutionResult:
    """Evolve the initial basis state to each sample time under the model."""
    params, shape = schedule.params, schedule.shape
    initial = basis_state(shape, *initial_label)

    if model == BLOCK:
        # target_state has already rejected labels outside the block
        labels = block_basis_labels(schedule.block.m, schedule.block.n)
        col = labels.index(initial_label)
        idx = [shape.index(*lbl) for lbl in labels]
        amps = np.zeros((len(times), shape.total_dim), dtype=complex)
        amps[:, idx] = block_propagator(schedule.block, times)[:, :, col]
        return EvolutionResult(times, amps, shape)
    if model == LAB:
        return evolve_lab(params, initial, times, dt)
    # require_model has refused any name but ld and rwa
    build = build_ld_hamiltonian if model == LD else build_rwa_hamiltonian
    return evolve_static(build(params, shape), initial, times)


def protocol_timeseries(schedule: ProtocolSchedule, initial_label: Label,
                        model: str, times: Sequence[float],
                        dt: float | None = None) -> ProtocolSeries:
    """Run the protocol and score the state at every requested time: per
    time |<target|psi>|^2, the norm, the population outside the 4-state block
    (0 for the block model), the top-level population and the floored basis
    populations. :func:`require_model` refuses a run that cannot be done
    before anything is built. A full-space run whose top-level population
    exceeds TRUNCATION_LIMIT is refused once scored, its TruncationError
    carrying the series."""
    shape = schedule.shape
    times = np.asarray(times, dtype=float)
    require_model(model, shape, len(times), dt)
    target = target_state(initial_label, shape, m=schedule.block.m,
                          n=schedule.block.n, p=schedule.p).amplitudes
    result = _evolve_states(schedule, initial_label, model, times, dt)
    # squared in place: the same x * x as ** 2 without a second (T, D)
    # temporary, so an op's heap peak stays that of the per-state code
    pops = np.abs(result.amplitudes)
    np.square(pops, out=pops)
    if model == BLOCK:
        leakage = np.zeros(len(times))
    else:
        # summed left to right, one block state at a time
        in_block = sum(pops[:, shape.index(*lbl)] for lbl in
                       block_basis_labels(schedule.block.m, schedule.block.n))
        leakage = np.maximum(1.0 - in_block, 0.0)
    pops[pops <= POPULATION_FLOOR] = 0.0
    # vecdot conjugates the target and makes np.vdot's zdotc call on each
    # row, so every product has np.vdot's bits; abs and ** 2 stay the
    # scalar ones, since the array np.abs does not round alike
    fid = np.array([abs(z) ** 2
                    for z in np.vecdot(target, result.amplitudes)])
    arrays = (result.times.copy(), fid, result.norms, leakage,
              result.truncation_leak, pops)
    for values in arrays:
        values.flags.writeable = False
    series = ProtocolSeries(shape, *arrays)
    worst = series.truncation_leak.max()
    if model != BLOCK and worst > TRUNCATION_LIMIT:
        raise TruncationError(
            f"top-level population {worst:.3e} exceeds {TRUNCATION_LIMIT:.1e}; "
            f"rerun with a shape larger than "
            f"{shape.vib_dim}x{shape.cav_dim}", series=series)
    return series


def pulse_times(t_p: float, n_times: int) -> np.ndarray:
    """The grid of n_times >= 2 uniform samples from 0 to t_p of a pulse."""
    if n_times < 2:
        raise ConfigurationError(f"n_times must be >= 2 (the series runs "
                                 f"from t = 0 to t_p), got {n_times}")
    return np.linspace(0.0, t_p, n_times)

