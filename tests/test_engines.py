"""One contract for every evolution engine, checked from one registry.

An entry of ENGINES adapts one engine to ``run(psi0, times)``: initial
amplitudes (D,) and sample times from 0 in, an EvolutionResult out. It also
holds the norm drift the engine declares, the (T, D) reference it is pinned
to with the pin's tolerance, its pinned case (psi0, times), where
U(t1 + t2) = U(t2) U(t1) holds a pair (t1, t2), and how far row 0 may be
from psi0: 0, bit for bit, unless the engine rounds at t = 0. Every
invariant below runs on every entry it applies to, so a new engine is one
registry line and one reference.
"""

import functools
import inspect
import math
from typing import Callable, NamedTuple

import numpy as np
import pytest
import scipy.linalg

import ghz_sim
from conftest import (BAD_TIMES, doubled_block_matrix, lab_reference,
                      make_block, scaled_lab_period, scaled_params)
from ghz_sim import evolution, ghz_protocol
from ghz_sim.evolution import (NORM_DRIFT_LIMIT, EvolutionResult,
                               block_propagator, evolve_static, evolve_timedep)
from ghz_sim.fock_core import HilbertShape, QuantumState, basis_state
from ghz_sim.ghz_protocol import (evolve_lab, ghz_schedule,
                                  protocol_timeseries, target_state)
from ghz_sim.hamiltonian import build_ld_hamiltonian


class Engine(NamedTuple):
    run: Callable[[np.ndarray, np.ndarray], EvolutionResult]
    drift: float
    reference: Callable[[np.ndarray, np.ndarray], np.ndarray]
    atol: float
    psi0: np.ndarray
    times: np.ndarray
    compose: tuple[float, float] | None = None
    row_zero: float = 0.0


def expm_of(h):
    return lambda psi0, times: np.array(
        [scipy.linalg.expm(-1j * h * t) @ psi0 for t in times])


def plain_lab_frame(params, shape, psi0, times):
    """The lab engine's reference: conftest.lab_reference from ``psi0``,
    marched by plain RK4 through every laser period at T_L / 400 and taken
    to the interaction picture by the full free phases exp(+i H0 t); its own
    RK4 error is 3.8e-9 in the amplitudes and 5.4e-11 in the fidelity over
    0.02 t_p at 3x3 (16x less at half the step)."""
    plain = evolve_timedep(lab_reference(params, shape),
                           QuantumState(shape, psi0), times[-1],
                           2 * math.pi / params.omega_L / 400,
                           store_times=times)
    s, m, n = shape.levels
    energies = (params.nu * (m + 0.5) + params.omega_c * n
                + 0.5 * params.omega_0 * (2 * s - 1))
    return np.exp(1j * energies * times[:, None]) * plain.amplitudes


def timedep(source, dt, period=None):
    """evolve_timedep at 3x3 as run(psi0, times), to the last sample."""
    return lambda psi0, times: evolve_timedep(
        source, QuantumState(SHAPE, psi0),
        float(times[-1]) if len(times) else 0.0, dt, store_times=times,
        period=period)


SHAPE, LAB_H, PERIOD, STEP = scaled_lab_period()
G00, E00 = (basis_state(SHAPE, s, 0, 0).amplitudes for s in "ge")
# the closed form propagates the chain with carrier Omega = 0.9 on both
# pairs and sideband element 2a (test_acceptance measures it against
# block_matrix's a); HilbertShape(1, 2) only sizes its D = 4 rows
BLOCK, CHAIN = make_block(0.9, 0.35), doubled_block_matrix(0.9, 0.35)
# a random Hermitian H at 3x2
_re, _im = np.random.default_rng(11).normal(size=(2, 12, 12))
STATIC_H = (_re + 1j * _im) + (_re + 1j * _im).conj().T
LD_H = build_ld_hamiltonian(scaled_params(Omega=1.0), SHAPE)
# the tuned pulse at phi = 0.3 over 0.02 t_p, 38 laser periods
LAB = ghz_schedule(scaled_params(phi=0.3), shape=SHAPE, tune=True)

ENGINES = {
    "block": Engine(lambda psi0, times: EvolutionResult(
        times, block_propagator(BLOCK, times) @ psi0, HilbertShape(1, 2)),
        1e-12, expm_of(CHAIN), 1e-12, np.array([0.6, 0, 0.8j, 0]),
        np.linspace(0.0, 10.0, 21), (1.3, 2.1)),
    "static": Engine(lambda psi0, times: evolve_static(
        STATIC_H, QuantumState(HilbertShape(3, 2), psi0), times),
        1e-10, expm_of(STATIC_H), 1e-11,
        basis_state(HilbertShape(3, 2), "g", 1, 1).amplitudes,
        np.array([0.0, 0.83]), (0.4, 0.43), row_zero=1e-15),
    "rk4": Engine(timedep(lambda t: LD_H, 5e-3), NORM_DRIFT_LIMIT,
                  lambda psi0, times: evolve_static(
                      LD_H, QuantumState(SHAPE, psi0), times).amplitudes,
                  1e-8, G00, np.linspace(0.0, 2.5, 6)),
    # two RK4 discretisations of one flow, each about 1e-12 from it;
    # floor(13 T / T) is 12, so that row is read at an offset of about T
    "rk4_period": Engine(timedep(LAB_H, STEP, PERIOD), NORM_DRIFT_LIMIT,
                         lambda psi0, times: timedep(LAB_H, STEP)(
                             psi0, times).amplitudes, 1e-10, E00,
                         np.union1d(np.linspace(0.0, 5.3 * PERIOD, 12),
                                    np.array([1, 2, 13]) * PERIOD),
                         (2 * PERIOD, 3 * PERIOD)),
    "lab": Engine(lambda psi0, times: evolve_lab(
        LAB.params, QuantumState(SHAPE, psi0), times), NORM_DRIFT_LIMIT,
        functools.partial(plain_lab_frame, LAB.params, SHAPE), 1e-8, G00,
        np.linspace(0.0, 0.02 * LAB.t_p, 11)),
}
each_engine = pytest.mark.parametrize("name", ENGINES)


@functools.cache
def trajectory(name):
    engine = ENGINES[name]
    return engine.run(engine.psi0, engine.times)


@each_engine
def test_times_are_the_sample_times_bit_for_bit(name):
    # EvolutionResult holds the amplitudes read-only, one row per time
    assert trajectory(name).times.tobytes() == ENGINES[name].times.tobytes()


@each_engine
def test_norms_stay_within_the_declared_drift(name):
    result, drift = trajectory(name), ENGINES[name].drift
    assert np.max(np.abs(result.norms - 1.0)) <= drift
    assert result.norm_drift <= drift


@each_engine
def test_row_zero_is_psi0_and_the_basis_columns_are_unitary(name):
    engine = ENGINES[name]
    dim = len(engine.psi0)
    # u[i][:, j] is basis state j at times[i]
    u = np.stack([engine.run(column, engine.times).amplitudes
                  for column in np.eye(dim, dtype=complex)], axis=2)
    # static's row 0 is V V† psi0, exact but for rounding
    assert np.max(np.abs(u[0] - np.eye(dim))) <= engine.row_zero
    gram = u.conj().transpose(0, 2, 1) @ u
    assert np.max(np.abs(gram - np.eye(dim))) <= engine.drift


@pytest.mark.parametrize("name", [name for name, engine in ENGINES.items()
                                  if engine.compose])
def test_propagators_compose(name):
    engine = ENGINES[name]
    t1, t2 = engine.compose

    def final(psi, t):
        return engine.run(psi, np.array([t])).amplitudes[-1]

    two_steps = final(final(engine.psi0, t1), t2)
    assert np.max(np.abs(two_steps - final(engine.psi0, t1 + t2))) \
        < engine.atol


@functools.cache
def expected(name):
    engine = ENGINES[name]
    return engine.reference(engine.psi0, engine.times)


@each_engine
def test_matches_its_reference(name):
    assert np.max(np.abs(trajectory(name).amplitudes - expected(name))) \
        < ENGINES[name].atol


def test_the_scored_lab_run_matches_its_reference():
    # the lab reference pins the protocol's fidelity too: measured gap
    # 5.4e-11, that reference's own RK4 error
    series = protocol_timeseries(LAB, ("g", 0, 0), "lab", ENGINES["lab"].times)
    target = target_state(("g", 0, 0), SHAPE).amplitudes
    assert np.max(np.abs(series.fidelity - [
        abs(np.vdot(target, row)) ** 2 for row in expected("lab")])) < 1e-9


def work(*args, **kwargs):
    raise AssertionError("an engine worked on a grid it must refuse")


@pytest.mark.parametrize("times, message", BAD_TIMES)
@each_engine
def test_bad_times_are_refused_before_any_work(monkeypatch, name, times,
                                               message):
    # every H(t) of a time-dependent run is evaluated in _rk4_segment, and
    # rotating_frame_source builds the lab run's H(t)
    for owner, attribute in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (evolution, "_rk4_segment"),
                             (ghz_protocol, "rotating_frame_source")):
        monkeypatch.setattr(owner, attribute, work)
    # an empty memo, so a held eigensystem cannot stand in for eigh
    monkeypatch.setattr(evolution, "_held", None)
    engine = ENGINES[name]
    # evolve_timedep checks t_end, the grid's last sample here, first
    with pytest.raises(ValueError, match=rf"times? {message}|^t_end must be "
                                         rf"a finite number >= 0"):
        engine.run(engine.psi0, np.array(times, dtype=float))


def test_every_exported_engine_has_a_registry_entry():
    # an engine: an exported function of sample times that returns amplitudes
    exported = {name for name, value in vars(ghz_sim).items()
                if inspect.isfunction(value)
                and {"t", "times", "store_times"}
                & set(inspect.signature(value).parameters)
                and inspect.signature(value).return_annotation
                in ("EvolutionResult", "np.ndarray")}
    # the rule above still finds today's engines
    assert exported >= {"block_propagator", "evolve_static",
                        "evolve_timedep", "evolve_lab"}
    entries = set()
    for engine in ENGINES.values():
        names = inspect.getclosurevars(engine.run)
        entries |= {(name, names.nonlocals.get("period") is not None)
                    for name in exported & set(names.globals)}
    assert entries == {(name, False) for name in exported} | {
        ("evolve_timedep", True)}
