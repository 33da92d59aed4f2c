"""The written series against the benchmark's pinned references: every
``pulse-small`` menu point and one two-point ``eta_c`` sweep per sweep
model at 16x16 byte for byte, and the ``lab-pulse`` menu within its
fidelity tolerances, run through ``cli.main`` the way the benchmark runs
them and checked by its own ``pulse_check`` / ``sweep_check`` /
``lab_check`` against ``perfbench/references.json``."""

import json
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import load_perfbench
from ghz_sim import cli, ghz_protocol
from ghz_sim.cli import main

workloads = load_perfbench("workloads")
REFS = workloads.load_references()


def run_op(op, tmp_path: Path, capsys) -> Path:
    """The benchmark's op: its config plus the output path, then its argv."""
    config, output = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps({**op.config, "output": str(output)}))
    output.unlink(missing_ok=True)
    rc = main([*op.argv, "--config", str(config)])
    capsys.readouterr()
    assert rc == 0, op.key
    return output


@pytest.mark.parametrize("model", workloads.PULSE_MODELS)
def test_pulse_small_menu_matches_the_pinned_series(tmp_path, capsys, model):
    for initial in workloads.INITIALS:
        for eta_c in workloads.ETA_C_GRID:
            op = workloads.pulse_op(model, initial, eta_c)
            path = run_op(op, tmp_path, capsys)
            assert workloads.pulse_check(op, path, REFS) is None


@pytest.mark.parametrize("model", workloads.SWEEP_MODELS)
def test_sweep_large_points_match_the_pinned_rows(tmp_path, capsys, model):
    op = workloads.sweep_op(model, [0.1, 0.02])
    path = run_op(op, tmp_path, capsys)
    assert workloads.sweep_check(op, path, REFS) is None


@pytest.mark.parametrize("model", workloads.SWEEP_MODELS)
def test_shuffled_full_grid_sweep_matches_the_pinned_rows(tmp_path, capsys,
                                                          model):
    # the points run grouped by Hamiltonian, not in the given order; the
    # rows must still come out in the given order, each one pinned
    values = list(workloads.ETA_C_GRID)
    random.Random(f"shuffle/{model}").shuffle(values)
    assert values != sorted(values)
    op = workloads.sweep_op(model, values)
    path = run_op(op, tmp_path, capsys)
    assert workloads.sweep_check(op, path, REFS) is None


@pytest.mark.parametrize("initial", workloads.INITIALS)
def test_lab_pulse_menu_matches_the_pinned_fidelities(tmp_path, capsys,
                                                      initial):
    op = workloads.lab_op(initial)
    path = run_op(op, tmp_path, capsys)
    assert workloads.lab_check(op, path, REFS) is None


@pytest.mark.parametrize("argv, config, eigensolves", [
    (("ghz",), {}, 1),
    (("sweep", "eta_c", "0.05,0.1"), {}, 2),
    (("ghz",), {"dt": 1e-5}, 0),
    (("sweep", "dt", "1e-5,2e-5"), {}, 0)],
    ids=["ghz-default", "sweep-default", "ghz-dt", "sweep-dt"])
def test_a_lab_run_takes_the_step_it_was_resolved_with(
        tmp_path, capsys, monkeypatch, argv, config, eigensolves):
    # resolve_run picks a lab run's step, diagonalising H(0) when no dt is
    # given, and Run.dt carries that step to the integrator unchanged, so
    # each run takes one eigensolve at most
    eigvalsh, resolve = np.linalg.eigvalsh, cli.resolve_run
    evolve = ghz_protocol.evolve_timedep
    solves, runs, steps = [], [], []

    def counted(h):
        solves.append(h.shape)
        return eigvalsh(h)

    def resolved(point):
        runs.append(resolve(point))
        return runs[-1]

    def stepped(*args, **kwargs):
        steps.append(kwargs["dt"])
        return evolve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    monkeypatch.setattr(cli, "resolve_run", resolved)
    monkeypatch.setattr(ghz_protocol, "evolve_timedep", stepped)
    op = workloads.lab_op("g,0,0")
    run_op(replace(op, argv=(*argv, *op.argv[1:]),
                   config={**op.config, **config}), tmp_path, capsys)
    assert len(solves) == eigensolves
    assert len(runs) == len(steps) > 0
    assert all(isinstance(run.dt, float) for run in runs)
    assert sorted(steps) == sorted(run.dt for run in runs)
