"""Byte identity of the written series against the benchmark's pinned
references: every ``pulse-small`` menu point and one two-point ``eta_c``
sweep per sweep model at 16x16, run through ``cli.main`` the way the
benchmark runs them and checked by its own ``pulse_check`` / ``sweep_check``
against ``perfbench/references.json``."""

import json
import random
from pathlib import Path

import pytest

from conftest import load_perfbench
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
