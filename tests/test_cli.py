import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_sim import checks, cli, evolution
from ghz_sim.checks import CHECK_NAMES
from ghz_sim.cli import fmt, main, read_table, write_table
from ghz_sim.evolution import block_propagator
from ghz_sim.fock_core import ION_LABELS, HilbertShape
from ghz_sim.ghz_protocol import (POPULATION_FLOOR, ghz_schedule,
                                  protocol_timeseries, pulse_times)
from ghz_sim.hamiltonian import block_basis_labels

from conftest import LAB_HIERARCHY, scaled_params

# the two cross-checks tying the closed-form propagator to the 4x4 block
# matrix fail by the intrinsic sideband factor-2 discrepancy; everything
# else in the validate suite passes
KNOWN_RED_CHECKS = {"block_schrodinger_residual", "block_vs_expm"}


def run_cli(*argv):
    return main(list(argv))


def summary_field(line, key):
    for token in line.split():
        if token.startswith(key + "="):
            return token.split("=", 1)[1]
    raise AssertionError(f"{key}= not found in {line!r}")


class TestValidate:
    def test_list_prints_names_without_running(self, capsys):
        assert run_cli("validate", "--list") == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(CHECK_NAMES)

    def test_default_run_reports_every_check(self, capsys):
        rc = run_cli("validate")
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(CHECK_NAMES)
        failed = {ln.split()[1] for ln in lines if ln.startswith("FAIL")}
        assert failed == KNOWN_RED_CHECKS
        assert rc == 1
        assert "block_schrodinger_residual" in out

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        build_O_k = checks.build_O_k

        def perturbed(k, eta, dim):
            return build_O_k(k, eta, dim) + 1e-3 * np.eye(dim)

        monkeypatch.setattr(checks, "build_O_k", perturbed)
        rc = run_cli("validate")
        out = capsys.readouterr().out
        assert rc == 1
        assert any(ln.startswith("FAIL o_k_series") for ln in out.splitlines())

    def test_an_off_pattern_rwa_entry_is_caught(self, capsys, monkeypatch):
        # |g,0,0> <-> |g,0,1> keeps the ion state: neither a carrier nor a
        # sideband entry
        build_rwa_hamiltonian = checks.build_rwa_hamiltonian

        def perturbed(params, shape):
            h = build_rwa_hamiltonian(params, shape)
            i, j = shape.index("g", 0, 0), shape.index("g", 0, 1)
            h[i, j] += 1e-3
            h[j, i] += 1e-3
            return h

        monkeypatch.setattr(checks, "build_rwa_hamiltonian", perturbed)
        rc = run_cli("validate")
        out = capsys.readouterr().out
        assert rc == 1
        assert any(ln.startswith("FAIL block_structure measured=1.0")
                   for ln in out.splitlines())


class TestGhzCommand:
    def test_paper_defaults_summary(self, tmp_path, capsys):
        out_file = tmp_path / "series.csv"
        assert run_cli("ghz", "--output", str(out_file)) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        t_p_us = float(summary_field(line, "t_p"))
        tuned_g = float(summary_field(line, "tuned_g"))
        fid = float(summary_field(line, "fidelity"))
        assert t_p_us == pytest.approx(0.34, rel=0.01)
        assert tuned_g == pytest.approx(46.21760126474184, rel=1e-10)
        assert fid == pytest.approx(1.0, abs=1e-10)
        assert out_file.exists()

    def test_lab_model_at_default_config_agrees_with_rwa(self, tmp_path,
                                                         capsys):
        # 3,872 periods of the laser frame per pulse: the laser frame and
        # the period propagator make this run cheap (about 0.1 s alone);
        # measured |F_lab - F_rwa| = 2.8e-5
        cfg = tmp_path / "few.json"
        cfg.write_text(json.dumps({"n_times": 3}))
        fids = {}
        for model in ("lab", "rwa"):
            assert run_cli("ghz", "--model", model, "--config", str(cfg),
                           "--output", str(tmp_path / f"{model}.csv")) == 0
            line = capsys.readouterr().out.strip().splitlines()[-1]
            fids[model] = float(summary_field(line, "fidelity"))
        assert abs(fids["lab"] - fids["rwa"]) < 1e-3

    def test_series_file_contents(self, tmp_path):
        out_file = tmp_path / "series.csv"
        run_cli("ghz", "--output", str(out_file))
        columns, rows = read_table(str(out_file))
        assert columns[0] == "t_us"
        assert {"fidelity", "norm", "block_leakage"} <= set(columns)
        assert rows[0][columns.index("t_us")] == 0.0
        assert rows[-1][columns.index("fidelity")] == pytest.approx(1.0,
                                                                    abs=1e-10)
        norms = [r[columns.index("norm")] for r in rows]
        assert all(abs(n - 1.0) < 1e-9 for n in norms)

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("ghz", "--output", str(a))
        run_cli("ghz", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format_same_numbers_as_csv(self, tmp_path):
        c, j = tmp_path / "run.csv", tmp_path / "run.json"
        run_cli("ghz", "--output", str(c), "--format", "csv")
        run_cli("ghz", "--output", str(j), "--format", "json")
        cols_c, rows_c = read_table(str(c))
        cols_j, rows_j = read_table(str(j))
        assert cols_c == cols_j
        assert rows_c == rows_j

    def test_ld_model_records_sub_unit_fidelity(self, tmp_path, capsys):
        out_file = tmp_path / "ld.csv"
        assert run_cli("ghz", "--model", "ld", "--shape", "6x6",
                       "--output", str(out_file)) == 0
        line = capsys.readouterr().out.strip().splitlines()[-1]
        fid = float(summary_field(line, "fidelity"))
        leak = float(summary_field(line, "block_leakage"))
        assert fid < 1.0
        assert leak > 0.0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "block", "p": 2,
                                   "output": str(tmp_path / "ignored.csv")}))
        out_file = tmp_path / "flag_wins.csv"
        assert run_cli("ghz", "--config", str(cfg), "--output",
                       str(out_file)) == 0
        assert out_file.exists()
        assert not (tmp_path / "ignored.csv").exists()
        line = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary_field(line, "p") == "2"

    def test_units_si_matches_mhz_rows_exactly(self, tmp_path):
        mhz_cfg = {"Omega": 8.95, "nu": 179.0, "omega_0": 35800.0,
                   "omega_c": 35621.0, "omega_L": 35800.0}
        si_cfg = {k: v * 1e6 for k, v in mhz_cfg.items()}
        si_cfg["units"] = "si"
        a, b = tmp_path / "mhz.csv", tmp_path / "si.csv"
        cfg_a, cfg_b = tmp_path / "a.json", tmp_path / "b.json"
        cfg_a.write_text(json.dumps(mhz_cfg))
        cfg_b.write_text(json.dumps(si_cfg))
        assert run_cli("ghz", "--config", str(cfg_a), "--output", str(a)) == 0
        assert run_cli("ghz", "--config", str(cfg_b), "--output", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_explicit_time_override(self, tmp_path):
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"t": 0.1}))  # us
        out_file = tmp_path / "short.csv"
        assert run_cli("ghz", "--config", str(cfg), "--output",
                       str(out_file)) == 0
        _, rows = read_table(str(out_file))
        assert rows[-1][0] == pytest.approx(0.1, rel=1e-12)

    def test_the_smallest_shape_that_holds_the_block_runs(self, tmp_path):
        cfg = tmp_path / "block.json"
        cfg.write_text(json.dumps({"m": 3, "n": 1, "initial": "g,2,0"}))
        out_file = tmp_path / "x.csv"
        assert run_cli("ghz", "--shape", "4x2", "--config", str(cfg),
                       "--output", str(out_file)) == 0
        assert out_file.exists()

    def test_a_dt_within_the_guard_runs(self, tmp_path):
        # the guard is dt <= T / 100 with T = 2 pi / omega_L the laser
        # period (the laser frame repeats after T / 2); T / 70 is refused
        cfg = tmp_path / "dt.json"
        cfg.write_text(json.dumps({"dt": 2 * math.pi / 35800.0 / 101,
                                   "t": 1e-3, "n_times": 2}))
        out_file = tmp_path / "x.csv"
        assert run_cli("ghz", "--model", "lab", "--shape", "3x3", "--config",
                       str(cfg), "--output", str(out_file)) == 0
        assert out_file.exists()

    def test_population_column_appearing_mid_series(self, tmp_path):
        # from |e,1,1> the carrier fills |g,1,1> (lower flat index) from 0:
        # above POPULATION_FLOOR only from the fourth sample on
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"initial": "e,1,1", "t": 5e-4,
                                   "n_times": 11}))
        out_file = tmp_path / "short.csv"
        assert run_cli("ghz", "--shape", "2x2", "--config", str(cfg),
                       "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))

        shape = HilbertShape(2, 2)
        schedule = ghz_schedule(scaled_params(), shape=shape)
        labels = block_basis_labels(1, 1)
        col = labels.index(("e", 1, 1))
        raw = np.zeros((11, shape.total_dim))
        for i, t in enumerate(np.linspace(0.0, 5e-4 * 1e-6, 11)):
            amps = block_propagator(schedule.block, t)[:, col]
            raw[i, [shape.index(*lbl) for lbl in labels]] = np.abs(amps) ** 2
        g11, e11 = shape.index("g", 1, 1), shape.index("e", 1, 1)
        assert 0.0 < raw[1, g11] <= POPULATION_FLOOR < raw[-1, g11]

        above = [i for i in range(shape.total_dim)
                 if (raw[:, i] > POPULATION_FLOOR).any()]
        assert above == [g11, e11]
        assert columns == ["t_us", "pop_g_1_1", "pop_e_1_1", "fidelity",
                           "norm", "block_leakage"]
        for row, raw_row in zip(rows, raw):
            for value, i in zip(row[1:3], above):
                expected = raw_row[i] if raw_row[i] > POPULATION_FLOOR else 0.0
                assert fmt(value) == fmt(expected)


class TestSweepCommand:
    def test_phi_sweep_compensated_fidelity_constant(self, tmp_path):
        out_file = tmp_path / "phi.csv"
        assert run_cli("sweep", "phi", "0:1.5:0.25", "--model", "block",
                       "--shape", "2x2", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        phis = [r[columns.index("phi")] for r in rows]
        assert phis == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
        fids = [r[columns.index("fidelity")] for r in rows]
        assert max(fids) - min(fids) < 1e-6
        # compensation scales the tuned g up by 1/cos(phi)
        g0 = rows[0][columns.index("tuned_g_MHz")]
        for phi, row in zip(phis, rows):
            assert row[columns.index("tuned_g_MHz")] == \
                pytest.approx(g0 / math.cos(phi), rel=1e-11)

    def test_p_sweep_time_strictly_increasing(self, tmp_path):
        out_file = tmp_path / "p.csv"
        assert run_cli("sweep", "p", "1,2,3", "--model", "block",
                       "--shape", "2x2", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        t_ps = [r[columns.index("t_p_us")] for r in rows]
        assert all(a < b for a, b in zip(t_ps, t_ps[1:]))

    def test_sweep_preserves_order(self, tmp_path):
        out_file = tmp_path / "p.csv"
        assert run_cli("sweep", "p", "3,1,4,2", "--model", "block",
                       "--shape", "2x2", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        assert [r[columns.index("p")] for r in rows] == [3, 1, 4, 2]
        # the tuned pulse meets a t_p = pi / 4 with g ~ 1 / sqrt(16 p^2 - 1)
        t_1 = rows[1][columns.index("t_p_us")] / math.sqrt(15)
        assert [r[columns.index("t_p_us")] for r in rows] == pytest.approx(
            [t_1 * math.sqrt(16 * p * p - 1) for p in (3, 1, 4, 2)],
            rel=1e-11)

    def test_eta_c_sweep_under_rwa(self, tmp_path):
        # the higher-order dressing weakens the out-of-block chain couplings,
        # so the retuned fidelity drifts monotonically (upward) with eta_c
        out_file = tmp_path / "eta.json"
        assert run_cli("sweep", "eta_c", "0.02,0.05,0.1", "--model", "rwa",
                       "--shape", "6x6", "--format", "json",
                       "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        fids = [r[columns.index("fidelity")] for r in rows]
        assert fids[0] < fids[1] < fids[2] < 1.0

    def test_vib_dim_truncation_convergence(self, tmp_path):
        out_file = tmp_path / "vib.csv"
        assert run_cli("sweep", "vib_dim", "6,8", "--model", "ld",
                       "--shape", "6x8", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        fids = [r[columns.index("fidelity")] for r in rows]
        assert abs(fids[0] - fids[1]) < 1e-6

    @pytest.mark.parametrize("model, axis, values, eighs", [
        ("ld", "eta_c", (0.07, 0.02, 0.1, 0.05, 0.03, 0.09, 0.04, 0.08), 2),
        ("rwa", "eta_c", (0.07, 0.02, 0.1, 0.05, 0.03, 0.09, 0.04, 0.08), 8),
        ("ld", "phi", (0.3, 0.0, 0.1, 0.2), 1),
        ("rwa", "phi", (0.3, 0.0, 0.1, 0.2), 1)])
    def test_each_distinct_hamiltonian_is_diagonalised_once(
            self, tmp_path, monkeypatch, model, axis, values, eighs):
        # tuned, g cos(phi) eta_c is pinned: the ld eta_c points build two
        # distinct matrices (the product rounds two ways), the phi points
        # one; each matrix runs at one t_p from g,0,0, so the points under
        # it repeat one run
        eigh, evolve = np.linalg.eigh, cli.protocol_timeseries
        result = evolution.EvolutionResult
        calls, ran, evolved = [], [], []

        def result_spy(*args, **kwargs):
            evolved.append(args[0])
            return result(*args, **kwargs)

        def eigh_spy(h, *args, **kwargs):
            calls.append(h.shape)
            return eigh(h, *args, **kwargs)

        def run_spy(*run):
            ran.append(getattr(run[0].params, axis))
            return evolve(*run)

        monkeypatch.setattr(evolution, "_held", None)
        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(evolution, "EvolutionResult", result_spy)
        monkeypatch.setattr(cli, "protocol_timeseries", run_spy)
        out_file = tmp_path / "s.csv"
        assert run_cli("sweep", axis, ",".join(map(str, values)), "--model",
                       model, "--shape", "16x16",
                       "--output", str(out_file)) == 0
        assert len(calls) == eighs
        assert len(evolved) == eighs
        assert sorted(ran) == sorted(values)
        columns, rows = read_table(str(out_file))
        assert [r[columns.index(axis)] for r in rows] == list(values)

    def test_ld_points_run_grouped_and_rows_stay_in_axis_order(
            self, tmp_path, monkeypatch):
        evolve = cli.protocol_timeseries
        ran = []

        def run_spy(*run):
            ran.append(run[0].params.eta_c)
            return evolve(*run)

        monkeypatch.setattr(cli, "protocol_timeseries", run_spy)
        values = [0.02, 0.05, 0.04, 0.1, 0.08]
        out_file = tmp_path / "s.csv"
        assert run_cli("sweep", "eta_c", ",".join(map(str, values)),
                       "--model", "ld", "--shape", "6x6",
                       "--output", str(out_file)) == 0
        # 0.05 and 0.1 round the tuned g eta_c (the sideband element a) to
        # the lower of two neighbouring floats, 0.02, 0.04 and 0.08 to the
        # upper: each group runs back to back, in axis order within it
        assert ran == [0.05, 0.1, 0.02, 0.04, 0.08]
        columns, rows = read_table(str(out_file))
        assert [r[0] for r in rows] == values

    def test_failing_sweep_runs_its_points_grouped(self, tmp_path,
                                                   monkeypatch):
        # vib_dim 3 runs first (the smaller shape) and fails, but the sweep
        # reports vib_dim 4, the first failing point in axis order, as a
        # sweep that ran in axis order would (test_refusals.py holds the
        # message)
        evolve = cli.protocol_timeseries
        ran = []

        def run_spy(*run):
            ran.append(run[0].shape.vib_dim)
            return evolve(*run)

        monkeypatch.setattr(cli, "protocol_timeseries", run_spy)
        out_file = tmp_path / "vib.csv"
        assert run_cli("sweep", "vib_dim", "4,3", "--model", "ld",
                       "--shape", "6x6", "--output", str(out_file)) == 1
        assert ran == [3, 4]

    @pytest.mark.parametrize("model", ["block", "ld", "rwa"])
    @pytest.mark.parametrize("axis, values, flags", [
        ("eta_c", (0.04, 0.07), lambda v: ("--config", {"eta_c": v})),
        ("p", (1, 3), lambda v: ("--p", str(v))),
        ("vib_dim", (6, 7), lambda v: ("--shape", f"{v}x6"))])
    def test_sweep_row_is_the_final_row_of_ghz(self, tmp_path, capsys, model,
                                               axis, values, flags):
        # a sweep point is the ghz run of its config: every written field of
        # its row is the text ghz writes in the last row of that run
        sweep_file = tmp_path / "sweep.csv"
        assert run_cli("sweep", axis, ",".join(map(str, values)), "--model",
                       model, "--shape", "6x6", "--output",
                       str(sweep_file)) == 0
        header, *lines = sweep_file.read_text().splitlines()
        zero = fmt(0.0)
        for value, line in zip(values, lines):
            row = dict(zip(header.split(","), line.split(",")))
            argv = ["ghz", "--model", model, "--shape", "6x6"]
            flag, arg = flags(value)
            if flag == "--config":
                cfg = tmp_path / "point.json"
                cfg.write_text(json.dumps(arg))
                arg = str(cfg)
            ghz_file = tmp_path / "ghz.csv"
            capsys.readouterr()
            assert run_cli(*argv, flag, arg, "--output", str(ghz_file)) == 0
            tuned_g = summary_field(capsys.readouterr().out, "tuned_g")
            ghz_header, *ghz_lines = ghz_file.read_text().splitlines()
            final = dict(zip(ghz_header.split(","), ghz_lines[-1].split(",")))
            assert row.pop(axis) == fmt(value)
            assert row.pop("t_p_us") == final.pop("t_us")
            assert row.pop("tuned_g_MHz") == tuned_g
            for name in set(row) | set(final):
                assert row.get(name, zero) == final.get(name, zero), name

    def test_population_columns_over_shapes_in_index_order(self, tmp_path):
        # points of a vib_dim sweep have different shapes; every label
        # populated at any point gets one column, in (s, m, n) order, and
        # the 6x6 point populates |g,5,5>, which the 5x6 point lacks
        out_file = tmp_path / "vib.csv"
        assert run_cli("sweep", "vib_dim", "6,5", "--model", "ld",
                       "--shape", "6x6", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        params = scaled_params()
        reports = {}
        for vib in (6, 5):
            shape = HilbertShape(vib, 6)
            schedule = ghz_schedule(params, shape=shape, tune=True)
            reports[vib] = (shape, protocol_timeseries(
                schedule, ("g", 0, 0), "ld",
                pulse_times(schedule.t_p, 101)).populations[-1])
        union = sorted({lbl for shape, pops in reports.values()
                        for lbl in shape.labels()
                        if pops[shape.index(*lbl)] > 0.0},
                       key=lambda lbl: (ION_LABELS.index(lbl[0]), *lbl[1:]))
        assert ("g", 5, 5) in union
        assert columns[6:] == [f"pop_{s}_{m}_{n}" for s, m, n in union]
        for row, (shape, pops) in zip(rows, reports.values()):
            for value, (s, m, n) in zip(row[6:], union):
                expected = (pops[shape.index(s, m, n)]
                            if m < shape.vib_dim else 0.0)
                assert fmt(value) == fmt(expected)

    def test_config_n_times_reaches_every_point(self, tmp_path,
                                                monkeypatch):
        seen = []

        def spy(t_p, n_times):
            seen.append(n_times)
            return sample(t_p, n_times)

        sample = cli.pulse_times
        monkeypatch.setattr(cli, "pulse_times", spy)
        cfg = tmp_path / "few.json"
        cfg.write_text(json.dumps({"n_times": 7}))
        assert run_cli("sweep", "eta_c", "0.04,0.05", "--model", "ld",
                       "--shape", "6x6", "--config", str(cfg),
                       "--output", str(tmp_path / "x.csv")) == 0
        assert seen == [7, 7]

    def test_held_g_that_meets_the_condition_is_written(self, tmp_path):
        # 5e-10 above the tuned 46.2176012647 MHz: inside the 1e-9 tuning
        # tolerance, and apart from it in the 12 written digits
        cfg = tmp_path / "g.json"
        cfg.write_text(json.dumps({"g": 46.2176012878}))
        out_file = tmp_path / "x.csv"
        assert run_cli("sweep", "eta_c", "0.05", "--model", "block",
                       "--shape", "2x2", "--config", str(cfg),
                       "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        assert fmt(rows[0][columns.index("tuned_g_MHz")]) == \
            "4.62176012878e+01"

    @pytest.mark.parametrize("units, dt", [("mhz", 0.0001), ("si", 1e-10)])
    def test_dt_column_is_in_us(self, tmp_path, units, dt):
        scale = 1.0 if units == "mhz" else 1e6
        cfg = tmp_path / "lab.json"
        cfg.write_text(json.dumps({"units": units, **{
            key: value * scale for key, value in LAB_HIERARCHY.items()}}))
        out_file = tmp_path / "dt.csv"
        assert run_cli("sweep", "dt", str(dt), "--model", "lab", "--shape",
                       "6x6", "--config", str(cfg),
                       "--output", str(out_file)) == 0
        header, line = out_file.read_text().splitlines()
        assert header.startswith("dt,t_p_us,")
        assert line.startswith("1.00000000000e-04,3.39869721450e-01,")

    def test_sweep_output_reparses(self, tmp_path):
        csv_f = tmp_path / "s.csv"
        json_f = tmp_path / "s.json"
        run_cli("sweep", "p", "1,2", "--model", "block", "--shape", "2x2",
                "--output", str(csv_f))
        run_cli("sweep", "p", "1,2", "--model", "block", "--shape", "2x2",
                "--format", "json", "--output", str(json_f))
        cols_c, rows_c = read_table(str(csv_f))
        cols_j, rows_j = read_table(str(json_f))
        assert cols_c == cols_j and rows_c == rows_j


def test_fmt_is_twelve_significant_digits_lowercase():
    assert fmt(math.pi) == "3.14159265359e+00"
    assert fmt(0.0) == "0.00000000000e+00"
    assert "E" not in fmt(1.23e-45)


def test_write_table_bytes_equal_the_per_value_format(tmp_path):
    row = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
           1.7976931348623157e308, 1 / 3]
    columns = [f"c{i}" for i in range(len(row))]
    csv_f, json_f = tmp_path / "t.csv", tmp_path / "t.json"
    write_table(str(csv_f), columns, [row, row[::-1]], "csv")
    write_table(str(json_f), columns, [row, row[::-1]], "json")
    lines = [",".join(fmt(v) for v in r) for r in (row, row[::-1])]
    assert csv_f.read_bytes() == (",".join(columns) + "\n"
                                  + "\n".join(lines) + "\n").encode()
    payload = {"columns": columns,
               "rows": [[float(fmt(v)) for v in r] for r in (row, row[::-1])]}
    assert json_f.read_bytes() == (json.dumps(payload, indent=1)
                                   + "\n").encode()


def per_value_table(columns, rows, file_format):
    """The bytes write_table writes, built from fmt of each value."""
    if file_format == "csv":
        lines = [",".join(fmt(v) for v in row) for row in rows]
        return "\n".join([",".join(columns)] + lines).encode() + b"\n"
    payload = {"columns": columns,
               "rows": [[float(fmt(v)) for v in row] for row in rows]}
    return (json.dumps(payload, indent=1) + "\n").encode()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda width: st.lists(
    st.lists(st.floats(width=64), min_size=width, max_size=width),
    max_size=8)), st.sampled_from(["csv", "json"]))
def test_write_table_property_matches_the_per_value_format(tmp_path_factory,
                                                           rows, file_format):
    # st.floats() draws NaN, +-inf, +-0.0, subnormals and the extremes
    width = len(rows[0]) if rows else 3
    columns = [f"c{i}" for i in range(width)]
    path = tmp_path_factory.mktemp("table") / f"t.{file_format}"
    write_table(str(path), columns, rows, file_format)
    assert path.read_bytes() == per_value_table(columns, rows, file_format)
    # an array is written exactly as the same rows in lists
    write_table(str(path), columns, np.array(rows).reshape(len(rows), width),
                file_format)
    assert path.read_bytes() == per_value_table(columns, rows, file_format)


def format_corpus() -> np.ndarray:
    """About 1.2 million doubles that probe every branch of the vectorised
    writer, from a fixed seed."""
    rng = np.random.default_rng(20261018)
    # every bit pattern: both signs, NaN payloads, inf, subnormals, extremes
    bits = rng.integers(0, 2 ** 64, size=600_000,
                        dtype=np.uint64).view(np.float64)
    # 13-digit integers ending in 5, exact ties at 12 digits, then scaled by
    # powers of 2 (exact), half of them kept at 2^0
    ties = (rng.integers(10 ** 11, 10 ** 12, size=150_000) * 10 + 5
            ).astype(float)
    scale = np.where(rng.random(len(ties)) < 0.5, 0,
                     rng.integers(-1060, 970, size=len(ties)))
    ties = np.ldexp(ties, scale)
    # decimal ties at every exponent, read to the nearest double: within
    # an ulp of the tie, on either side, where a scaling error would show
    near = np.array([float(f"{n}5e{k}") for n, k in zip(
        rng.integers(10 ** 11, 10 ** 12, size=100_000),
        rng.integers(-320, 297, size=100_000))])
    # every power of ten and its two neighbouring doubles
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, np.inf),
                           np.nextafter(tens, 0.0)])
    subnormal = rng.integers(1, 2 ** 52, size=50_000,
                             dtype=np.uint64).view(np.float64)
    # typical table values: reciprocals of integers
    typical = 1.0 / rng.integers(1, 10 ** 6, size=300_000)
    signed = np.concatenate([ties, near, tens, subnormal, typical])
    signed *= np.where(rng.random(len(signed)) < 0.5, -1.0, 1.0)
    return np.concatenate([bits, signed])


def test_format_rows_equals_the_percent_format_on_a_fixed_corpus():
    values = format_corpus()
    assert len(values) >= 10 ** 6
    values = values[:len(values) // 5 * 5].reshape(-1, 5)
    expected = "".join("%.11e,%.11e,%.11e,%.11e,%.11e\n" % tuple(row)
                       for row in values.tolist()).encode()
    assert cli.format_rows(values) == expected


def test_format_rows_carries_values_just_below_powers_of_ten():
    # the 100 doubles below each power of ten (y just under 1e12, most
    # rounding up to it) and 12-digit mantissas 9.99..9 followed by random
    # digits at random exponents: rint(y) = 1e12 is written as mantissa
    # 1e11 at exponent e + 1, as "%.11e" carries it
    rng = np.random.default_rng(20261019)
    below = [np.array([float(f"1e{k}") for k in range(-289, 291)])]
    for _ in range(100):
        below.append(np.nextafter(below[-1], 0.0))
    nines = np.array([float(f"9.99999999999{d:05d}e{k}") for d, k in zip(
        rng.integers(0, 10 ** 5, size=100_000),
        rng.integers(-290, 290, size=100_000))])
    values = np.concatenate(below[1:] + [nines, -nines[:1000]])
    values = values[:len(values) // 4 * 4].reshape(-1, 4)
    expected = "".join("%.11e,%.11e,%.11e,%.11e\n" % tuple(row)
                       for row in values.tolist()).encode()
    assert cli.format_rows(values) == expected


def test_format_rows_equals_the_percent_format_past_two_digit_exponents():
    # the edges of the two-digit fast path, the carries into e = +-100 and
    # every range beyond it; both signs of each
    edges = np.array([1e-99, 9.999999999995e-99, 1e99, 9.999999999995e99,
                      1e-100, 1e100, 9.99999999999951e-101,
                      9.9999999999995e99, np.nextafter(1e100, 0.0),
                      np.nextafter(1e-99, 0.0), 1e-308, 1e308,
                      1.7976931348623157e308, 2.2250738585072014e-308,
                      2.2e-310, 5e-324, 0.0, math.nan, math.inf])
    values = np.concatenate([edges, -edges]).reshape(-1, 2)
    expected = "".join("%.11e,%.11e\n" % tuple(row)
                       for row in values.tolist()).encode()
    assert cli.format_rows(values) == expected


class TestParserReuse:
    """main() parses every call with one parser; no call leaks into the
    next."""

    def test_one_parser_serves_every_call(self):
        assert cli._parser() is cli._parser()

    def test_a_flag_does_not_outlive_its_call(self, tmp_path, capsys):
        out = str(tmp_path / "run.csv")
        assert run_cli("ghz", "--p", "2", "--output", out) == 0
        assert " p=2 " in capsys.readouterr().out
        assert run_cli("ghz", "--output", out) == 0
        assert " p=1 " in capsys.readouterr().out

    def test_a_sweep_leaves_no_axis_behind(self, tmp_path, capsys):
        before, after = tmp_path / "before.csv", tmp_path / "after.csv"
        assert run_cli("ghz", "--output", str(before)) == 0
        first = capsys.readouterr().out.replace(str(before), "OUT")
        assert run_cli("sweep", "p", "1,2", "--model", "block", "--shape",
                       "2x2", "--output", str(tmp_path / "sweep.csv")) == 0
        capsys.readouterr()
        args = cli._parser().parse_args(["ghz"])
        assert not hasattr(args, "axis") and not hasattr(args, "values")
        assert run_cli("ghz", "--output", str(after)) == 0
        assert capsys.readouterr().out.replace(str(after), "OUT") == first
        assert after.read_bytes() == before.read_bytes()

    def test_a_usage_error_does_not_spoil_the_next_call(self, tmp_path,
                                                        capsys):
        fresh = tmp_path / "fresh.csv"
        assert run_cli("ghz", "--model", "ld", "--shape", "6x6",
                       "--output", str(fresh)) == 0
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            run_cli("ghz", "--p", "two", "--model", "rwa")
        assert exc.value.code == 2
        capsys.readouterr()
        again = tmp_path / "again.csv"
        assert run_cli("ghz", "--model", "ld", "--shape", "6x6",
                       "--output", str(again)) == 0
        assert capsys.readouterr().out == expected.replace(str(fresh),
                                                           str(again))
        assert again.read_bytes() == fresh.read_bytes()


def test_ghz_processes_load_neither_checks_nor_hashlib(tmp_path):
    # checks is imported by validate alone; nothing imports hashlib (its
    # OpenSSL load costs a few MB of RSS); the writer's lookup tables are
    # built by the first table written, so importing the CLI and --help
    # build none; and the CLI's import and --help load no third-party
    # package beyond numpy, so a --help process starts as fast as numpy
    # allows
    src = Path(cli.__file__).resolve().parents[1]
    top_level = ("print(*sorted({name.partition('.')[0] "
                 "for name in sys.modules}))\n")
    code = (
        "import contextlib, io, sys\n"
        "import ghz_sim.cli as cli\n"
        "unwanted = ('ghz_sim.checks', 'hashlib', '_hashlib')\n"
        "def state():\n"
        "    tables = cli._format_tables.cache_info().currsize\n"
        "    print(sorted(set(unwanted) & set(sys.modules)), tables)\n"
        "state()\n"
        + top_level +
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "state()\n"
        + top_level +
        "assert cli.main(['ghz', '--model', 'ld', '--shape', '6x6',\n"
        "                 '--output', sys.argv[1]]) == 0\n"
        "state()\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(program, *argv):
        proc = subprocess.run([sys.executable, "-c", program, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    # what the interpreter loads on its own (site hooks included)
    bare = set(run("import sys\n" + top_level)[0].split())
    # after the import, after --help, and after the run (its summary line
    # between)
    (after_import, import_top, after_help, help_top, summary,
     after_run) = run(code, str(tmp_path / "ld.csv"))
    assert summary.startswith("ghz model=ld ")
    assert after_import == after_help == "[] 0"
    assert after_run == "[] 1"
    for loaded in (import_top, help_top):
        added = set(loaded.split()) - bare
        assert "ghz_sim" in added and "numpy" in added
        assert added - sys.stdlib_module_names <= {"numpy", "ghz_sim"}
