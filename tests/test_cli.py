import json
import math

import numpy as np
import pytest

from ghz_sim import checks
from ghz_sim.checks import CHECK_NAMES
from ghz_sim.cli import MODEL_ALIASES, fmt, main, read_table, write_table
from ghz_sim.evolution import block_propagator
from ghz_sim import ghz_protocol
from ghz_sim.fock_core import ION_LABELS, HilbertShape
from ghz_sim.ghz_protocol import (POPULATION_FLOOR, ghz_schedule,
                                  run_protocol)
from ghz_sim.hamiltonian import block_basis_labels

from conftest import scaled_params

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


class TestExitCodes:
    def test_truncation_failure_exits_one(self, tmp_path, capsys):
        rc = run_cli("ghz", "--model", "ld", "--shape", "4x4",
                     "--output", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "top-level population" in capsys.readouterr().err

    def test_unknown_model_exits_two(self, tmp_path, capsys):
        rc = run_cli("ghz", "--model", "warp", "--output",
                     str(tmp_path / "x.csv"))
        assert rc == 2
        assert "model" in capsys.readouterr().err

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"Omegas": 1.0}))
        rc = run_cli("ghz", "--config", str(cfg),
                     "--output", str(tmp_path / "x.csv"))
        assert rc == 2
        assert "Omegas" in capsys.readouterr().err

    def test_malformed_json_exits_two(self, tmp_path):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        assert run_cli("ghz", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("field, raw", [("Omega", "NaN"),
                                            ("eta_c", "Infinity")])
    def test_non_finite_parameter_exits_two(self, tmp_path, capsys, field,
                                            raw):
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"{field}": {raw}}}')
        out_file = tmp_path / "x.csv"
        rc = run_cli("ghz", "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("n_times", [0, 1])
    def test_too_few_samples_exits_two(self, tmp_path, capsys, n_times):
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"n_times": n_times}))
        out_file = tmp_path / "x.csv"
        rc = run_cli("ghz", "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert "n_times must be >= 2" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("key", ["t", "dt"])
    @pytest.mark.parametrize("raw", ["NaN", "Infinity", "0"])
    def test_bad_time_exits_two(self, tmp_path, capsys, key, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"{key}": {raw}}}')
        out_file = tmp_path / "x.csv"
        for model in ("block", "lab"):
            rc = run_cli("ghz", "--model", model, "--config", str(cfg),
                         "--output", str(out_file))
            assert rc == 2
            assert f"{key} must be a finite number > 0" in \
                capsys.readouterr().err
            assert not out_file.exists()

    @pytest.mark.parametrize("command", [("ghz",), ("sweep", "eta_c", "0.05")])
    @pytest.mark.parametrize("key, raw", [("p", "1.5"), ("m", "1.7"),
                                          ("n", "1.2"), ("n_times", "10.5"),
                                          ("p", "null")])
    def test_non_integer_config_key_exits_two(self, tmp_path, capsys, command,
                                              key, raw):
        cfg = tmp_path / "bad.json"
        cfg.write_text(f'{{"{key}": {raw}}}')
        out_file = tmp_path / "x.csv"
        rc = run_cli(*command, "--model", "block", "--shape", "2x2",
                     "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert f"{key} must be a whole number" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("axis, values", [("p", "1,1.5,2"),
                                              ("vib_dim", "3,3.5"),
                                              ("cav_dim", "3.2")])
    def test_non_integer_sweep_value_exits_two(self, tmp_path, capsys, axis,
                                               values):
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", axis, values, "--model", "block", "--shape",
                     "2x2", "--output", str(out_file))
        assert rc == 2
        assert f"{axis} value must be a whole number" in \
            capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("raw", ["nan", "0"])
    def test_bad_sweep_dt_exits_two(self, tmp_path, capsys, raw):
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "dt", raw, "--model", "lab", "--shape", "3x3",
                     "--output", str(out_file))
        assert rc == 2
        assert "dt must be a finite number > 0" in capsys.readouterr().err
        assert not out_file.exists()

    def test_sweep_config_t_exits_two(self, tmp_path, capsys):
        # every sweep point runs its own scheduled pulse; an explicit t
        # would be dropped without a word
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps({"t": 0.1}))
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "eta_c", "0.05", "--model", "block", "--shape",
                     "2x2", "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert "config key t" in capsys.readouterr().err
        assert not out_file.exists()

    def test_sweep_too_few_samples_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "short.json"
        cfg.write_text(json.dumps({"n_times": 1}))
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "eta_c", "0.05", "--model", "block", "--shape",
                     "2x2", "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert "n_times must be >= 2" in capsys.readouterr().err
        assert not out_file.exists()

    def test_explicit_dt_above_the_guard_exits_two(self, tmp_path, capsys):
        # the laser frame repeats after pi / omega_L, so the guard is
        # dt <= T / 100 with T = 2 pi / omega_L the laser period; a step
        # between T / 100 and T / 50 is refused
        period_us = 2 * math.pi / 35800.0
        out_file = tmp_path / "x.csv"
        for dt, rc_expected in ((period_us / 70, 2), (period_us / 101, 0)):
            cfg = tmp_path / "dt.json"
            cfg.write_text(json.dumps({"dt": dt, "t": 1e-3, "n_times": 2}))
            rc = run_cli("ghz", "--model", "lab", "--shape", "3x3",
                         "--config", str(cfg), "--output", str(out_file))
            err = capsys.readouterr().err
            assert rc == rc_expected
            assert ("violates the resolution guard" in err) == (rc == 2)
            assert out_file.exists() == (rc == 0)

    @pytest.mark.parametrize("model, shape, needs", [
        ("ld", "100000x100000", "20000000000 x 20000000000 Hamiltonian"),
        ("lab", "100000x100000", "20000000000 x 20000000000 Hamiltonian"),
        ("block", "100000x100000", "n_times = 101 trajectory")])
    def test_shape_beyond_memory_exits_two(self, tmp_path, capsys, model,
                                           shape, needs):
        # refused before anything is allocated: 6.4e21 and 3.2e13 bytes
        out_file = tmp_path / "x.csv"
        for command in (("ghz",), ("sweep", "eta_c", "0.05")):
            rc = run_cli(*command, "--model", model, "--shape", shape,
                         "--output", str(out_file))
            err = capsys.readouterr().err
            assert rc == 2
            assert f"shape {shape} needs" in err and needs in err
            assert "physical memory" in err
            assert not out_file.exists()

    def test_n_times_beyond_memory_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "long.json"
        cfg.write_text(json.dumps({"n_times": 10 ** 15}))
        out_file = tmp_path / "x.csv"
        rc = run_cli("ghz", "--model", "block", "--shape", "2x2",
                     "--config", str(cfg), "--output", str(out_file))
        assert rc == 2
        assert "n_times = 1000000000000000 trajectory" in \
            capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("values", ["0:inf:0.1", "0:-inf:0.1",
                                        "-inf:0.1:0.1", "0:nan:0.1",
                                        "nan:0.1:0.1", "0:0.1:inf"])
    def test_non_finite_sweep_range_exits_two(self, tmp_path, capsys,
                                              values):
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "--model", "block", "--shape", "2x2",
                     "--output", str(out_file), "eta_c", "--", values)
        assert rc == 2
        assert f"bad range {values!r}" in capsys.readouterr().err
        assert not out_file.exists()

    @pytest.mark.parametrize("values, count", [
        ("0:1e300:1e-300", "its inf points"),
        ("0:1e12:1", "1,000,000,000,001 points need")])
    def test_range_point_count_beyond_memory_exits_two(self, tmp_path,
                                                       capsys, values, count):
        # refused before the list of values is built
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "eta_c", values, "--model", "block",
                     "--shape", "2x2", "--output", str(out_file))
        err = capsys.readouterr().err
        assert rc == 2
        assert f"bad range {values!r}" in err and count in err
        assert not out_file.exists()

    @pytest.mark.parametrize("model", ["block", "ld", "rwa"])
    def test_dt_sweep_of_a_static_model_exits_two(self, tmp_path, capsys,
                                                  model):
        # dt steps only the lab model: the rows would be one run relabelled
        out_file = tmp_path / "x.csv"
        rc = run_cli("sweep", "dt", "0.0001,0.0002", "--model", model,
                     "--shape", "6x6", "--output", str(out_file))
        err = capsys.readouterr().err
        assert rc == 2
        assert "sweep axis dt" in err
        assert f"model {MODEL_ALIASES[model]}" in err
        assert not out_file.exists()

    def test_unknown_sweep_axis_exits_two(self, tmp_path, capsys):
        rc = run_cli("sweep", "coupling", "1,2",
                     "--output", str(tmp_path / "x.csv"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "eta_c" in err and "vib_dim" in err


class TestSweepCommand:
    def test_phi_sweep_compensated_fidelity_constant(self, tmp_path):
        out_file = tmp_path / "phi.csv"
        assert run_cli("sweep", "phi", "0:1.5:0.25", "--model", "block",
                       "--shape", "2x2", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        assert [r[columns.index("phi")] for r in rows] == \
            [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5]
        fids = [r[columns.index("fidelity")] for r in rows]
        assert max(fids) - min(fids) < 1e-6

    def test_p_sweep_time_strictly_increasing(self, tmp_path):
        out_file = tmp_path / "p.csv"
        assert run_cli("sweep", "p", "1,2,3", "--model", "block",
                       "--shape", "2x2", "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        t_ps = [r[columns.index("t_p_us")] for r in rows]
        assert all(a < b for a, b in zip(t_ps, t_ps[1:]))

    def test_eta_c_sweep_under_rwa(self, tmp_path):
        out_file = tmp_path / "eta.json"
        assert run_cli("sweep", "eta_c", "0.02,0.05,0.1", "--model", "rwa",
                       "--shape", "6x6", "--format", "json",
                       "--output", str(out_file)) == 0
        columns, rows = read_table(str(out_file))
        fids = [r[columns.index("fidelity")] for r in rows]
        assert fids[0] < fids[1] < fids[2]

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
            reports[vib] = (shape, run_protocol(
                params, ("g", 0, 0), "ld_full",
                ghz_schedule(params, shape=shape, tune=True), shape=shape))
        union = sorted({lbl for shape, rep in reports.values()
                        for lbl in shape.labels()
                        if rep.populations[shape.index(*lbl)] > 0.0},
                       key=lambda lbl: (ION_LABELS.index(lbl[0]), *lbl[1:]))
        assert ("g", 5, 5) in union
        assert columns[6:] == [f"pop_{s}_{m}_{n}" for s, m, n in union]
        for row, (shape, rep) in zip(rows, reports.values()):
            for value, (s, m, n) in zip(row[6:], union):
                expected = (rep.populations[shape.index(s, m, n)]
                            if m < shape.vib_dim else 0.0)
                assert fmt(value) == fmt(expected)

    def test_config_n_times_reaches_every_point(self, tmp_path,
                                                monkeypatch):
        seen = []

        def spy(t_p, n_times):
            seen.append(n_times)
            return sample(t_p, n_times)

        sample = ghz_protocol.pulse_times
        monkeypatch.setattr(ghz_protocol, "pulse_times", spy)
        cfg = tmp_path / "few.json"
        cfg.write_text(json.dumps({"n_times": 7}))
        assert run_cli("sweep", "eta_c", "0.04,0.05", "--model", "ld",
                       "--shape", "6x6", "--config", str(cfg),
                       "--output", str(tmp_path / "x.csv")) == 0
        assert seen == [7, 7]

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
