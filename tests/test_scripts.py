"""Smoke tests of the study scripts in scripts/: each runs with small
arguments and prints its header and one line per result."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(capsys, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(list(argv))
    return capsys.readouterr().out.splitlines()


def test_run_ghz_protocol(capsys):
    lines = run_script(capsys, "run_ghz_protocol", "--shape", "6x6")
    assert lines[0].startswith("pulse p=1: t_p = 0.339870 us")
    assert lines[1].split() == ["initial", "model", "fidelity", "leakage"]
    rows = [line.split() for line in lines[2:]]
    # four block initial states under the block and the full LD model
    assert len(rows) == 8
    assert [row[1] for row in rows] == ["block_analytic", "ld_full"] * 4
    assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-9)
    assert 0.0 < float(rows[1][2]) < 1.0


def test_leakage_study(capsys):
    lines = run_script(capsys, "leakage_study", "--eta-c", "0.05",
                       "--dims", "6")
    assert lines[0] == ("eta_c,dim,fidelity,block_leakage,"
                        "max_top_level_population")
    assert len(lines) == 2
    eta_c, dim, fid, leak, top = lines[1].split(",")
    assert (eta_c, dim) == ("0.05", "6")
    assert 0.0 < float(fid) < 1.0
    assert float(leak) > 0.0 and float(top) > 0.0


def test_rwa_error_study(capsys):
    # the lab run goes through ghz_protocol.evolve_lab; these lines pin its
    # wiring (laser-frame source, period, default dt, phase) to the digit
    lines = run_script(capsys, "rwa_error_study", "--ratios", "5,320")
    assert lines == ["nu/Omega,rwa_infidelity", "5,5.474652e-05",
                     "320,5.035971e-08"]
