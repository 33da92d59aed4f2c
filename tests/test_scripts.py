"""Smoke tests of the study scripts in scripts/: each runs with small
arguments and prints its header and one line per result."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(capsys, name, *argv):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(list(argv))
    return capsys.readouterr().out.splitlines()


def test_leakage_study(capsys):
    # the script reads its runs from protocol_timeseries, and a shape above
    # the truncation guard (3) from the scores its TruncationError carries;
    # these lines pin both to the digit
    lines = run_script(capsys, "leakage_study", "--eta-c", "0.05",
                       "--dims", "3,6")
    assert lines == ["eta_c,dim,fidelity,block_leakage,"
                     "max_top_level_population",
                     "0.05,3,0.789855860,3.657440e-02,3.657e-02",
                     "0.05,6,0.788185935,3.743662e-02,1.653e-06"]


def test_rwa_error_study(capsys):
    # the lab run goes through ghz_protocol.evolve_lab; these lines pin its
    # wiring (laser-frame source, period, default dt, phase) to the digit
    lines = run_script(capsys, "rwa_error_study", "--ratios", "5,320")
    assert lines == ["nu/Omega,rwa_infidelity", "5,5.474652e-05",
                     "320,5.035971e-08"]
