"""Regenerate the pinned output references in perfbench/references.json.

    python3 perfbench/make_refs.py --write

Runs every point of every workload's input menu through ``cli.main`` and
pins what it wrote: for pulse-small a digest of the whole series at 12
digits, for sweep-large every number of every row, for lab-pulse the final
RK4 fidelity and the rwa fidelity on the same hierarchy. Only run this on a
commit whose outputs are meant to become the new reference; the benchmark
fails any op whose output differs from these.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def produce(runner: run.Runner, op: wl.Op) -> Path:
    argv = runner.prepare(op)
    code = runner.call(argv)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}: {runner.log.getvalue()}")
    return runner.output


def references(runner: run.Runner) -> dict:
    pulse = {}
    for model, initial, eta_c in itertools.product(
            wl.PULSE_MODELS, wl.INITIALS, wl.ETA_C_GRID):
        op = wl.pulse_op(model, initial, eta_c)
        pulse[op.key] = wl.pulse_reference(op, produce(runner, op))
    sweep = {}
    for model in wl.SWEEP_MODELS:
        op = wl.sweep_op(model, list(wl.ETA_C_GRID))
        sweep.update(wl.sweep_reference(op, produce(runner, op)))
    lab = {}
    for initial in wl.INITIALS:
        rk4, _ = wl.final_fidelity(produce(runner, wl.lab_op(initial)))
        rwa, _ = wl.final_fidelity(produce(runner, wl.lab_op(initial, "rwa")))
        lab[initial] = {"rk4_fidelity": rk4, "rwa_fidelity": rwa,
                        "lab_rwa_gap": abs(rk4 - rwa)}
    return {"pulse-small": pulse, "sweep-large": sweep, "lab-pulse": lab}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--write", action="store_true", required=True,
                        help="overwrite the pinned references")
    parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    run.RESULTS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="refs-", dir=run.RESULTS))
    try:
        cli = importlib.import_module("ghz_sim.cli")
        # the runner's own workload check is not used here
        runner = run.Runner(cli, None, {}, workdir)
        refs = references(runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pinned_with = run.machine()
    wl.REFERENCES.write_text(json.dumps({"pinned_with": pinned_with, **refs},
                                        indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCES.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
