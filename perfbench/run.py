"""ghz-sim benchmark: run one workload through the real CLI entry point.

    python3 perfbench/run.py --workload pulse-small --seed 1 \
        --seconds 30 --trace 0

Run from the root of a ghz-sim checkout; the package is imported from
``src/``, and a workload that runs each op as its own CLI process runs
``python3 -m ghz_sim`` with ``src/`` on ``PYTHONPATH``. ``--workload all``
runs every workload in turn, each in its own interpreter. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run (see README.md).
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with provenance goes to ``perfbench/results/``.

Exit codes: 0 with a result, 1 when set-up fails, 2 when the checkout or the
arguments are unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import measure
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# The declared end-to-end metrics. op_ms_tail is printed but not declared:
# on a shared 2-vCPU host its run-to-run spread exceeds any allowed bound.
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
         "peak_rss_mb": "MB"}
PROBE_TIMEOUT_S = 150
OP_TIMEOUT_S = 150
# glibc malloc setting of every ghz-sim process the benchmark starts: a trim
# threshold far above the program's heap, so the heap is never trimmed
# mid-run (see README.md, "Why lab-pulse runs each op as its own process")
MALLOC_TUNABLES = "glibc.malloc.trim_threshold=67108864"


def cli_command(argv: list[str]) -> list[str]:
    """The ghz-sim command line of ``argv``, run from the checkout's src/."""
    return [sys.executable, "-m", "ghz_sim", *argv]


def cli_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    tunables = os.environ.get("GLIBC_TUNABLES") or MALLOC_TUNABLES
    if not tunables.endswith(MALLOC_TUNABLES):
        tunables = f"{tunables}:{MALLOC_TUNABLES}"
    return {**os.environ,
            "PYTHONPATH": str(SRC) + (os.pathsep + path if path else ""),
            "GLIBC_TUNABLES": tunables}


class Runner:
    """Runs ops of one workload in a scratch directory: through ``cli.main``
    in this interpreter or, with ``process``, each as a ghz-sim process."""

    def __init__(self, cli, workload: workloads.Workload, refs: dict,
                 workdir: Path, process: bool = False):
        self.cli = cli
        self.workload = workload
        self.refs = refs
        self.process = process
        self.config = workdir / "config.json"
        self.output = workdir / "out.csv"
        self.log = io.StringIO()
        self.minflt = 0   # minor page faults of the last call

    def call(self, argv: list[str]) -> int:
        self.log.seek(0)
        self.log.truncate()
        who = resource.RUSAGE_CHILDREN if self.process else \
            resource.RUSAGE_SELF
        before = resource.getrusage(who).ru_minflt
        try:
            if self.process:
                proc = subprocess.run(cli_command(argv), env=cli_env(),
                                      cwd=ROOT, capture_output=True,
                                      text=True, timeout=OP_TIMEOUT_S)
                self.log.write(proc.stdout + proc.stderr)
                return proc.returncode
            with redirect_stdout(self.log), redirect_stderr(self.log):
                return self.cli.main(argv)
        finally:
            self.minflt = resource.getrusage(who).ru_minflt - before

    def prepare(self, op: workloads.Op) -> list[str]:
        """Write the op's config, clear its output; return the argv."""
        self.config.write_text(json.dumps({**op.config,
                                           "output": str(self.output)}))
        self.output.unlink(missing_ok=True)
        return [*op.argv, "--config", str(self.config)]

    def run(self, op: workloads.Op, tracer: tracing.Tracer | None = None
            ) -> measure.OpRecord:
        """One timed, checked op; traced when a tracer is given."""
        argv = self.prepare(op)
        call = (lambda: self.call(argv)) if tracer is None else \
            (lambda: self._traced_call(tracer, argv))
        record = measure.measure_op(call, lambda: self.check(op),
                                    traced=tracer is not None)
        record = replace(record, minflt=self.minflt)
        said = self.log.getvalue().strip()
        if record.error and said:
            record = replace(record,
                             error=f"{record.error} ({said[-500:]})")
        return record

    def _traced_call(self, tracer: tracing.Tracer, argv: list[str]) -> int:
        with tracer.span("cli.main"):
            return self.call(argv)

    def check(self, op: workloads.Op) -> str | None:
        if not self.output.is_file():
            return f"{op.key}: no output written"
        return self.workload.check(op, self.output, self.refs)


def timed_setup(workload: workloads.Workload, seed: int, refs: dict,
                workdir: Path) -> tuple[float, Runner, measure.OpRecord]:
    """Import ``ghz_sim.cli`` and run one warm-up op; time both together."""
    op = workload.warmup_op(seed)
    start = time.perf_counter()
    cli = importlib.import_module("ghz_sim.cli")
    runner = Runner(cli, workload, refs, workdir)
    record = runner.run(op)
    return time.perf_counter() - start, runner, record


def probe(args) -> int:
    """One set-up in this fresh interpreter; prints its seconds as JSON."""
    workload = workloads.WORKLOADS[args.workload]
    refs = workloads.load_references()
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=RESULTS))
    try:
        seconds, _, record = timed_setup(workload, args.seed, refs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": seconds, "error": record.error}))
    return 0


def cli_setups(n: int) -> list[float]:
    """Seconds of ``n`` ghz-sim processes that start and answer --help: the
    start-up every op of a process workload pays before its work."""
    samples = []
    for _ in range(n):
        start = time.perf_counter()
        proc = subprocess.run(cli_command(["--help"]), env=cli_env(),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"ghz-sim --help exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        samples.append(seconds)
    return samples


def probe_setups(args, n: int) -> list[float]:
    """Set-up seconds of ``n`` fresh interpreters, one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if result["error"]:
            raise RuntimeError(f"set-up warm-up op failed: {result['error']}")
        samples.append(result["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghz_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {key: blas.get(key)
            for key in ("name", "version", "openblas configuration")}


def machine() -> dict:
    """The code and the machine a result was measured on."""
    import numpy as np
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
    }


THREAD_VARS = ("GHZ_SIM_THREADS", "OPENBLAS_NUM_THREADS")


def set_workload_env(workload: workloads.Workload) -> dict:
    """Set the thread environment the workload defines, before numpy loads;
    return the values seen before. GHZ_SIM_THREADS is removed, so a sweep
    uses the default pool."""
    seen = {name: os.environ.get(name) for name in THREAD_VARS}
    os.environ.pop("GHZ_SIM_THREADS", None)
    if workload.blas_threads is not None:
        os.environ["OPENBLAS_NUM_THREADS"] = str(workload.blas_threads)
    return seen


def provenance(args, workload: workloads.Workload, env_seen: dict) -> dict:
    return {
        **machine(),
        "workload": workload.describe(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env_seen": env_seen,
        "env_run": {name: os.environ.get(name) for name in THREAD_VARS},
        "cli_glibc_tunables": (cli_env()["GLIBC_TUNABLES"]
                               if workload.cli_process else None),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def later_setups(args, workload, n: int) -> list[float]:
    if workload.cli_process:
        return cli_setups(n)
    return probe_setups(args, n)


def untraced_run(args, workload, refs, workdir) -> tuple[dict, list, dict]:
    """Half the set-ups are timed before the timed loop and half after it,
    so that one slow phase of a shared host does not set their median."""
    early = workload.setup_runs // 2
    if workload.cli_process:
        samples = cli_setups(early)
        runner = Runner(None, workload, refs, workdir, process=True)
        rss_of = resource.RUSAGE_CHILDREN
    else:
        samples = probe_setups(args, early - 1)
        seconds, runner, warmup = timed_setup(workload, args.seed, refs,
                                              workdir)
        if warmup.error:
            raise RuntimeError(f"warm-up op failed: {warmup.error}")
        samples.append(seconds)
        rss_of = resource.RUSAGE_SELF
    records = measure.closed_loop(workload.rounds(args.seed),
                                  lambda op: [runner.run(op)], args.seconds)
    samples += later_setups(args, workload, workload.setup_runs - early)
    summary = measure.summarize(records)
    metrics = {
        "setup_s": statistics.median(samples),
        "ops_per_s": summary["ops_per_s"],
        "op_ms_p50": summary["op_ms_p50"],
        "peak_rss_mb": resource.getrusage(rss_of).ru_maxrss / 1024.0,
    }
    details = {**summary, "setup_samples_s": samples,
               "op_ms": [1e3 * rec.seconds for rec in records],
               "op_minflt": [rec.minflt for rec in records]}
    return metrics, records, details


def traced_run(args, workload, refs, workdir) -> tuple[dict, list, dict, list]:
    """Counting pass over the first round, then rounds of (untraced, traced)
    pairs of each op until the summed op time reaches ``--seconds``."""
    _, runner, warmup = timed_setup(workload, args.seed, refs, workdir)
    if warmup.error:
        raise RuntimeError(f"warm-up op failed: {warmup.error}")
    modules = {name: importlib.import_module(f"ghz_sim.{name}")
               for name in ("cli", "ghz_protocol", "fock_core")}
    tracer = tracing.Tracer()

    count_ops = next(workload.rounds(args.seed))
    with tracing.counters_installed(tracer, modules["fock_core"]):
        records = [runner.run(op) for op in count_ops]
    counts = tracer.counts()

    op_spans: list[tuple[int, int]] = []   # span index range of each traced op

    def pair(op):
        untraced = runner.run(op)
        first = len(tracer.spans)
        with tracing.spans_installed(tracer, modules):
            traced = runner.run(op, tracer=tracer)
        op_spans.append((first, len(tracer.spans)))
        return [untraced, traced]

    records += measure.closed_loop(workload.rounds(args.seed), pair,
                                   args.seconds)
    traced = [rec for rec in records if rec.traced]
    untraced = [rec for rec in records[len(count_ops):] if not rec.traced]
    traced_busy = sum(rec.seconds for rec in traced)
    untraced_busy = sum(rec.seconds for rec in untraced)
    totals = tracing.op_totals(tracer.spans, tracer.marks)
    metrics = tracing.layer_metrics(totals, len(traced), traced_busy, counts,
                                    len(count_ops))
    traced_rate = sum(rec.ok for rec in traced) / traced_busy
    untraced_rate = sum(rec.ok for rec in untraced) / untraced_busy
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.traced_ops_per_s"] = traced_rate
    metrics["trace.overhead_pct"] = 100.0 * (1.0 - traced_rate / untraced_rate)
    metrics["trace.untraced_minflt_per_op"] = statistics.fmean(
        rec.minflt for rec in untraced)
    details = {"traced_ops": len(traced), "untraced_ops": len(untraced),
               "counted_ops": len(count_ops), "counts": dict(counts),
               "op_spans": op_spans}
    return metrics, records, details, tracer.spans


def write_spans(path: Path, spans: list, op_spans: list):
    """One JSON row per span: op, id, parent, thread, name, start, end and
    tallied hot calls; times in seconds of perf_counter."""
    op_of = {}
    for op_index, (first, last) in enumerate(op_spans):
        for sp in spans[first:last]:
            op_of[sp.id] = op_index
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps([op_of.get(sp.id), sp.id, sp.parent,
                                 sp.thread, sp.name, sp.start, sp.end,
                                 sp.tally]) + "\n")


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter: a workload's BLAS
    threads are fixed when numpy loads. Returns the worst exit code."""
    worst = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, proc.returncode)
    return worst


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "ghz_sim" / "cli.py", workloads.REFERENCES)
               if not p.is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root "
              "of a ghz-sim checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace and workload.cli_process and not os.environ.get(
            "GLIBC_TUNABLES", "").endswith(MALLOC_TUNABLES):
        # the traced ops run in this interpreter: give it the malloc setting
        # of the timed ghz-sim processes, which glibc reads only at start-up
        os.execve(sys.executable, [sys.executable, *sys.argv], cli_env())
    sys.path.insert(0, str(SRC))
    env_seen = set_workload_env(workload)
    RESULTS.mkdir(exist_ok=True)
    if args.probe:
        return probe(args)

    refs = workloads.load_references()
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RESULTS))
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, records, details, spans = traced_run(args, workload,
                                                          refs, workdir)
            write_spans(RESULTS / f"{stem}-spans.jsonl", spans,
                        details["op_spans"])
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            metrics, records, details = untraced_run(args, workload, refs,
                                                     workdir)
            units = UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for rec in records if not rec.ok)
    errors = [rec.error for rec in records if rec.error]
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    result_file = RESULTS / f"{stem}.json"
    result_file.write_text(json.dumps(
        {"provenance": provenance(args, workload, env_seen),
         "result": result, "details": details, "errors": errors[:20]},
        indent=1) + "\n")

    print(f"perfbench {workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
    if not args.trace:
        print(f"  op_ms_tail {details['op_ms_tail']:.6g} ms: "
              f"p{details['tail_percentile']:.2f}, {details['tail_beyond']} "
              f"of {details['samples']} samples ranked beyond it "
              "(not declared)")
        setup = ("ghz-sim --help processes" if workload.cli_process
                 else "set-ups (import ghz_sim.cli + one warm-up op)")
        print(f"  setup_s is the median of {len(details['setup_samples_s'])} "
              f"{setup}")
        print("  minor page faults per op: median "
              f"{statistics.median(details['op_minflt']):g}")
    print(f"  error_rate {failed / len(records):.6g} "
          f"({failed} failed of {len(records)} attempted)")
    for error in errors[:5]:
        print(f"  failure: {error}")
    print(f"  result file: {result_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
