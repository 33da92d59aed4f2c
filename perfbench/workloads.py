"""The benchmark's workloads: their input menus, the ops they run and how
each op's output is checked against the pinned references.

An op is one ``ghz-sim`` command: an argv plus a config file the benchmark
writes. The workload seed only picks points of the menu; the program sees
nothing but the generated config and argv. Ops come in rounds, one op of each
kind per round, so every run mixes the kinds in the same proportion.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

REFERENCES = Path(__file__).resolve().parent / "references.json"

ETA_C_GRID = (0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10)
INITIALS = ("g,0,0", "e,0,0")
PULSE_MODELS = ("block", "ld", "rwa")
SWEEP_MODELS = ("rwa", "ld")
SWEEP_POINTS = 8

# reduced resonant hierarchy for the lab frame (angular MHz): nu = 5 Omega,
# omega_0 = omega_L = 5 nu, omega_c = omega_0 - nu
LAB_HIERARCHY = {"Omega": 8.95, "nu": 44.75, "omega_0": 223.75,
                 "omega_L": 223.75, "omega_c": 179.0}
# |F_lab - F_rk4_pinned| allowed for any lab-frame engine
LAB_FIDELITY_TOL = 1e-6
# sanity bound on |F_lab - F_rwa|: measured 3.0e-3 (g,0,0) and 2.4e-3 (e,0,0)
LAB_RWA_GAP_BOUND = 6e-3
N_TIMES = 101


def fmt(x: float) -> str:
    """The CLI's 12-significant-digit number format."""
    return f"{float(x):.11e}"


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    config: dict = field(hash=False)
    params: dict = field(hash=False)


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def table_digest(columns: list[str], rows: list[list[str]]) -> str:
    """sha256 of the table with every number rendered to 12 digits, so two
    tables match exactly when every written number does."""
    lines = [",".join(columns)] + [",".join(fmt(v) for v in row)
                                   for row in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# pulse-small: one ghz pulse at 6x6 on the default hierarchy
# ---------------------------------------------------------------------------

def pulse_op(model: str, initial: str, eta_c: float) -> Op:
    return Op(key=f"{model}|{initial}|{eta_c:g}",
              argv=("ghz", "--model", model, "--shape", "6x6"),
              config={"initial": initial, "eta_c": eta_c,
                      "n_times": N_TIMES, "format": "csv"},
              params={"model": model, "initial": initial, "eta_c": eta_c})


def pulse_round(rng: random.Random) -> list[Op]:
    return [pulse_op(model, rng.choice(INITIALS), rng.choice(ETA_C_GRID))
            for model in PULSE_MODELS]


def pulse_reference(op: Op, path: Path) -> dict:
    columns, rows = read_table(path)
    fid = columns.index("fidelity")
    return {"digest": table_digest(columns, rows),
            "final_fidelity": fmt(rows[-1][fid])}


def pulse_check(op: Op, path: Path, refs: dict) -> str | None:
    ref = refs["pulse-small"][op.key]
    got = pulse_reference(op, path)
    if got["digest"] != ref["digest"]:
        return (f"{op.key}: series differs from the pinned reference "
                f"(final fidelity {got['final_fidelity']}, "
                f"pinned {ref['final_fidelity']})")
    return None


# ---------------------------------------------------------------------------
# sweep-large: an eta_c sweep of 8 points at 16x16
# ---------------------------------------------------------------------------

def sweep_op(model: str, values: list[float]) -> Op:
    text = ",".join(f"{v:g}" for v in values)
    return Op(key=f"{model}|{text}",
              argv=("sweep", "eta_c", text, "--model", model,
                    "--shape", "16x16"),
              config={"format": "csv"},
              params={"model": model, "values": list(values)})


def sweep_round(rng: random.Random) -> list[Op]:
    return [sweep_op(model, rng.sample(ETA_C_GRID, SWEEP_POINTS))
            for model in SWEEP_MODELS]


def sweep_warmup(op: Op) -> Op:
    """The set-up's warm-up: a one-point sweep with the op's model and first
    value, which runs the D = 512 path at an eighth of the op's cost."""
    return sweep_op(op.params["model"], op.params["values"][:1])


def sweep_reference(op: Op, path: Path) -> dict:
    """Every written number of every row, keyed by model and eta_c."""
    columns, rows = read_table(path)
    model = op.params["model"]
    return {f"{model}|{float(row[0]):g}": dict(zip(columns[1:],
                                                   map(fmt, row[1:])))
            for row in rows}


def sweep_check(op: Op, path: Path, refs: dict) -> str | None:
    columns, rows = read_table(path)
    values = [float(row[0]) for row in rows]
    if values != op.params["values"]:
        return f"{op.key}: rows are for eta_c {values}"
    pinned = refs["sweep-large"]
    for key, numbers in sweep_reference(op, path).items():
        ref = pinned[key]
        for column, value in numbers.items():
            if ref.get(column) != value:
                return (f"{op.key}: {key} column {column} is {value}, "
                        f"pinned {ref.get(column)}")
    return None


# ---------------------------------------------------------------------------
# lab-pulse: one lab-frame pulse at 6x6 on the reduced hierarchy
# ---------------------------------------------------------------------------

def lab_op(initial: str, model: str = "lab") -> Op:
    return Op(key=initial,
              argv=("ghz", "--model", model, "--shape", "6x6"),
              config={**LAB_HIERARCHY, "initial": initial,
                      "n_times": N_TIMES, "format": "csv"},
              params={"initial": initial})


def lab_round(rng: random.Random) -> list[Op]:
    # one op per round: g and e cost the same, and a round of one op keeps
    # the run from overshooting --seconds by a whole second pulse
    return [lab_op(rng.choice(INITIALS))]


def final_fidelity(path: Path) -> tuple[float, int]:
    columns, rows = read_table(path)
    return float(rows[-1][columns.index("fidelity")]), len(rows)


def lab_check(op: Op, path: Path, refs: dict) -> str | None:
    ref = refs["lab-pulse"][op.key]
    fidelity, n_rows = final_fidelity(path)
    if n_rows != N_TIMES:
        return f"{op.key}: {n_rows} rows, expected {N_TIMES}"
    if abs(fidelity - ref["rk4_fidelity"]) > LAB_FIDELITY_TOL:
        return (f"{op.key}: final fidelity {fidelity!r} is more than "
                f"{LAB_FIDELITY_TOL:g} from the pinned RK4 value "
                f"{ref['rk4_fidelity']!r}")
    if abs(fidelity - ref["rwa_fidelity"]) > LAB_RWA_GAP_BOUND:
        return (f"{op.key}: final fidelity {fidelity!r} is more than "
                f"{LAB_RWA_GAP_BOUND:g} from the rwa value "
                f"{ref['rwa_fidelity']!r}")
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_runs: int   # set-ups timed per run; setup_s is their median
    # OpenBLAS threads of the run; None keeps the default. At D = 72 a second
    # BLAS thread buys nothing on a 2-vCPU VM: it stalls 1-2% of pulse-small
    # ops by 2-5x and, spinning, slows the lab op by up to 2x, so those two
    # workloads run one BLAS thread. sweep-large keeps the default: the
    # contention of BLAS threads with the sweep pool is what it measures.
    blas_threads: int | None
    make_round: Callable[[random.Random], list[Op]]
    check: Callable[[Op, Path, dict], str | None]
    menu: dict
    # Run each op as its own ``python3 -m ghz_sim`` process, timed from
    # spawn to exit, the way a CLI user runs it, with glibc's heap trim
    # threshold fixed at start-up. The lab RK4 loop frees and reallocates its
    # 83 kB temporaries every step; with glibc's defaults, whether the heap
    # is trimmed and regrown on each step (about 440k minor faults and 1.5x
    # the time a pulse) depends on the heap built up before, down to the
    # length of the paths in the environment, so runs and checkouts of the
    # same code came out 1.5-1.8x apart.
    cli_process: bool = False
    # the set-up's warm-up op made from the first op; None runs that op
    warmup: Callable[[Op], Op] | None = None

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield self.make_round(rng)

    def warmup_op(self, seed: int) -> Op:
        op = next(self.rounds(seed))[0]
        return self.warmup(op) if self.warmup else op

    def describe(self) -> dict:
        return {"name": self.name, "why": self.why,
                "setup_runs": self.setup_runs,
                "blas_threads": self.blas_threads,
                "cli_process": self.cli_process,
                "warmup": self.warmup.__name__ if self.warmup else "first op",
                "menu": self.menu}


WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="pulse-small",
        why="ghz at 6x6 (D = 72) cycling block/ld/rwa: pure-Python scoring "
            "and label loops dominate, eigh is small",
        setup_runs=9, blas_threads=1,
        make_round=pulse_round, check=pulse_check,
        menu={"command": "ghz --model {model} --shape 6x6",
              "round": [f"{m} with initial and eta_c drawn"
                        for m in PULSE_MODELS],
              "initial": list(INITIALS), "eta_c": list(ETA_C_GRID),
              "n_times": N_TIMES, "hierarchy": "default, g tuned"}),
    Workload(
        name="sweep-large",
        why="8-point eta_c sweep at 16x16 (D = 512) on the default thread "
            "pool: evolve_static (eigh) leads, scoring second",
        setup_runs=9, blas_threads=None,
        make_round=sweep_round, check=sweep_check, warmup=sweep_warmup,
        menu={"command": "sweep eta_c {values} --model {model} --shape 16x16",
              "round": [f"{m} with {SWEEP_POINTS} distinct eta_c drawn"
                        for m in SWEEP_MODELS],
              "eta_c": list(ETA_C_GRID), "initial": "g,0,0",
              "threads": "default (GHZ_SIM_THREADS unset)"}),
    Workload(
        name="lab-pulse",
        why="lab-frame pulse at 6x6 on a reduced resonant hierarchy, each "
            "op a ghz-sim process: about 13k RK4 steps, RK4 plus H(t) over "
            "90% of the op",
        setup_runs=9, blas_threads=1,
        make_round=lab_round, check=lab_check,
        cli_process=True,
        menu={"command": "python3 -m ghz_sim ghz --model lab --shape 6x6",
              "round": ["one of initial drawn"], "initial": list(INITIALS),
              "hierarchy": LAB_HIERARCHY,
              "n_times": N_TIMES, "dt": "default",
              "fidelity_tol": LAB_FIDELITY_TOL,
              "rwa_gap_bound": LAB_RWA_GAP_BOUND}),
)}
