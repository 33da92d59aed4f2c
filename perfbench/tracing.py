"""Per-layer tracing of ghz_sim from outside the package.

The traced run rebinds, for the length of one op, the attributes that the
calling module looks up: ``ghz_protocol`` imports ``evolve_static`` by name,
so the span wrapper is bound in ``ghz_protocol``, and ``cli`` calls
``ghz_schedule`` through its own binding, so it is wrapped there as well.
Every attribute is restored when the op returns.

A span has a name, a start, an end and a parent. Spans opened in a sweep's
pool threads take as parent the span the owning thread is blocked in (the
sweep). The lab H(t) callable is called about 60k times per pulse, so its
calls are tallied into the enclosing span (count and seconds) instead of
becoming spans. The per-call hot paths ``HilbertShape.index``,
``HilbertShape.labels`` and ``QuantumState`` construction get counting
wrappers only, installed in a separate pass, because a wrapper on a call that
cheap would inflate the spans around it.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Sequence


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = math.nan
    # hot calls folded into this span: name -> [calls, seconds]
    tally: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans, marks and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.marks: list[tuple[str, float]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[Span] = []
        self._local = threading.local()
        self._counters: list[Counter] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        # a pool thread starts empty: its spans belong to the span the
        # owning thread is blocked in
        return self._owner_stack[-1] if self._owner_stack else None

    @contextmanager
    def span(self, name: str):
        parent = self.current()
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  threading.get_ident(), time.perf_counter())
        stack = self._stack()
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def tally(self, name: str, seconds: float):
        entry = self.current().tally.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def mark(self, name: str, value: float):
        with self._lock:
            self.marks.append((name, float(value)))

    def count(self, name: str):
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            with self._lock:
                self._counters.append(counts)
        counts[name] += 1

    def counts(self) -> Counter:
        with self._lock:
            return sum(self._counters, Counter())


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """Span duration minus the part of it that child spans cover, minus the
    calls tallied into it."""
    covered = union_length((max(c.start, span.start), min(c.end, span.end))
                           for c in children if c.end > span.start
                           and c.start < span.end)
    tallied = sum(seconds for _, seconds in span.tally.values())
    return span.duration - covered - tallied


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def rk4_steps(store_times, t_end: float, dt: float) -> int:
    """Steps of a fixed-step run: each stored interval is split into
    ceil(interval / dt) equal steps (the ``evolve_timedep`` contract)."""
    if store_times is None:
        store_times = [0.0, t_end] if t_end > 0 else [0.0]
    steps, t_now = 0, 0.0
    for t in store_times:
        if t > t_now:
            steps += max(1, math.ceil((t - t_now) / dt - 1e-12))
        t_now = t
    return steps


def _after_static(tracer, args, result):
    tracer.mark("evolution.static_dim", len(args["initial"].amplitudes))
    tracer.mark("evolution.norm_drift", result.norm_drift)
    return result


def _after_timedep(tracer, args, result):
    tracer.mark("evolution.rk4_steps",
                rk4_steps(args.get("store_times"), args["t_end"], args["dt"]))
    tracer.mark("evolution.norm_drift", result.norm_drift)
    return result


def _after_lab_source(tracer, args, h_of_t):
    def tallied(t):
        start = time.perf_counter()
        h = h_of_t(t)
        tracer.tally("hamiltonian.h_eval", time.perf_counter() - start)
        return h
    return tallied


def _after_write(tracer, args, result):
    tracer.mark("cli.bytes_out", os.path.getsize(args["path"]))
    return result


# (module, attribute the caller looks up, span name, hook run on the result)
SPAN_BINDINGS = (
    ("cli", "load_config", "cli.config", None),
    ("cli", "build_params", "cli.config", None),
    ("cli", "parse_shape", "cli.config", None),
    ("cli", "series_table", "cli.table", None),
    ("cli", "write_table", "cli.write", _after_write),
    ("cli", "ghz_schedule", "ghz_protocol.schedule", None),
    ("ghz_protocol", "ghz_schedule", "ghz_protocol.schedule", None),
    ("cli", "protocol_timeseries", "ghz_protocol.timeseries", None),
    ("ghz_protocol", "protocol_timeseries", "ghz_protocol.timeseries", None),
    ("cli", "sweep", "ghz_protocol.sweep", None),
    ("ghz_protocol", "run_protocol", "ghz_protocol.point", None),
    ("ghz_protocol", "evolve_static", "evolution.static", _after_static),
    ("ghz_protocol", "evolve_timedep", "evolution.timedep", _after_timedep),
    ("ghz_protocol", "to_interaction_picture", "evolution.frame", None),
    ("ghz_protocol", "block_propagator", "evolution.block", None),
    ("ghz_protocol", "truncation_leak", "evolution.truncation", None),
    ("ghz_protocol", "build_ld_hamiltonian", "hamiltonian.build", None),
    ("ghz_protocol", "build_rwa_hamiltonian", "hamiltonian.build", None),
    ("ghz_protocol", "lab_hamiltonian_source", "hamiltonian.build",
     _after_lab_source),
)


def _span_wrapper(tracer: Tracer, name: str, fn, after):
    signature = inspect.signature(fn) if after else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is None:
            return result
        return after(tracer, signature.bind(*args, **kwargs).arguments, result)
    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


@contextmanager
def rebound(replacements: Iterable[tuple[object, str, object]]):
    """Set each (owner, attribute, value); restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def spans_installed(tracer: Tracer, modules: dict):
    """Context manager that wraps every SPAN_BINDINGS attribute. A binding
    the program no longer has is skipped, so a layer that a later version
    removes reads as zero instead of failing the run."""
    return rebound(
        (modules[mod], attr,
         _span_wrapper(tracer, name, getattr(modules[mod], attr), after))
        for mod, attr, name, after in SPAN_BINDINGS
        if hasattr(modules[mod], attr))


def counters_installed(tracer: Tracer, fock_core):
    """Context manager that counts index/labels calls and state objects."""
    shape, state = fock_core.HilbertShape, fock_core.QuantumState
    return rebound([
        (shape, "index",
         _count_wrapper(tracer, "fock_core.index_calls", shape.index)),
        (shape, "labels",
         _count_wrapper(tracer, "fock_core.labels_calls", shape.labels)),
        (state, "__post_init__",
         _count_wrapper(tracer, "fock_core.state_objs", state.__post_init__)),
    ])


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

COUNTED = ("fock_core.index_calls", "fock_core.labels_calls",
           "fock_core.state_objs")
SELF_TIMED = ("ghz_protocol.timeseries", "evolution.timedep")
PEAK_MARKS = ("evolution.static_dim", "evolution.norm_drift")

# share of op wall time: metric suffix -> totals key holding its seconds
SHARES = {
    "ghz_protocol.score_self": "ghz_protocol.timeseries.self_s",
    "evolution.truncation": "evolution.truncation.s",
    "evolution.static": "evolution.static.s",
    "hamiltonian.build": "hamiltonian.build.s",
    "hamiltonian.h_eval": "hamiltonian.h_eval.s",
    "evolution.timedep_self": "evolution.timedep.self_s",
    "evolution.frame": "evolution.frame.s",
    "evolution.block": "evolution.block.s",
    "ghz_protocol.schedule": "ghz_protocol.schedule.s",
    "cli.config": "cli.config.s",
    "cli.table": "cli.table.s",
    "cli.write": "cli.write.s",
}

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("ghz_protocol.score_self_ms", "ms", "lower"),
    ("fock_core.index_calls", "count", "lower"),
    ("fock_core.labels_calls", "count", "lower"),
    ("fock_core.state_objs", "count", "lower"),
    ("evolution.truncation_ms", "ms", "lower"),
    ("evolution.truncation_calls", "count", "lower"),
    ("evolution.static_ms", "ms", "lower"),
    ("evolution.static_calls", "count", "lower"),
    ("evolution.static_dim", "count", "lower"),
    ("ghz_protocol.sweep_ms", "ms", "lower"),
    ("ghz_protocol.point_ms", "ms", "lower"),
    ("ghz_protocol.sweep_overlap", "ratio", "higher"),
    ("hamiltonian.build_ms", "ms", "lower"),
    ("hamiltonian.builds", "count", "lower"),
    ("hamiltonian.h_evals", "count", "lower"),
    ("hamiltonian.h_eval_us", "us", "lower"),
    ("evolution.timedep_self_ms", "ms", "lower"),
    ("evolution.rk4_steps", "count", "lower"),
    ("evolution.rk4_step_us", "us", "lower"),
    ("evolution.frame_ms", "ms", "lower"),
    ("evolution.block_ms", "ms", "lower"),
    ("evolution.block_calls", "count", "lower"),
    ("evolution.norm_drift_max", "ratio", "lower"),
    ("ghz_protocol.schedule_ms", "ms", "lower"),
    ("cli.config_ms", "ms", "lower"),
    ("cli.table_ms", "ms", "lower"),
    ("cli.write_ms", "ms", "lower"),
    ("cli.bytes_out", "bytes", "lower"),
    *((f"share.{name}", "%", "lower") for name in SHARES),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.untraced_minflt_per_op", "count", "lower"),
)


def op_totals(spans: Sequence[Span], marks: Sequence[tuple[str, float]]
              ) -> Counter:
    """Summed seconds (``<name>.s``, ``<name>.self_s``), call counts
    (``<name>.n``) and marks of the spans of one or more ops."""
    children = defaultdict(list)
    for sp in spans:
        children[sp.parent].append(sp)
    totals = Counter()
    for sp in spans:
        totals[sp.name + ".s"] += sp.duration
        totals[sp.name + ".n"] += 1
        if sp.name in SELF_TIMED:
            totals[sp.name + ".self_s"] += self_time(sp, children[sp.id])
        for name, (calls, seconds) in sp.tally.items():
            totals[name + ".s"] += seconds
            totals[name + ".n"] += calls
    for name, value in marks:
        if name in PEAK_MARKS:
            totals[name] = max(totals[name], value)
        else:
            totals[name] += value
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Counter, n_ops: int, wall_s: float,
                  counts: Counter, n_counted: int) -> dict[str, float]:
    """Per-op means of the traced ops' totals, plus shares of their summed
    wall time, plus per-op counts from the counting pass.

    Every LAYER_METRICS name except the trace.* ones, which the runner
    takes from the untraced and traced ops of the pairs."""
    def per_op_ms(key):
        return 1e3 * totals[key] / n_ops

    def per_op(key):
        return totals[key] / n_ops

    metrics = {
        "ghz_protocol.score_self_ms":
            per_op_ms("ghz_protocol.timeseries.self_s"),
        **{name: _ratio(counts.get(name, 0), n_counted) for name in COUNTED},
        "evolution.truncation_ms": per_op_ms("evolution.truncation.s"),
        "evolution.truncation_calls": per_op("evolution.truncation.n"),
        "evolution.static_ms": per_op_ms("evolution.static.s"),
        "evolution.static_calls": per_op("evolution.static.n"),
        "evolution.static_dim": totals["evolution.static_dim"],
        "ghz_protocol.sweep_ms": per_op_ms("ghz_protocol.sweep.s"),
        "ghz_protocol.point_ms": 1e3 * _ratio(totals["ghz_protocol.point.s"],
                                              totals["ghz_protocol.point.n"]),
        "ghz_protocol.sweep_overlap": _ratio(totals["ghz_protocol.point.s"],
                                             totals["ghz_protocol.sweep.s"]),
        "hamiltonian.build_ms": per_op_ms("hamiltonian.build.s"),
        "hamiltonian.builds": per_op("hamiltonian.build.n"),
        "hamiltonian.h_evals": per_op("hamiltonian.h_eval.n"),
        "hamiltonian.h_eval_us": 1e6 * _ratio(totals["hamiltonian.h_eval.s"],
                                              totals["hamiltonian.h_eval.n"]),
        "evolution.timedep_self_ms": per_op_ms("evolution.timedep.self_s"),
        "evolution.rk4_steps": per_op("evolution.rk4_steps"),
        "evolution.rk4_step_us": 1e6 * _ratio(totals["evolution.timedep.s"],
                                              totals["evolution.rk4_steps"]),
        "evolution.frame_ms": per_op_ms("evolution.frame.s"),
        "evolution.block_ms": per_op_ms("evolution.block.s"),
        "evolution.block_calls": per_op("evolution.block.n"),
        "evolution.norm_drift_max": totals["evolution.norm_drift"],
        "ghz_protocol.schedule_ms": per_op_ms("ghz_protocol.schedule.s"),
        "cli.config_ms": per_op_ms("cli.config.s"),
        "cli.table_ms": per_op_ms("cli.table.s"),
        "cli.write_ms": per_op_ms("cli.write.s"),
        "cli.bytes_out": per_op("cli.bytes_out"),
    }
    for name, key in SHARES.items():
        metrics[f"share.{name}"] = 100.0 * _ratio(totals[key], wall_s)
    return metrics
