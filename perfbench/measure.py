"""Closed-loop op timing and the arithmetic behind the end-to-end metrics.

One client runs one op at a time; the next op starts only when the previous
one has returned. Only the call into the program is timed: writing the
generated config before it and checking the output after it are not.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

# A tail latency is read at the highest percentile that still has this many
# samples ranked beyond it, but never below TAIL_FLOOR_PCT: under 100 samples
# no percentile from p90 up has ten beyond it, and a lower one is no tail.
TAIL_MIN_BEYOND = 10
TAIL_FLOOR_PCT = 90


@dataclass(frozen=True)
class OpRecord:
    """One attempted op: its timed seconds and why it failed, if it did."""

    seconds: float
    error: str | None = None
    traced: bool = False
    kind: int = 0     # position of the op in its round
    minflt: int = 0   # minor page faults the op took

    @property
    def ok(self) -> bool:
        return self.error is None


def measure_op(call: Callable[[], int], check: Callable[[], str | None],
               traced: bool = False) -> OpRecord:
    """Time ``call`` and check its output.

    A raise, a nonzero exit code or a failed check makes the op a failure.
    Each op yields exactly one record, so a failure counts once however it
    shows.
    """
    start = time.perf_counter()
    try:
        code = call()
    except Exception as exc:  # op boundary: record the failure, keep looping
        return OpRecord(time.perf_counter() - start,
                        f"raised {type(exc).__name__}: {exc}",
                        traced)
    seconds = time.perf_counter() - start
    if code != 0:
        return OpRecord(seconds, f"exit code {code}", traced)
    try:
        problem = check()
    except Exception as exc:  # a check that cannot read the output fails
        problem = f"check raised {type(exc).__name__}: {exc}"
    return OpRecord(seconds, problem, traced)


def closed_loop(rounds: Iterable[Sequence], run_op: Callable[[object], list],
                seconds: float) -> list[OpRecord]:
    """Run whole rounds of ops until their summed op time reaches ``seconds``.

    A round is started only while time is left and is always finished, so
    every run holds each kind of op in a round in the same proportion.
    """
    records: list[OpRecord] = []
    busy = 0.0
    for ops in rounds:
        if busy >= seconds:
            break
        for kind, op in enumerate(ops):
            new = [replace(rec, kind=kind) for rec in run_op(op)]
            records.extend(new)
            busy += sum(rec.seconds for rec in new)
    return records


def kind_median(records: Sequence[OpRecord]) -> float:
    """Median latency of each kind of op, averaged over the kinds.

    The kinds of a round can differ in cost (a block op takes 0.6 of an ld
    op): a median pooled over all ops then falls in the gap between their
    clusters and swings between runs whose per-kind medians agree.
    """
    kinds = sorted({rec.kind for rec in records})
    return statistics.fmean(
        statistics.median(rec.seconds for rec in records if rec.kind == kind)
        for kind in kinds)


def tail(samples: Sequence[float]) -> tuple[float, float, int]:
    """(value, percentile, samples ranked beyond it) of the tail latency.

    The percentile is the highest with TAIL_MIN_BEYOND samples beyond it, or
    TAIL_FLOOR_PCT if that is higher; the value is read by nearest rank.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_MIN_BEYOND, -(-TAIL_FLOOR_PCT * n // 100))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def summarize(records: Sequence[OpRecord]) -> dict:
    """Throughput, latency and failure figures of a list of op records.

    Latencies come from the ops that succeeded (from all ops if none did);
    throughput is the successful ops per second of summed op time, failures
    included in the time. The median is taken per kind of op (kind_median).
    """
    if not records:
        raise ValueError("no ops were run")
    ok = [rec for rec in records if rec.ok]
    timed = ok or list(records)
    latencies = [rec.seconds for rec in timed]
    busy = sum(rec.seconds for rec in records)
    failed = len(records) - len(ok)
    tail_s, percentile, beyond = tail(latencies)
    return {
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "busy_s": busy,
        "ops_per_s": len(ok) / busy,
        "op_ms_p50": 1e3 * kind_median(timed),
        "op_ms_tail": 1e3 * tail_s,
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "samples": len(latencies),
    }
