"""Tests of the benchmark's own arithmetic; no ghz_sim op is run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import measure
import run
import tracing
import workloads


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, index, percentile, beyond", [
    (1, 0, 100.0, 0),
    (4, 3, 100.0, 0),              # nearest rank of p90 is the maximum
    (10, 8, 90.0, 1),
    (12, 10, 100.0 * 11 / 12, 1),  # p90 floor: no flip to a low percentile
    (100, 89, 90.0, 10),           # from here on, exactly ten beyond
    (1000, 989, 99.0, 10),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, index, percentile,
                                                     beyond):
    samples = [float(i) for i in range(n)][::-1]   # order must not matter
    value, got_pct, got_beyond = measure.tail(samples)
    assert value == float(index)
    assert got_pct == pytest.approx(percentile)
    assert got_beyond == beyond
    assert sum(s > value for s in samples) == beyond


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        measure.tail([])


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def span(id_, start, end, parent=None, name="x"):
    return tracing.Span(id_, name, parent, 0, start, end)


def test_union_length_merges_overlaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(0, 2), (1, 3), (3, 4), (5, 6)]) == 5.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_subtracts_covered_child_time_once():
    parent = span(1, 0.0, 10.0)
    # two overlapping children, as two pool threads running sweep points,
    # and one that runs past the parent's end
    children = [span(2, 1.0, 3.0, 1), span(3, 2.0, 5.0, 1),
                span(4, 8.0, 12.0, 1)]
    assert tracing.self_time(parent, children) == pytest.approx(10 - 4 - 2)


def test_self_time_subtracts_tallied_calls():
    parent = span(1, 0.0, 10.0)
    parent.tally["hamiltonian.h_eval"] = [3, 1.5]
    assert tracing.self_time(parent, [span(2, 1.0, 2.0, 1)]) == \
        pytest.approx(7.5)


def test_pool_thread_spans_take_the_blocked_span_as_parent():
    tracer = tracing.Tracer()
    both_open = threading.Barrier(2, timeout=10)

    def point():
        with tracer.span("ghz_protocol.point"):
            both_open.wait()

    with tracer.span("ghz_protocol.sweep") as sweep:
        workers = [threading.Thread(target=point) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)

    points = [sp for sp in tracer.spans if sp.name == "ghz_protocol.point"]
    assert [sp.parent for sp in points] == [sweep.id, sweep.id]
    # the two points overlap, so they cover less than their summed time
    covered = tracing.union_length((sp.start, sp.end) for sp in points)
    assert covered < sum(sp.duration for sp in points)
    totals = tracing.op_totals(tracer.spans, [])
    assert totals["ghz_protocol.point.n"] == 2
    assert tracing.self_time(sweep, points) == \
        pytest.approx(sweep.duration - covered)


def test_layer_metrics_ratios_and_shares():
    spans = [span(1, 0.0, 1.0, None, "ghz_protocol.sweep"),
             span(2, 0.0, 0.8, 1, "ghz_protocol.point"),
             span(3, 0.1, 0.9, 1, "ghz_protocol.point"),
             span(4, 0.1, 0.5, 2, "evolution.static")]
    totals = tracing.op_totals(spans, [("evolution.static_dim", 512),
                                       ("evolution.static_dim", 72)])
    metrics = tracing.layer_metrics(totals, n_ops=1, wall_s=2.0,
                                    counts={}, n_counted=1)
    assert metrics["ghz_protocol.sweep_overlap"] == pytest.approx(1.6)
    assert metrics["ghz_protocol.point_ms"] == pytest.approx(800.0)
    assert metrics["evolution.static_dim"] == 512
    assert metrics["share.evolution.static"] == pytest.approx(20.0)
    names = {name for name, _, _ in tracing.LAYER_METRICS}
    assert set(metrics) == {n for n in names if not n.startswith("trace.")}


def test_rk4_steps_follows_the_store_grid():
    assert tracing.rk4_steps([0.0, 0.5, 1.0], 1.0, 0.3) == 4
    assert tracing.rk4_steps(None, 1.0, 0.25) == 4
    assert tracing.rk4_steps([0.0], 0.0, 0.1) == 0


# ---------------------------------------------------------------------------
# error accounting
# ---------------------------------------------------------------------------

class FakeCli:
    """Stands in for ghz_sim.cli: writes 'ok' unless told otherwise."""

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def main(self, argv):
        config = json.loads(Path(argv[argv.index("--config") + 1]).read_text())
        what = self.behaviour[config["op"]]
        if what == "raise":
            raise RuntimeError("boom")
        if what == "exit":
            print("ghz-sim: bad input")
            return 2
        Path(config["output"]).write_text(what)
        return 0


def fake_check(op, path, refs):
    text = path.read_text()
    return None if text == "ok" else f"{op.key}: wrote {text!r}"


def fake_op(name):
    return workloads.Op(key=name, argv=("ghz",), config={"op": name},
                        params={})


def test_each_failed_op_counts_once(tmp_path):
    behaviour = {"good": "ok", "raises": "raise", "exits": "exit",
                 "mismatch": "wrong"}
    workload = workloads.Workload("fake", "", 1, None, None, fake_check, {})
    runner = run.Runner(FakeCli(behaviour), workload, {}, tmp_path)

    def silent_main(argv):
        return 0    # exits 0 but writes nothing

    records = []
    for name in ("good", "raises", "exits", "mismatch"):
        records.append(runner.run(fake_op(name)))
    runner.cli.main = silent_main
    records.append(runner.run(fake_op("silent")))

    assert [rec.ok for rec in records] == [True, False, False, False, False]
    assert "raised RuntimeError" in records[1].error
    assert "exit code 2" in records[2].error
    assert "bad input" in records[2].error
    assert "wrote 'wrong'" in records[3].error
    assert "no output written" in records[4].error
    summary = measure.summarize(records)
    assert (summary["attempted"], summary["failed"]) == (5, 4)
    assert summary["error_rate"] == pytest.approx(0.8)
    assert summary["samples"] == 1


def test_check_that_raises_fails_the_op_once():
    rec = measure.measure_op(lambda: 0, lambda: 1 / 0)
    assert not rec.ok and "ZeroDivisionError" in rec.error


def test_process_op_that_exits_nonzero_fails_once(tmp_path):
    # a ghz-sim process that argparse refuses: no pulse is run
    workload = workloads.Workload("fake", "", 1, None, None, fake_check, {})
    runner = run.Runner(None, workload, {}, tmp_path, process=True)
    op = workloads.Op(key="bad", argv=("ghz", "--no-such-flag"), config={},
                      params={})
    rec = runner.run(op)
    assert not rec.ok
    assert "exit code 2" in rec.error and "--no-such-flag" in rec.error
    assert rec.minflt > 0


def test_closed_loop_runs_whole_rounds_until_time_is_spent():
    rounds = iter([["a", "b"], ["c", "d"], ["e", "f"]])
    seen = []

    def run_op(op):
        seen.append(op)
        return [measure.OpRecord(0.3)]

    records = measure.closed_loop(rounds, run_op, seconds=1.0)
    # 0.6 s after one round, 1.2 s after two: the third is never started
    assert seen == ["a", "b", "c", "d"]
    assert [rec.kind for rec in records] == [0, 1, 0, 1]


def test_median_is_taken_per_kind_of_op():
    # one cheap and two dear kinds per round: the pooled median of such a
    # mix sits on the edge of the dear cluster and moves with its spread
    def round_(cheap, dear_a, dear_b):
        return [measure.OpRecord(cheap, kind=0),
                measure.OpRecord(dear_a, kind=1),
                measure.OpRecord(dear_b, kind=2)]

    records = (round_(0.016, 0.025, 0.026) + round_(0.016, 0.018, 0.026)
               + round_(0.017, 0.026, 0.019))
    assert measure.kind_median(records) == pytest.approx(
        (0.016 + 0.025 + 0.026) / 3)
    assert measure.summarize(records)["op_ms_p50"] == pytest.approx(
        1e3 * (0.016 + 0.025 + 0.026) / 3)


# ---------------------------------------------------------------------------
# workloads and references
# ---------------------------------------------------------------------------

def test_rounds_are_fixed_by_the_seed():
    for workload in workloads.WORKLOADS.values():
        first = [op.key for _, ops in zip(range(3), workload.rounds(7))
                 for op in ops]
        again = [op.key for _, ops in zip(range(3), workload.rounds(7))
                 for op in ops]
        assert first == again
        if workload.warmup is None:
            assert workload.warmup_op(7).key == first[0]


def test_sweep_warmup_is_one_point_of_the_first_op():
    op = next(workloads.WORKLOADS["sweep-large"].rounds(7))[0]
    warm = workloads.WORKLOADS["sweep-large"].warmup_op(7)
    assert warm.params == {"model": op.params["model"],
                           "values": op.params["values"][:1]}


def test_every_menu_point_has_a_reference():
    refs = workloads.load_references()
    for workload in workloads.WORKLOADS.values():
        for ops in zip(range(20), workload.rounds(3)):
            for op in ops[1]:
                if workload.name == "sweep-large":
                    for value in op.params["values"]:
                        assert f"{op.params['model']}|{value:g}" in refs[
                            workload.name]
                else:
                    assert op.key in refs[workload.name]


def test_pulse_check_wants_every_number_to_twelve_digits(tmp_path):
    path = tmp_path / "out.csv"
    rows = [["0.00000000000e+00", "1.00000000000e+00"],
            ["1.00000000000e-01", "7.88273748962e-01"]]
    path.write_text("t_us,fidelity\n" + "\n".join(",".join(r) for r in rows))
    op = workloads.pulse_op("ld", "g,0,0", 0.05)
    refs = {"pulse-small": {op.key: workloads.pulse_reference(op, path)}}
    assert workloads.pulse_check(op, path, refs) is None
    rows[1][1] = "7.88273748961e-01"
    path.write_text("t_us,fidelity\n" + "\n".join(",".join(r) for r in rows))
    assert "differs" in workloads.pulse_check(op, path, refs)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in tracing.LAYER_METRICS]
