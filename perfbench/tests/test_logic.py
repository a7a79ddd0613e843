"""Tests for the benchmark's own logic (no workload is run).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import numpy as np
import pytest

from perfbench import spec
from perfbench.probes import BenchTracer, Probes
from perfbench.spans import (
    Span,
    SpanLog,
    Tally,
    due_time_latencies,
    exclusive_times,
    percentile,
    rollup,
    supports_percentile,
)


# ----------------------------------------------------------------------
# Metric-name grammar and BENCHMARK.json
# ----------------------------------------------------------------------
BENCH = spec.load()


def test_declared_names_and_units_follow_the_grammar():
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics + BENCH["workloads"]]
    assert all(spec.NAME_RE.match(name) for name in names)
    assert all(spec.UNIT_RE.match(m["unit"]) for m in metrics)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])


@pytest.mark.parametrize("bad", ["", "-lead", ".lead", "has space",
                                 "a" * 65, "slash/name", "ünï"])
def test_bad_names_are_rejected(bad):
    assert not spec.NAME_RE.match(bad)


@pytest.mark.parametrize("bad", ["", "a" * 17, "m s", "ms!"])
def test_bad_units_are_rejected(bad):
    assert not spec.UNIT_RE.match(bad)


def test_setup_time_has_the_largest_bound():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < bound <= 0.25 for bound in bounds.values())


# ----------------------------------------------------------------------
# Percentiles need ten samples beyond them
# ----------------------------------------------------------------------
def test_percentile_sample_count_rule():
    assert supports_percentile(1000, 99)
    assert not supports_percentile(999, 99)
    assert supports_percentile(200, 95)
    assert not supports_percentile(199, 95)
    assert supports_percentile(20, 50)
    assert not supports_percentile(19, 50)


def test_percentile_refuses_unsupported_tails():
    values = np.arange(100.0)
    assert percentile(values, 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(values, 99)


def test_each_workload_tail_is_supported_by_its_minimum_samples():
    minimum = {"train-miss": 100, "serve-rank": 200, "stream-drift": 100}
    workloads = {w["name"] for w in BENCH["workloads"]}
    assert set(minimum) == set(spec.TAIL_PERCENTILE) == workloads
    for workload, q in spec.TAIL_PERCENTILE.items():
        assert supports_percentile(minimum[workload], q), workload


# ----------------------------------------------------------------------
# Exclusive (self) time: span minus the part its children cover
# ----------------------------------------------------------------------
def _span(sid, parent, name, start, end):
    return Span(sid, parent, name, start, end)


def _children(spans):
    out = {}
    for s in spans:
        out.setdefault(s.parent_id, []).append(s)
    return out


def test_self_time_is_span_minus_covered_children():
    root = _span("r", None, "step", 0.0, 10.0)
    spans = [root,
             _span("a", "r", "forward", 1.0, 4.0),
             _span("b", "a", "ssl", 2.0, 3.0),
             _span("c", "r", "backward", 5.0, 9.0)]
    times = exclusive_times(root, _children(spans))
    assert times == pytest.approx({"step": 3.0, "forward": 2.0, "ssl": 1.0,
                                   "backward": 4.0})
    assert sum(times.values()) == pytest.approx(root.duration)


def test_overlapping_children_are_not_counted_twice():
    # Two rows of one request wait and compute at once; each instant goes
    # to the deepest span, then to the one that started last.
    root = _span("r", None, "request", 0.0, 10.0)
    spans = [root,
             _span("q1", "r", "queue", 1.0, 6.0),
             _span("q2", "r", "queue", 2.0, 7.0),
             _span("f", "q2", "forward", 5.0, 8.0)]
    times = exclusive_times(root, _children(spans))
    assert times == pytest.approx({"request": 3.0, "queue": 4.0,
                                   "forward": 3.0})
    assert sum(times.values()) == pytest.approx(10.0)


def test_children_are_clipped_to_the_root():
    root = _span("r", None, "request", 0.0, 4.0)
    spans = [root, _span("x", "r", "late", 3.0, 9.0)]
    assert exclusive_times(root, _children(spans)) == pytest.approx(
        {"request": 3.0, "late": 1.0})


def test_rollup_averages_over_roots_of_one_name():
    spans = [_span("r1", None, "step", 0.0, 2.0),
             _span("c1", "r1", "nn", 0.5, 1.5),
             _span("r2", None, "step", 5.0, 9.0),
             _span("c2", "r2", "nn", 5.0, 8.0),
             _span("e", None, "eval", 10.0, 20.0)]
    means, roots = rollup(spans, "step")
    assert roots == 2
    assert means == pytest.approx({"step": 1.0, "nn": 2.0})


def test_span_log_nests_per_thread_and_records_parents():
    log = SpanLog()
    with log.span("outer") as outer:
        with log.span("inner") as inner:
            assert log.current() is inner and log.root() is outer
    assert inner.parent_id == outer.span_id
    assert outer.parent_id is None and log.current() is None


def test_bench_tracer_links_program_spans_under_the_open_span():
    log = SpanLog()
    tracer = BenchTracer(log)
    with log.span("handle") as handle:
        ingress = tracer.make_context()
        row = tracer.make_context(ingress)
        tracer.record_span("row", row, 1.0, 2.0, span_id=row.span_id,
                           parent_id=ingress.span_id)
        tracer.record_span("wait", row, 1.0, 1.5)
        tracer.record_span("http.request", ingress, 0.5, 3.0,
                           span_id=ingress.span_id, parent_id=None)
    by_name = {s.name: s for s in log.spans}
    assert by_name["http.request"].parent_id == handle.span_id
    assert by_name["row"].parent_id == ingress.span_id
    assert by_name["wait"].parent_id == row.span_id


# ----------------------------------------------------------------------
# Probes leave the program as they found it
# ----------------------------------------------------------------------
class _Target:
    def work(self, x):
        return x + 1

    @staticmethod
    def make(x):
        return x * 2

    def items(self, n):
        yield from range(n)


def test_probes_time_calls_and_restore_the_originals():
    originals = dict(vars(_Target))
    log = SpanLog()
    with Probes(log) as probes:
        probes.time(_Target, "work", "layer.work")
        probes.time(_Target, "make", "layer.make")
        assert _Target().work(1) == 2 and _Target.make(3) == 6
    assert [s.name for s in log.spans] == ["layer.work", "layer.make"]
    for attr in ("work", "make"):
        assert vars(_Target)[attr] is originals[attr]


def test_step_probe_opens_one_root_per_item():
    log = SpanLog()
    with Probes(log) as probes:
        probes.steps(_Target, "items", "step", child="produce")
        for _ in _Target().items(3):
            with log.span("consume"):
                pass
    roots = [s for s in log.spans if s.name == "step"]
    assert len(roots) == 3 and all(s.parent_id is None for s in roots)
    consume = [s for s in log.spans if s.name == "consume"]
    assert {s.parent_id for s in consume} == {s.span_id for s in roots}
    assert log.current() is None


# ----------------------------------------------------------------------
# Open-loop latency is measured from the due time
# ----------------------------------------------------------------------
def test_due_time_latency_charges_a_stall_to_every_delayed_request():
    # Requests due every 10 ms; the system stalls 50 ms on the first one
    # and then serves the backlog at 1 ms per request.
    due = np.arange(6) * 0.010
    sent = np.maximum(due, [0.0, 0.051, 0.052, 0.053, 0.054, 0.055])
    done = sent + 0.001
    done[0] = 0.051
    by_due = due_time_latencies(due, done)
    by_send = (done - sent) * 1000.0
    assert by_due == pytest.approx([51, 42, 33, 24, 15, 6])
    assert by_send[1:] == pytest.approx([1] * 5)


def test_due_time_latency_skips_requests_that_never_completed():
    lat = due_time_latencies([0.0, 1.0, 2.0], [0.5, math.nan, 2.25])
    assert lat == pytest.approx([500.0, 250.0])


# ----------------------------------------------------------------------
# Failure counting
# ----------------------------------------------------------------------
def test_tally_counts_failures_by_kind_against_attempts():
    tally = Tally()
    assert math.isnan(tally.failed_frac)
    tally.attempt(100)
    tally.fail("non_200_or_error", 2)
    tally.fail("dropped", 0)
    tally.fail("failed_ranks", 1)
    tally.fail("rollback")
    assert tally.failed == 4
    assert tally.failed_frac == pytest.approx(0.04)
    assert dict(tally.failures) == {"non_200_or_error": 2,
                                    "failed_ranks": 1, "rollback": 1}


def test_open_loop_phase_counts_unfinished_rows_as_failed():
    from perfbench.serve import _phase_stats
    n = 1200
    due = np.arange(n) / 400.0
    done = due + 0.005
    done[:7] = np.nan
    out = {"due": due, "sent": due.copy(), "done": done,
           "logits": np.zeros(n), "errors": ["boom"]}
    stats = _phase_stats(out)
    assert stats["failed"] == 8
    assert stats["p50"] == pytest.approx(5.0)
