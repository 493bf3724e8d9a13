"""Tests of the benchmark's own arithmetic: self time, the tail rule, failure counts."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import stats
from spans import Span, Target, Tracer, self_times


def test_self_time_subtracts_children_at_every_level():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 3.0, 6.0, 0, 0),  # overlaps x by 2
        Span("z", 9.0, 12.0, 0, 0),  # runs 2 past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_restores_originals():
    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    ns = types.SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer([
        Target("t.outer", ns, "outer"),
        Target("t.inner", ns, "inner", counts=lambda args, result: {"arg": args[0]}),
    ])
    with tracer:
        assert ns.outer(3) == 8
    assert ns.inner is inner and ns.outer is outer
    outer_span, inner_span = tracer.spans
    assert (outer_span.name, outer_span.parent) == ("t.outer", -1)
    assert (inner_span.name, inner_span.parent, inner_span.counts) == ("t.inner", 0, {"arg": 3})
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


@pytest.mark.parametrize(
    "n,expected",
    [(1, 50), (19, 50), (20, 50), (99, 50), (100, 90), (1000, 90), (100000, 90)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_percentile_interpolates_between_order_statistics():
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 50) == pytest.approx(2.5)
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90) == pytest.approx(4.6)


def test_fail_count_covers_raised_and_rejected_solves(monkeypatch):
    import bench
    import rfm.experiments as experiments
    from workloads import Workload, load_suite

    configs = load_suite("helmholtz-adaptive")[:3]
    original = experiments.solve_system
    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise RuntimeError("forced failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "solve_system", failing_second_call)
    # the third config's records are rejected by the workload's check
    workload = Workload(
        lambda: configs,
        lambda record: "rejected" if record.name == configs[2].name else None,
    )
    seeds = iter(range(100))
    run = bench.measure(workload, seeds, seconds=0.0, process_start=0.0)
    # one warm-up pass and one timed pass (the least a run makes) of three solves each
    assert len(run.outcomes) == 6
    failed = [o for o in run.outcomes if o.failure]
    assert bench.fail_count(run.outcomes) == len(failed) == 3
    assert "forced failure" in failed[0].failure
    assert [o.failure for o in failed[1:]] == ["rejected", "rejected"]
    assert experiments.solve_system is failing_second_call
