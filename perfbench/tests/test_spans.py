import types

import pytest

import spans
from spans import Span


def test_self_time_subtracts_children_at_every_level():
    rows = [
        Span("run_experiment", "harness", None, 0, 100, None, -1),
        Span("solve", "solvers", "C-HUN", 10, 40, 0, 0),
        Span("hungarian_max", "assignment", None, 15, 25, 1, 0),
        Span("jain_index", "metrics", None, 50, 70, 0, 0),
    ]
    assert spans.self_times(rows) == [50, 20, 10, 20]
    assert spans.layer_self_times(rows) == {
        "scenario": 0, "radio": 0, "assignment": 10, "solvers": 20,
        "metrics": 20, "harness": 50}


def test_self_time_counts_overlapping_children_once():
    rows = [
        Span("root", "harness", None, 0, 100, None, -1),
        Span("a", "radio", None, 10, 50, 0, 0),
        Span("b", "radio", None, 30, 120, 0, 0),   # overlaps a, runs past root
    ]
    assert spans.self_times(rows)[0] == 10


def test_tracer_nests_spans_and_excludes_paused_time():
    ticks = iter([0, 5, 7, 20, 30, 31, 40, 50])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    with tracer.span("root", "harness"):          # begins at 0
        with tracer.span("child", "radio"):        # begins at 5
            with tracer.paused():                  # 7 .. 20 paused
                pass
        # child ends at 30 - 13 = 17
        with tracer.span("second", "radio"):       # 31 - 13 = 18
            pass                                   # 40 - 13 = 27
    root, child, second = tracer.spans                # root ends at 50 - 13 = 37
    assert (child.start, child.end, child.parent) == (5, 17, 0)
    assert (second.start, second.end, second.parent) == (18, 27, 0)
    assert (root.start, root.end, root.parent) == (0, 37, None)


@pytest.mark.parametrize("n, q", [
    (0, 50), (1, 50), (10, 50), (19, 50), (20, 50), (39, 50), (40, 75),
    (100, 90), (200, 95), (1000, 99), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, q):
    found, value = spans.tail([float(v) for v in range(n)])
    assert found == q
    if n:
        beyond = sum(1 for v in range(n) if v > value)
        assert beyond >= 10 or q == 50


def test_tail_of_small_sample_falls_back_to_the_median():
    assert spans.tail([3.0, 1.0, 2.0]) == (50, 2.0)
    assert spans.tail([]) == (50, 0.0)


def test_nearest_rank_has_no_float_rounding_at_exact_ranks():
    values = list(range(1, 1001))
    assert spans.nearest_rank(values, 99.9) == 999
    assert spans.nearest_rank(values, 90) == 900


def test_absent_targets_are_reported_and_present_ones_restored():
    def build_gain_table(params, rng):
        return "gains"

    harness = types.SimpleNamespace(build_gain_table=build_gain_table)   # no solve
    metrics = types.SimpleNamespace(empirical_cdf=lambda s: s, percentile=lambda c, q: q)
    tracer = spans.Tracer()
    restore, absent = spans.install(tracer, {"harness": harness, "metrics": metrics})

    assert "harness.solve" in absent
    assert "assignment.hungarian_max" in absent          # whole module missing
    assert "harness.build_gain_table" not in absent
    assert harness.build_gain_table(None, None) == "gains"
    assert [(s.name, s.layer, s.drop) for s in tracer.spans] == [
        ("build_gain_table", "scenario", 0)]

    restore()
    assert harness.build_gain_table is build_gain_table


def test_oracle_runs_outside_the_assignment_span():
    ticks = iter(range(0, 1000, 10))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    assignment = types.SimpleNamespace(hungarian_max=lambda values: ({0: 0}, 1.0))
    seen = []

    def oracle(values, total):
        seen.append(total)
        return 1, True

    spans.install(tracer, {"assignment": assignment}, oracle)
    assignment.hungarian_max([[1.0]])
    (span,) = tracer.spans
    assert span.end - span.start == 10
    assert seen == [1.0] and tracer.oracle == [(1, True)]


def test_drop_span_runs_from_gain_table_to_last_solve():
    rows = [
        Span("run_experiment", "harness", None, 0, 100, None, -1),
        Span("build_gain_table", "scenario", None, 1, 3, 0, 0),
        Span("solve", "solvers", "C-HUN", 4, 9, 0, 0),
        Span("solve", "solvers", "R-EPA", 10, 12, 0, 0),
        Span("build_gain_table", "scenario", None, 20, 22, 0, 1),
        Span("solve", "solvers", "C-HUN", 23, 30, 0, 1),
        Span("empirical_cdf", "metrics", None, 40, 45, 0, 1),
    ]
    assert spans.drop_durations(rows) == [11, 10]


def test_layer_metrics_without_assignment_calls():
    rows = [
        Span("run_experiment", "harness", None, 0, 1_000_000, None, -1),
        Span("build_gain_table", "scenario", None, 0, 500_000, 0, 0),
        Span("solve", "solvers", "R-EPA", 500_000, 900_000, 0, 0),
    ]
    metrics, tails = spans.layer_metrics([{"spans": rows, "oracle": []}])
    assert metrics["assignment.hungarian_max.calls"] == 0
    assert metrics["assignment.hungarian_max.n"] == 0
    assert metrics["assignment.optimal_frac"] == 1.0
    assert metrics["scenario.self_share"] == pytest.approx(0.5)
    assert metrics["solvers.self_share"] == pytest.approx(0.4)
    assert metrics["harness.self_share"] == pytest.approx(0.1)
    assert metrics["solvers.solve.R-EPA.ms_p50"] == pytest.approx(0.4)
    assert metrics["drop.ms_p50"] == pytest.approx(0.9)
    assert tails["drop"] == 50
