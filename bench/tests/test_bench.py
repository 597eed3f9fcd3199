"""Tests for the benchmark's own code: statistics, span arithmetic, checks.

    python3 -m pytest bench/tests -q
"""

import json
import random

import pytest

from monoxp import Explanation, ExplanationKind, Point, build_oracle

from run import Tally, per_layer
from spans import UNTRACED, Recorder, self_times, traced_api
from stats import percentile, samples_beyond, tail_percentile
from workloads import PIPE_WEIGHTS, CnfWorkload, PipeWorkload, WideWorkload


class TestTailPercentile:
    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_samples_beyond(self, n, expected):
        tail = tail_percentile([float(i) for i in range(n)])
        assert (tail and tail[0]) == expected

    def test_beyond_count_is_exact_at_the_boundary(self):
        assert samples_beyond(100, 90) == 10
        assert samples_beyond(99, 90) == 9
        assert samples_beyond(10000, 99.9) == 10

    def test_percentile_interpolates_between_ranks(self):
        assert percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
        assert percentile([5.0], 90) == 5.0
        assert percentile(list(range(11)), 90) == pytest.approx(9.0)


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0,10] holds a [1,4] (which holds [2,3]) and b [5,9]
        parents = [-1, 0, 1, 0]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 9.0]
        assert self_times(parents, starts, ends) == pytest.approx([3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_are_covered_once(self):
        parents = [-1, 0, 0]
        starts = [0.0, 1.0, 3.0]
        ends = [10.0, 4.0, 6.0]
        assert self_times(parents, starts, ends)[0] == pytest.approx(5.0)

    def test_child_is_clipped_to_its_parent(self):
        assert self_times([-1, 0], [0.0, 8.0], [10.0, 12.0])[0] == pytest.approx(8.0)

    def test_recorded_self_times_add_up_to_the_root(self):
        rec = Recorder()
        inner = rec.wrap("satcore", lambda: sum(range(1000)))
        outer = rec.wrap("enumeration", lambda: [inner() for _ in range(3)])
        root = rec.begin("request")
        outer()
        rec.end(root)
        assert rec.names == ["request", "enumeration", "satcore", "satcore", "satcore"]
        assert list(rec.parents) == [-1, 0, 1, 1, 1]
        assert sum(rec.self_times()) == pytest.approx(rec.ends[0] - rec.starts[0])


def _attempted_and_failed(checked):
    tally = Tally()
    tally.add_checks(checked)
    return tally.attempted, tally.failed


class TestChecks:
    def test_correct_cnf_run_passes(self, tmp_path):
        workload = CnfWorkload(corner=0, k=3, pool=2)
        state = workload.setup(1, tmp_path)
        outcome = workload.run(state, 0, UNTRACED)
        assert _attempted_and_failed(workload.check(state, 0, outcome)) == (1, 0)

    @pytest.mark.parametrize("corruption", ["grow_axp", "shrink_cxp", "drop_cxp", "incomplete"])
    def test_corrupted_family_is_counted_as_failed(self, tmp_path, corruption):
        workload = CnfWorkload(corner=1, k=3, pool=2)
        state = workload.setup(2, tmp_path)
        outcome = workload.run(state, 0, UNTRACED)
        report = outcome.result
        if corruption == "grow_axp":
            first = report.axps[0]
            spare = min(set(range(1, 7)) - first.features)
            report.axps[0] = Explanation(ExplanationKind.AXP, first.features | {spare})
        elif corruption == "shrink_cxp":
            index, wide = next((i, e) for i, e in enumerate(report.cxps) if len(e.features) > 1)
            report.cxps[index] = Explanation(ExplanationKind.CXP, wide.features - {min(wide.features)})
        elif corruption == "drop_cxp":
            report.cxps.pop()
        else:
            report.complete = False
        assert _attempted_and_failed(workload.check(state, 0, outcome)) == (1, 1)

    def test_wide_rows_are_audited_then_compared(self, tmp_path):
        workload = WideWorkload(features=6, rows=2)
        state = workload.setup(3, tmp_path)
        first = workload.run(state, 0, UNTRACED)
        assert workload.check(state, 0, first) == [[]]
        again = workload.run(state, 2, UNTRACED)
        assert workload.check(state, 2, again) == [[]]
        axp, cxp = again.result
        again.result = (Explanation(ExplanationKind.AXP, axp.features ^ {1}), cxp)
        assert workload.check(state, 2, again) == [["repeat_differs"]]

    def test_pipe_batch_matches_in_process_and_catches_a_corrupted_row(self, tmp_path):
        workload = PipeWorkload(rows=3)
        state = workload.setup(4, tmp_path)
        outcome = workload.run(state, 0, UNTRACED)
        code, records, err = outcome.result
        assert (code, err) == (0, "")
        assert workload.check(state, 0, outcome) == [[], [], []]
        # the child counted every request, the CLI's prediction calls included
        assert outcome.oracle_calls > 3 * outcome.explanations
        records[1]["cxps"] = records[1]["cxps"][1:]
        assert _attempted_and_failed(workload.check(state, 0, outcome)) == (3, 1)


def test_child_labels_match_in_process_model(tmp_path):
    workload = PipeWorkload(rows=1)
    state = workload.setup(5, tmp_path)
    piped = build_oracle(json.loads(state.spec_path.read_text()))
    local = workload.model()
    rng = random.Random(6)
    try:
        for _ in range(200):
            point = Point(tuple(rng.randint(0, 10) for _ in PIPE_WEIGHTS))
            assert piped.classify(point) == local.classify(point)
    finally:
        piped.close()
    assert state.take_served() == 200


def test_traced_run_counts_every_sat_call(tmp_path):
    workload = CnfWorkload(corner=0, k=3, pool=1)
    state = workload.setup(7, tmp_path)
    plain, traced = Tally(), Tally()
    plain.add(workload.run(state, 0, UNTRACED))
    rec = Recorder()
    with traced_api(rec) as api:
        root = rec.begin("request")
        outcome = workload.run(state, 0, api)
        rec.end(root)
    rec.end_instance()
    traced.add(outcome)
    traced.add_checks(workload.check(state, 0, outcome))
    layers = per_layer(rec, plain, traced)
    assert layers["satcore.calls"][0] == outcome.result.sat_calls  # one instance traced
    assert layers["enumeration.sat_calls_per_run"][0] == outcome.result.sat_calls
    assert layers["classifiers.calls"][0] == outcome.oracle_calls
    assert layers["cli.self_s"][0] == 0
    assert traced.failed == 0
