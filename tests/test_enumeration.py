import random
import time

import pytest

import monoxp.enumeration
from conftest import assert_subset_minimal, boolean_space, random_monotone_dnf

from monoxp import (
    AppendixCnfClassifier,
    ClassOrder,
    CountingOracle,
    ExplanationKind,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    InternalConsistencyError,
    Point,
    brute_force_explanations,
    check_duality,
    enumerate_explanations,
)


def family_sets(explanations):
    return {e.features for e in explanations}


class TestGradeEnumeration:
    def test_exact_families_and_call_counts(self, grade):
        report = enumerate_explanations(Point((10, 10, 5, 0)), grade)
        assert report.complete
        assert report.axp_sets() == {frozenset({1, 2})}
        assert report.cxp_sets() == {frozenset({1}), frozenset({2})}
        assert report.sat_calls == 4

    def test_streaming_callback_sees_every_explanation(self, grade):
        seen = []
        report = enumerate_explanations(Point((10, 10, 5, 0)), grade, callback=seen.append)
        assert len(seen) == len(report.axps) + len(report.cxps) == 3

    def test_uniqueness(self, grade):
        report = enumerate_explanations(Point((10, 10, 5, 0)), grade)
        assert len(report.axps) == len(report.axp_sets())
        assert len(report.cxps) == len(report.cxp_sets())


class TestCornerCases:
    def test_constant_classifier(self, constant):
        report = enumerate_explanations(Point((0, 0)), constant)
        assert report.complete
        assert [e.features for e in report.axps] == [frozenset()]
        assert report.cxps == []
        assert report.sat_calls == 2

    def test_majority(self, majority):
        report = enumerate_explanations(Point((1, 1, 1)), majority)
        two_subsets = {frozenset(s) for s in ({1, 2}, {1, 3}, {2, 3})}
        assert report.axp_sets() == two_subsets
        assert report.cxp_sets() == two_subsets
        assert report.sat_calls == 7

    def test_limit_yields_incomplete_prefix(self, grade):
        report = enumerate_explanations(Point((10, 10, 5, 0)), grade, limit=1)
        assert not report.complete
        assert len(report.axps) + len(report.cxps) == 1
        assert report.sat_calls == 1

    def test_budget_yields_incomplete_prefix(self, grade):
        class Slow(GradeClassifier):
            def classify(self, point):
                time.sleep(0.02)
                return super().classify(point)

        report = enumerate_explanations(Point((10, 10, 5, 0)), Slow(), budget=0.01)
        assert not report.complete

    def test_nondeterministic_oracle_is_reported(self):
        # equal corner labels pick the abductive branch, then the answers
        # change under the explainer's feet
        class Flaky:
            def __init__(self):
                self.space = FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(2)))
                self.classes = ClassOrder(("a", "b"))
                self.script = iter(("a", "a", "b", "a"))

            def classify(self, point):
                return next(self.script, "a")

        with pytest.raises(InternalConsistencyError):
            enumerate_explanations(Point((1, 1)), Flaky())

    def test_nondeterministic_oracle_on_the_empty_seed_is_reported(self):
        # differing corner labels pick the contrastive branch with an empty
        # seed, then the explainer sees equal labels for the same corners
        class Flaky:
            def __init__(self):
                self.space = FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(2)))
                self.classes = ClassOrder(("a", "b"))
                self.script = iter(("a", "b", "a", "a"))

            def classify(self, point):
                return next(self.script, "a")

        with pytest.raises(InternalConsistencyError):
            enumerate_explanations(Point((1, 1)), Flaky())


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_families_match(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        clf = random_monotone_dnf(n, rng.randint(1, n), rng)
        v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
        report = enumerate_explanations(v, clf)
        axps, cxps = brute_force_explanations(v, clf)
        assert report.complete
        assert report.axp_sets() == set(axps)
        assert report.cxp_sets() == set(cxps)
        assert report.sat_calls == len(report.axps) + len(report.cxps) + 1
        ok, counterexample = check_duality(report.axps, report.cxps)
        assert ok, counterexample
        for expl in report.axps + report.cxps:
            assert_subset_minimal(expl, v, clf)

    def test_grade_brute_force(self, grade):
        axps, cxps = brute_force_explanations(Point((10, 10, 5, 0)), grade)
        assert axps == [frozenset({1, 2})]
        assert set(cxps) == {frozenset({1}), frozenset({2})}

    def test_constant_brute_force(self, constant):
        axps, cxps = brute_force_explanations(Point((0, 0)), constant)
        assert axps == [frozenset()]
        assert cxps == []

    def test_cap_refused(self):
        rng = random.Random(0)
        clf = random_monotone_dnf(5, 3, rng)
        v = Point((1, 1, 1, 1, 1))
        with pytest.raises(ValueError):
            brute_force_explanations(v, clf, max_features=4)


class TestSatisfiabilityCertificate:
    def test_satisfiable_source_exceeds_half(self):
        clf = AppendixCnfClassifier(boolean_space(4), [[1, 2], [-1, -2]])  # satisfiable source CNF
        report = enumerate_explanations(Point((1, 1, 1, 1)), clf)
        assert len(report.axps) == 4 > clf.space.arity / 2
        zeros = enumerate_explanations(Point((0, 0, 0, 0)), clf)
        assert len(zeros.cxps) == 4 > clf.space.arity / 2

    def test_unsatisfiable_source_stays_at_half(self):
        clf = AppendixCnfClassifier(boolean_space(2), [[1], [-1]])  # unsatisfiable source CNF
        report = enumerate_explanations(Point((1, 1)), clf)
        assert report.axp_sets() == {frozenset({1, 2})}
        assert len(report.axps) == 1 <= clf.space.arity / 2


class TestDualityChecker:
    def test_running_example_families(self):
        ok, counterexample = check_duality([{1, 2}], [{1}, {2}])
        assert ok and counterexample is None

    def test_missing_hit_detected(self):
        ok, counterexample = check_duality([{1}], [{2}])
        assert not ok
        assert counterexample.kind is ExplanationKind.AXP
        assert "misses" in counterexample.reason

    def test_non_minimal_detected(self):
        ok, counterexample = check_duality([{1, 2}], [{1}])
        assert not ok
        assert "not minimal" in counterexample.reason

    def test_majority_families(self):
        two_subsets = [{1, 2}, {1, 3}, {2, 3}]
        ok, _ = check_duality(two_subsets, two_subsets)
        assert ok

    def test_empty_axp_against_empty_family(self):
        ok, _ = check_duality([frozenset()], [])
        assert ok


class TestCounters:
    def test_memo_cache_changes_counts_not_families(self, grade):
        v = Point((10, 10, 5, 0))
        report = enumerate_explanations(v, grade)
        axps, cxps = brute_force_explanations(v, grade)
        assert report.axp_sets() == set(axps)
        assert report.cxp_sets() == set(cxps)
        # without the memo the run made 30 calls; the memo answers half of them
        assert (report.oracle_calls, report.cache_hits) == (15, 15)

    def test_reported_oracle_calls_match_wrapper(self, grade):
        counting = CountingOracle(grade)
        report = enumerate_explanations(Point((10, 10, 5, 0)), counting)
        assert counting.call_count == report.oracle_calls

    def test_sat_seconds_times_the_solver_calls(self, grade, monkeypatch):
        # each of the 4 calls sleeps inside the loop's timed span
        real_solve = monoxp.enumeration.solve

        def slow_solve(formula, default_polarity=1):
            time.sleep(0.01)
            return real_solve(formula, default_polarity=default_polarity)

        monkeypatch.setattr(monoxp.enumeration, "solve", slow_solve)
        report = enumerate_explanations(Point((10, 10, 5, 0)), grade)
        assert report.sat_calls == 4
        assert 0.04 <= report.sat_seconds <= report.elapsed


class Recording:
    """Oracle wrapper that logs the values of every point it is asked."""

    def __init__(self, inner):
        self.inner, self.space, self.classes = inner, inner.space, inner.classes
        self.asked = []

    def classify(self, point):
        self.asked.append(point.values)
        return self.inner.classify(point)


def _draw_appendix_cnf(rng, k):
    # a random 3-CNF over k variables, redrawn until no literal is common to every clause
    while True:
        clauses = [[x if rng.random() < 0.5 else -x for x in rng.sample(range(1, k + 1), 3)] for _ in range(round(4.3 * k))]
        if not set(clauses[0]).intersection(*map(set, clauses[1:])):
            return AppendixCnfClassifier(boolean_space(2 * k), clauses)


def _memo_reach_runs():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(2, 10)
        clf = random_monotone_dnf(n, rng.randint(1, n), rng)
        yield f"dnf-{seed}", clf, Point(tuple(rng.randint(0, 1) for _ in range(n)))
    for seed in range(10):
        clf = _draw_appendix_cnf(random.Random(seed), 5)
        for corner in (0, 1):
            yield f"cnf-{seed}-{corner}", clf, Point((corner,) * 10)
    yield "grade", GradeClassifier(), Point((10, 10, 5, 0))


def test_each_point_reaches_the_oracle_once_but_the_loop_corners():
    # the loop asks its two corners past the memo and the explainer's
    # invariant check may ask them again; no other point may repeat
    runs = list(_memo_reach_runs())
    assert len(runs) == 221
    for name, clf, v in runs:
        recording = Recording(clf)
        report = enumerate_explanations(v, recording)
        explanations = len(report.axps) + len(report.cxps)
        repeats = len(recording.asked) - len(set(recording.asked))
        assert report.complete, name
        assert repeats <= 2 * explanations, (name, repeats, explanations)
        assert report.oracle_calls == len(recording.asked), name


@pytest.mark.parametrize("corner", [0, 1], ids=["zeros", "ones"])
def test_appendix_cnf_k10_enumeration(corner):
    # about a thousand explanations: the solver resumes across as many calls
    # on one growing formula, and the families must still be exact
    clf = _draw_appendix_cnf(random.Random(10), 10)
    v = Point((corner,) * 20)
    report = enumerate_explanations(v, clf)
    assert report.complete
    assert report.sat_calls == len(report.axps) + len(report.cxps) + 1
    assert len(report.formula) == report.sat_calls - 1
    ok, counterexample = check_duality(report.axps, report.cxps)
    assert ok, counterexample
    for expl in report.axps + report.cxps:
        assert_subset_minimal(expl, v, clf)
