import hashlib
import itertools
import random
import time

import pytest

import monoxp.enumeration
from conftest import Recording, _draw_appendix_cnf, assert_subset_minimal, boolean_space, random_monotone_dnf

from monoxp import (
    AppendixCnfClassifier,
    ClassifierOracle,
    ClassOrder,
    CountingOracle,
    ExplanationKind,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    InternalConsistencyError,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    OracleError,
    Point,
    brute_force_explanations,
    check_duality,
    corner_points,
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

    @pytest.mark.parametrize(
        "cut",
        [{"limit": -1}, {"limit": 1.0}, {"limit": True}, {"limit": "1"},
         {"budget": -0.5}, {"budget": float("nan")}, {"budget": "1"}],
        ids=repr,
    )
    def test_a_bad_limit_or_budget_is_rejected_before_any_call(self, monkeypatch, cut):
        class Refusing(GradeClassifier):
            def classify(self, point):
                raise AssertionError("the oracle was asked")

        def no_solve(*args, **kwargs):
            raise AssertionError("the solver was called")

        monkeypatch.setattr(monoxp.enumeration, "solve", no_solve)
        with pytest.raises(ValueError, match=f"^{next(iter(cut))} must be"):
            enumerate_explanations(Point((10, 10, 5, 0)), Refusing(), **cut)

    def test_edge_limit_and_budget_values_are_accepted(self, grade):
        assert enumerate_explanations(Point((10, 10, 5, 0)), grade, limit=0).sat_calls == 0
        assert enumerate_explanations(Point((10, 10, 5, 0)), grade, budget=0).sat_calls <= 1
        assert enumerate_explanations(Point((10, 10, 5, 0)), grade, budget=float("inf")).complete

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
        # the loop asks each of the 3 corners new to the run twice in a row,
        # and the explainer starts from the loop's box unasked: 12 calls
        # reach the oracle, and the memo answers the 3 scan steps that reach
        # a point the run asked before
        assert (report.oracle_calls, report.cache_hits) == (12, 3)

    @pytest.mark.parametrize("label", [None, "", 0])
    def test_a_falsy_label_is_kept_and_counted(self, grade, label):
        # v is the space's lower corner: a memo is asked its label, as the CLI
        # does, and the run it is handed finds it there; the loop asks v
        # again and the new upper corner twice; a falsy label taken for a
        # miss would cost more calls and no hit
        class Constant:
            space, classes = grade.space, grade.classes

            def classify(self, point):
                return label

        memo = monoxp.enumeration._Memo(Constant())
        memo.classify(Point((0, 0, 0, 0)))
        report = enumerate_explanations(Point((0, 0, 0, 0)), memo)
        assert (report.axp_sets(), report.cxp_sets(), report.complete) == ({frozenset()}, set(), True)
        assert (report.oracle_calls, report.cache_hits) == (4, 1)

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
    # the loop asks each of its corners again, one new to the run twice in
    # a row; no other point may repeat
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


def _handed_box_runs():
    # the 200 DNFs, each in a scan order of its own, and the appendix CNFs
    # at k=5-7 and both corners
    for name, clf, v in _memo_reach_runs():
        if name.startswith("dnf-"):
            order = random.Random(name).sample(list(clf.space.features), clf.space.arity)
            yield name, clf, v, order
    for seed in range(6):
        k = 5 + seed % 3
        clf = _draw_appendix_cnf(random.Random(seed), k)
        for corner in (0, 1):
            yield f"cnf-{seed}-{corner}", clf, Point((corner,) * (2 * k)), None


def _traces(runs):
    out = []
    for name, clf, v, order in runs:
        for polarity in (0, 1):
            recording = Recording(clf)
            stream = []
            report = enumerate_explanations(v, recording, order=order, default_polarity=polarity, callback=stream.append)
            explanations = [(e.kind.value, e.sorted_features()) for e in stream]
            out.append((name, polarity, recording.asked, explanations, report.sat_calls, report.oracle_calls, report.complete))
    return out


def test_the_handed_box_gives_the_public_paths_results(monkeypatch):
    # the loop hands the explainer the box its corner check built; the
    # explainer called without it validates, rebuilds the box and checks it
    # through the memo, and must come to the same queries and results
    runs = list(_handed_box_runs())
    assert len(runs) == 212
    handed = _traces(runs)
    dropped = []

    def public(find):
        def explain(v, oracle, seed, order, _box):
            dropped.append(_box)
            return find(v, oracle, seed=seed, order=order)

        return explain

    monkeypatch.setattr(monoxp.enumeration, "find_axp", public(monoxp.enumeration.find_axp))
    monkeypatch.setattr(monoxp.enumeration, "find_cxp", public(monoxp.enumeration.find_cxp))
    assert _traces(runs) == handed
    assert dropped and None not in dropped
    assert all(complete for *_, complete in handed)


class Table(ClassifierOracle):
    """A deterministic oracle that looks its labels up, monotone or not."""

    def __init__(self, space, classes, labels):
        self.space, self.classes, self.labels = space, classes, labels

    def classify(self, point):
        return self.labels[point.values]


def test_a_non_monotone_table_completes_or_is_an_oracle_error():
    # random boolean tables, most of them not monotone: where a corner the
    # loop asked belies an end of the class order, the run raises an
    # OracleError naming the box instead of the explainer's own exception
    rng = random.Random(3)
    outcomes = {"complete": 0, "raised": 0}
    for _ in range(3000):
        n = rng.randint(1, 4)
        classes = ClassOrder(tuple("abc"[: rng.randint(2, 3)]))
        labels = {p: rng.choice(classes.labels) for p in itertools.product((0, 1), repeat=n)}
        v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
        try:
            assert enumerate_explanations(v, Table(boolean_space(n), classes, labels)).complete
        except OracleError as exc:
            assert not isinstance(exc, InternalConsistencyError)
            assert "not monotone over the box that fixes" in str(exc)
            outcomes["raised"] += 1
        else:
            outcomes["complete"] += 1
    assert outcomes == {"complete": 1903, "raised": 1097}


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


# Per run: the formula's seed and k, the corner (all zeros or all ones),
# sat_calls, oracle_calls, cache_hits, |AXps|, |CXps|, and the first 16 hex
# digits of the sha256 of the stream of explanations, repr([(kind, sorted
# features), ...]). The families, streams and sat_calls were recorded before
# the loop kept one oracle wrapper; the two counters since each box is
# decided one corner at a time, and cache_hits since the scan skips the
# corners an end of the class order decides, which at these corners are v,
# since the loop asks a corner new to the run twice, since the scan asks a
# corner only while its label is unknown, and since the loop hands the
# explainer its box and a CXp step that moves a corner onto v knows its
# label, so neither the start check's nor v's re-asks reach the memo.
_PINNED_CNF_RUNS = [
    (0, 5, 0, 38, 230, 82, 31, 6, "6f90609862b7aad3"),
    (0, 5, 1, 38, 293, 37, 6, 31, "c6a2569575b152b2"),
    (1, 6, 0, 71, 448, 198, 64, 6, "796dd48403d4c408"),
    (1, 6, 1, 71, 664, 70, 6, 64, "14c15449898355e0"),
    (2, 7, 0, 136, 917, 455, 128, 7, "c3aa2253070726b2"),
    (2, 7, 1, 136, 1500, 135, 7, 128, "8f49175f24cc29d1"),
    (3, 5, 0, 38, 227, 80, 31, 6, "19d4ce29e0c8dc9a"),
    (3, 5, 1, 38, 268, 47, 6, 31, "5be6ffb48f466a2d"),
    (4, 6, 0, 68, 446, 173, 59, 8, "009f53f0f185046a"),
    (4, 6, 1, 68, 622, 65, 8, 59, "12cdb1799e9b1667"),
    (5, 7, 0, 134, 937, 415, 122, 11, "67ccfe3525f7f136"),
    (5, 7, 1, 134, 1431, 143, 11, 122, "59b1b3b60fa024e6"),
    (6, 5, 0, 38, 222, 85, 32, 5, "31847a3d1a37e730"),
    (6, 5, 1, 38, 292, 37, 5, 32, "9d57b6a5bedb28f7"),
    (7, 6, 0, 70, 455, 182, 61, 8, "ab21cf7547388891"),
    (7, 6, 1, 70, 623, 69, 8, 61, "854d146dcab7dba1"),
    (8, 7, 0, 136, 917, 455, 128, 7, "c3aa2253070726b2"),
    (8, 7, 1, 136, 1500, 135, 7, 128, "8f49175f24cc29d1"),
    (9, 5, 0, 38, 232, 75, 30, 7, "73f8e00fbb233bf8"),
    (9, 5, 1, 38, 287, 36, 7, 30, "8c0306a1b12e4ea1"),
    (10, 6, 0, 71, 448, 198, 64, 6, "796dd48403d4c408"),
    (10, 6, 1, 71, 664, 70, 6, 64, "14c15449898355e0"),
    (11, 7, 0, 134, 923, 429, 124, 9, "0567b2e2651e7249"),
    (11, 7, 1, 134, 1466, 131, 9, 124, "553ab5177b3d381a"),
    (12, 5, 0, 38, 222, 85, 32, 5, "31847a3d1a37e730"),
    (12, 5, 1, 38, 292, 37, 5, 32, "9d57b6a5bedb28f7"),
    (13, 6, 0, 71, 460, 186, 62, 8, "cef8e8a8e2dfe950"),
    (13, 6, 1, 71, 611, 87, 8, 62, "2441a74caead6166"),
    (14, 7, 0, 134, 937, 415, 122, 11, "e9327923d5d3c4ed"),
    (14, 7, 1, 134, 1457, 131, 11, 122, "9d973009e483dc27"),
    (15, 5, 0, 38, 235, 77, 30, 7, "12d53cc33e9e0e24"),
    (15, 5, 1, 38, 290, 37, 7, 30, "c4cedc1b43265664"),
    (16, 6, 0, 71, 460, 186, 62, 8, "4c363953b36ef1fb"),
    (16, 6, 1, 71, 648, 72, 8, 62, "6912e512e57385f2"),
    (17, 7, 0, 136, 924, 448, 127, 8, "e55b5b415ec7208a"),
    (17, 7, 1, 136, 1493, 137, 8, 127, "ed85cefceda9ca6a"),
    (18, 5, 0, 37, 226, 77, 30, 6, "a993da9485a63722"),
    (18, 5, 1, 37, 291, 30, 6, 30, "196c90a1b76f6cbc"),
    (19, 6, 0, 71, 460, 186, 62, 8, "70bc29ffa0d06f38"),
    (19, 6, 1, 71, 659, 69, 8, 62, "73055f6527c02f66"),
]


# Runs whose first model's two corners are new to the run (grade, constant)
# or one of them is v (cnf-ones, cnf-zeros).
_LOOP_RUNS = [
    (GradeClassifier(), Point((10, 10, 5, 0))),
    (_draw_appendix_cnf(random.Random(3), 5), Point((1,) * 10)),
    (_draw_appendix_cnf(random.Random(3), 5), Point((0,) * 10)),
    # constant: both corners of the first model are new and agree
    (LinearThresholdClassifier(FeatureSpace((FeatureDomain("integer", 0, 2),) * 2), [1, 1], [], ClassOrder(("c",))), Point((1, 1))),
]


class FlipRepeats(ClassifierOracle):
    """A two-class oracle that answers a point's first request truly and
    flips its answer to a repeated one: to every repeat, or to the `nth`
    repeated request of the run only."""

    def __init__(self, inner, nth=None):
        self.inner, self.space, self.classes = inner, inner.space, inner.classes
        self.nth, self.seen, self.repeats = nth, set(), 0

    def classify(self, point):
        label = self.inner.classify(point)
        if point.values not in self.seen:
            self.seen.add(point.values)
            return label
        self.repeats += 1
        if self.nth in (None, self.repeats):
            labels = self.classes.labels
            return labels[1 - labels.index(label)]
        return label


class TestOneWrapperPerRun:
    """The run asks the oracle through one counting, memoising wrapper; the
    loop asks its corners again and compares the answers. The counts and
    families are pinned, and an oracle that changes its answer must still
    be caught."""

    @pytest.mark.parametrize("seed", range(20))
    def test_counters_and_families_as_pinned(self, seed):
        rows = [row for row in _PINNED_CNF_RUNS if row[0] == seed]
        k = rows[0][1]
        clf = _draw_appendix_cnf(random.Random(seed), k)
        for _, _, corner, *expected in rows:
            stream = []
            report = enumerate_explanations(Point((corner,) * (2 * k)), clf, callback=stream.append)
            text = repr([(e.kind.value, e.sorted_features()) for e in stream])
            digest = hashlib.sha256(text.encode()).hexdigest()[:16]
            got = [report.sat_calls, report.oracle_calls, report.cache_hits, len(report.axps), len(report.cxps), digest]
            assert report.complete
            assert got == expected, (seed, corner)

    @pytest.mark.parametrize("terms", [[], [[1]]], ids=["axp-branch", "cxp-branch"])
    def test_a_changed_answer_is_caught(self, terms):
        # the first model frees both features: the loop asks (0, 0), new to
        # the run, twice in a row and hears the flipped second answer before
        # it picks a branch, the AXp one for a constant model or the CXp one
        # for x1
        class FlipOnSecondAsk(ClassifierOracle):
            def __init__(self, inner):
                self.inner, self.space, self.classes = inner, inner.space, inner.classes
                self.asked = 0

            def classify(self, point):
                label = self.inner.classify(point)
                if point.values == (0, 0):
                    self.asked += 1
                    if self.asked == 2:
                        return "1" if label == "0" else "0"
                return label

        oracle = FlipOnSecondAsk(MonotoneDnfClassifier(boolean_space(2), terms))
        with pytest.raises(InternalConsistencyError):
            enumerate_explanations(Point((1, 1)), oracle)
        assert oracle.asked == 2

    @pytest.mark.parametrize(
        "clf, v",
        [
            (GradeClassifier(), Point((10, 10, 5, 0))),
            (_draw_appendix_cnf(random.Random(3), 5), Point((1,) * 10)),
            (_draw_appendix_cnf(random.Random(3), 5), Point((0,) * 10)),
        ],
        ids=["grade", "cnf-ones", "cnf-zeros"],
    )
    def test_the_loop_calls_the_explainer_by_name(self, clf, v, monkeypatch):
        # bench/spans.py traces the explainer by rebinding these names; each
        # call must also find the memo as the previous call left it plus the
        # loop's corners: both for an AXp, for a CXp the lower one, and the
        # upper one only if the lower carries v's label. Each corner counts
        # one call, and one more if it is new to the run. Before the first
        # call the run has asked v's label through the memo. The call gets
        # the box those corners span, v's label and the corners' states.
        calls = {"axp": 0, "cxp": 0}
        left = {"memo": {v.values}, "counted": 1}
        pred = clf.classify(v)

        def counted(kind, find):
            def explain(v, oracle, seed, order, _box):
                calls[kind] += 1
                fixed = seed if kind == "cxp" else oracle.space._feature_set - seed
                low, up = corner_points(oracle.space, v, fixed)
                loop = [low.values, up.values] if kind == "axp" or clf.classify(low) == pred else [low.values]
                new = set(loop) - left["memo"]
                assert oracle._cache.keys() == left["memo"] | new
                assert oracle.call_count == left["counted"] + len(loop) + len(new)
                states = [clf.classify(corner) == pred for corner in (low, up)[: len(loop)]] + [None] * (2 - len(loop))
                assert _box == (list(low.values), list(up.values), pred, *states)
                expl = find(v, oracle, seed=seed, order=order, _box=_box)
                left["memo"], left["counted"] = set(oracle._cache), oracle.call_count
                return expl

            return explain

        monkeypatch.setattr(monoxp.enumeration, "find_axp", counted("axp", monoxp.enumeration.find_axp))
        monkeypatch.setattr(monoxp.enumeration, "find_cxp", counted("cxp", monoxp.enumeration.find_cxp))
        report = enumerate_explanations(v, clf)
        assert report.complete
        assert (calls["axp"], calls["cxp"]) == (len(report.axps), len(report.cxps))
        assert report.oracle_calls == left["counted"]

    def test_a_run_handed_a_memo_continues_in_it(self, grade):
        # the CLI asks v through a memo and hands the run that memo: the run
        # finds v in it and sends the oracle the rest of a plain run's calls
        v = Point((10, 10, 5, 0))
        plain = enumerate_explanations(v, grade)
        memo = monoxp.enumeration._Memo(grade)
        memo.classify(v)
        report = enumerate_explanations(v, memo)
        assert (report.axps, report.cxps) == (plain.axps, plain.cxps)
        assert (report.oracle_calls, report.cache_hits) == (plain.oracle_calls, plain.cache_hits + 1) == (12, 4)
        assert (memo.call_count, memo.cache_hits) == (12, 4)

    def test_every_flipped_repeat_is_caught_and_named(self):
        # v = (1, 1) is 1 and the loop's first lower corner (0, 0) is 0; the
        # corner is new to the run, so the loop's check asks it again at once
        # and hears 1
        oracle = FlipRepeats(MonotoneDnfClassifier(boolean_space(2), [[1]]))
        with pytest.raises(InternalConsistencyError, match=r"answered \[0, 0\] with '0', then with '1'"):
            enumerate_explanations(Point((1, 1)), oracle)

    def test_one_flipped_repeat_is_caught_or_harmless(self):
        # a flip the run hears must end it; one it never hears must leave
        # the deterministic run's families
        outcomes = {"raised": 0, "right": 0}
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(3, 7)
            clf = random_monotone_dnf(n, rng.randint(1, n), rng)
            v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
            oracle = FlipRepeats(clf, nth=rng.randint(1, 5))
            expected = enumerate_explanations(v, clf)
            try:
                report = enumerate_explanations(v, oracle)
            except InternalConsistencyError:
                outcomes["raised"] += 1
                continue
            assert report.complete, seed
            assert (report.axp_sets(), report.cxp_sets()) == (expected.axp_sets(), expected.cxp_sets()), seed
            outcomes["right"] += 1
        assert outcomes == {"raised": 250, "right": 50}

    @pytest.mark.parametrize("clf, v", _LOOP_RUNS, ids=["grade", "cnf-ones", "cnf-zeros", "constant"])
    def test_the_loops_corners_are_in_the_memo_when_the_explainer_starts(self, clf, v, monkeypatch):
        # the explainer starts from the loop's corners unasked, and a scan
        # step that reaches one must find it in the memo
        asked = []
        real_corner = monoxp.enumeration._Memo.corner

        def corner(memo, point):
            asked.append(point.values)
            return real_corner(memo, point)

        def checked(find):
            def explain(v, oracle, seed, order, _box):
                assert asked and set(asked) <= oracle._cache.keys()
                return find(v, oracle, seed=seed, order=order, _box=_box)

            return explain

        monkeypatch.setattr(monoxp.enumeration._Memo, "corner", corner)
        monkeypatch.setattr(monoxp.enumeration, "find_axp", checked(monoxp.enumeration.find_axp))
        monkeypatch.setattr(monoxp.enumeration, "find_cxp", checked(monoxp.enumeration.find_cxp))
        assert enumerate_explanations(v, clf).complete

    @pytest.mark.parametrize("clf, v", _LOOP_RUNS, ids=["grade", "cnf-ones", "cnf-zeros", "constant"])
    def test_a_corner_new_to_the_run_reaches_the_oracle_twice_in_a_row(self, clf, v, monkeypatch):
        # the loop's check asks a corner the run knows once, and one new to
        # the run twice, one request right after the other
        recording = Recording(clf)
        new_corners = []
        real_corner = monoxp.enumeration._Memo.corner

        def corner(memo, point):
            new = point.values not in memo._cache
            before = len(recording.asked)
            label = real_corner(memo, point)
            assert recording.asked[before:] == [point.values] * (2 if new else 1)
            if new:
                new_corners.append(point.values)
            return label

        monkeypatch.setattr(monoxp.enumeration._Memo, "corner", corner)
        assert enumerate_explanations(v, recording).complete
        assert new_corners
