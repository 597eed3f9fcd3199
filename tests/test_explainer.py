import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    assert_subset_minimal,
    boolean_space,
    logged_requests,
    logging_grade_oracle,
    random_monotone_dnf,
    request_lines,
)

from monoxp import (
    ClassifierOracle,
    ClassOrder,
    CountingOracle,
    ExplanationKind,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    NoCxpExists,
    Point,
    SeedBreaksInvariant,
    brute_force_explanations,
    enumerate_explanations,
    find_axp,
    find_cxp,
    verify_axp,
    verify_cxp,
)


class RecordingOracle(ClassifierOracle):
    """Passes every query through and keeps the points asked, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.classes = inner.classes
        self.points = []

    def classify(self, point):
        self.points.append(point.values)
        return self.inner.classify(point)


# Every point the scan asks on the grade example with order 1,2,3,4. An AXp
# scan takes v's label from its starting lower corner, which is v itself
# when the seed is empty; a CXp scan asks v. A corner is asked only while
# its label is unknown: v's label A is the top class, so no upper corner is
# asked, and a step that leaves a corner's coordinate as it was, as feature
# 4 at its lower bound 0 does, keeps that corner's label. An AXp scan widens
# feature i to [0, 10] and pins it back when picked; a CXp scan pins feature
# i to v and widens it back when picked.
GRADE_QUERIES = [
    (find_axp, set(), {1, 2}, [
        (10, 10, 5, 0),
        (0, 10, 5, 0),
        (10, 0, 5, 0),
        (10, 10, 0, 0),
    ]),
    (find_axp, {3, 4}, {1, 2}, [
        (10, 10, 0, 0),
        (0, 10, 0, 0),
        (10, 0, 0, 0),
    ]),
    (find_cxp, set(), {2}, [
        (10, 10, 5, 0),
        (0, 0, 0, 0),
        (10, 0, 0, 0),
        (10, 10, 0, 0),
        (10, 0, 5, 0),
    ]),
    (find_cxp, {2}, {1}, [
        (10, 10, 5, 0),
        (0, 10, 0, 0),
        (10, 10, 0, 0),
        (0, 10, 5, 0),
    ]),
]


@pytest.mark.parametrize("find,seed,expected,queries", GRADE_QUERIES, ids=["axp", "axp-seed", "cxp", "cxp-seed"])
def test_grade_scan_queries(grade, find, seed, expected, queries):
    oracle = RecordingOracle(grade)
    expl = find(Point((10, 10, 5, 0)), oracle, seed=seed, order=(1, 2, 3, 4))
    assert expl.features == expected
    assert oracle.points == queries


# Every point that reaches the oracle when the grade example is enumerated
# with order 1,2,3,4: v, asked once through the run's memo, then per SAT
# model the loop's corners, asked past the memo, lower first and the upper
# one only if the lower carries v's label, then the explainer's queries the
# memo has not answered before.
GRADE_ENUMERATION_QUERIES = [
    (1, [
        (10, 10, 5, 0),
        # all free: the lower corner differs, CXp {2}
        (0, 0, 0, 0),
        (0, 0, 0, 0), (10, 0, 0, 0), (10, 10, 0, 0), (10, 0, 5, 0),
        # feature 2 fixed: CXp {1}
        (0, 10, 0, 0),
        (0, 10, 0, 0), (0, 10, 5, 0),
        # features 1 and 2 fixed: the corners agree, AXp {1, 2}; no scan
        # asked the upper corner, so the start check asks it again
        (10, 10, 0, 0), (10, 10, 10, 10),
        (10, 10, 10, 10),
    ]),
    (0, [
        (10, 10, 5, 0),
        # all fixed: the corners agree, AXp {1, 2}
        (10, 10, 5, 0), (10, 10, 5, 0),
        (0, 10, 5, 0), (10, 0, 5, 0), (10, 10, 0, 0),
        # feature 2 free: CXp {2}, all from the memo
        (10, 0, 5, 0),
        # feature 1 free: CXp {1}, all from the memo
        (0, 10, 5, 0),
    ]),
]


@pytest.mark.parametrize("polarity,queries", GRADE_ENUMERATION_QUERIES, ids=["polarity-1", "polarity-0"])
def test_grade_enumeration_queries(grade, polarity, queries):
    oracle = RecordingOracle(grade)
    report = enumerate_explanations(Point((10, 10, 5, 0)), oracle, order=(1, 2, 3, 4), default_polarity=polarity)
    assert report.axp_sets() == {frozenset({1, 2})}
    assert report.cxp_sets() == {frozenset({1}), frozenset({2})}
    assert oracle.points == queries


@pytest.mark.parametrize("find,seed,expected,queries", GRADE_QUERIES, ids=["axp", "axp-seed", "cxp", "cxp-seed"])
def test_grade_scan_requests_over_a_pipe(tmp_path, find, seed, expected, queries):
    # the child must receive the same requests, in the same order
    log = tmp_path / "requests.log"
    with logging_grade_oracle(log) as oracle:
        expl = find(Point((10, 10, 5, 0)), oracle, seed=seed, order=(1, 2, 3, 4))
    assert expl.features == expected
    assert logged_requests(log) == request_lines(queries)


@pytest.mark.parametrize("polarity,queries", GRADE_ENUMERATION_QUERIES, ids=["polarity-1", "polarity-0"])
def test_grade_enumeration_requests_over_a_pipe(tmp_path, polarity, queries):
    log = tmp_path / "requests.log"
    with logging_grade_oracle(log) as oracle:
        report = enumerate_explanations(Point((10, 10, 5, 0)), oracle, order=(1, 2, 3, 4), default_polarity=polarity)
    assert report.axp_sets() == {frozenset({1, 2})}
    assert report.cxp_sets() == {frozenset({1}), frozenset({2})}
    assert report.oracle_calls == len(queries)
    assert logged_requests(log) == request_lines(queries)


def test_a_cxp_scan_stops_asking_lower_corners_once_a_kept_box_carries_the_label():
    # score a+b+c+d over [0, 2]^4: "lo" below 2, "mid" below 5, then "hi";
    # v scores 4, "mid", so neither end of the class order decides a corner
    space = FeatureSpace(tuple(FeatureDomain("integer", 0, 2) for _ in range(4)))
    oracle = RecordingOracle(LinearThresholdClassifier(space, [1] * 4, [2, 5], ClassOrder(("lo", "mid", "hi"))))
    v = Point((1, 1, 1, 1))
    expl = find_cxp(v, oracle, order=(1, 2, 3, 4))
    assert expl.features == {4}
    # v; the lower start corner differs; pinning 1 keeps a box whose lower
    # corner differs; pinning 2 keeps one whose lower corner carries "mid"
    # and whose upper one differs; from then on only upper corners
    assert oracle.points == [
        (1, 1, 1, 1),
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (1, 1, 0, 0), (1, 1, 2, 2),
        (1, 1, 1, 2),
        (1, 1, 1, 1),
    ]


class TestFindAxp:
    def test_grade_running_example(self, grade):
        expl = find_axp(Point((10, 10, 5, 0)), grade, order=(1, 2, 3, 4))
        assert expl.kind is ExplanationKind.AXP
        assert expl.features == {1, 2}

    def test_constant_classifier_gives_empty_axp(self, constant):
        expl = find_axp(Point((0, 0)), constant)
        assert expl.features == frozenset()

    def test_majority(self, majority):
        expl = find_axp(Point((1, 1, 1)), majority, order=(1, 2, 3))
        assert expl.features == {2, 3}
        axps, _ = brute_force_explanations(Point((1, 1, 1)), majority)
        assert expl.features in axps

    def test_seed_is_excluded_and_result_valid(self, grade):
        v = Point((10, 10, 5, 0))
        expl = find_axp(v, grade, seed={3, 4})
        assert expl.features == {1, 2}
        assert not expl.features & {3, 4}

    def test_breaking_seed_raises(self, grade):
        with pytest.raises(SeedBreaksInvariant):
            find_axp(Point((10, 10, 5, 0)), grade, seed={1, 2})

    def test_order_must_be_permutation(self, grade):
        with pytest.raises(ValueError):
            find_axp(Point((10, 10, 5, 0)), grade, order=(1, 2))
        with pytest.raises(ValueError):
            find_axp(Point((10, 10, 5, 0)), grade, order=(1, 2, 3, 3))
        for bad in (1.0, True, "1"):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                find_axp(Point((10, 10, 5, 0)), grade, order=(bad, 2, 3, 4))

    def test_call_count_as_pinned_and_within_the_bound(self, grade):
        # v's label is the top class: v once, then one call per feature
        # whose lower bound is not v's value
        counting = CountingOracle(grade)
        find_axp(Point((10, 10, 5, 0)), counting)
        assert counting.call_count == 4 <= 4 + 2
        counting = CountingOracle(grade)
        find_axp(Point((10, 10, 5, 0)), counting, seed={3, 4})
        assert counting.call_count == 3 <= 2 * (4 - 2) + 2


class TestFindCxp:
    def test_grade_running_example(self, grade):
        expl = find_cxp(Point((10, 10, 5, 0)), grade, order=(1, 2, 3, 4))
        assert expl.kind is ExplanationKind.CXP
        assert expl.features == {2}

    def test_majority(self, majority):
        expl = find_cxp(Point((1, 1, 1)), majority, order=(1, 2, 3))
        assert expl.features == {2, 3}
        _, cxps = brute_force_explanations(Point((1, 1, 1)), majority)
        assert expl.features in cxps

    def test_constant_classifier_has_no_cxp(self, constant):
        with pytest.raises(NoCxpExists):
            find_cxp(Point((0, 0)), constant)

    def test_breaking_seed_raises(self, grade):
        # fixing everything forces the prediction, so no change is possible
        with pytest.raises(SeedBreaksInvariant):
            find_cxp(Point((10, 10, 5, 0)), grade, seed={1, 2, 3, 4})

    def test_seed_is_excluded(self, grade):
        expl = find_cxp(Point((10, 10, 5, 0)), grade, seed={2})
        assert expl.features == {1}

    def test_call_count_bound(self, majority):
        counting = CountingOracle(majority)
        find_cxp(Point((1, 1, 1)), counting)
        # v and the lower start corner, then one call per feature: v's label
        # is the top class, so no upper corner is asked
        assert counting.call_count == 5 <= 3 + 3

    def test_an_oracle_that_changes_its_answer_gets_no_empty_cxp(self):
        # v = (1,) is asked first for its label and again as the box pinned
        # to v, where its flipped answer keeps the scan from picking feature
        # 1: the scan would return an empty CXp, which its constructor refuses
        class FlipVOnSecondAsk(ClassifierOracle):
            def __init__(self, inner):
                self.inner, self.space, self.classes = inner, inner.space, inner.classes
                self.asked = 0

            def classify(self, point):
                label = self.inner.classify(point)
                if point.values == (1,):
                    self.asked += 1
                    if self.asked == 2:
                        return "1" if label == "0" else "0"
                return label

        oracle = FlipVOnSecondAsk(MonotoneDnfClassifier(boolean_space(1), [[1]]))
        with pytest.raises(ValueError, match="^a contrastive explanation cannot be empty$"):
            find_cxp(Point((1,)), oracle)
        assert oracle.asked == 2


class TestEveryOrder:
    def test_majority_all_orders_land_in_the_families(self, majority):
        v = Point((1, 1, 1))
        axps, cxps = brute_force_explanations(v, majority)
        for order in itertools.permutations((1, 2, 3)):
            a = find_axp(v, majority, order=order)
            c = find_cxp(v, majority, order=order)
            assert a.features in axps
            assert c.features in cxps
            assert_subset_minimal(a, v, majority)
            assert_subset_minimal(c, v, majority)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_random_orders(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 7)
        clf = random_monotone_dnf(n, rng.randint(1, n), rng)
        v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
        axps, cxps = brute_force_explanations(v, clf)
        order = list(clf.space.features)
        rng.shuffle(order)
        counting = CountingOracle(clf)
        a = find_axp(v, counting, order=order)
        assert counting.call_count <= 2 * n + 2
        assert a.features in axps
        assert verify_axp(a.features, v, clf)
        assert_subset_minimal(a, v, clf)
        counting = CountingOracle(clf)
        c = find_cxp(v, counting, order=order)
        assert counting.call_count <= 2 * n + 2
        assert c.features in cxps
        assert verify_cxp(c.features, v, clf)
        assert_subset_minimal(c, v, clf)


@st.composite
def _linear_models(draw):
    """Up to four classes over small integer domains; zero weights and
    out-of-reach thresholds make some models constant and some classes unreachable."""
    n = draw(st.integers(1, 5))
    space = FeatureSpace(tuple(FeatureDomain("integer", 0, draw(st.integers(0, 3))) for _ in range(n)))
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    classes = draw(st.integers(1, 4))
    thresholds = sorted(draw(st.sets(st.integers(-2, 50), min_size=classes - 1, max_size=classes - 1)))
    return LinearThresholdClassifier(space, weights, thresholds, ClassOrder(("c0", "c1", "c2", "c3")[:classes]))


@st.composite
def _dnf_models(draw):
    """A monotone DNF over up to six features; the empty DNF included."""
    n = draw(st.integers(1, 6))
    terms = draw(st.lists(st.sets(st.integers(1, n), min_size=1), max_size=4))
    return MonotoneDnfClassifier(boolean_space(n), terms)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_linear_models(), _dnf_models()), st.data())
def test_each_call_stays_within_the_call_bound(clf, data):
    # counted whether the call returns or rejects its seed, as a seed of
    # every feature makes a CXp scan do
    space = clf.space
    v = Point(tuple(data.draw(st.integers(int(d.lower), int(d.upper))) for d in space.domains))
    seed = data.draw(st.sets(st.sampled_from(list(space.features))))
    order = data.draw(st.permutations(list(space.features)))
    for find in (find_axp, find_cxp):
        for start in (frozenset(), seed, frozenset(space.features)):
            counting = CountingOracle(clf)
            try:
                find(v, counting, seed=start, order=order)
            except SeedBreaksInvariant:
                pass
            assert counting.call_count <= 2 * (space.arity - len(start)) + 2


def _grade_value(rng):
    # the grade model reaches its end classes F and A at the edges of the box
    return rng.choice((0, 0.5, 1, 3, 5, 7, 9, 10))


def _bounded_scan_models(rng):
    """A random monotone DNF, a linear model over four classes on small
    integer domains, or the grade model, with a random point of its space."""
    family = rng.randrange(3)
    if family == 0:
        n = rng.randint(1, 7)
        clf = random_monotone_dnf(n, rng.randint(1, n), rng)
    elif family == 1:
        n = rng.randint(1, 6)
        space = FeatureSpace(tuple(FeatureDomain("integer", 0, rng.randint(1, 4)) for _ in range(n)))
        weights = [rng.randint(0, 3) for _ in range(n)]
        reach = sum(w * int(d.upper) for w, d in zip(weights, space.domains))
        thresholds = sorted(rng.sample(range(1, reach + 4), 3))
        clf = LinearThresholdClassifier(space, weights, thresholds, ClassOrder(("c0", "c1", "c2", "c3")))
    else:
        clf = GradeClassifier()
        return clf, Point(tuple(_grade_value(rng) for _ in range(4)))
    return clf, Point(tuple(d.sample(rng) for d in clf.space.domains))


@pytest.mark.parametrize("seed", range(4))
def test_a_scan_at_an_end_of_the_class_order_asks_one_corner_per_feature(seed):
    # v's label at the bottom of the class order decides every lower corner,
    # at the top every upper one: an AXp scan then costs at most N+2 calls,
    # a CXp scan, which asks v first, at most N+3; any scan at most 2N+2,
    # N counting the features outside the seed
    rng = random.Random(seed)
    ends = 0
    for _ in range(150):
        clf, v = _bounded_scan_models(rng)
        features = list(clf.space.features)
        order = rng.sample(features, len(features))
        at_end = clf.classify(v) in (clf.classes.labels[0], clf.classes.labels[-1])
        ends += at_end
        for find, extra in ((find_axp, 2), (find_cxp, 3)):
            for start in (set(), set(rng.sample(features, rng.randint(0, len(features)))), set(features)):
                counting = CountingOracle(clf)
                try:
                    find(v, counting, seed=start, order=order)
                except SeedBreaksInvariant:
                    pass
                n = len(features) - len(start)
                assert counting.call_count <= 2 * n + 2
                if at_end:
                    assert counting.call_count <= n + extra
    assert 0 < ends < 150


@pytest.mark.parametrize(
    "values",
    [(10, 10, 5, 0.0), (10.0, 0.0, 5, 0.0), (0.0, 10, 10.0, 0.0), (2.5, 0.0, 10.0, 0.0)],
    ids=["A", "E", "B", "F"],
)
def test_a_coordinate_equal_to_its_bound_is_not_asked_again(grade, values):
    # the grade features are reals with the integer bounds 0 and 10: v's 0.0
    # equals the bound 0 under ==, as in the run's memo keys, so a step that
    # moves the feature to that bound leaves the corner as it was and keeps
    # its label; no point but v is asked twice, and v is asked again only by
    # a CXp scan whose corner reaches it
    v = Point(values)
    axps, cxps = brute_force_explanations(v, grade)
    for find, family in ((find_axp, axps), (find_cxp, cxps)):
        for order in ((1, 2, 3, 4), (4, 3, 2, 1), (2, 4, 1, 3)):
            oracle = RecordingOracle(grade)
            assert find(v, oracle, order=order).features in family
            assert all(n == 1 for p, n in Counter(oracle.points).items() if p != values)
    oracle = RecordingOracle(grade)
    find_axp(Point((10, 10, 5, 0.0)), oracle, order=(1, 2, 3, 4))
    assert oracle.points == [(10, 10, 5, 0.0), (0, 10, 5, 0.0), (10, 0, 5, 0.0), (10, 10, 0, 0.0)]


def test_an_axp_over_boolean_features_asks_at_most_one_corner_per_feature():
    # on a boolean feature v's value is one of the domain's two bounds, so a
    # step moves one corner only, and an AXp scan's kept boxes have both
    # corners known: at most N+2 calls for any number of classes, N counting
    # the features outside the seed; any scan at most 2N+2, and N+2 when v's
    # label is an end of the class order. A CXp scan may ask both corners in
    # one step, after a step that left its upper corner unasked; a reverted
    # step keeps a corner it left in place known, so the worst costs N+3
    rng = random.Random(0)
    worst_cxp = 0
    for _ in range(3000):
        n = rng.randint(2, 9)
        weights = [rng.randint(1, 3) for _ in range(n)]
        thresholds = sorted(rng.sample(range(1, sum(weights) + 2), 3))
        clf = LinearThresholdClassifier(boolean_space(n), weights, thresholds, ClassOrder(("c0", "c1", "c2", "c3")))
        v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
        features = list(clf.space.features)
        order = rng.sample(features, n)
        at_end = clf.classify(v) in ("c0", "c3")
        for find in (find_axp, find_cxp):
            for seed in (set(), set(rng.sample(features, rng.randint(0, n))), set(features)):
                counting = CountingOracle(clf)
                try:
                    find(v, counting, seed=seed, order=order)
                except SeedBreaksInvariant:
                    pass
                free = n - len(seed)
                assert counting.call_count <= 2 * free + 2
                if find is find_axp or at_end:
                    assert counting.call_count <= free + 2
                else:
                    worst_cxp = max(worst_cxp, counting.call_count - free)
    assert worst_cxp == 3


def test_a_scan_asks_no_point_twice_but_v():
    # a reverted step restores only the corners it moved, so a corner it
    # left in place is not asked again; v may still be asked twice, once
    # for its label and once when a CXp step moves a corner onto it
    rng = random.Random(7)
    queries = 0
    for _ in range(4000):
        n = rng.randint(2, 6)
        space = FeatureSpace(tuple(FeatureDomain("integer", 0, rng.randint(1, 4)) for _ in range(n)))
        weights = [rng.randint(0, 3) for _ in range(n)]
        reach = sum(w * int(d.upper) for w, d in zip(weights, space.domains))
        thresholds = sorted(rng.sample(range(1, reach + 4), 3))
        clf = LinearThresholdClassifier(space, weights, thresholds, ClassOrder(("c0", "c1", "c2", "c3")))
        v = Point(tuple(rng.randint(0, int(d.upper)) for d in space.domains))
        order = rng.sample(list(space.features), n)
        for find in (find_axp, find_cxp):
            oracle = RecordingOracle(clf)
            try:
                find(v, oracle, seed=set(rng.sample(list(space.features), rng.randint(0, n))), order=order)
            except SeedBreaksInvariant:
                pass
            queries += len(oracle.points)
            assert all(k == 1 for p, k in Counter(oracle.points).items() if p != v.values)
    assert queries == 26098
