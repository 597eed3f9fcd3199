import copy
import dataclasses
import enum
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    boolean_space,
    logged_requests,
    logging_grade_oracle,
    point_leq,
    random_monotone_dnf,
    semantic_axp,
    semantic_cxp,
)

from monoxp import (
    AppendixCnfClassifier,
    ClassifierOracle,
    ClassOrder,
    Explanation,
    ExplanationKind,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    NoCxpExists,
    Point,
    corner_points,
    enumerate_explanations,
    find_axp,
    find_cxp,
    verify_axp,
    verify_cxp,
)
from monoxp.domain import _corner, _explanation


class TestFeatureDomain:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            FeatureDomain("integer", 3, 1)

    def test_boolean_bounds_are_zero_one(self):
        with pytest.raises(ValueError):
            FeatureDomain("boolean", 0, 2)

    def test_integer_bounds_must_be_integral(self):
        with pytest.raises(ValueError):
            FeatureDomain("integer", 0.5, 2)

    def test_real_bounds_must_be_finite(self):
        with pytest.raises(ValueError):
            FeatureDomain("real", 0, float("inf"))
        with pytest.raises(ValueError):
            FeatureDomain("real", float("nan"), 1)

    def test_bounds_must_fit_in_a_float(self):
        for kind, lower, upper in (("integer", 0, 10**400), ("real", -(10**400), 0)):
            with pytest.raises(ValueError, match="fit in a float"):
                FeatureDomain(kind, lower, upper)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            FeatureDomain("categorical", 0, 1)

    def test_contains(self):
        dom = FeatureDomain("integer", 0, 5)
        assert dom.contains(3) and not dom.contains(2.5) and not dom.contains(6)


class TestSpaceAndPoints:
    def test_space_needs_features(self):
        with pytest.raises(ValueError):
            FeatureSpace(())

    def test_point_needs_coordinates(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            Point(())

    def test_names_length_checked(self):
        with pytest.raises(ValueError):
            FeatureSpace((FeatureDomain("boolean", 0, 1),), ("a", "b"))

    def test_validate_point(self):
        space = FeatureSpace((FeatureDomain("integer", 0, 5), FeatureDomain("real", 0, 1)))
        space.validate_point(Point((2, 0.25)))
        with pytest.raises(ValueError):
            space.validate_point(Point((2,)))
        with pytest.raises(ValueError):
            space.validate_point(Point((6, 0.5)))
        with pytest.raises(ValueError):
            space.validate_point(Point((1.5, 0.5)))

    def test_validate_point_hands_back_the_point_it_checked(self):
        space = FeatureSpace((FeatureDomain("integer", 0, 5), FeatureDomain("real", 0, 1)))
        for corner in corner_points(space, Point((2, 0.25)), {1}):
            assert space.validate_point(corner) is corner
        v = Point((2, 0.25))
        checked = space.validate_point(v)
        assert type(checked) is Point and checked == v and checked is not v
        assert [(type(x), x) for x in checked.values] == [(int, 2), (float, 0.25)]
        assert hash(checked) == hash(v) and repr(checked) == repr(v)
        # an equal space checks it in full and hands back its own point
        twin = FeatureSpace(space.domains)
        again = twin.validate_point(checked)
        assert again == v and again is not checked and twin.validate_point(again) is again
        # the space takes its point without a check: with its domains gone,
        # that point still passes, and the caller's point no longer does
        object.__setattr__(space, "domains", ())
        assert space.validate_point(checked) is checked
        with pytest.raises(ValueError, match="^point arity 2 differs from space arity 0$"):
            space.validate_point(v)

    def test_validate_features(self):
        space = boolean_space(3)
        assert space.validate_features([3, 1]) == frozenset({1, 3})
        with pytest.raises(ValueError):
            space.validate_features([0])
        with pytest.raises(ValueError):
            space.validate_features([4])
        # a float or a bool passes a range check, but is no index
        for bad in (1.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                space.validate_features([2, bad])


def _reference_validate(space, point):
    """The per-coordinate check: the arity, then FeatureDomain.contains on
    each coordinate in turn."""
    if len(point.values) != space.arity:
        raise ValueError(f"point arity {len(point.values)} differs from space arity {space.arity}")
    for i, (value, dom) in enumerate(zip(point.values, space.domains), start=1):
        if not dom.contains(value):
            raise ValueError(f"coordinate {i} value {value!r} outside {dom.kind} domain [{dom.lower}, {dom.upper}]")


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


_BOUND = st.one_of(st.integers(-3, 3), st.integers(-3, 3).map(float))
_DOMAINS = st.one_of(
    st.just(FeatureDomain("boolean", 0, 1)),
    st.just(FeatureDomain("boolean", 0.0, 1.0)),
    st.tuples(_BOUND, st.integers(0, 3)).map(lambda t: FeatureDomain("integer", t[0], t[0] + t[1])),
    st.tuples(_BOUND, st.floats(0, 4)).map(lambda t: FeatureDomain("real", t[0], t[0] + t[1])),
)


def _inside(dom):
    """A value of `dom`, as an int, a float or (boolean) a bool."""
    if dom.kind == "real":
        return st.one_of(st.floats(dom.lower, dom.upper), st.sampled_from([dom.lower, dom.upper]))
    values = st.integers(int(dom.lower), int(dom.upper))
    return st.one_of(values, values.map(float), *([st.booleans()] if dom.kind == "boolean" else []))


def _outside(dom):
    """A value around `dom` that may break it: just outside, non-integral,
    NaN, infinite, or of no number type."""
    return st.one_of(
        st.sampled_from([dom.lower - 1, dom.upper + 1, dom.lower + 0.5, dom.upper - 0.5]),
        st.floats(-5, 8),
        st.sampled_from([math.nan, math.inf, -math.inf, "1", None]),
    )


class TestOnePassValidation:
    """validate_point checks a point in compiled passes, one per condition;
    these pin it to the per-coordinate reference, message for message."""

    @given(st.lists(_DOMAINS, min_size=1, max_size=5), st.sampled_from([0, 0, 0, 0, -1, 1]), st.data())
    def test_same_decision_and_message_as_the_reference(self, domains, arity_change, data):
        space = FeatureSpace(tuple(domains))
        cycle = (domains * 2)[: max(1, space.arity + arity_change)]
        values = [data.draw(_inside(dom)) for dom in cycle]
        # up to two coordinates replaced, so that the first bad one must be named
        for i in data.draw(st.lists(st.integers(0, len(values) - 1), max_size=2)):
            values[i] = data.draw(_outside(cycle[i]))
        point = Point(tuple(values))
        assert _outcome(space.validate_point, point) == _outcome(_reference_validate, space, point)

    @pytest.mark.parametrize("values", [(6, "1"), (0.5, None), (math.nan, "1"), ("1", 6)])
    def test_first_bad_coordinate_wins_over_a_later_type_error(self, values):
        # the compiled passes can stop on a later coordinate's TypeError; the
        # error must still be the per-coordinate loop's, for the first bad one
        space = FeatureSpace((FeatureDomain("integer", 0, 5), FeatureDomain("integer", 0, 5)))
        expected = _outcome(_reference_validate, space, Point(values))
        assert expected is not None and _outcome(space.validate_point, Point(values)) == expected

    @pytest.mark.parametrize("kinds", [("real",) * 3, ("integer",) * 3, ("boolean", "integer", "real")])
    def test_space_copies_after_validation(self, kinds):
        space = FeatureSpace(tuple(FeatureDomain(kind, 0, 1) for kind in kinds), ("a", "b", "c"))
        space.validate_point(Point((1, 0, 1)))
        for twin in (pickle.loads(pickle.dumps(space)), copy.deepcopy(space), FeatureSpace(space.domains, ("a", "b", "c"))):
            assert twin == space and hash(twin) == hash(space) and repr(twin) == repr(space)
            twin.validate_point(Point((1, 0, 1)))
            with pytest.raises(ValueError, match="coordinate 2 value 2 outside"):
                twin.validate_point(Point((1, 2, 1)))


class _Index(enum.IntEnum):
    ONE = 1


def _reference_validate_features(space, features):
    """validate_features as it was before its fast path: every index an int
    and no bool, then every index in 1..N."""
    out = frozenset(features)
    bad = [i for i in out if not (isinstance(i, int) and not isinstance(i, bool))]
    if bad:
        raise ValueError(f"feature indices must be integers, got {bad[0]!r}")
    bad = [i for i in out if not (1 <= i <= space.arity)]
    if bad:
        raise ValueError(f"feature indices out of range 1..{space.arity}: {sorted(bad)}")
    return out


def _features_outcome(validate, space, container, indices):
    """The set returned, element types included, or the exception's type and message."""
    features = {"set": set, "list": list, "generator": lambda xs: (x for x in xs)}[container](indices)
    try:
        out = validate(space, features)
    except Exception as exc:
        return type(exc), str(exc)
    return out, sorted((type(i).__name__, i) for i in out)


class TestFeaturesFastPath:
    """validate_features accepts plain in-range ints in two set tests and
    sends anything else through the per-index checks: the same set, or the
    same exception and message, as the per-index body alone."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 20), st.sampled_from(["set", "list", "generator"]), st.data())
    def test_same_result_as_the_per_index_body(self, n, container, data):
        space = boolean_space(n)
        odd = st.sampled_from([0, n + 1, -1, -7, True, False, 1.0, _Index.ONE, "1", None])
        # mostly in-range indices, so that both paths are taken often
        index = st.one_of(st.integers(1, n), st.integers(1, n), st.integers(1, n), odd)
        indices = data.draw(st.lists(index, max_size=2 * n))
        indices += data.draw(st.lists(st.sampled_from(indices), max_size=3)) if indices else []  # duplicates
        expected = _features_outcome(_reference_validate_features, space, container, indices)
        assert _features_outcome(FeatureSpace.validate_features, space, container, indices) == expected


def _reference_validate_order(space, order):
    """validate_order as it was before its fast path: every entry an int and
    no bool, then a permutation of 1..N."""
    out = tuple(order)
    bad = [i for i in out if not (isinstance(i, int) and not isinstance(i, bool))]
    if bad:
        raise ValueError(f"order entries must be integers, got {bad[0]!r}")
    if len(out) != space.arity or set(out) != set(range(1, space.arity + 1)):
        raise ValueError(f"order must be a permutation of 1..{space.arity}")
    return out


def _order_outcome(validate, space, order):
    """The tuple returned, entry types included, or the exception's type and message."""
    try:
        out = validate(space, order)
    except Exception as exc:
        return type(exc), str(exc)
    return out, [type(i).__name__ for i in out]


class TestOrderFastPath:
    """validate_order accepts a permutation of plain ints in two set tests
    and sends anything else through the per-entry checks, whose messages
    stay as they were."""

    @pytest.mark.parametrize(
        "order, message",
        [
            ((True, 2, 3), "order entries must be integers, got True"),
            ((1.0, 2, 3), "order entries must be integers, got 1.0"),
            ((1, 1, 2), "order must be a permutation of 1..3"),
            ((1, 2), "order must be a permutation of 1..3"),
            ((1, 2, 3, 1), "order must be a permutation of 1..3"),
            ((1, 2, 4), "order must be a permutation of 1..3"),
        ],
        ids=["bool", "float", "repeat", "too-short", "too-long", "out-of-range"],
    )
    def test_each_rejection_keeps_its_message(self, order, message):
        with pytest.raises(ValueError) as caught:
            boolean_space(3).validate_order(order)
        assert str(caught.value) == message

    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_same_result_as_the_per_entry_body(self, n, data):
        space = boolean_space(n)
        order = data.draw(st.permutations(range(1, n + 1)))
        odd = st.sampled_from([0, n + 1, -1, True, False, 1.0, float(n), _Index.ONE, "1", None])
        # mostly permutations, so that both paths are taken often
        for _ in range(data.draw(st.integers(0, 2))):
            if not order:
                break
            at = data.draw(st.integers(0, len(order) - 1))
            edit = data.draw(st.sampled_from(["replace", "repeat", "drop"]))
            if edit == "replace":
                order[at] = data.draw(odd)
            elif edit == "repeat":
                order.insert(at, order[at])
            else:
                del order[at]
        expected = _order_outcome(_reference_validate_order, space, order)
        assert _order_outcome(FeatureSpace.validate_order, space, order) == expected


class TestClassOrder:
    def test_rank_and_leq(self):
        order = ClassOrder(("F", "E", "D"))
        assert order.rank("F") == 0 and order.rank("D") == 2

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            ClassOrder(("a", "b")).rank("c")

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ClassOrder(("a", "a"))

    def test_needs_a_label(self):
        with pytest.raises(ValueError, match="at least one label"):
            ClassOrder(())


class TestExplanationType:
    def test_empty_cxp_rejected(self):
        with pytest.raises(ValueError):
            Explanation(ExplanationKind.CXP, frozenset())

    def test_empty_axp_allowed(self):
        assert Explanation(ExplanationKind.AXP, frozenset()).features == frozenset()

    def test_indices_positive(self):
        with pytest.raises(ValueError):
            Explanation(ExplanationKind.AXP, frozenset({0}))

    @pytest.mark.parametrize("features", [{True, 2}, {True}, {1.0}, {"1"}])
    def test_indices_are_ints(self, features):
        # the rule FeatureSpace.validate_features applies: True is no index
        with pytest.raises(ValueError):
            Explanation(ExplanationKind.AXP, features)

    def test_value_semantics(self):
        expl = Explanation(ExplanationKind.CXP, {2, 3})
        for twin in (pickle.loads(pickle.dumps(expl)), copy.deepcopy(expl)):
            assert twin == expl and hash(twin) == hash(expl)
            assert twin.features == frozenset({2, 3})
        with pytest.raises(AttributeError):
            expl.features = frozenset({1})

    @pytest.mark.parametrize(
        "kind, features",
        [
            (ExplanationKind.AXP, frozenset()),
            (ExplanationKind.AXP, frozenset({1, 4, 2})),
            (ExplanationKind.CXP, frozenset({3})),
            (ExplanationKind.CXP, frozenset({1, 4, 2})),
        ],
    )
    def test_the_scan_constructor_makes_the_same_value(self, kind, features):
        public, private = Explanation(kind, features), _explanation(kind, features)
        assert private == public and hash(private) == hash(public) and repr(private) == repr(public)
        for twin in (pickle.loads(pickle.dumps(private)), copy.deepcopy(private)):
            assert twin == public and hash(twin) == hash(public)
            assert type(twin.features) is frozenset and twin.features == features
        assert pickle.dumps(private) == pickle.dumps(public)
        with pytest.raises(AttributeError):
            private.features = frozenset({1})

    def test_the_scan_constructor_refuses_an_empty_cxp(self):
        with pytest.raises(ValueError, match="^a contrastive explanation cannot be empty$"):
            _explanation(ExplanationKind.CXP, frozenset())


class TestPointLeq:
    def test_componentwise_dominance(self):
        assert point_leq(Point((0, 0)), Point((1, 1)))

    def test_incomparable_pair(self):
        assert not point_leq(Point((1, 0)), Point((0, 1)))

    def test_reflexive_on_example(self):
        v = Point((10, 10, 5, 0))
        assert point_leq(v, v)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            point_leq(Point((1,)), Point((1, 2)))

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=6))
    def test_reflexivity(self, values):
        p = Point(tuple(values))
        assert point_leq(p, p)

    @given(st.integers(1, 5), st.data())
    def test_antisymmetry_and_transitivity(self, n, data):
        draw = lambda: Point(tuple(data.draw(st.integers(0, 3)) for _ in range(n)))
        a, b, c = draw(), draw(), draw()
        if point_leq(a, b) and point_leq(b, a):
            assert a == b
        if point_leq(a, b) and point_leq(b, c):
            assert point_leq(a, c)


class TestCornerPoints:
    def test_grade_partial_fix(self, grade):
        low, up = corner_points(grade.space, Point((10, 10, 5, 0)), {1, 2})
        assert low == Point((10, 10, 0, 0))
        assert up == Point((10, 10, 10, 10))

    def test_all_fixed(self, grade):
        v = Point((10, 10, 5, 0))
        assert corner_points(grade.space, v, {1, 2, 3, 4}) == (v, v)

    def test_all_free(self, grade):
        low, up = corner_points(grade.space, Point((10, 10, 5, 0)), set())
        assert low == Point((0, 0, 0, 0))
        assert up == Point((10, 10, 10, 10))

    def test_brackets_the_instance(self, grade):
        v = Point((3, 7, 2, 9))
        for fixed in ({1}, {2, 4}, set()):
            low, up = corner_points(grade.space, v, fixed)
            assert point_leq(low, v) and point_leq(v, up)


class TestVerify:
    def test_grade_axp_pair(self, grade):
        assert verify_axp({1, 2}, Point((10, 10, 5, 0)), grade)

    def test_everything_fixed_is_sufficient(self, grade):
        assert verify_axp({1, 2, 3, 4}, Point((10, 10, 5, 0)), grade)

    def test_majority_single_feature_insufficient(self, majority):
        v = Point((1, 1, 1))
        assert not verify_axp({1}, v, majority)
        assert not semantic_axp({1}, v, majority)

    def test_grade_cxp_single(self, grade):
        assert verify_cxp({2}, Point((10, 10, 5, 0)), grade)

    def test_freeing_nothing_changes_nothing(self, grade):
        assert not verify_cxp(set(), Point((10, 10, 5, 0)), grade)

    def test_majority_pair_changeable(self, majority):
        v = Point((1, 1, 1))
        assert verify_cxp({2, 3}, v, majority)
        assert semantic_cxp({2, 3}, v, majority)


def _all_subsets(features):
    features = list(features)
    for size in range(len(features) + 1):
        yield from (frozenset(c) for c in itertools.combinations(features, size))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_corner_check_matches_exhaustive_semantics(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    clf = random_monotone_dnf(n, rng.randint(1, 4), rng)
    v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
    for subset in _all_subsets(clf.space.features):
        assert verify_axp(subset, v, clf) == semantic_axp(subset, v, clf)
        assert verify_cxp(subset, v, clf) == semantic_cxp(subset, v, clf)


@pytest.mark.parametrize("seed", [3, 4, 5, 6])
def test_fixed_free_dichotomy(seed):
    # for every split, exactly one of the two conditions holds
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    clf = random_monotone_dnf(n, rng.randint(1, n), rng)
    v = Point(tuple(rng.randint(0, 1) for _ in range(n)))
    everything = frozenset(clf.space.features)
    for subset in _all_subsets(everything):
        assert verify_axp(subset, v, clf) == (not verify_cxp(everything - subset, v, clf))


def test_dichotomy_on_integer_domains():
    from monoxp import ClassOrder, FeatureSpace, FeatureDomain, LinearThresholdClassifier

    space = FeatureSpace(tuple(FeatureDomain("integer", 0, 2) for _ in range(3)))
    clf = LinearThresholdClassifier(space, [1, 2, 1], [2.5, 5.5], ClassOrder(("lo", "mid", "hi")))
    v = Point((2, 1, 0))
    everything = frozenset(space.features)
    for subset in _all_subsets(everything):
        assert verify_axp(subset, v, clf) == (not verify_cxp(everything - subset, v, clf))
        assert verify_axp(subset, v, clf) == semantic_axp(subset, v, clf)


class PointRecorder(ClassifierOracle):
    """Keeps every point it is asked, as asked, then asks the inner model."""

    def __init__(self, inner):
        self.inner = inner
        self.space = inner.space
        self.classes = inner.classes
        self.points = []

    def classify(self, point):
        self.points.append(point)
        return self.inner.classify(point)


def _member(dom):
    """A value of `dom` as `_inside` draws it or, in a real domain, an int."""
    if dom.kind == "real" and math.ceil(dom.lower) <= math.floor(dom.upper):
        return st.one_of(_inside(dom), st.integers(math.ceil(dom.lower), math.floor(dom.upper)))
    return _inside(dom)


@settings(max_examples=200, deadline=None)
@given(st.lists(_DOMAINS, min_size=1, max_size=4), st.data())
def test_every_point_sent_to_an_oracle_lies_in_its_space(domains, data):
    # the corners the library builds skip the oracle's check, so each one
    # must pass the per-coordinate reference, and behave as the plain Point
    space = FeatureSpace(tuple(domains))
    v = Point(tuple(data.draw(_member(dom)) for dom in domains))
    weights = data.draw(st.lists(st.one_of(st.integers(0, 3), st.floats(0, 3)), min_size=space.arity, max_size=space.arity))
    thresholds = sorted(data.draw(st.sets(st.one_of(st.integers(-6, 12), st.floats(-6, 12)), max_size=2)))
    clf = LinearThresholdClassifier(space, weights, thresholds, ClassOrder(("a", "b", "c")[: len(thresholds) + 1]))
    oracle = PointRecorder(clf)
    features = data.draw(st.sets(st.sampled_from(list(space.features))))
    order = data.draw(st.permutations(list(space.features)))
    corners = corner_points(space, v, features)
    find_axp(v, oracle, order=order)
    try:
        find_cxp(v, oracle, order=order)
    except NoCxpExists:
        pass
    verify_axp(features, v, oracle)
    verify_cxp(features, v, oracle)
    enumerate_explanations(v, oracle, order=order)
    assert oracle.points
    for point in oracle.points + list(corners):
        _reference_validate(space, point)
        plain = Point(point.values)
        assert point == plain and plain == point and not point != plain
        assert hash(point) == hash(plain) and repr(point) == repr(plain)
        copied = pickle.loads(pickle.dumps(point))
        assert type(copied) is Point and copied == plain


def _reference_corner_values(space, v, fixed):
    """The corners' values from each FeatureDomain in turn: v's value where
    the feature is fixed, the domain's bound where it is free."""
    low, up = list(v.values), list(v.values)
    for j, dom in enumerate(space.domains):
        if j + 1 not in fixed:
            low[j], up[j] = dom.lower, dom.upper
    return tuple(low), tuple(up)


@settings(max_examples=200, deadline=None)
@given(st.lists(_DOMAINS, min_size=1, max_size=6), st.data())
def test_corners_take_the_domain_bounds_and_the_fixed_values(domains, data):
    # a coordinate's type decides its pipe text (1 goes out as "1", 1.5 as
    # "1.5"), so each must be the very value the reference takes, type and all
    space = FeatureSpace(tuple(domains))
    v = Point(tuple(data.draw(_member(dom)) for dom in domains))
    fixed = data.draw(st.sets(st.sampled_from(list(space.features))))
    corners = corner_points(space, v, fixed)
    for corner, expected in zip(corners, _reference_corner_values(space, v, fixed)):
        assert [(type(x), repr(x)) for x in corner.values] == [(type(x), repr(x)) for x in expected]
        assert type(corner) is Point and corner._space is space


def _bad_points(space):
    """Caller points outside `space`: past a bound, NaN, of no number type,
    non-integral in a discrete domain, one coordinate too many."""
    low = [dom.lower for dom in space.domains]

    def changed(i, value):
        values = list(low)
        values[i] = value
        return Point(tuple(values))

    points = [
        changed(space.arity - 1, space.domains[-1].upper + 1),
        changed(0, space.domains[0].lower - 0.5),
        changed(0, math.nan),
        changed(space.arity - 1, "1"),
        Point(tuple(low) + (space.domains[0].lower,)),
    ]
    points += [changed(j, space.domains[j].lower + 0.5) for j in space._discrete[:1]]
    return points


# every public call that takes a caller's point
_ENTRY_POINTS = {
    "classify": lambda v, clf: clf.classify(v),
    "find_axp": lambda v, clf: find_axp(v, clf),
    "find_cxp": lambda v, clf: find_cxp(v, clf),
    "verify_axp": lambda v, clf: verify_axp({1}, v, clf),
    "verify_cxp": lambda v, clf: verify_cxp({1}, v, clf),
    "corner_points": lambda v, clf: corner_points(clf.space, v, {1}),
    "enumerate_explanations": lambda v, clf: enumerate_explanations(v, clf),
}

_MODELS = {
    "grade": GradeClassifier,
    "linear": lambda: LinearThresholdClassifier(
        FeatureSpace((FeatureDomain("integer", 0, 3), FeatureDomain("real", 0, 1), FeatureDomain("integer", 1.0, 4.0))),
        [1, 2, 0.5],
        [2, 4],
        ClassOrder(("lo", "mid", "hi")),
    ),
    "monotone-dnf": lambda: MonotoneDnfClassifier(boolean_space(3), [[1, 2], [3]]),
    "appendix-cnf": lambda: AppendixCnfClassifier(boolean_space(4), [[1, -2], [2]]),
}


class TestValidationAtTheBoundary:
    """A point a caller builds is checked on every public path, with the
    per-coordinate check's exception type and message; a corner the library
    builds is trusted only by the space object that built it."""

    @pytest.mark.parametrize("model", sorted(_MODELS))
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_a_caller_point_outside_the_space_is_rejected(self, model, entry):
        clf = _MODELS[model]()
        for point in _bad_points(clf.space):
            expected = _outcome(_reference_validate, clf.space, point)
            assert expected is not None
            assert _outcome(_ENTRY_POINTS[entry], point, clf) == expected

    def test_no_request_outside_the_space_reaches_a_child(self, tmp_path):
        log = tmp_path / "requests.log"
        with logging_grade_oracle(log) as oracle:
            oracle.classify(Point((1, 2, 3, 4)))
            for entry in _ENTRY_POINTS.values():
                for point in _bad_points(oracle.space):
                    assert _outcome(entry, point, oracle) == _outcome(_reference_validate, oracle.space, point)
        assert logged_requests(log) == ["1,2,3,4\n"]

    def test_a_corner_of_an_equal_space_is_checked_in_full(self):
        space = FeatureSpace((FeatureDomain("integer", 0, 3),) * 3)
        twin = FeatureSpace(space.domains)
        assert twin == space and twin is not space
        clf = LinearThresholdClassifier(twin, [1, 1, 1], [4], ClassOrder(("lo", "hi")))
        low, up = corner_points(space, Point((1, 2, 3)), {2})
        assert (clf.classify(low), clf.classify(up)) == ("lo", "hi")
        # a corner outside the space it names: only that very space object
        # takes it unchecked, so an equal one finds the bad coordinate
        forged = _corner((1, 4, 3), space)
        space.validate_point(forged)
        assert _outcome(clf.classify, forged) == (ValueError, "coordinate 2 value 4 outside integer domain [0, 3]")
        # a corner with new values is a caller's point, checked everywhere
        moved = dataclasses.replace(low, values=(1, 4, 3))
        assert _outcome(space.validate_point, moved) == _outcome(clf.classify, forged)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.copy, copy.deepcopy, lambda point: pickle.loads(pickle.dumps(point))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_a_copy_of_a_corner_is_a_caller_point(self, duplicate):
        space = FeatureSpace((FeatureDomain("integer", 0, 3),) * 3)
        forged = _corner((1, 4, 3), space)
        space.validate_point(forged)
        copied = duplicate(forged)
        assert type(copied) is Point and copied == Point((1, 4, 3))
        assert _outcome(space.validate_point, copied) == (ValueError, "coordinate 2 value 4 outside integer domain [0, 3]")
        # so is a copy of a point validate_point handed back: the space
        # checks it and hands back a point of its own, not the copy
        checked = space.validate_point(Point((1, 2, 3)))
        assert space.validate_point(checked) is checked
        copied = duplicate(checked)
        assert type(copied) is Point and copied == checked
        again = space.validate_point(copied)
        assert again == checked and again is not copied and again is not checked

    def test_a_corner_is_frozen(self):
        space = FeatureSpace((FeatureDomain("integer", 0, 3),) * 3)
        low, _ = corner_points(space, Point((1, 2, 3)), {2})
        for name, value in (("values", (0, 0, 0)), ("_space", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(low, name, value)
        assert low.values == (0, 2, 0) and low._space is space

    def test_a_corner_handed_to_a_narrower_space_raises(self):
        wide = FeatureSpace((FeatureDomain("integer", 0, 5),) * 3)
        narrow = FeatureSpace((FeatureDomain("integer", 0, 3),) * 3)
        clf = LinearThresholdClassifier(narrow, [1, 1, 1], [4], ClassOrder(("lo", "hi")))
        low, up = corner_points(wide, Point((1, 2, 3)), {2})
        assert clf.classify(low) == "lo"
        with pytest.raises(ValueError, match=r"^coordinate 1 value 5 outside integer domain \[0, 3\]$"):
            clf.classify(up)
