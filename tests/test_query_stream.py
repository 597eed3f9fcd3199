"""The exact stream of oracle queries and results, pinned by digest.

Each digest is the first 16 hex digits of the sha256 of the repr of what a
run asked and returned: every point that reached the oracle, in order, the
explanations in the order they came out and, for an enumeration, its
`sat_calls`, `complete` and the DIMACS text of its blocking formula. A
change to how the explainer or the loop builds its corners, explanations or
clauses must leave every digest as it is: the same points asked in the same
order give the same results.
"""

import hashlib
import random

import pytest
from conftest import Recording, _draw_appendix_cnf

from monoxp import (
    ClassOrder,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    LinearThresholdClassifier,
    Point,
    enumerate_explanations,
    find_axp,
    find_cxp,
    to_dimacs,
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _enumeration_trace(clf, v, default_polarity):
    recording = Recording(clf)
    stream = []
    report = enumerate_explanations(v, recording, default_polarity=default_polarity, callback=stream.append)
    explanations = [(e.kind.value, e.sorted_features()) for e in stream]
    return recording.asked, explanations, report.sat_calls, report.complete, to_dimacs(report.formula)


# Per seed of `_draw_appendix_cnf(random.Random(seed), k)`: the digest of the
# four runs at the all-zeros and all-ones corners, each at default_polarity
# 0 and 1.
_CNF_DIGESTS = {
    0: "9319f7ee6954153d",
    1: "c711cd44b22279fd",
    2: "078925b33b9d7a2e",
    3: "d568da5946633c91",
    4: "cecd7415457df8cb",
    5: "381ec5c715291e9d",
    6: "6480a9a705378d5d",
    7: "f148fe2f6845f7f6",
    8: "078925b33b9d7a2e",
    9: "3e43c4f4d32d54f1",
    10: "c711cd44b22279fd",
    11: "d10a993160e59a1e",
    12: "6480a9a705378d5d",
    13: "ee5fb0263caffdc3",
    14: "5eeae3f6f604d8c8",
    15: "b33604f2b94adebd",
    16: "40bc10065f3ce063",
    17: "e72590d984196bab",
    18: "9c4917f3ea9d2b9b",
    19: "c86c349744f280f0",
}


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_query_stream_as_pinned(seed):
    k = 5 + seed % 3
    clf = _draw_appendix_cnf(random.Random(seed), k)
    runs = [
        _enumeration_trace(clf, Point((corner,) * (2 * k)), polarity)
        for corner in (0, 1)
        for polarity in (0, 1)
    ]
    assert all(complete for *_, complete, _ in runs)
    assert _digest(runs) == _CNF_DIGESTS[seed]


def _wide_linear(rng, features=100, rows=20):
    """A linear model over `features` reals in [0, 10] with three classes,
    its thresholds at the score terciles of `rows` random rows."""
    weights = [round(rng.uniform(0.5, 1.5), 3) for _ in range(features)]
    points = [Point(tuple(round(rng.uniform(0, 10), 3) for _ in range(features))) for _ in range(rows)]
    scores = sorted(sum(w * x for w, x in zip(weights, p.values)) for p in points)
    space = FeatureSpace(tuple(FeatureDomain("real", 0, 10) for _ in range(features)))
    thresholds = [scores[rows // 3], scores[2 * rows // 3]]
    return LinearThresholdClassifier(space, weights, thresholds, ClassOrder(("low", "mid", "high"))), points


@pytest.mark.parametrize(
    "reverse, expected",
    [(False, "7b0545a7bfa48473"), (True, "86d576f51cd454aa")],
    ids=["default-order", "reversed-order"],
)
def test_explainer_query_stream_as_pinned(reverse, expected):
    clf, rows = _wide_linear(random.Random(21))
    order = list(reversed(clf.space.features)) if reverse else None
    recording = Recording(clf)
    found = []
    for v in rows:
        for find in (find_axp, find_cxp):
            expl = find(v, recording, order=order)
            found.append((expl.kind.value, expl.sorted_features()))
    assert len(set(map(clf.classify, rows))) == 3
    assert _digest((recording.asked, found)) == expected


def test_grade_query_stream_as_pinned():
    grade = GradeClassifier()
    v = Point((10, 10, 5, 0))
    runs = [_enumeration_trace(grade, v, polarity) for polarity in (0, 1)]
    recording = Recording(grade)
    found = [find(v, recording, order=order) for order in (None, [4, 3, 2, 1]) for find in (find_axp, find_cxp)]
    runs.append((recording.asked, [(e.kind.value, e.sorted_features()) for e in found]))
    assert _digest(runs) == "c0ccb7918ad2c1cb"
