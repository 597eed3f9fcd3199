"""The exact stream of oracle queries and results, pinned by digest.

Each digest is the first 16 hex digits of the sha256 of the repr of what a
run asked and returned: every point that reached the oracle, in order, the
explanations in the order they came out and, for an enumeration, its
`sat_calls`, `complete` and the DIMACS text of its blocking formula.

Two kinds of digest are pinned here. `_CNF_DIGESTS` and
`_CNF_SORTED_DIGESTS` pin what an enumeration run sends its oracle, once
as asked and once with each run's queries sorted. The run's memo answers
every point the run asked before, so both stay as they are when the
explainer's scan stops asking a point the run already asked, and when the
explainer or the loop changes how it builds its corners, explanations or
clauses; a change that only reorders a run's queries moves the first and
must leave the second. `test_explainer_query_stream_as_pinned` pins direct
`find_axp`/`find_cxp` calls, whose every query reaches the oracle, and
`test_grade_query_stream_as_pinned` two grade runs followed by direct
scans; these move whenever a scan asks a different set of corners.
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
    0: "86cf198b6760a441",
    1: "037d0ee7e00d4516",
    2: "2a3699aaa913d7b4",
    3: "8ded812ec0cb9572",
    4: "8d7c98532909a12f",
    5: "14bec56ad632763d",
    6: "83af54cafce50cdc",
    7: "dfd270657d30200b",
    8: "2a3699aaa913d7b4",
    9: "0b87d52f0123a06e",
    10: "037d0ee7e00d4516",
    11: "ac867fd49145fed4",
    12: "83af54cafce50cdc",
    13: "35b4cc1b08cef321",
    14: "2f514c330e9c540e",
    15: "f6fd12227e8fcd31",
    16: "b3b45fd999eb6fff",
    17: "b23566d089a94e19",
    18: "85f4d061a6955319",
    19: "96d0b2a46dba4dab",
}


def _cnf_runs(seed):
    k = 5 + seed % 3
    clf = _draw_appendix_cnf(random.Random(seed), k)
    runs = [
        _enumeration_trace(clf, Point((corner,) * (2 * k)), polarity)
        for corner in (0, 1)
        for polarity in (0, 1)
    ]
    assert all(complete for *_, complete, _ in runs)
    return runs


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_query_stream_as_pinned(seed):
    assert _digest(_cnf_runs(seed)) == _CNF_DIGESTS[seed]


# The same four runs per seed with each run's queries sorted: a change that
# only reorders the queries a run makes leaves these as they are.
_CNF_SORTED_DIGESTS = {
    0: "0eb640604f0ee3cd",
    1: "0e837d2d4144aeb0",
    2: "64ac55201e136455",
    3: "3d06d0317c65c677",
    4: "e1016296864b99de",
    5: "e65133aca05b2c18",
    6: "57ceb159bded8569",
    7: "fa763f8273260c65",
    8: "64ac55201e136455",
    9: "4f037b4052291e90",
    10: "0e837d2d4144aeb0",
    11: "5691660ff5dbdbf0",
    12: "57ceb159bded8569",
    13: "da054dc80dd05fab",
    14: "d019a5e7525a253d",
    15: "7242cef5c46e3007",
    16: "2c3f79b360a0b53e",
    17: "077db909deaf8976",
    18: "d28869b974b0678c",
    19: "1821d498053383f4",
}


@pytest.mark.parametrize("seed", range(20))
def test_enumeration_queries_as_pinned_in_any_order(seed):
    runs = [(sorted(asked), *rest) for asked, *rest in _cnf_runs(seed)]
    assert _digest(runs) == _CNF_SORTED_DIGESTS[seed]


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
    [(False, "f04aea6059e15c53"), (True, "1e8b7b6e8e188792")],
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
    assert _digest(runs) == "3205aa970424b233"
