"""Boxes, their corner check, and the greedy computation of one abductive
or one contrastive explanation.

A box pins each feature to its value in v or frees it over its whole
domain. For a monotonic oracle the box forces the prediction exactly when
its two corners get the same label: `verify_axp`/`verify_cxp` and the scan
ask both through `classify_pair` and compare the labels. The enumeration
loop builds its boxes with `_box` too. An AXp scan starts from the box
pinned to v and tries to free each feature; a CXp scan starts from the
whole box and tries to pin each feature. Each scanned feature costs exactly
two oracle calls, so a full run costs at most 2N+2 calls including the two
that establish the starting invariant. A corner carries the space that
built it from a validated v, which then does not check it again.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .classifiers import ClassifierOracle, classify_pair
from .domain import Explanation, ExplanationKind, FeatureSpace, Point, _corner


class SeedBreaksInvariant(RuntimeError):
    """The caller-supplied seed already violates the working invariant.

    For an AXp seed this means freeing the seed changes the corner
    predictions; for a CXp seed, fixing it makes them agree. Either way the
    oracle is not monotone or the caller passed a bad seed.
    """


class NoCxpExists(SeedBreaksInvariant):
    """The classifier is constant over the whole box, so no CXp exists.

    This is the empty-seed case of SeedBreaksInvariant for a CXp scan.
    """


def corner_points(space: FeatureSpace, v: Point, fixed: Iterable[int]) -> tuple[Point, Point]:
    """Lower/upper corner of the box where `fixed` features keep v's values.

    Free features range over their whole domain, so the lower corner takes
    the domain minima and the upper corner the maxima.
    """
    return _box(space, space.validate_point(v), space.validate_features(fixed))


def _box(space: FeatureSpace, v: Point, fixed: frozenset[int]) -> tuple[Point, Point]:
    """corner_points for a point and a feature set already validated.

    Each corner starts from the space's bounds and takes v's values at the
    fixed features, so it lies in the space and carries it.
    """
    low, up = list(space._lowers), list(space._uppers)
    for i in fixed:
        low[i - 1] = up[i - 1] = v.values[i - 1]
    return _corner(tuple(low), space), _corner(tuple(up), space)


def verify_axp(features: Iterable[int], v: Point, oracle) -> bool:
    """Does fixing `features` to v's values force the prediction?

    For a monotonic oracle this is decided with two calls, at the corners of
    the box spanned by the free features. Minimality is not checked.
    """
    low_label, up_label = classify_pair(oracle, *corner_points(oracle.space, v, features))
    return low_label == up_label


def verify_cxp(features: Iterable[int], v: Point, oracle) -> bool:
    """Does freeing `features` (rest pinned to v) admit a different prediction?

    Exactly when pinning the rest does not force it: two oracle calls, at
    the corners of the box spanned by the freed features. Minimality is not
    checked.
    """
    freed = oracle.space.validate_features(features)
    return not verify_axp(frozenset(oracle.space.features) - freed, v, oracle)


def _explain(kind: ExplanationKind, v: Point, oracle: ClassifierOracle, seed, order) -> Explanation:
    """find_axp and find_cxp: validate, check the start box, scan toward the target box.

    An AXp scan starts with only the seed free, where the corners must
    agree, and frees features toward the whole box; a CXp scan starts with
    only the seed pinned, where they must differ, and pins features to v.
    A feature whose move changes whether the corners agree is moved back
    and picked.
    """
    space = oracle.space
    space.validate_point(v)
    seed_set = space.validate_features(seed)
    order_seq = tuple(space.features) if order is None else space.validate_order(order)
    everything = space._feature_set
    agree = kind is ExplanationKind.AXP
    start = _box(space, v, everything - seed_set if agree else seed_set)
    low_label, up_label = classify_pair(oracle, *start)
    if (low_label == up_label) != agree:
        if agree:
            raise SeedBreaksInvariant(f"freeing seed {sorted(seed_set)} already changes the prediction")
        if not seed_set:
            raise NoCxpExists("the classifier is constant over the feature space box")
        raise SeedBreaksInvariant(f"fixing seed {sorted(seed_set)} already forces the prediction")
    target_low, target_up = (space._lowers, space._uppers) if agree else (v.values, v.values)
    low, up = list(start[0].values), list(start[1].values)
    picked = set()
    for i in order_seq:
        if i in seed_set:
            continue
        j = i - 1
        was = low[j], up[j]
        low[j], up[j] = target_low[j], target_up[j]
        low_label, up_label = classify_pair(oracle, _corner(tuple(low), space), _corner(tuple(up), space))
        if (low_label == up_label) != agree:
            low[j], up[j] = was
            picked.add(i)
    return Explanation(kind, frozenset(picked))


def find_axp(
    v: Point,
    oracle: ClassifierOracle,
    seed: Iterable[int] = frozenset(),
    order: Optional[Sequence[int]] = None,
) -> Explanation:
    """Compute one subset-minimal abductive explanation for v's prediction.

    Starts from the box pinned to v, frees the seed features, then greedily
    tries to free each remaining candidate in `order`; a feature is kept
    (picked) only when freeing it lets the two corner predictions diverge.
    The result is disjoint from the seed. Raises SeedBreaksInvariant if the
    corner predictions already diverge after freeing the seed alone.
    """
    return _explain(ExplanationKind.AXP, v, oracle, seed, order)


def find_cxp(
    v: Point,
    oracle: ClassifierOracle,
    seed: Iterable[int] = frozenset(),
    order: Optional[Sequence[int]] = None,
) -> Explanation:
    """Compute one subset-minimal contrastive explanation for v's prediction.

    Starts from the whole domain box, fixes the seed features to v, then
    greedily tries to fix each remaining candidate; a feature is kept
    (picked, i.e. left free) only when fixing it makes the two corner
    predictions agree. The result is disjoint from the seed. Raises
    NoCxpExists when the classifier is constant over the box (empty seed),
    and SeedBreaksInvariant when fixing a nonempty seed already equalizes
    the corners.
    """
    return _explain(ExplanationKind.CXP, v, oracle, seed, order)
