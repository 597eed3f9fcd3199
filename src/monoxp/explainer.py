"""Greedy computation of one abductive or one contrastive explanation.

Both procedures are one scan over a box [low, up] in which every feature is
either pinned to its value in v or free over its whole domain. An AXp scan
starts from the box pinned to v and tries to free each feature; a CXp scan
starts from the whole box and tries to pin each feature. A feature whose
move changes whether the two corners get the same prediction is moved back
and picked. Each scanned feature costs exactly two oracle calls, so a full
run costs at most 2N+2 calls including the two that establish the starting
invariant.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .classifiers import ClassifierOracle
from .domain import Explanation, ExplanationKind, Point, corner_points


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


def _prepare(v: Point, oracle: ClassifierOracle, seed: Iterable[int], order: Optional[Sequence[int]]):
    space = oracle.space
    space.validate_point(v)
    seed_set = space.validate_features(seed)
    order_seq = tuple(space.features) if order is None else space.validate_order(order)
    return space, seed_set, order_seq


def _scan(
    oracle: ClassifierOracle,
    start: tuple[Point, Point],
    target: tuple[Point, Point],
    agree: bool,
    seed: frozenset[int],
    order: Sequence[int],
) -> frozenset[int]:
    """Move each non-seed feature, in `order`, from the start box to the target box.

    `agree` says whether the start box's corners get the same prediction. A
    feature whose move changes that is moved back and picked.
    """
    low, up = list(start[0].values), list(start[1].values)
    target_low, target_up = target[0].values, target[1].values
    picked = set()
    for i in order:
        if i in seed:
            continue
        j = i - 1
        was = low[j], up[j]
        low[j], up[j] = target_low[j], target_up[j]
        if (oracle.classify(Point(tuple(low))) == oracle.classify(Point(tuple(up)))) != agree:
            low[j], up[j] = was
            picked.add(i)
    return frozenset(picked)


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
    space, seed_set, order_seq = _prepare(v, oracle, seed, order)
    low, up = corner_points(space, v, frozenset(space.features) - seed_set)
    if oracle.classify(low) != oracle.classify(up):
        raise SeedBreaksInvariant(f"freeing seed {sorted(seed_set)} already changes the prediction")
    full_box = (space.lower_point(), space.upper_point())
    return Explanation(ExplanationKind.AXP, _scan(oracle, (low, up), full_box, True, seed_set, order_seq))


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
    space, seed_set, order_seq = _prepare(v, oracle, seed, order)
    low, up = corner_points(space, v, seed_set)
    if oracle.classify(low) == oracle.classify(up):
        if not seed_set:
            raise NoCxpExists("the classifier is constant over the feature space box")
        raise SeedBreaksInvariant(f"fixing seed {sorted(seed_set)} already forces the prediction")
    return Explanation(ExplanationKind.CXP, _scan(oracle, (low, up), (v, v), False, seed_set, order_seq))
