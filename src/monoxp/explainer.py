"""Boxes, their corner check, and the greedy computation of one abductive
or one contrastive explanation.

A box pins each feature to its value in v or frees it over its whole
domain. For a monotonic oracle and a box that holds v, the lower corner's
label is at most v's and the upper corner's at least v's, so the box
forces the prediction exactly when both corners carry v's label.
`verify_axp`/`verify_cxp` compare the two corners' labels; the scan asks
the lower corner first and stops at the first corner that differs from
v's label. An AXp scan starts from the box pinned to v and tries to free
each feature; a CXp scan starts from the whole box and tries to pin each
feature. Each scanned feature costs at most two oracle calls, so a run
costs at most 2N+2 calls including those that establish the starting
invariant.

The scan asks a corner only while its label is unknown. It keeps one
state per corner of its box: the corner carries v's label, does not, or is
unknown. An AXp scan takes v's label from its start box's lower corner,
which is v itself when the seed is empty; a CXp scan asks v. A start
corner equal to the point just asked starts known, and so does a corner
that a CXp step moves onto v, so a CXp scan asks v once. A step keeps a
corner's state where it leaves the corner's coordinate as it was (compared
with `==`, as the run's memo keys are, so 0, 0.0 and False are one value),
and a CXp step, which moves both corners toward v, keeps a corner that
carries v's label; a reverted step restores the state of each corner it
moved, and a corner it left in place keeps the label the step asked. An
end of the class order decides a corner unasked: when v's label is the bottom class every lower
corner carries it, and when it is the top class every upper corner does.
So a scan whose v's label is an end of the class order asks at most one
corner per step, N+2 calls in all. On a boolean feature v's value is one
of the domain's bounds, so a step moves one corner only, and an AXp scan,
whose kept boxes have both corners known, costs at most N+2 calls over
boolean features for any number of classes.

The enumeration loop has asked the start box of every scan it starts: its
corner check covers the same box. It hands find_axp/find_cxp, through their
private `_box` keyword, the box's value lists, v's label and both corner
states, and the scan starts from them without validating or asking. An end
of the class order still checks those states without a call: a lower
corner that does not carry a bottom-class label of v, or an upper one that
does not carry a top-class label, comes only from an oracle that is not
monotone, and raises SeedBreaksInvariant.

The scan keeps a box as the value lists of its two corners and builds a
corner's tuple and `Point` only just before it asks it. A corner carries
the space that built it from a validated v, which then does not check it
again. The picked features are plain ints of 1..N by construction, so the
scan returns them through a private `Explanation` constructor that skips
the per-index checks; it still refuses an empty CXp, although a CXp scan,
whose box pinned to v takes v's label, no longer reaches one.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .classifiers import ClassifierOracle
from .domain import Explanation, ExplanationKind, FeatureSpace, Point, _corner, _explanation


class SeedBreaksInvariant(RuntimeError):
    """The caller-supplied seed already violates the working invariant.

    For an AXp seed this means freeing the seed changes the corner
    predictions; for a CXp seed, fixing it makes them agree. Either way the
    oracle is not monotone or the caller passed a bad seed. From the
    enumeration loop it means a corner the loop asked belies an end of the
    class order.
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
    low, up = _bounds(space, space.validate_point(v), space.validate_features(fixed))
    return _corner(tuple(low), space), _corner(tuple(up), space)


def _bounds(space: FeatureSpace, v: Point, fixed: frozenset[int]) -> tuple[list, list]:
    """The values of corner_points' two corners, for a point and a feature
    set already validated, as lists a scan can move features in.

    Each starts from the space's bounds and takes v's values at the fixed
    features, so a corner made from it lies in the space.
    """
    low, up = list(space._lowers), list(space._uppers)
    for i in fixed:
        low[i - 1] = up[i - 1] = v.values[i - 1]
    return low, up


def verify_axp(features: Iterable[int], v: Point, oracle) -> bool:
    """Does fixing `features` to v's values force the prediction?

    For a monotonic oracle this is decided with two calls, at the corners of
    the box spanned by the free features. Minimality is not checked.
    """
    low, up = corner_points(oracle.space, v, features)
    return oracle.classify(low) == oracle.classify(up)


def verify_cxp(features: Iterable[int], v: Point, oracle) -> bool:
    """Does freeing `features` (rest pinned to v) admit a different prediction?

    Exactly when pinning the rest does not force it: two oracle calls, at
    the corners of the box spanned by the freed features. Minimality is not
    checked.
    """
    freed = oracle.space.validate_features(features)
    return not verify_axp(frozenset(oracle.space.features) - freed, v, oracle)


def _explain(kind: ExplanationKind, v: Point, oracle: ClassifierOracle, seed, order, box) -> Explanation:
    """find_axp and find_cxp: validate, check the start box, scan toward the target box.

    An AXp scan starts with only the seed free, where the corners must
    agree, and frees features toward the whole box; a CXp scan starts with
    only the seed pinned, where they must differ, and pins features to v.
    A feature whose move changes whether the corners agree is moved back
    and picked. Which corners it asks is the module docstring's rule.

    A `box` is the enumeration loop's corner check, which has validated v,
    the seed and the order and asked the start box's corners: its value
    lists, v's label and the two corner states. The scan starts from it
    unasked, after checking the states against the ends of the class order.
    """
    space = oracle.space
    agree = kind is ExplanationKind.AXP
    ask = oracle.classify
    labels = oracle.classes.labels
    if box is None:
        v = space.validate_point(v)
        seed_set = space.validate_features(seed)
        order_seq = tuple(space.features) if order is None else space.validate_order(order)
        low, up = _bounds(space, v, space._feature_set - seed_set if agree else seed_set)
        first = tuple(low) if agree else v.values
        pred = ask(_corner(first, space) if agree else v)
        low_end, up_end = pred == labels[0], pred == labels[-1]
        # per corner: True if it carries pred, False if not, None if unknown. A
        # corner equal to the point just asked, or that an end of the class order
        # decides, is known unasked; the upper corner is asked only if the lower
        # one carries pred
        low_has = tuple(low) == first or low_end or ask(_corner(tuple(low), space)) == pred
        up_has = True if tuple(up) == first else None
        if low_has and up_has is None:
            up_has = up_end or ask(_corner(tuple(up), space)) == pred
        if (low_has and up_has) != agree:
            if agree:
                raise SeedBreaksInvariant(f"freeing seed {sorted(seed_set)} already changes the prediction")
            if not seed_set:
                raise NoCxpExists("the classifier is constant over the feature space box")
            raise SeedBreaksInvariant(f"fixing seed {sorted(seed_set)} already forces the prediction")
    else:
        seed_set, order_seq = seed, space.features if order is None else order
        low, up, pred, low_has, up_has = box
        low_end, up_end = pred == labels[0], pred == labels[-1]
        # the loop's states say which branch it took; only a corner that
        # belies an end of the class order is left to check
        if low_end and not low_has:
            raise SeedBreaksInvariant(f"the lower corner does not carry v's label {pred!r}, the bottom class")
        if up_end and up_has is False:
            raise SeedBreaksInvariant(f"the upper corner does not carry v's label {pred!r}, the top class")
    # a CXp step can move a corner onto v, whose state is known
    at_v = None if agree else list(v.values)
    target_low, target_up = (space._lowers, space._uppers) if agree else (v.values, v.values)
    # a set, not a list: frozenset copies a set's table at its size, which for
    # 5-7 features is 472 bytes against 728 from a list, and callers keep families
    picked = set()
    for i in order_seq:
        if i in seed_set:
            continue
        j = i - 1
        old_low, old_up = low[j], up[j]
        had_low, had_up = low_has, up_has
        low[j], up[j] = target_low[j], target_up[j]
        moves_up = up[j] != old_up
        # a corner the step moves keeps its state only if it carries pred
        # and the step is a CXp step, which moves it toward v
        if low[j] != old_low and (agree or not low_has):
            low_has = low_end or low == at_v or ask(_corner(tuple(low), space)) == pred
        if moves_up and (agree or not up_has):
            up_has = None
        if low_has and up_has is None:
            up_has = up_end or up == at_v or ask(_corner(tuple(up), space)) == pred
        if (low_has and up_has) != agree:
            # a corner the step left in place keeps the label it asked; only
            # the upper one can learn a label without moving
            low[j], up[j] = old_low, old_up
            low_has, up_has = had_low, had_up if moves_up else up_has
            picked.add(i)
    return _explanation(kind, frozenset(picked))


def find_axp(
    v: Point,
    oracle: ClassifierOracle,
    seed: Iterable[int] = frozenset(),
    order: Optional[Sequence[int]] = None,
    *,
    _box: Optional[tuple] = None,
) -> Explanation:
    """Compute one subset-minimal abductive explanation for v's prediction.

    Starts from the box pinned to v, frees the seed features, then greedily
    tries to free each remaining candidate in `order`; a feature is kept
    (picked) only when freeing it lets the two corner predictions diverge.
    The result is disjoint from the seed. Raises SeedBreaksInvariant if the
    corner predictions already diverge after freeing the seed alone.
    """
    return _explain(ExplanationKind.AXP, v, oracle, seed, order, _box)


def find_cxp(
    v: Point,
    oracle: ClassifierOracle,
    seed: Iterable[int] = frozenset(),
    order: Optional[Sequence[int]] = None,
    *,
    _box: Optional[tuple] = None,
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
    return _explain(ExplanationKind.CXP, v, oracle, seed, order, _box)
