"""The value types: feature domains and spaces, points, class orders, explanations.

Features are indexed 1..N everywhere (API, file formats, wire protocol).
All types here are immutable values and safe to share across threads.
Boxes and their corner check, which ask an oracle, live in `explainer`.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Number = float | int


def _is_number(x) -> bool:
    """A real number, but not a bool: JSON true/false must not pass for 1/0."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_int(x) -> bool:
    """An int, but not a bool."""
    return isinstance(x, int) and not isinstance(x, bool)


def _require_ints(indices: Iterable, what: str) -> None:
    """Feature indices are ints: a float or a bool would pass a range check."""
    bad = [i for i in indices if not _is_int(i)]
    if bad:
        raise ValueError(f"{what} must be integers, got {bad[0]!r}")


class ExplanationKind(str, enum.Enum):
    AXP = "axp"
    CXP = "cxp"


@dataclass(frozen=True)
class FeatureDomain:
    """One ordinal, bounded feature domain: boolean, integer or real."""

    kind: str
    lower: Number
    upper: Number

    KINDS = ("boolean", "integer", "real")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (_is_number(self.lower) and _is_number(self.upper)):
            raise TypeError(f"domain bounds must be numbers, got [{self.lower!r}, {self.upper!r}]")
        try:
            lo, up = float(self.lower), float(self.upper)
        except OverflowError:
            raise ValueError("domain bounds must fit in a float") from None
        if not (lo <= up):
            raise ValueError(f"domain bounds out of order: [{self.lower}, {self.upper}]")
        if self.kind == "boolean" and (lo, up) != (0.0, 1.0):
            raise ValueError("boolean domains must have bounds [0, 1]")
        if self.kind == "integer" and not (lo.is_integer() and up.is_integer()):
            raise ValueError(f"integer domain needs integral bounds, got [{self.lower}, {self.upper}]")
        if self.kind == "real" and not (math.isfinite(lo) and math.isfinite(up)):
            raise ValueError("real domains must declare finite bounds")

    @property
    def discrete(self) -> bool:
        return self.kind in ("boolean", "integer")

    def contains(self, value: Number) -> bool:
        if not (self.lower <= value <= self.upper):
            return False
        return not (self.discrete and not float(value).is_integer())

    def sample(self, rng, lower: Optional[Number] = None) -> Number:
        """Draw a domain value uniformly from [lower or self.lower, self.upper]."""
        lo = self.lower if lower is None else lower
        if self.discrete:
            return rng.randint(int(lo), int(self.upper))
        return rng.uniform(float(lo), float(self.upper))


@dataclass(frozen=True)
class FeatureSpace:
    """An ordered product of per-feature domains, optionally named."""

    domains: tuple[FeatureDomain, ...]
    feature_names: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "domains", tuple(self.domains))
        if len(self.domains) < 1:
            raise ValueError("a feature space needs at least one feature")
        if self.feature_names is not None:
            names = tuple(self.feature_names)
            object.__setattr__(self, "feature_names", names)
            if len(names) != len(self.domains):
                raise ValueError("feature_names length differs from the number of domains")
        # Read by validate_point's compiled passes and the index checks; the
        # explainer and the enumeration loop take _feature_set as the set of
        # every feature. Plain attributes, not fields: equality, hashing and
        # repr see only the domains and names, and the space still pickles
        # and copies.
        object.__setattr__(self, "_lowers", tuple(d.lower for d in self.domains))
        object.__setattr__(self, "_uppers", tuple(d.upper for d in self.domains))
        object.__setattr__(self, "_discrete", tuple(i for i, d in enumerate(self.domains) if d.discrete))
        object.__setattr__(self, "_feature_set", frozenset(range(1, len(self.domains) + 1)))

    @property
    def arity(self) -> int:
        return len(self.domains)

    @property
    def features(self) -> range:
        return range(1, self.arity + 1)

    def name(self, i: int) -> str:
        if self.feature_names is not None:
            return self.feature_names[i - 1]
        return f"f{i}"

    def validate_point(self, point: "Point") -> "Point":
        # a corner this very space built is in it already and comes back as it is; any other
        # point, a copy of a corner included, is checked in full and comes back as a corner
        if point._space is self:
            return point
        values = point.values
        if len(values) != self.arity:
            raise ValueError(f"point arity {len(values)} differs from space arity {self.arity}")
        # The comparisons FeatureDomain.contains makes, one compiled pass each.
        try:
            if (
                all(map(operator.le, self._lowers, values))
                and all(map(operator.le, values, self._uppers))
                and all(map(float.is_integer, map(float, map(values.__getitem__, self._discrete))))
            ):
                return _corner(values, self)
        except (TypeError, ValueError):
            pass  # a coordinate of no number type: the loop below raises for the first bad one
        # Rejected: the per-coordinate check names the first bad coordinate.
        for i, (value, dom) in enumerate(zip(values, self.domains), start=1):
            if not dom.contains(value):
                raise ValueError(f"coordinate {i} value {value!r} outside {dom.kind} domain [{dom.lower}, {dom.upper}]")
        return _corner(values, self)

    def validate_features(self, features: Iterable[int]) -> frozenset[int]:
        out = frozenset(features)
        # a bool or 1.0 is in the range set too, so the types are tested first
        if not set(map(type, out)) <= {int}:
            _require_ints(out, "feature indices")
        if not out <= self._feature_set:
            raise ValueError(f"feature indices out of range 1..{self.arity}: {sorted(out - self._feature_set)}")
        return out

    def validate_order(self, order: Sequence[int]) -> tuple[int, ...]:
        """A feature scan order, which must be a permutation of 1..N."""
        out = tuple(order)
        # a bool or 1.0 equals an index too, so the types are tested first
        if set(map(type, out)) != {int}:
            _require_ints(out, "order entries")
        if len(out) != self.arity or set(out) != self._feature_set:
            raise ValueError(f"order must be a permutation of 1..{self.arity}")
        return out


@dataclass(frozen=True)
class Point:
    """A concrete assignment of one value per feature."""

    values: tuple[Number, ...]

    # a corner's FeatureSpace, which accepts it unchecked; None for a caller's point or a
    # copy or pickle of a corner. Not a field: equality, hashing and repr never see it.
    _space = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a point needs at least one coordinate")

    def __getstate__(self) -> dict:
        return {"values": self.values}  # a copy or pickle drops _space


def _corner(values: tuple[Number, ...], space: FeatureSpace) -> Point:
    """A Point in `space` by construction: from a validated point and the space's bounds."""
    point = object.__new__(Point)
    # straight into the instance dict, past the frozen __setattr__, in one lookup
    state = point.__dict__
    state["values"] = values
    state["_space"] = space
    return point


@dataclass(frozen=True)
class ClassOrder:
    """Totally ordered class labels; rank increases with list position."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise ValueError("a class order needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("class labels must be distinct")

    def rank(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown class label {label!r}") from None


@dataclass(frozen=True, slots=True)
class Explanation:
    """An abductive (AXp) or contrastive (CXp) explanation: a set of feature indices.

    Slotted, because callers keep whole families of them."""

    kind: ExplanationKind
    features: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", frozenset(self.features))
        if any(not _is_int(i) or i < 1 for i in self.features):
            raise ValueError("explanation features must be positive integers")
        if self.kind is ExplanationKind.CXP and not self.features:
            raise ValueError("a contrastive explanation cannot be empty")

    def sorted_features(self) -> list[int]:
        return sorted(self.features)


def _explanation(kind: ExplanationKind, features: frozenset[int]) -> Explanation:
    """An Explanation of indices a scan picked from a validated space, so
    plain ints of 1..N: no copy, no per-index check. An empty CXp is still
    refused, as an oracle that changes its answer can lead a scan to one."""
    if kind is ExplanationKind.CXP and not features:
        raise ValueError("a contrastive explanation cannot be empty")
    expl = object.__new__(Explanation)
    object.__setattr__(expl, "kind", kind)
    object.__setattr__(expl, "features", features)
    return expl
