"""SAT-guided complete enumeration of all explanations, plus the duality
checker and the exhaustive reference enumerator used to validate it.

The loop keeps a CNF over one selector variable per feature (1 = free,
0 = fixed). Each model picks a feature split; a corner check of one or two
calls decides whether the fixed side forces the prediction (then the split
extends to an abductive explanation) or the free side admits a change (then
it extends to a contrastive one). Each reported explanation adds one
blocking clause: positive over an AXp's features, negative over a CXp's.
One extra satisfiability call proves completion, so a finished run makes
exactly len(axps) + len(cxps) + 1 solver calls.

A run asks through a `_Memo`, its own or the one it is handed as the
oracle, so a point reaches the oracle once per memo, except the loop's
corners: the loop asks a corner the memo knows once more, and one new to
it twice in a row. An answer that differs from the memo's first answer to
the same point raises InternalConsistencyError, an OracleError. An
explainer start check that the loop's corners contradict, which only an
oracle that is not monotone can cause, raises an OracleError naming the box.

A run checks its arguments once, where they enter. The loop hands the
explainer the point `validate_point` returned for v, which the run's space
accepts at once. Each model's fixed set, built from the model's indices,
goes to the corner check unchecked, and each seed the explainer gets holds
plain ints of 1..N. The corner check builds the lower corner's `Point`
when it asks it and the upper one only when the lower carries v's label.
A run builds its own explanations and blocking clauses and does not check
them again: each explanation holds distinct features of 1..N, so its
clause, all positive or all negative, goes onto the formula through
`CnfFormula._append`, past `add_clause`'s per-literal checks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations, compress
from typing import Callable, Iterable, Optional, Sequence

from .classifiers import ClassifierOracle, CountingOracle, InternalConsistencyError, OracleError
from .domain import Explanation, ExplanationKind, Point, _corner, _is_int, _is_number
from .explainer import SeedBreaksInvariant, _bounds, find_axp, find_cxp, verify_axp
from .satcore import CnfFormula, solve


_MISSING = object()  # a memo miss: a stored label may be any value


class _Memo(CountingOracle):
    """A counter and memo, holding the oracle to its first answers, in `_cache`.

    `classify`, which the explainer asks through, answers a point asked
    before from the memo, counting it in `cache_hits`, and keeps the answer
    to any other. `corner`, which the loop asks through, asks the oracle for
    a point new to the memo and keeps the answer; then it asks again, for
    any point, and raises InternalConsistencyError when the answer differs
    from the first one."""

    def __init__(self, inner: ClassifierOracle) -> None:
        super().__init__(inner)
        self._cache: dict[tuple, str] = {}
        self.cache_hits = 0

    def classify(self, point: Point) -> str:
        label = self._cache.get(point.values, _MISSING)  # one hash of the values on a hit
        if label is _MISSING:
            label = self._cache[point.values] = CountingOracle.classify(self, point)
        else:
            self.cache_hits += 1
        return label

    def corner(self, point: Point) -> str:
        first = self._cache.get(point.values, _MISSING)
        if first is _MISSING:
            first = self._cache[point.values] = CountingOracle.classify(self, point)
        label = CountingOracle.classify(self, point)
        if label != first:
            raise InternalConsistencyError(f"the oracle answered {list(point.values)} with {first!r}, then with {label!r}")
        return label


@dataclass
class EnumerationReport:
    """Everything one enumeration run produced."""

    axps: list[Explanation] = field(default_factory=list)
    cxps: list[Explanation] = field(default_factory=list)
    sat_calls: int = 0
    oracle_calls: int = 0
    cache_hits: int = 0
    elapsed: float = 0.0
    classify_seconds: float = 0.0
    sat_seconds: float = 0.0
    complete: bool = False
    formula: Optional[CnfFormula] = None

    def axp_sets(self) -> set[frozenset[int]]:
        return {e.features for e in self.axps}

    def cxp_sets(self) -> set[frozenset[int]]:
        return {e.features for e in self.cxps}


def enumerate_explanations(
    v: Point,
    oracle: ClassifierOracle,
    limit: Optional[int] = None,
    budget: Optional[float] = None,
    order: Optional[Sequence[int]] = None,
    default_polarity: int = 1,
    callback: Optional[Callable[[Explanation], None]] = None,
) -> EnumerationReport:
    """Enumerate every AXp and CXp of v's prediction.

    Explanations are handed to `callback` as they are found. A completed run
    reports the full families with no repetitions; `limit` (max explanations)
    or `budget` (wall-clock seconds) cut the run short, yielding a prefix of
    a complete enumeration flagged complete=False; a `limit` that is no
    non-negative int or a negative or NaN `budget` is a ValueError before
    any call. `oracle_calls` counts the calls that reached the oracle,
    `cache_hits` the queries the memo answered instead, and
    `classify_seconds` is the wall time spent in the oracle's calls; for an
    `oracle` that is a `_Memo` these are the memo's totals, the calls made
    through it before the run included. `sat_seconds` is the wall time spent
    in the loop's satisfiability calls. An explainer call that finds the
    box the loop checked breaking its invariant raises an OracleError.
    """
    if limit is not None and not (_is_int(limit) and limit >= 0):
        raise ValueError(f"limit must be a non-negative integer, got {limit!r}")
    if budget is not None and not (_is_number(budget) and budget >= 0):
        raise ValueError(f"budget must be a non-negative number of seconds, got {budget!r}")
    memo = oracle if isinstance(oracle, _Memo) else _Memo(oracle)
    space = memo.space
    v = space.validate_point(v)
    if order is not None:
        order = space.validate_order(order)
    all_features = space._feature_set
    formula = CnfFormula(space.arity)
    report = EnumerationReport(formula=formula)
    start = time.perf_counter()
    pred = memo.classify(v)
    while True:
        if limit is not None and len(report.axps) + len(report.cxps) >= limit:
            break
        if budget is not None and time.perf_counter() - start > budget:
            break
        sat_start = time.perf_counter()
        model = solve(formula, default_polarity=default_polarity)
        report.sat_seconds += time.perf_counter() - sat_start
        report.sat_calls += 1
        if model is None:
            report.complete = True
            break
        fixed = all_features.difference(compress(space.features, model))
        low, up = _bounds(space, v, fixed)
        try:
            # the lower corner decides alone if it differs
            if memo.corner(_corner(tuple(low), space)) == pred and memo.corner(_corner(tuple(up), space)) == pred:
                # the fixed side forces the prediction: some AXp inside it
                expl = find_axp(v, memo, seed=all_features - fixed, order=order)
                report.axps.append(expl)
                formula._append(positive=expl.features)
            else:
                # the free side admits a change: some CXp inside it
                expl = find_cxp(v, memo, seed=fixed, order=order)
                report.cxps.append(expl)
                formula._append(negative=expl.features)
        except SeedBreaksInvariant as exc:  # a corner the loop asked belies the class order
            raise OracleError(f"the oracle is not monotone over the box that fixes {sorted(fixed)}: {exc}") from exc
        if callback is not None:
            callback(expl)
    report.oracle_calls = memo.call_count
    report.cache_hits = memo.cache_hits
    report.classify_seconds = memo.classify_seconds
    report.elapsed = time.perf_counter() - start
    return report


@dataclass(frozen=True)
class DualityCounterexample:
    """Witness that one family member is not a minimal hitting set of the other."""

    kind: ExplanationKind
    features: frozenset[int]
    reason: str


def _as_sets(family: Iterable) -> list[frozenset[int]]:
    return [m.features if isinstance(m, Explanation) else frozenset(m) for m in family]


def _mhs_failure(candidate: frozenset[int], family: Sequence[frozenset[int]]) -> Optional[str]:
    missed = [t for t in family if not candidate & t]
    if missed:
        return f"misses {sorted(missed[0])}"
    for x in sorted(candidate):
        smaller = candidate - {x}
        if all(smaller & t for t in family):
            return f"not minimal: dropping {x} still hits every set"
    return None


def check_duality(axps: Iterable, cxps: Iterable) -> tuple[bool, Optional[DualityCounterexample]]:
    """Check the hitting-set duality between the two explanation families.

    True iff every AXp is a minimal hitting set of the CXp family and every
    CXp one of the AXp family; on failure, reports the first offender.
    """
    axp_sets, cxp_sets = _as_sets(axps), _as_sets(cxps)
    for kind, family, other in ((ExplanationKind.AXP, axp_sets, cxp_sets), (ExplanationKind.CXP, cxp_sets, axp_sets)):
        for s in family:
            reason = _mhs_failure(s, other)
            if reason is not None:
                return False, DualityCounterexample(kind, s, reason)
    return True, None


def brute_force_explanations(
    v: Point,
    oracle: ClassifierOracle,
    max_features: int = 16,
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Reference enumeration scanning all 2^N feature subsets.

    Decides each subset with the same two-call corner check the fast path
    relies on, then keeps the subset-minimal sufficient sets (AXps) and the
    subset-minimal freeing sets that admit a change (CXps).
    """
    space = oracle.space
    v = space.validate_point(v)
    n = space.arity
    if n > max_features:
        raise ValueError(f"{n} features exceed the brute-force cap of {max_features}")
    subsets = (frozenset(c) for size in range(n + 1) for c in combinations(space.features, size))
    sufficient = {fixed: verify_axp(fixed, v, oracle) for fixed in subsets}
    changeable = {s: not sufficient[space._feature_set - s] for s in sufficient}

    def minimal(holds: dict[frozenset[int], bool]) -> list[frozenset[int]]:
        """The sets that hold while none of their drop-one subsets does, smallest first."""
        kept = [s for s, ok in holds.items() if ok and not any(holds[s - {i}] for i in s)]
        return sorted(kept, key=lambda s: (len(s), sorted(s)))

    return minimal(sufficient), minimal(changeable)
