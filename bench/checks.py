"""Output checks, run outside the timed region.

Each returns the names of the checks that failed, so an empty list means
the output is correct.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from monoxp import Explanation, ExplanationKind, Point, check_duality, verify_axp, verify_cxp


def subset_minimal(expl: Explanation, v: Point, oracle) -> bool:
    """Drop-one audit: the set holds and no set one feature smaller does."""
    check = verify_axp if expl.kind is ExplanationKind.AXP else verify_cxp
    return check(expl.features, v, oracle) and not any(
        check(expl.features - {i}, v, oracle) for i in expl.features
    )


def explanation_failures(explanations: Iterable[Explanation], v: Point, oracle) -> list[str]:
    return [] if all(subset_minimal(e, v, oracle) for e in explanations) else ["drop_one"]


def family_failures(
    axps: Sequence[Explanation],
    cxps: Sequence[Explanation],
    sat_calls: int,
    complete: bool,
    v: Point,
    oracle,
) -> list[str]:
    """Checks on one completed enumeration run."""
    failed = []
    if not complete:
        failed.append("complete")
    if sat_calls != len(axps) + len(cxps) + 1:
        failed.append("sat_calls")
    if not check_duality(axps, cxps)[0]:
        failed.append("duality")
    return failed + explanation_failures([*axps, *cxps], v, oracle)
