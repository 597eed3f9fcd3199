"""Shared fixtures and independent reference checks.

The semantic checks here decide explanation properties by exhaustive grid
enumeration, straight from the definitions, so they stay independent of the
two-call corner shortcut used by the library.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from typing import Optional

import pytest

from monoxp import (
    AppendixCnfClassifier,
    ClassOrder,
    CnfFormula,
    ExternalProcessOracle,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    Point,
    verify_axp,
    verify_cxp,
)


@pytest.fixture
def grade():
    return GradeClassifier()


@pytest.fixture
def majority():
    # 3-input majority vote as a positive DNF: any two inputs at 1
    return MonotoneDnfClassifier(boolean_space(3), [[1, 2], [1, 3], [2, 3]])


@pytest.fixture
def constant():
    space = FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(2)))
    return LinearThresholdClassifier(space, [1, 1], [], ClassOrder(("only",)))


def boolean_space(n):
    return FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(n)))


def random_monotone_dnf(num_features, num_terms, rng):
    """A random monotone DNF: uniform-size positive terms, keeping the term
    set an antichain (no term contains another)."""
    terms = []
    for _ in range(num_terms):
        size = rng.randint(1, num_features)
        term = frozenset(rng.sample(range(1, num_features + 1), size))
        if any(existing <= term for existing in terms):
            continue
        terms = [t for t in terms if not term <= t]
        terms.append(term)
    return MonotoneDnfClassifier(boolean_space(num_features), terms)


class Recording:
    """Oracle wrapper that logs the values of every point it is asked."""

    def __init__(self, inner):
        self.inner, self.space, self.classes = inner, inner.space, inner.classes
        self.asked = []

    def classify(self, point):
        self.asked.append(point.values)
        return self.inner.classify(point)


def _draw_appendix_cnf(rng, k):
    # a random 3-CNF over k variables, redrawn until no literal is common to every clause
    while True:
        clauses = [[x if rng.random() < 0.5 else -x for x in rng.sample(range(1, k + 1), 3)] for _ in range(round(4.3 * k))]
        if not set(clauses[0]).intersection(*map(set, clauses[1:])):
            return AppendixCnfClassifier(boolean_space(2 * k), clauses)


# The grade model as a child process. Given an argument, it appends every
# request line it reads, as received, to the file that argument names.
GRADE_CHILD = """\
import sys
log = open(sys.argv[1], "a", encoding="utf-8", newline="") if len(sys.argv) > 1 else None
for line in sys.stdin:
    if log:
        log.write(line)
        log.flush()
    q, x, h, r = [float(p) for p in line.split(",")]
    s = max(0.3 * q + 0.6 * x + 0.1 * h, r)
    print(next((g for t, g in ((9, "A"), (7, "B"), (5, "C"), (4, "D"), (2, "E")) if s >= t), "F"), flush=True)
"""


def logging_grade_command(log_path) -> list[str]:
    return [sys.executable, "-c", GRADE_CHILD, str(log_path)]


def logging_grade_oracle(log_path, space: Optional[FeatureSpace] = None) -> ExternalProcessOracle:
    """The grade model behind a pipe, logging its requests to `log_path`;
    `space` replaces the grade space, which must keep four features."""
    grade = GradeClassifier()
    return ExternalProcessOracle(logging_grade_command(log_path), space or grade.space, grade.classes)


def logged_requests(log_path) -> list[str]:
    """The request lines a logging child received, each with its line end."""
    with open(log_path, encoding="utf-8", newline="") as log:
        return log.readlines()


def request_lines(points) -> list[str]:
    """The request lines of integer-valued points or value tuples, as the wire carries them."""
    return [",".join(map(str, getattr(p, "values", p))) + "\n" for p in points]


def point_leq(a, b):
    """Componentwise order on points; partial, not total."""
    if len(a.values) != len(b.values):
        raise ValueError(f"points of different arity: {len(a.values)} vs {len(b.values)}")
    return all(x <= y for x, y in zip(a.values, b.values))


def grid_points(space):
    """Every point of a discrete (boolean/integer) feature space."""
    axes = []
    for dom in space.domains:
        assert dom.discrete, "grid enumeration needs discrete domains"
        axes.append(range(int(dom.lower), int(dom.upper) + 1))
    for values in itertools.product(*axes):
        yield Point(values)


def semantic_axp(features, v, oracle):
    """Definition-level sufficiency: every completion off `features` agrees."""
    features = set(features)
    target = oracle.classify(v)
    axes = []
    for i in oracle.space.features:
        if i in features:
            axes.append((v.values[i - 1],))
        else:
            dom = oracle.space.domains[i - 1]
            axes.append(tuple(range(int(dom.lower), int(dom.upper) + 1)))
    return all(oracle.classify(Point(values)) == target for values in itertools.product(*axes))


def semantic_cxp(features, v, oracle):
    """Definition-level changeability: some completion over `features` disagrees."""
    fixed = set(oracle.space.features) - set(features)
    return not semantic_axp(fixed, v, oracle)


def truth_table_sat(num_vars, clauses):
    """Exhaustive satisfiability of a clause list over 1..num_vars."""
    for bits in itertools.product((0, 1), repeat=num_vars):
        if all(any((l > 0) == (bits[abs(l) - 1] == 1) for l in clause) for clause in clauses):
            return True
    return False


def reference_solve(formula: CnfFormula, default_polarity: int = 1) -> Optional[tuple[int, ...]]:
    """The dict-based backtracking search `satcore.solve` replaced, kept as
    the oracle for its models: a model (0/1 per variable) or None.

    Any returned model satisfies every clause. Unassigned variables in a
    found model are completed with `default_polarity`, which is also the
    value tried first when branching.
    """
    if default_polarity not in (0, 1):
        raise ValueError("default_polarity must be 0 or 1")
    clauses = formula.clauses
    n = formula.num_vars

    def satisfied(lits: tuple[int, ...], assign: dict[int, int]) -> bool:
        return any(
            (lit > 0) == (assign.get(abs(lit)) == 1)
            for lit in lits
            if abs(lit) in assign
        )

    def search(assign: dict[int, int]) -> Optional[tuple[int, ...]]:
        # unit propagation to fixpoint; detects falsified clauses on the way
        while True:
            unit = None
            for lits in clauses:
                sat = False
                unassigned = []
                for lit in lits:
                    value = assign.get(abs(lit))
                    if value is None:
                        unassigned.append(lit)
                    elif (lit > 0) == (value == 1):
                        sat = True
                        break
                if sat:
                    continue
                if not unassigned:
                    return None
                if len(unassigned) == 1:
                    unit = unassigned[0]
                    break
            if unit is None:
                break
            assign[abs(unit)] = 1 if unit > 0 else 0
        if all(satisfied(lits, assign) for lits in clauses):
            return tuple(assign.get(i, default_polarity) for i in range(1, n + 1))
        var = next(i for i in range(1, n + 1) if i not in assign)
        for value in (default_polarity, 1 - default_polarity):
            child = dict(assign)
            child[var] = value
            model = search(child)
            if model is not None:
                return model
        return None

    return search({})


def reference_linear_label(clf, point):
    """`LinearThresholdClassifier.classify` as it was before it scored in one
    `map` pass, kept as the reference for its labels."""
    clf.space.validate_point(point)
    score = sum(w * x for w, x in zip(clf.weights, point.values))
    return clf.classes.labels[bisect_right(clf.thresholds, score)]


def reference_dnf_label(clf, point):
    """`MonotoneDnfClassifier.classify` as it was before it compiled its terms
    to masks, kept as the reference for its labels."""
    clf.space.validate_point(point)
    values = point.values
    hit = any(all(values[i - 1] == 1 for i in term) for term in clf.terms)
    return clf.classes.labels[1 if hit else 0]


def reference_appendix_label(clf, clauses, point):
    """`AppendixCnfClassifier.classify` as it was before it compiled its
    clauses to masks, kept as the reference for its labels. `clauses` are the
    source clauses the classifier was built from."""
    k = clf.num_source_vars
    # positive rewrite: -x_i becomes x_{i+k}
    positive_clauses = tuple(frozenset(l if l > 0 else -l + k for l in clause) for clause in clauses)
    clf.space.validate_point(point)
    values = point.values
    paired = any(values[i - 1] == 1 and values[i + k - 1] == 1 for i in range(1, k + 1))
    rewritten = all(any(values[j - 1] == 1 for j in clause) for clause in positive_clauses)
    return clf.classes.labels[1 if (paired or rewritten) else 0]


def assert_subset_minimal(expl, v, oracle):
    """Drop-one audit: the set passes its check, every one-smaller set fails."""
    check = verify_axp if expl.kind.value == "axp" else verify_cxp
    assert check(expl.features, v, oracle), f"{expl} does not hold"
    for i in sorted(expl.features):
        assert not check(expl.features - {i}, v, oracle), f"{expl} not minimal: {i} removable"
