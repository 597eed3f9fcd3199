"""Tiny complete SAT layer for the enumeration loop.

Formulas here stay small (one variable per feature, one clause per reported
explanation), so the solver is a deterministic backtracking search with unit
propagation rather than a tuned CDCL engine.

`CnfFormula.add_clause` compiles each clause once into two bitmasks, one for
its positive and one for its negative variables (bit i is variable i). The
masks are the formula's only copy of its clauses: `CnfFormula.clauses` and
`to_dimacs` read the literals back from them. `solve` keeps the partial
assignment as two more masks, the variables set to 1 and those set to 0, so
every clause test is a few integer operations. The enumeration loop solves
one formula after each clause it adds, and the compiled masks are what those
calls share.

Models are reproducible bit for bit because of the search order. Unit
propagation only sets values that every model extending the current
assignment must have. Branching takes the lowest unassigned variable and
tries the preferred polarity first, and variables left free once every
clause holds get the preferred polarity too. So the search meets the
assignments in one fixed order: variable 1 decides first, then variable 2,
and so on, with the preferred value before the other. A branch is given up
only when no assignment extending it satisfies the formula. The model
returned is therefore the first satisfying assignment in that order,
whatever order propagation happens to set values in.

Each call resumes where the last one with the same polarity stopped. A
formula only ever gains clauses, so its set of models only shrinks: every
model of the formula now was a model at the last call too, and none came
before the model that call returned. `solve` records that model on the
formula and skips every branch whose assignments all lie before it in the
preference order. The branches skipped hold no model, and the rest are
searched in the same order, so the model found is the same one a search
from scratch would return. A formula found unsatisfiable stays so, and
later calls return None at once. The search runs on an explicit stack, so
its depth is not bounded by Python's recursion limit.
"""

from __future__ import annotations

from typing import Iterable, Optional


class CnfFormula:
    """CNF over variables 1..num_vars with an append-only clause list.

    `solve` records where its search stopped on the formula it is given, so
    one formula must not be solved from two threads at once, as one oracle
    must not be called from two threads at once."""

    def __init__(self, num_vars: int) -> None:
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = num_vars
        # (pos_mask, neg_mask) per clause; bit i is variable i
        self._masks: list[tuple[int, int]] = []
        # per polarity, the mask of the variables off the preferred value in
        # the last model `solve` returned (0 before any call), or None for
        # both once the formula is unsatisfiable
        self._floor: list[Optional[int]] = [0, 0]

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Each clause's literals, by increasing variable."""
        variables = range(1, self.num_vars + 1)
        return tuple(
            tuple(i if pos >> i & 1 else -i for i in variables if (pos | neg) >> i & 1)
            for pos, neg in self._masks
        )

    def __len__(self) -> int:
        return len(self._masks)

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append the disjunction of `literals`: a positive int is a variable,
        a negative one its negation. The empty clause is unsatisfiable.

        Raises ValueError, leaving the formula unchanged, on a literal that
        is not a nonzero int, names a variable beyond num_vars, or repeats a
        variable."""
        pos = neg = 0
        for lit in literals:
            if not isinstance(lit, int) or lit == 0:
                raise ValueError(f"literal {lit!r} is not a nonzero integer")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} uses a variable beyond {self.num_vars}")
            bit = 1 << abs(lit)
            if (pos | neg) & bit:
                raise ValueError(f"variable {abs(lit)} appears twice in one clause")
            if lit > 0:
                pos |= bit
            else:
                neg |= bit
        self._masks.append((pos, neg))


def _propagate(
    clauses: list[tuple[int, int]], ones: int, zeros: int
) -> Optional[tuple[list[tuple[int, int]], int, int]]:
    """Unit propagation to fixpoint: (open clauses, ones, zeros), or None on a conflict.

    Only the clauses still open are kept; a clause satisfied here stays
    satisfied in every branch below."""
    propagated = True
    while propagated:
        propagated = False
        assigned = ones | zeros
        open_clauses = []
        for clause in clauses:
            pos, neg = clause
            if pos & ones or neg & zeros:
                continue
            free = (pos | neg) & ~assigned
            if not free:
                return None
            if free & (free - 1):
                open_clauses.append(clause)
                continue
            if free & pos:
                ones |= free
            else:
                zeros |= free
            assigned |= free
            propagated = True
        clauses = open_clauses
    return clauses, ones, zeros


def solve(formula: CnfFormula, default_polarity: int = 1) -> Optional[tuple[int, ...]]:
    """Complete satisfiability check; a model (0/1 per variable) or None.

    Any returned model satisfies every clause. Unassigned variables in a
    found model are completed with `default_polarity`, which is also the
    value tried first when branching. The call records the result on
    `formula`, and the next call with the same polarity resumes from it.
    """
    if default_polarity not in (0, 1):
        raise ValueError("default_polarity must be 0 or 1")
    floor = formula._floor[default_polarity]
    if floor is None:
        return None
    n = formula.num_vars
    all_vars = (1 << (n + 1)) - 2
    # depth-first on an explicit stack of (open clauses, ones, zeros)
    stack = [(formula._masks, 0, 0)]
    while stack:
        node = _propagate(*stack.pop())
        if node is None:
            continue
        clauses, ones, zeros = node
        # the variables off the preferred value, the terms the floor is kept in
        off = zeros if default_polarity else ones
        if not clauses:
            formula._floor[default_polarity] = off
            bits = ones if default_polarity == 0 else ~zeros
            return tuple((bits >> i) & 1 for i in range(1, n + 1))
        free = all_vars & ~(ones | zeros)
        var = free & -free
        # every variable below var is assigned: where does that prefix first
        # differ from the floor's?
        diff = (off ^ floor) & (var - 1)
        if floor & diff & -diff:
            continue  # preferred where the floor is not: all before it
        one, zero = (clauses, ones | var, zeros), (clauses, ones, zeros | var)
        preferred, other = (one, zero) if default_polarity else (zero, one)
        stack.append(other)
        if diff or not floor & var:
            stack.append(preferred)  # else every assignment under it precedes the floor
    formula._floor = [None, None]
    return None


def to_dimacs(formula: CnfFormula) -> str:
    """Standard DIMACS CNF rendering, for debugging dumps."""
    lines = [f"p cnf {formula.num_vars} {len(formula)}"]
    for clause in formula.clauses:
        lines.append(" ".join([*(str(l) for l in clause), "0"]))
    return "\n".join(lines) + "\n"
