"""Tiny complete SAT layer for the enumeration loop.

Formulas here stay small (one variable per feature, one clause per reported
explanation), so the solver is a deterministic backtracking search with unit
propagation rather than a tuned CDCL engine.

The formula is stored by column: for each variable, one int mask of the
clauses where it occurs positively and one of those where it occurs
negatively (bit j is clause j). The masks are the formula's only copy of its
clauses: `CnfFormula.clauses` and `to_dimacs` read the literals back from
them. `solve` keeps a partial assignment as two more masks, the variables
set to 1 and those set to 0 (bit i is variable i). Propagating it starts
with one loop over the variables that ORs up the clauses the assignment
satisfies and lists the free variables. Unit propagation then tests every
clause at once: a pass over the free variables only ORs up the clauses with
at least one free literal and those with at least two. An open clause with
no free literal is a conflict; the open clauses with exactly one free
literal force all of their literals together, each forced literal adding
its column to the satisfied clauses, and a variable forced both ways is a
conflict too.

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

Each call continues the depth-first search where the last one with the same
polarity stopped. The formula keeps, per polarity, the search frontier: a
stack of the subtrees not yet searched, each a partial assignment, the next
one on top. The subtrees the search gave up on lie before the frontier in
the preference order, and when a call finds a model it pushes the subtree
that held it back on top, with the values propagation set, which every
model in it must have. A formula only ever gains clauses, so its set of
models only shrinks: a subtree given up on still holds no model, and every
model now lies in the returned model's subtree or in a pending one, in the
same order. Each subtree is propagated against the whole formula when it is
popped, so the clauses appended since it was pushed are tested too, and the
model found is the same one a search from scratch would return. An empty
frontier means the formula is unsatisfiable, and later calls return None at
once. The search runs on an explicit stack, so its depth is not bounded by
Python's recursion limit.
"""

from __future__ import annotations

import copy
from typing import Iterable, Optional

from .domain import _is_int

# maps the digits of a model's binary string to the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\0\1")


class CnfFormula:
    """CNF over variables 1..num_vars with an append-only clause list,
    stored as per-variable clause masks.

    The formula also holds, per polarity, the frontier where `solve` stopped,
    so one formula must not be solved from two threads at once, as one
    oracle must not be called from two threads at once. A copy or a pickled
    formula carries its frontiers and resumes independently."""

    def __init__(self, num_vars: int) -> None:
        if not _is_int(num_vars):
            raise ValueError(f"num_vars {num_vars!r} is not an integer")
        if num_vars < 1:
            raise ValueError("need at least one variable")
        self.num_vars = num_vars
        self._count = 0
        # per variable (index 0 unused), the clauses where it occurs
        # positively and negatively; bit j is clause j
        self._pos = [0] * (num_vars + 1)
        self._neg = [0] * (num_vars + 1)
        # per polarity, the subtrees not yet searched as (ones, zeros), the
        # next one last; an empty stack means the formula is unsatisfiable
        self._pending: list[list[tuple[int, int]]] = [[(0, 0)], [(0, 0)]]

    @property
    def clauses(self) -> tuple[tuple[int, ...], ...]:
        """Each clause's literals, by increasing variable."""
        variables = range(1, self.num_vars + 1)
        pos, neg = self._pos, self._neg
        return tuple(
            tuple(i if pos[i] >> j & 1 else -i for i in variables if (pos[i] | neg[i]) >> j & 1)
            for j in range(self._count)
        )

    def __len__(self) -> int:
        return self._count

    def __copy__(self) -> "CnfFormula":
        return copy.deepcopy(self)  # its masks and frontiers change in place

    def add_clause(self, literals: Iterable[int]) -> None:
        """Append the disjunction of `literals`: a positive int is a variable,
        a negative one its negation. The empty clause is unsatisfiable.

        Raises ValueError, leaving the formula unchanged, on a literal that
        is not a nonzero int (a bool is not one), names a variable beyond
        num_vars, or repeats a variable."""
        seen = 0
        positive, negative = [], []
        for lit in literals:
            if not _is_int(lit) or lit == 0:
                raise ValueError(f"literal {lit!r} is not a nonzero integer")
            if abs(lit) > self.num_vars:
                raise ValueError(f"literal {lit} uses a variable beyond {self.num_vars}")
            bit = 1 << abs(lit)
            if seen & bit:
                raise ValueError(f"variable {abs(lit)} appears twice in one clause")
            seen |= bit
            (positive if lit > 0 else negative).append(abs(lit))
        self._append(positive, negative)

    def _append(self, positive: Iterable[int] = (), negative: Iterable[int] = ()) -> None:
        """Append the disjunction of the `positive` variables and the negated
        `negative` ones, unchecked: the caller hands distinct plain ints of
        1..num_vars, as an explanation of a run's own space holds."""
        bit = 1 << self._count
        for i in positive:
            self._pos[i] |= bit
        for i in negative:
            self._neg[i] |= bit
        self._count += 1


def solve(formula: CnfFormula, default_polarity: int = 1) -> Optional[tuple[int, ...]]:
    """Complete satisfiability check; a model (0/1 per variable) or None.

    Any returned model satisfies every clause. Unassigned variables in a
    found model are completed with `default_polarity`, which is also the
    value tried first when branching. The call leaves its search frontier on
    `formula`, and the next call with the same polarity continues from it.
    """
    if default_polarity not in (0, 1):
        raise ValueError("default_polarity must be 0 or 1")
    n = formula.num_vars
    pos, neg = formula._pos, formula._neg
    every = (1 << formula._count) - 1
    variables = range(1, n + 1)
    all_vars = (2 << n) - 2
    # depth-first: each entry is a subtree, (ones, zeros)
    stack = formula._pending[default_polarity]
    while stack:
        ones, zeros = stack.pop()
        # the clauses the assignment satisfies, and the free variables
        sat = 0
        free = []
        for i in variables:
            if ones >> i & 1:
                sat |= pos[i]
            elif zeros >> i & 1:
                sat |= neg[i]
            else:
                free.append(i)
        conflict = False
        while True:
            # the clauses with at least one and two free literals
            one = two = 0
            for i in free:
                lits = pos[i] | neg[i]
                two |= one & lits
                one |= lits
            open_clauses = every & ~sat
            if open_clauses & ~one:
                conflict = True  # an open clause with every literal false
                break
            unit = open_clauses & ~two
            if not unit:
                break
            for i in free:
                forced_one, forced_zero = pos[i] & unit, neg[i] & unit
                if forced_one:
                    if forced_zero:
                        conflict = True  # forced both ways
                        break
                    ones |= 1 << i
                    sat |= pos[i]
                elif forced_zero:
                    zeros |= 1 << i
                    sat |= neg[i]
            if conflict:
                break
            assigned = ones | zeros
            free = [i for i in free if not assigned >> i & 1]
        if conflict:
            continue
        if sat == every:
            stack.append((ones, zeros))  # every later model lies in this subtree or below it on the stack
            bits = ones if default_polarity == 0 else ~zeros
            # variable 1 first, each digit mapped to its int in one pass
            return tuple(bin(bits & all_vars | 2 << n)[-2:2:-1].encode().translate(_DIGITS))
        # branch on the lowest free variable
        var = 1 << free[0]
        with_one, with_zero = (ones | var, zeros), (ones, zeros | var)
        preferred, other = (with_one, with_zero) if default_polarity else (with_zero, with_one)
        stack.append(other)
        stack.append(preferred)
    return None


def to_dimacs(formula: CnfFormula) -> str:
    """Standard DIMACS CNF rendering, for debugging dumps."""
    lines = [f"p cnf {formula.num_vars} {len(formula)}"]
    for clause in formula.clauses:
        lines.append(" ".join([*(str(l) for l in clause), "0"]))
    return "\n".join(lines) + "\n"
