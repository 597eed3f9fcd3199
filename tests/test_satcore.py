import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from conftest import reference_solve, truth_table_sat

from monoxp import CnfFormula, solve, to_dimacs


def formula_of(num_vars, clauses):
    formula = CnfFormula(num_vars)
    for clause in clauses:
        formula.add_clause(clause)
    return formula


class TestClause:
    def test_duplicate_variable_rejected(self):
        formula = formula_of(2, [[1]])
        for literals in ((1, -1), (2, 2)):
            with pytest.raises(ValueError):
                formula.add_clause(literals)
            assert len(formula) == 1

    def test_zero_literal_rejected(self):
        formula = formula_of(2, [[1]])
        with pytest.raises(ValueError):
            formula.add_clause((0,))
        assert len(formula) == 1

    def test_empty_clause_representable(self):
        assert formula_of(1, [[]]).clauses == ((),)


class TestFormula:
    def test_needs_a_variable(self):
        with pytest.raises(ValueError, match="at least one variable"):
            CnfFormula(0)

    def test_out_of_range_variable_rejected(self):
        formula = CnfFormula(2)
        with pytest.raises(ValueError):
            formula.add_clause([3])

    def test_clause_list_grows(self):
        formula = formula_of(2, [[1], [2]])
        assert len(formula) == 2

    def test_rejected_clause_leaves_formula_unchanged(self):
        formula = formula_of(3, [[1, 2], [-1]])
        before = solve(formula, default_polarity=0)
        with pytest.raises(ValueError):
            formula.add_clause([-2, 4, 5])
        assert len(formula) == 2
        assert solve(formula, default_polarity=0) == before == (0, 1, 0)


class TestSolve:
    def test_no_clauses_is_sat(self):
        assert solve(CnfFormula(3)) == (1, 1, 1)

    def test_blocked_pair_is_unsat(self):
        formula = formula_of(2, [[1, 2], [-1], [-2]])
        assert solve(formula) is None

    def test_forced_model(self):
        # of the four assignments, only (0, 1) satisfies both clauses
        formula = formula_of(2, [[1, 2], [-1]])
        assert solve(formula) == (0, 1)

    def test_empty_clause_is_unsat(self):
        formula = formula_of(2, [[]])
        assert solve(formula) is None

    def test_polarity_completes_unconstrained_variables(self):
        assert solve(CnfFormula(3), default_polarity=0) == (0, 0, 0)
        formula = formula_of(3, [[2]])
        assert solve(formula, default_polarity=0) == (0, 1, 0)

    def test_bad_polarity_rejected(self):
        with pytest.raises(ValueError):
            solve(CnfFormula(1), default_polarity=2)

    def test_deterministic(self):
        formula = formula_of(4, [[1, -2], [-1, 3], [2, 4]])
        assert solve(formula) == solve(formula)

    def test_resumed_search_leaves_the_last_model_behind(self):
        # (1, 0, 1) comes first; once x1 = 0 is forced, x2 no longer needs
        # the value the last model gave it and takes the preferred one
        formula = formula_of(3, [[-1, -2], [2, 3]])
        assert solve(formula) == (1, 0, 1)
        formula.add_clause([-1])
        assert solve(formula) == (0, 1, 1)

    def test_unsat_stays_unsat_as_clauses_append(self):
        formula = formula_of(2, [[1, 2], [-1], [-2]])
        assert solve(formula) is None
        for clause in ([1], [-1, 2], []):
            formula.add_clause(clause)
            for polarity in (0, 1):
                assert solve(formula, polarity) is None

    @pytest.mark.parametrize("polarity, ones", [(0, 1050), (1, 2100)])
    def test_deep_search_needs_no_recursion(self, polarity, ones):
        # over a thousand branching decisions, past Python's recursion limit
        formula = formula_of(2100, [[i, i + 1] for i in range(1, 2100, 2)])
        model = solve(formula, polarity)
        assert sum(model) == ones
        assert all(model[i - 1] or model[i] for i in range(1, 2100, 2))


clause_strategy = st.lists(
    st.integers(1, 6).flatmap(lambda v: st.sampled_from([v, -v])),
    min_size=0,
    max_size=4,
).map(lambda lits: tuple({abs(l): l for l in lits}.values()))


@settings(max_examples=300, deadline=None)
@given(st.integers(6, 10), st.lists(clause_strategy, min_size=0, max_size=12))
def test_agrees_with_truth_table(num_vars, clauses):
    formula = formula_of(num_vars, clauses)
    expected_sat = truth_table_sat(num_vars, clauses)
    for polarity in (1, 0):
        model = solve(formula, default_polarity=polarity)
        assert (model is not None) == expected_sat
        if model is not None:
            assert len(model) == num_vars
            for clause in clauses:
                assert not clause or any((l > 0) == (model[abs(l) - 1] == 1) for l in clause)


@st.composite
def formulas(draw):
    """(num_vars, clauses): 1-12 variables, up to 25 clauses, empty ones included."""
    num_vars = draw(st.integers(1, 12))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clause = st.lists(literal, max_size=min(num_vars, 5)).map(
        lambda lits: tuple({abs(l): l for l in lits}.values())
    )
    return num_vars, draw(st.lists(clause, max_size=25))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_models_match_reference(case):
    # not just satisfiability: the very model the enumeration turns into a seed
    formula = formula_of(*case)
    for polarity in (1, 0):
        assert solve(formula, polarity) == reference_solve(formula, polarity)


@settings(max_examples=100, deadline=None)
@given(formulas())
def test_models_match_reference_as_clauses_append(case):
    # the enumeration loop solves one growing formula after every new clause
    num_vars, clauses = case
    formula = CnfFormula(num_vars)
    for clause in (None, *clauses):
        if clause is not None:
            formula.add_clause(clause)
        for polarity in (1, 0):
            assert solve(formula, polarity) == reference_solve(formula, polarity)


@settings(max_examples=200, deadline=None)
@given(formulas(), st.data())
def test_models_match_reference_across_interleaved_calls(case, data):
    # each polarity resumes from its own last model, however many clauses
    # were appended since and whichever polarity ran in between
    num_vars, clauses = case
    formula = CnfFormula(num_vars)
    for clause in (None, *clauses):
        if clause is not None:
            formula.add_clause(clause)
        for polarity in data.draw(st.lists(st.sampled_from([0, 1]), max_size=2, unique=True)):
            assert solve(formula, polarity) == reference_solve(formula, polarity)


def _pickled(formula):
    return pickle.loads(pickle.dumps(formula))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, _pickled], ids=["copy", "deepcopy", "pickle"])
@settings(max_examples=100, deadline=None)
@given(case=formulas(), cut=st.integers(0, 25))
def test_copies_resume_independently(duplicate, case, cut):
    # a copy carries the search state; it and the original then grow apart
    num_vars, clauses = case
    formula = CnfFormula(num_vars)
    for clause in clauses[:cut]:
        formula.add_clause(clause)
        for polarity in (1, 0):
            solve(formula, polarity)
    twin = duplicate(formula)
    rest = clauses[cut:]
    for original, other in zip(rest, [tuple(-l for l in c) for c in reversed(rest)]):
        formula.add_clause(original)
        twin.add_clause(other)
        for f in (formula, twin):
            for polarity in (1, 0):
                assert solve(f, polarity) == reference_solve(f, polarity)


class TestDimacs:
    def test_rendering(self):
        # each clause is listed by increasing variable, however it was given
        formula = formula_of(3, [[1, 2], [-1], [3, -1]])
        assert to_dimacs(formula) == "p cnf 3 3\n1 2 0\n-1 0\n-1 3 0\n"

    def test_empty_clause_rendering(self):
        formula = formula_of(1, [[]])
        assert to_dimacs(formula).strip().splitlines()[1] == "0"


class TestClauseValidation:
    @pytest.mark.parametrize("literals", [[True], [2, True], [-1, False]])
    def test_bool_literal_rejected(self, literals):
        # True would otherwise pass for the literal 1
        formula = formula_of(2, [[-1]])
        with pytest.raises(ValueError):
            formula.add_clause(literals)
        assert formula.clauses == ((-1,),)
        assert solve(formula) == (0, 1)


literal_strategy = st.one_of(
    st.integers(-8, 8),
    st.booleans(),
    st.sampled_from([1.0, "1", None]),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.lists(st.lists(literal_strategy, max_size=5), max_size=12))
def test_clauses_read_back_as_given(num_vars, candidates):
    # accepted clauses come back as their literal sets by increasing
    # variable, the empty one included; a rejected one leaves no trace
    formula = CnfFormula(num_vars)
    expected = []
    for literals in candidates:
        variables = [abs(l) for l in literals if type(l) is int]
        valid = (
            all(type(l) is int and l != 0 for l in literals)
            and all(v <= num_vars for v in variables)
            and len(set(variables)) == len(variables)
        )
        if valid:
            formula.add_clause(iter(literals))
            expected.append(tuple(sorted(literals, key=abs)))
        else:
            with pytest.raises(ValueError):
                formula.add_clause(iter(literals))
        assert formula.clauses == tuple(expected)
        assert len(formula) == len(expected)


class TestResumedSearch:
    @pytest.mark.parametrize("polarity", [1, 0])
    def test_clause_the_last_model_satisfies_keeps_the_model(self, polarity):
        formula = formula_of(4, [[1, 2], [-1, -3], [3, 4]])
        model = solve(formula, polarity)
        satisfied = [i if model[i - 1] else -i for i in (2, 4)]
        formula.add_clause(satisfied)
        assert solve(formula, polarity) == model == reference_solve(formula, polarity)

    @pytest.mark.parametrize("polarity", [1, 0])
    def test_repeated_calls_return_the_same_model(self, polarity):
        formula = formula_of(5, [[1, -2], [-1, 3], [2, 4], [-4, -5]])
        first = solve(formula, polarity)
        assert solve(formula, polarity) == solve(formula, polarity) == first
        formula.add_clause([-1 if first[0] else 1])  # x1 off the value the model gave it
        second = solve(formula, polarity)
        assert second != first and solve(formula, polarity) == second
        assert second == reference_solve(formula, polarity)

    def test_clause_closing_the_whole_frontier_is_unsat_for_good(self):
        # x1 and x2 are forced, so [-1, -2] leaves no model anywhere
        formula = formula_of(3, [[1], [2]])
        assert solve(formula, 1) == (1, 1, 1)
        assert solve(formula, 0) == (1, 1, 0)
        formula.add_clause([-1, -2])
        assert solve(formula, 1) is None
        for clause in ([3], [-3], []):
            formula.add_clause(clause)
            for polarity in (1, 0):
                assert solve(formula, polarity) is None


@st.composite
def _blocking_families(draw):
    """A variable count and a list of clauses, each a set of distinct
    variables and a sign, as the enumeration loop blocks an AXp (positive)
    or a CXp (negative)."""
    num_vars = draw(st.integers(1, 7))
    clause = st.tuples(st.frozensets(st.integers(1, num_vars), max_size=num_vars), st.booleans())
    return num_vars, draw(st.lists(clause, max_size=14))


@settings(max_examples=200, deadline=None)
@given(_blocking_families())
def test_the_unchecked_append_builds_what_add_clause_builds(case):
    # the loop's private path against the public one: the same clauses,
    # length and DIMACS text, and the same models at both polarities after
    # every clause, as each polarity's search resumes
    num_vars, family = case
    checked, unchecked = CnfFormula(num_vars), CnfFormula(num_vars)
    for variables, negated in family:
        checked.add_clause(-i if negated else i for i in variables)
        if negated:
            unchecked._append(negative=variables)
        else:
            unchecked._append(positive=variables)
        assert unchecked.clauses == checked.clauses
        assert len(unchecked) == len(checked)
        assert to_dimacs(unchecked) == to_dimacs(checked)
        for polarity in (0, 1):
            assert solve(unchecked, polarity) == solve(checked, polarity)
