import ast
import itertools
import random
import select
import subprocess
import sys
from functools import partial

import pytest
from hypothesis import given, strategies as st

from conftest import (
    GRADE_CHILD,
    boolean_space,
    grid_points,
    logged_requests,
    logging_grade_oracle,
    point_leq,
    random_monotone_dnf,
    reference_appendix_label,
    reference_dnf_label,
    reference_linear_label,
    request_lines,
)

from monoxp import (
    AppendixCnfClassifier,
    ClassOrder,
    CountingOracle,
    ExternalProcessOracle,
    FeatureDomain,
    FeatureSpace,
    GradeClassifier,
    InternalConsistencyError,
    LinearThresholdClassifier,
    MonotoneDnfClassifier,
    OracleError,
    Point,
    enumerate_explanations,
    find_axp,
    find_cxp,
    probe_monotonicity,
    verify_axp,
)
from monoxp.enumeration import _Memo


class TestGradeClassifier:
    @pytest.mark.parametrize(
        "values,expected",
        [
            ((10, 10, 5, 0), "A"),
            ((0, 0, 0, 0), "F"),
            ((0, 0, 0, 8), "B"),  # score is max(0, 8) = 8
        ],
    )
    def test_examples(self, grade, values, expected):
        assert grade.classify(Point(values)) == expected

    def test_out_of_range_rejected(self, grade):
        with pytest.raises(ValueError):
            grade.classify(Point((11, 0, 0, 0)))

    def test_class_order(self, grade):
        assert grade.classes.labels == ("F", "E", "D", "C", "B", "A")

    def test_probe_finds_no_violation(self, grade):
        assert probe_monotonicity(grade, 1000, rng_seed=7) == []


class TestLinearThreshold:
    def space(self, n=2):
        return FeatureSpace(tuple(FeatureDomain("integer", 0, 3) for _ in range(n)))

    def test_bucketing(self):
        clf = LinearThresholdClassifier(self.space(), [1, 1], [2, 4], ClassOrder(("a", "b", "c")))
        assert clf.classify(Point((0, 1))) == "a"
        assert clf.classify(Point((1, 1))) == "b"  # score 2 reaches the first threshold
        assert clf.classify(Point((3, 2))) == "c"

    def test_single_class_is_constant(self):
        clf = LinearThresholdClassifier(self.space(), [1, 1], [], ClassOrder(("only",)))
        assert {clf.classify(p) for p in grid_points(clf.space)} == {"only"}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LinearThresholdClassifier(self.space(), [1, -1], [2], ClassOrder(("a", "b")))

    def test_threshold_count_checked(self):
        with pytest.raises(ValueError):
            LinearThresholdClassifier(self.space(), [1, 1], [2], ClassOrder(("a", "b", "c")))

    def test_thresholds_strictly_increasing(self):
        with pytest.raises(ValueError):
            LinearThresholdClassifier(self.space(), [1, 1], [2, 2], ClassOrder(("a", "b", "c")))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weights_and_thresholds_rejected(self, bad):
        classes = ClassOrder(("a", "b", "c"))
        with pytest.raises(ValueError, match="finite"):
            LinearThresholdClassifier(self.space(), [1, bad], [2, 4], classes)
        with pytest.raises(ValueError, match="finite"):
            LinearThresholdClassifier(self.space(), [1, 1], [bad, 4], classes)
        with pytest.raises(ValueError, match="finite"):
            LinearThresholdClassifier(self.space(), [1, 1], [2, bad], classes)

    def test_weight_count_checked(self):
        with pytest.raises(ValueError):
            LinearThresholdClassifier(self.space(), [1], [2], ClassOrder(("a", "b")))

    @given(
        st.lists(
            st.tuples(
                st.one_of(st.integers(0, 9), st.floats(0, 9)),
                st.sampled_from(["integer", "real"]),
                st.floats(0, 1),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(st.one_of(st.integers(-20, 80), st.floats(-20, 80)), max_size=4, unique=True),
        st.booleans(),
    )
    def test_labels_match_the_reference(self, features, drawn, on_threshold):
        # (weight, domain kind, position of the coordinate in [0, 5])
        space = FeatureSpace(tuple(FeatureDomain(kind, 0, 5) for _, kind, _ in features))
        weights = [w for w, _, _ in features]
        values = tuple(round(5 * t) if kind == "integer" else 5 * t for _, kind, t in features)
        point = Point(values)
        thresholds = set(drawn)
        if on_threshold:
            # the score itself is a threshold, so the label is the one above it
            thresholds.add(sum(w * x for w, x in zip(weights, values)))
        thresholds = sorted(thresholds)
        classes = ClassOrder(tuple(f"c{r}" for r in range(len(thresholds) + 1)))
        clf = LinearThresholdClassifier(space, weights, thresholds, classes)
        assert clf.classify(point) == reference_linear_label(clf, point)


def _locally_monotone(clf):
    """Bumping any single coordinate up never lowers the label rank."""
    for p in grid_points(clf.space):
        rank = clf.classes.rank(clf.classify(p))
        for i in clf.space.features:
            dom = clf.space.domains[i - 1]
            if p.values[i - 1] < dom.upper:
                bumped = list(p.values)
                bumped[i - 1] += 1
                if clf.classes.rank(clf.classify(Point(bumped))) < rank:
                    return False
    return True


class TestMonotoneDnf:
    def test_classify(self):
        clf = MonotoneDnfClassifier(boolean_space(3), [[1, 2], [3]])
        assert clf.classify(Point((1, 1, 0))) == "1"
        assert clf.classify(Point((0, 0, 1))) == "1"
        assert clf.classify(Point((1, 0, 0))) == "0"

    def test_no_terms_is_constant_zero(self):
        clf = MonotoneDnfClassifier(boolean_space(2), [])
        assert {clf.classify(p) for p in grid_points(clf.space)} == {"0"}

    def test_term_range_checked(self):
        with pytest.raises(ValueError):
            MonotoneDnfClassifier(boolean_space(2), [[3]])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_are_monotone(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        clf = random_monotone_dnf(n, rng.randint(1, 2 * n), rng)
        assert _locally_monotone(clf)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_labels_match_the_reference_on_every_point(self, n):
        rng = random.Random(n)
        fixed = ([], [[]], [[n], []], [list(range(1, n + 1))])
        for terms in (*fixed, *(_random_terms(rng, n, 1) for _ in range(4))):
            clf = MonotoneDnfClassifier(boolean_space(n), terms)
            _assert_labels_match(clf, partial(reference_dnf_label, clf), itertools.product((0, 1), repeat=n), rng)

    @pytest.mark.parametrize("n", (54, 64, 100))
    def test_labels_match_the_reference_past_float_precision(self, n):
        # more features than a double has bits: a mask summed in floats would drop some
        rng = random.Random(n)
        for _ in range(3):
            clf = MonotoneDnfClassifier(boolean_space(n), _random_terms(rng, n, 3))
            densities = (rng.choice((0.05, 0.5, 0.8, 0.95)) for _ in range(200))
            points = ([int(rng.random() < d) for _ in range(n)] for d in densities)
            labels = _assert_labels_match(clf, partial(reference_dnf_label, clf), points, rng)
            assert labels == {"0", "1"}

    def test_generator_keeps_an_antichain(self):
        rng = random.Random(42)
        for _ in range(20):
            clf = random_monotone_dnf(6, 8, rng)
            terms = clf.terms
            assert terms
            for a in terms:
                for b in terms:
                    assert a == b or not a <= b


class TestAppendixCnf:
    def test_all_ones_classifies_one(self):
        clf = AppendixCnfClassifier(boolean_space(4), [[1, 2], [-1, -2]])
        assert clf.classify(Point((1, 1, 1, 1))) == "1"

    def test_all_zeros_classifies_zero(self):
        clf = AppendixCnfClassifier(boolean_space(4), [[1, 2], [-1, -2]])
        assert clf.classify(Point((0, 0, 0, 0))) == "0"

    def test_rewritten_clause_evaluation(self):
        # rewriting (x1 v x2) & (-x1 v -x2) gives (x1 v x2) & (x3 v x4)
        clf = AppendixCnfClassifier(boolean_space(4), [[1, 2], [-1, -2]])
        assert clf.classify(Point((1, 0, 0, 1))) == "1"
        assert clf.classify(Point((1, 0, 0, 0))) == "0"

    def test_needs_a_clause(self):
        with pytest.raises(ValueError, match="at least one clause"):
            AppendixCnfClassifier(boolean_space(4), [])

    def test_trivially_satisfiable_rejected_naming_literal(self):
        with pytest.raises(ValueError, match="x1"):
            AppendixCnfClassifier(boolean_space(4), [[1, 2], [1, -2]])
        with pytest.raises(ValueError, match="-x2"):
            AppendixCnfClassifier(boolean_space(4), [[-2, 1], [-2, -1]])

    def test_literal_range_checked(self):
        with pytest.raises(ValueError):
            AppendixCnfClassifier(boolean_space(4), [[3]])
        with pytest.raises(ValueError, match="even number"):
            AppendixCnfClassifier(boolean_space(3), [[1]])

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_for_small_cnfs(self, seed):
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        clauses = []
        for _ in range(rng.randint(1, 2 * k)):
            size = rng.randint(1, k)
            variables = rng.sample(range(1, k + 1), size)
            clauses.append([v if rng.random() < 0.5 else -v for v in variables])
        try:
            clf = AppendixCnfClassifier(boolean_space(2 * k), clauses)
        except ValueError:
            return  # drew a trivially satisfiable CNF
        assert _locally_monotone(clf)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_labels_match_the_reference_on_every_point(self, k):
        rng = random.Random(k)
        for _ in range(4):
            _assert_appendix_matches_reference(
                rng, k, min(3, k), round(4.3 * k), itertools.product((0, 1), repeat=2 * k)
            )

    @pytest.mark.parametrize("k", (27, 30, 40))
    def test_labels_match_the_reference_past_float_precision(self, k):
        # 2k features: a mask of the point's ones has more bits than a double
        # holds, so it must be built in integers for every encoding.
        rng = random.Random(k)
        for _ in range(3):
            densities = (rng.choice((0.05, 0.15, 0.5, 0.9)) for _ in range(200))
            points = ([int(rng.random() < d) for _ in range(2 * k)] for d in densities)
            _assert_appendix_matches_reference(rng, k, 3, k, points)


def _random_terms(rng, n, min_size):
    """Up to 6 terms of min_size to 8 features of 1..n, overlaps and repeats allowed."""
    return [rng.sample(range(1, n + 1), rng.randint(min_size, min(n, 8))) for _ in range(rng.randint(1, 6))]


def _assert_labels_match(clf, reference, bit_points, rng):
    """Compare clf's labels with `reference` on each 0/1 point, given as 0/1,
    0.0/1.0, False/True and a per-coordinate mix of the three; return the
    set of labels seen."""
    encodings = ((0, 1), (0.0, 1.0), (False, True))
    labels = set()
    for bits in bit_points:
        mixed = Point(tuple(rng.choice(encodings)[b] for b in bits))
        for point in (*(Point(tuple(e[b] for b in bits)) for e in encodings), mixed):
            label = clf.classify(point)
            assert label == reference(point), point
        labels.add(label)
    return labels


def _assert_appendix_matches_reference(rng, k, width, count, bit_points):
    """Draw a seeded appendix 3-CNF and compare its labels with the reference
    on each 0/1 point in every encoding; both labels must occur."""
    while True:
        clauses = [
            [x if rng.random() < 0.5 else -x for x in rng.sample(range(1, k + 1), width)]
            for _ in range(count)
        ]
        try:
            clf = AppendixCnfClassifier(boolean_space(2 * k), clauses)
            break
        except ValueError:
            continue  # drew a trivially satisfiable CNF
    labels = _assert_labels_match(clf, partial(reference_appendix_label, clf, clauses), bit_points, rng)
    assert labels == {"0", "1"}, clauses


class TestCountingOracle:
    def test_counts_inner_calls(self, grade):
        counting = CountingOracle(grade)
        counting.classify(Point((1, 2, 3, 4)))
        counting.classify(Point((1, 2, 3, 4)))
        assert counting.call_count == 2

    def test_a_changed_answer_is_an_oracle_error(self):
        # the first answer to (1, 1) is 1, the second 0: the memo keeps the
        # first from `classify`, and its corner check asks the point again,
        # counts both calls and stops at the second
        class FlipSecond:
            space, classes = boolean_space(2), ClassOrder(("0", "1"))
            asked = 0

            def classify(self, point):
                self.asked += 1
                return "1" if self.asked == 1 else "0"

        memo = _Memo(FlipSecond())
        assert memo.classify(Point((1, 1))) == "1"
        with pytest.raises(InternalConsistencyError, match=r"answered \[1, 1\] with '1', then with '0'"):
            memo.corner(Point((1, 1)))
        assert memo.call_count == 2
        assert issubclass(InternalConsistencyError, OracleError)


class ClassifyOnly:
    """The grade model with no base class: `space`, `classes` and `classify` alone."""

    def __init__(self):
        self.inner = GradeClassifier()
        self.space, self.classes = self.inner.space, self.inner.classes
        self.points = []

    def classify(self, point):
        self.points.append(point.values)
        return self.inner.classify(point)


_V = Point((10, 10, 5, 0))
_ASKED = [_V, Point((0, 0, 0, 0)), _V, Point((5, 5, 5, 5)), _V]


def _explanation_sets(oracle):
    result = enumerate_explanations(_V, oracle)
    return result.axp_sets(), result.cxp_sets()


def _counted(oracle):
    counting = CountingOracle(oracle)
    labels = [counting.classify(p) for p in _ASKED]
    return labels, counting.call_count


# each entry point, run on an oracle, gives what must match the grade model's
_CLASSIFY_ALONE_ENTRIES = {
    "find_axp": lambda oracle: find_axp(_V, oracle),
    "find_cxp": lambda oracle: find_cxp(_V, oracle),
    "verify_axp": lambda oracle: verify_axp({1, 2}, _V, oracle),
    "enumerate_explanations": _explanation_sets,
    "counting": _counted,
    "probe_monotonicity": lambda oracle: probe_monotonicity(oracle, 30, rng_seed=4),
}

# what each entry must give on the grade model, where its value is fixed
_CLASSIFY_ALONE_EXPECTED = {
    "verify_axp": True,
    "counting": (["A", "F", "A", "C", "A"], 5),
    "probe_monotonicity": [],
}

# the points that reach the inner oracle, where the entry fixes them
_CLASSIFY_ALONE_REACHED = {
    "counting": _ASKED,
}


@pytest.mark.parametrize("entry", list(_CLASSIFY_ALONE_ENTRIES))
def test_an_oracle_with_classify_alone_works_everywhere(grade, entry):
    # the library asks every oracle through classify and nothing else
    run = _CLASSIFY_ALONE_ENTRIES[entry]
    duck = ClassifyOnly()
    got, want = run(duck), run(grade)
    assert got == want
    if entry in _CLASSIFY_ALONE_EXPECTED:
        assert got == _CLASSIFY_ALONE_EXPECTED[entry]
    if entry in _CLASSIFY_ALONE_REACHED:
        assert duck.points == [p.values for p in _CLASSIFY_ALONE_REACHED[entry]]


@pytest.mark.parametrize("cls, params", [(MonotoneDnfClassifier, [[1]]), (AppendixCnfClassifier, [[1], [-1]])])
def test_boolean_classifiers_check_their_space_and_classes(cls, params):
    integers = FeatureSpace(tuple(FeatureDomain("integer", 0, 1) for _ in range(2)))
    with pytest.raises(ValueError, match="boolean"):
        cls(integers, params)
    with pytest.raises(ValueError, match="two classes"):
        cls(boolean_space(2), params, ClassOrder(("lo", "mid", "hi")))
    assert cls(boolean_space(2), params, ClassOrder(("lo", "hi"))).classes.labels == ("lo", "hi")


class TestProber:
    def test_zero_trials(self, grade):
        assert probe_monotonicity(grade, 0) == []

    def test_negative_trials_rejected(self, grade):
        with pytest.raises(ValueError):
            probe_monotonicity(grade, -1)

    def test_pairs_are_comparable_and_reported(self):
        space = FeatureSpace(tuple(FeatureDomain("boolean", 0, 1) for _ in range(2)))
        broken = LinearThresholdClassifier(space, [1, 1], [0.5], ClassOrder(("lo", "hi")))
        broken.weights = (-5.0, 1.0)  # force a violation the prober must find
        violations = probe_monotonicity(broken, 500, rng_seed=3)
        assert violations
        for violation in violations:
            assert point_leq(violation.lower, violation.upper)
            assert broken.classes.rank(violation.lower_label) > broken.classes.rank(violation.upper_label)

    def test_a_child_gets_each_pair_in_turn(self, tmp_path):
        # each pair goes out as two classify calls; the child must receive
        # both lines of every pair, lower point first, in the order drawn
        log = tmp_path / "requests.log"
        recorder = ClassifyOnly()
        with logging_grade_oracle(log) as oracle:
            assert probe_monotonicity(oracle, 40, rng_seed=11) == probe_monotonicity(recorder, 40, rng_seed=11)
        assert len(recorder.points) == 80
        assert logged_requests(log) == request_lines(recorder.points)

    def test_each_request_is_one_write_answered_before_the_next(self, tmp_path):
        # the child reads raw chunks and notes whether more input came in
        # before it answered; it answers B to every odd-numbered request
        # line and A to every even one, so each pair is a violation
        script = (
            "import os, select, sys\n"
            "log = open(sys.argv[1], 'a')\n"
            "n = 0\n"
            "while chunk := os.read(0, 65536):\n"
            "    early = bool(select.select([0], [], [], 0.01)[0])\n"
            "    log.write(repr((chunk, early)) + '\\n'); log.flush()\n"
            "    for _ in range(chunk.count(b'\\n')):\n"
            "        os.write(1, b'A\\n' if n % 2 else b'B\\n'); n += 1\n"
        )
        space = FeatureSpace((FeatureDomain("integer", 0, 3),) * 2)
        log = tmp_path / "chunks.log"
        with ExternalProcessOracle([sys.executable, "-c", script, str(log)], space, ClassOrder(("A", "B"))) as oracle:
            violations = probe_monotonicity(oracle, 5, rng_seed=2)
        chunks = [ast.literal_eval(line) for line in log.read_text().splitlines()]
        asked = request_lines(p.values for v in violations for p in (v.lower, v.upper))
        assert len(chunks) == 10 and chunks == [(line.encode(), False) for line in asked]
        assert [(v.lower_label, v.upper_label) for v in violations] == [("B", "A")] * 5


def _oracle_script(body: str) -> list[str]:
    return [sys.executable, "-c", body]


class TestExternalProcessOracle:
    def grade_space(self):
        g = GradeClassifier()
        return g.space, g.classes

    def test_matches_in_process_grade(self, grade):
        space, classes = self.grade_space()
        rng = random.Random(5)
        with ExternalProcessOracle(_oracle_script(GRADE_CHILD), space, classes) as oracle:
            for _ in range(25):
                p = Point(tuple(rng.randint(0, 10) for _ in range(4)))
                assert oracle.classify(p) == grade.classify(p)

    @pytest.mark.parametrize("command", ["", "  ", []])
    def test_empty_command_line_is_refused(self, command):
        space, classes = self.grade_space()
        with pytest.raises(ValueError, match="empty oracle command line"):
            ExternalProcessOracle(command, space, classes)

    def test_unknown_label_is_hard_error(self):
        space, classes = self.grade_space()
        script = "import sys\nfor line in sys.stdin: print('Z', flush=True)"
        with ExternalProcessOracle(_oracle_script(script), space, classes) as oracle:
            with pytest.raises(OracleError, match="unknown label"):
                oracle.classify(Point((1, 1, 1, 1)))

    def test_process_exit_is_hard_error(self):
        space, classes = self.grade_space()
        with ExternalProcessOracle(_oracle_script("pass"), space, classes) as oracle:
            with pytest.raises(OracleError):
                oracle.classify(Point((1, 1, 1, 1)))

    @pytest.mark.parametrize("child_hangs", [False, True])
    def test_close_releases_both_pipes(self, child_hangs):
        space, classes = self.grade_space()
        with ExternalProcessOracle(_oracle_script(GRADE_CHILD), space, classes) as oracle:
            oracle.classify(Point((1, 1, 1, 1)))
            proc = oracle._proc
            if child_hangs:
                # a child that outlives the grace period is killed
                real_wait = proc.wait

                def wait(timeout=None):
                    if timeout is not None:
                        raise subprocess.TimeoutExpired(proc.args, timeout)
                    return real_wait()

                proc.wait = wait
        assert proc.stdin.closed and proc.stdout.closed
        assert proc.returncode is not None

    def test_integers_past_float_precision_are_sent_exactly(self, tmp_path):
        space = FeatureSpace((FeatureDomain("integer", 0, 2**54),) * 2 + (FeatureDomain("real", 0, 10),) * 2)
        log = tmp_path / "requests.log"
        with logging_grade_oracle(log, space) as oracle:
            oracle.classify(Point((2**53 + 1, 0, 0, 0)))
            oracle.classify(Point((0, 2**53 + 3, 0, 0)))
            oracle.classify(Point((True, 1, 1.5, 2.0)))
        assert logged_requests(log) == ["9007199254740993,0,0,0\n", "0,9007199254740995,0,0\n", "1,1,1.5,2\n"]

    def test_crlf_responses_accepted(self):
        space, classes = self.grade_space()
        script = "import sys\nfor line in sys.stdin: sys.stdout.write('B\\r\\n'); sys.stdout.flush()"
        with ExternalProcessOracle(_oracle_script(script), space, classes) as oracle:
            assert oracle.classify(Point((1, 1, 1, 1))) == oracle.classify(Point((2, 2, 2, 2))) == "B"

    def test_undecodable_response_is_an_unknown_label(self):
        space, classes = self.grade_space()
        script = "import sys\nfor line in sys.stdin: sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()"
        with ExternalProcessOracle(_oracle_script(script), space, classes) as oracle:
            with pytest.raises(OracleError, match=r"unknown label '\\\\xff'"):
                oracle.classify(Point((1, 1, 1, 1)))

    def test_a_bad_answer_leaves_the_dialogue_in_step(self):
        # the child answers Z to 1,1,1,1 only; that answer is read before the
        # error is raised, so each later request gets its own
        space, classes = self.grade_space()
        script = GRADE_CHILD.replace(
            "for line in sys.stdin:\n",
            "for line in sys.stdin:\n    if line == '1,1,1,1\\n':\n        print('Z', flush=True)\n        continue\n",
        )
        with ExternalProcessOracle(_oracle_script(script), space, classes) as oracle:
            with pytest.raises(OracleError, match="unknown label 'Z'"):
                oracle.classify(Point((1, 1, 1, 1)))
            assert oracle.classify(Point((0, 0, 0, 0))) == "F"
            assert oracle.classify(Point((10, 10, 10, 10))) == "A"

    def test_exit_status_is_named(self):
        space, classes = self.grade_space()
        with ExternalProcessOracle(_oracle_script("import sys; sys.exit(7)"), space, classes) as oracle:
            with pytest.raises(OracleError, match="exit status 7"):
                oracle.classify(Point((1, 1, 1, 1)))

    def test_a_request_to_an_exited_child_is_rejected(self):
        # the first call finds the child gone and reaps it; the second
        # cannot write to a pipe nobody reads
        space, classes = self.grade_space()
        with ExternalProcessOracle(_oracle_script("import sys; sys.exit(3)"), space, classes) as oracle:
            with pytest.raises(OracleError, match="exit status 3"):
                oracle.classify(Point((1, 1, 1, 1)))
            with pytest.raises(OracleError, match=r"rejected request '2,2,2,2\\n'.*\(exit status 3\)"):
                oracle.classify(Point((2, 2, 2, 2)))

    def test_a_child_that_closes_its_output_but_runs_on(self):
        space, classes = self.grade_space()
        script = "import os, sys; os.close(1); sys.stdin.read()"
        with ExternalProcessOracle(_oracle_script(script), space, classes) as oracle:
            with pytest.raises(OracleError, match=r"closed its output.*\(the process is still running\)"):
                oracle.classify(Point((1, 1, 1, 1)))

    def test_a_request_longer_than_one_atomic_write(self):
        # 400 real coordinates make one request line of more than PIPE_BUF bytes
        space = FeatureSpace((FeatureDomain("real", 0, 10),) * 400)
        script = "import sys\nfor line in sys.stdin: print('B' if line.count(',') == 399 else 'A', flush=True)"
        rng = random.Random(8)
        points = [Point(tuple(rng.uniform(0, 10) for _ in range(400))) for _ in range(2)]
        assert len(request_lines(points[:1])[0]) > select.PIPE_BUF
        with ExternalProcessOracle(_oracle_script(script), space, ClassOrder(("A", "B"))) as oracle:
            assert oracle.classify(points[0]) == oracle.classify(points[1]) == "B"

    def test_unstartable_command(self):
        space, classes = self.grade_space()
        oracle = ExternalProcessOracle(["/nonexistent/oracle"], space, classes)
        with pytest.raises(OracleError):
            oracle.classify(Point((1, 1, 1, 1)))
