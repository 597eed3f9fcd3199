"""Classifier oracles: built-in monotone models, an external-process client,
a counting wrapper, and a randomized monotonicity prober.

An oracle is a black box: the only interaction is classify(point) -> label,
one point per call. Monotonicity is assumed by the explanation algorithms,
never enforced here; `probe_monotonicity` offers a sampling-based sanity
check. Oracles are meant to be used from one thread at a time.
"""

from __future__ import annotations

import abc
import math
import operator
import os
import shlex
import subprocess
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Optional, Sequence

from .domain import ClassOrder, FeatureDomain, FeatureSpace, Number, Point, _is_int, _is_number

class OracleError(RuntimeError):
    """Hard failure while talking to a classifier oracle."""


class ClassifierOracle(abc.ABC):
    """Deterministic labelling function over a feature space with ordered classes."""

    space: FeatureSpace
    classes: ClassOrder

    @abc.abstractmethod
    def classify(self, point: Point) -> str:
        """Label for a point; identical points must yield identical labels."""

    def close(self) -> None:
        """Release held resources such as a child process; a no-op for in-process models."""

    def __enter__(self) -> "ClassifierOracle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class GradeClassifier(ClassifierOracle):
    """Student grade model over (quiz, exam, homework, project), each in [0, 10].

    The score is max(0.3*quiz + 0.6*exam + 0.1*homework, project) and maps
    to grades F..A through fixed thresholds (2, 4, 5, 7, 9).
    """

    _LADDER = ((9.0, "A"), (7.0, "B"), (5.0, "C"), (4.0, "D"), (2.0, "E"))

    def __init__(self) -> None:
        self.space = FeatureSpace(
            tuple(FeatureDomain("real", 0, 10) for _ in range(4)),
            ("quiz", "exam", "homework", "project"),
        )
        self.classes = ClassOrder(("F", "E", "D", "C", "B", "A"))

    def classify(self, point: Point) -> str:
        self.space.validate_point(point)
        quiz, exam, homework, project = point.values
        score = max(0.3 * quiz + 0.6 * exam + 0.1 * homework, project)
        for threshold, grade in self._LADDER:
            if score >= threshold:
                return grade
        return "F"


class LinearThresholdClassifier(ClassifierOracle):
    """Weighted sum with nonnegative weights, bucketed by increasing thresholds.

    With M classes there are M-1 thresholds; the label rank is the number of
    thresholds the score reaches. Nonnegative weights make it monotone. With
    a single class (no thresholds) this is the constant classifier.
    """

    def __init__(
        self,
        space: FeatureSpace,
        weights: Sequence[Number],
        thresholds: Sequence[Number],
        classes: ClassOrder,
    ) -> None:
        if len(weights) != space.arity:
            raise ValueError(f"{len(weights)} weights for {space.arity} features")
        if not all(map(_is_number, (*weights, *thresholds))):
            raise TypeError("weights and thresholds must be numbers")
        # as FeatureDomain requires of real bounds; NaN would slip past the order tests below
        if not all(-math.inf < x < math.inf for x in (*weights, *thresholds)):
            raise ValueError("weights and thresholds must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if len(thresholds) != len(classes.labels) - 1:
            raise ValueError(f"{len(thresholds)} thresholds for {len(classes.labels)} classes")
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        self.space = space
        self.classes = classes
        self.weights = tuple(weights)
        self.thresholds = tuple(thresholds)

    def classify(self, point: Point) -> str:
        self.space.validate_point(point)
        score = sum(map(operator.mul, self.weights, point.values))
        return self.classes.labels[bisect_right(self.thresholds, score)]


_BINARY = ClassOrder(("0", "1"))


def _boolean_bits(space: FeatureSpace, classes: ClassOrder) -> tuple[int, ...]:
    """Check a boolean model's space and classes; bit j stands for feature j+1."""
    if any(d.kind != "boolean" for d in space.domains):
        raise ValueError("this classifier's features must all be boolean")
    if len(classes.labels) != 2:
        raise ValueError(f"this classifier has exactly two classes, not {len(classes.labels)}")
    return tuple(1 << j for j in range(space.arity))


def _ones_mask(bits: tuple[int, ...], point: Point) -> int:
    """The bitmask of a validated 0/1 point's ones, summed as ints: exact at any arity."""
    return sum(compress(bits, point.values))


class MonotoneDnfClassifier(ClassifierOracle):
    """Boolean classifier: true iff some term (a set of features) is all ones.

    Positive terms only, hence monotone. An empty term list gives the
    constant-0 classifier.
    """

    def __init__(self, space: FeatureSpace, terms: Sequence[Sequence[int]], classes: ClassOrder = _BINARY) -> None:
        self._bits = _boolean_bits(space, classes)
        self.space = space
        self.classes = classes
        for term in terms:
            if any(not _is_int(i) or not 1 <= i <= space.arity for i in term):
                raise ValueError(f"term {list(term)} is not a list of features 1..{space.arity}")
        self.terms = tuple(frozenset(t) for t in terms)
        self._term_masks = tuple(sum(self._bits[i - 1] for i in term) for term in self.terms)

    def classify(self, point: Point) -> str:
        self.space.validate_point(point)
        # a term is all ones when none of its bits is off
        off = ~_ones_mask(self._bits, point)
        hit = not all(map(off.__and__, self._term_masks))
        return self.classes.labels[1 if hit else 0]


class AppendixCnfClassifier(ClassifierOracle):
    """Monotone boolean classifier built from a CNF over k variables.

    The classifier has N = 2k boolean features. Feature i+k plays the role of
    the negation of feature i: the source CNF is rewritten with every negative
    literal -x_i replaced by x_{i+k}, giving a positive CNF. A point is
    classified 1 iff some pair (i, i+k) is all ones, or the rewritten CNF is
    satisfied. The number of explanations of the all-ones (all-zeros) point
    certifies satisfiability of the source CNF, which is why construction
    rejects CNFs with a literal common to every clause.
    """

    def __init__(self, space: FeatureSpace, clauses: Sequence[Sequence[int]], classes: ClassOrder = _BINARY) -> None:
        self._bits = _boolean_bits(space, classes)
        if space.arity % 2:
            raise ValueError(f"needs an even number of features, not {space.arity}")
        if not clauses:
            raise ValueError("need at least one clause")
        k = space.arity // 2
        cleaned: list[frozenset[int]] = []
        for clause in clauses:
            if any(not _is_int(l) or l == 0 or abs(l) > k for l in clause):
                raise ValueError(f"clause {list(clause)} has literals outside variables 1..{k}")
            cleaned.append(frozenset(clause))
        common = frozenset.intersection(*cleaned)
        if common:
            lit = min(common, key=abs)
            name = f"-x{-lit}" if lit < 0 else f"x{lit}"
            raise ValueError(f"literal {name} occurs in every clause, so the CNF is trivially satisfiable")
        self.num_source_vars = k
        # The positive rewrite maps -x_i to feature i+k, so a clause is a
        # mask over features 1..2k.
        self._clause_masks = tuple(
            sum(1 << (l - 1 if l > 0 else k - l - 1) for l in clause) for clause in cleaned
        )
        self.space = space
        self.classes = classes

    def classify(self, point: Point) -> str:
        self.space.validate_point(point)
        ones = _ones_mask(self._bits, point)
        # paired: bit i of the lower half and bit i of the upper half, x_i and its negation
        paired = ones & (ones >> self.num_source_vars)
        hit = paired or all(map(ones.__and__, self._clause_masks))
        return self.classes.labels[1 if hit else 0]


def _format_coordinate(value: Number) -> str:
    if isinstance(value, int):
        return str(int(value))  # exact at any size; a bool goes out as 0 or 1
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


# how many coordinate texts an external oracle keeps: enough for every value
# of small integer domains, bounded for real ones
_KEPT_TEXTS = 1024


class ExternalProcessOracle(ClassifierOracle):
    """Client for a classifier running as a child process.

    Line protocol over the child's standard streams, UTF-8:
      request  "v1,v2,...,vN\\n"  (decimal numbers, '.' separator; integers exact)
      response "LABEL\\n"          (one of the declared class labels; "\\r\\n" accepted)
    One point per request line, one answer line per request: classify
    checks and formats its point before the child starts or hears of it,
    writes the line whole and reads the answer before it returns, so the
    child gets the next request only after it has answered this one. The
    feature space and class order come from a sidecar description, never
    from the process. Any malformed response, unknown label, or early exit
    raises OracleError.
    """

    def __init__(self, command: str | Sequence[str], space: FeatureSpace, classes: ClassOrder) -> None:
        self.command = shlex.split(command) if isinstance(command, str) else list(command)
        if not self.command:
            raise ValueError("empty oracle command line")
        self.space = space
        self.classes = classes
        # every accepted response line, terminator included, to its label
        self._labels = {label.encode("utf-8") + end: label for end in (b"\n", b"\r\n") for label in classes.labels}
        self._texts: dict[Number, str] = {}
        self._proc: Optional[subprocess.Popen] = None

    def _text(self, value: Number) -> str:
        """A coordinate's request text, kept for the next request; equal numbers format alike."""
        text = _format_coordinate(value)
        if len(self._texts) < _KEPT_TEXTS:
            self._texts[value] = text
        return text

    def _label(self, line: bytes) -> str:
        label = self._labels.get(line)
        if label is not None:
            return label
        if not line.endswith(b"\n"):
            raise self._failure("oracle process closed its output mid-dialogue")
        shown = line.rstrip(b"\r\n").decode("utf-8", "backslashreplace")
        raise OracleError(f"oracle process returned unknown label {shown!r}")

    def _failure(self, message: str) -> OracleError:
        """The error for a broken pipe, naming the child's exit status once it has one."""
        try:
            status = self._proc.wait(timeout=1)
        except subprocess.TimeoutExpired:
            return OracleError(f"{message} (the process is still running)")
        return OracleError(f"{message} (exit status {status})")

    def classify(self, point: Point) -> str:
        self.space.validate_point(point)
        try:
            text = ",".join(map(self._texts.__getitem__, point.values))
        except KeyError:
            text = ",".join(map(self._text, point.values))
        request = (text + "\n").encode()
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            except OSError as exc:
                raise OracleError(f"cannot start oracle process {self.command!r}: {exc}") from exc
        data, stdin = request, self._proc.stdin.fileno()
        try:
            while data:
                data = data[os.write(stdin, data):]
        except OSError as exc:
            raise self._failure(f"oracle process rejected request {request.decode()!r}: {exc}") from exc
        return self._label(self._proc.stdout.readline())

    def close(self) -> None:
        if self._proc is None:
            return
        proc, self._proc = self._proc, None
        try:
            if proc.stdin:
                proc.stdin.close()
            proc.wait(timeout=5)
        except Exception:
            proc.kill()
            proc.wait()
        finally:
            if proc.stdout:
                proc.stdout.close()


class CountingOracle(ClassifierOracle):
    """Wrapper counting the inner oracle's classify calls, in `call_count`,
    and the wall time spent in them, in `classify_seconds`.

    Every call reaches the inner oracle, which needs only `space`, `classes`
    and `classify`. Not shareable across threads.
    """

    def __init__(self, inner: ClassifierOracle) -> None:
        self.inner = inner
        self.space = inner.space
        self.classes = inner.classes
        self.call_count = 0
        self.classify_seconds = 0.0

    def classify(self, point: Point) -> str:
        start = time.perf_counter()
        label = self.inner.classify(point)
        self.classify_seconds += time.perf_counter() - start
        self.call_count += 1
        return label


class InternalConsistencyError(OracleError):
    """The oracle answered a point it had answered before with another label.

    The algorithms take the classifier for a function, so an explanation
    built on two answers to one point is unsound. A deterministic oracle,
    monotone or not, never raises this. The memo of `monoxp.enumeration`
    raises it where the enumeration loop asks a corner again."""


@dataclass(frozen=True)
class MonotonicityViolation:
    """A comparable pair whose labels come out in the wrong order."""

    lower: Point
    upper: Point
    lower_label: str
    upper_label: str


def probe_monotonicity(oracle: ClassifierOracle, trials: int, rng_seed: int = 0) -> list[MonotonicityViolation]:
    """Sample comparable point pairs and report label-order violations.

    Builds pairs a <= b by construction, asks classify(a) and then
    classify(b), and checks rank(a) <= rank(b); a child process gets the
    pair as two requests. An empty result is evidence, not a proof, of
    monotonicity.
    """
    import random

    if trials < 0:
        raise ValueError("trials must be nonnegative")
    rng = random.Random(rng_seed)
    space = oracle.space
    violations: list[MonotonicityViolation] = []
    for _ in range(trials):
        a = Point(tuple(d.sample(rng) for d in space.domains))
        b = Point(tuple(d.sample(rng, lower=x) for d, x in zip(space.domains, a.values)))
        label_a, label_b = oracle.classify(a), oracle.classify(b)
        if oracle.classes.rank(label_a) > oracle.classes.rank(label_b):
            violations.append(MonotonicityViolation(a, b, label_a, label_b))
    return violations
