"""The benchmark's four workloads: seeded inputs, one timed request, checks.

Load is a closed loop: one client in one process sends its next request
only after the previous one returned. A workload's `setup` builds everything
a request needs from the seed; `run` makes one request through the public
API and times it; `check` then verifies its output, outside the timed
region, and returns one list of failed check names per instance attempted.
"""

from __future__ import annotations

import io
import json
import random
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

import monoxp.cli
from monoxp import (
    ClassifierOracle,
    ClassOrder,
    FeatureDomain,
    FeatureSpace,
    LinearThresholdClassifier,
    Point,
    SpecError,
    build_oracle,
    enumerate_explanations,
)

from checks import explanation_failures, family_failures
from spans import Api, patched

CHILD = Path(__file__).resolve().with_name("child_oracle.py")


@dataclass
class Outcome:
    """What one request delivered, and when."""

    seconds: float
    explanations: int
    oracle_calls: int
    first_result: float  # request start until its first result reached the caller
    gaps: list[float]  # between consecutive explanations; the first counts from the start
    instance_seconds: list[float]
    result: Any
    records_out: int = 0  # records the CLI wrote


class CountingShim(ClassifierOracle):
    """Counts classify calls where the oracle is handed in."""

    def __init__(self, inner: ClassifierOracle) -> None:
        self.inner = inner
        self.space = inner.space
        self.classes = inner.classes
        self.calls = 0

    def classify(self, point: Point) -> str:
        self.calls += 1
        return self.inner.classify(point)


def _gaps(start: float, stamps: list[float]) -> list[float]:
    return [b - a for a, b in zip([start, *stamps], stamps)]


def _draw_appendix_cnf(rng: random.Random, k: int) -> ClassifierOracle:
    """A random 3-CNF over k variables with round(4.3k) clauses, redrawn
    until the spec loader accepts it (no literal common to every clause)."""
    while True:
        clauses = [[x if rng.random() < 0.5 else -x for x in rng.sample(range(1, k + 1), 3)] for _ in range(round(4.3 * k))]
        try:
            return build_oracle({"schema": 1, "kind": "appendix-cnf", "variables": k, "clauses": clauses})
        except SpecError:
            continue


@dataclass
class CnfState:
    oracles: list[ClassifierOracle]
    point: Point
    audited: dict[int, tuple] = field(default_factory=dict)


class CnfWorkload:
    """Complete enumeration on random 3-CNF appendix classifiers at one corner.

    Why: the blocking formula grows to about 130 clauses at k=7, so the SAT
    layer does nearly all the work. At the all-zeros corner most blocking
    clauses are positive (about 125 AXps, 9 CXps); at the all-ones corner
    the families swap and the clauses are mostly negative, so a solver
    change that favours one clause polarity shows on one of the two. Both
    corners use the same formulas for a given seed. k=7 rather than 8 keeps
    a formula under half a second, so that a run holds dozens of them and
    its medians are steady.
    """

    def __init__(self, corner: int, k: int = 7, pool: int = 64) -> None:
        self.corner = corner
        self.k = k
        self.pool = pool

    def setup(self, seed: int, workdir: Path) -> CnfState:
        rng = random.Random(seed)
        oracles = [_draw_appendix_cnf(rng, self.k) for _ in range(self.pool)]
        point = Point((self.corner,) * (2 * self.k))
        for oracle in oracles:
            oracle.classify(point)
        return CnfState(oracles, point)

    def run(self, state: CnfState, index: int, api: Api) -> Outcome:
        shim = CountingShim(state.oracles[index % len(state.oracles)])
        oracle = api.instrument(shim)
        stamps: list[float] = []
        start = perf_counter()
        report = api.enumerate_explanations(state.point, oracle, callback=lambda expl: stamps.append(perf_counter()))
        end = perf_counter()
        gaps = _gaps(start, stamps)
        return Outcome(end - start, len(gaps), shim.calls, gaps[0] if gaps else end - start, gaps, [end - start], report)

    def check(self, state: CnfState, index: int, outcome: Outcome) -> list[list[str]]:
        r = outcome.result
        formula = index % len(state.oracles)
        found = (r.axps, r.cxps, r.sat_calls, r.complete)
        if formula in state.audited:
            # enumeration is deterministic: a formula seen before must give what was audited
            return [[] if found == state.audited[formula] else ["repeat_differs"]]
        failed = family_failures(*found, state.point, state.oracles[formula])
        if not failed:
            state.audited[formula] = found
        return [failed]


@dataclass
class WideState:
    oracle: ClassifierOracle
    rows: list[Point]
    audited: dict[int, tuple] = field(default_factory=dict)


class WideWorkload:
    """One find_axp and one find_cxp per row, linear model over 100 reals.

    Why: no SAT calls at all, so it is the bypass workload for any SAT-layer
    change (prediction: no change). Each classify validates all 100
    coordinates, so per-feature costs in the explainer and in point
    handling scale with N here and nowhere else.
    """

    def __init__(self, features: int = 100, rows: int = 200) -> None:
        self.features = features
        self.rows = rows

    def setup(self, seed: int, workdir: Path) -> WideState:
        rng = random.Random(seed)
        weights = [round(rng.uniform(0.5, 1.5), 3) for _ in range(self.features)]
        rows = [Point(tuple(round(rng.uniform(0, 10), 3) for _ in range(self.features))) for _ in range(self.rows)]
        scores = sorted(sum(w * x for w, x in zip(weights, row.values)) for row in rows)
        # thresholds at the score terciles, so the rows spread over all three classes
        thresholds = [scores[len(scores) // 3], scores[2 * len(scores) // 3]]
        spec = {
            "schema": 1,
            "kind": "linear",
            "features": [{"name": f"x{i}", "kind": "real", "lower": 0, "upper": 10} for i in range(1, self.features + 1)],
            "classes": ["low", "mid", "high"],
            "weights": weights,
            "thresholds": thresholds,
        }
        oracle = build_oracle(spec)
        for row in rows:
            oracle.classify(row)
        return WideState(oracle, rows)

    def run(self, state: WideState, index: int, api: Api) -> Outcome:
        shim = CountingShim(state.oracle)
        oracle = api.instrument(shim)
        v = state.rows[index % len(state.rows)]
        start = perf_counter()
        axp = api.find_axp(v, oracle)
        mid = perf_counter()
        cxp = api.find_cxp(v, oracle)
        end = perf_counter()
        return Outcome(end - start, 2, shim.calls, mid - start, [mid - start, end - mid], [end - start], (axp, cxp))

    def check(self, state: WideState, index: int, outcome: Outcome) -> list[list[str]]:
        row = index % len(state.rows)
        found = tuple(e.features for e in outcome.result)
        if row in state.audited:
            # the explainer is deterministic: a row seen before must give what was audited
            return [[] if found == state.audited[row] else ["repeat_differs"]]
        failed = explanation_failures(outcome.result, state.rows[row], state.oracle)
        if not failed:
            state.audited[row] = found
        return [failed]


class _Capture:
    """Stands in for stdout: keeps what the CLI writes, and when its first
    instance record arrived."""

    def __init__(self) -> None:
        self.parts: list[str] = []
        self.first_instance = None

    def write(self, text: str) -> int:
        if self.first_instance is None and '"type": "instance"' in text:
            self.first_instance = perf_counter()
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass


def _stamping(gaps: list[float], instances: list[float]):
    """`enumerate_explanations` that also notes when each explanation came out."""

    def enumerate_stamped(*args, callback=None, **kwargs):
        stamps: list[float] = []

        def mark(expl):
            stamps.append(perf_counter())
            if callback is not None:
                callback(expl)

        start = perf_counter()
        report = enumerate_explanations(*args, callback=mark, **kwargs)
        instances.append(perf_counter() - start)
        gaps.extend(_gaps(start, stamps))
        return report

    return enumerate_stamped


# A fixed model, so that only the rows vary with the seed.
PIPE_WEIGHTS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8)
PIPE_THRESHOLDS = (200, 260, 320)
PIPE_LABELS = ("D", "C", "B", "A")


@dataclass
class PipeState:
    rows: list[Point]
    spec_path: Path
    csv_path: Path
    served_log: Path
    reference: dict[int, tuple] = field(default_factory=dict)

    def take_served(self) -> int:
        """Requests the pipe children served since the last call."""
        text = self.served_log.read_text(encoding="utf-8") if self.served_log.exists() else ""
        self.served_log.write_text("", encoding="utf-8")
        return sum(int(line) for line in text.split())


class PipeWorkload:
    """`monoxp bench` in process on a CSV of seeded rows, with the classifier
    behind the pipe: a 4-class monotone linear model over 12 integer features.

    Why: the only workload that reaches the external-process oracle, the
    spec loader and the CLI. Pipe round trips dominate, and many oracle
    calls repeat a point already asked for the same row, which sizes any
    cache or dropped-duplicate change. Rows are drawn uniformly and kept
    when the model puts them in one of the two middle classes, where a row
    has 17 +- 5 explanations; rows in the outer classes have up to hundreds,
    so one of them would set a batch's time and make it depend on the seed.
    """

    def __init__(self, rows: int = 100) -> None:
        self.rows = rows

    def model(self) -> LinearThresholdClassifier:
        """The child's model, in process."""
        space = FeatureSpace(
            tuple(FeatureDomain("integer", 0, 10) for _ in PIPE_WEIGHTS),
            tuple(f"f{i}" for i in range(1, len(PIPE_WEIGHTS) + 1)),
        )
        return LinearThresholdClassifier(space, PIPE_WEIGHTS, PIPE_THRESHOLDS, ClassOrder(PIPE_LABELS))

    def setup(self, seed: int, workdir: Path) -> PipeState:
        rng = random.Random(seed)
        model = self.model()
        rows: list[Point] = []
        while len(rows) < self.rows:
            row = Point(tuple(rng.randint(0, 10) for _ in PIPE_WEIGHTS))
            if model.classify(row) in PIPE_LABELS[1:-1]:
                rows.append(row)
        csv_path = workdir / "pipe-rows.csv"
        spec_path = workdir / "pipe-spec.json"
        served_log = workdir / "pipe-served.log"
        csv_path.write_text(
            "\n".join([",".join(model.space.feature_names), *(",".join(map(str, row.values)) for row in rows)]) + "\n",
            encoding="utf-8",
        )
        spec = {
            "schema": 1,
            "kind": "external",
            "command": [
                sys.executable,
                str(CHILD),
                ",".join(map(str, PIPE_WEIGHTS)),
                ",".join(map(str, PIPE_THRESHOLDS)),
                ",".join(PIPE_LABELS),
                str(served_log),
            ],
            "features": [{"name": name, "kind": "integer", "lower": 0, "upper": 10} for name in model.space.feature_names],
            "classes": list(PIPE_LABELS),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        # warm-up: start a child once, so its first start is not timed
        oracle = build_oracle(spec)
        try:
            oracle.classify(rows[0])
        finally:
            oracle.close()
        state = PipeState(rows, spec_path, csv_path, served_log)
        state.take_served()
        return state

    def run(self, state: PipeState, index: int, api: Api) -> Outcome:
        out, err = _Capture(), io.StringIO()
        gaps: list[float] = []
        instances: list[float] = []
        stamping = nullcontext() if api.traced else patched(monoxp.cli, enumerate_explanations=_stamping(gaps, instances))
        argv = ["bench", "--spec", str(state.spec_path), "--instances", str(state.csv_path)]
        with stamping, redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            code = api.cli_main(argv)
            end = perf_counter()
        records = [json.loads(line) for line in "".join(out.parts).splitlines()]
        found = [r for r in records if r.get("type") == "instance"]
        first = (out.first_instance or end) - start
        explanations = sum(r["axp_count"] + r["cxp_count"] for r in found)
        return Outcome(
            end - start, explanations, state.take_served(), first, gaps, instances, (code, records, err.getvalue()), len(records)
        )

    def _reference(self, state: PipeState, row: int) -> tuple:
        """The row's families from an in-process run of the same model, audited once."""
        if row not in state.reference:
            oracle = self.model()
            v = state.rows[row]
            report = enumerate_explanations(v, oracle)
            failed = family_failures(report.axps, report.cxps, report.sat_calls, report.complete, v, oracle)
            state.reference[row] = (
                oracle.classify(v),
                [e.sorted_features() for e in report.axps],
                [e.sorted_features() for e in report.cxps],
                failed,
            )
        return state.reference[row]

    def check(self, state: PipeState, index: int, outcome: Outcome) -> list[list[str]]:
        code, records, err = outcome.result
        found = [r for r in records if r.get("type") == "instance"]
        if code != 0 or err or len(found) != len(state.rows) or records[-1].get("type") != "aggregate":
            return [["batch"]] * len(state.rows)
        results = []
        for row, record in enumerate(found):
            prediction, axps, cxps, failed = self._reference(state, row)
            failed = list(failed)
            if (record["prediction"], record["axps"], record["cxps"]) != (prediction, axps, cxps):
                failed.append("in_process_match")
            if not record["complete"]:
                failed.append("complete")
            if record["sat_calls"] != len(record["axps"]) + len(record["cxps"]) + 1:
                failed.append("sat_calls")
            results.append(failed)
        return results


WORKLOADS = {
    "cnf-zeros": CnfWorkload(corner=0),
    "cnf-ones": CnfWorkload(corner=1),
    "bench-pipe": PipeWorkload(),
    "explain-wide": WideWorkload(),
}
