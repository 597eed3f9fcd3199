"""Command-line front end.

Subcommands: explain, enumerate, verify, probe, bench. Results go to stdout
as JSON Lines (one object per line, each with "schema": 1); structured error
objects go to stderr. Exit codes: 0 success, 1 usage or input error (a
path that cannot be opened included), 2 semantic (no contrastive explanation
exists), 3 oracle failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import queue
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from typing import Callable, Iterator, Optional, Sequence, TextIO, TypeVar

from .classifiers import ClassifierOracle, OracleError, probe_monotonicity
from .domain import Explanation, Point
from .enumeration import EnumerationReport, _Memo, enumerate_explanations
from .explainer import NoCxpExists, find_axp, find_cxp, verify_axp, verify_cxp
from .satcore import to_dimacs
from .specfile import SCHEMA_VERSION, SpecError, build_oracle, load_spec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SEMANTIC = 2
EXIT_ORACLE = 3

T = TypeVar("T")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for semantic errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# a value argparse would read as an option: "-" and a digit, or "-." and a digit
_NEGATIVE_VALUE = re.compile(r"-\.?\d")


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """Hand each value that starts like a negative number to the option
    before it, as `--instance=-1,0`.

    argparse reads such a value as an option unless it is one negative
    number, so `--instance -1,0` would fail as a usage error. No option of
    this tool starts with "-" and a digit."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and out[-1] != "--" and _NEGATIVE_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _at_least(minimum, convert):
    """argparse type: `convert` the text, then reject values below `minimum`."""

    def parse(text: str):
        value = convert(text)
        if not value >= minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _record(record_type: str, **fields) -> dict:
    out = {"schema": SCHEMA_VERSION, "type": record_type}
    out.update(fields)
    return out


def _emit(stream: TextIO, record: dict) -> None:
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def _emit_error(kind: str, message: str) -> None:
    _emit(sys.stderr, _record("error", error=kind, message=message))


def _parse_value(cell: str) -> int | float:
    cell = cell.strip()
    try:
        return int(cell)  # exact, however many digits
    except ValueError:
        pass
    try:
        x = float(cell)
    except ValueError:
        raise ValueError(f"not a number: {cell!r}") from None
    return int(x) if x.is_integer() else x


def _is_number_text(cell: str) -> bool:
    try:
        _parse_value(cell)
    except ValueError:
        return False
    return True


def _parse_instance(cells: Sequence[str], oracle: ClassifierOracle) -> Point:
    """An --instance value split at its commas, or a CSV row's cells, as a point of the oracle's space."""
    return oracle.space.validate_point(Point(tuple(map(_parse_value, cells))))


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers: {text!r}") from None


def _parse_order(text: Optional[str], oracle: ClassifierOracle) -> Optional[tuple[int, ...]]:
    return None if text is None else oracle.space.validate_order(_parse_ints(text, "order"))


def _parse_features(text: str, oracle: ClassifierOracle) -> frozenset[int]:
    if text.strip() == "":
        return frozenset()
    return oracle.space.validate_features(_parse_ints(text, "feature list"))


def _feature_names(oracle: ClassifierOracle, features) -> list[str]:
    return [oracle.space.name(i) for i in sorted(features)]


def _counted(oracle: ClassifierOracle, v: Point, work: Callable[[_Memo, str], T]) -> tuple[T, dict]:
    """Classify v through one memo that holds the oracle to its first
    answers, then run `work(memo, prediction)` through the same memo.

    Returns the work's result and the fields every per-instance record
    shares. `time_total` covers the prediction plus the work; the counts and
    `time_classifier` cover every call the memo sent to the oracle, so a
    command asks each point once, except where an enumeration loop asks a
    corner again.
    """
    memo = _Memo(oracle)
    start = time.perf_counter()
    prediction = memo.classify(v)
    result = work(memo, prediction)
    total = time.perf_counter() - start
    return result, {
        "instance": list(v.values),
        "prediction": prediction,
        "oracle_calls": memo.call_count,
        "time_total": total,
        "time_classifier": memo.classify_seconds,
    }


def _report_counts(report: EnumerationReport) -> dict:
    """The fields of an enumeration run that a summary or instance record adds to `_counted`'s."""
    return {
        "time_sat": report.sat_seconds,
        "axp_count": len(report.axps),
        "cxp_count": len(report.cxps),
        "sat_calls": report.sat_calls,
        "cache_hits": report.cache_hits,
        "complete": report.complete,
    }


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The --output file, or whatever sys.stdout is on entry, which is left open."""
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as stream:
            yield stream


def cmd_explain(args) -> int:
    with build_oracle(load_spec(args.spec)) as oracle:
        v = _parse_instance(args.instance.split(","), oracle)
        order = _parse_order(args.order, oracle)
        find = find_axp if args.kind == "axp" else find_cxp
        with _output(args.output) as stream:
            expl, counted = _counted(oracle, v, lambda memo, _: find(v, memo, order=order))
            _emit(
                stream,
                _record(
                    "explanation",
                    **counted,
                    kind=expl.kind.value,
                    features=expl.sorted_features(),
                    feature_names=_feature_names(oracle, expl.features),
                    sat_calls=0,
                ),
            )
    return EXIT_OK


def _same_file(output: Optional[str], path: str) -> bool:
    """Does `path` name the file the records go to: --output, else stdout's, if it has a descriptor?"""
    if output not in (None, "-"):
        return os.path.realpath(output) == os.path.realpath(path)
    try:
        return os.path.samestat(os.stat(path), os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def cmd_enumerate(args) -> int:
    # two handles on one file would interleave their writes
    if args.dump_cnf and _same_file(args.output, args.dump_cnf):
        raise ValueError(f"--output and --dump-cnf name the same file: {args.dump_cnf}")
    with build_oracle(load_spec(args.spec)) as oracle:
        v = _parse_instance(args.instance.split(","), oracle)
        order = _parse_order(args.order, oracle)
        with ExitStack() as stack:
            # both paths open before the run, so a bad one costs no work
            stream = stack.enter_context(_output(args.output))
            dump = stack.enter_context(open(args.dump_cnf, "w", encoding="utf-8")) if args.dump_cnf else None

            def run(memo: _Memo, prediction: str) -> EnumerationReport:
                index = 0

                def on_explanation(expl: Explanation) -> None:
                    nonlocal index
                    index += 1
                    _emit(
                        stream,
                        _record(
                            "explanation",
                            index=index,
                            instance=list(v.values),
                            prediction=prediction,
                            kind=expl.kind.value,
                            features=expl.sorted_features(),
                            feature_names=_feature_names(oracle, expl.features),
                        ),
                    )

                return enumerate_explanations(
                    v, memo, limit=args.limit, budget=args.budget, order=order, callback=on_explanation
                )

            report, counted = _counted(oracle, v, run)
            _emit(stream, _record("summary", **counted, **_report_counts(report)))
            if dump is not None:
                dump.write(to_dimacs(report.formula))
    return EXIT_OK


def cmd_verify(args) -> int:
    with build_oracle(load_spec(args.spec)) as oracle:
        v = _parse_instance(args.instance.split(","), oracle)
        features = _parse_features(args.features, oracle)
        check = verify_axp if args.kind == "axp" else verify_cxp

        def audit(memo: _Memo, _) -> tuple[bool, bool]:
            holds = check(features, v, memo)
            return holds, holds and all(not check(features - {i}, v, memo) for i in sorted(features))

        with _output(args.output) as stream:
            (holds, minimal), counted = _counted(oracle, v, audit)
            _emit(
                stream,
                _record(
                    "verification",
                    **counted,
                    kind=args.kind,
                    features=sorted(features),
                    feature_names=_feature_names(oracle, features),
                    sufficient=holds,
                    minimal=minimal,
                    sat_calls=0,
                ),
            )
    return EXIT_OK


def cmd_probe(args) -> int:
    with build_oracle(load_spec(args.spec)) as oracle:
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("MONOXP_SEED", "0"))
        with _output(args.output) as stream:
            violations = probe_monotonicity(oracle, args.trials, rng_seed=seed)
            _emit(
                stream,
                _record(
                    "probe",
                    trials=args.trials,
                    seed=seed,
                    violation_count=len(violations),
                    violations=[
                        {
                            "lower": list(violation.lower.values),
                            "upper": list(violation.upper.values),
                            "lower_label": violation.lower_label,
                            "upper_label": violation.upper_label,
                        }
                        for violation in violations
                    ],
                ),
            )
    return EXIT_OK


def _read_instance_rows(path: str) -> list[tuple[int, list]]:
    """CSV rows as (line_number, raw cells); a first row with no number in it is a header."""
    # utf-8-sig drops the byte-order mark that spreadsheet programs write first
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        rows = [(reader.line_num, cells) for cells in reader if any(c.strip() for c in cells)]
    if rows and not any(map(_is_number_text, rows[0][1])):
        del rows[0]  # a row with a number in it is data, malformed or not
    return rows


def _bench_one(oracle: ClassifierOracle, line: int, cells: list) -> dict:
    try:
        point = _parse_instance(cells, oracle)
        report, counted = _counted(oracle, point, lambda memo, _: enumerate_explanations(point, memo))
    except ValueError as exc:
        return _record("row-error", line=line, message=str(exc))
    return _record(
        "instance",
        line=line,
        **counted,
        axps=[e.sorted_features() for e in report.axps],
        cxps=[e.sorted_features() for e in report.cxps],
        **_report_counts(report),
    )


def aggregate_bench_records(records: Sequence[dict]) -> dict:
    """Fold per-instance bench records into the aggregate record."""
    done = [r for r in records if r["type"] == "instance"]
    errors = sum(1 for r in records if r["type"] == "row-error")
    count = len(done)
    axp_total = sum(r["axp_count"] for r in done)
    cxp_total = sum(r["cxp_count"] for r in done)
    axp_size_total = sum(len(features) for r in done for features in r["axps"])
    cxp_size_total = sum(len(features) for r in done for features in r["cxps"])
    time_total = sum(r["time_total"] for r in done)
    time_classifier = sum(r["time_classifier"] for r in done)
    return _record(
        "aggregate",
        instances=count,
        errors=errors,
        axp_count_avg=axp_total / count if count else 0.0,
        cxp_count_avg=cxp_total / count if count else 0.0,
        axp_size_avg=axp_size_total / axp_total if axp_total else 0.0,
        cxp_size_avg=cxp_size_total / cxp_total if cxp_total else 0.0,
        oracle_calls_avg=sum(r["oracle_calls"] for r in done) / count if count else 0.0,
        sat_calls_avg=sum(r["sat_calls"] for r in done) / count if count else 0.0,
        cache_hits_avg=sum(r["cache_hits"] for r in done) / count if count else 0.0,
        time_total_sum=time_total,
        time_classifier_sum=time_classifier,
        time_sat_sum=sum(r["time_sat"] for r in done),
        classifier_time_pct=100.0 * time_classifier / time_total if time_total else 0.0,
    )


def cmd_bench(args) -> int:
    spec = load_spec(args.spec)
    rows = _read_instance_rows(args.instances)
    workers = args.parallel or 1
    records: list[dict] = []
    with ExitStack() as stack:
        # one oracle per worker; a row takes an idle one, so workers never share
        idle: queue.SimpleQueue[ClassifierOracle] = queue.SimpleQueue()
        for _ in range(workers):
            idle.put(stack.enter_context(build_oracle(spec)))
        stream = stack.enter_context(_output(args.output))
        pool = stack.enter_context(ThreadPoolExecutor(max_workers=workers))

        def bench_row(row: tuple[int, list]) -> dict:
            oracle = idle.get()
            try:
                return _bench_one(oracle, *row)
            finally:
                idle.put(oracle)

        # a serial run stays on this thread; either way rows come back in order,
        # so each record goes out once its row and every earlier row are done
        results = pool.map(bench_row, rows) if workers > 1 else map(bench_row, rows)
        for record in results:
            records.append(record)
            if record["type"] == "row-error":
                _emit_error("malformed-row", f"line {record['line']}: {record['message']}")
            else:
                _emit(stream, record)
        _emit(stream, aggregate_bench_records(records))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="monoxp", description="Formal explanations for black-box monotonic classifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", required=True, help="classifier description (JSON)")
        p.add_argument("--output", default=None, help="output path for JSON Lines (default stdout)")

    p = sub.add_parser("explain", help="compute one explanation")
    common(p)
    p.add_argument("--instance", required=True, help="comma-separated feature values")
    p.add_argument("--kind", choices=("axp", "cxp"), required=True)
    p.add_argument("--order", default=None, help="feature scan order, e.g. 1,2,3,4")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("enumerate", help="enumerate all explanations")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--order", default=None)
    p.add_argument("--limit", type=_at_least(0, int), default=None, help="stop after this many explanations")
    p.add_argument("--budget", type=_at_least(0, float), default=None, help="wall-clock budget in seconds")
    p.add_argument("--dump-cnf", default=None, help="write the final blocking formula as DIMACS")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="check a feature set against an instance")
    common(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--features", required=True, help="comma-separated 1-based feature indices")
    p.add_argument("--kind", choices=("axp", "cxp"), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("probe", help="sample for monotonicity violations")
    common(p)
    p.add_argument("--trials", type=_at_least(0, int), default=1000)
    p.add_argument("--seed", type=int, default=None, help="RNG seed (default: MONOXP_SEED or 0)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("bench", help="explain a batch of instances and aggregate")
    common(p)
    p.add_argument("--instances", required=True, help="CSV file, one instance per row")
    p.add_argument("--parallel", type=_at_least(1, int), default=None, help="worker count (each gets its own oracle)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NoCxpExists as exc:
        _emit_error("no-cxp-exists", str(exc))
        return EXIT_SEMANTIC
    except OracleError as exc:
        _emit_error("oracle-failure", str(exc))
        return EXIT_ORACLE
    except (SpecError, ValueError, OSError) as exc:
        _emit_error("invalid-input", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
