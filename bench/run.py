"""monoxp benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload cnf-zeros --seed 1 --seconds 25 --trace 0

Run it from anywhere; it imports monoxp from the src/ directory next to
this one and exits non-zero, printing no result, when that is missing.
Load is a closed loop: one client sends the next request when the previous
one returns, for --seconds of timed work. Every output is checked outside
the timed region; the result's `failed` over `attempted` is failed_frac.

With --trace 0 it reports the end-to-end metrics. Timings are medians over
the run's requests, in reference seconds: before each request the run
times a fixed pure-Python calibration kernel, and every time is multiplied
by REFERENCE_CALIBRATION_S over the median kernel time (rates divided by
it). The 2-vCPU VM this was tuned on changed speed by up to 1.7x from
one minute to the next, which moved raw medians of identical runs by
20-40%; the kernel slows with it. The raw values are kept in the run's
detail file.

With --trace 1 it alternates an untraced and a traced request over the
same inputs, reports the per-layer metrics from the traced ones and the
tracing overhead from the pair, and writes the spans to
bench/out/spans-<workload>.jsonl. A layer's counts and seconds there are
per instance: per formula on the cnf workloads, per row on the others.

Each metric is printed on its own line with its unit and sample count. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; bench/out/<workload>-trace<0|1>.json holds
the same with the sample counts, the raw times and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 12
CALIBRATION_STEPS = 4000
# About what the calibration kernel takes on that VM when it is quiet.
REFERENCE_CALIBRATION_S = 0.001


def _import_program() -> None:
    """Make `import monoxp` load this checkout's sources and nothing else."""
    if not (SRC / "monoxp" / "__init__.py").is_file():
        sys.exit(f"run.py: no monoxp sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import monoxp

    if Path(monoxp.__file__).resolve().parent != (SRC / "monoxp").resolve():
        sys.exit(f"run.py: imported monoxp from {monoxp.__file__}, not from {SRC}")


class Tally:
    """Sums over a set of requests, and over the checks of their outputs."""

    def __init__(self) -> None:
        self.requests = 0
        self.busy = 0.0
        self.explanations = 0
        self.oracle_calls = 0
        self.records_out = 0
        self.rates: list[float] = []
        self.first: list[float] = []
        self.gaps: list[float] = []
        self.instances: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def add(self, outcome) -> None:
        self.requests += 1
        self.busy += outcome.seconds
        self.explanations += outcome.explanations
        self.oracle_calls += outcome.oracle_calls
        self.records_out += outcome.records_out
        self.rates.append(_ratio(outcome.explanations, outcome.seconds))
        self.first.append(outcome.first_result)
        self.gaps.extend(outcome.gaps)
        self.instances.extend(outcome.instance_seconds)

    def add_checks(self, checked: list[list[str]]) -> None:
        for failed in checked:
            self.attempted += 1
            self.failed += bool(failed)
            self.failures.update(failed)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    start = perf_counter()
    seen: dict = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 61, i % 17, i >> 5)
        seen[key] = seen.get(key, 0) + len(key)
    return perf_counter() - start


def timed_setup(workload, seed: int):
    start = perf_counter()
    state = workload.setup(seed, OUT)
    return state, perf_counter() - start


def measure(workload, seed: int, seconds: float, rec=None):
    """Set up, then run requests until --seconds of timed work is done.

    Returns every untraced request, every traced one (with a recorder, each
    untraced request is followed by the same request traced), the set-up
    times, and the calibration times taken before each request. The set-up
    is repeated at even steps of the timed work, its state discarded, so
    that its median samples the whole run. Every output is checked.
    """
    from spans import UNTRACED, traced_api

    state, first = timed_setup(workload, seed)
    setups = [first]
    plain, traced = Tally(), Tally()
    calibration: list[float] = []
    wall_cap = perf_counter() + min(2 * seconds + 30, 150)
    index = 0
    while plain.busy + traced.busy < seconds and perf_counter() < wall_cap:
        if plain.busy + traced.busy >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(timed_setup(workload, seed)[1])
        calibration.append(calibrate())
        outcome = workload.run(state, index, UNTRACED)
        plain.add(outcome)
        plain.add_checks(workload.check(state, index, outcome))
        if rec is not None:
            with traced_api(rec) as api:
                root = rec.begin("request")
                outcome = workload.run(state, index, api)
                rec.end(root)
            rec.end_instance()
            traced.add(outcome)
            traced.add_checks(workload.check(state, index, outcome))
        index += 1
    while len(setups) < SETUP_REPEATS:
        setups.append(timed_setup(workload, seed)[1])
    return plain, traced, setups, calibration


def end_to_end(plain: Tally, setups: list[float], scale: float) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics; times are multiplied by `scale`."""
    from stats import percentile

    return {
        "expl_per_s": (percentile(plain.rates, 50) / scale, "1/s", len(plain.rates)),
        "expl_gap_s_p50": (percentile(plain.gaps, 50) * scale, "s", len(plain.gaps)),
        "instance_s_p50": (percentile(plain.instances, 50) * scale, "s", len(plain.instances)),
        "first_result_s": (percentile(plain.first, 50) * scale, "s", len(plain.first)),
        "oracle_calls_per_expl": (_ratio(plain.oracle_calls, plain.explanations), "count", plain.explanations),
        "setup_s": (statistics.median(setups) * scale, "s", len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


def per_layer(rec, plain: Tally, traced: Tally) -> dict[str, tuple[float, str, int]]:
    """Layer metrics of the traced requests. A run lasts a fixed time, so a
    layer's counts and seconds are given per instance (a formula or a row);
    shares are of the traced requests' total time."""
    from spans import LAYERS
    from stats import percentile

    durations: dict[str, list[float]] = {name: [] for name in ("request", *LAYERS)}
    own: Counter = Counter()
    for name, start, end, self_s in zip(rec.names, rec.starts, rec.ends, rec.self_times()):
        durations[name].append(end - start)
        own[name] += self_s
    total = sum(durations["request"])
    n = traced.attempted
    sat, clf, expl, cli = durations["satcore"], durations["classifiers"], durations["explainer"], durations["cli"]
    runs = len(durations["enumeration"])
    return {
        "satcore.calls": (_ratio(len(sat), n), "count", n),
        "satcore.s": (_ratio(sum(sat), n), "s", n),
        "satcore.s_per_call_p50": (percentile(sat, 50) if sat else 0.0, "s", len(sat)),
        "satcore.s_per_call_max": (max(sat, default=0.0), "s", len(sat)),
        "satcore.share": (_ratio(own["satcore"], total), "frac", len(sat)),
        "classifiers.calls": (_ratio(len(clf), n), "count", n),
        "classifiers.s": (_ratio(sum(clf), n), "s", n),
        "classifiers.us_per_call_p50": (percentile(clf, 50) * 1e6 if clf else 0.0, "us", len(clf)),
        "classifiers.share": (_ratio(own["classifiers"], total), "frac", len(clf)),
        "classifiers.unique_frac": (_ratio(rec.distinct_points, len(clf)), "frac", len(clf)),
        "explainer.calls": (_ratio(len(expl), n), "count", n),
        "explainer.self_s": (_ratio(own["explainer"], n), "s", n),
        "explainer.share": (_ratio(own["explainer"], total), "frac", len(expl)),
        "enumeration.self_s": (_ratio(own["enumeration"], n), "s", n),
        "enumeration.sat_calls_per_run": (_ratio(len(sat), runs), "count", runs),
        "cli.self_s": (_ratio(own["cli"], n), "s", n),
        "cli.share": (_ratio(own["cli"], total), "frac", len(cli)),
        "cli.records_out": (_ratio(traced.records_out, n), "count", n),
        "specfile.build_s": (_ratio(sum(durations["specfile"]), n), "s", n),
        "trace.overhead_frac": (_ratio(traced.busy, plain.busy) - 1, "frac", traced.requests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from spans import Recorder
    from stats import percentile, samples_beyond, tail_percentile
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    rec = Recorder() if args.trace else None
    plain, traced, setups, calibration = measure(workload, args.seed, args.seconds, rec)
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibration)
    raw = end_to_end(plain, setups, 1.0)
    if rec is None:
        metrics = end_to_end(plain, setups, scale)
    else:
        metrics = per_layer(rec, plain, traced)
        rec.write(str(OUT / f"spans-{args.workload}.jsonl"))

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    failures = plain.failures + traced.failures
    for name, (value, unit, samples) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}  (n={samples})")
    for name, timings in (("expl_gap_s", plain.gaps), ("instance_s", plain.instances), ("first_result_s", plain.first)):
        tail = tail_percentile(timings)
        if tail is not None and not args.trace:
            print(f"{args.workload}  {name} tail: p{tail[0]:g} = {tail[1] * scale:.6g} s  (n={len(timings)}, not gated)")
    if samples_beyond(len(plain.gaps), 90) >= 10 and not args.trace:
        print(f"{args.workload}  expl_gap_s p90 = {percentile(plain.gaps, 90) * scale:.6g} s  (n={len(plain.gaps)}, not gated)")
    print(f"{args.workload}  calibration kernel: median {statistics.median(calibration) * 1e3:.4g} ms over "
          f"{len(calibration)} runs; end-to-end times scaled by {scale:.4g}")
    print(f"{args.workload}  failed_frac = {_ratio(failed, attempted):.6g}  ({failed} of {attempted} instances failed a check"
          + (f": {dict(failures)})" if failures else ")"))

    result = {
        "correct": attempted > 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  samples={name: samples for name, (_, _, samples) in metrics.items()},
                  failed_checks=dict(failures),
                  calibration_s={"median": statistics.median(calibration), "p90": percentile(calibration, 90),
                                 "min": min(calibration), "n": len(calibration)},
                  scale=scale,
                  raw={name: value for name, (value, _, _) in raw.items()},
                  instances={"untraced": plain.attempted, "traced": traced.attempted},
                  explanations={"untraced": plain.explanations, "traced": traced.explanations})
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
