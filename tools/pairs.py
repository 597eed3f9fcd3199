"""Alternating benchmark pairs: a base revision against this checkout.

    python3 tools/pairs.py --base HEAD --workload cnf-zeros --workload cnf-ones \
        --seeds 11..20 --seconds 10 --out BENCH.json

The base revision is exported with `git archive` into a temporary tree, so
both sides run `bench/run.py` from their own files; the head side is this
checkout's working tree. For each workload and each seed the two sides run
once each, one after the other, and the side that runs first alternates
from pair to pair. Runs are untraced and one at a time.

The output holds every run's end-to-end metrics and, per metric, each
side's median and quartiles, how many pairs each side won (ties count for
neither, the direction comes from BENCHMARK.json), the relative change of
the medians, whether that change stays within the metric's bound, and
whether a gain would hold: the head side wins at least nine pairs in ten
and its median beats the base median by more than the base side's
interquartile distance. The file is rewritten after every workload.

Exits 1 when any run reports `correct: false`, after writing the file, and
stops with an error when a run produces no result line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """`S..T` as the seeds S to T, both included, or a single seed `S`."""
    first, sep, last = text.partition("..")
    seeds = list(range(int(first), int(last) + 1)) if sep else [int(first)]
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median}
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def wins(pairs: list[tuple[float, float]], better: str) -> dict:
    """Pairs of (base, head) values won by each side; ties count for neither."""
    sign = 1 if better == "higher" else -1
    head = sum(1 for base, new in pairs if sign * (new - base) > 0)
    base = sum(1 for base, new in pairs if sign * (new - base) < 0)
    return {"head": head, "base": base, "ties": len(pairs) - head - base}


def compare(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """One metric over a workload's pairs: both sides' spreads, the win
    counts, the relative change of the medians (positive is better), whether
    it stays within `bound`, and whether a claimed gain would hold."""
    base, head = spread([b for b, _ in pairs]), spread([h for _, h in pairs])
    won = wins(pairs, better)
    sign = 1 if better == "higher" else -1
    gap = sign * (head["median"] - base["median"])
    change = gap / abs(base["median"]) if base["median"] else 0.0
    return {
        "better": better,
        "base": base,
        "head": head,
        "wins": won,
        "change": change,
        "within_bound": change >= -bound,
        "gain_holds": 10 * won["head"] >= 9 * len(pairs) and gap > base["q3"] - base["q1"],
    }


def summarize(runs: list[dict], directions: dict[str, tuple[str, float]]) -> dict:
    """Per metric of BENCHMARK.json's end-to-end list, `compare` over the
    runs' pairs, matched by pair index."""
    sides = {side: {r["pair"]: r["metrics"] for r in runs if r["side"] == side} for side in ("base", "head")}
    out = {}
    for name, (better, bound) in directions.items():
        pairs = [
            (sides["base"][i][name], sides["head"][i][name])
            for i in sorted(sides["base"])
            if i in sides["head"] and name in sides["base"][i] and name in sides["head"][i]
        ]
        if pairs:
            out[name] = compare(pairs, better, bound)
    return out


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced `bench/run.py` run of `tree`; its last output line."""
    argv = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        sys.exit(f"pairs.py: {' '.join(argv)} exited {done.returncode} without a result line")
    return {"correct": result["correct"], "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def export(rev: str, into: Path) -> str:
    """Extract `rev` of this repository into `into`; its commit id."""
    commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", f"{rev}^{{commit}}"], capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit], capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="S..T, one pair per seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    head_commit = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"], capture_output=True, text=True, check=True).stdout.strip()
    dirty = bool(subprocess.run(["git", "-C", str(REPO), "status", "--porcelain"], capture_output=True, text=True, check=True).stdout.strip())
    record = {
        "seconds": args.seconds,
        "seeds": args.seeds,
        "head": f"working tree on {head_commit}" + (", with uncommitted changes" if dirty else ""),
        "workloads": {},
    }
    wrong = 0
    with tempfile.TemporaryDirectory(prefix="pairs-base-") as tmp:
        record["base"] = export(args.base, Path(tmp))
        trees = {"base": Path(tmp), "head": REPO}
        for workload in args.workload:
            runs = []
            for pair, seed in enumerate(args.seeds):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for position, side in enumerate(order):
                    run = run_bench(trees[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, "first": position == 0, **run})
                    wrong += not run["correct"]
                    print(f"{workload} seed {seed} {side}: correct={run['correct']} expl_per_s={run['metrics'].get('expl_per_s')}", flush=True)
            record["workloads"][workload] = {"summary": summarize(runs, directions), "runs": runs}
            args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
