"""Run every workload untraced and traced, and tabulate all metrics.

    python3 bench/report.py [--seed 1] [--seconds 25]

Each run is a fresh `bench/run.py` process, so peak memory is per workload.
Prints every metric with its unit, workload and sample count, and writes
bench/out/report.json (everything the runs reported) and bench/out/layers.md
(the per-layer table of the traced runs). The layer table's per-instance
SAT and classifier seconds are the columns of the ROADMAP baseline.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT = BENCH_DIR / "out"
WORKLOADS = [w["name"] for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads((OUT / f"{workload}-trace{trace}.json").read_text(encoding="utf-8"))


def table(runs: dict[str, dict], title: str) -> list[str]:
    names = list(next(iter(runs.values()))["metrics"])
    lines = [f"### {title}", "", "| metric | unit | " + " | ".join(runs) + " |", "|---|---|" + "---|" * len(runs)]
    for name in names:
        unit = next(iter(runs.values()))["metrics"][name]["unit"]
        cells = [f"{r['metrics'][name]['value']:.4g} (n={r['samples'][name]})" for r in runs.values()]
        lines.append(f"| {name} | {unit} | " + " | ".join(cells) + " |")
    cells = [f"{r['failed']}/{r['attempted']}" for r in runs.values()]
    lines.append("| failed / attempted | count | " + " | ".join(cells) + " |")
    return lines


def baseline(traced: dict[str, dict]) -> list[str]:
    lines = ["### Per instance, traced (the ROADMAP baseline's columns)", "",
             "| workload | instances | expl. | SAT calls | SAT s | classifier s |", "|---|---|---|---|---|---|"]
    for workload, r in traced.items():
        m, n = r["metrics"], r["instances"]["traced"]
        lines.append(
            f"| {workload} | {n} | {r['explanations']['traced'] / n:.4g} | {m['satcore.calls']['value']:.4g} "
            f"| {m['satcore.s']['value']:.4g} | {m['classifiers.s']['value']:.4g} |"
        )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()

    plain = {w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps({"untraced": plain, "traced": traced}, indent=1) + "\n", encoding="utf-8")
    layers = table(traced, "Per-layer metrics, traced run") + [""] + baseline(traced)
    (OUT / "layers.md").write_text("\n".join(layers) + "\n", encoding="utf-8")
    print("\n".join(table(plain, "End-to-end metrics, untraced run") + [""] + layers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
