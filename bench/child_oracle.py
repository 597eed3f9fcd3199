"""Pipe classifier for the bench-pipe workload: a monotone linear model.

Speaks the line protocol of `monoxp.ExternalProcessOracle`: one request
"v1,...,vN" per line on stdin, one label per line on stdout. The label is
the class indexed by how many thresholds the weighted sum reaches, the same
rule as `monoxp.LinearThresholdClassifier`, so rows get the same labels in
process and over the pipe. On end of input it appends the number of
requests it served to a log file, which is how the benchmark counts oracle
calls at the process boundary.

    python3 child_oracle.py WEIGHTS THRESHOLDS LABELS SERVED_LOG

WEIGHTS, THRESHOLDS and LABELS are comma-separated lists. Standard library
only: it must start in any Python without the program installed.
"""

import sys
from bisect import bisect_right


def main(argv: list) -> int:
    weights = [float(w) for w in argv[1].split(",")]
    thresholds = [float(t) for t in argv[2].split(",")]
    labels = argv[3].split(",")
    served = 0
    try:
        for line in sys.stdin:
            values = [float(x) for x in line.split(",")]
            score = sum(w * x for w, x in zip(weights, values))
            sys.stdout.write(labels[bisect_right(thresholds, score)] + "\n")
            sys.stdout.flush()
            served += 1
    finally:
        with open(argv[4], "a", encoding="utf-8") as log:
            log.write(f"{served}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
