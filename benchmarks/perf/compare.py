#!/usr/bin/env python3
"""Compare two sets of runs, row by row, by the benchmark's own bounds.

    python3 benchmarks/perf/compare.py A.json B.json

``A.json`` / ``B.json`` are what ``run.py --workload all --repeat N
--out FILE`` writes.  One row per (end-to-end metric, workload): both
medians, both spreads (distance between the quartiles as a share of
the median), and a verdict against the metric's ``bound`` in
``BENCHMARK.json`` — ``better`` / ``same`` / ``worse``, or
``unresolved`` when either spread is wider than the bound (then the
runs cannot tell).  Per-layer metrics (traced runs) have no bound;
their rows give the medians, and for counts say whether the two sets
hold exactly the same values.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
#: Units whose values are counted or computed, not timed: they must
#: repeat exactly.
EXACT_UNITS = frozenset({"count", "bytes", "ratio", "bits/edge"})


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(statistics.median(values))


Values = Dict[Tuple[str, int, str], List[float]]


def load(path: str) -> Tuple[Values, float]:
    """``(workload, trace, metric) -> values`` over a file's runs, and
    the one ``--scale`` they all ran at."""
    runs = json.loads(Path(path).read_text())["runs"]
    scales = {run["scale"] for run in runs}
    if len(scales) != 1:
        raise SystemExit(f"{path}: want runs at one scale, got {scales}")
    values: Values = {}
    for run in runs:
        for name, metric in run["metrics"].items():
            values.setdefault((run["workload"], run["trace"], name),
                              []).append(metric["value"])
    return values, scales.pop()


def verdict(before: Sequence[float], after: Sequence[float],
            better: str, bound: float) -> str:
    if max(spread(before), spread(after)) > bound:
        return "unresolved"
    base = statistics.median(before)
    change = (statistics.median(after) - base) / abs(base)
    worse_by = change if better == "lower" else -change
    if worse_by > bound:
        return "worse"
    return "better" if worse_by < -bound else "same"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    (before, scale), (after, other) = load(argv[0]), load(argv[1])
    if scale != other:
        raise SystemExit("the two sets ran at different --scale")
    contract: Dict[str, Any] = json.loads(
        (ROOT / "BENCHMARK.json").read_text())
    worse = 0
    row = "{:40s} {:18s} {:>12s} {:>7s} {:>12s} {:>7s} {:>7s}  {}"
    print(row.format("metric", "workload", "A median", "A iqr",
                     "B median", "B iqr", "bound", "verdict"))
    for metric in contract["end_to_end"]:
        for workload in contract["workloads"]:
            key = (workload["name"], 0, metric["name"])
            if key not in before or key not in after:
                continue
            a, b = before[key], after[key]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(row.format(
                metric["name"], workload["name"],
                f"{statistics.median(a):.5g}", f"{spread(a):.1%}",
                f"{statistics.median(b):.5g}", f"{spread(b):.1%}",
                f"{metric['bound']:.1%}", outcome))
    for metric in contract["per_layer"]:
        for workload in contract["workloads"]:
            key = (workload["name"], 1, metric["name"])
            if key not in before or key not in after:
                continue
            a, b = before[key], after[key]
            note = ""
            if metric["unit"] in EXACT_UNITS:
                note = "identical" if sorted(a) == sorted(b) else "DIFFERS"
            print(row.format(
                metric["name"], workload["name"],
                f"{statistics.median(a):.5g}", f"{spread(a):.1%}",
                f"{statistics.median(b):.5g}", f"{spread(b):.1%}",
                "-", note))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
