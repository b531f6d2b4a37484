#!/usr/bin/env python3
"""One benchmark for the whole pipeline.

    python3 benchmarks/perf/run.py --workload local-uniform --seed 1 \\
        --seconds 12 --trace 0

runs one workload, checks every answer against the oracle, prints
every metric by name with its unit, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
repeats all four workloads at half length under spans, writes
``benchmarks/perf/out/trace.json`` and reports the per-layer metrics.

    python3 benchmarks/perf/run.py --workload all --seed 1 --repeat 10 \\
        --out benchmarks/perf/out/a.json

runs every workload (each in its own interpreter, one after another,
the served one last) for seeds 1..10 and stores the results for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"


def contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: float = 1.0, out: Path = OUT) -> Dict[str, Any]:
    """Run one workload in this process; the result record."""
    sys.path[:0] = [path for path in (str(ROOT / "src"), str(HERE))
                    if path not in sys.path]
    from workloads import RUNNERS, WORKLOADS, Run

    run = Run(workload, seed, seconds, scale, trace, out)
    if trace:
        # The served workload goes last: its forked shard processes
        # must not overlap another workload's timing.
        for name in WORKLOADS:
            RUNNERS[name](run)
        run.layer["harness.trace_overhead_share"] = (
            run.trace_overhead_share(), "share")
        run.tracer.write(out / "trace.json")
        metrics = run.layer
    else:
        metrics = RUNNERS[workload](run)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": int(trace),
        "correct": run.failed == 0,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def report(record: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then the result line."""
    tag = "" if record["scale"] == 1 else f"  [scale {record['scale']}]"
    print(f"# {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}{tag}")
    for name, metric in sorted(record["metrics"].items()):
        print(f"{name:45s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'failed_share':45s} "
          f"{record['failed'] / record['attempted']:>16.6g} share "
          f"({record['failed']} of {record['attempted']})")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(args: argparse.Namespace) -> int:
    """Every workload x ``--repeat`` seeds, each in a child interpreter."""
    names = [entry["name"] for entry in contract()["workloads"]]
    records: List[Dict[str, Any]] = []
    status = 0
    for seed in range(args.seed, args.seed + args.repeat):
        for name in names:
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--scale", str(args.scale)],
                stdout=subprocess.PIPE, text=True)
            sys.stdout.write(child.stdout)
            sys.stdout.flush()
            if child.returncode != 0:
                status = 1
            lines = child.stdout.strip().splitlines()
            if lines and lines[-1].startswith("{"):
                records.append({
                    "workload": name, "seed": seed, "trace": args.trace,
                    "scale": args.scale, "seconds": args.seconds,
                    **json.loads(lines[-1])})
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": records}, indent=1))
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of BENCHMARK.json's workloads, or "
                             "'all' (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part (default: "
                             "BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every corpus size; results at "
                             "another scale are tagged and never "
                             "compared with scale-1 runs")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --workload all: seeds to run, "
                             "counting up from --seed")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --workload all: store the results "
                             "here (for compare.py)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.scale)
    report(record)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
