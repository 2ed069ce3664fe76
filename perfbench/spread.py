#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Runs ``perfbench/run.py`` once per seed on each workload (untraced) and
prints, per metric, every run's value, their median and the distance
between their first and third quartiles as a share of that median — the
spread the metric's ``bound`` must exceed — and, unscored, the same
runs' unscaled wall values and gauge readings.  From the repository root::

    python3 perfbench/spread.py --runs 10
    python3 perfbench/spread.py --runs 5 --workload service_mixed

Exits 1 when any spread exceeds its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Detail-line values printed next to the gated metrics: the wall times
#: the gated (scaled) ones come from, and the host speed they were read at.
UNSCALED = (
    "wall.latency_p50_ms",
    "wall.latency_p90_ms",
    "wall.throughput_qps",
    "wall.setup_s",
    "gauge.median_ms",
)


def spread_of(values) -> float:
    """Distance between the quartiles of ``values``, over their median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def run_once(workload: str, seed: int, seconds: float) -> Tuple[dict, dict, float]:
    """The metrics and detail of one untraced run, and its wall seconds."""
    started = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            f"{seconds:g}",
            "--trace",
            "0",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stderr}")
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return result["metrics"], detail, time.perf_counter() - started


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        unscaled = {name: [] for name in UNSCALED}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            metrics, detail, wall = run_once(workload, seed, args.seconds)
            walls.append(wall)
            for name in values:
                values[name].append(metrics[name]["value"])
            for name in unscaled:
                unscaled[name].append(detail[name])
        print(
            f"{workload} ({args.runs} runs, {args.seconds:g} s; "
            f"wall per run {min(walls):.1f}-{max(walls):.1f} s)"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            median = statistics.median(values[name])
            spread = spread_of(values[name])
            flag = ""
            if spread > metric["bound"]:
                flag, ok = "  OVER BOUND", False
            elif spread > metric["bound"] / 3:
                flag = "  (above a third of the bound)"
            print(
                f"  {name:16s} median {median:12.6f} {metric['unit']:6s} "
                f"spread {spread:7.4f} bound {metric['bound']}{flag}"
            )
            print("    " + " ".join(f"{v:.4g}" for v in values[name]))
        # What the same runs read without scaling, for comparison.
        for name, observed in unscaled.items():
            print(
                f"  {name:22s} median {statistics.median(observed):12.6f} "
                f"spread {spread_of(observed):7.4f} (unscored)"
            )
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
