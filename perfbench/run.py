#!/usr/bin/env python3
"""The repository benchmark: one command, four closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload omq_reference --seed 2018 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` makes a short untraced run for the tracing-overhead base,
then traced passes that wrap each layer's entry points (see
``perfbench/trace.py``) and reports the per-layer metrics.  Either way
every answer is checked against an oracle, a human-readable report goes
to stdout, and the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The process runs pinned to one CPU, and every gated time is scaled to a
reference host speed by a gauge read around each timed operation (see
``perfbench/hostspeed.py``); the wall times are printed beside them as
``wall.*``.

The benchmark refuses to start when any ``MDM_*`` environment variable
is set, because those change the library defaults at import time.  It
runs under ``PYTHONHASHSEED=0`` (re-executing itself when the variable
is unset or different): string-hash randomization changes dict and set
layouts from process to process, which moved run-to-run latency by up
to ~20% on the reference OMQ with identical work counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The benchmark's definition: metric names and units, and the run length
#: the bounds were measured at.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Where traced runs write their spans, one JSON object per line.
SPAN_DIR = HERE / "out"

#: Set-ups timed per run, spread evenly over the measured time: host
#: speed drifts over seconds, so set-up is sampled across the same window
#: as the latencies, and ``setup_s`` is their median.
SETUP_SAMPLES = 20
#: Seconds of untimed load before measuring: the first seconds of CPU
#: work after idle ran ~20% slower on a shared 2-vCPU host.
WARMUP_S = 2.0
#: Answers the untraced part of a traced run needs at least.
TRACE_BASE_SAMPLES = 20
#: Hash seed every measuring process runs under.
HASH_SEED = "0"


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment_problem() -> Optional[str]:
    """Why the benchmark must not run here, or None."""
    pinned = sorted(name for name in os.environ if name.startswith("MDM_"))
    if pinned:
        return (
            f"refusing to run with {', '.join(pinned)} set: MDM_* variables "
            "change the library defaults the workloads are defined against"
        )
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program source at {ROOT / 'src' / 'repro'}"
    return None


def pin_to_one_cpu() -> Optional[int]:
    """Run this process, and every thread it starts later, on one CPU.

    The interpreter lock lets one thread run Python at a time anyway, so
    the program loses little; what goes is its threads hopping between
    CPUs that a shared host runs at different speeds, which made the
    same query's latency spread over 3x within one run, and the host-
    speed gauge now reads the speed of the CPU the program runs on.
    Returns the CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spare_build(workload, seed: int, gauge) -> Tuple[float, float]:
    """``(wall s, scaled s)`` of one more ``workload.build(seed)``, closed at once."""
    started = gauge.start()
    state = workload.build(seed)
    seconds = gauge.stop(started)
    workload.close(state)
    return seconds


def select(values: Dict[str, float], section: str):
    """Split ``values`` into the ``SPEC[section]`` metrics and the rest."""
    names = [metric["name"] for metric in SPEC[section]]
    missing = [name for name in names if name not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names {section} metrics nobody computes: {missing}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in SPEC[section]
    }
    return metrics, {name: value for name, value in values.items() if name not in metrics}


def end_to_end(workload, args) -> Dict[str, Any]:
    from perfbench.hostspeed import REFERENCE_MS, Gauge
    from perfbench.stats import percentile
    from perfbench.workloads import MIN_SAMPLES, Measurement, Stop

    # The first build also pays the program's module imports: not a sample.
    state = workload.build(args.seed)
    m = Measurement()
    try:
        workload.measure(state, Stop(seconds=WARMUP_S))
        if workload.rebuilds_per_cycle:
            m = workload.measure(state, Stop(seconds=args.seconds, min_samples=MIN_SAMPLES))
        else:
            gauge = Gauge()
            whole = Stop(seconds=args.seconds, min_samples=MIN_SAMPLES)
            chunk = Stop(seconds=args.seconds / SETUP_SAMPLES)
            started = time.perf_counter()
            while not whole.done(m.measured_s, len(m.latencies_ms), time.perf_counter() - started):
                if len(m.setup_s) < SETUP_SAMPLES:
                    m.record_setup(*spare_build(workload, args.seed, gauge))
                m.add(workload.measure(state, chunk))
            while len(m.setup_s) < SETUP_SAMPLES:
                m.record_setup(*spare_build(workload, args.seed, gauge))
            m.gauge_ms += gauge.readings
        config = workload.config(state)
    finally:
        workload.close(state)
    gauge_median = statistics.median(m.gauge_ms)
    values = {
        "latency_p50_ms": percentile(m.scaled_ms, 50),
        "latency_p90_ms": percentile(m.scaled_ms, 90),
        "throughput_qps": m.throughput_qps,
        "success_ratio": (m.attempted - m.failed) / m.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(m.setup_scaled_s),
        "wall.latency_p50_ms": percentile(m.latencies_ms, 50),
        "wall.latency_p90_ms": percentile(m.latencies_ms, 90),
        "wall.throughput_qps": m.wall_throughput_qps,
        "wall.setup_s": statistics.median(m.setup_s),
        "gauge.median_ms": gauge_median,
        "gauge.host_speed": REFERENCE_MS / gauge_median,
    }
    if m.releases_ms:
        values["release_p50_ms"] = statistics.median(m.releases_scaled_ms)
        values["wall.release_p50_ms"] = statistics.median(m.releases_ms)
    if m.writes_ms:
        values["wall.write_p50_ms"] = statistics.median(m.writes_ms)
    metrics, extra = select(values, "end_to_end")
    detail = {
        "samples": len(m.latencies_ms),
        "measured_s": m.measured_s,
        "setup_samples": len(m.setup_s),
        "gauge_readings": len(m.gauge_ms),
        "error_ratio": m.failed / m.attempted,
        "error_base": m.attempted,
        "rejected": m.rejected,
        "writes": m.writes,
        "release_samples": len(m.releases_ms),
        "write_samples": len(m.writes_ms),
        "config": config,
        **extra,
    }
    return {"measurement": m, "metrics": metrics, "detail": detail}


def traced(workload, args) -> Dict[str, Any]:
    from perfbench.layers import layer_metrics, raw_counts
    from perfbench.trace import Recorder
    from perfbench.workloads import Measurement, Stop

    # The tracing-overhead base: the same loop, nothing wrapped.
    state = workload.build(args.seed)
    try:
        workload.measure(state, Stop(seconds=WARMUP_S))
        base = workload.measure(
            state, Stop(seconds=args.seconds / 2, min_samples=TRACE_BASE_SAMPLES)
        )
        config = workload.config(state)
    finally:
        workload.close(state)
    # Single-client workloads run the traced pass twice on one seed, and
    # every count must repeat exactly; two clients interleave freely.
    passes = []
    for _ in range(2 if workload.clients == 1 else 1):
        recorder = Recorder()
        state = workload.build(args.seed)
        try:
            m = workload.measure(state, Stop(ops=workload.traced_ops), recorder=recorder)
        finally:
            workload.close(state)
        passes.append((recorder, m))
    counts = [raw_counts(recorder) for recorder, _ in passes]
    mismatched = sorted(
        name for name in counts[0] if any(c[name] != counts[0][name] for c in counts[1:])
    )
    metrics, unscored = select(
        layer_metrics(passes, base.throughput_qps, len(mismatched)), "per_layer"
    )
    SPAN_DIR.mkdir(exist_ok=True)
    for index, (recorder, _) in enumerate(passes):
        recorder.dump_jsonl(SPAN_DIR / f"{workload.name}-seed{args.seed}-pass{index}.jsonl")
    combined = Measurement()
    for m in [base] + [m for _, m in passes]:
        combined.add(m)
    detail = {
        "unscored": unscored,
        "count_repeat": {"passes": counts, "mismatched": mismatched},
        "error_ratio": combined.failed / combined.attempted,
        "error_base": combined.attempted,
        "config": config,
    }
    return {
        "measurement": combined,
        "metrics": metrics,
        "detail": detail,
        "self_check_failed": bool(mismatched),
    }


def report(workload, args, result: Dict[str, Any]) -> None:
    m = result["measurement"]
    mode = "traced (per-layer)" if args.trace else "untraced (end to end)"
    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} {mode}: "
        f"closed loop, {workload.clients} client(s)"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:45s} {metric['value']:14.6f} {metric['unit']}")
    detail = result["detail"]
    print(
        f"  error_ratio {detail['error_ratio']:.6f} "
        f"({m.failed} failed of {detail['error_base']} attempted, {m.rejected} rejected)"
    )
    if "samples" in detail:
        print(f"  latency samples {detail['samples']}, setup samples {detail['setup_samples']}")
    if "release_p50_ms" in detail:
        print(
            f"  release_p50_ms {detail['release_p50_ms']:.6f} ms "
            f"(n={detail['release_samples']})"
        )
    for name, value in sorted(detail.items()):
        if name.startswith(("wall.", "gauge.")):
            print(f"  {name:45s} {value:14.6f} (not scaled, unscored)")
    for name, value in sorted(detail.get("unscored", {}).items()):
        print(f"  {name:45s} {value:14.6f} (unscored)")
    for line in (m.wrong + m.errors)[:20]:
        print(f"  ! {line}")
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "trace": args.trace,
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "detail": detail,
            },
            sort_keys=True,
            default=str,
        )
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    problem = environment_problem()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        argv = list(sys.argv[1:] if argv is None else argv)
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    cpu = pin_to_one_cpu()
    for path in (str(ROOT / "src"), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]()
    result = traced(workload, args) if args.trace else end_to_end(workload, args)
    result["detail"]["cpu"] = cpu
    report(workload, args, result)
    m = result["measurement"]
    correct = not m.wrong and not result.get("self_check_failed", False)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": m.attempted,
                "failed": m.failed,
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
