"""Tests of the benchmark's own machinery (run: python3 -m pytest perfbench/tests)."""

from __future__ import annotations

import contextvars
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from perfbench import run
from perfbench.layers import COUNT_METRICS, layer_metrics, raw_counts
from perfbench.stats import MIN_BEYOND, percentile, samples_beyond
from perfbench.trace import (
    Instrumentation,
    Recorder,
    Span,
    default_probes,
    self_time,
    union_length,
)
from perfbench.workloads import (
    WORKLOADS,
    Stop,
    WideUnion,
    football_oracles,
    service_labels,
)

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# percentile selection
# ---------------------------------------------------------------------- #


def test_percentile_needs_ten_samples_beyond():
    samples = [float(v) for v in range(1, 101)]
    assert samples_beyond(100, 90) == MIN_BEYOND
    assert percentile(samples, 90) == 90.0
    assert percentile(samples, 50) == 50.0
    with pytest.raises(ValueError):
        percentile(samples[:99], 90)


def test_percentile_ignores_input_order():
    samples = [float(v) for v in range(200)]
    shuffled = samples[:]
    random.Random(7).shuffle(shuffled)
    assert percentile(shuffled, 90) == percentile(samples, 90) == 179.0


# ---------------------------------------------------------------------- #
# self time
# ---------------------------------------------------------------------- #


def _span(name, start, end, span_id, parent_id=None, overlay=False):
    return Span(name, start, end, span_id, parent_id, 1, overlay)


def test_self_time_subtracts_union_of_overlapping_children():
    parent = _span("p", 0.0, 10.0, 1)
    children = [
        _span("a", 1.0, 4.0, 2, 1),
        _span("b", 2.0, 6.0, 3, 1),  # overlaps a: pool threads
        _span("c", 8.0, 9.0, 4, 1),
        _span("hold", 0.0, 10.0, 5, 1, overlay=True),  # annotation only
    ]
    assert union_length([(c.start, c.end) for c in children[:3]]) == 6.0
    assert self_time(parent, children) == pytest.approx(4.0)
    # A sum of child durations would have claimed 8 of the 10.
    assert parent.duration - sum(c.duration for c in children[:3]) == pytest.approx(2.0)


def test_self_time_clips_children_to_the_parent():
    parent = _span("p", 0.0, 10.0, 1)
    assert self_time(parent, [_span("x", 9.0, 12.0, 2, 1)]) == pytest.approx(9.0)


def test_pool_thread_spans_parent_to_the_submitting_span():
    recorder = Recorder()
    barrier = threading.Barrier(3, timeout=10)

    def fetch(i):
        def body():
            barrier.wait()
            time.sleep(0.02)
            return i

        return recorder.call("fetch", body)

    def query():
        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(contextvars.copy_context().run, fetch, i) for i in range(3)]
            return [f.result() for f in futures]

    assert recorder.call("query", query) == [0, 1, 2]
    (root,) = recorder.named("query")
    fetches = recorder.named("fetch")
    assert len(fetches) == 3
    assert {s.parent_id for s in fetches} == {root.span_id}
    assert {s.trace_id for s in fetches} == {root.trace_id}
    covered = union_length([(s.start, s.end) for s in fetches])
    assert covered < sum(s.duration for s in fetches)  # they ran concurrently
    assert self_time(root, fetches) == pytest.approx(root.duration - covered)


def test_recursive_calls_record_only_the_outermost_span():
    recorder = Recorder()

    def descend(depth):
        if depth:
            return recorder.call("walk", descend, depth - 1)
        return "leaf"

    assert recorder.call("walk", descend, 5) == "leaf"
    assert len(recorder.named("walk")) == 1


def test_a_span_with_no_parent_starts_a_new_trace():
    recorder = Recorder()
    recorder.call("a", lambda: None)
    recorder.call("b", lambda: None)
    a, b = recorder.spans
    assert a.parent_id is None and b.parent_id is None
    assert a.trace_id != b.trace_id


# ---------------------------------------------------------------------- #
# installing and removing the wrappers
# ---------------------------------------------------------------------- #


def _snapshot(probes):
    return {(id(p.owner), p.attr): (p.owner, vars(p.owner)[p.attr]) for p in probes}


def test_uninstall_restores_every_original_attribute():
    probes = default_probes()
    before = _snapshot(probes)
    owners_before = {id(p.owner): set(vars(p.owner)) for p in probes}
    instrumentation = Instrumentation(Recorder(), probes)
    with instrumentation:
        assert instrumentation.installed
        for (_, attr), (owner, original) in before.items():
            assert vars(owner)[attr] is not original
    assert not instrumentation.installed
    for (_, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is original
    assert owners_before == {id(p.owner): set(vars(p.owner)) for p in probes}


def test_uninstall_runs_when_the_traced_block_raises():
    probes = default_probes()
    before = _snapshot(probes)
    with pytest.raises(RuntimeError):
        with Instrumentation(Recorder(), probes):
            raise RuntimeError("boom")
    for (_, attr), (owner, original) in before.items():
        assert vars(owner)[attr] is original


def test_lock_probe_times_only_the_outermost_acquisition():
    from repro.core.locking import ReadWriteLock

    recorder = Recorder()
    lock = ReadWriteLock()
    with Instrumentation(recorder, default_probes()):
        with lock.write_locked():
            with lock.write_locked():  # reentrant, like a mutator's bump
                pass
        with lock.read_locked():
            pass
    assert len(recorder.named("core.locking.write_wait")) == 1
    assert len(recorder.named("core.locking.write_hold")) == 1
    assert len(recorder.named("core.locking.read_hold")) == 1
    assert all(s.overlay for s in recorder.named("core.locking.read_hold"))
    assert lock.state() == {"readers": 0, "writer_held": 0, "writers_waiting": 0}


# ---------------------------------------------------------------------- #
# seeded inputs and the count-repeat check
# ---------------------------------------------------------------------- #


def test_football_inputs_are_deterministic_in_the_seed():
    from repro.scenarios.football import FootballScenario

    first = football_oracles(FootballScenario.build(seed=11).data)
    again = football_oracles(FootballScenario.build(seed=11).data)
    other = football_oracles(FootballScenario.build(seed=12).data)
    assert first == again
    assert first != other


def test_wide_union_inputs_are_deterministic_in_the_seed():
    workload = WideUnion()
    first = workload._build(5)[2]
    assert first == workload._build(5)[2]
    assert first != workload._build(6)[2]


def test_service_walk_order_is_deterministic_in_the_seed():
    from perfbench.workloads import SERVICE_WALKS, ServiceMixed

    def order(seed, client):
        labels = service_labels(seed, client)
        return [next(labels) for _ in range(50)]

    assert order(3, 0) == order(3, 0)
    assert order(3, 0) != order(3, 1)
    assert order(3, 0) != order(4, 0)
    assert set(order(3, 0)) == set(SERVICE_WALKS)
    # The heavy reference walk is the rare one (weight 1 of 9).
    labels = service_labels(3, 0)
    drawn = [next(labels) for _ in range(900)]
    assert 0.06 < drawn.count("reference") / len(drawn) < 0.16
    # The clients of a built service workload draw from the same orders.
    workload = ServiceMixed()
    state = workload.build(3)
    try:
        assert [[next(it) for _ in range(50)] for it in state["labels"]] == [
            order(3, client) for client in range(workload.clients)
        ]
    finally:
        workload.close(state)


def test_traced_passes_repeat_every_count():
    workload = WORKLOADS["omq_reference"]()
    passes = []
    for _ in range(2):
        recorder = Recorder()
        state = workload.build(2018)
        m = workload.measure(state, Stop(ops=3), recorder=recorder)
        assert not m.wrong and not m.failed
        passes.append((recorder, m))
    counts = [raw_counts(recorder) for recorder, _ in passes]
    assert set(counts[0]) == set(COUNT_METRICS)
    assert counts[0] == counts[1]
    assert counts[0]["sources.wrappers.fetch_request.calls"] > 0
    # Every per-layer metric BENCHMARK.json names is computed, and the
    # phase gaps it scores are sizes.
    metrics, bases = run.select(layer_metrics(passes, 1.0, 0), "per_layer")
    assert [m["name"] for m in run.SPEC["per_layer"]] == list(metrics)
    for name, metric in metrics.items():
        if name.startswith("bench.phase_gap."):
            signed = bases[name.replace("_ms", "_signed_ms")]
            assert metric["value"] == abs(signed)


# ---------------------------------------------------------------------- #
# host-speed gauge
# ---------------------------------------------------------------------- #


def test_gauge_scales_by_the_mean_of_the_readings_around_an_operation(monkeypatch):
    from perfbench import hostspeed

    ref = hostspeed.REFERENCE_MS
    readings = iter([0.5 * ref, 1.5 * ref, 2.0 * ref])
    monkeypatch.setattr(hostspeed, "gauge_ms", lambda: next(readings))
    gauge = hostspeed.Gauge()
    wall, scaled = gauge.stop(gauge.start())
    # Readings R/2 and 3R/2 average to R, the reference: no scaling.
    assert scaled == pytest.approx(wall)
    wall, scaled = gauge.stop(gauge.start() - 0.5)
    # The next operation's "before" reading is the last "after" one: a
    # host reading 7R/4 on average runs at 4/7 of the reference speed.
    assert scaled == pytest.approx(wall * 4.0 / 7.0)
    assert gauge.readings == [0.5 * ref, 1.5 * ref, 2.0 * ref]


def test_every_answer_is_kept_as_wall_and_scaled_time():
    workload = WORKLOADS["omq_reference"]()
    state = workload.build(2018)
    try:
        m = workload.measure(state, Stop(ops=3))
    finally:
        workload.close(state)
    assert len(m.latencies_ms) == len(m.scaled_ms) == 3
    assert len(m.gauge_ms) == 4
    assert m.measured_s == pytest.approx(sum(m.latencies_ms) / 1000.0)
    assert m.scaled_s == pytest.approx(sum(m.scaled_ms) / 1000.0)


# ---------------------------------------------------------------------- #
# the command and its contract
# ---------------------------------------------------------------------- #


def test_benchmark_json_names_the_workloads_the_command_runs():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert run.parse_args(["--workload", "wide_union"]).seconds == spec["run_seconds"]


def _run(args, cwd, env_extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("MDM_")}
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_refuses_to_start_with_mdm_variables_set():
    done = _run(
        ["--workload", "omq_reference", "--seconds", "1"], ROOT, {"MDM_OPTIMIZE": "0"}
    )
    assert done.returncode != 0
    assert "MDM_OPTIMIZE" in done.stderr
    assert done.stdout == ""


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(["--workload", "omq_reference", "--seconds", "1"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
