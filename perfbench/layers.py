"""Per-layer metrics derived from the traced passes.

Times are milliseconds per answered OMQ, except the release path
(per release) and the write lock and ``POST /sources`` dispatch (per
write operation: a release or a new source).  Counts are per answered
OMQ too; the count-repeat self-check compares the raw totals.  Every
ratio is reported next to its base.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .stats import add_counts, ratio
from .trace import Recorder, self_time

__all__ = ["COUNT_METRICS", "PHASES", "layer_metrics", "raw_counts"]

#: Count metrics that must repeat exactly across two traced passes on
#: one seed: span names whose calls are counted, and counters.
COUNT_METRICS: Tuple[str, ...] = (
    "core.rewriting.rewrite.calls",
    "relational.optimizer.extract_pushdown.calls",
    "sources.wrappers.fetch_request.calls",
    "sources.restapi.get.calls",
    "relational.schema.builds",
    "relational.relation.coerced_rows",
    "sources.wrappers.rows_transferred",
)

#: ResourceProfile phases, and the spans whose time should explain each.
PHASES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("rewrite", ("core.rewriting.rewrite",)),
    ("optimize", ("relational.optimizer.extract_pushdown", "relational.optimizer.optimize")),
    ("fetch", ()),  # wall time of each query's fetch spans, see _fetch_wall_s
    ("validate", ("analysis.plan_checker.check_plan",)),
    ("execute", ("relational.executor.execute",)),
    ("finalize", ("relational.relation.sorted",)),
)

_DISPATCH_QUERY = "service.http.dispatch POST /query"
_DISPATCH_SOURCES = "service.http.dispatch POST /sources"


def raw_counts(recorder: Recorder) -> Dict[str, int]:
    """Totals of the :data:`COUNT_METRICS` in one traced pass."""
    counts: Dict[str, int] = {}
    for name in COUNT_METRICS:
        if name.endswith(".calls"):
            counts[name] = len(recorder.named(name[: -len(".calls")]))
        else:
            counts[name] = recorder.counts.get(name, 0)
    return counts


def _fetch_wall_s(recorder: Recorder) -> float:
    """Sum over queries of first fetch start → last fetch end."""
    windows: Dict[int, List[float]] = {}
    for span in recorder.named("sources.wrappers.fetch_request"):
        window = windows.setdefault(span.trace_id, [span.start, span.end])
        window[0] = min(window[0], span.start)
        window[1] = max(window[1], span.end)
    return sum(end - start for start, end in windows.values())


def _execute_self_s(recorder: Recorder) -> float:
    children = recorder.children_of()
    return sum(
        self_time(span, children.get(span.span_id, ()))
        for span in recorder.named("core.mdm.execute")
    )


def layer_metrics(
    passes: Sequence[Tuple[Recorder, object]],
    untraced_qps: float,
    mismatches: int,
) -> Dict[str, float]:
    """Every per-layer metric, and the bases of its ratios, by name.

    Computed from ``(recorder, measurement)`` passes; ``BENCHMARK.json``
    says which names are scored metrics, the rest are reported as bases.
    """
    recorders = [recorder for recorder, _ in passes]
    measurements = [m for _, m in passes]

    def total_ms(name: str) -> float:
        return sum(r.total_ms(name) for r in recorders)

    def calls(name: str) -> int:
        return sum(len(r.named(name)) for r in recorders)

    def counter(name: str) -> int:
        return sum(r.counts.get(name, 0) for r in recorders)

    queries = sum(len(m.latencies_ms) for m in measurements)
    writes = sum(m.writes for m in measurements)
    releases = sum(len(m.releases_ms) for m in measurements)
    scaled_s = sum(m.scaled_s for m in measurements)
    per_query = lambda value: ratio(value, queries)
    per_release = lambda value: ratio(value, releases)
    per_write = lambda value: ratio(value, writes)

    cache: Dict[str, Dict[str, int]] = {}
    for m in measurements:
        add_counts(cache, m.cache)

    # Outcomes computed by the pipeline (result-cache hits carry the
    # profile of the outcome they copy, so they are left out).
    computed = [
        o for r in recorders for o in r.outcomes if o.result_cache != "hit"
    ]
    rows_fetched = sum(o.profile.rows_fetched for o in computed)
    subplan_hits = sum(o.subplan_hits for o in computed)
    subplan_lookups = subplan_hits + sum(o.subplan_misses for o in computed)
    client_query_ms = sum(sum(m.latencies_ms) for m in measurements)
    traced_qps = ratio(queries, scaled_s)

    values: Dict[str, float] = {
        "core.mdm.execute.self_ms": per_query(
            sum(_execute_self_s(r) for r in recorders) * 1000.0
        ),
        "core.mdm.register_wrapper.ms": per_release(total_ms("core.mdm.register_wrapper")),
        "core.mdm.suggest_mapping.ms": per_release(total_ms("core.mdm.suggest_mapping")),
        "core.mdm.apply_suggestion.ms": per_release(total_ms("core.mdm.apply_suggestion")),
        "core.rewriting.rewrite.calls": per_query(calls("core.rewriting.rewrite")),
        "core.rewriting.rewrite.ms": per_query(total_ms("core.rewriting.rewrite")),
        "core.locking.read_wait_ms": per_query(total_ms("core.locking.read_wait")),
        "core.locking.read_hold_ms": per_query(total_ms("core.locking.read_hold")),
        "core.locking.write_wait_ms": per_write(total_ms("core.locking.write_wait")),
        "core.locking.write_hold_ms": per_write(total_ms("core.locking.write_hold")),
        "core.releases.record.ms": per_release(total_ms("core.releases.record")),
        "relational.optimizer.extract_pushdown.calls": per_query(
            calls("relational.optimizer.extract_pushdown")
        ),
        "relational.optimizer.extract_pushdown.ms": per_query(
            total_ms("relational.optimizer.extract_pushdown")
        ),
        "relational.optimizer.optimize.ms": per_query(total_ms("relational.optimizer.optimize")),
        "relational.schema.builds": per_query(counter("relational.schema.builds")),
        "relational.executor.execute.ms": per_query(total_ms("relational.executor.execute")),
        "relational.executor.subplan_hit_ratio": ratio(subplan_hits, subplan_lookups),
        "relational.executor.subplan_lookups": per_query(subplan_lookups),
        "relational.relation.coerced_rows": per_query(counter("relational.relation.coerced_rows")),
        "relational.relation.coerced_per_fetched": ratio(
            counter("relational.relation.coerced_rows"), rows_fetched
        ),
        "relational.relation.rows_fetched": per_query(rows_fetched),
        "relational.relation.sorted.ms": per_query(total_ms("relational.relation.sorted")),
        "analysis.plan_checker.check_plan.ms": per_query(
            total_ms("analysis.plan_checker.check_plan")
        ),
        "sources.wrappers.fetch_request.calls": per_query(calls("sources.wrappers.fetch_request")),
        "sources.wrappers.fetch_request.ms": per_query(total_ms("sources.wrappers.fetch_request")),
        "sources.wrappers.fetch_wall_ms": per_query(
            sum(_fetch_wall_s(r) for r in recorders) * 1000.0
        ),
        "sources.wrappers.rows_transferred": per_query(
            counter("sources.wrappers.rows_transferred")
        ),
        "sources.restapi.get.calls": per_query(calls("sources.restapi.get")),
        "sources.restapi.get.ms": per_query(total_ms("sources.restapi.get")),
        "service.http.dispatch.query_ms": per_query(total_ms(_DISPATCH_QUERY)),
        "service.http.dispatch.sources_ms": per_write(total_ms(_DISPATCH_SOURCES)),
        "service.server.overhead_ms": (
            per_query(client_query_ms - total_ms(_DISPATCH_QUERY))
            if calls(_DISPATCH_QUERY)
            else 0.0
        ),
        "service.server.rejected": float(sum(m.rejected for m in measurements)),
        "bench.trace.overhead_ratio": ratio(traced_qps, untraced_qps),
        "bench.trace.untraced_qps": untraced_qps,
        "bench.trace.traced_qps": traced_qps,
        "bench.trace.queries": float(queries),
        "bench.trace.writes": float(writes),
        "bench.count_repeat.mismatches": float(mismatches),
    }
    for name in ("rewrite_cache", "result_cache", "wrapper_cache"):
        counts = cache.get(name, {"hits": 0, "misses": 0})
        lookups = counts["hits"] + counts["misses"]
        values[f"core.{name}.hit_ratio"] = ratio(counts["hits"], lookups)
        values[f"core.{name}.lookups"] = per_query(lookups)
    # Attribution cross-check: the program's own phase totals minus what
    # the wrapped calls inside each phase account for, per computed query.
    for phase, span_names in PHASES:
        program_ms = sum(o.profile.phase_ms.get(phase, 0.0) for o in computed)
        if phase == "fetch":
            bench_ms = sum(_fetch_wall_s(r) for r in recorders) * 1000.0
        else:
            bench_ms = sum(total_ms(name) for name in span_names)
        gap = ratio(program_ms - bench_ms, len(computed))
        # Scored by size: a gap is misattributed time in either direction.
        values[f"bench.phase_gap.{phase}_ms"] = abs(gap)
        values[f"bench.phase_gap.{phase}_signed_ms"] = gap
    return values
