"""Prepared plans: each OMQ optimized once per metadata generation.

Metadata only changes through mutations that bump the generation under
the write lock, so between two bumps the two optimizer stages of
:meth:`MDM.execute <repro.core.mdm.MDM.execute>` compute the same plan
for every repeat of a walk:

* **stage A** (the pre-fetch pushdown extraction) is a pure function of
  the rewritten plan and the wrappers' declared capabilities, both fixed
  by ``(walk, generation)``;
* **stage B** (the typed logical pass) is a pure function of its input
  plan, fixed by ``(walk, generation, pushdown)``, and of what
  ``PlanOptimizer(catalog, row_counts)`` reads: the schemas and row
  counts of the fetched relations.  :func:`catalog_signature` captures
  exactly those, so a hit returns the plan a fresh ``optimize()`` would
  build — no cardinality bucketing.

One :class:`PlanMemo` entry per ``(walk key, generation, pushdown)``
holds the stage-A result (when pushdown is on) and the stage-B result
for the last fetched-catalog signature seen; a different signature
replaces it.  Within a generation the fetched data rarely changes, so one
slot serves the repeats; if signatures ever alternate, every query
optimizes afresh, as without the memo.  An entry of an older generation
can never be hit again, so storing the first entry of a new generation
drops every older one; the entry count is bounded by
:attr:`PlanMemo.CAPACITY` (LRU).

A hit hands out a private copy of the memoized stats with ``elapsed_s``
zeroed: this query spent no optimizer time, and what the first answer
spent is reported as ``saved_ms``.  Rule counts and passes describe the
prepared plan.

Fetching, plan validation and execution stay per query.  Lookups are
counted in ``mdm_plan_memo_total{stage, result}``.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..obs import get_metrics
from ..relational.optimizer import OptimizationStats
from ..relational.relation import Relation

__all__ = ["PlanMemo", "catalog_signature", "describe_plan_memo"]

#: ``(canonical walk key, generation, pushdown flag)``.
Key = Tuple[str, int, bool]


def catalog_signature(registered: Mapping[str, Relation]) -> tuple:
    """Everything stage B reads from the fetched relations.

    One ``(binding, schema, row count)`` triple per registered relation,
    sorted by binding name (names are unique, so schemas never compare).
    """
    return tuple(
        sorted(
            (binding, relation.schema, len(relation))
            for binding, relation in registered.items()
        )
    )


def describe_plan_memo(report: Mapping[str, Any]) -> str:
    """The EXPLAIN ANALYZE line for one query's memo report."""
    stages = ", ".join(
        f"stage {stage[-1].upper()} {report[stage]}"
        for stage in ("stage_a", "stage_b")
        if stage in report
    )
    saved = float(report.get("saved_ms", 0.0))
    if saved:
        stages += f" (saved {saved:.2f} ms optimized at first answer)"
    return f"Plan memo: {stages}"


def _copy(
    stats: Optional[OptimizationStats], elapsed_s: Optional[float] = None
) -> Optional[OptimizationStats]:
    """A private copy: outcomes must never share one mutable stats object.

    ``elapsed_s`` overrides the copied optimizer time (0 on a hit).
    """
    if stats is None:
        return None
    if elapsed_s is None:
        elapsed_s = stats.elapsed_s
    return dataclasses.replace(
        stats, rules=dict(stats.rules), elapsed_s=elapsed_s
    )


def _record(
    report: Dict[str, Any],
    stage: str,
    hit: bool,
    stats: Optional[OptimizationStats] = None,
) -> None:
    """Count one lookup and note it in ``report``, with what a hit saved."""
    result = "hit" if hit else "miss"
    get_metrics().counter(
        "mdm_plan_memo_total",
        "Prepared-plan memo lookups by optimizer stage.",
        labelnames=("stage", "result"),
    ).inc(1, stage=stage, result=result)
    report["stage_" + stage] = result
    saved = float(report.get("saved_ms", 0.0))
    if stats is not None:
        saved += stats.elapsed_s * 1000.0
    report["saved_ms"] = round(saved, 6)


class _Entry:
    __slots__ = ("stage_a", "stage_b")

    def __init__(self) -> None:
        #: ``(plan, stats)`` of the pushdown extraction, once computed.
        self.stage_a: Optional[tuple] = None
        #: ``(signature, input plan, optimized plan, stats)`` of the last
        #: stage-B store.
        self.stage_b: Optional[tuple] = None


class PlanMemo:
    """Thread-safe memo of optimizer results (see the module docstring).

    Computation runs outside the lock: two queries missing on the same
    key both optimize, and both store the same plan.
    """

    #: Entries kept, one per (walk, generation, pushdown flag).
    CAPACITY = 256

    def __init__(self) -> None:
        self._entries: "OrderedDict[Key, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Newest generation stored; entries below it are dead.
        self._newest = -1

    def stage_a(
        self, key: Key, compute: Callable[[], tuple], report: Dict[str, Any]
    ) -> tuple:
        """The stage-A ``(plan, stats)`` for ``key``.

        ``compute`` runs on a miss.  Its result is stored even when the
        extraction fell back to the input plan (``stats is None``): the
        fallback is as deterministic as the extraction.  ``report`` gets
        ``stage_a`` = hit/miss and the ``saved_ms`` of a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            memoized = entry.stage_a if entry is not None else None
            if memoized is not None:
                self._entries.move_to_end(key)
        if memoized is not None:
            plan, stats = memoized
            _record(report, "a", True, stats)
            return plan, _copy(stats, elapsed_s=0.0)
        _record(report, "a", False)
        plan, stats = compute()
        with self._lock:
            entry = self._entry_for(key)
            if entry is not None:
                entry.stage_a = (plan, _copy(stats))
        return plan, stats

    def stage_b(
        self,
        key: Key,
        signature: tuple,
        plan,
        compute: Callable[[], tuple],
        report: Dict[str, Any],
    ) -> tuple:
        """The stage-B ``(plan, stats)`` of ``plan``, optimized for ``key``.

        ``compute`` runs on a miss; an optimizer failure (``stats is
        None``) is not stored, so every failing query is counted.  A
        memoized "optimizer changed nothing" result answers with the
        caller's own ``plan`` object.  ``report`` gets ``stage_b`` =
        hit/miss and the ``saved_ms`` of a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            memoized = entry.stage_b if entry is not None else None
            if memoized is not None and memoized[0] == signature:
                self._entries.move_to_end(key)
            else:
                memoized = None
        if memoized is not None:
            _, source, optimized, stats = memoized
            _record(report, "b", True, stats)
            return (
                plan if optimized is source else optimized,
                _copy(stats, elapsed_s=0.0),
            )
        _record(report, "b", False)
        optimized, stats = compute()
        if stats is not None:
            with self._lock:
                entry = self._entry_for(key)
                if entry is not None:
                    entry.stage_b = (signature, plan, optimized, _copy(stats))
        return optimized, stats

    def _entry_for(self, key: Key) -> Optional[_Entry]:
        """The entry to fill for ``key`` (caller holds the lock).

        The first store at a newer generation evicts every older entry;
        a key of an already superseded generation gets None (not stored).
        """
        generation = key[1]
        if generation < self._newest:
            return None
        if generation > self._newest:
            self._newest = generation
            for dead in [k for k in self._entries if k[1] < generation]:
                del self._entries[dead]
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _Entry()
            while len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)
        else:
            self._entries.move_to_end(key)
        return entry

    def keys(self) -> List[Key]:
        """The memoized keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
