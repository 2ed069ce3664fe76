"""Percentiles that the sample supports, and cache-statistics deltas."""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

__all__ = [
    "MIN_BEYOND",
    "percentile",
    "samples_beyond",
    "ratio",
    "add_counts",
    "cache_counts",
    "cache_delta",
]

#: A reported percentile needs at least this many samples above it.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q``-th."""
    rank = max(1, math.ceil(q / 100.0 * n))
    return n - rank


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: such a percentile is set by a handful of outliers.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), not {q}")
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    ordered = sorted(samples)
    return ordered[n - beyond - 1]


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``, or 0.0 when the base is empty."""
    return numerator / base if base else 0.0


def add_counts(
    total: Dict[str, Dict[str, int]], delta: Mapping[str, Mapping[str, int]]
) -> None:
    """Add per-cache hit/miss counts ``delta`` into ``total`` in place."""
    for cache, counts in delta.items():
        mine = total.setdefault(cache, {"hits": 0, "misses": 0})
        for key, value in counts.items():
            mine[key] += value


def cache_delta(
    before: Mapping[str, Mapping[str, int]], after: Mapping[str, Mapping[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-cache hit/miss increments between two ``cache_counts`` snapshots."""
    return {
        cache: {
            key: after[cache][key] - before[cache][key] for key in ("hits", "misses")
        }
        for cache in after
    }


def cache_counts(mdm) -> Dict[str, Dict[str, int]]:
    """Cumulative hits/misses of the MDM's three caches, from ``stats()``."""
    counts = {}
    for name in ("rewrite_cache", "result_cache", "wrapper_cache"):
        stats = getattr(mdm, name).stats()
        counts[name] = {"hits": int(stats["hits"]), "misses": int(stats["misses"])}
    return counts
