"""Host-speed gauge: time on a shared host, scaled to a reference speed.

On a shared VM the CPU a benchmark gets changes speed by up to ~1.7×
for seconds to minutes at a time (neighbours on the same physical
core), and no run length averages that out: the median latency of one
query loop, in 20-s windows over seven minutes, had a quartile spread of
a third of its value.  So every measured operation is bracketed by a
fixed pure-Python kernel, the *gauge*, and its wall time is scaled by
``REFERENCE_MS / gauge`` (the mean of the gauge readings just before and
just after it).  On a host running the gauge in ``REFERENCE_MS`` the
scaled time is the wall time; on a host running at half that speed it
is half the wall time.  The program's own changes move the scaled time
exactly as they move the wall time, because the gauge runs none of the
program's code.

The gauge runs between operations, never inside one, so it adds wall
time to a run but none to a measured operation.
"""

from __future__ import annotations

import random
import time
from typing import Dict, FrozenSet, List, Tuple

__all__ = ["REFERENCE_MS", "RUNS", "Gauge", "gauge_ms"]

#: A round figure between the fastest (~0.42 ms) and the typical
#: (~0.66 ms) gauge reading on the 2-vCPU Xeon VM the bounds were
#: measured on (CPython 3.11).  A constant, so a scaled time is
#: comparable across runs and commits.
REFERENCE_MS = 0.5
#: Kernel runs per reading; the reading is the fastest of them.
RUNS = 3

# The kernel's inputs, built once.  Two halves that take about as long
# each: relational-style rows (ints, short strings, floats) to group,
# sort, filter and join, mostly in C-level builtins, and a plan-like tree
# of small objects to rewrite, mostly interpreted calls and hashing.  As
# the host slowed, the reference OMQ's latency grew more than the first
# kind of work and less than the second.  In a five-minute trial (the
# two kinds timed separately), the quartile spread of its p50 / p90
# over 15-s windows was 0.26 / 0.07 unscaled, 0.055 / 0.070 scaled by
# the first kind alone, 0.029 / 0.11 by the second alone, and
# 0.028 / 0.075 by the geometric mean of the two.
_rng = random.Random(2018)
_ROWS: List[Tuple[int, str, float]] = [
    (_rng.randrange(1000), f"n{_rng.randrange(400)}", _rng.random()) for _ in range(300)
]
_KEEP = frozenset(f"n{i}" for i in range(0, 400, 3))


class _Node:
    __slots__ = ("kind", "children", "columns")

    def __init__(self, kind: str, children: Tuple["_Node", ...], columns: FrozenSet[str]):
        self.kind = kind
        self.children = children
        self.columns = columns

    def key(self) -> tuple:
        return (self.kind, tuple(child.key() for child in self.children), self.columns)


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("scan", (), frozenset({f"c{_rng.randrange(20)}"}))
    return _Node(
        _rng.choice(("join", "union", "project")),
        (_tree(depth - 1), _tree(depth - 1)),
        frozenset(f"c{_rng.randrange(20)}" for _ in range(3)),
    )


_PLAN = _tree(5)


def _relational() -> int:
    groups: Dict[str, list] = {}
    for key, name, value in _ROWS:
        groups.setdefault(name, []).append((key, value))
    ordered = sorted(_ROWS, key=lambda row: (row[1], row[0]))
    kept = [row for row in ordered if row[1] in _KEEP]
    names = {name for _, name, _ in kept} & _KEEP
    return len(groups) + len(names) + len(",".join(name for _, name, _ in kept[:200]))


def _rewrite(node: _Node, memo: Dict[tuple, _Node]) -> _Node:
    key = node.key()
    done = memo.get(key)
    if done is not None:
        return done
    children = tuple(_rewrite(child, memo) for child in node.children)
    columns = set(node.columns)
    for child in children:
        columns |= child.columns
    memo[key] = rewritten = _Node(node.kind, children, frozenset(columns))
    return rewritten


def _kernel() -> int:
    """Relational row work and plan rewriting: interpreter work, no I/O."""
    return _relational() + len(_rewrite(_PLAN, {}).columns)


def gauge_ms() -> float:
    """Wall milliseconds of the fastest of :data:`RUNS` gauge kernels.

    The fastest, because a run can only be slowed from outside: by a
    thread switch (another thread of the process holding the GIL), an
    interrupt or a garbage collection, none of which is host speed.
    """
    fastest = float("inf")
    for _ in range(RUNS):
        started = time.perf_counter()
        _kernel()
        fastest = min(fastest, time.perf_counter() - started)
    return fastest * 1000.0


class Gauge:
    """Times operations and scales each by the gauge around it.

    One per client thread: ``start()`` before an operation, ``stop()``
    after it; ``stop`` reads the gauge once, and that reading is also the
    *before* reading of the next operation.
    """

    def __init__(self) -> None:
        self.last_ms = gauge_ms()
        self.readings: List[float] = [self.last_ms]

    def start(self) -> float:
        return time.perf_counter()

    def stop(self, started: float) -> Tuple[float, float]:
        """``(wall seconds, scaled seconds)`` since ``started``."""
        elapsed = time.perf_counter() - started
        before = self.last_ms
        self.last_ms = gauge_ms()
        self.readings.append(self.last_ms)
        return elapsed, elapsed * REFERENCE_MS / ((before + self.last_ms) / 2.0)
