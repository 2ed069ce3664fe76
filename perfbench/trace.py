"""Spans and counters recorded from outside the program.

The benchmark's traced run wraps public entry points of each layer at
runtime (:class:`Instrumentation`), records one :class:`Span` per call
into a :class:`Recorder`, and restores every original attribute when it
is done, so untraced runs measure unpatched code.  Nothing here touches
``src/``; the program's own tracer stays disabled throughout.

Parents come from a :mod:`contextvars` stack.  The program runs each
wrapper fetch under ``contextvars.copy_context()``, so spans opened on
fetch-pool threads parent to the query that submitted them.  A span
opened with an empty stack starts a new trace (one per query, release
step or HTTP request).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Recorder",
    "Probe",
    "Instrumentation",
    "default_probes",
    "self_time",
    "union_length",
]


@dataclass
class Span:
    """One timed call into a layer (times in seconds, ``perf_counter``)."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    #: An interval that annotates its parent rather than nesting in it
    #: (a lock hold); self time does not subtract it.
    overlay: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


# (span_id, trace_id, name) per open span, innermost last.
_Frame = Tuple[int, int, str]


class Recorder:
    """Spans, counters and captured query outcomes, kept in memory."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        #: QueryOutcome objects returned by ``MDM.execute`` while traced.
        self.outcomes: List[Any] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stack: contextvars.ContextVar[Tuple[_Frame, ...]] = (
            contextvars.ContextVar(f"perfbench_stack_{id(self)}", default=())
        )
        self._lock_depth = threading.local()

    # -- counters ------------------------------------------------------ #

    def add(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def keep_outcome(self, outcome: Any) -> None:
        with self._lock:
            self.outcomes.append(outcome)

    # -- spans --------------------------------------------------------- #

    def _parent(self) -> Tuple[Optional[int], int]:
        stack = self._stack.get()
        if stack:
            return stack[-1][0], stack[-1][1]
        return None, next(self._ids)

    def record(
        self, name: str, start: float, end: float, overlay: bool = False
    ) -> None:
        """Append a leaf span under the current parent."""
        parent_id, trace_id = self._parent()
        span = Span(name, start, end, next(self._ids), parent_id, trace_id, overlay)
        with self._lock:
            self.spans.append(span)

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``.

        A call made while a span of the same name is already open on this
        context (recursion, e.g. ``Executor.execute`` on a child plan) is
        passed straight through, so the span covers the outermost call.
        """
        stack = self._stack.get()
        if any(frame[2] == name for frame in stack):
            return fn(*args, **kwargs)
        parent_id, trace_id = self._parent()
        span_id = next(self._ids)
        token = self._stack.set(stack + ((span_id, trace_id, name),))
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.reset(token)
            with self._lock:
                self.spans.append(
                    Span(name, start, end, span_id, parent_id, trace_id)
                )

    # -- queries over what was recorded -------------------------------- #

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_ms(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name) * 1000.0

    def children_of(self) -> Dict[int, List[Span]]:
        children: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        return children

    def dump_jsonl(self, path) -> None:
        """Write every span, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: (s.start, s.span_id)):
                handle.write(json.dumps(asdict(span), sort_keys=True) + "\n")


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    covered = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        covered += current_end - current_start
    return covered


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration minus the union of its children's intervals.

    Children run on pool threads may overlap each other; their union,
    not their sum, is subtracted.  Overlay spans are not children.
    """
    clipped = [
        (max(c.start, span.start), min(c.end, span.end))
        for c in children
        if not c.overlay and c.end > span.start and c.start < span.end
    ]
    return span.duration - union_length(clipped)


# ---------------------------------------------------------------------- #
# probes: which entry points are wrapped, and how
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class Probe:
    """One attribute to wrap: ``owner.attr`` (a class or a module).

    ``kind`` is ``"span"`` (a timed span named ``name``), ``"count"``
    (``count(recorder, args)`` only, no span) or ``"lock"`` (a
    ``read_locked``/``write_locked`` context manager: call → enter is
    ``<name>_wait``, enter → exit is ``<name>_hold``).  ``name`` may be
    a callable of the call's arguments.  ``after(recorder, result)``
    runs on every successful spanned call.
    """

    owner: Any
    attr: str
    kind: str
    name: Any = None
    count: Optional[Callable[..., None]] = None
    after: Optional[Callable[[Recorder, Any], None]] = None


class _LockProbe:
    """Times one ``with lock.read_locked():`` from call to exit."""

    __slots__ = ("_recorder", "_name", "_cm", "_called", "_entered", "_outer")

    def __init__(self, recorder: Recorder, name: str, cm: Any):
        self._recorder = recorder
        self._name = name
        self._cm = cm
        self._called = recorder.clock()

    def __enter__(self) -> Any:
        depth = self._recorder._lock_depth
        self._outer = getattr(depth, "n", 0) == 0
        value = self._cm.__enter__()
        self._entered = self._recorder.clock()
        depth.n = getattr(depth, "n", 0) + 1
        return value

    def __exit__(self, *exc_info: Any) -> Any:
        try:
            return self._cm.__exit__(*exc_info)
        finally:
            released = self._recorder.clock()
            self._recorder._lock_depth.n -= 1
            # Reentrant acquisitions (a mutator's nested bump) neither
            # wait nor extend the hold: only the outermost one counts.
            if self._outer:
                self._recorder.record(f"{self._name}_wait", self._called, self._entered)
                self._recorder.record(
                    f"{self._name}_hold", self._entered, released, overlay=True
                )


def _wrap(probe: Probe, original: Callable[..., Any], recorder: Recorder):
    if probe.kind == "count":
        count = probe.count
        if count is None:
            raise ValueError(f"count probe on {probe.attr!r} has no count function")

        @functools.wraps(original)
        def counted(*args: Any, **kwargs: Any) -> Any:
            count(recorder, args)
            return original(*args, **kwargs)

        return counted
    if probe.kind == "lock":

        @functools.wraps(original)
        def locked(*args: Any, **kwargs: Any) -> Any:
            return _LockProbe(recorder, probe.name, original(*args, **kwargs))

        return locked
    if probe.kind != "span":
        raise ValueError(f"unknown probe kind {probe.kind!r}")
    name_of = probe.name if callable(probe.name) else None

    @functools.wraps(original)
    def spanned(*args: Any, **kwargs: Any) -> Any:
        name = name_of(*args, **kwargs) if name_of is not None else probe.name
        result = recorder.call(name, original, *args, **kwargs)
        if probe.after is not None:
            probe.after(recorder, result)
        return result

    return spanned


class Instrumentation:
    """Installs probes for the span of a ``with`` block, then restores.

    ``install`` replaces each ``owner.attr`` with a wrapper; ``uninstall``
    puts back the exact original object (``owner.__dict__[attr]``), in
    reverse order.
    """

    def __init__(self, recorder: Recorder, probes: Sequence[Probe]):
        self.recorder = recorder
        self.probes = tuple(probes)
        self._saved: List[Tuple[Any, str, Any]] = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> "Instrumentation":
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        try:
            for probe in self.probes:
                original = vars(probe.owner)[probe.attr]
                setattr(probe.owner, probe.attr, _wrap(probe, original, self.recorder))
                self._saved.append((probe.owner, probe.attr, original))
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def _count_schema_build(recorder: Recorder, args: Tuple[Any, ...]) -> None:
    recorder.add("relational.schema.builds")


def _count_coerced_rows(recorder: Recorder, args: Tuple[Any, ...]) -> None:
    recorder.add("relational.relation.coerced_rows", len(args[0]))


def _rows_transferred(recorder: Recorder, result: Any) -> None:
    fetched, _attempts = result
    recorder.add("sources.wrappers.rows_transferred", fetched.rows_transferred)


def _dispatch_name(router: Any, method: str, path: str, *rest: Any, **kw: Any) -> str:
    return f"service.http.dispatch {method.upper()} {path}"


def default_probes() -> List[Probe]:
    """The layer entry points the benchmark times (imports ``repro``)."""
    from repro.analysis import plan_checker
    from repro.core.locking import ReadWriteLock
    from repro.core.mdm import MDM
    from repro.core.releases import GovernanceLog
    from repro.core.rewriting import Rewriter
    from repro.relational.executor import Executor
    from repro.relational.optimizer import PlanOptimizer
    from repro.relational.relation import Relation
    from repro.relational.schema import RelationSchema
    from repro.service.http import Router
    from repro.sources.restapi import MockRestServer
    from repro.sources.wrappers import Wrapper

    return [
        Probe(MDM, "execute", "span", "core.mdm.execute", after=Recorder.keep_outcome),
        Probe(MDM, "register_wrapper", "span", "core.mdm.register_wrapper"),
        Probe(MDM, "suggest_mapping", "span", "core.mdm.suggest_mapping"),
        Probe(MDM, "apply_suggestion", "span", "core.mdm.apply_suggestion"),
        Probe(ReadWriteLock, "read_locked", "lock", "core.locking.read"),
        Probe(ReadWriteLock, "write_locked", "lock", "core.locking.write"),
        Probe(GovernanceLog, "record", "span", "core.releases.record"),
        Probe(Rewriter, "rewrite", "span", "core.rewriting.rewrite"),
        Probe(PlanOptimizer, "extract_pushdown", "span", "relational.optimizer.extract_pushdown"),
        Probe(PlanOptimizer, "optimize", "span", "relational.optimizer.optimize"),
        Probe(RelationSchema, "__init__", "count", count=_count_schema_build),
        Probe(Executor, "execute", "span", "relational.executor.execute"),
        Probe(Relation, "coerced", "count", count=_count_coerced_rows),
        Probe(Relation, "sorted", "span", "relational.relation.sorted"),
        Probe(plan_checker, "check_plan", "span", "analysis.plan_checker.check_plan"),
        Probe(
            Wrapper,
            "fetch_request",
            "span",
            "sources.wrappers.fetch_request",
            after=_rows_transferred,
        ),
        Probe(MockRestServer, "get", "span", "sources.restapi.get"),
        Probe(Router, "dispatch", "span", _dispatch_name),
    ]
