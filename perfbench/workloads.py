"""The four closed-loop workloads, their inputs and their answer oracles.

Every workload takes a seed, builds its inputs from it through
``repro``'s public API, and runs a closed loop: a client sends its next
operation only after the previous one has been answered.  ``measure``
runs until a :class:`Stop` says so and returns a :class:`Measurement`;
with a :class:`~perfbench.trace.Recorder` it also wraps the layers'
entry points around the measured operations (never around set-up).
Every timed operation is bracketed by a :class:`~perfbench.hostspeed.Gauge`
and kept twice: as wall time and scaled to the reference host speed.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .hostspeed import Gauge
from .stats import add_counts, cache_counts, cache_delta
from .trace import Instrumentation, Recorder, default_probes

__all__ = ["Stop", "Measurement", "Workload", "WORKLOADS"]

#: Latency samples every untraced run collects, so p90 has 10 beyond it.
MIN_SAMPLES = 100
#: A measuring loop stops after this much wall time, samples or not
#: (a failing program must not keep a traced pass spinning).
WALL_CAP_S = 60.0

Answer = Tuple[Tuple[str, ...], FrozenSet[tuple]]


@dataclass
class Stop:
    """When a measuring loop ends.

    Untraced: once ``seconds`` of measured time *and* ``min_samples``
    answers are in (or after :data:`WALL_CAP_S`).  Traced: after exactly
    ``ops`` answers, so two passes on one seed do the same work.
    """

    seconds: float = 0.0
    min_samples: int = 0
    ops: Optional[int] = None

    def done(self, measured_s: float, samples: int, wall_s: float) -> bool:
        if wall_s >= WALL_CAP_S:
            return True
        if self.ops is not None:
            return samples >= self.ops
        return measured_s >= self.seconds and samples >= self.min_samples


@dataclass
class Measurement:
    """What one measuring loop observed.

    Times come in pairs: wall time, and the same time scaled to the
    reference host speed (``*_scaled*``, see ``perfbench/hostspeed.py``).
    """

    latencies_ms: List[float] = field(default_factory=list)
    scaled_ms: List[float] = field(default_factory=list)
    #: Time the latency samples (and releases) were measured over.
    measured_s: float = 0.0
    scaled_s: float = 0.0
    #: Per-cycle rebuilds, for workloads that rebuild inside the loop.
    setup_s: List[float] = field(default_factory=list)
    setup_scaled_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: HTTP 429 answers (admission control), also counted in ``failed``.
    rejected: int = 0
    #: Oracle failures, one line each.
    wrong: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    releases_ms: List[float] = field(default_factory=list)
    releases_scaled_ms: List[float] = field(default_factory=list)
    writes_ms: List[float] = field(default_factory=list)
    #: Every gauge reading taken, in milliseconds.
    gauge_ms: List[float] = field(default_factory=list)
    #: Hit/miss increments of the three caches over the measured window.
    cache: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def add(self, other: "Measurement") -> None:
        """Fold a later measuring loop's observations into this one."""
        self.latencies_ms += other.latencies_ms
        self.scaled_ms += other.scaled_ms
        self.measured_s += other.measured_s
        self.scaled_s += other.scaled_s
        self.setup_s += other.setup_s
        self.setup_scaled_s += other.setup_scaled_s
        self.attempted += other.attempted
        self.failed += other.failed
        self.rejected += other.rejected
        self.wrong += other.wrong
        self.errors += other.errors
        self.releases_ms += other.releases_ms
        self.releases_scaled_ms += other.releases_scaled_ms
        self.writes_ms += other.writes_ms
        self.gauge_ms += other.gauge_ms
        add_counts(self.cache, other.cache)

    def record_setup(self, wall_s: float, scaled_s: float) -> None:
        self.setup_s.append(wall_s)
        self.setup_scaled_s.append(scaled_s)

    def answered(self, wall_s: float, scaled_s: float) -> None:
        """Record one answered OMQ's latency."""
        self.latencies_ms.append(wall_s * 1000.0)
        self.scaled_ms.append(scaled_s * 1000.0)

    @property
    def writes(self) -> int:
        return len(self.releases_ms) + len(self.writes_ms)

    @property
    def throughput_qps(self) -> float:
        """Answered OMQs per scaled second of measured time."""
        return len(self.scaled_ms) / self.scaled_s if self.scaled_s else 0.0

    @property
    def wall_throughput_qps(self) -> float:
        return len(self.latencies_ms) / self.measured_s if self.measured_s else 0.0


def _traced(recorder: Optional[Recorder]):
    if recorder is None:
        return contextlib.nullcontext()
    return Instrumentation(recorder, default_probes())


def _answer(columns, rows) -> Answer:
    return tuple(columns), frozenset(tuple(row) for row in rows)


def _check(m: Measurement, label: str, columns, rows, expected: Answer) -> None:
    """Compare one answer with its oracle; record a line if it differs."""
    got = _answer(columns, rows)
    if got != expected or len(rows) != len(got[1]):
        m.wrong.append(
            f"{label}: columns {got[0]} rows {len(rows)} "
            f"(distinct {len(got[1])}), expected columns {expected[0]} "
            f"rows {len(expected[1])}"
        )


def _timed_answer(
    m: Measurement, gauge: Gauge, answer: Callable[[], Any], label: str, expected: Answer
):
    """One OMQ answered by ``answer()``; returns (wall s, scaled s, outcome)."""
    m.attempted += 1
    started = gauge.start()
    try:
        outcome = answer()
    except Exception as exc:  # noqa: BLE001 — counted, the loop goes on
        elapsed, scaled = gauge.stop(started)
        m.failed += 1
        m.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return elapsed, scaled, None
    elapsed, scaled = gauge.stop(started)
    m.answered(elapsed, scaled)
    _check(m, label, outcome.relation.schema.names, outcome.relation.rows, expected)
    return elapsed, scaled, outcome


# ---------------------------------------------------------------------- #
# football oracles
# ---------------------------------------------------------------------- #

#: Columns of the single-concept walk (sorted feature IRIs) → Player field.
_SINGLE_FIELDS = (
    ("height", "height"),
    ("playerName", "name"),
    ("preferredFoot", "preferred_foot"),
    ("rating", "rating"),
    ("weight", "weight"),
)


def football_oracles(data) -> Dict[str, Answer]:
    """Expected answers of the three football walks, from the raw data."""
    return {
        "reference": _answer(
            ("playerName",),
            ((p.name,) for p in data.players_in_national_league()),
        ),
        "figure8": _answer(
            ("playerName", "teamName"),
            ((p.name, data.team_by_id(p.team_id).name) for p in data.players),
        ),
        "single": _answer(
            tuple(column for column, _ in _SINGLE_FIELDS),
            (
                tuple(getattr(p, attr) for _, attr in _SINGLE_FIELDS)
                for p in data.players
            ),
        ),
    }


def football_walks(scenario) -> Dict[str, Any]:
    return {
        "reference": scenario.walk_league_nationality(),
        "figure8": scenario.walk_player_team_names(),
        "single": scenario.walk_single_concept(),
    }


def walk_nodes(walk) -> List[str]:
    """The node selection a walk completes from: its concepts and features."""
    return sorted(node.value for node in walk.concepts | walk.features)


def execution_config(mdm) -> Dict[str, Any]:
    """``MDM.execution_config()`` without the live counters and state."""
    config = dict(mdm.execution_config())
    for live in ("generation", "metadata_lock"):
        config.pop(live, None)
    for cache in ("rewrite_cache", "result_cache", "wrapper_cache"):
        stats = config[cache]
        config[cache] = {"capacity": stats["capacity"], "enabled": stats.get("enabled", True)}
    return config


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


class Workload:
    """A named closed loop over inputs generated from a seed."""

    name = ""
    clients = 1
    #: Answers per traced pass.
    traced_ops = 0
    #: True when ``measure`` rebuilds its inputs every cycle (set-up time
    #: then comes from those rebuilds instead of repeated ``build`` calls).
    rebuilds_per_cycle = False

    def build(self, seed: int) -> Any:
        raise NotImplementedError

    def close(self, state: Any) -> None:
        """Release what ``build`` started."""

    def config(self, state: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def measure(
        self, state: Any, stop: Stop, recorder: Optional[Recorder] = None
    ) -> Measurement:
        raise NotImplementedError


class _SingleQueryLoop(Workload):
    """One client asking one warm OMQ over and over."""

    def _build(self, seed: int) -> Tuple[Any, Any, Answer]:
        raise NotImplementedError

    def build(self, seed: int) -> Dict[str, Any]:
        mdm, walk, expected = self._build(seed)
        warm = Measurement()
        outcome = mdm.execute(walk)
        _check(warm, "warm-up", outcome.relation.schema.names, outcome.relation.rows, expected)
        if warm.wrong:
            raise RuntimeError(f"{self.name} warm-up failed: {warm.wrong}")
        return {"mdm": mdm, "walk": walk, "expected": expected}

    def config(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return execution_config(state["mdm"])

    def measure(
        self, state: Dict[str, Any], stop: Stop, recorder: Optional[Recorder] = None
    ) -> Measurement:
        m = Measurement()
        mdm, walk, expected = state["mdm"], state["walk"], state["expected"]
        gauge = Gauge()
        before = cache_counts(mdm)
        started = time.perf_counter()
        with _traced(recorder):
            while not stop.done(m.measured_s, len(m.latencies_ms), time.perf_counter() - started):
                elapsed, scaled, _ = _timed_answer(
                    m, gauge, partial(mdm.execute, walk), self.name, expected
                )
                m.measured_s += elapsed
                m.scaled_s += scaled
        add_counts(m.cache, cache_delta(before, cache_counts(mdm)))
        m.gauge_ms += gauge.readings
        return m


class OmqReference(_SingleQueryLoop):
    name = "omq_reference"
    traced_ops = 40

    def _build(self, seed: int):
        from repro.scenarios.football import FootballScenario

        scenario = FootballScenario.build(seed=seed)
        expected = football_oracles(scenario.data)["reference"]
        return scenario.mdm, scenario.walk_league_nationality(), expected


#: Wrapper versions of the wide-union source, and rows each one serves.
WIDE_VERSIONS = 32
WIDE_ROWS = 50


class WideUnion(_SingleQueryLoop):
    name = "wide_union"
    traced_ops = 12

    def _build(self, seed: int):
        from repro.scenarios.synthetic import SYN, versioned_concept_mdm

        mdm, concept = versioned_concept_mdm(WIDE_VERSIONS, rows=WIDE_ROWS, seed=seed)
        # The oracle is the source data itself: every version serves the
        # same base rows, read straight from the first version's wrapper.
        base = mdm.wrappers["wv1"].fetch()
        if len(base) != WIDE_ROWS:
            raise RuntimeError(f"wide_union: {len(base)} base rows, expected {WIDE_ROWS}")
        expected = _answer(("entityId", "entityVal"), ((r["id"], r["val"]) for r in base))
        walk = mdm.walk_from_nodes([concept, SYN.entityId, SYN.entityVal])
        return mdm, walk, expected


class EvolutionRelease(Workload):
    name = "evolution_release"
    traced_ops = 18
    rebuilds_per_cycle = True

    def build(self, seed: int) -> Dict[str, Any]:
        return {"seed": seed, "config": None}

    def config(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return state["config"] or {}

    def measure(
        self, state: Dict[str, Any], stop: Stop, recorder: Optional[Recorder] = None
    ) -> Measurement:
        from repro.scenarios.football import FootballScenario

        m = Measurement()
        gauge = Gauge()
        started = time.perf_counter()
        while not stop.done(m.measured_s, len(m.latencies_ms), time.perf_counter() - started):
            rebuild_started = gauge.start()
            scenario = FootballScenario.build(seed=state["seed"])
            saved = scenario.mdm.saved_queries
            oracles = football_oracles(scenario.data)
            for label, walk in football_walks(scenario).items():
                saved.save(label, walk)
            # Fill the caches: answer every saved walk once, untimed.
            before_release: Dict[str, Answer] = {}
            warm = Measurement()
            for label in oracles:
                outcome = saved.run(label)
                columns, rows = outcome.relation.schema.names, outcome.relation.rows
                _check(warm, f"pre-release {label}", columns, rows, oracles[label])
                if warm.wrong:
                    raise RuntimeError(f"{self.name} warm-up failed: {warm.wrong}")
                before_release[label] = _answer(columns, rows)
            m.record_setup(*gauge.stop(rebuild_started))
            mdm = scenario.mdm
            if state["config"] is None:
                state["config"] = execution_config(mdm)
            before = cache_counts(mdm)
            with _traced(recorder):
                m.attempted += 1
                release_started = gauge.start()
                try:
                    scenario.release_players_v2()
                except Exception as exc:  # noqa: BLE001 — counted
                    gauge.stop(release_started)
                    m.failed += 1
                    m.errors.append(f"release: {type(exc).__name__}: {exc}")
                    continue
                release_s, release_scaled = gauge.stop(release_started)
                m.releases_ms.append(release_s * 1000.0)
                m.releases_scaled_ms.append(release_scaled * 1000.0)
                m.measured_s += release_s
                m.scaled_s += release_scaled
                # The governance guarantee: every saved walk answers as it
                # did before the release.
                for label in oracles:
                    elapsed, scaled, _ = _timed_answer(
                        m,
                        gauge,
                        partial(saved.run, label),
                        f"post-release {label}",
                        before_release[label],
                    )
                    m.measured_s += elapsed
                    m.scaled_s += scaled
            add_counts(m.cache, cache_delta(before, cache_counts(mdm)))
        m.gauge_ms += gauge.readings
        return m


#: ``serve`` defaults the service workload runs with.
SERVE_RESULT_CACHE = 256
SERVE_WRAPPER_CACHE = 128
SERVE_MAX_IN_FLIGHT = 32
#: Walks the service clients pick from, in a seeded order, and how
#: often.  Every walk misses the result cache once per generation; the
#: heavy reference walk is asked in one query of nine, so its misses stay
#: near 5% of the answers, above p90, and p90 falls among the light
#: walks' misses (~10%) instead of on the edge between the two.
SERVICE_WALKS = ("reference", "figure8", "single")
SERVICE_WEIGHTS = (1, 4, 4)
#: Client 0 sends one generation-bumping write after every this many of
#: its own answers (about twice as many answers overall, two clients).
SERVICE_WRITE_EVERY = 10


def service_labels(seed: int, client: int) -> Iterator[str]:
    """The walks one service client asks for, in its seeded order."""
    rng = random.Random(seed * 1000 + client)
    while True:
        yield rng.choices(SERVICE_WALKS, weights=SERVICE_WEIGHTS)[0]


def _post(address: Tuple[str, int], path: str, body: Dict[str, Any]) -> Tuple[int, Any]:
    connection = http.client.HTTPConnection(*address, timeout=60)
    try:
        connection.request(
            "POST", path, body=json.dumps(body), headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        data = response.read()
    finally:
        connection.close()
    try:
        return response.status, json.loads(data) if data else None
    except json.JSONDecodeError:
        return response.status, None


class ServiceMixed(Workload):
    name = "service_mixed"
    clients = 2
    traced_ops = 150

    def build(self, seed: int) -> Dict[str, Any]:
        from repro.scenarios.football import FootballScenario
        from repro.service.api import MdmService
        from repro.service.server import MdmHttpServer

        scenario = FootballScenario.build(seed=seed)
        mdm = scenario.mdm
        mdm.configure_execution(
            result_cache_size=SERVE_RESULT_CACHE, wrapper_cache_size=SERVE_WRAPPER_CACHE
        )
        server = MdmHttpServer(
            MdmService(mdm), port=0, max_in_flight=SERVE_MAX_IN_FLIGHT
        ).start()
        state = {
            "mdm": mdm,
            "server": server,
            "address": server.server_address[:2],
            "bodies": {
                label: {"nodes": walk_nodes(walk)}
                for label, walk in football_walks(scenario).items()
            },
            "expected": football_oracles(scenario.data),
            # Walk orders and the write cadence carry on across measure calls.
            "labels": [service_labels(seed, index) for index in range(self.clients)],
            "answered": 0,
            "writes": 0,
        }
        try:
            for label, body in state["bodies"].items():
                status, payload = _post(state["address"], "/query", body)
                warm = Measurement()
                if status == 200:
                    _check(warm, label, payload["columns"], payload["rows"], state["expected"][label])
                if status != 200 or warm.wrong:
                    raise RuntimeError(f"service warm-up {label}: HTTP {status} {warm.wrong}")
        except BaseException:
            server.stop()
            raise
        return state

    def close(self, state: Dict[str, Any]) -> None:
        state["server"].stop()

    def config(self, state: Dict[str, Any]) -> Dict[str, Any]:
        config = execution_config(state["mdm"])
        config["max_in_flight"] = SERVE_MAX_IN_FLIGHT
        return config

    def measure(
        self, state: Dict[str, Any], stop: Stop, recorder: Optional[Recorder] = None
    ) -> Measurement:
        m = Measurement()
        lock = threading.Lock()
        finished = threading.Event()
        started = time.perf_counter()

        gauges = [Gauge() for _ in range(self.clients)]

        def ask(label: str, gauge: Gauge) -> bool:
            """One query; True when it was answered."""
            sent = gauge.start()
            try:
                status, payload = _post(state["address"], "/query", state["bodies"][label])
            except OSError as exc:
                status, payload = None, str(exc)
            elapsed, scaled = gauge.stop(sent)
            with lock:
                m.attempted += 1
                if status == 200:
                    m.answered(elapsed, scaled)
                    _check(m, label, payload["columns"], payload["rows"], state["expected"][label])
                else:
                    m.failed += 1
                    m.rejected += status == 429
                    m.errors.append(f"query {label}: HTTP {status} {payload}")
                wall = time.perf_counter() - started
                if stop.done(wall, len(m.latencies_ms), wall):
                    finished.set()
            return status == 200

        def write(gauge: Gauge) -> None:
            # A new, unmapped source: answer-neutral, but it bumps the
            # metadata generation, so every cached entry goes cold.
            state["writes"] += 1
            body = {"name": f"perfbench-source-{state['writes']}"}
            sent = gauge.start()
            try:
                status, payload = _post(state["address"], "/sources", body)
            except OSError as exc:
                status, payload = None, str(exc)
            elapsed, _ = gauge.stop(sent)
            with lock:
                m.attempted += 1
                if status == 200:
                    m.writes_ms.append(elapsed * 1000.0)
                else:
                    m.failed += 1
                    m.rejected += status == 429
                    m.errors.append(f"write: HTTP {status} {payload}")

        def client(index: int) -> None:
            labels, gauge = state["labels"][index], gauges[index]
            try:
                while not finished.is_set():
                    answered = ask(next(labels), gauge)
                    if index == 0 and answered:
                        state["answered"] += 1
                        if state["answered"] >= SERVICE_WRITE_EVERY and not finished.is_set():
                            state["answered"] = 0
                            write(gauge)
            except BaseException as exc:
                with lock:
                    m.errors.append(f"client {index}: {type(exc).__name__}: {exc}")
                    m.wrong.append(f"client {index} stopped early: {exc!r}")
                finished.set()
                raise

        before = cache_counts(state["mdm"])
        with _traced(recorder):
            threads = [
                threading.Thread(target=client, args=(i,), name=f"perfbench-client-{i}")
                for i in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=WALL_CAP_S + 60)
            m.measured_s = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("service client did not finish in time")
        add_counts(m.cache, cache_delta(before, cache_counts(state["mdm"])))
        # Two clients overlap, so measured time is the window's wall time,
        # scaled by the latency-weighted host speed the answers saw.
        if m.latencies_ms:
            m.scaled_s = m.measured_s * sum(m.scaled_ms) / sum(m.latencies_ms)
        for gauge in gauges:
            m.gauge_ms += gauge.readings
        return m


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    cls.name: cls for cls in (OmqReference, WideUnion, EvolutionRelease, ServiceMixed)
}
