"""Prepared plans: the per-generation optimizer memo of MDM.execute.

A memo hit must return exactly the plan a fresh optimizer run builds;
anything that changes the optimizer's inputs (generation, fetched row
counts or types, the pushdown flag) must miss.
"""

import sys
import threading

import pytest

from repro.core.mdm import MDM
from repro.core.plan_memo import PlanMemo, catalog_signature
from repro.core.walks import FilterCondition
from repro.obs import get_metrics, reset_metrics, set_metrics
from repro.rdf.namespaces import Namespace
from repro.relational.algebra import Scan
from repro.relational.executor import Executor
from repro.relational.optimizer import OptimizationStats, PlanOptimizer, plan_key
from repro.relational.relation import Relation
from repro.scenarios.football import FootballScenario
from repro.scenarios.synthetic import SYN, versioned_concept_mdm
from repro.sources.wrappers import StaticWrapper

NS = Namespace("http://memo.test/")


@pytest.fixture()
def fresh_metrics():
    previous = get_metrics()
    registry = reset_metrics()
    yield registry
    set_metrics(previous)


@pytest.fixture()
def optimize_calls(monkeypatch):
    """Counts PlanOptimizer.optimize (stage B) calls."""
    calls = []
    original = PlanOptimizer.optimize

    def spy(self, plan):
        calls.append(plan)
        return original(self, plan)

    monkeypatch.setattr(PlanOptimizer, "optimize", spy)
    return calls


def reference():
    scenario = FootballScenario.build(anchors_only=True)
    return scenario.mdm, scenario.walk_league_nationality()


def versioned(n_versions=64):
    mdm, concept = versioned_concept_mdm(n_versions, rows=10)
    return mdm, mdm.walk_from_nodes([concept, SYN.entityId, SYN.entityVal])


def tiny(rows, wrapper_cls=StaticWrapper, **kwargs):
    """One concept, two wrapper versions over ``rows``."""
    mdm = MDM(**kwargs)
    mdm.add_concept(NS.C)
    mdm.add_identifier(NS.id, NS.C)
    mdm.add_feature(NS.val, NS.C)
    mdm.register_source("s")
    for name in ("w1", "w2"):
        mdm.register_wrapper("s", wrapper_cls(name, ["id", "val"], rows))
        mdm.define_mapping(name, {"id": NS.id, "val": NS.val})
    return mdm, mdm.walk_from_nodes([NS.C, NS.id, NS.val])


ROWS = [{"id": k, "val": f"v{k}"} for k in range(6)]


def stage_b_input(mdm, outcome):
    """The plan stage B optimized for ``outcome`` (pushdown on or off)."""
    if outcome.pushdown is None:
        return outcome.naive_plan
    needed = {n for q in outcome.rewrite.queries for n in q.wrapper_names}
    plan, _ = mdm._extract_pushdown(outcome.rewrite.plan, needed)
    return plan


class TestMemoHits:
    @pytest.mark.parametrize("build", [reference, versioned], ids=["reference", "v64"])
    def test_second_answer_skips_stage_b(self, build, optimize_calls):
        mdm, walk = build()
        first = mdm.execute(walk)
        assert len(optimize_calls) == 1
        second = mdm.execute(walk)
        assert len(optimize_calls) == 1
        assert first.plan_memo["stage_b"] == "miss"
        assert second.plan_memo == {
            "stage_a": "hit",
            "stage_b": "hit",
            "saved_ms": second.plan_memo["saved_ms"],
        }
        assert second.plan_memo["saved_ms"] > 0
        assert second.relation.rows == first.relation.rows
        assert plan_key(second.executed_plan) == plan_key(first.executed_plan)

    @pytest.mark.parametrize("pushdown", [True, False])
    @pytest.mark.parametrize("build", [reference, versioned], ids=["reference", "v64"])
    def test_hit_equals_direct_optimizer_run(self, build, pushdown):
        mdm, walk = build()
        mdm.configure_execution(pushdown=pushdown)
        mdm.execute(walk)
        hit = mdm.execute(walk)
        assert hit.plan_memo["stage_b"] == "hit"
        relations = dict(hit._executor._relations)
        direct, stats = PlanOptimizer(
            {name: rel.schema for name, rel in relations.items()},
            {name: len(rel) for name, rel in relations.items()},
        ).optimize(stage_b_input(mdm, hit))
        assert plan_key(hit.executed_plan) == plan_key(direct)
        assert hit.executed_plan.pretty() == direct.pretty()
        if not pushdown:
            assert hit.optimization.rules == stats.rules
        rows = Executor(relations).execute(direct).sorted().rows
        assert hit.relation.rows == rows

    def test_hits_hand_out_private_stats(self):
        mdm, walk = tiny(ROWS, pushdown=False)
        first = mdm.execute(walk)
        second = mdm.execute(walk)
        assert second.plan_memo["stage_b"] == "hit"
        assert second.optimization is not first.optimization
        second.optimization.count("tampered")
        assert "tampered" not in mdm.execute(walk).optimization.rules

    @pytest.mark.parametrize("pushdown", [True, False])
    def test_hits_report_no_optimizer_time(self, pushdown):
        mdm, walk = tiny(ROWS, pushdown=pushdown)
        first = mdm.execute(walk)
        second = mdm.execute(walk)
        assert second.plan_memo["stage_b"] == "hit"
        assert first.optimization.elapsed_s > 0
        assert second.optimization.elapsed_s == 0.0
        assert second.optimization.rules == first.optimization.rules
        assert second.optimization.passes == first.optimization.passes
        assert second.plan_memo["saved_ms"] == pytest.approx(
            first.optimization.elapsed_s * 1000.0, abs=1e-5
        )

    def test_explain_analyze_shows_memo_line(self):
        mdm, walk = reference()
        first = mdm.execute(walk, analyze=True)
        second = mdm.execute(walk, analyze=True)
        assert "Plan memo: stage A miss, stage B miss" in first.explain_analyze()
        text = second.explain_analyze()
        assert "Plan memo: stage A hit, stage B hit (saved " in text
        assert "ms optimized at first answer)" in text
        assert "Optimizer: " in text

    def test_query_log_and_metrics_record_dispositions(self, fresh_metrics):
        from repro.obs.querylog import QueryLogRecord, get_query_log

        mdm, walk = tiny(ROWS)
        mdm.execute(walk)
        mdm.execute(walk)
        record = get_query_log().recent(1)[0]
        assert record.plan_memo["stage_a"] == "hit"
        assert record.plan_memo["stage_b"] == "hit"
        assert QueryLogRecord.from_dict(record.to_dict()).plan_memo == record.plan_memo
        counter = fresh_metrics.counter(
            "mdm_plan_memo_total", labelnames=("stage", "result")
        )
        for stage in ("a", "b"):
            assert counter.value(stage=stage, result="miss") == 1
            assert counter.value(stage=stage, result="hit") == 1


class TestMemoMisses:
    def test_generation_bump_misses(self, optimize_calls):
        mdm, walk = tiny(ROWS)
        mdm.execute(walk)
        mdm.bump_generation()
        outcome = mdm.execute(walk)
        assert outcome.plan_memo["stage_a"] == "miss"
        assert outcome.plan_memo["stage_b"] == "miss"
        assert len(optimize_calls) == 2

    def test_changed_row_count_misses(self, optimize_calls):
        mdm, walk = tiny(ROWS)
        before = mdm.execute(walk)
        # The source now serves one more row; no metadata changed.
        mdm.wrappers["w2"]._rows.append({"id": 99, "val": "v99"})
        after = mdm.execute(walk)
        assert after.generation == before.generation
        assert after.plan_memo["stage_a"] == "hit"
        assert after.plan_memo["stage_b"] == "miss"
        assert len(optimize_calls) == 2
        assert len(after.relation) == len(before.relation) + 1

    def test_changed_column_type_misses(self, optimize_calls):
        mdm, walk = tiny(ROWS)
        mdm.execute(walk)
        for row in mdm.wrappers["w1"]._rows:
            row["id"] = str(row["id"])
        outcome = mdm.execute(walk)
        assert outcome.plan_memo["stage_b"] == "miss"
        assert len(optimize_calls) == 2

    def test_pushdown_flip_misses(self, optimize_calls):
        mdm, walk = tiny(ROWS)
        pushed = mdm.execute(walk)
        mdm.configure_execution(pushdown=False)
        plain = mdm.execute(walk)
        assert plain.plan_memo == {"stage_b": "miss", "saved_ms": 0.0}
        assert len(optimize_calls) == 2
        assert plain.relation.rows == pushed.relation.rows

    def test_partial_answer_bypasses_memo(self, optimize_calls):
        class Flaky(StaticWrapper):
            down = False

            def fetch(self):
                if self.down:
                    raise ConnectionError("source offline")
                return super().fetch()

        mdm, walk = tiny(ROWS, wrapper_cls=Flaky)
        mdm.wrappers["w2"].down = True
        partial = mdm.execute(walk, on_wrapper_error="partial")
        assert partial.partial
        assert partial.plan_memo["stage_b"] == "bypass"
        mdm.wrappers["w2"].down = False
        full = mdm.execute(walk)
        assert full.plan_memo["stage_b"] == "miss"
        assert len(optimize_calls) == 2

    def test_optimizer_failures_are_not_memoized(self, monkeypatch, fresh_metrics):
        def broken(self, plan):
            raise RuntimeError("optimizer bug")

        monkeypatch.setattr(PlanOptimizer, "optimize", broken)
        mdm, walk = tiny(ROWS)
        first = mdm.execute(walk)
        second = mdm.execute(walk)
        assert second.plan_memo["stage_b"] == "miss"
        assert second.relation.rows == first.relation.rows
        assert fresh_metrics.counter("mdm_optimizer_failures_total").value() == 2


class TestMemoBounds:
    def test_only_current_generation_survives_bumps(self):
        mdm, concept = versioned_concept_mdm(2, rows=5)
        walks = [
            mdm.walk_from_nodes([concept, SYN.entityId]),
            mdm.walk_from_nodes([concept, SYN.entityId, SYN.entityVal]),
            mdm.walk_from_nodes([concept, SYN.entityVal]),
        ]
        for _ in range(50):
            mdm.bump_generation()
            for walk in walks:
                mdm.execute(walk)
        keys = mdm.plan_memo.keys()
        assert len(keys) == 3
        assert {generation for _, generation, _ in keys} == {mdm.generation}

    def test_capacity_bound(self):
        memo = PlanMemo()
        report = {}
        for n in range(PlanMemo.CAPACITY + 5):
            memo.stage_a((f"walk{n}", 1, True), lambda: ("plan", None), report)
        assert len(memo) == PlanMemo.CAPACITY
        assert ("walk0", 1, True) not in memo.keys()

    def test_new_signature_replaces_the_stage_b_slot(self):
        memo = PlanMemo()
        report = {}
        key = ("walk", 1, True)
        stats = OptimizationStats(elapsed_s=0.001)
        memo.stage_b(key, (0,), "in", lambda: ("out0", stats), report)
        memo.stage_b(key, (1,), "in", lambda: ("out1", stats), report)
        plan, _ = memo.stage_b(key, (1,), "in", lambda: ("fresh", stats), report)
        assert (report["stage_b"], plan) == ("hit", "out1")
        plan, _ = memo.stage_b(key, (0,), "in", lambda: ("fresh", stats), report)
        assert (report["stage_b"], plan) == ("miss", "fresh")
        assert len(memo) == 1

    def test_superseded_generation_is_not_stored(self):
        memo = PlanMemo()
        memo.stage_a(("w", 5, True), lambda: ("new", None), {})
        memo.stage_a(("w", 4, True), lambda: ("old", None), {})
        assert memo.keys() == [("w", 5, True)]

    def test_unchanged_plan_answers_with_callers_object(self):
        memo = PlanMemo()
        stats = OptimizationStats()
        key = ("w", 1, False)
        first_input = Scan("r")
        memo.stage_b(key, (), first_input, lambda: (first_input, stats), {})
        second_input = Scan("r")
        plan, _ = memo.stage_b(key, (), second_input, lambda: None, {})
        assert plan is second_input

    def test_catalog_signature_covers_schema_and_rows(self):
        small = Relation.from_dicts([{"id": 1}], ["id"])
        larger = Relation.from_dicts([{"id": 1}, {"id": 2}], ["id"])
        text = Relation.from_dicts([{"id": "1"}], ["id"])
        signatures = {
            catalog_signature({"r": rel}) for rel in (small, larger, text)
        }
        assert len(signatures) == 3
        assert catalog_signature({"b": small, "a": larger}) == catalog_signature(
            {"a": larger, "b": small}
        )


def test_concurrent_queries_get_identical_answers():
    mdm, walk = reference()
    threads = 8
    barrier = threading.Barrier(threads)
    outcomes = [None] * threads

    def ask(slot):
        barrier.wait(timeout=10)
        outcomes[slot] = mdm.execute(walk)

    workers = [threading.Thread(target=ask, args=(n,)) for n in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert all(outcome is not None for outcome in outcomes)
    first = outcomes[0]
    for outcome in outcomes[1:]:
        assert outcome.relation.rows == first.relation.rows
        assert plan_key(outcome.executed_plan) == plan_key(first.executed_plan)
    assert len(mdm.plan_memo) == 1


class TestFrozenExecutionFlags:
    def test_mid_query_reconfiguration_applies_to_the_next_query(self):
        class Reconfiguring(StaticWrapper):
            mdm = None

            def fetch(self):
                if self.mdm is not None:
                    self.mdm.configure_execution(pushdown=False)
                return super().fetch()

        mdm, walk = tiny(ROWS, wrapper_cls=Reconfiguring, result_cache_size=8)
        walk = walk.with_filters(FilterCondition(NS.val, "!=", "v1"))
        mdm.wrappers["w1"].mdm = mdm
        outcome = mdm.execute(walk)
        assert mdm.pushdown is False
        assert outcome.pushdown is not None and outcome.pushdown["enabled"]
        assert outcome.plan_memo["stage_a"] == "miss"

        def scans(node):
            if isinstance(node, Scan):
                yield node
            for child in node.children():
                yield from scans(child)

        assert any(scan.is_pushed() for scan in scans(outcome.executed_plan))
        generation = outcome.generation
        assert mdm.result_cache.get(walk, generation, True, pushdown=True) is not None
        assert mdm.result_cache.get(walk, generation, True, pushdown=False) is None
        assert {pushdown for _, _, pushdown in mdm.plan_memo.keys()} == {True}

        mdm.wrappers["w1"].mdm = None
        following = mdm.execute(walk)
        assert following.pushdown is None
        assert following.result_cache == "miss"
