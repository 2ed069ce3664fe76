"""Work counts of wide UCQs: one coercion and one sort per union chain,
and one schema derivation per plan node and optimization.

A source that shipped many wrapper versions yields one UCQ branch per
version.  These tests count the work a 64-branch UCQ costs with spies on
:meth:`Relation.coerced`, the union sort key and
:class:`RelationSchema` construction, so a change that makes each branch
cost more than the last fails here rather than only in a benchmark.
"""

from contextlib import contextmanager

import pytest

import repro.relational.executor as executor_module
from repro.relational.algebra import (
    Distinct,
    NaturalJoin,
    Project,
    Scan,
    Select,
    union_all,
)
from repro.relational.executor import Executor
from repro.relational.expressions import Cmp, Col, Const
from repro.relational.optimizer import PlanOptimizer, plan_key
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

BRANCHES = 64
ROWS = 50


def version(index: int) -> Relation:
    return Relation.from_dicts(
        [{"id": j, "x": f"v{index}-{j}", "junk": j * index} for j in range(ROWS)],
        ["id", "x", "junk"],
    )


@pytest.fixture
def relations():
    rels = {f"W{i}": version(i) for i in range(BRANCHES)}
    rels["T"] = Relation.from_dicts(
        [{"id": j, "name": f"t{j}"} for j in range(10)], ["id", "name"]
    )
    return rels


def wide_ucq(branches: int = BRANCHES):
    return Distinct(
        union_all(
            [
                Select(
                    Project(NaturalJoin(Scan(f"W{i}"), Scan("T")), ("id", "x", "name")),
                    Cmp("=", Col("name"), Const("t1")),
                )
                for i in range(branches)
            ]
        )
    )


def node_count(plan) -> int:
    return 1 + sum(node_count(child) for child in plan.children())


# --------------------------------------------------------------------- #
# one-pass union
# --------------------------------------------------------------------- #


@pytest.fixture
def spies(monkeypatch):
    """Rows per ``Relation.coerced`` call and calls of the union sort key."""
    coerced_calls = []
    sort_keys = []
    coerced = Relation.coerced
    sort_key = executor_module._union_sort_key

    def spy_coerced(self, target):
        coerced_calls.append(len(self))
        return coerced(self, target)

    def spy_sort_key(row):
        sort_keys.append(row)
        return sort_key(row)

    monkeypatch.setattr(Relation, "coerced", spy_coerced)
    monkeypatch.setattr(executor_module, "_union_sort_key", spy_sort_key)
    return coerced_calls, sort_keys


def test_wide_union_coerces_each_row_once_and_sorts_once(relations, spies):
    coerced_calls, sort_keys = spies
    plan = union_all([Scan(f"W{i}") for i in range(BRANCHES)])
    result = Executor(relations).execute(plan)
    assert len(result) == BRANCHES * ROWS
    assert coerced_calls == [ROWS] * BRANCHES
    assert len(sort_keys) == BRANCHES * ROWS


def test_wide_union_is_one_node_in_explain_analyze(relations, spies):
    coerced_calls, sort_keys = spies
    plan = union_all([Scan(f"W{i}") for i in range(BRANCHES)])
    _, stats = Executor(relations).execute_analyzed(plan)
    assert stats.label == f"Union[{BRANCHES} branches]"
    assert len(stats.children) == BRANCHES
    assert stats.rows_in == (ROWS,) * BRANCHES
    assert stats.rows_out == BRANCHES * ROWS
    assert [child.label for child in stats.children] == [
        f"Scan(W{i})" for i in range(BRANCHES)
    ]
    assert sum(1 for node in stats.iter_nodes() if node.label.startswith("Union")) == 1
    assert coerced_calls == [ROWS] * BRANCHES
    assert len(sort_keys) == BRANCHES * ROWS


def test_widening_step_costs_one_more_coercion_only_below_it(relations, spies):
    coerced_calls, _ = spies
    relations = dict(relations)
    relations["F"] = Relation.from_dicts([{"id": 1.5, "x": "f", "junk": 0}], ["id", "x", "junk"])
    # F widens ``id`` to FLOAT at the root: the 8 branches below it were
    # INTEGER up to there, so each passes through two distinct schemas.
    plan = union_all([Scan(f"W{i}") for i in range(8)] + [Scan("F")])
    Executor(relations).execute(plan)
    assert sorted(coerced_calls) == [1] + [ROWS] * 8 + [ROWS] * 8


# --------------------------------------------------------------------- #
# schema memo
# --------------------------------------------------------------------- #


@contextmanager
def counting_schema_builds(monkeypatch):
    builds = []
    init = RelationSchema.__init__

    def spy(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(RelationSchema, "__init__", spy)
        yield builds


def optimizer_for(relations):
    catalog = {name: rel.schema for name, rel in relations.items()}
    counts = {name: len(rel) for name, rel in relations.items()}
    return PlanOptimizer(catalog, counts)


def test_optimizing_a_wide_ucq_builds_schemas_linearly(relations, monkeypatch):
    plan = wide_ucq()
    optimizer = optimizer_for(relations)
    with counting_schema_builds(monkeypatch) as builds:
        optimized, _ = optimizer.optimize(plan)
    nodes = node_count(plan) + node_count(optimized)
    assert len(builds) <= nodes


def test_optimized_plan_is_identical_without_the_memo(relations, monkeypatch):
    plan = wide_ucq(16)
    with_memo, with_stats = optimizer_for(relations).optimize(plan)

    @contextmanager
    def no_memo(self):
        yield

    monkeypatch.setattr(PlanOptimizer, "_schema_memo", no_memo)
    optimizer = optimizer_for(relations)
    without_memo, without_stats = optimizer.optimize(plan)
    assert optimizer._schemas is None
    assert without_memo == with_memo
    assert plan_key(without_memo) == plan_key(with_memo)
    assert without_memo.pretty() == with_memo.pretty()
    assert without_stats.rules == with_stats.rules
    assert without_stats.estimated_rows_after == with_stats.estimated_rows_after


def test_memo_lives_for_one_call_only(relations):
    optimizer = optimizer_for(relations)
    optimizer.optimize(wide_ucq(4))
    assert optimizer._schemas is None
    assert optimizer.estimator.schemas is None
    optimizer.extract_pushdown(wide_ucq(4))
    assert optimizer._schemas is None


def test_second_optimizer_over_another_catalog_sees_fresh_schemas():
    plan = Project(Scan("A"), ("id", "x"))
    narrow = {"A": RelationSchema.of("id", "x")}
    wide = {"A": RelationSchema.of("id", "x", "extra")}
    first, _ = PlanOptimizer(narrow).optimize(plan)
    second, _ = PlanOptimizer(wide).optimize(plan)
    assert first == Scan("A")  # the projection is a noop over (id, x)
    assert second == plan  # ... but not over (id, x, extra)
    third, _ = PlanOptimizer(narrow).optimize(plan)
    assert third == first


def test_output_schema_memo_holds_the_node():
    scan = Scan("A")
    plan = Project(scan, ("x",))
    memo = {}
    schema = plan.output_schema({"A": RelationSchema.of("id", "x")}, memo)
    assert schema.names == ("x",)
    assert memo[id(plan)] == (plan, schema)
    assert memo[id(scan)][0] is scan
