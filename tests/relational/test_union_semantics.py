"""Pins the executor's union semantics against a binary reference evaluator.

A union chain widens step by step: every union node coerces both inputs
to its own widened schema, so a leaf's rows pass through each distinct
type on their leaf-to-root path.  Because coercion does not compose
(``coerce(coerce(25, FLOAT), STRING)`` is ``'25.0'`` while
``coerce(25, STRING)`` is ``'25'``), the nesting shape is observable in
the answer bytes.  Every case here evaluates the plan with the executor
and with :func:`reference`, a small evaluator that runs each binary
``Union`` node on its own, and compares schemas, values and value types.
"""

from itertools import permutations

import pytest

from repro.relational.algebra import Extend, PlanNode, Project, Scan, Select, Union
from repro.relational.executor import ExecutionError, Executor
from repro.relational.expressions import Cmp, Col, Const
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.relational.types import AttrType


def _sort_key(row):
    return tuple((value is not None, str(value)) for value in row)


def reference(plan: PlanNode, relations) -> Relation:
    """Binary, node-at-a-time evaluation of Scan/Select/Project/Extend/Union."""
    if isinstance(plan, Scan):
        return relations[plan.relation_name]
    if isinstance(plan, Select):
        child = reference(plan.child, relations)
        names = child.schema.names
        kept = [r for r in child if plan.predicate.evaluate(dict(zip(names, r)))]
        return Relation(child.schema, kept)
    if isinstance(plan, Project):
        child = reference(plan.child, relations)
        indices = [child.schema.index_of(n) for n in plan.names]
        rows = [tuple(r[i] for i in indices) for r in child]
        return Relation(child.schema.project(plan.names), rows)
    if isinstance(plan, Extend):
        child = reference(plan.child, relations)
        schema = RelationSchema(
            list(child.schema.attributes) + [Attribute(plan.column, AttrType.ANY)]
        )
        return Relation(schema, [r + (plan.value,) for r in child])
    if isinstance(plan, Union):
        left = reference(plan.left, relations)
        right = reference(plan.right, relations)
        if not left.schema.union_compatible(right.schema):
            raise ExecutionError(
                "union of incompatible schemas: "
                f"{list(left.schema.names)} vs {list(right.schema.names)}"
            )
        widened = left.schema.widen(right.schema)
        rows = left.coerced(widened).rows + right.coerced(widened).rows
        return Relation(widened, sorted(rows, key=_sort_key))
    raise TypeError(f"reference evaluator does not handle {plan!r}")


def typed_rows(relation: Relation):
    """Rows with each cell tagged by its Python type (25 != 25.0 != '25')."""
    return [tuple((type(v).__name__, v) for v in row) for row in relation.rows]


def assert_matches_reference(relations, plan):
    expected = reference(plan, relations)
    actual = Executor(dict(relations)).execute(plan)
    assert actual.schema == expected.schema
    assert typed_rows(actual) == typed_rows(expected)
    return actual


def one_column(name, values):
    return Relation.from_dicts([{"x": v} for v in values], ["x"], name=name)


@pytest.fixture
def relations():
    return {
        "I": one_column("I", [25, 3]),
        "F": one_column("F", [2.5, 25.0]),
        "S": one_column("S", ["abc", "25"]),
        "B": one_column("B", [True]),
        "N": one_column("N", [None, None]),
    }


def test_leaf_types(relations):
    types = {name: rel.schema.attribute("x").type for name, rel in relations.items()}
    assert types == {
        "I": AttrType.INTEGER,
        "F": AttrType.FLOAT,
        "S": AttrType.STRING,
        "B": AttrType.BOOLEAN,
        "N": AttrType.ANY,
    }


def test_int_widened_to_float_before_string(relations):
    plan = Union(Union(Scan("I"), Scan("F")), Scan("S"))
    result = assert_matches_reference(relations, plan)
    assert "25.0" in result.column("x")
    assert "25" in result.column("x")  # from S itself
    assert result.column("x").count("25.0") == 2  # I's 25 and F's 25.0


def test_int_widened_straight_to_string(relations):
    plan = Union(Union(Scan("I"), Scan("S")), Scan("F"))
    result = assert_matches_reference(relations, plan)
    assert result.column("x").count("25") == 2  # I's 25 and S's "25"
    assert result.column("x").count("25.0") == 1  # F's 25.0


def test_right_deep_nesting(relations):
    plan = Union(Scan("I"), Union(Scan("F"), Scan("S")))
    result = assert_matches_reference(relations, plan)
    assert result.column("x").count("25") == 2


def test_select_between_two_unions(relations):
    inner = Select(Union(Scan("I"), Scan("F")), Cmp(">", Col("x"), Const(4)))
    plan = Union(inner, Scan("S"))
    result = assert_matches_reference(relations, plan)
    # The Select sees FLOAT values; only 25.0 (twice) survives, then widens.
    assert sorted(result.column("x")) == ["25", "25.0", "25.0", "abc"]


def test_select_over_chain_inside_chain(relations):
    inner = Select(Union(Scan("S"), Scan("N")), Cmp("!=", Col("x"), Const("abc")))
    plan = Union(Union(Scan("I"), inner), Union(Scan("F"), Scan("B")))
    assert_matches_reference(relations, plan)


def test_any_typed_branches(relations):
    for plan in (
        Union(Union(Scan("N"), Scan("I")), Scan("F")),
        Union(Scan("N"), Union(Scan("N"), Scan("B"))),
        Union(Union(Scan("N"), Scan("N")), Scan("N")),
    ):
        assert_matches_reference(relations, plan)


def test_any_typed_column_keeps_raw_values():
    untyped = RelationSchema.of("k", "v")
    relations = {
        "U1": Relation(untyped, [(1, "a"), ("1", None)]),
        "U2": Relation(untyped, [(True, 2), (None, 2.5)]),
        "T": Relation.from_dicts([{"k": 7, "v": None}], ["k", "v"]),
    }
    for plan in (
        Union(Union(Scan("U1"), Scan("U2")), Scan("T")),
        Union(Scan("T"), Union(Scan("U2"), Scan("U1"))),
        Union(Union(Scan("U1"), Scan("U2")), Scan("U1")),
    ):
        assert_matches_reference(relations, plan)


def test_null_padded_branches(relations):
    padded = Extend(Scan("I"), "extra")
    other = Extend(Scan("F"), "extra", None)
    plan = Union(Union(padded, other), Extend(Scan("S"), "extra"))
    assert_matches_reference(relations, plan)


def _shapes(leaves):
    """Every binary union tree over ``leaves`` in the given order."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    for split in range(1, len(leaves)):
        for left in _shapes(leaves[:split]):
            for right in _shapes(leaves[split:]):
                yield Union(left, right)


def test_every_nesting_of_four_types(relations):
    checked = 0
    for order in permutations(["I", "F", "S", "N"]):
        for plan in _shapes([Scan(name) for name in order]):
            assert_matches_reference(relations, plan)
            checked += 1
    assert checked == 24 * 5


def test_incompatible_schemas_raise_the_same_error(relations):
    relations = dict(relations)
    relations["Y"] = Relation.from_dicts([{"y": 1}], ["y"])
    for plan in (
        Union(Union(Scan("I"), Scan("F")), Scan("Y")),
        Union(Scan("Y"), Union(Scan("I"), Scan("F"))),
        Union(Union(Scan("I"), Scan("Y")), Union(Scan("F"), Scan("Y"))),
    ):
        with pytest.raises(ExecutionError) as expected:
            reference(plan, relations)
        with pytest.raises(ExecutionError) as actual:
            Executor(dict(relations)).execute(plan)
        assert str(actual.value) == str(expected.value)
