"""The column matcher: slot-space plans pinned to the object walk.

Contract under test (:mod:`repro.pattern.columnmatch`): a compiled
plan, run entirely over the arena's int columns, must reproduce the
object walk's rows *and* first-witness bindings in the object walk's
order — candidate enumeration in sibling-chain order for child edges
and node-id order for descendant edges — across plain, scoped and
post-splice evaluations.  The plan compiler must stand down (return
``None``) on OR nodes and interior data wildcards, and the dead-filter
early exit (an un-interned label) must yield an empty answer without
touching the columns.
"""

from __future__ import annotations

import pytest

from repro.axml.arena import DocumentArena
from repro.axml.builder import C, E, V, build_document
from repro.pattern.columnmatch import ColumnMatcher, compile_plan
from repro.pattern.match import Matcher, MatchCounter, MatchOptions
from repro.pattern.nodes import EdgeKind, pelem, pfunc, por, pvar
from repro.pattern.parse import parse_pattern
from repro.pattern.pattern import TreePattern


def sample_document():
    return build_document(
        E(
            "root",
            E(
                "hotel",
                E("name", V("Best Western")),
                E("rating", V("5")),
                E("nearby", C("getRestos", V("2nd Av."))),
            ),
            E("hotel", E("name", V("Ritz")), E("rating", V("5"))),
            E("hotel", E("name", V("Dive")), E("rating", V("1"))),
        )
    )


def row_ids(match_set):
    return [
        (tuple(id(n) for n in row.nodes), row.bindings) for row in match_set
    ]


def run_column(pattern, document, arena, counter=None):
    plan = compile_plan(pattern)
    assert plan is not None, pattern
    matcher = ColumnMatcher(
        plan, arena, MatchOptions(), counter or MatchCounter()
    )
    return matcher.run(arena.slot_for(document.root))


# ---------------------------------------------------------------------------
# Plan compilation
# ---------------------------------------------------------------------------


def test_compile_refuses_or_nodes():
    root = pelem("root", por(pelem("a"), pelem("b")))
    assert compile_plan(TreePattern(root)) is None


def test_compile_refuses_interior_data_wildcards():
    star = pelem("root", pvar("x", result=True))
    assert compile_plan(TreePattern(star)) is not None  # leaf: supported
    interior = parse_pattern("/root/*//$v")
    assert compile_plan(interior) is None


def test_compile_partitions_enum_and_condition_children():
    pattern = parse_pattern('/root/hotel[rating="5"]/name/$x')
    plan = compile_plan(pattern)
    assert plan is not None
    hotel = plan.root.enum_children[0]
    # The rating predicate carries no bindings: a pure condition.  The
    # name step continues the output spine: enumeration.
    assert [c.label for c in hotel.cond_children] == ["rating"]
    assert [c.label for c in hotel.enum_children] == ["name"]
    assert plan.result_uids == tuple(
        r.uid for r in pattern.result_nodes()
    )


def test_compile_keeps_variable_predicates_enumerable():
    # [rating=$r] binds a variable, so the predicate branch must be
    # enumerated, not merely existence-checked.
    pattern = parse_pattern("/root/hotel[rating=$r]/name/$x")
    plan = compile_plan(pattern)
    assert plan is not None
    hotel = plan.root.enum_children[0]
    assert {c.label for c in hotel.enum_children} == {"rating", "name"}
    assert hotel.cond_children == ()


# ---------------------------------------------------------------------------
# Equivalence against the object walk
# ---------------------------------------------------------------------------

EQUIVALENCE_QUERIES = [
    '/root/hotel/name/"Ritz"',
    "/root//name/$x",
    "/root//getRestos()",
    '/root/hotel[rating="5"]/name/$x',
    "/root//hotel[rating=$r]/name/$x",
    "/root/hotel[nearby//getRestos()]/name",
    "/root//hotel[name=$n][rating=$n]",  # a variable join (never true here)
]


@pytest.mark.parametrize("text", EQUIVALENCE_QUERIES)
def test_rows_and_bindings_match_the_object_walk(text):
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern(text)
    plain = Matcher(pattern).evaluate(document)
    column = Matcher(
        pattern, arena=arena, column_match=True
    ).evaluate(document)
    assert row_ids(column) == row_ids(plain), text


def test_variable_join_binds_by_label_identity():
    document = build_document(
        E(
            "root",
            E("pair", E("a", V("x")), E("b", V("x"))),
            E("pair", E("a", V("x")), E("b", V("y"))),
        )
    )
    arena = DocumentArena(document)
    pattern = parse_pattern("/root/pair[a/$v][b/$v]")
    plain = Matcher(pattern).evaluate(document)
    column = Matcher(
        pattern, arena=arena, column_match=True
    ).evaluate(document)
    assert row_ids(column) == row_ids(plain)
    assert len(column) == 1  # only the agreeing pair survives the join


def test_slot_rows_render_bindings_from_the_label_table():
    document = sample_document()
    arena = DocumentArena(document)
    rows = run_column(parse_pattern("/root//name/$x"), document, arena)
    assert [bindings for _, bindings in rows] == [
        (("x", "Best Western"),),
        (("x", "Ritz"),),
        (("x", "Dive"),),
    ]


def test_descendant_candidates_come_in_node_id_order():
    document = sample_document()
    arena = DocumentArena(document)
    rows = run_column(parse_pattern("/root//name"), document, arena)
    slots = [slots[0] for slots, _ in rows]
    ids = [arena.node_id[s] for s in slots]
    assert ids == sorted(ids)


def test_function_name_sets_filter_by_interned_ids():
    document = sample_document()
    arena = DocumentArena(document)
    named = run_column(parse_pattern("/root//getRestos()"), document, arena)
    assert len(named) == 1
    star = run_column(
        TreePattern(
            pelem(
                "root", pfunc(None, edge=EdgeKind.DESCENDANT, result=True)
            )
        ),
        document,
        arena,
    )
    assert len(star) == 1  # the star function matches any call
    missing = run_column(
        parse_pattern("/root//neverServed()"), document, arena
    )
    assert missing == []


def test_uninterned_label_is_a_dead_filter_not_a_fallback():
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    rows = run_column(
        parse_pattern("/root//nosuchlabel/$x"), document, arena, counter
    )
    assert rows == []
    assert counter.column_fallbacks == 0
    assert counter.column_pass_nodes == 0  # dead exit: no scan ran


def test_function_parameters_are_a_barrier():
    document = sample_document()
    arena = DocumentArena(document)
    # "2nd Av." lives inside the getRestos call's parameters: invisible
    # to descendant steps unless options descend into parameters.
    pattern = parse_pattern('/root//"2nd Av."')
    rows = run_column(pattern, document, arena)
    assert rows == []
    plan = compile_plan(pattern)
    opened = ColumnMatcher(
        plan,
        arena,
        MatchOptions(descend_into_parameters=True),
        MatchCounter(),
    ).run(arena.slot_for(document.root))
    assert len(opened) == 1


def test_scoped_run_sees_only_the_scope_children():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//name/$x")
    plan = compile_plan(pattern)
    scope = arena.slot_for(document.root.children[1])
    rows = ColumnMatcher(plan, arena, MatchOptions(), MatchCounter()).run(
        arena.slot_for(document.root), scope
    )
    assert [bindings for _, bindings in rows] == [(("x", "Ritz"),)]
    plain = Matcher(pattern).evaluate_scoped(
        document, document.root.children[1]
    )
    assert [r.bindings for r in plain] == [bindings for _, bindings in rows]


def test_run_resolves_labels_fresh_after_a_splice():
    document = sample_document()
    arena = DocumentArena(document)
    pattern = parse_pattern("/root//brandnew/$x")
    plan = compile_plan(pattern)
    matcher = ColumnMatcher(plan, arena, MatchOptions(), MatchCounter())
    assert matcher.run(arena.slot_for(document.root)) == []
    # The label interns only now — a run caching filters across calls
    # would keep answering "dead".
    document.replace_call(
        document.function_nodes()[0], [E("brandnew", V("fresh"))]
    )
    rows = matcher.run(arena.slot_for(document.root))
    assert [bindings for _, bindings in rows] == [(("x", "fresh"),)]


def test_counters_attribute_column_work_separately():
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    matcher = Matcher(
        parse_pattern("/root//name/$x"),
        counter=counter,
        arena=arena,
        column_match=True,
    )
    result = matcher.evaluate(document)
    assert counter.column_rows == len(result) == 3
    assert counter.column_pass_nodes > 0
    assert counter.embeddings_found == 3
    # The object walk's cost counters stay untouched: the column pass
    # never mixes its effort into them.
    assert counter.can_checks == 0
    assert counter.candidates_visited == 0
