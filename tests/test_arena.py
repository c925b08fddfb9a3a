"""The arena document store: columns, splices, scans, twins.

Contract under test: the struct-of-arrays mirror
(:class:`repro.axml.arena.DocumentArena`) is an *observer* of the
object tree — never the source of truth — so every column answer
(descendant scans, projection sets, index buckets, group passes)
must be indistinguishable from the object walk it replaces,
across construction, free-list splices, and whole factory mutation
traces.  Load-time projection (:func:`project_tree`) must prune only
provably-cold subtrees and stand down whenever it cannot prove
coldness.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.axml.arena import (
    ANY_DATA,
    KIND_ELEMENT,
    KIND_FUNCTION,
    KIND_VALUE,
    DocumentArena,
    project_tree,
)
from repro.axml.builder import C, E, V, build_document
from repro.axml.index import LabelIndex
from repro.axml.node import NodeKind
from repro.axml.xmlio import parse_document
from repro.lazy.incremental import LabelFootprint
from repro.pattern.match import MatchCounter, Matcher, MatchSet, snapshot_result
from repro.pattern.multimatch import PatternGroup
from repro.pattern.parse import parse_pattern
from repro.workloads.factory import REGIMES, fuzz_spec, generate, regime


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
            C("getHotels", V("NY")),
        )
    )


# ---------------------------------------------------------------------------
# Columns and views
# ---------------------------------------------------------------------------


def test_build_mirrors_every_node():
    document = sample_document()
    arena = DocumentArena(document)
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.capacity == arena.live_nodes
    assert arena.consistency_errors() == []
    for node in document.iter_nodes():
        slot = arena.slot_for(node)
        assert slot is not None
        assert arena.node_at(slot) is node
        assert arena.node_id[slot] == node.node_id
        children = [arena.node_at(c) for c in arena.child_slots(slot)]
        assert children == node.children


def test_kind_and_service_columns_screen_node_classes():
    document = sample_document()
    arena = DocumentArena(document)
    for node in document.iter_nodes():
        slot = arena.slot_for(node)
        expected = {
            NodeKind.ELEMENT: KIND_ELEMENT,
            NodeKind.VALUE: KIND_VALUE,
            NodeKind.FUNCTION: KIND_FUNCTION,
        }[node.kind]
        assert arena.kind[slot] == expected
        if node.is_function:
            assert arena.service[slot] == arena.label_id(node.label)
        else:
            assert arena.service[slot] == -1


def test_label_interning_is_append_only():
    document = sample_document()
    arena = DocumentArena(document)
    assert arena.label_id("no-such-label") is None
    lid = arena.label_id("hotel")
    assert lid is not None and arena.labels[lid] == "hotel"
    # Re-interning an existing label keeps its id.
    assert arena.intern("hotel") == lid
    # Removing the last carrier does not retire the id.
    hotel = document.root.children[0]
    document.remove_subtree(hotel)
    document.remove_subtree(document.root.children[0])
    assert arena.label_id("hotel") == lid


def test_arena_view_reads_the_columns():
    document = sample_document()
    arena = DocumentArena(document)
    root = arena.view(arena.root_slot)
    assert root.label == "root" and root.is_element and root.parent is None
    assert [v.label for v in root.children] == ["hotel", "hotel", "getHotels"]
    call_view = root.children[2]
    assert call_view.is_function and not call_view.is_data
    assert call_view.kind is NodeKind.FUNCTION
    assert call_view.parent.slot == arena.root_slot
    leaf = root.children[0].children[0].children[0]
    assert leaf.is_value and leaf.label == "Best Western"
    assert leaf.node_id == document.root.children[0].children[0].children[0].node_id


def test_slot_for_is_identity_checked():
    document = sample_document()
    twin = sample_document()
    arena = DocumentArena(document)
    # Same node ids, different document: never aliases a slot.
    for node in twin.iter_nodes():
        assert arena.slot_for(node) is None


# ---------------------------------------------------------------------------
# Splices and the free list
# ---------------------------------------------------------------------------


def test_remove_subtree_frees_slots_and_insert_recycles_them():
    document = sample_document()
    arena = DocumentArena(document)
    capacity = arena.capacity
    hotel = document.root.children[0]
    freed = hotel.subtree_size()
    document.remove_subtree(hotel)
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.capacity == capacity  # slots freed, not dropped
    assert arena.slot_for(hotel) is None  # stale node no longer aliases
    assert arena.consistency_errors() == []

    # Re-inserting a smaller forest reuses freed slots: no growth.
    document.insert_subtree(document.root, E("hotel", E("name", V("Hilton"))))
    assert arena.capacity == capacity
    assert arena.consistency_errors() == []
    # A forest larger than the remaining free list grows the tail.
    big = E("annex", *[E("room", V(str(k))) for k in range(freed)])
    document.insert_subtree(document.root, big)
    assert arena.capacity > capacity
    assert arena.consistency_errors() == []


def test_replace_call_splices_through_the_free_list():
    document = sample_document()
    arena = DocumentArena(document)
    call_node = next(
        n for n in document.function_nodes() if n.label == "getHotels"
    )
    forest = [E("hotel", E("name", V("Plaza"))), C("getMore", V("NY"))]
    document.replace_call(call_node, forest)
    assert arena.splices_applied == 1
    assert arena.live_nodes == document.root.subtree_size()
    assert arena.consistency_errors() == []
    # Sibling chain reflects the post-splice child order.
    root_children = [
        arena.node_at(c) for c in arena.child_slots(arena.root_slot)
    ]
    assert root_children == document.root.children


def test_insert_at_position_relinks_the_sibling_chain():
    document = sample_document()
    arena = DocumentArena(document)
    document.insert_subtree(document.root, E("first"), position=0)
    children = [arena.node_at(c) for c in arena.child_slots(arena.root_slot)]
    assert children == document.root.children
    assert children[0].label == "first"
    assert arena.consistency_errors() == []


def test_detach_stops_mirroring():
    document = sample_document()
    arena = DocumentArena(document)
    arena.detach()
    document.remove_subtree(document.root.children[0])
    # The arena is stale by contract; the document must not notify it.
    assert arena.splices_applied == 0


# ---------------------------------------------------------------------------
# Column scans vs the object-walk oracle
# ---------------------------------------------------------------------------


def walk_descendants(roots, want_kind, want_labels, descend_into_params):
    out = []
    stack = list(roots)
    while stack:
        node = stack.pop()
        code = {
            NodeKind.ELEMENT: KIND_ELEMENT,
            NodeKind.VALUE: KIND_VALUE,
            NodeKind.FUNCTION: KIND_FUNCTION,
        }[node.kind]
        kind_ok = code == want_kind or (
            want_kind == ANY_DATA and code != KIND_FUNCTION
        )
        if kind_ok and (want_labels is None or node.label in want_labels):
            out.append(node.node_id)
        if node.is_function and not descend_into_params:
            continue
        stack.extend(node.children)
    return sorted(out)


@pytest.mark.parametrize("descend", [True, False])
@pytest.mark.parametrize(
    "want_kind, labels",
    [
        (KIND_ELEMENT, {"hotel"}),
        (KIND_ELEMENT, {"name", "rating"}),
        (KIND_VALUE, {"5"}),
        (KIND_FUNCTION, None),
        (KIND_FUNCTION, {"getRestos"}),
        (ANY_DATA, None),
        (KIND_ELEMENT, {"absent"}),
    ],
)
def test_scan_descendants_agrees_with_the_object_walk(
    want_kind, labels, descend
):
    document = sample_document()
    arena = DocumentArena(document)
    want_ids = (
        None
        if labels is None
        else frozenset(
            lid
            for lid in (arena.label_id(lab) for lab in labels)
            if lid is not None
        )
    )
    got = sorted(
        arena.node_id[s]
        for s in arena.scan_descendants(
            [arena.root_slot], want_kind, want_ids, descend
        )
    )
    assert got == walk_descendants(
        [document.root], want_kind, labels, descend
    )


def test_scan_descendants_agrees_after_splices():
    document = sample_document()
    arena = DocumentArena(document)
    call_node = document.function_nodes()[0]
    document.replace_call(call_node, [E("hotel", E("name", V("Plaza")))])
    document.remove_subtree(document.root.children[0])
    lid = arena.label_id("hotel")
    got = sorted(
        arena.node_id[s]
        for s in arena.scan_descendants(
            [arena.root_slot], KIND_ELEMENT, frozenset({lid}), False
        )
    )
    assert got == walk_descendants(
        [document.root], KIND_ELEMENT, {"hotel"}, False
    )


def test_collect_projection_agrees_with_the_object_walk():
    document = sample_document()
    arena = DocumentArena(document)
    data_ids = frozenset(
        lid
        for lid in (arena.label_id(lab) for lab in ("name", "5"))
        if lid is not None
    )
    projected = arena.collect_projection(data_ids, frozenset(), False)

    expected = set()
    for node in document.iter_nodes():
        if not node.is_function and node.label in ("name", "5"):
            cursor = node
            while cursor is not None:
                expected.add(cursor.node_id)
                cursor = cursor.parent
    assert projected == expected

    # any_function pulls in every call's ancestor chain too.
    with_calls = arena.collect_projection(data_ids, frozenset(), True)
    for call_node in document.function_nodes():
        assert call_node.node_id in with_calls
    assert projected <= with_calls


def test_rebuild_index_buckets_matches_the_walk_rebuild():
    document = sample_document()
    arena = DocumentArena(document)
    document.replace_call(
        document.function_nodes()[0], [E("hotel", C("getMore", V("x")))]
    )
    via_arena = LabelIndex(document, arena=arena)
    via_walk = LabelIndex(document)
    assert {k: set(v) for k, v in via_arena.labels.items()} == {
        k: set(v) for k, v in via_walk.labels.items()
    }
    assert {k: set(v) for k, v in via_arena.functions.items()} == {
        k: set(v) for k, v in via_walk.functions.items()
    }
    via_arena.detach()
    via_walk.detach()


# ---------------------------------------------------------------------------
# Load-time projection
# ---------------------------------------------------------------------------


def footprint_for(text: str) -> LabelFootprint:
    return LabelFootprint.from_pattern(parse_pattern(text))


def test_project_tree_stands_down_without_a_footprint():
    root = sample_document().root.clone()
    _, pruned = project_tree(root, None)
    assert pruned == 0


def test_project_tree_stands_down_on_a_data_wildcard():
    footprint = footprint_for("/root/*")
    assert footprint.matches_any_data
    root = sample_document().root.clone()
    size = root.subtree_size()
    _, pruned = project_tree(root, footprint)
    assert pruned == 0 and root.subtree_size() == size


def test_project_tree_prunes_cold_subtrees_and_keeps_ancestors():
    footprint = footprint_for('/root/hotel/name/"Ritz"')
    assert not footprint.matches_any_data
    root = sample_document().root.clone()
    size = root.subtree_size()
    _, pruned = project_tree(root, footprint)
    assert pruned > 0
    assert root.subtree_size() == size - pruned
    labels = {n.label for n in root.iter_subtree()}
    assert "name" in labels  # the hot path survives with its ancestors
    assert "rating" not in labels  # provably cold: no test touches it


def test_project_tree_keeps_function_parameters_atomic():
    footprint = footprint_for("/root/nearby/getRestos()")
    root = E(
        "root",
        E("nearby", C("getRestos", V("2nd Av."), E("radius", V("5")))),
        E("cold", V("x")),
    )
    _, pruned = project_tree(root, footprint)
    call_node = root.children[0].children[0]
    assert call_node.is_function
    # The whole parameter forest rides along with the kept call.
    assert [c.label for c in call_node.children] == ["2nd Av.", "radius"]
    assert pruned == 2  # only the cold element and its value leaf


def test_build_document_applies_projection_and_records_the_count():
    footprint = footprint_for('/root/hotel/name/"Ritz"')
    plain = sample_document()
    projected = build_document(
        sample_document().root.clone(), project=footprint
    )
    assert projected.projection_pruned_at_load > 0
    assert (
        projected.root.subtree_size()
        == plain.root.subtree_size() - projected.projection_pruned_at_load
    )
    # The projected document still answers the footprint's query exactly
    # (compared structurally — the twins assign different node ids).
    query = parse_pattern('/root/hotel/name/"Ritz"')
    assert sorted(
        tuple(n.label for n in row.nodes)
        for row in snapshot_result(query, projected)
    ) == sorted(
        tuple(n.label for n in row.nodes)
        for row in snapshot_result(query, plain)
    )


def test_parse_document_applies_projection():
    text = (
        "<root><a><keep>1</keep></a><b><drop>2</drop></b></root>"
    )
    footprint = footprint_for('/root/a/keep/"1"')
    document = parse_document(text, project=footprint)
    # The whole <b> subtree (b, drop, "2") holds only cold data.
    assert document.projection_pruned_at_load == 3
    assert {n.label for n in document.root.iter_subtree()} >= {"root", "a", "keep"}
    assert all(n.label != "drop" for n in document.root.iter_subtree())


# ---------------------------------------------------------------------------
# Matcher / group equivalence: arena fast paths vs the object walk
# ---------------------------------------------------------------------------

QUERIES = [
    '/root/hotel/name/"Ritz"',
    "/root//name/$x",
    "/root//getRestos()",
    "/root/*//$v",
]


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


@pytest.mark.parametrize("text", QUERIES)
def test_group_pass_rows_match_with_and_without_the_arena(text):
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern(text)
    plain = PatternGroup({"q": query}).evaluate(document)
    fast = PatternGroup({"q": query}, arena=arena).evaluate(document)
    assert row_keys(fast.match_sets["q"]) == row_keys(plain.match_sets["q"])


def test_group_pass_rows_match_after_splices():
    document = sample_document()
    arena = DocumentArena(document)
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    for text in QUERIES:
        query = parse_pattern(text)
        plain = PatternGroup({"q": query}).evaluate(document)
        fast = PatternGroup({"q": query}, arena=arena).evaluate(document)
        assert row_keys(fast.match_sets["q"]) == row_keys(
            plain.match_sets["q"]
        ), text


# ---------------------------------------------------------------------------
# Engine integration: config-level equivalence on factory regimes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["baseline", "deep-recursion", "multi-root-standing"]
)
def test_engine_rows_and_logs_match_under_arena(name):
    gen = regime(name)
    query = gen.query_for(0)
    base, base_log = gen.evaluate(query, shared_matching=True)
    reference = gen.oracle_rows(query)
    for overrides in (
        {"arena": True},
        {"arena": True, "shared_matching": True},
    ):
        out, log = gen.evaluate(query, **overrides)
        assert set(out.value_rows()) == reference, overrides
        assert sorted(out.value_rows()) == sorted(base.value_rows())
        assert log == base_log, overrides


def test_engine_reports_arena_metrics():
    gen = regime("deep-recursion")
    out, _ = gen.evaluate(gen.query_for(0), arena=True, shared_matching=True)
    assert out.metrics.arena_nodes > 0
    assert out.metrics.arena_bytes > 0


# ---------------------------------------------------------------------------
# Arena existence probes: the column screen is the whole leaf test
# ---------------------------------------------------------------------------


def test_arena_exists_below_skips_can_for_leaf_steps():
    """The column prefilter in ``_exists_below_arena`` is exactly the
    node test for every non-OR pattern kind, so a *leaf* probe needs no
    per-survivor ``_can`` re-judgement — pinned by the counter."""
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    pattern = parse_pattern("/root//name")
    matcher = Matcher(pattern, counter=counter, arena=arena)
    matcher._reset_memos()
    name_step = pattern.root.children[0]
    assert not name_step.children  # a leaf condition
    assert matcher._exists_below(name_step, document.root)
    assert counter.can_checks == 0, counter.can_checks
    # The object-walk twin pays a can-check per candidate it judges.
    plain_counter = MatchCounter()
    plain = Matcher(pattern, counter=plain_counter)
    plain._reset_memos()
    assert plain._exists_below(name_step, document.root)
    assert plain_counter.can_checks > 0


def test_arena_exists_below_still_judges_interior_steps():
    """Interior probe targets carry child conditions the column screen
    cannot see — those survivors must still go through ``_can``."""
    document = sample_document()
    arena = DocumentArena(document)
    counter = MatchCounter()
    pattern = parse_pattern("/root//hotel/name")
    matcher = Matcher(pattern, counter=counter, arena=arena)
    matcher._reset_memos()
    hotel_step = pattern.root.children[0]
    assert hotel_step.children  # interior: has the name condition
    assert matcher._exists_below(hotel_step, document.root)
    assert counter.can_checks > 0


# ---------------------------------------------------------------------------
# Column matching: slot-space passes vs the object walk
# ---------------------------------------------------------------------------


def column_row_ids(match_set):
    return [
        (tuple(id(n) for n in row.nodes), row.bindings) for row in match_set
    ]


@pytest.mark.parametrize("text", QUERIES)
def test_column_match_rows_and_bindings_pin_to_the_object_walk(text):
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern(text)
    counter = MatchCounter()
    plain = Matcher(query, arena=arena).evaluate(document)
    column = Matcher(
        query, counter=counter, arena=arena, column_match=True
    ).evaluate(document)
    # Full row-by-row equality, order and first-witness bindings
    # included — not just the sorted key sets.
    assert column_row_ids(column) == column_row_ids(plain)
    if text == "/root/*//$v":
        # Interior data wildcard: the plan compiler stands down and the
        # object walk answers.
        assert counter.column_fallbacks == 1
        assert counter.column_rows == 0
    else:
        assert counter.column_fallbacks == 0
        assert counter.column_rows == len(plain)


def test_column_match_auto_off_without_an_arena():
    query = parse_pattern("/root//name/$x")
    counter = MatchCounter()
    matcher = Matcher(query, counter=counter, column_match=True)
    assert not matcher.column_match
    result = matcher.evaluate(sample_document())
    assert len(result) == 2
    assert counter.column_rows == 0
    assert counter.column_fallbacks == 0  # never armed, never fell back


def test_column_match_falls_back_on_an_unmirrored_root():
    document = sample_document()
    arena = DocumentArena(document)
    other = sample_document()  # not mirrored by this arena
    query = parse_pattern("/root//name/$x")
    counter = MatchCounter()
    matcher = Matcher(query, counter=counter, arena=arena, column_match=True)
    result = matcher.evaluate(other)
    assert len(result) == 2
    assert counter.column_fallbacks == 1
    assert counter.column_rows == 0


@pytest.mark.parametrize("text", QUERIES)
def test_scoped_column_match_pins_to_the_scoped_object_walk(text):
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern(text)
    for scope in document.root.children:
        counter = MatchCounter()
        plain = Matcher(query, arena=arena).evaluate_scoped(document, scope)
        column = Matcher(
            query, counter=counter, arena=arena, column_match=True
        ).evaluate_scoped(document, scope)
        assert column_row_ids(column) == column_row_ids(plain)


def test_column_match_survives_splices():
    document = sample_document()
    arena = DocumentArena(document)
    query = parse_pattern("/root//name/$x")
    matcher = Matcher(query, arena=arena, column_match=True)
    document.replace_call(
        document.function_nodes()[0],
        [E("hotel", E("name", V("Ritz")), E("rating", V("3")))],
    )
    document.remove_subtree(document.root.children[1])
    plain = Matcher(query, arena=arena).evaluate(document)
    assert column_row_ids(matcher.evaluate(document)) == column_row_ids(plain)


def test_engine_rows_and_logs_match_under_column_matching():
    for name in ("baseline", "deep-recursion", "multi-root-standing"):
        gen = regime(name)
        query = gen.query_for(0)
        base, base_log = gen.evaluate(query, shared_matching=True)
        reference = gen.oracle_rows(query)
        for overrides in (
            {"arena": True, "column_match": True},
            {"arena": True, "shared_matching": True, "column_match": True},
        ):
            out, log = gen.evaluate(query, **overrides)
            assert set(out.value_rows()) == reference, (name, overrides)
            assert log == base_log, (name, overrides)


def test_engine_reports_column_metrics():
    gen = regime("deep-recursion")
    out, _ = gen.evaluate(
        gen.query_for(0), arena=True, shared_matching=True, column_match=True
    )
    metrics = out.metrics
    assert metrics.column_rows + metrics.column_fallbacks > 0
    if metrics.column_rows:
        assert metrics.column_pass_nodes > 0
    assert "col-" in metrics.summary()


# ---------------------------------------------------------------------------
# The twin-document property (Hypothesis)
# ---------------------------------------------------------------------------


class DeltaRecorder:
    """Structural transcript of a document's splice stream."""

    def __init__(self, document):
        self.document = document
        self.deltas = []
        document.add_observer(self)

    def call_removed(self, document, node):
        pass

    def calls_added(self, document, nodes):
        pass

    def splice(self, document, delta):
        parent = delta.parent
        self.deltas.append(
            (
                tuple(_shape(root) for root in delta.removed),
                tuple(_shape(root) for root in delta.added),
                None if parent is None else parent.label,
            )
        )


def _shape(node):
    return (node.kind, node.label, tuple(_shape(c) for c in node.children))


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(REGIMES)),
    seed=st.integers(min_value=0, max_value=40),
)
def test_twin_documents_stay_equal_under_shared_mutation_traces(name, seed):
    """An arena-mirrored document and its plain twin, driven by the same
    factory mutation trace, must stay structurally equal — with the
    arena consistent and its index buckets equal to a walk rebuild
    after every step."""
    gen = generate(fuzz_spec(name, seed=seed))
    mirrored = gen.make_document(0)
    plain = gen.make_document(0)
    arena = DocumentArena(mirrored)
    mirrored_log = DeltaRecorder(mirrored)
    plain_log = DeltaRecorder(plain)
    index = LabelIndex(mirrored, arena=arena)  # maintained incrementally
    try:
        for step in range(6):
            gen.apply_mutation(str(step), (mirrored, plain))
            assert mirrored.root.structurally_equal(plain.root)
            assert arena.consistency_errors() == []
            walk = LabelIndex(plain)
            assert {k: len(v) for k, v in index.labels.items() if v} == {
                k: len(v) for k, v in walk.labels.items()
            }
            assert {k: len(v) for k, v in index.functions.items() if v} == {
                k: len(v) for k, v in walk.functions.items()
            }
            walk.detach()
        assert mirrored_log.deltas == plain_log.deltas
        assert arena.splices_applied == len(mirrored_log.deltas)
    finally:
        index.detach()
        arena.detach()
