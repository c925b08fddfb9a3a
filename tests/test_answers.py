"""Tests for delta-driven answer maintenance (``repro.lazy.answers``)
and the scoped-matching primitives it is built on."""

import pytest

from repro.axml.builder import E, V, build_document
from repro.axml.index import LabelIndex
from repro.axml.node import call, element, value
from repro.lazy.answers import AnswerCache, ServiceTouchTracker
from repro.pattern.match import Matcher, MatchSet
from repro.pattern.parse import parse_pattern


def make_library():
    return build_document(
        E(
            "lib",
            E(
                "shelf",
                E("book", E("tag", V("x")), E("title", V("a"))),
                E("book", E("tag", V("y")), E("title", V("b"))),
            ),
            E("shelf", E("book", E("tag", V("x")), E("title", V("c")))),
            E("box", E("book", E("tag", V("x")), E("title", V("d")))),
        )
    )


def row_keys(match_set):
    return {MatchSet.row_key(row) for row in match_set.rows}


# -- scoped matching ---------------------------------------------------------


@pytest.mark.parametrize(
    "query_text",
    [
        '/lib/shelf/book[tag="x"]/title/$T',
        '/lib//book[tag="x"]/title/$T',
        "/lib//title/$T",
    ],
)
def test_scoped_results_compose_to_the_full_result(query_text):
    document = make_library()
    query = parse_pattern(query_text)
    full = Matcher(query).evaluate(document)
    matcher = Matcher(query)
    groups = [
        matcher.evaluate_scoped(document, child).rows
        for child in document.root.children
    ]
    composed = MatchSet.compose(query, groups)
    assert composed.value_rows() == full.value_rows()
    assert row_keys(composed) == row_keys(full)


def test_scoped_results_compose_with_a_label_index_attached():
    # Index-served descendant candidates must honour the scope: the
    # bucket holds nodes of *every* depth-1 subtree, and only those
    # reachable through the scoped child may count.
    document = make_library()
    index = LabelIndex(document)
    query = parse_pattern('/lib//book[tag="x"]/title/$T')
    full = Matcher(query).evaluate(document)
    matcher = Matcher(query, index=index)
    composed = MatchSet.compose(
        query,
        [
            matcher.evaluate_scoped(document, child).rows
            for child in document.root.children
        ],
    )
    assert composed.value_rows() == full.value_rows()
    assert row_keys(composed) == row_keys(full)
    index.detach()


def test_scoped_evaluation_rejects_non_root_children():
    document = make_library()
    matcher = Matcher(parse_pattern("/lib//title/$T"))
    deep = document.root.children[0].children[0]  # a book, depth 2
    with pytest.raises(ValueError):
        matcher.evaluate_scoped(document, deep)


def test_scope_does_not_leak_into_later_evaluations():
    document = make_library()
    query = parse_pattern("/lib//title/$T")
    matcher = Matcher(query)
    matcher.evaluate_scoped(document, document.root.children[0])
    # A later full evaluation sees the whole document again.
    assert (
        matcher.evaluate(document).value_rows()
        == Matcher(query).evaluate(document).value_rows()
    )


# -- MatchSet splice primitives ----------------------------------------------


def test_matchset_compose_dedupes_by_row_identity():
    document = make_library()
    query = parse_pattern("/lib//title/$T")
    rows = Matcher(query).evaluate(document).rows
    composed = MatchSet.compose(query, [rows, rows])
    assert len(composed) == len(rows)


def test_matchset_spliced_retracts_and_appends():
    document = make_library()
    query = parse_pattern("/lib//title/$T")
    result = Matcher(query).evaluate(document)
    assert result.spliced(set(), []) is result  # no-op returns self
    victim = MatchSet.row_key(result.rows[0])
    shrunk = result.spliced({victim}, [])
    assert len(shrunk) == len(result) - 1
    assert victim not in row_keys(shrunk)
    grown = shrunk.spliced(set(), [result.rows[0]])
    assert row_keys(grown) == row_keys(result)


# -- SpliceDelta geometry ----------------------------------------------------


class _DeltaLog:
    def __init__(self, document):
        self.deltas = []
        document.add_observer(self)

    def call_removed(self, document, node):
        pass

    def calls_added(self, document, nodes):
        pass

    def splice(self, document, delta):
        self.deltas.append(delta)


def test_scope_under_finds_the_depth_one_attachment():
    document = make_library()
    log = _DeltaLog(document)
    shelf = document.root.children[0]
    book = shelf.children[0]
    document.insert_subtree(book, element("note", value("fine")))
    assert log.deltas[-1].scope_under(document.root) is shelf
    # Directly under the root there is no depth-1 container.
    document.insert_subtree(document.root, element("shelf"))
    assert log.deltas[-1].scope_under(document.root) is None
    # Removing a depth-1 subtree: parent *is* the root.
    document.remove_subtree(document.root.children[-1])
    assert log.deltas[-1].scope_under(document.root) is None


def test_touched_services_names_calls_in_both_directions():
    document = make_library()
    log = _DeltaLog(document)
    document.insert_subtree(
        document.root.children[0], call("getBooks", value("k"))
    )
    assert log.deltas[-1].touched_services() == frozenset({"getBooks"})
    call_node = document.root.children[0].children[-1]
    document.replace_call(call_node, [element("book")])
    assert "getBooks" in log.deltas[-1].touched_services()


# -- ServiceTouchTracker -----------------------------------------------------


def test_tracker_records_external_call_insertions_only():
    document = make_library()
    tracker = ServiceTouchTracker(document)
    document.insert_subtree(document.root, element("shelf"))
    assert tracker.touched == {}  # data only
    document.insert_subtree(document.root, call("getBooks", value("k")))
    assert tracker.touched == {"getBooks": document.version}
    # Invocation-produced splices are engine bookkeeping, not a signal
    # that the world behind a service changed: no flush for either the
    # invoked call leaving or the produced call arriving.
    call_node = document.root.children[-1]
    tracker.drain()
    document.replace_call(call_node, [call("getMore", value("k2"))])
    assert tracker.touched == {}
    # A produced call later *removed* is still not an external re-ask.
    produced = document.root.children[-1]
    document.remove_subtree(produced)
    assert tracker.touched == {}
    tracker.detach()


def test_tracker_drain_resets():
    document = make_library()
    tracker = ServiceTouchTracker(document)
    document.insert_subtree(document.root, call("getBooks", value("k")))
    first = tracker.drain()
    assert first == {"getBooks": document.version}
    assert tracker.drain() == {}
    tracker.detach()


# -- AnswerCache -------------------------------------------------------------

QUERY = '/lib/shelf/book[tag="x"]/title/$T'


def oracle_rows(document, query):
    return Matcher(query).evaluate(document).value_rows()


def test_cache_seeds_then_serves_hits():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    assert not cache.seeded
    rows = cache.rows()
    assert rows.value_rows() == {("a",), ("c",)}
    assert cache.full_matches == 1
    cache.rows()
    assert cache.full_matches == 1
    assert cache.hits == 1
    assert cache.is_current
    cache.detach()


def test_guard_screen_dismisses_disjoint_splices():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(
        document.root.children[2], element("misc", value("z"))
    )
    assert cache.screens == 1
    assert cache.is_current  # provably unchanged: no re-match needed
    cache.detach()


def test_dirty_scope_rematch_tracks_the_oracle():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    shelf = document.root.children[1]
    document.insert_subtree(
        shelf, element("book", element("tag", value("x")),
                       element("title", value("e")))
    )
    assert not cache.is_current
    rows = cache.rows()
    assert rows.value_rows() == oracle_rows(document, query) == {
        ("a",), ("c",), ("e",)
    }
    assert cache.full_matches == 1  # only the seed was a full match
    assert cache.scope_rematches == 1
    assert cache.rows_added == 1
    cache.detach()


def test_root_level_splices_dirty_the_new_and_gone_scopes():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(
        document.root,
        element("shelf", element("book", element("tag", value("x")),
                                 element("title", value("f")))),
    )
    assert cache.rows().value_rows() == oracle_rows(document, query)
    document.remove_subtree(document.root.children[0])  # drops a and b
    assert cache.rows().value_rows() == oracle_rows(document, query) == {
        ("c",), ("f",)
    }
    assert cache.rows_retracted >= 1
    assert cache.full_matches == 1
    cache.detach()


def test_answer_screened_relevance_touch_is_still_a_row_hit():
    # A new call node defeats the guard (the engine must run) but not
    # the answer footprint (no row can have changed): the final match
    # is served from the cache untouched.
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    cache.rows()
    document.insert_subtree(document.root, call("getBooks", value("k")))
    assert not cache.is_current  # the engine may now have work
    before = cache.hits
    rows = cache.rows()
    assert cache.hits == before + 1
    assert cache.scope_rematches == 0
    assert rows.value_rows() == {("a",), ("c",)}
    cache.detach()


def test_multi_child_roots_fall_back_to_full_rematches():
    document = make_library()
    query = parse_pattern("/lib[box]/shelf/book/title/$T")
    assert len(query.root.children) > 1
    cache = AnswerCache(query, document)
    cache.rows()
    shelf = document.root.children[0]
    document.insert_subtree(
        shelf, element("book", element("title", value("g")))
    )
    assert cache.rows().value_rows() == oracle_rows(document, query)
    assert cache.full_matches == 2  # honest full re-match, still screened
    cache.detach()


def test_any_call_relevant_widens_the_guard():
    document = make_library()
    query = parse_pattern(QUERY)
    strict = AnswerCache(query, document, any_call_relevant=True)
    strict.rows()
    # The tag="y" book query would never look at this call's position,
    # but under NAIVE every call is invoked: the guard must not screen.
    document.insert_subtree(
        document.root.children[2], call("getAnything")
    )
    assert not strict.is_current
    assert strict.screens == 0
    strict.detach()


def test_removal_and_reinsertion_round_trips():
    document = make_library()
    query = parse_pattern(QUERY)
    cache = AnswerCache(query, document)
    baseline = cache.rows().value_rows()
    shelf = document.root.children[0]
    book = shelf.children[0]  # the tag=x/title=a book
    removed = document.remove_subtree(book)
    assert cache.rows().value_rows() == oracle_rows(document, query)
    document.insert_subtree(shelf, removed, position=0)
    assert cache.rows().value_rows() == oracle_rows(document, query)
    assert cache.rows().value_rows() == baseline
    cache.detach()
