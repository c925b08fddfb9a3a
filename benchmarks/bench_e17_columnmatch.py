"""E17 — column-native pattern matching: whole plans over arena columns.

E16's arena made candidate *enumeration* a column scan, but every
surviving candidate was still judged by the object-graph matcher.  The
column matcher (:mod:`repro.pattern.columnmatch`) compiles each pattern
into a slot-level plan and runs the entire match — boolean phase,
existence semijoins, enumeration — over the arena's int columns,
touching ``Node`` objects only for the final rows.  This experiment
holds the rewrite to its claims:

* **Throughput** (the headline): on the ``large-document`` regime the
  column-matched group pass must sustain >= 2x the E16 arena path's
  node-throughput at the full 1M-node size (>= 1.5x at smoke sizes,
  where fixed costs weigh more) — with *identical* rows per query,
  asserted before any timing, and the target of >= 8x over the plain
  object walk reported alongside.

* **Differential matrix**: across every factory regime and query, the
  column configurations (``arena+colmatch``, ``arena+shared+colmatch``)
  must reproduce the naive oracle's rows and the plain shared
  configuration's invocation log call site by call site — the column
  plan is an access path, never a semantics change.  Stand-downs (OR
  members, interior wildcards) surface as ``column_fallbacks`` and are
  answered by the object walk.

Tables land in ``BENCH_e17.json`` (with the harness's ``peak_rss_kb``
memory figure); headline assertions are re-checked against the emitted
file so a broken emitter fails the bench.

Set ``E17_N`` (default 1000000) to shrink the scale regime for smoke
runs — the >= 2x claim and the 1M-node floor only arm at full size.
"""

import os
import time

from bench_harness import print_table, read_bench_json, run_once
from repro.axml.index import LabelIndex
from repro.lazy.config import Strategy
from repro.pattern.match import MatchCounter, MatchSet
from repro.pattern.multimatch import PatternGroup
from repro.pattern.parse import parse_pattern
from repro.workloads.factory import REGIMES, regime

E17_N = int(os.environ.get("E17_N", "1000000"))
FULL_SIZE = E17_N >= 1_000_000  # the 1M-node / >=2x claims arm here
MIN_SPEEDUP = 2.0 if FULL_SIZE else 1.5  # colmatch over the arena walk
MATRIX_N = min(E17_N, 100_000)  # the differential matrix's scale cap

# Same query family as E16, so the two benches' arena baselines are
# comparable: a descendant spine with a variable leaf, a value test,
# and a function test (svc1 is a factory service name).
E17_QUERY_TEXTS = (
    "/root//alpha/beta/$x",
    '/root//gamma/"2"',
    "/root//svc1()",
)


def scale_workload():
    return regime("large-document", min_nodes=E17_N)


def row_keys(match_set):
    return sorted(MatchSet.row_key(row) for row in match_set)


# ---------------------------------------------------------------------------
# Headline: group-pass node-throughput, column plans vs the arena walk
# ---------------------------------------------------------------------------


def throughput_sweep():
    gen = scale_workload()
    document = gen.make_document(0)
    arena = document.arena
    assert arena is not None, "the scale regime builds on the arena path"
    nodes = arena.live_nodes
    index = LabelIndex(document, arena=arena)
    members = {
        text: parse_pattern(text, name=f"e17-{i}")
        for i, text in enumerate(E17_QUERY_TEXTS)
    }
    variants = (
        ("object-walk", dict()),
        ("arena", dict(index=index, arena=arena)),
        ("arena+colmatch", dict(index=index, arena=arena, column_match=True)),
    )
    rows = []
    reference = None
    timings = {}
    counters = {}
    for label, kwargs in variants:
        counter = MatchCounter()
        group = PatternGroup(members, counter=counter, **kwargs)
        started = time.perf_counter()
        result = group.evaluate(document)
        elapsed = time.perf_counter() - started
        keys = {text: row_keys(result.match_sets[text]) for text in members}
        if reference is None:
            reference = keys
        else:
            assert keys == reference, f"{label} changed the rows"
        timings[label] = elapsed
        counters[label] = counter
        rows.append(
            (
                label,
                nodes,
                len(members),
                sum(len(k) for k in keys.values()),
                round(elapsed, 3),
                round(nodes * len(members) / elapsed / 1000, 1),
                round(timings["object-walk"] / elapsed, 2),
                round(timings.get("arena", elapsed) / elapsed, 2),
            )
        )
    index.detach()
    # The column pass must have answered every member itself: rows came
    # out of slot space and nothing stood down.
    colmatch = counters["arena+colmatch"]
    assert colmatch.column_rows == rows[0][3], colmatch.column_rows
    assert colmatch.column_fallbacks == 0
    assert counters["arena"].column_rows == 0  # off stays off
    return rows


def test_e17_throughput(benchmark, capsys):
    rows = run_once(benchmark, throughput_sweep)
    with capsys.disabled():
        print_table(
            "E17: group-pass node-throughput — column plans vs arena walk"
            f" (large-document, N={E17_N})",
            [
                "variant",
                "nodes",
                "queries",
                "rows",
                "s",
                "knodes_per_s",
                "vs_object",
                "vs_arena",
            ],
            rows,
            note=(
                "identical rows per query asserted before timing; colmatch "
                f"must clear {MIN_SPEEDUP}x over the arena walk "
                "(>= 8x over the object walk is the full-size target)"
            ),
        )
    by_variant = {row[0]: row for row in rows}
    if FULL_SIZE:
        assert by_variant["arena+colmatch"][1] >= 1_000_000
    # Every variant returned the same number of rows (full equality is
    # asserted inside the sweep, per query).
    assert len({row[3] for row in rows}) == 1
    assert by_variant["arena+colmatch"][7] >= MIN_SPEEDUP, rows
    # The emitted file must carry the same verdict.
    data = read_bench_json("e17")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E17: group-pass")
    )
    emitted = {r[0]: r for r in table["rows"]}
    assert emitted["arena+colmatch"][7] >= MIN_SPEEDUP
    assert data["peak_rss_kb"] > 0


# ---------------------------------------------------------------------------
# Differential matrix: column configs vs oracle rows and pinned logs
# ---------------------------------------------------------------------------

COLUMN_CONFIGS = {
    "arena+colmatch": dict(
        strategy=Strategy.LAZY_NFQ, arena=True, column_match=True
    ),
    "arena+shared+colmatch": dict(
        strategy=Strategy.LAZY_NFQ,
        arena=True,
        shared_matching=True,
        column_match=True,
    ),
}


def matrix_workload(name):
    if name.startswith("large-document"):
        return regime(name, min_nodes=MATRIX_N)
    return regime(name)


def matrix_sweep():
    rows = []
    for name in REGIMES:
        gen = matrix_workload(name)
        total_rows = 0
        column_rows = 0
        column_fallbacks = 0
        started = time.perf_counter()
        for qi in range(gen.spec.n_queries):
            query = gen.query_for(qi)
            doc = gen.document_for_query(qi)
            reference = gen.oracle(query, doc).value_rows()
            total_rows += len(reference)
            base_out, base_log = gen.evaluate(
                query, doc, strategy=Strategy.LAZY_NFQ, shared_matching=True
            )
            assert base_out.value_rows() == reference, (name, qi, "shared")
            for label, kwargs in COLUMN_CONFIGS.items():
                out, log = gen.evaluate(query, doc, **kwargs)
                assert out.value_rows() == reference, (name, qi, label)
                assert log == base_log, (name, qi, label)
                column_rows += out.metrics.column_rows
                column_fallbacks += out.metrics.column_fallbacks
        elapsed_ms = (time.perf_counter() - started) * 1000
        rows.append(
            (
                name,
                gen.spec.n_queries,
                len(COLUMN_CONFIGS) + 2,  # + shared baseline + naive oracle
                total_rows,
                column_rows,
                column_fallbacks,
                round(elapsed_ms, 1),
            )
        )
    return rows


def test_e17_differential_matrix(benchmark, capsys):
    rows = run_once(benchmark, matrix_sweep)
    with capsys.disabled():
        print_table(
            "E17: column-match differential matrix — every regime, rows and"
            f" logs pinned (large N={MATRIX_N})",
            [
                "regime",
                "queries",
                "configs",
                "rows",
                "column_rows",
                "fallbacks",
                "ms",
            ],
            rows,
            note=(
                "column configs pinned to the naive oracle's rows AND the "
                "shared config's invocation log, call site by call site; "
                "fallbacks are the object walk answering stood-down shapes"
            ),
        )
    assert len(rows) >= 8, "the matrix must cover >= 8 named regimes"
    # The column path must actually engage across the matrix...
    assert sum(row[4] for row in rows) > 0, rows
    # ...and the stand-down path must be exercised somewhere too (OR
    # members / interior wildcards exist in the factory's query mix).
    assert sum(row[5] for row in rows) > 0, rows
    data = read_bench_json("e17")
    table = next(
        body
        for title, body in data["tables"].items()
        if title.startswith("E17: column-match differential")
    )
    assert len(table["rows"]) >= 8
