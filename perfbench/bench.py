"""The four benchmark workloads: inputs, timed loops and oracle gates.

Every input (documents, query texts, mutation steps) is generated from
the seed before any clock starts; the program receives only those
inputs, through its public entry points: ``LazyQueryEvaluator.evaluate``,
``QueryServer.subscribe``/``run_round`` and the ``Document`` mutation
methods.  A run times operations for a fixed number of seconds, then
runs the oracles outside the clock and counts every output that differs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import random
import resource
import statistics
import time
from collections import Counter
from typing import Callable, Optional

from repro.axml.builder import C, E, V
from repro.axml.document import Document
from repro.lazy.config import EngineConfig, Strategy
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.obs import InMemorySink, Tracer, phase_profile
from repro.pattern.parse import parse_pattern
from repro.serve import QueryServer, RefreshStatus
from repro.workloads.factory import GeneratedWorkload, regime

from hostspeed import HostSpeed
from probe import LayerProbe


ROOT = "root"  # the label of every factory document's root element
# The three queries the ``baseline`` regime samples at its own seed
# (1501) on a 20k-node document, as predicates on the document root.
# Fixed so that every seed runs the same query shapes: a sampled query
# can cost 100x another.
BULK_QUERY_TEXTS = tuple(
    f"/{ROOT}{predicates}"
    for predicates in ('[//delta[$X!]]', '["delta"!]', '[//"1"!]')
)
NESTED_QUERY_TEXTS = (
    f'/{ROOT}/epsilon[//epsilon/"2"][gamma]',
    f"/{ROOT}//epsilon[//alpha][alpha]",
)
# The 24 standing queries the ``bursty-tenants`` regime samples at its
# own seed (1507) on 2k-node documents, fixed for the same reason.
SERVE_QUERY_TEXTS = tuple(
    f"/{ROOT}{predicates}"
    for predicates in (
        '[//"3"!]', '[//"3"!]', '[alpha[delta!]]',
        '[//delta[$X!]]', '[beta[$X!]][beta]', '[alpha[//"3"!]]',
        '[//delta["1"!][gamma]][epsilon]', '[//alpha[beta!][beta]]',
        '[//alpha[//"delta"!]]', '[//"2"!]',
        '[epsilon[epsilon!][gamma]]', '[//epsilon[$X!]][epsilon]',
        '[epsilon!][epsilon]', '[delta[//"gamma"!]][epsilon]',
        '[delta[//alpha[$X!]][gamma]][alpha]', '[beta!]',
        '["alpha"!]', '[delta[delta!]]', '[//alpha["beta"!]][beta]',
        '[//epsilon[$X!]]', '[delta[beta[$X!]][beta]][delta]',
        '[delta[$X!]]', '[//alpha!][beta]', '[beta!]',
    )
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named workload: how to build its inputs and which configs run.

    ``overrides`` resize the factory regime; ``reference`` (bulk-columnar
    only) is the config whose invocation log the measured config must
    reproduce call site by call site.
    """

    name: str
    regime: str
    default_seed: int
    overrides: dict
    config: Callable[[], EngineConfig]
    query_texts: tuple[str, ...] = ()
    documents: int = 1
    reference: Optional[Callable[[], EngineConfig]] = None
    rounds: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk-splice",
            regime="baseline",
            default_seed=1501,
            # A wider argument pool than the regime's 6 keys: with 6, a
            # few shared reply forests set how far calls expand, and the
            # arena's sibling-relink work spread 13% between seeds even
            # at 64 keys; 512 keys bring it to 8% and still repeat keys
            # for the call cache.
            overrides={"min_nodes": 10_000, "argument_pool": 512},
            config=EngineConfig,
            query_texts=BULK_QUERY_TEXTS,
        ),
        Workload(
            name="bulk-columnar",
            regime="baseline",
            default_seed=1501,
            overrides={"min_nodes": 10_000, "argument_pool": 512},
            config=lambda: EngineConfig.serving(arena=True, column_match=True),
            query_texts=BULK_QUERY_TEXTS,
            reference=EngineConfig.serving,
        ),
        Workload(
            name="nested-nfqa",
            regime="wide-flat",
            default_seed=1503,
            # Small documents, many of them, and replies that carry no
            # further calls (``call_budget`` 1).  The serial loop's cost
            # grows with the cube of document size; with nested replies
            # one document costs 200x the next, and no set that fits in
            # a run averages that out from seed to seed.
            overrides={
                "min_nodes": 0, "root_subtrees": (3, 3), "call_budget": 1,
            },
            config=EngineConfig,
            query_texts=NESTED_QUERY_TEXTS,
            documents=300,
        ),
        Workload(
            name="serve-churn",
            regime="bursty-tenants",
            default_seed=1507,
            overrides={"min_nodes": 1_000, "n_tenants": 4},
            config=EngineConfig.serving,
            query_texts=SERVE_QUERY_TEXTS,
            documents=4,
            rounds=40,
        ),
    )
}


# -- measurements ---------------------------------------------------------


@dataclasses.dataclass
class RunLog:
    """Everything a run measured, before it is reduced to metrics."""

    setup_s: list = dataclasses.field(default_factory=list)
    op_s: list = dataclasses.field(default_factory=list)
    op_ref: list = dataclasses.field(default_factory=list)
    op_wall_s: list = dataclasses.field(default_factory=list)
    refresh_s: list = dataclasses.field(default_factory=list)
    update_s: list = dataclasses.field(default_factory=list)
    set_counts: list = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced_s: list = dataclasses.field(default_factory=list)
    untraced_s: list = dataclasses.field(default_factory=list)
    layers: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log_of(bus) -> tuple:
    return tuple(
        (r.service_name, r.call_node_id, r.fault is None) for r in bus.log.records
    )


class _TracedSet:
    """One traced set: a fresh tracer, the probe installed while open."""

    def __init__(self, probe: LayerProbe) -> None:
        self.probe = probe
        self.sink = InMemorySink()
        self.bus = None
        self.tracer = Tracer(
            self.sink,
            sim_clock=lambda: self.bus.clock_s if self.bus is not None else 0.0,
        )

    def config(self, config: EngineConfig) -> EngineConfig:
        return dataclasses.replace(config, trace=self.tracer)

    def __enter__(self) -> "_TracedSet":
        self.probe.reset()
        self.probe.tracer = self.tracer
        self._installed = self.probe.installed()
        self._installed.__enter__()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._installed.__exit__(*exc)
        self.probe.tracer = None
        return False


def _done(log: RunLog, traced: bool, set_started: float, deadline: float) -> bool:
    """Stop when another set like the last would end past the deadline
    (a traced run needs at least one traced and one untraced set)."""
    if traced and not (log.traced_s and log.untraced_s):
        return False
    now = time.perf_counter()
    return now + (now - set_started) > deadline


# -- one-shot workloads ----------------------------------------------------


@dataclasses.dataclass
class OneShotInputs:
    generator: GeneratedWorkload
    queries: list
    documents: list


def oneshot_inputs(
    workload: Workload, seed: int, documents: Optional[int] = None, **resize
) -> OneShotInputs:
    """``documents`` and ``resize`` shrink the inputs (tests run small
    ones)."""
    generator = regime(
        workload.regime, seed=seed, **dict(workload.overrides, **resize)
    )
    queries = [
        parse_pattern(text, name=f"{workload.name}-q{i}")
        for i, text in enumerate(workload.query_texts)
    ]
    count = workload.documents if documents is None else documents
    return OneShotInputs(
        generator, queries, [generator.make_document(i) for i in range(count)]
    )


def _evaluate_pair(inputs, config, query_index, document_index):
    bus = inputs.generator.make_bus()
    engine = LazyQueryEvaluator(bus, config=config)
    return engine.evaluate(
        inputs.queries[query_index], inputs.documents[document_index].copy()
    ), bus


def run_oneshot(workload, inputs, seconds, traced, log: RunLog) -> None:
    """Time query sets until ``seconds`` pass, then gate on the oracles.

    One operation is every query text evaluated on its own fresh twin of
    one document; one set is an operation per document.
    """
    outputs: dict = {}
    probe = LayerProbe() if traced else None
    speed = HostSpeed()
    with contextlib.nullcontext() if traced else speed:
        _time_oneshot(workload, inputs, seconds, traced, log, probe, speed, outputs)
    log.peak_rss_mb = peak_rss_mb()
    _gate_oneshot(workload, inputs, outputs, log)


def _time_oneshot(workload, inputs, seconds, traced, log, probe, speed, outputs):
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        set_started = time.perf_counter()
        tracing = traced and index % 2 == 1
        scope = _TracedSet(probe) if tracing else None
        config = workload.config()
        if scope is not None:
            config = scope.config(config)
        counts = Counter()
        set_wall = 0.0
        with scope or contextlib.nullcontext():
            for d, pristine in enumerate(inputs.documents):
                gc.collect()
                token = speed.begin()
                prepared = []
                for q in range(len(inputs.queries)):
                    bus = inputs.generator.make_bus()
                    engine = LazyQueryEvaluator(bus, config=config)
                    prepared.append((q, bus, engine, pristine.copy()))
                log.setup_s.append(speed.end(token)[0])
                gc.collect()
                op_wall = op_cpu = op_ref = 0.0
                for q, bus, engine, document in prepared:
                    if scope is not None:
                        scope.bus = bus
                    started, token = time.perf_counter(), speed.begin()
                    try:
                        outcome = engine.evaluate(inputs.queries[q], document)
                    except Exception as error:  # a raising evaluation fails
                        outcome = repr(error)
                    cpu, reference = speed.end(token)
                    op_wall += time.perf_counter() - started
                    op_cpu += cpu
                    if reference is not None:
                        op_ref += cpu / reference
                    log.attempted += 1
                    if isinstance(outcome, str):
                        outputs.setdefault((q, d), []).append(outcome)
                        continue
                    outputs.setdefault((q, d), []).append(
                        (frozenset(outcome.value_rows()), _log_of(bus))
                    )
                    metrics = outcome.metrics
                    counts.update(
                        calls=metrics.calls_invoked,
                        rounds=metrics.invocation_rounds,
                        relevance_evaluations=metrics.relevance_evaluations,
                        splices=document.version,
                        service_us=round(bus.clock_s * 1e6),
                    )
                if not tracing:
                    _log_op(log, op_cpu, op_wall, op_ref, speed)
                set_wall += op_wall
        log.set_counts.append(dict(counts))
        if traced:
            (log.traced_s if tracing else log.untraced_s).append(set_wall)
        if tracing:
            log.layers.append(_layer_record(scope, set_wall))
        index += 1
        if _done(log, traced, set_started, deadline):
            break


def _log_op(log: RunLog, cpu: float, wall: float, ref: float, speed) -> None:
    """``ref`` is the operation's cost in reference tasks, meaningful
    only while the host-speed sampler runs (untraced runs)."""
    log.op_s.append(cpu)
    log.op_wall_s.append(wall)
    if speed.samples:
        log.op_ref.append(ref)


def _gate_oneshot(workload, inputs, outputs, log: RunLog) -> None:
    """Rows against the naive engine; bulk-columnar's log against the
    same serving config without the arena and column plans."""
    for (q, d), results in outputs.items():
        oracle, _ = _evaluate_pair(
            inputs, EngineConfig(strategy=Strategy.NAIVE), q, d
        )
        expected_rows = frozenset(oracle.value_rows())
        expected_log = None
        if workload.reference is not None:
            _, bus = _evaluate_pair(inputs, workload.reference(), q, d)
            expected_log = _log_of(bus)
        first_log = None
        for result in results:
            if isinstance(result, str):
                log.failed += 1  # the evaluation raised
                continue
            rows, call_log = result
            first_log = call_log if first_log is None else first_log
            wrong = rows != expected_rows or call_log != first_log
            if expected_log is not None and call_log != expected_log:
                wrong = True
            log.failed += wrong


# -- serve-churn ----------------------------------------------------------


@dataclasses.dataclass
class ServeInputs:
    generator: GeneratedWorkload
    queries: list
    tenants: list
    document_of: list
    documents: list
    plan: list
    """Per round: ``(document index, op, target node id, subtree)``."""


def serve_inputs(
    workload: Workload, seed: int, rounds: Optional[int] = None, **resize
) -> ServeInputs:
    """The corpus (documents, services, queries) is the regime's own, at
    its default seed; ``seed`` draws the updates.  ``rounds`` and
    ``resize`` shrink the inputs (tests run small ones)."""
    n_queries = len(workload.query_texts)
    corpus = regime(
        workload.regime,
        seed=workload.default_seed,
        n_documents=workload.documents,
        n_queries=n_queries,
        **dict(workload.overrides, **resize),
    )
    documents = [corpus.make_document(i) for i in range(workload.documents)]
    return ServeInputs(
        generator=corpus,
        queries=[
            parse_pattern(text, name=f"sub-{i}")
            for i, text in enumerate(workload.query_texts)
        ],
        tenants=[corpus.tenant_for(i) for i in range(n_queries)],
        document_of=[corpus.document_for_query(i) for i in range(n_queries)],
        documents=documents,
        plan=churn_plan(
            seed, corpus, documents, workload.rounds if rounds is None else rounds
        ),
    )


CHURN_KINDS = ("insert", "insert-call", "insert", "remove")


def churn_plan(seed: int, generator: GeneratedWorkload, documents, rounds: int):
    """Seeded document updates: every round applies every kind in
    ``CHURN_KINDS`` to every document, in a seeded order at seeded
    places, so each round carries the same mix.  A round's cost is then
    a sum over four call insertions (each costs the server an
    evaluation), which keeps rounds and whole plans close in cost from
    seed to seed.

    Targets are named by node id among the original element nodes,
    which evaluation never removes or renumbers, so the same step
    applies to the served document, its oracle twin and any later run,
    whatever calls were invoked in between.  A twin without evaluation
    tracks which originals earlier removals took away.
    """
    alphabet = generator.spec.alphabet
    twins = [document.copy() for document in documents]
    originals = [
        [n.node_id for n in twin.root.iter_subtree() if n.is_element]
        for twin in twins
    ]
    plan = []
    for round_index in range(rounds):
        rng = random.Random(f"{seed}|churn|{round_index}")
        steps = []
        for doc, twin in enumerate(twins):
            for k, kind in enumerate(rng.sample(CHURN_KINDS, len(CHURN_KINDS))):
                while True:
                    node_id = rng.choice(originals[doc])
                    try:
                        node = twin.node(node_id)
                    except KeyError:
                        continue  # removed by an earlier step
                    if kind != "remove" or node is not twin.root:
                        break
                if kind == "remove":
                    twin.remove_subtree(node)
                    steps.append((doc, "remove", node_id, None))
                    continue
                salt = f"churn-{seed}-{round_index}-{doc}-{k}"
                if kind == "insert-call":
                    subtree = C(
                        rng.choice(generator.service_names), V(f"1:{salt}")
                    )
                else:
                    subtree = E(
                        rng.choice(alphabet),
                        E(rng.choice(alphabet), V(rng.choice(("1", "2", "3")))),
                        V(rng.choice(alphabet)),
                    )
                twin.insert_subtree(node, subtree.clone())
                steps.append((doc, "insert", node_id, subtree))
        plan.append(steps)
    return plan


def _apply(document: Document, op: str, node_id: int, subtree) -> None:
    node = document.node(node_id)
    if op == "remove":
        document.remove_subtree(node)
    else:
        document.insert_subtree(node, subtree)


def run_serve(workload, inputs: ServeInputs, seconds, traced, log: RunLog) -> None:
    """Serve sessions (set-up, then every round of the churn plan) until
    ``seconds`` pass, then replay the plan on independent loops."""
    probe = LayerProbe() if traced else None
    speed = HostSpeed()
    sessions = []
    with contextlib.nullcontext() if traced else speed:
        _time_serve(workload, inputs, seconds, traced, log, probe, speed, sessions)
    log.peak_rss_mb = peak_rss_mb()
    _gate_serve(workload, inputs, sessions, log)


def _time_serve(workload, inputs, seconds, traced, log, probe, speed, sessions):
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        set_started = time.perf_counter()
        tracing = traced and index % 2 == 1
        scope = _TracedSet(probe) if tracing else None
        config = workload.config()
        if scope is not None:
            config = scope.config(config)
        with scope or contextlib.nullcontext():
            session = _serve_session(inputs, config, scope, tracing, log, speed)
        sessions.append(session)
        log.set_counts.append(session["counts"])
        if traced:
            (log.traced_s if tracing else log.untraced_s).append(session["wall"])
        if tracing:
            record = _layer_record(scope, session["wall"])
            record.update(session["layer"])
            log.layers.append(record)
        index += 1
        if _done(log, traced, set_started, deadline):
            break


def _serve_session(inputs: ServeInputs, config, scope, tracing, log: RunLog, speed):
    gc.collect()
    started, token = time.perf_counter(), speed.begin()
    documents = [document.copy() for document in inputs.documents]
    bus = inputs.generator.make_bus()
    if scope is not None:
        scope.bus = bus
    server = QueryServer(bus, config=config)
    subs = [
        server.subscribe(
            query, documents[doc], tenant=tenant, name=f"sub-{i}"
        )
        for i, (query, tenant, doc) in enumerate(
            zip(inputs.queries, inputs.tenants, inputs.document_of)
        )
    ]
    setup = time.perf_counter() - started
    if not tracing:
        log.setup_s.append(speed.end(token)[0])
    statuses = Counter()
    checkpoints = []
    wall = setup  # traced spans cover subscribing too
    updates = []
    for steps in inputs.plan:
        prepared = [(documents[d], op, n, t and t.clone()) for d, op, n, t in steps]
        gc.collect()
        started, token = time.perf_counter(), speed.begin()
        for document, op, node_id, subtree in prepared:
            update_started = time.perf_counter()
            _apply(document, op, node_id, subtree)
            updates.append(time.perf_counter() - update_started)
        report = server.run_round()
        op_cpu, reference = speed.end(token)
        op_wall = time.perf_counter() - started
        wall += op_wall
        for outcome in report.outcomes:
            statuses[outcome.status.value] += 1
            if outcome.latency_s is not None and not tracing:
                log.refresh_s.append(outcome.latency_s)
        if not tracing:
            _log_op(log, op_cpu, op_wall, reference and op_cpu / reference, speed)
        log.attempted += len(subs)
        checkpoints.append([sub.rows for sub in subs])
    if not tracing:
        log.update_s.extend(updates)
    counts = dict(statuses)
    counts.update(
        calls=len(bus.log.records),
        service_us=round(bus.clock_s * 1e6),
        splices=sum(document.version for document in documents),
    )
    served = sum(statuses[s.value] for s in RefreshStatus
                 if s is not RefreshStatus.DEFERRED)
    fast = statuses["maintained"] + statuses["skipped"]
    layer = {
        "serve.fast_path_ratio": fast / served if served else 0.0,
        "services.cache.hit_ratio": _hit_ratio(bus),
    }
    session = {
        "counts": counts,
        "wall": wall,
        "checkpoints": checkpoints,
        "log": _log_of(bus),
        "layer": layer,
    }
    server.close()
    return session


def _hit_ratio(bus) -> float:
    hits = bus.cache.hits if bus.cache is not None else 0
    attempts = hits + len(bus.log.records)
    return hits / attempts if attempts else 0.0


def _gate_serve(workload, inputs: ServeInputs, sessions, log: RunLog) -> None:
    """Independent ``ContinuousQuery`` loops on twin documents, refreshed
    in the server's order (first due, first served), pin every
    subscriber's rows at every round and the cumulative invocation log."""
    documents = [document.copy() for document in inputs.documents]
    bus = inputs.generator.make_bus()
    engine = LazyQueryEvaluator(bus, config=workload.config())
    loops = [
        ContinuousQuery(engine, query, documents[doc])
        for query, doc in zip(inputs.queries, inputs.document_of)
    ]
    due_order: dict[int, int] = {}
    sequence = 0
    expected = []
    for steps in inputs.plan:
        for d, op, node_id, subtree in steps:
            _apply(documents[d], op, node_id, subtree and subtree.clone())
        for i, loop in enumerate(loops):
            if loop.is_stale and i not in due_order:
                due_order[i] = sequence
                sequence += 1
        for i in sorted(due_order, key=due_order.get):
            loops[i].refresh()
        due_order.clear()
        expected.append([frozenset(loop.peek().value_rows()) for loop in loops])
    expected_log = _log_of(bus)
    for loop in loops:
        loop.close()
    for session in sessions:
        for got, want in zip(session["checkpoints"], expected):
            log.failed += sum(g != w for g, w in zip(got, want))
        if session["log"] != expected_log:
            log.failed += 1


# -- reduction ------------------------------------------------------------

SPAN_METRICS = {
    "relevance_check": "lazy.engine.relevance_s",
    "invocation": "lazy.engine.invocation_s",
    "final_match": "lazy.engine.final_match_s",
    "round": "lazy.engine.round_s",
    "satisfiability": "lazy.engine.satisfiability_s",
    "group_pass": "lazy.engine.group_pass_s",
    "column_pass": "lazy.engine.column_pass_s",
    "batch": "lazy.engine.batch_s",
    "answer_maint": "lazy.engine.answer_maint_s",
    "evaluate": "lazy.engine.evaluate_s",
    "serve_round": "serve.server.round_self_s",
    "serve_refresh": "serve.server.refresh_self_s",
    "axml.arena.splice": "axml.arena.splice_s",
    "axml.index.splice": "axml.index.splice_s",
    "lazy.incremental.splice": "lazy.incremental.splice_s",
    "lazy.answers.splice": "lazy.answers.splice_s",
}


def _layer_record(scope: _TracedSet, wall: float) -> dict:
    """Per-layer numbers of one traced set."""
    probe = scope.probe
    profile = phase_profile(scope.sink.roots)
    record = {metric: 0.0 for metric in SPAN_METRICS.values()}
    attributed = 0.0
    for name, stats in profile.items():
        attributed += stats.wall_s
        if name in SPAN_METRICS:
            record[SPAN_METRICS[name]] += stats.wall_s
    m = probe.metrics
    seconds, calls = probe.seconds, probe.calls
    column_attempts = calls["pattern.columnmatch.run"] + m["column_fallbacks"]
    rel_lookups = m["relevance_cache_hits"] + m["queries_reevaluated"]
    record.update({
        "axml.document.splices": calls["axml.document.splice"],
        "axml.document.splice_s": seconds["axml.document.splice"],
        "axml.arena.bytes": probe.arena_bytes,
        "lazy.engine.rounds": m["invocation_rounds"],
        "lazy.engine.relevance_evaluations": m["relevance_evaluations"],
        "lazy.relevance.queries_built": m["relevance_queries_built"],
        "pattern.match.evaluate_s": seconds["pattern.match.evaluate"],
        "pattern.match.calls": calls["pattern.match.evaluate"],
        "pattern.match.candidates_visited": m["match_candidates_visited"],
        "pattern.match.can_checks": m["match_can_checks"],
        "pattern.multimatch.evaluate_s": seconds["pattern.multimatch.evaluate"],
        "pattern.multimatch.passes": calls["pattern.multimatch.evaluate"],
        "pattern.multimatch.nodes_visited": probe.group_nodes_visited,
        "pattern.multimatch.projection_skipped": probe.group_skipped_subtrees,
        "pattern.columnmatch.run_s": seconds["pattern.columnmatch.run"],
        "pattern.columnmatch.pass_nodes": m["column_pass_nodes"],
        "pattern.columnmatch.fallback_ratio": (
            m["column_fallbacks"] / column_attempts if column_attempts else 0.0
        ),
        "services.bus.invoke_s": seconds["services.bus.invoke"],
        "services.bus.calls": m["calls_invoked"],
        "services.bus.faults": m["faults"],
        "services.cache.hit_ratio": (
            m["cache_hits"] / m["calls_invoked"] if m["calls_invoked"] else 0.0
        ),
        "lazy.incremental.hit_ratio": (
            m["relevance_cache_hits"] / rel_lookups if rel_lookups else 0.0
        ),
        "lazy.answers.hits": probe.answer_counter("hits"),
        "lazy.answers.scope_rematches": probe.answer_counter("scope_rematches"),
        "lazy.continuous.refresh_s": seconds["lazy.continuous.refresh"],
        "lazy.continuous.refreshes": calls["lazy.continuous.refresh"],
        "lazy.continuous.serve_maintained_s": (
            seconds["lazy.continuous.serve_maintained"]
        ),
        "serve.server.run_round_s": seconds["serve.server.run_round"],
        "serve.server.subscribe_s": seconds["serve.server.subscribe"],
        "serve.fast_path_ratio": 0.0,
        "trace.unattributed_share": 1.0 - attributed / wall if wall else 0.0,
    })
    return record


PER_LAYER = (
    "axml.arena.bytes",
    "axml.arena.splice_s",
    "axml.document.splice_s",
    "axml.document.splices",
    "axml.index.splice_s",
    "lazy.answers.hits",
    "lazy.answers.scope_rematches",
    "lazy.answers.splice_s",
    "lazy.continuous.refresh_s",
    "lazy.continuous.refreshes",
    "lazy.continuous.serve_maintained_s",
    "lazy.engine.answer_maint_s",
    "lazy.engine.batch_s",
    "lazy.engine.column_pass_s",
    "lazy.engine.evaluate_s",
    "lazy.engine.final_match_s",
    "lazy.engine.group_pass_s",
    "lazy.engine.invocation_s",
    "lazy.engine.relevance_evaluations",
    "lazy.engine.relevance_s",
    "lazy.engine.round_s",
    "lazy.engine.rounds",
    "lazy.engine.satisfiability_s",
    "lazy.incremental.hit_ratio",
    "lazy.incremental.splice_s",
    "lazy.relevance.queries_built",
    "op.cpu_s_p50",
    "op.wall_s_p50",
    "pattern.columnmatch.fallback_ratio",
    "pattern.columnmatch.pass_nodes",
    "pattern.columnmatch.run_s",
    "pattern.match.calls",
    "pattern.match.can_checks",
    "pattern.match.candidates_visited",
    "pattern.match.evaluate_s",
    "pattern.multimatch.evaluate_s",
    "pattern.multimatch.nodes_visited",
    "pattern.multimatch.passes",
    "pattern.multimatch.projection_skipped",
    "serve.fast_path_ratio",
    "serve.refresh_s_p50",
    "serve.refresh_s_p99",
    "serve.server.refresh_self_s",
    "serve.server.round_self_s",
    "serve.server.run_round_s",
    "serve.server.subscribe_s",
    "serve.status.deferred",
    "serve.status.evaluated",
    "serve.status.maintained",
    "serve.status.skipped",
    "serve.update_s_p50",
    "serve.update_s_p90",
    "services.bus.calls",
    "services.bus.faults",
    "services.bus.invoke_s",
    "services.bus.service_s",
    "services.cache.hit_ratio",
    "trace.overhead_ratio",
    "trace.unattributed_share",
)

# A run times 4 to 8 operations on the bulk workloads, so no
# percentile above the median has ten samples beyond it.  ``op_ref``
# is in reference tasks (see ``hostspeed``).
END_TO_END = (
    ("setup_s", "s"),
    ("op_ref_p50", "ref"),
    ("peak_rss_mb", "MB"),
)

STATUS_METRICS = ("evaluated", "maintained", "skipped", "deferred")


def end_to_end(log: RunLog) -> dict:
    values = {
        "setup_s": statistics.median(log.setup_s),
        "op_ref_p50": statistics.median(log.op_ref),
        "peak_rss_mb": log.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(log: RunLog) -> dict:
    """Traced-set means (times, unscaled) and first-set values (counts);
    metrics of layers a workload does not load read 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    first = log.layers[0]
    for name in first:
        samples = [record[name] for record in log.layers]
        values[name] = (
            statistics.fmean(samples) if isinstance(first[name], float)
            else first[name]
        )
    counts = log.set_counts[0]
    values["services.bus.service_s"] = counts["service_us"] / 1e6
    for status in STATUS_METRICS:
        values[f"serve.status.{status}"] = counts.get(status, 0)
    for name, samples, q in (
        ("serve.update_s_p50", log.update_s, 50),
        ("serve.update_s_p90", log.update_s, 90),
        ("serve.refresh_s_p50", log.refresh_s, 50),
        ("serve.refresh_s_p99", log.refresh_s, 99),
        ("op.wall_s_p50", log.op_wall_s, 50),
        ("op.cpu_s_p50", log.op_s, 50),
    ):
        values[name] = percentile(samples, q) if samples else 0.0
    values["trace.overhead_ratio"] = (
        statistics.median(log.traced_s) / statistics.median(log.untraced_s)
    )
    return {name: {"value": values[name], "unit": unit_of(name)}
            for name in PER_LAYER}


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s_p" in name:
        return "s"
    if name.endswith("ratio") or name.endswith("share"):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run(workload_name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One benchmark run: the result object ``run.py`` prints."""
    workload = WORKLOADS[workload_name]
    log = RunLog()
    if workload.regime == "bursty-tenants":
        run_serve(workload, serve_inputs(workload, seed), seconds, traced, log)
    else:
        run_oneshot(workload, oneshot_inputs(workload, seed), seconds, traced, log)
    deterministic = all(c == log.set_counts[0] for c in log.set_counts)
    log.failed += not deterministic
    return {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": per_layer(log) if traced else end_to_end(log),
        "counts": log.set_counts[0],
        "layers": log.layers,
    }
