"""The lazy query evaluator — the NFQA algorithm and its refinements.

Ties everything together (Sections 3-7):

1. build the relevance queries for the user query — LPQs (Section 3.1)
   or (refined) NFQs (Sections 3.2 / 5);
2. analyse their mutual influence (Proposition 3), split them into
   totally ordered layers (Section 4.3) and precompute per-query
   independence (condition (*), Section 4.4);
3. run the NFQA loop per layer: evaluate the layer's relevance queries
   — on the document, or on the F-guide with residual filtering
   (Section 6.2) — and invoke the retrieved calls, one at a time or as a
   parallel round when independence allows; repeat until the layer goes
   quiet, then simplify the remaining NFQs (drop the finished layer's
   function alternatives);
4. optionally push subqueries over the invoked calls (Section 7),
   splicing filtered forests or recording bindings in the overlay;
5. finally evaluate the (now complete) document conventionally and
   return the full result with a metrics record.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from typing import Optional

from ..axml.arena import DocumentArena
from ..axml.document import Document
from ..axml.index import LabelIndex
from ..axml.node import Activation, Node
from ..axml.paths import call_position
from ..obs.trace import (
    ANSWER_MAINT,
    COLUMN_PASS,
    EVALUATE,
    FINAL_MATCH,
    GROUP_PASS,
    INVOCATION,
    LAYER,
    PUSH,
    RELEVANCE_CHECK,
    ROUND,
    SATISFIABILITY,
    AnyTracer,
    tracer_for,
)
from ..schema import automata
from ..pattern.match import Matcher, MatchCounter, MatchOptions, MatchSet
from ..pattern.multimatch import PatternGroup
from ..pattern.nodes import EdgeKind, PatternNode
from ..pattern.pattern import TreePattern
from ..schema.graphschema import LenientSatisfiability
from ..schema.satisfiability import ExactSatisfiability, SatisfiabilityOracle
from ..schema.schema import Schema, SchemaError
from ..services.registry import ServiceBus, ServiceCall
from ..services.resilience import InvocationPolicy, ResilientOutcome
from ..services.scheduler import CallCache, SchedulerPolicy
from ..services.service import PushMode
from .answers import AnswerCache
from .config import EngineConfig, FaultPolicy, Strategy, TypingMode
from .fguide import FGuide
from .incremental import RelevanceCache
from .layers import Layer, compute_layers
from .metrics import Metrics, RoundRecord
from .naive import naive_fixpoint
from .pushing import BindingsOverlay, PushedSubquery, pushed_subquery_for
from .relevance import NFQBuilder, RelevanceQuery, build_relevance_family


class EvaluationOutcome:
    """Full result of a query plus the work it took."""

    def __init__(
        self,
        query: TreePattern,
        document: Document,
        rows: MatchSet,
        metrics: Metrics,
        rounds: list[RoundRecord],
        overlay: Optional[BindingsOverlay],
    ) -> None:
        self.query = query
        self.document = document
        self.rows = rows
        self.metrics = metrics
        self.rounds = rounds
        self.overlay = overlay

    def value_rows(self) -> set[tuple[str, ...]]:
        """Result rows as tuples of labels/values (order-insensitive)."""
        return self.rows.value_rows()

    def to_xml(self) -> str:
        """Serialise the full result as an XML tuple list.

        Each row becomes a ``<tuple>``; element result nodes are
        serialised with their subtree, value results are wrapped in
        ``<value>`` elements (matching the Section 7 reply shape).
        """
        from ..axml.node import element, value
        from ..axml.xmlio import serialize

        results = element("results")
        for row in self.rows:
            row_element = element("tuple")
            for node in row.nodes:
                if node.is_value:
                    row_element.append(element("value", value(node.label)))
                else:
                    row_element.append(node.clone())
            results.append(row_element)
        return serialize(results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EvaluationOutcome({len(self.rows)} rows, {self.metrics.summary()})"


class LazyQueryEvaluator:
    """Evaluates tree-pattern queries over AXML documents, lazily.

    Args:
        bus: the service bus resolving and accounting invocations.
        schema: element content models (service signatures registered on
            the bus are merged in automatically for the typed modes).
        config: strategy and tunables; defaults to layered parallel NFQA.
        match_options: embedding semantics knobs.
    """

    def __init__(
        self,
        bus: ServiceBus,
        schema: Optional[Schema] = None,
        config: Optional[EngineConfig] = None,
        match_options: Optional[MatchOptions] = None,
    ) -> None:
        self.bus = bus
        self.schema = schema
        self.config = config or EngineConfig()
        if (
            match_options is not None
            and self.config.match_options is not None
            and match_options != self.config.match_options
        ):
            # Mirrors the facade's strategy-conflict check: two sources
            # of embedding semantics must agree, not silently race.
            raise ValueError(
                "conflicting match options: match_options="
                f"{match_options!r} but config.match_options="
                f"{self.config.match_options!r} — pass one or the other"
            )
        self.match_options = (
            match_options or self.config.match_options or MatchOptions()
        )

    # -- public API ------------------------------------------------------------

    def evaluate(
        self,
        query: TreePattern,
        document: Document,
        answer_cache: Optional[AnswerCache] = None,
    ) -> EvaluationOutcome:
        """Compute the *full result* of ``query`` over ``document``.

        The document is mutated in place (calls are invoked and replaced
        by their results); copy it first if you need the original.

        ``answer_cache`` (attached by
        :class:`~repro.lazy.continuous.ContinuousQuery` under
        ``maintain_answers``) replaces the final full match with
        dirty-subtree re-matching over the maintained rows; it must be
        pinned to exactly this query and document.
        """
        tracer = tracer_for(
            self.config.trace, sim_clock=lambda: self.bus.clock_s
        )
        if answer_cache is not None and (
            answer_cache.query is not query
            or answer_cache.document is not document
        ):
            raise ValueError(
                "answer_cache is pinned to a different query or document"
            )
        if self.config.call_cache and self.bus.cache is None:
            # Cache state lives on the bus (like breaker state), so it
            # persists across evaluations sharing a ServiceBus.
            self.bus.cache = CallCache(ttl_s=self.config.call_cache_ttl_s)
        state = _EvaluationState(
            self, query, document, tracer, answer_cache=answer_cache
        )
        started = time.perf_counter()
        try:
            with tracer.span(
                EVALUATE,
                strategy=self.config.label,
                query=query.to_string(),
            ):
                if self.config.strategy is Strategy.NAIVE:
                    state.run_naive()
                else:
                    state.run_lazy()
                with tracer.span(FINAL_MATCH):
                    rows = state.final_evaluation()
        finally:
            state.teardown()
        state.metrics.analysis_wall_s = time.perf_counter() - started
        state.finalize_metrics(rows)
        return EvaluationOutcome(
            query=query,
            document=document,
            rows=rows,
            metrics=state.metrics,
            rounds=state.rounds,
            overlay=state.overlay,
        )


@dataclasses.dataclass
class _PreparedCall:
    """A call's bus-facing request, computed before dispatch.

    Splitting preparation (push computation, input validation) from
    absorption (document splice, metrics) lets a whole round's requests
    be built first and dispatched as one concurrent batch."""

    service_call: ServiceCall
    pushed: Optional[PushedSubquery]
    push_mode: PushMode
    parent: Optional[Node]


class _EvaluationState:
    """Per-evaluation mutable state (one evaluate() call)."""

    def __init__(
        self,
        evaluator: LazyQueryEvaluator,
        query: TreePattern,
        document: Document,
        tracer: AnyTracer,
        answer_cache: Optional[AnswerCache] = None,
    ) -> None:
        self.evaluator = evaluator
        self.config = evaluator.config
        self.bus = evaluator.bus
        self.query = query
        self.document = document
        self.tracer = tracer

        self.metrics = Metrics(strategy=self.config.label)
        self.rounds: list[RoundRecord] = []
        self.match_counter = MatchCounter()
        self.invocations = 0
        self._log_start = len(self.bus.log.records)

        self.overlay: Optional[BindingsOverlay] = (
            BindingsOverlay()
            if self.config.push_mode is PushMode.BINDINGS
            else None
        )
        self.fguide: Optional[FGuide] = None
        self.arena: Optional[DocumentArena] = None
        self._arena_owned = False
        if self.config.arena and self.config.strategy is not Strategy.NAIVE:
            # Reuse an arena already mirroring this document (the
            # workload factory attaches one at build time); otherwise
            # build our own and detach it at teardown.
            attached = getattr(document, "arena", None)
            if (
                isinstance(attached, DocumentArena)
                and attached.document is document
                and attached.slot_for(document.root) is not None
            ):
                self.arena = attached
            else:
                self.arena = DocumentArena(document)
                self._arena_owned = True
        self.index: Optional[LabelIndex] = None
        self.rcache: Optional[RelevanceCache] = None
        if (
            self.config.incremental
            and self.config.strategy is not Strategy.NAIVE
            and self.overlay is None
        ):
            # Overlay rows change match results without any document
            # event, so memoized relevance sets would go stale silently
            # — incremental mode stays off under pushed bindings.
            self.index = LabelIndex(document, arena=self.arena)
            self.rcache = RelevanceCache(document)
        self.answer_cache: Optional[AnswerCache] = None
        self._answer_counters: dict[str, int] = {}
        self._maintained_rows = 0
        if (
            answer_cache is not None
            and self.config.maintain_answers
            and self.overlay is None
        ):
            # Overlay rows change match results without document events
            # (same argument as for the relevance cache), so maintained
            # answers stay off under pushed bindings.
            self.answer_cache = answer_cache
            self._answer_counters = answer_cache.counters()
        self._shared_index: Optional[LabelIndex] = None
        if (
            self.config.shared_matching
            and self.config.strategy is not Strategy.NAIVE
            and self.overlay is None
            and self.index is None
        ):
            # The group pass keeps a label index of its own (projection
            # sources + descendant steps) when incremental mode did not
            # already build one.
            self._shared_index = LabelIndex(document, arena=self.arena)
        self._group: Optional[PatternGroup] = None
        self._group_key: Optional[tuple] = None
        self._matchers: dict[int, Matcher] = {}
        self._nodes_by_uid = {n.uid: n for n in query.nodes()}
        self._pushed_cache: dict[int, PushedSubquery] = {}
        self._schema = self.bus.registry.schema_with_signatures(
            base=evaluator.schema
        )
        self._builder: Optional[NFQBuilder] = None
        self._queries_by_target: dict[int, RelevanceQuery] = {}
        self._completed_targets: set[int] = set()
        self._position_nfas: dict[int, automata.NFA] = {}

    # -- lifecycle ---------------------------------------------------------------

    def teardown(self) -> None:
        if self.fguide is not None:
            self.fguide.detach()
            self.fguide = None
        if self.rcache is not None:
            self.rcache.detach()
        if self.index is not None:
            self.index.detach()
        if self._shared_index is not None:
            self._shared_index.detach()
        if self.arena is not None and self._arena_owned:
            self.arena.detach()

    def finalize_metrics(self, rows: MatchSet) -> None:
        metrics = self.metrics
        metrics.result_rows = len(rows)
        metrics.final_document_nodes = self.document.stats().total_nodes
        metrics.match_can_checks = self.match_counter.can_checks
        metrics.match_candidates_visited = self.match_counter.candidates_visited
        metrics.index_candidates = self.match_counter.index_candidates
        metrics.column_pass_nodes = self.match_counter.column_pass_nodes
        metrics.column_rows = self.match_counter.column_rows
        metrics.column_fallbacks = self.match_counter.column_fallbacks
        if self.arena is not None:
            metrics.arena_nodes = self.arena.live_nodes
            metrics.arena_bytes = self.arena.column_bytes()
        metrics.projection_pruned_at_load = getattr(
            self.document, "projection_pruned_at_load", 0
        )
        if self.rcache is not None:
            metrics.relevance_cache_hits = self.rcache.hits
            metrics.queries_reevaluated = self.rcache.reevaluations
        if self.answer_cache is not None:
            before = self._answer_counters
            after = self.answer_cache.counters()
            metrics.maintained_rows = self._maintained_rows
            metrics.answer_cache_hits = after["hits"] - before["hits"]
            metrics.answer_scope_rematches = (
                after["scope_rematches"] - before["scope_rematches"]
            )
            metrics.rows_respliced = (
                after["rows_added"]
                - before["rows_added"]
                + after["rows_retracted"]
                - before["rows_retracted"]
            )
        for record in self.bus.log.records[self._log_start :]:
            metrics.bytes_sent += record.request_bytes
            metrics.bytes_received += record.response_bytes

    # -- strategies ------------------------------------------------------------------

    def run_naive(self) -> None:
        def invoke(call: Node) -> Optional[float]:
            return self._invoke_call(call, target_uids=frozenset())

        def on_round(times: list[float]) -> None:
            self._account_round(times, layer_index=None, parallel=True)

        invoked, completed = naive_fixpoint(
            self.document,
            invoke,
            self.config.max_invocations,
            on_round,
            tracer=self.tracer,
        )
        self.metrics.completed = completed

    def run_lazy(self) -> None:
        self._fire_immediate_calls()
        with self.tracer.span(
            SATISFIABILITY, typing=self.config.typing.value, reason="build"
        ) as span:
            queries = self._build_relevance_queries()
            if span is not None:
                span.tags["queries"] = len(queries)
        self.metrics.relevance_queries_built = len(queries)
        self._queries_by_target = {q.target_uid: q for q in queries}

        if self.config.use_fguide:
            self.fguide = FGuide(self.document)

        if self.config.speculative and self.config.parallel:
            # "Just in case" mode (Section 4.4's remark): one pseudo-layer
            # so every currently-relevant call everywhere fires together.
            layers = [
                Layer(
                    index=0,
                    queries=list(queries),
                    independent={q.target_uid: True for q in queries},
                )
            ]
        elif self.config.use_layers:
            layers = compute_layers(queries)
        else:
            # Plain NFQA (Section 4.1): a single pseudo-layer, strictly
            # one invocation per iteration.
            layers = [
                Layer(
                    index=0,
                    queries=list(queries),
                    independent={q.target_uid: False for q in queries},
                )
            ]
        self.metrics.layers = len(layers)

        for layer in layers:
            if not self._budget_left():
                self.metrics.completed = False
                break
            with self.tracer.span(
                LAYER, index=layer.index, queries=len(layer.queries)
            ):
                self._process_layer(layer)
            self._completed_targets |= self._absorbed_targets(layer)
            self._rebuild_queries(reason="layer_done")

    def _fire_immediate_calls(self) -> None:
        """Invoke every IMMEDIATE-activation call (Section 1's eager
        mode) before the lazy analysis starts, to a fixpoint."""
        while self._budget_left():
            eager = [
                c
                for c in self.document.function_nodes()
                if c.activation is Activation.IMMEDIATE
            ]
            if not eager:
                return
            times = []
            with self.tracer.span(ROUND, phase="immediate"):
                for call in eager:
                    if not self._budget_left():
                        self.metrics.completed = False
                        break
                    if not self.document.contains(call):
                        continue
                    elapsed = self._invoke_call(call, frozenset())
                    if elapsed is not None:
                        times.append(elapsed)
            self._account_round(times, layer_index=None, parallel=True)

    # -- relevance-query management ---------------------------------------------------

    def _build_relevance_queries(self) -> list[RelevanceQuery]:
        oracle = self._make_oracle()
        names = None
        if oracle is not None:
            names = set(self.bus.registry.names())
            names.update(call.label for call in self.document.function_nodes())
            names.update(self._schema.function_names())
        queries, self._builder = build_relevance_family(
            self.query, self.config, oracle=oracle, function_names=names
        )
        return queries

    def _make_oracle(self) -> Optional[SatisfiabilityOracle]:
        if self.config.typing is TypingMode.NONE:
            return None
        if self.config.typing is TypingMode.EXACT:
            return ExactSatisfiability(self._schema)
        return LenientSatisfiability(self._schema)

    def _rebuild_queries(self, reason: str = "rebuild") -> None:
        """Regenerate remaining NFQs after a layer completed (Section 4.3
        simplification) or after new service names appeared (Section 5)."""
        if self._builder is None:
            return  # LPQs depend only on the query: nothing to simplify
        with self.tracer.span(
            SATISFIABILITY, typing=self.config.typing.value, reason=reason
        ):
            rebuilt = self._builder.build_all(
                excluded_targets=self._completed_targets,
                dedupe=self.config.dedupe_relevance_queries,
            )
        self._queries_by_target = {q.target_uid: q for q in rebuilt}

    def _absorbed_targets(self, layer: Layer) -> set[int]:
        out: set[int] = set()
        for uid in layer.target_uids:
            out.add(uid)
            query = self._queries_by_target.get(uid)
            if query is not None:
                out |= set(query.extra_target_uids)
        return out

    def _layer_queries(self, layer: Layer) -> list[RelevanceQuery]:
        queries = []
        for uid in sorted(layer.target_uids):
            query = self._queries_by_target.get(uid)
            if query is not None:
                queries.append(query)
        return queries

    # -- the NFQA loop -------------------------------------------------------------------

    def _process_layer(self, layer: Layer) -> None:
        config = self.config
        while self._budget_left():
            with self.tracer.span(ROUND, layer=layer.index):
                done = self._process_round(layer)
            if done:
                return
        self.metrics.completed = False

    def _process_round(self, layer: Layer) -> bool:
        """One NFQA iteration; returns True when the layer went quiet."""
        config = self.config
        with self.tracer.span(RELEVANCE_CHECK, layer=layer.index) as span:
            hits_before = self.rcache.hits if self.rcache else 0
            reevals_before = self.rcache.reevaluations if self.rcache else 0
            relevant = self._collect_relevant(layer)
            if span is not None:
                span.tags["relevant_calls"] = len(relevant)
                if self.rcache is not None:
                    span.tags["cache_hits"] = self.rcache.hits - hits_before
                    span.tags["reevaluated"] = (
                        self.rcache.reevaluations - reevals_before
                    )
        if not relevant:
            return True
        batch: list[tuple[Node, frozenset[int]]] = []
        if config.parallel and config.speculative:
            # "Just in case" parallelism (Section 4.4's remark): fire
            # everything relevant right now, accepting that some may
            # turn out irrelevant once siblings respond.
            batch = [
                (call, targets)
                for _, (call, targets, _) in sorted(relevant.items())
            ]
        elif config.parallel:
            # Condition (*) is per-NFQ: all calls retrieved only by
            # independent queries of the layer can fire in parallel.
            batch = [
                (call, targets)
                for node_id, (call, targets, retrievers) in sorted(
                    relevant.items()
                )
                if all(layer.independent.get(uid, False) for uid in retrievers)
            ]
        if not batch:
            first_id = min(relevant)
            call, targets, _ = relevant[first_id]
            batch = [(call, targets)]
        times: list[float] = []
        new_names: set[str] = set()
        if len(batch) > 1 and config.max_concurrency > 1:
            times, new_names, makespan = self._invoke_round_batch(batch)
            self._account_round(
                times,
                layer_index=layer.index,
                parallel=True,
                makespan=makespan,
            )
        else:
            for call, target_uids in batch:
                if not self._budget_left():
                    self.metrics.completed = False
                    break
                if not self.document.contains(call):
                    continue
                names_before = set(self._builder.function_names) if self._builder else set()
                elapsed = self._invoke_call(call, target_uids)
                if elapsed is not None:
                    times.append(elapsed)
                if self._builder is not None:
                    new_names |= set(self._builder.function_names) - names_before
            self._account_round(
                times, layer_index=layer.index, parallel=len(batch) > 1
            )
        if new_names:
            self._rebuild_queries(reason="new_names")
        return False

    def _invoke_round_batch(
        self, batch: list[tuple[Node, frozenset[int]]]
    ) -> tuple[list[float], set[str], float]:
        """Dispatch one parallel round through the bus batch scheduler.

        Returns ``(times, new function names, makespan)``; ``times``
        carries one entry per accounted invocation, as in the serial
        loop, while the makespan is what the round costs on the
        simulated parallel clock."""
        prepared: list[tuple[Node, _PreparedCall]] = []
        for call, target_uids in batch:
            if self.invocations + len(prepared) >= self.config.max_invocations:
                self.metrics.completed = False
                break
            if not self.document.contains(call):
                continue
            prepared.append((call, self._prepare_call(call, target_uids)))
        if not prepared:
            return [], set(), 0.0
        names_before = set(self._builder.function_names) if self._builder else set()
        result = self.bus.invoke_batch(
            [prep.service_call for _, prep in prepared],
            policy=self._invocation_policy(),
            scheduler=SchedulerPolicy(
                max_concurrency=self.config.max_concurrency,
                use_threads=self.config.use_threads,
            ),
            trace=self.tracer,
        )
        times: list[float] = []
        for (call, prep), outcome in zip(prepared, result.outcomes):
            elapsed = self._absorb_outcome(call, prep, outcome)
            if elapsed is not None:
                times.append(elapsed)
        new_names: set[str] = set()
        if self._builder is not None:
            new_names = set(self._builder.function_names) - names_before
        self.metrics.batch_count += 1
        self.metrics.max_batch_width = max(
            self.metrics.max_batch_width, result.width
        )
        return times, new_names, result.parallel_s

    def _collect_relevant(
        self, layer: Layer
    ) -> dict[int, tuple[Node, frozenset[int], frozenset[int]]]:
        """Union of the calls retrieved by the layer's relevance queries.

        Maps call node id to ``(call, target uids, retriever uids)`` —
        targets drive query pushing, retrievers drive the per-query
        independence check for parallel rounds.
        """
        relevant: dict[int, tuple[Node, frozenset[int], frozenset[int]]] = {}
        queries = self._layer_queries(layer)
        shared: Optional[dict[int, list[Node]]] = None
        if queries and self._shared_matching_active():
            shared = self._retrieve_group(queries)
        for rquery in queries:
            if shared is not None:
                calls = shared[rquery.target_uid]
            else:
                calls = self._retrieve(rquery)
            self.metrics.relevance_evaluations += 1
            for call in calls:
                assert call.node_id is not None
                targets = rquery.all_target_uids
                retrievers = frozenset({rquery.target_uid})
                existing = relevant.get(call.node_id)
                if existing is not None:
                    targets = existing[1] | targets
                    retrievers = existing[2] | retrievers
                relevant[call.node_id] = (call, targets, retrievers)
        return relevant

    def _shared_matching_active(self) -> bool:
        """Group passes replace per-query matching only where they are
        provably equivalent: overlay rows (pushed bindings) are keyed by
        the actual pattern node, which canonical sharing conflates."""
        return self.config.shared_matching and self.overlay is None

    def _retrieve_group(
        self, queries: list[RelevanceQuery]
    ) -> dict[int, list[Node]]:
        """All queries' eligible calls out of one shared group pass.

        Cache hits (incremental mode) are answered first; the remaining
        misses run together in a single projected traversal, and their
        fresh sets are stored back.  The liveness filter mirrors
        :meth:`_retrieve`.
        """
        raw: dict[int, list[Node]] = {}
        fresh: list[RelevanceQuery] = []
        for rquery in queries:
            cached = (
                self.rcache.lookup(rquery) if self.rcache is not None else None
            )
            if cached is not None:
                raw[rquery.target_uid] = cached
            else:
                fresh.append(rquery)
        if fresh:
            group = self._group_for(queries)
            with self.tracer.span(
                GROUP_PASS, members=len(queries), evaluated=len(fresh)
            ) as span:
                with self._column_span():
                    result = group.evaluate(
                        self.document, keys=[q.target_uid for q in fresh]
                    )
                if span is not None:
                    span.tags["nodes_visited"] = result.nodes_visited
                    span.tags["skipped_subtrees"] = result.skipped_subtrees
                    span.tags["projected"] = result.projected
            self.metrics.group_passes += 1
            self.metrics.group_pass_nodes_visited += result.nodes_visited
            self.metrics.projection_skipped_subtrees += result.skipped_subtrees
            for rquery in fresh:
                calls = result.match_sets[rquery.target_uid].distinct_nodes()
                if self.rcache is not None:
                    self.rcache.store(rquery, calls)
                raw[rquery.target_uid] = calls
        return {
            uid: [
                call
                for call in calls
                if call.activation is not Activation.FROZEN
                and self.document.contains(call)
            ]
            for uid, calls in raw.items()
        }

    @contextlib.contextmanager
    def _column_span(self):
        """A ``COLUMN_PASS`` span around a match pass, when active.

        Yields ``None`` (no span) unless ``config.column_match`` is on
        and an arena exists — the same gate the matchers apply — so the
        trace only claims a column pass when one could actually run.
        Tags are the pass's *deltas* of the three column counters, not
        the cumulative totals, so each span reads as its own pass.
        """
        if not (self.config.column_match and self.arena is not None):
            yield None
            return
        counter = self.match_counter
        before = (
            counter.column_pass_nodes,
            counter.column_rows,
            counter.column_fallbacks,
        )
        with self.tracer.span(COLUMN_PASS) as span:
            try:
                yield span
            finally:
                if span is not None:
                    span.tags["column_pass_nodes"] = (
                        counter.column_pass_nodes - before[0]
                    )
                    span.tags["column_rows"] = counter.column_rows - before[1]
                    span.tags["column_fallbacks"] = (
                        counter.column_fallbacks - before[2]
                    )

    def _group_for(self, queries: list[RelevanceQuery]) -> PatternGroup:
        """One compiled group per query family, reused across rounds.

        Keyed by the family's (target, pattern-identity) tuples, so a
        query rebuild (layer simplification, refinement, new names)
        compiles a fresh group — same pinning rule as per-query
        matchers."""
        key = tuple((q.target_uid, id(q.pattern)) for q in queries)
        if self._group is None or self._group_key != key:
            index = self.index if self.index is not None else self._shared_index
            self._group = PatternGroup(
                {q.target_uid: q.pattern for q in queries},
                options=self.evaluator.match_options,
                counter=self.match_counter,
                index=index,
                call_source=self.fguide,
                arena=self.arena,
                column_match=self.config.column_match,
            )
            self._group_key = key
        return self._group

    def _retrieve(self, rquery: RelevanceQuery) -> list[Node]:
        """The query's currently-eligible retrieved calls.

        Liveness and activation are read-time properties: a memoized
        set may still name calls that were invoked or frozen since it
        was cached (neither changes embeddings over surviving nodes),
        so both filters run here, after the cache."""
        if self.rcache is not None:
            calls = self.rcache.retrieve(rquery, self._retrieve_raw)
        else:
            calls = self._retrieve_raw(rquery)
        return [
            call
            for call in calls
            if call.activation is not Activation.FROZEN
            and self.document.contains(call)
        ]

    def _retrieve_raw(self, rquery: RelevanceQuery) -> list[Node]:
        """Run the relevance query (no caching, no liveness filter)."""
        if self.fguide is not None:
            names = rquery.output.function_names
            candidates = self.fguide.candidates(
                rquery.linear_steps,
                names,
                descendant_tail=rquery.descendant_tail,
            )
            self.metrics.guide_lookups += 1
            self.metrics.guide_candidates += len(candidates)
            if not candidates:
                return []
            matcher = self._matcher_for(rquery)
            return [
                call
                for call in candidates
                if _verify_candidate(rquery, call, matcher)
            ]
        matcher = self._matcher_for(rquery)
        return matcher.evaluate(self.document).distinct_nodes()

    def _make_matcher(self, pattern: TreePattern) -> Matcher:
        """The one construction site for per-query matchers (relevance
        and final evaluation alike), so the options/counter/overlay/
        index wiring cannot drift between call sites."""
        return Matcher(
            pattern,
            options=self.evaluator.match_options,
            counter=self.match_counter,
            overlay=self.overlay,
            index=self.index,
            arena=self.arena,
            column_match=self.config.column_match,
        )

    def _matcher_for(self, rquery: RelevanceQuery) -> Matcher:
        """One compiled matcher per relevance query, reused across
        rounds.  Keyed by target and pinned to the pattern object, so a
        query rebuild (layer simplification, refinement) compiles a
        fresh matcher; reuse only resets the per-evaluation memos."""
        matcher = self._matchers.get(rquery.target_uid)
        if matcher is not None and matcher.pattern is rquery.pattern:
            matcher.reset()
            return matcher
        matcher = self._make_matcher(rquery.pattern)
        self._matchers[rquery.target_uid] = matcher
        return matcher

    # -- invocation --------------------------------------------------------------------------

    def _budget_left(self) -> bool:
        return (
            self.invocations < self.config.max_invocations
            and self.metrics.invocation_rounds < self.config.max_rounds
        )

    def _invoke_call(
        self, call: Node, target_uids: frozenset[int]
    ) -> Optional[float]:
        with self.tracer.span(
            INVOCATION, service=call.label, call_uid=call.node_id
        ) as span:
            result = self._invoke_call_inner(call, target_uids, span)
        return result

    def _invoke_call_inner(
        self, call: Node, target_uids: frozenset[int], span
    ) -> Optional[float]:
        prep = self._prepare_call(call, target_uids)
        outcome = self.bus.invoke(
            prep.service_call,
            policy=self._invocation_policy(),
            trace=self.tracer,
        )
        if span is not None and outcome.fault is not None:
            span.tags["fault_kind"] = type(outcome.fault).__name__
        return self._absorb_outcome(call, prep, outcome)

    def _prepare_call(
        self, call: Node, target_uids: frozenset[int]
    ) -> _PreparedCall:
        pushed: Optional[PushedSubquery] = None
        push_mode = PushMode.NONE
        if self.config.push_mode is not PushMode.NONE and len(target_uids) == 1:
            (uid,) = target_uids
            with self.tracer.span(PUSH, service=call.label):
                if self._push_is_safe(call, uid):
                    pushed = self._pushed_for(uid)
            if pushed is not None:
                push_mode = self.config.push_mode
                if push_mode is PushMode.BINDINGS and not pushed.bindable:
                    push_mode = PushMode.FILTERED

        if self.config.validate_io:
            self._check_io(self._schema.validate_node(call))

        return _PreparedCall(
            service_call=ServiceCall(
                service=call.label,
                parameters=call.children,
                call_node_id=call.node_id,
                pushed=pushed.pattern
                if pushed and push_mode is not PushMode.NONE
                else None,
                push_mode=push_mode,
                anchor_edge=pushed.anchor_edge if pushed else EdgeKind.CHILD,
            ),
            pushed=pushed,
            push_mode=push_mode,
            parent=call.parent,
        )

    def _invocation_policy(self) -> InvocationPolicy:
        policy = self.config.fault_policy
        retry = (
            self.config.retry
            if policy is FaultPolicy.RETRY
            else self.config.retry.single_attempt()
        )
        return InvocationPolicy(retry=retry, breaker=self.config.breaker)

    def _absorb_outcome(
        self, call: Node, prep: _PreparedCall, outcome: ResilientOutcome
    ) -> Optional[float]:
        metrics = self.metrics
        metrics.faults += outcome.faults
        metrics.retries += outcome.retries
        metrics.backoff_s += outcome.backoff_s
        metrics.failed_attempt_time_s += outcome.fault_time_s
        metrics.breaker_trips += outcome.breaker_trips
        if outcome.short_circuited:
            metrics.breaker_short_circuits += 1
        if outcome.cache_hit:
            metrics.cache_hits += 1

        policy = self.config.fault_policy
        if not outcome.succeeded:
            if policy is FaultPolicy.RAISE:
                assert outcome.fault is not None
                raise outcome.fault
            # Every tolerant policy freezes the call: the document keeps
            # the intensional node, the relevance loop stops retrieving
            # it, and nothing is lost.
            call.activation = Activation.FROZEN
            metrics.calls_frozen += 1
            if outcome.attempts == 0:
                # Pure breaker short-circuit (or a coalesced duplicate of
                # a faulted call): nothing was shipped, so no invocation
                # (or round) is accounted.
                return None
            self.invocations += 1
            metrics.calls_invoked += 1
            # Failed attempts still burned simulated time — returning it
            # (instead of None) makes fault-only rounds count toward the
            # round budget and the simulated clocks.
            return outcome.fault_time_s + outcome.backoff_s

        reply = outcome.reply
        assert reply is not None
        if self.config.validate_io and reply.push_mode is PushMode.NONE:
            # Pushed replies are legitimately pruned below the output
            # type, so only plain replies are checked against it.
            self._check_io(self._schema.validate_output(call.label, reply.forest))

        new_calls = self.document.replace_call(call, reply.forest)
        self.invocations += 1
        metrics.calls_invoked += 1
        metrics.nodes_materialized += sum(
            tree.subtree_size() for tree in reply.forest
        )
        if reply.is_bindings and self.overlay is not None and prep.pushed is not None:
            assert prep.parent is not None
            self.overlay.add(prep.parent, prep.pushed, reply.bindings or [])
        if self._builder is not None and new_calls:
            self._builder.add_function_names(c.label for c in new_calls)
        elapsed = outcome.fault_time_s + outcome.backoff_s
        if outcome.record is not None:
            elapsed += outcome.record.simulated_time_s
        return elapsed

    def _check_io(self, errors: list[str]) -> None:
        """Handle parameter/output type violations per the fault policy."""
        if not errors:
            return
        if self.config.fault_policy is FaultPolicy.RAISE:
            raise SchemaError("; ".join(errors))
        self.metrics.io_violations += len(errors)

    def _push_is_safe(self, call: Node, target_uid: int) -> bool:
        """May the call's full result matter to any *other* query node?

        Pushing ``sub_q_v`` prunes the reply down to what node ``v``
        needs; that is only safe when no other relevance query could
        retrieve a call at this position (otherwise the pruned data
        might have served that other query node).  The check is a word
        membership test against the other queries' position languages.
        """
        position = call_position(call)
        for uid, rquery in self._queries_by_target.items():
            if uid == target_uid:
                continue
            nfa = self._position_nfas.get(uid)
            if nfa is None:
                nfa = automata.from_linear_steps(
                    list(rquery.linear_steps),
                    descendant_tail=rquery.descendant_tail,
                )
                self._position_nfas[uid] = nfa
            if nfa.accepts(position):
                return False
        return True

    def _pushed_for(self, target_uid: int) -> Optional[PushedSubquery]:
        pushed = self._pushed_cache.get(target_uid)
        if pushed is None:
            target = self._nodes_by_uid.get(target_uid)
            if target is None:
                return None
            pushed = pushed_subquery_for(self.query, target)
            self._pushed_cache[target_uid] = pushed
        return pushed

    def _account_round(
        self,
        times: list[float],
        layer_index: Optional[int],
        parallel: bool,
        makespan: Optional[float] = None,
    ) -> None:
        # ``times`` has one entry per *attempted* invocation, including
        # fully-faulted ones (their failed-attempt + backoff time) — so
        # fault-only rounds still count toward the ``max_rounds`` budget.
        # ``makespan`` (batch-scheduled rounds) overrides the parallel
        # charge: under bounded concurrency a round costs its schedule's
        # makespan, not max(times).
        if not times:
            return
        if makespan is None:
            makespan = max(times) if parallel else sum(times)
        self.metrics.invocation_rounds += 1
        self.metrics.simulated_sequential_s += sum(times)
        self.metrics.simulated_parallel_s += makespan
        self.rounds.append(
            RoundRecord(
                layer_index=layer_index,
                calls=tuple(f"{t:.4f}" for t in times),
                parallel=parallel,
                simulated_time_s=makespan,
            )
        )

    # -- final evaluation -----------------------------------------------------------------------

    def final_evaluation(self) -> MatchSet:
        cache = self.answer_cache
        if cache is None:
            with self._column_span():
                return self._make_matcher(self.query).evaluate(self.document)
        with self.tracer.span(ANSWER_MAINT, seeded=cache.seeded) as span:
            before_full = cache.full_matches
            before_scopes = cache.scope_rematches
            rows = cache.rows()
            if before_full == cache.full_matches:
                # Served by maintenance (hit or dirty-scope resplice),
                # not by a from-scratch match of the whole document.
                self._maintained_rows = len(rows)
            if span is not None:
                span.tags["rows"] = len(rows)
                span.tags["scope_rematches"] = (
                    cache.scope_rematches - before_scopes
                )
        return rows


# -- F-guide residual verification (Section 6.2, "NFQ filtering") ------------------


def _verify_candidate(
    rquery: RelevanceQuery, candidate: Node, matcher: Matcher
) -> bool:
    """Check the non-linear conditions of an NFQ for one guide candidate.

    The guide guaranteed the candidate's *position* matches
    ``q_v^lin``; what remains is to align the NFQ's spine with the
    candidate's ancestor chain and check every condition branch at the
    aligned nodes (boolean semantics — value joins are ignored, the safe
    approximation of Section 6).
    """
    if rquery.output.function_names is not None:
        if candidate.label not in rquery.output.function_names:
            return False
    spine = rquery.pattern.spine_nodes(rquery.output)
    chain = spine[:-1]  # the data nodes above the output
    ancestors = [candidate]
    ancestors.extend(candidate.iter_ancestors())
    ancestors.reverse()
    ancestors = ancestors[:-1]  # drop the candidate itself
    if not chain or not ancestors:
        return not chain

    spine_uids = {node.uid for node in spine}

    def conditions_hold(pnode: PatternNode, dnode: Node) -> bool:
        if not matcher.node_test(pnode, dnode):
            return False
        for child in pnode.children:
            if child.uid in spine_uids:
                continue
            if not matcher.condition_holds(child, dnode):
                return False
        return True

    def align(pi: int, di: int) -> bool:
        if not conditions_hold(chain[pi], ancestors[di]):
            return False
        if pi == len(chain) - 1:
            # The output hangs off chain[-1]: for a child edge the
            # aligned ancestor must be the candidate's parent; for a
            # descendant edge any proper ancestor works.
            if rquery.output.edge is EdgeKind.CHILD:
                return di == len(ancestors) - 1
            return True
        nxt = chain[pi + 1]
        if nxt.edge is EdgeKind.CHILD:
            return di + 1 < len(ancestors) and align(pi + 1, di + 1)
        return any(align(pi + 1, dj) for dj in range(di + 1, len(ancestors)))

    return align(0, 0)
