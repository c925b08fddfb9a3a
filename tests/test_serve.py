"""Tests for the multi-tenant serving layer (repro.serve)."""

import dataclasses

import pytest

import repro
from repro import C, E, V, EngineConfig, Strategy, TableService
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.pattern.match import MatchOptions
from repro.serve import (
    AnswerDelta,
    AnswerStream,
    QueryServer,
    RefreshStatus,
    TenantPolicy,
    quantile,
    relevance_family,
)
from repro.lazy.engine import _EvaluationState
from repro.services.registry import ServiceBus, ServiceRegistry, bus_of
from repro.workloads.factory import regime


def resto_service(latency_s=0.05):
    return TableService(
        "getNearbyRestos",
        {
            "1 Madison Av.": [E("resto", V("Nobu"))],
            "2 Av.": [E("resto", V("Katz"))],
            "3 Av.": [E("resto", V("Shula"))],
        },
        latency_s=latency_s,
    )


def hotels_doc():
    return repro.build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Ritz")),
                E(
                    "nearby",
                    E("resto", V("Balthazar")),
                    C("getNearbyRestos", V("1 Madison Av.")),
                ),
            ),
        )
    )


RESTOS = "/hotels/hotel/nearby/resto/$R"
NAMES = "/hotels/hotel/name/$N"


# ---------------------------------------------------------------------------
# repro.subscribe: coercion, rows, refresh, cancel
# ---------------------------------------------------------------------------


class TestSubscribeFacade:
    def test_accepts_same_shapes_as_evaluate(self):
        xml = repro.serialize_document(hotels_doc())
        sub = repro.subscribe(RESTOS, xml, services=[resto_service()])
        assert sub.rows == {("Balthazar",), ("Nobu",)}
        sub.cancel()

    def test_accepts_node_document_and_parsed_query(self):
        query = repro.parse_pattern(RESTOS)
        root = E(
            "hotels",
            E("hotel", E("name", V("Ritz")), E("nearby", E("resto", V("X")))),
        )
        sub = repro.subscribe(query, root, services=[])
        assert sub.rows == {("X",)}
        assert sub.query is query

    def test_reuses_an_existing_bus(self):
        bus = ServiceBus(ServiceRegistry([resto_service()]))
        sub = repro.subscribe(RESTOS, hotels_doc(), services=bus)
        assert len(bus.log.records) == 1
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_lazy_subscription_evaluates_on_first_refresh(self):
        sub = repro.subscribe(
            RESTOS, hotels_doc(), services=[resto_service()], eager=False
        )
        assert sub.rows == frozenset()
        assert sub.is_stale
        outcome = sub.refresh()
        assert outcome.status is RefreshStatus.EVALUATED
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_refresh_when_fresh_is_free(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        outcome = sub.refresh()
        assert outcome.status is RefreshStatus.FRESH
        assert outcome.invocations == 0
        assert outcome.latency_s == 0.0

    def test_cancel_is_idempotent_and_final(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        sub.cancel()
        sub.cancel()
        assert sub.cancelled
        with pytest.raises(ValueError, match="cancelled"):
            sub.refresh()

    def test_loose_engine_kwargs_rejected_with_nearest_field(self):
        with pytest.raises(TypeError, match="maintain_answers"):
            repro.subscribe(
                RESTOS,
                hotels_doc(),
                services=[resto_service()],
                maintain_answer=False,
            )

    def test_unrecognisable_kwarg_still_rejected(self):
        with pytest.raises(TypeError, match="zzzzz"):
            repro.subscribe(
                RESTOS, hotels_doc(), services=[], zzzzz=1
            )


# ---------------------------------------------------------------------------
# Answer delta streams
# ---------------------------------------------------------------------------


class TestAnswerStream:
    def test_initial_answer_is_the_first_delta(self):
        sub = repro.subscribe(RESTOS, hotels_doc(), services=[resto_service()])
        deltas = sub.stream.take()
        assert len(deltas) == 1
        assert deltas[0].added == {("Balthazar",), ("Nobu",)}
        assert deltas[0].removed == frozenset()
        assert deltas[0].rows_total == 2

    def test_refresh_pushes_only_the_change(self):
        doc = hotels_doc()
        sub = repro.subscribe(RESTOS, doc, services=[resto_service()])
        sub.stream.take()
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, E("resto", V("Via Carota")))
        sub.refresh()
        (delta,) = sub.stream.take()
        assert delta.added == {("Via Carota",)}
        assert delta.removed == frozenset()
        assert delta.rows_total == 3

    def test_unchanged_refresh_pushes_nothing(self):
        doc = hotels_doc()
        sub = repro.subscribe(NAMES, doc, services=[resto_service()])
        sub.stream.take()
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        sub.refresh()
        assert sub.stream.pending == 0

    def test_iteration_drains(self):
        stream = AnswerStream()
        for i in range(3):
            stream.push(self._delta(i))
        seen = [d.round_index for d in stream]
        assert seen == [0, 1, 2]
        assert len(stream) == 0

    def test_bounded_buffer_drops_oldest(self):
        stream = AnswerStream(max_pending=2)
        for i in range(5):
            stream.push(self._delta(i))
        assert stream.dropped == 3
        assert stream.delivered == 5
        assert [d.round_index for d in stream.take()] == [3, 4]

    def test_callbacks_fire_on_push(self):
        stream = AnswerStream()
        seen = []
        stream.on_delta(lambda d: seen.append(d.round_index))
        stream.push(self._delta(7))
        assert seen == [7]
        assert stream.pending == 1  # still buffered for iterators

    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError, match="max_pending"):
            AnswerStream(max_pending=0)

    @staticmethod
    def _delta(i):
        return AnswerDelta(
            added=frozenset({(str(i),)}),
            removed=frozenset(),
            rows_total=1,
            document_version=i,
            round_index=i,
            at_s=0.0,
        )


# ---------------------------------------------------------------------------
# The cross-tenant fast path: statuses and invocation discipline
# ---------------------------------------------------------------------------


class TestFastPath:
    def make_server(self, **config_kwargs):
        server = QueryServer(
            [resto_service()], config=EngineConfig.serving(**config_kwargs)
        )
        doc = hotels_doc()
        return server, doc

    def test_quiet_insert_is_skipped(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert report.counts() == {"skipped": 1}
        assert sub.rows == {("Balthazar",), ("Nobu",)}

    def test_relevant_extensional_insert_is_maintained_without_engine(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        invocations_before = len(server.bus.log.records)
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, E("resto", V("Lilia")))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.MAINTAINED
        assert outcome.invocations == 0
        assert len(server.bus.log.records) == invocations_before
        assert sub.rows == {("Balthazar",), ("Nobu",), ("Lilia",)}
        assert sub.maintained_serves == 1

    def test_inserted_call_forces_the_engine(self):
        server, doc = self.make_server()
        sub = server.subscribe(RESTOS, doc)
        nearby = next(
            n
            for n in doc.root.iter_subtree()
            if n.is_element and n.label == "nearby"
        )
        doc.insert_subtree(nearby, C("getNearbyRestos", V("2 Av.")))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED
        assert outcome.invocations == 1
        assert sub.rows == {("Balthazar",), ("Nobu",), ("Katz",)}

    def test_immediate_call_disables_the_shortcut(self):
        server, doc = self.make_server()
        server.subscribe(NAMES, doc)
        call = C(
            "getNearbyRestos",
            V("3 Av."),
            activation=repro.Activation.IMMEDIATE,
        )
        doc.insert_subtree(doc.root.children[0], call)
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED

    def test_shared_group_pass_serves_many_subscribers(self):
        server, doc = self.make_server()
        subs = [
            server.subscribe(text, doc, name=f"q{i}")
            for i, text in enumerate([RESTOS, NAMES, RESTOS, NAMES])
        ]
        group = server._docs[id(doc)]
        # A live call in a position no family retrieves (not a hotel
        # child, not under nearby) keeps the document intensional, so
        # quiet verdicts need an actual relevance pass.
        doc.insert_subtree(
            doc.root, E("garage", C("getNearbyRestos", V("3 Av.")))
        )
        doc.insert_subtree(doc.root, E("hotel", E("name", V("Savoy"))))
        report = server.run_round()
        assert {o.status.value for o in report.outcomes} <= {
            "skipped",
            "maintained",
        }
        # One shared pass answered every fast-capable member.
        assert group.group_passes == 1
        assert subs[1].rows == {("Ritz",), ("Savoy",)}

    def test_naive_strategy_falls_back_while_calls_are_live(self):
        server, doc = self.make_server(strategy=Strategy.NAIVE)
        sub = server.subscribe(RESTOS, doc)
        assert sub.rows == {("Balthazar",), ("Nobu",)}
        # All calls are consumed now; a quiet insert serves maintained.
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L2"))))
        (outcome,) = server.run_round().outcomes
        assert outcome.status in (
            RefreshStatus.SKIPPED,
            RefreshStatus.MAINTAINED,
        )

    def test_unmaintained_config_always_runs_the_engine(self):
        server = QueryServer(
            [resto_service()],
            config=EngineConfig(strategy=Strategy.LAZY_NFQ),
        )
        doc = hotels_doc()
        server.subscribe(RESTOS, doc)
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED

    def test_rows_match_an_independent_refresh_loop(self):
        """The serving shortcut must be invisible in rows and calls."""
        server, server_doc = self.make_server()
        baseline_bus = bus_of([resto_service()])
        baseline_doc = hotels_doc()
        engine = LazyQueryEvaluator(
            baseline_bus, config=EngineConfig.serving()
        )
        queries = [RESTOS, NAMES]
        subs = [server.subscribe(q, server_doc) for q in queries]
        loops = [
            ContinuousQuery(engine, repro.parse_pattern(q), baseline_doc)
            for q in queries
        ]
        mutations = [
            lambda d: d.insert_subtree(d.root, E("parking", E("x", V("1")))),
            lambda d: d.insert_subtree(
                d.root, E("hotel", E("name", V("Savoy")))
            ),
            lambda d: d.insert_subtree(
                next(
                    n
                    for n in d.root.iter_subtree()
                    if n.is_element and n.label == "nearby"
                ),
                C("getNearbyRestos", V("2 Av.")),
            ),
        ]
        for mutate in mutations:
            mutate(baseline_doc)
            mutate(server_doc)
            baseline_rows = [set(cq.refresh().value_rows()) for cq in loops]
            server.run_round()
            assert [set(s.rows) for s in subs] == baseline_rows
            assert [
                (r.service_name, r.call_node_id, r.fault)
                for r in baseline_bus.log.records
            ] == [
                (r.service_name, r.call_node_id, r.fault)
                for r in server.bus.log.records
            ]
        for cq in loops:
            cq.close()


# ---------------------------------------------------------------------------
# Admission control: budgets, inflight caps, priorities
# ---------------------------------------------------------------------------


def make_call_heavy_doc():
    return repro.build_document(
        E(
            "hotels",
            E(
                "hotel",
                E("name", V("Ritz")),
                E("nearby", C("getNearbyRestos", V("1 Madison Av."))),
            ),
        )
    )


class TestAdmission:
    def test_budget_defers_only_the_noisy_tenant(self):
        server = QueryServer([resto_service()])
        server.register_tenant("noisy", TenantPolicy(invocation_budget=1))
        noisy_doc = make_call_heavy_doc()
        victim_doc = make_call_heavy_doc()
        noisy = [
            server.subscribe(RESTOS, noisy_doc, tenant="noisy", eager=False)
            for _ in range(3)
        ]
        victim = server.subscribe(
            RESTOS, victim_doc, tenant="victim", eager=False
        )
        report = server.run_round()
        by_name = {}
        for outcome in report.outcomes:
            by_name.setdefault(outcome.tenant, []).append(outcome.status)
        # The first noisy refresh invokes and exhausts the budget; the
        # rest of that tenant defers.  The victim is untouched.
        assert by_name["noisy"][0] is RefreshStatus.EVALUATED
        assert all(
            s is RefreshStatus.DEFERRED for s in by_name["noisy"][1:]
        )
        assert by_name["victim"] == [RefreshStatus.EVALUATED]
        assert victim.rows == {("Nobu",)}
        deferred = [
            o
            for o in report.outcomes
            if o.status is RefreshStatus.DEFERRED
        ]
        assert {o.reason for o in deferred} == {"budget"}
        assert all(not o.served for o in deferred)
        # Deferred subscriptions are still due and go first next round.
        report2 = server.run_round()
        assert [o.tenant for o in report2.outcomes][:1] == ["noisy"]
        assert noisy[1].rows == {("Nobu",)}

    def test_inflight_cap_limits_engine_runs_per_round(self):
        server = QueryServer([resto_service()])
        server.register_tenant("t", TenantPolicy(max_inflight=2))
        doc = make_call_heavy_doc()
        for _ in range(4):
            server.subscribe(RESTOS, doc, tenant="t", eager=False)
        report = server.run_round()
        counts = report.counts()
        assert counts["deferred"] >= 1
        deferred = [
            o
            for o in report.outcomes
            if o.status is RefreshStatus.DEFERRED
        ]
        assert {o.reason for o in deferred} == {"inflight"}

    def test_skips_and_maintained_serves_cost_no_budget(self):
        server = QueryServer([resto_service()])
        server.register_tenant(
            "t", TenantPolicy(invocation_budget=1, max_inflight=1)
        )
        doc = hotels_doc()
        subs = [
            server.subscribe(RESTOS, doc, tenant="t") for _ in range(5)
        ]
        doc.insert_subtree(doc.root, E("hotel", E("name", V("Savoy"))))
        report = server.run_round()
        assert "deferred" not in report.counts()
        assert all(o.served for o in report.outcomes)
        assert all(s.rows == subs[0].rows for s in subs)

    def test_priority_orders_rounds_fifo_within_class(self):
        server = QueryServer([resto_service()])
        server.register_tenant("bulk", TenantPolicy(priority=1))
        server.register_tenant("gold", TenantPolicy(priority=0))
        doc = hotels_doc()
        server.subscribe(NAMES, doc, tenant="bulk", name="b0")
        server.subscribe(NAMES, doc, tenant="gold", name="g0")
        server.subscribe(NAMES, doc, tenant="bulk", name="b1")
        server.subscribe(NAMES, doc, tenant="gold", name="g1")
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert [o.subscription_name for o in report.outcomes] == [
            "g0",
            "g1",
            "b0",
            "b1",
        ]
        assert report.for_tenant("gold")[0].subscription_name == "g0"

    def test_tenant_policy_validation(self):
        with pytest.raises(ValueError, match="invocation_budget"):
            TenantPolicy(invocation_budget=0)
        with pytest.raises(ValueError, match="max_inflight"):
            TenantPolicy(max_inflight=-2)
        with pytest.raises(TypeError, match="priority"):
            TenantPolicy(priority="high")

    def test_tenant_metrics_snapshot(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        server.subscribe(RESTOS, doc, tenant="a")
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        metrics = server.tenant_metrics()["a"]
        assert metrics["refreshes"] == 1
        assert metrics["skipped"] == 1
        assert metrics["invocations"] == 1  # the eager subscribe
        assert metrics["p99_latency_s"] >= 0.0


# ---------------------------------------------------------------------------
# The serving clock
# ---------------------------------------------------------------------------


class TestServingClock:
    def test_simulated_service_time_is_charged(self):
        server = QueryServer([resto_service(latency_s=2.5)])
        server.subscribe(RESTOS, hotels_doc())
        assert server.clock.now() >= 2.5

    def test_compute_time_accumulates(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        server.subscribe(RESTOS, doc)
        before = server.clock.compute_s
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        assert server.clock.compute_s > before

    def test_latency_measures_due_to_served(self):
        server = QueryServer([resto_service(latency_s=1.0)])
        doc = make_call_heavy_doc()
        sub = server.subscribe(RESTOS, doc, eager=False)
        (outcome,) = server.run_round().outcomes
        assert outcome.status is RefreshStatus.EVALUATED
        assert outcome.latency_s is not None
        assert outcome.latency_s >= 1.0  # the simulated invocation
        assert not sub.is_stale

    def test_quantile_nearest_rank(self):
        values = [float(i) for i in range(1, 101)]
        assert quantile(values, 0.50) == 50.0
        assert quantile(values, 0.99) == 99.0
        assert quantile([], 0.99) == 0.0
        assert quantile([7.0], 0.5) == 7.0


# ---------------------------------------------------------------------------
# Config consolidation: serving() preset, single config= entry point
# ---------------------------------------------------------------------------


class TestConfigSurface:
    def test_serving_preset(self):
        config = EngineConfig.serving()
        assert config.maintain_answers
        assert config.incremental
        assert config.shared_matching
        assert config.call_cache
        assert config.max_concurrency == 4
        assert config.fault_policy is repro.FaultPolicy.default_non_raising()

    def test_serving_preset_accepts_overrides(self):
        config = EngineConfig.serving(
            strategy=Strategy.LAZY_LPQ, maintain_answers=False
        )
        assert config.strategy is Strategy.LAZY_LPQ
        assert not config.maintain_answers

    def test_nearest_field_suggestions(self):
        assert EngineConfig.nearest_field("maintain_answer") == (
            "maintain_answers"
        )
        assert EngineConfig.nearest_field("stratgy") == "strategy"
        assert EngineConfig.nearest_field("qqqqqq") is None

    def test_query_server_rejects_loose_engine_kwargs(self):
        with pytest.raises(TypeError, match="call_cache"):
            QueryServer([], call_caching=True)

    def test_query_server_rejects_non_config(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            QueryServer([], config={"strategy": "lazy-nfq"})

    def test_subscribe_method_rejects_loose_engine_kwargs(self):
        server = QueryServer([])
        with pytest.raises(TypeError, match="shared_matching"):
            server.subscribe(NAMES, hotels_doc(), shared_matchin=True)

    def test_config_match_options_flow_to_the_engine(self):
        options = MatchOptions(descend_into_parameters=True)
        config = EngineConfig(match_options=options)
        engine = LazyQueryEvaluator(bus_of([]), config=config)
        assert engine.match_options is options

    def test_conflicting_match_options_raise(self):
        config = EngineConfig(
            match_options=MatchOptions(descend_into_parameters=True)
        )
        with pytest.raises(ValueError, match="conflicting match options"):
            repro.evaluate(
                NAMES,
                hotels_doc(),
                services=[],
                config=config,
                match_options=MatchOptions(),
            )

    def test_agreeing_match_options_are_fine(self):
        options = MatchOptions(descend_into_parameters=True)
        config = EngineConfig(match_options=options)
        outcome = repro.evaluate(
            NAMES,
            hotels_doc(),
            services=[],
            config=config,
            match_options=MatchOptions(descend_into_parameters=True),
        )
        assert outcome.value_rows() == {("Ritz",)}

    def test_match_options_field_is_validated(self):
        with pytest.raises(TypeError, match="match_options"):
            EngineConfig(match_options="strict")


# ---------------------------------------------------------------------------
# ContinuousQuery construction: one positional form
# ---------------------------------------------------------------------------


class TestContinuousQueryShim:
    def test_evaluator_and_services_together_rejected(self):
        engine = LazyQueryEvaluator(bus_of([]))
        with pytest.raises(TypeError, match="services"):
            ContinuousQuery(
                engine,
                repro.parse_pattern(NAMES),
                hotels_doc(),
                services=[resto_service()],
            )

    def test_missing_arguments_rejected(self):
        with pytest.raises(TypeError, match="evaluator"):
            ContinuousQuery(query=repro.parse_pattern(NAMES))


# ---------------------------------------------------------------------------
# Server lifecycle
# ---------------------------------------------------------------------------


class TestServerLifecycle:
    def test_documents_share_state_only_within_a_group(self):
        server = QueryServer([resto_service()])
        doc_a, doc_b = hotels_doc(), hotels_doc()
        sub_a = server.subscribe(RESTOS, doc_a)
        sub_b = server.subscribe(RESTOS, doc_b)
        doc_a.insert_subtree(doc_a.root, E("parking", E("spot", V("L1"))))
        report = server.run_round()
        assert len(report.outcomes) == 1  # only doc_a's sub was due
        assert report.outcomes[0].subscription_id == sub_a.id
        assert not sub_b.is_stale

    def test_cancel_detaches_document_group(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        sub1 = server.subscribe(RESTOS, doc)
        sub2 = server.subscribe(NAMES, doc)
        sub1.cancel()
        assert id(doc) in server._docs
        sub2.cancel()
        assert id(doc) not in server._docs
        assert server.subscriptions == []

    def test_close_cancels_everything(self):
        server = QueryServer([resto_service()])
        doc = hotels_doc()
        subs = [server.subscribe(NAMES, doc) for _ in range(3)]
        server.close()
        assert all(s.cancelled for s in subs)
        assert server._docs == {}

    def test_round_report_counts_empty_round(self):
        server = QueryServer([resto_service()])
        server.subscribe(NAMES, hotels_doc())
        report = server.run_round()
        assert report.outcomes == ()
        assert report.counts() == {}

    def test_rounds_are_traced(self):
        sink = repro.InMemorySink()
        server = QueryServer(
            [resto_service()], config=EngineConfig.serving(), trace=sink
        )
        doc = hotels_doc()
        server.subscribe(RESTOS, doc)
        doc.insert_subtree(doc.root, E("parking", E("spot", V("L1"))))
        server.run_round()
        names = [span.name for span in sink.spans]
        assert "serve_round" in names
        assert "serve_refresh" in names


# ---------------------------------------------------------------------------
# Relevance family: the server certifies quiet rounds with the engine's own
# round-1 family
# ---------------------------------------------------------------------------


class _FamilyBuilt(Exception):
    """Stops an evaluation as soon as its round-1 family exists."""


def _engine_family(gen, query, config, monkeypatch):
    built = []
    build = _EvaluationState._build_relevance_queries

    def capture(state):
        built.extend(build(state))
        raise _FamilyBuilt

    monkeypatch.setattr(_EvaluationState, "_build_relevance_queries", capture)
    engine = LazyQueryEvaluator(gen.make_bus(), config=config)
    with pytest.raises(_FamilyBuilt):
        engine.evaluate(query, gen.make_document(0))
    monkeypatch.undo()
    return built


def _family_signature(family):
    return [(rq.target_uid, rq.pattern.to_string()) for rq in family]


@pytest.mark.parametrize(
    "strategy",
    [Strategy.LAZY_NFQ, Strategy.LAZY_LPQ, Strategy.TOP_DOWN],
    ids=lambda s: s.value,
)
@pytest.mark.parametrize(
    "name", ["baseline", "bursty-tenants", "multi-root-standing"]
)
def test_served_family_is_the_engines_round_one_family(
    name, strategy, monkeypatch
):
    gen = regime(name)
    config = EngineConfig.serving(strategy=strategy)
    for query in gen.queries():
        served = relevance_family(query, config)
        engine = _engine_family(gen, query, config, monkeypatch)
        assert served, (name, query.to_string())
        assert _family_signature(served) == _family_signature(engine), (
            name,
            query.to_string(),
        )
