"""Self-checks of the benchmark on small inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import pytest

import bench
from probe import SPANNED, TIMED, LayerProbe
from repro.lazy.answers import AnswerCache
from repro.lazy.engine import LazyQueryEvaluator

SMALL = {
    "bulk-splice": {"min_nodes": 600},
    "bulk-columnar": {"min_nodes": 600},
    "nested-nfqa": {"documents": 6},
}


def _run(name: str, traced: bool, seed: int = 7) -> bench.RunLog:
    workload = bench.WORKLOADS[name]
    log = bench.RunLog()
    if workload.regime == "bursty-tenants":
        inputs = bench.serve_inputs(workload, seed, rounds=6, min_nodes=200)
        bench.run_serve(workload, inputs, 0.0, traced, log)
    else:
        inputs = bench.oneshot_inputs(workload, seed, **SMALL[name])
        bench.run_oneshot(workload, inputs, 0.0, traced, log)
    return log


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_counts_repeat_across_runs_and_under_tracing(name):
    """Calls, service seconds, rounds, relevance evaluations, splices and
    serve statuses repeat exactly: run to run, set to set, and between
    traced and untraced sets, so tracing changes no work."""
    runs = [_run(name, traced) for traced in (False, True, False)]
    for log in runs:
        assert log.attempted > 0 and log.failed == 0
        assert all(counts == log.set_counts[0] for counts in log.set_counts)
    assert runs[0].set_counts[0] == runs[1].set_counts[0] == runs[2].set_counts[0]
    assert len(runs[1].set_counts) >= 2  # one untraced and one traced set


def test_traced_run_reports_per_layer_metrics():
    log = _run("bulk-columnar", traced=True)
    layers = bench.per_layer(log)
    assert layers["axml.arena.splice_s"]["value"] > 0
    assert layers["lazy.engine.relevance_s"]["value"] > 0
    assert 0.0 <= layers["trace.unattributed_share"]["value"] < 1.0


def test_gate_counts_a_wrong_answer():
    workload = bench.WORKLOADS["bulk-splice"]
    inputs = bench.oneshot_inputs(workload, 7, **SMALL["bulk-splice"])
    outcome, bus = bench._evaluate_pair(inputs, workload.config(), 0, 0)
    right = (frozenset(outcome.value_rows()), bench._log_of(bus))
    wrong = (frozenset({("not-an-answer",)}), right[1])
    log = bench.RunLog()
    bench._gate_oneshot(workload, inputs, {(0, 0): [right, wrong]}, log)
    assert log.failed == 1


def test_probe_restores_every_wrapped_method():
    originals = [
        (cls, method, cls.__dict__[method])
        for _, cls, method in SPANNED
    ] + [
        (cls, method, cls.__dict__[method])
        for _, cls, methods, _ in TIMED
        for method in methods
    ] + [
        (LazyQueryEvaluator, "evaluate", LazyQueryEvaluator.__dict__["evaluate"]),
        (AnswerCache, "__init__", AnswerCache.__dict__["__init__"]),
    ]
    with LayerProbe().installed():
        assert any(cls.__dict__[m] is not f for cls, m, f in originals)
    assert all(cls.__dict__[m] is f for cls, m, f in originals)


def test_host_speed_samples_while_open_and_restores_the_timer():
    import signal

    from hostspeed import HostSpeed

    before = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed()
    assert speed.end(speed.begin())[1] is None  # never opened: no reference
    with speed:
        token = speed.begin()
        total = 0
        while len(speed.samples) < 3:
            total += 1
        cpu, reference = speed.end(token)
    assert cpu > 0 and reference > 0
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
