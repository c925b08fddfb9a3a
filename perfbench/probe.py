"""Per-layer instrumentation for the traced benchmark run.

Everything here lives on the benchmark side: the program's classes are
wrapped from outside for the duration of a traced query set and
restored afterwards, so untraced runs execute the program untouched.

Two kinds of wrapper:

* **Spans.**  Each splice observer's public ``.splice`` (arena, label
  index, relevance cache, answer cache) opens a span on the engine's
  own tracer, so it nests under the engine span that triggered it
  (``invocation``, ``round``...) with a parent link.  Self times from
  :func:`repro.obs.phase_profile` then charge splice maintenance to the
  observer instead of to the engine phase around it.
* **Timers.**  Public entry points of the other layers are timed
  inclusively (outermost call only, so recursion and delegation do not
  double count) and counted.  They open no span, so they never move an
  engine phase's self time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Optional

from repro.axml.arena import DocumentArena
from repro.axml.document import Document
from repro.axml.index import LabelIndex
from repro.lazy.answers import AnswerCache
from repro.lazy.continuous import ContinuousQuery
from repro.lazy.engine import LazyQueryEvaluator
from repro.lazy.incremental import RelevanceCache
from repro.obs import Tracer
from repro.pattern.columnmatch import ColumnMatcher
from repro.pattern.match import Matcher
from repro.pattern.multimatch import GroupPassResult, PatternGroup
from repro.serve import QueryServer
from repro.services.registry import ServiceBus

# (span name, class, method): observer maintenance made visible.
SPANNED = (
    ("axml.arena.splice", DocumentArena, "splice"),
    ("axml.index.splice", LabelIndex, "splice"),
    ("lazy.incremental.splice", RelevanceCache, "splice"),
    ("lazy.answers.splice", AnswerCache, "splice"),
)

# (timer name, class, methods, timer that must not be active).  A
# per-query match inside a group pass is the group pass's work.
TIMED = (
    ("axml.document.splice", Document,
     ("replace_call", "insert_subtree", "remove_subtree"), None),
    ("pattern.match.evaluate", Matcher,
     ("evaluate_at", "evaluate_scoped"), "pattern.multimatch.evaluate"),
    ("pattern.multimatch.evaluate", PatternGroup, ("evaluate",), None),
    ("pattern.columnmatch.run", ColumnMatcher, ("run",), None),
    ("services.bus.invoke", ServiceBus, ("invoke", "invoke_batch"), None),
    ("lazy.continuous.refresh", ContinuousQuery, ("refresh",), None),
    ("lazy.continuous.serve_maintained", ContinuousQuery,
     ("serve_maintained",), None),
    ("serve.server.run_round", QueryServer, ("run_round",), None),
    ("serve.server.subscribe", QueryServer, ("subscribe",), None),
)

# Engine Metrics fields summed over every evaluation of a traced set.
METRIC_FIELDS = (
    "calls_invoked",
    "invocation_rounds",
    "relevance_evaluations",
    "relevance_queries_built",
    "match_candidates_visited",
    "match_can_checks",
    "column_pass_nodes",
    "column_fallbacks",
    "faults",
    "cache_hits",
    "relevance_cache_hits",
    "queries_reevaluated",
)


class LayerProbe:
    """Wraps the program's layers while :meth:`installed` is active.

    ``tracer`` is the :class:`repro.obs.Tracer` the engine under test
    was configured with; observer spans open on it.  Timers, counts and
    summed engine metrics accumulate until :meth:`reset`.
    """

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self.reset()

    def reset(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.metrics: dict[str, int] = defaultdict(int)
        self.arena_bytes = 0
        self.group_nodes_visited = 0
        self.group_skipped_subtrees = 0
        self.answer_caches: list[AnswerCache] = []
        self._active: dict[str, int] = defaultdict(int)

    def installed(self) -> "_Installed":
        return _Installed(self)

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.tracer is None:
                return fn(*args, **kwargs)
            with self.tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name, fn, excluded):
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if active[name] or (excluded and active[excluded]):
                return fn(*args, **kwargs)
            active[name] += 1
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - started
                self.calls[name] += 1
                active[name] -= 1
            if isinstance(result, GroupPassResult):
                self.group_nodes_visited += result.nodes_visited
                self.group_skipped_subtrees += result.skipped_subtrees
            return result

        return wrapper

    def _registering(self, fn):
        @functools.wraps(fn)
        def wrapper(cache, *args, **kwargs):
            fn(cache, *args, **kwargs)
            self.answer_caches.append(cache)

        return wrapper

    def answer_counter(self, name: str) -> int:
        """``name`` summed over every answer cache built while installed
        (engine refreshes and the server's maintained serves alike)."""
        return sum(cache.counters()[name] for cache in self.answer_caches)

    def _collecting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outcome = fn(*args, **kwargs)
            metrics = outcome.metrics
            for field in METRIC_FIELDS:
                self.metrics[field] += getattr(metrics, field)
            self.arena_bytes = max(self.arena_bytes, metrics.arena_bytes)
            return outcome

        return wrapper


class _Installed:
    """Context manager patching the wrappers in and restoring them."""

    def __init__(self, probe: LayerProbe) -> None:
        self.probe = probe
        self.saved: list[tuple[type, str, object]] = []

    def _patch(self, cls: type, method: str, wrapper) -> None:
        self.saved.append((cls, method, cls.__dict__[method]))
        setattr(cls, method, wrapper)

    def __enter__(self) -> LayerProbe:
        probe = self.probe
        for name, cls, method in SPANNED:
            self._patch(cls, method, probe._spanned(name, getattr(cls, method)))
        for name, cls, methods, excluded in TIMED:
            for method in methods:
                self._patch(
                    cls, method, probe._timed(name, getattr(cls, method), excluded)
                )
        self._patch(
            LazyQueryEvaluator,
            "evaluate",
            probe._collecting(LazyQueryEvaluator.evaluate),
        )
        self._patch(
            AnswerCache, "__init__", probe._registering(AnswerCache.__init__)
        )
        return probe

    def __exit__(self, *exc: object) -> bool:
        for cls, method, original in reversed(self.saved):
            setattr(cls, method, original)
        self.saved.clear()
        return False
