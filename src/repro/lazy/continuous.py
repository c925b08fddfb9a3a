"""Continuous queries: keeping a full result fresh as documents evolve.

Section 1 of the paper: because "service invocations possibly return
data containing calls to new services ... the detection of relevant
calls becomes a continuous process."  The lazy evaluator is naturally
incremental — re-evaluating over an already-complete document invokes
nothing — so a continuous query is a change-aware wrapper:

* :meth:`ContinuousQuery.refresh` returns the cached outcome instantly
  while the document version is unchanged.  After a mutation it
  consults the maintained answer first (``maintain_answers``): when
  every delta since the last refresh was screened clean against the
  query's guard footprint, the cached result is provably current and
  the engine is skipped outright; otherwise the evaluation re-runs,
  with the final match served by dirty-subtree re-matching from the
  :class:`~repro.lazy.answers.AnswerCache` instead of a full document
  match.  Without ``maintain_answers`` the refresh re-runs the (lazy,
  incremental) evaluation in full — the differential oracle;
* the bus-level call cache is invalidated *scoped*: only the services
  whose call nodes the mutations actually touched are dropped, at most
  once per document version, so standing queries sharing one bus no
  longer evict each other's memoized replies;
* the wrapper never copies the document: it evaluates in place, exactly
  like a standing subscription in the ActiveXML system would.
"""

from __future__ import annotations

from typing import Optional

from ..axml.document import Document
from ..pattern.pattern import TreePattern
from ..services.service import PushMode
from .answers import AnswerCache, ServiceTouchTracker
from .config import Strategy
from .engine import EvaluationOutcome, LazyQueryEvaluator
from .metrics import Metrics


class ContinuousQuery:
    """A standing query over one (mutating) AXML document.

    This is the engine-facing core; the friendly front door is
    ``repro.subscribe`` (or :meth:`repro.serve.QueryServer.subscribe`),
    which returns a :class:`~repro.serve.Subscription` wrapping one of
    these — with input coercion, a delta stream and admission control
    on top.
    """

    def __init__(
        self,
        evaluator: LazyQueryEvaluator,
        query: TreePattern,
        document: Document,
        eager: bool = True,
    ) -> None:
        self.evaluator = evaluator
        self.query = query
        self.document = document
        self._outcome: Optional[EvaluationOutcome] = None
        self._evaluated_version: Optional[int] = None
        self.refresh_count = 0
        """Refreshes that ran the engine (including maintained ones)."""
        self.engine_skips = 0
        """Refreshes answered from the maintained answer without
        running the engine at all."""
        self.maintained_serves = 0
        """Refreshes served by :meth:`serve_maintained`: the serving
        layer proved relevance quiet, so the answer came straight from
        the :class:`~repro.lazy.answers.AnswerCache` (dirty scopes
        re-matched in place) without running the engine."""
        self._tracker = ServiceTouchTracker(document)
        self._cache: Optional[AnswerCache] = None
        config = evaluator.config
        if (
            config.maintain_answers
            and config.push_mode is not PushMode.BINDINGS
        ):
            # Overlay rows change match results without document events,
            # so maintained answers stay off under pushed bindings.
            self._cache = AnswerCache(
                query,
                document,
                options=evaluator.match_options,
                any_call_relevant=config.strategy is Strategy.NAIVE,
            )
        if eager:
            self.refresh()

    @property
    def answer_cache(self) -> Optional[AnswerCache]:
        """The maintained answer, when ``maintain_answers`` is on."""
        return self._cache

    @property
    def is_stale(self) -> bool:
        """Has the document changed since the last refresh?"""
        return self._evaluated_version != self.document.version

    def close(self) -> None:
        """Detach the document observers (the standing query ends)."""
        self._tracker.detach()
        if self._cache is not None:
            self._cache.detach()
            self._cache = None

    def refresh(self) -> EvaluationOutcome:
        """Return the up-to-date full result, re-evaluating if needed.

        Note that the evaluation itself bumps the document version (it
        invokes calls); the version recorded is the *post-evaluation*
        one, so a quiescent document never re-evaluates.
        """
        if self._outcome is not None and not self.is_stale:
            return self._outcome
        if self._outcome is not None:
            # The document mutated under a standing query: memoized
            # replies of the *touched* services may describe a world
            # that no longer exists.  The drop is scoped — per service,
            # at most once per document version — so standing queries
            # sharing one bus no longer wipe each other's (provably
            # unaffected) memoized replies.
            self.evaluator.bus.invalidate_cache_scoped(
                self.document, self._tracker.drain()
            )
            if (
                self._cache is not None
                and self._cache.is_current
                and self._outcome.metrics.completed
            ):
                # Every delta since the last refresh was screened clean
                # by the guard footprint: no answer row and no relevance
                # result changed, so a full re-evaluation (starting from
                # the previous quiescent state) would invoke nothing and
                # return exactly the cached rows.  Skip the engine.
                self._cache.note_hit()
                self.engine_skips += 1
                self._evaluated_version = self.document.version
                return self._outcome
        else:
            # Nothing evaluated yet: mutations so far predate the first
            # outcome, and the bus cache holds nothing of ours.
            self._tracker.drain()
        self._outcome = self.evaluator.evaluate(
            self.query, self.document, answer_cache=self._cache
        )
        self._evaluated_version = self.document.version
        self.refresh_count += 1
        return self._outcome

    def serve_maintained(self) -> Optional[EvaluationOutcome]:
        """Refresh without the engine, given external proof of quiet.

        The serving layer's cross-tenant group pass
        (:class:`~repro.serve.QueryServer`) re-evaluates *every* due
        subscription's relevance family in one shared traversal.  When
        that pass shows this query retrieves no eligible call (and the
        document holds no ``IMMEDIATE``-activation call), a full engine
        run would invoke nothing — every layer goes quiet immediately —
        and its final match equals the maintained answer.  This method
        performs exactly the refresh bookkeeping minus the engine:
        scoped call-cache invalidation, dirty-scope re-matching through
        the :class:`~repro.lazy.answers.AnswerCache`, version stamping.

        Returns ``None`` when the shortcut is not available — nothing
        evaluated yet, no maintained answer, or the previous evaluation
        did not complete (budget exhaustion may have left genuinely
        relevant calls uninvoked, so only the engine can certify the
        result).  The caller must then fall back to :meth:`refresh`.

        The *proof obligation is the caller's*: calling this without a
        current relevance pass can serve stale rows.
        """
        if self._outcome is not None and not self.is_stale:
            return self._outcome
        if (
            self._outcome is None
            or self._cache is None
            or not self._outcome.metrics.completed
        ):
            return None
        self.evaluator.bus.invalidate_cache_scoped(
            self.document, self._tracker.drain()
        )
        if self._cache.is_current:
            # Guard-screened: same shortcut refresh() would take.
            self._cache.note_hit()
            self.engine_skips += 1
            self._evaluated_version = self.document.version
            return self._outcome
        rows = self._cache.rows()
        metrics = Metrics(
            strategy=self.evaluator.config.label, completed=True
        )
        metrics.result_rows = len(rows)
        metrics.maintained_rows = len(rows)
        self._outcome = EvaluationOutcome(
            query=self.query,
            document=self.document,
            rows=rows,
            metrics=metrics,
            rounds=[],
            overlay=None,
        )
        self._evaluated_version = self.document.version
        self.maintained_serves += 1
        return self._outcome

    def peek(self) -> Optional[EvaluationOutcome]:
        """The last computed outcome (possibly stale), or ``None``."""
        return self._outcome

    def value_rows(self) -> set[tuple[str, ...]]:
        """Convenience: refreshed result rows as value tuples."""
        return self.refresh().value_rows()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "stale" if self.is_stale else "fresh"
        return (
            f"ContinuousQuery({self.query.name!r}, {state}, "
            f"refreshes={self.refresh_count}, skips={self.engine_skips})"
        )
