"""Engine configuration: strategies and tunables."""

from __future__ import annotations

import dataclasses
import difflib
import enum
from typing import Optional, Union

from ..obs.trace import NullTracer, TraceSink, Tracer
from ..pattern.match import MatchOptions
from ..services.resilience import CircuitBreakerPolicy, RetryPolicy
from ..services.service import PushMode


class Strategy(enum.Enum):
    """The evaluation strategies compared throughout the paper.

    * ``NAIVE`` — Section 1's strawman: invoke every call recursively to
      a fixpoint, then run the query on the materialised document.
    * ``TOP_DOWN`` — Section 1's "less naive" baseline: traverse the
      document top-down along the query paths, invoking (sequentially,
      with restarts) every call encountered on a traversed path.  Its
      invocation set coincides with the LPQ criterion, but it neither
      batches nor parallelises.
    * ``LAZY_LPQ`` — relevant-call detection with linear path queries
      (Section 3.1; also the "relaxed NFQ" end of Section 6.1).
    * ``LAZY_NFQ`` — node-focused queries (Section 3.2): exact relevance
      under the any-output assumption (Proposition 1).
    * ``LAZY_NFQ_TYPED`` — NFQs refined with function signatures
      (Section 5): exact relevance.
    """

    NAIVE = "naive"
    TOP_DOWN = "top-down"
    LAZY_LPQ = "lazy-lpq"
    LAZY_NFQ = "lazy-nfq"
    LAZY_NFQ_TYPED = "lazy-nfq-typed"


class TypingMode(enum.Enum):
    """Which satisfiability oracle refines the NFQs (Sections 5, 6.1)."""

    NONE = "none"
    LENIENT = "lenient"
    EXACT = "exact"


class FaultPolicy(enum.Enum):
    """What to do when a service invocation fails.

    * ``RAISE`` — propagate the fault to the caller (the default);
    * ``FREEZE`` — mark the faulted call
      :attr:`~repro.axml.node.Activation.FROZEN` and continue: the
      document keeps the intensional call, answers degrade to "what the
      available data supports", and nothing is lost.  The recommended
      (and default) non-raising policy;
    * ``RETRY`` — re-attempt per :class:`EngineConfig.retry` with
      backoff; calls still failing after the last attempt (or
      short-circuited by an open breaker) are frozen, as in ``FREEZE``.
    """

    RAISE = "raise"
    FREEZE = "freeze"
    RETRY = "retry"

    @classmethod
    def default_non_raising(cls) -> "FaultPolicy":
        """The policy tolerant configurations should reach for."""
        return cls.FREEZE


@dataclasses.dataclass(kw_only=True)
class EngineConfig:
    """Tunables of :class:`repro.lazy.engine.LazyQueryEvaluator`.

    Defaults reproduce the paper's full system: layered NFQA with
    parallel rounds, no F-guide (opt in), no pushing (opt in).

    All fields are keyword-only and validated on construction — a bad
    value fails immediately with the offending field named, instead of
    surfacing deep inside the engine.
    """

    strategy: Strategy = Strategy.LAZY_NFQ
    typing: TypingMode = TypingMode.NONE
    use_layers: bool = True
    parallel: bool = True
    speculative: bool = False
    """Fire *every* currently-relevant call of a round in parallel, even
    when condition (*) does not guarantee independence — Section 4.4's
    closing remark: "one may be able to reduce the time it takes to
    produce the answer by calling functions in parallel just in case".
    Trades possibly-wasted invocations for fewer rounds; never changes
    the result (results of calls that turn out irrelevant cannot
    contribute to any embedding)."""
    use_fguide: bool = False
    push_mode: PushMode = PushMode.NONE
    dedupe_relevance_queries: bool = True
    drop_value_joins: bool = False
    fault_policy: FaultPolicy = FaultPolicy.RAISE
    retry: RetryPolicy = RetryPolicy()
    """Retry/backoff/timeout tunables, active under
    ``FaultPolicy.RETRY`` (other policies make a single attempt, though
    ``retry.timeout_s`` still bounds it)."""
    breaker: Optional[CircuitBreakerPolicy] = CircuitBreakerPolicy()
    """Per-service circuit breaking; ``None`` disables it.  Breaker
    *state* lives on the bus, so it persists across evaluations that
    share a :class:`~repro.services.registry.ServiceBus`."""
    validate_io: bool = False
    """Validate call parameters against the service input type before
    invoking, and (un-pushed) results against the output type after —
    the [21] interplay the paper's introduction describes.  Violations
    follow ``fault_policy``: raise a SchemaError, or count-and-continue.
    """
    max_invocations: int = 100_000
    max_rounds: int = 100_000
    max_concurrency: int = 1
    """How many calls of one parallel round may be in flight at once on
    the simulated clock.  1 (the default) keeps the legacy serial clock;
    > 1 dispatches each round as a batch through the bus scheduler and
    charges the batch's *makespan* instead of the sum (Section 4.4's
    non-blocking independent calls)."""
    use_threads: bool = True
    """Under ``max_concurrency > 1``, also run the real service work on
    a thread pool (grouped per service) so wall-clock-heavy services
    overlap.  Never affects simulated accounting."""
    call_cache: bool = False
    """Memoize call replies on the bus (service + argument-forest
    digest): duplicate calls cost zero simulated time.  Opt-in because
    it assumes services are functions of their parameters."""
    incremental: bool = False
    """Incremental relevance analysis: maintain a
    :class:`~repro.axml.index.LabelIndex` through splice deltas (the
    matcher serves descendant steps from it) and memoize each relevance
    query's retrieved-call set, re-running only the queries whose label
    footprint a splice touched (``repro.lazy.incremental``).  Never
    changes answers or invocation sets; opt-in so the exhaustive
    re-evaluation stays available as the oracle.  Ignored by the
    non-lazy strategies and under ``push_mode=BINDINGS`` (overlay
    rows change match results without document events)."""
    shared_matching: bool = False
    """Shared relevance matching: compile the layer's relevance queries
    into one :class:`~repro.pattern.multimatch.PatternGroup` and answer
    them all in a single projected document pass per round, instead of
    one full traversal per query (``repro.pattern.multimatch``).
    Composes with ``incremental`` (the group pass only re-runs cache
    misses, and the cache screens splices against the family's merged
    footprint) and with ``use_fguide`` (the guide then seeds the
    projection set; retrieved sets follow full NFQ semantics rather
    than the guide's boolean residual filter, which can only shrink
    them).  Never changes answers or invocation order; opt-in so the
    per-query walker stays available as the oracle.  Ignored by the
    non-lazy strategies and under ``push_mode=BINDINGS`` (overlay
    lookups are keyed by the actual pattern node, which canonical
    sharing would conflate)."""
    arena: bool = False
    """Column-backed matching: mirror the document into a
    :class:`~repro.axml.arena.DocumentArena` (struct-of-arrays over
    interned label ids, maintained through splice deltas) and serve the
    hot traversals — descendant candidate enumeration, exists-below
    checks, group-pass projection, label-index rebuilds — as tight
    loops over the int columns instead of object walks.  Never changes
    answers; opt-in so the object walk stays available as the
    differential oracle.  An arena already attached to the document (as
    ``document.arena``, e.g. by the workload factory) is reused;
    otherwise the engine builds one per evaluation and detaches it at
    teardown."""
    column_match: bool = False
    """Column-native pattern matching: compile each pattern into a
    slot-level plan and evaluate it *entirely* over the arena's int
    columns (``repro.pattern.columnmatch``), materialising ``Node``
    objects only for the final result rows.  Requires ``arena`` (auto-
    off without one); stands down per evaluation — counted as
    ``column_fallbacks`` — on ``push_mode=BINDINGS`` overlays and on
    shapes the plan compiler refuses (OR nodes, interior data
    wildcards), where the object walk answers as before.  Never changes
    answers or invocation order; opt-in so the walk stays the
    differential oracle."""
    maintain_answers: bool = False
    """Delta-driven answer maintenance for continuous queries
    (``repro.lazy.answers``): materialise the standing query's snapshot
    result per depth-1 document subtree, screen every splice against the
    query's label footprint, and on refresh re-match only the dirty
    subtrees — splicing added/retracted rows into the cached
    :class:`~repro.pattern.match.MatchSet` instead of re-running the
    final match from scratch.  When every delta since the last refresh
    was screened clean against the family's guard footprint, the refresh
    skips the engine entirely.  Never changes answers or invocation
    order; opt-in so full re-evaluation stays available as the
    differential oracle.  Ignored under ``push_mode=BINDINGS`` (overlay
    rows change match results without document events) and outside
    :class:`~repro.lazy.continuous.ContinuousQuery` (one-shot
    evaluations have no cache to maintain)."""
    call_cache_ttl_s: Optional[float] = None
    """Expiry for memoized replies, in *simulated* seconds (None =
    no expiry).  Only meaningful with ``call_cache=True``."""
    match_options: Optional[MatchOptions] = None
    """Embedding-semantics knobs for every matcher the engine builds
    (:class:`~repro.pattern.match.MatchOptions`), so one config object
    can carry the complete evaluation behaviour.  ``None`` (the
    default) means the engine's defaults; passing *both* this and the
    separate ``match_options=`` argument of ``repro.evaluate`` /
    :class:`~repro.lazy.engine.LazyQueryEvaluator` with differing
    values raises instead of silently preferring one."""
    trace: Union[TraceSink, Tracer, NullTracer, None] = None
    """Where evaluation spans go: a :class:`repro.obs.TraceSink` (the
    engine wraps a tracer around it, binding the simulated clock to the
    bus), an existing :class:`repro.obs.Tracer`, or ``None`` (tracing
    off, the default — near-zero overhead)."""

    _BOOL_FIELDS = (
        "use_layers",
        "parallel",
        "speculative",
        "use_fguide",
        "dedupe_relevance_queries",
        "drop_value_joins",
        "validate_io",
        "use_threads",
        "call_cache",
        "incremental",
        "shared_matching",
        "arena",
        "column_match",
        "maintain_answers",
    )

    def __post_init__(self) -> None:
        # Enum-valued fields accept the enum's string value ("retry",
        # "lazy-nfq"...): a plain string would compare unequal to the
        # enum and silently change semantics; coerce or fail loudly,
        # naming the field.
        self.strategy = self._coerce_enum("strategy", Strategy, self.strategy)
        self.typing = self._coerce_enum("typing", TypingMode, self.typing)
        self.push_mode = self._coerce_enum("push_mode", PushMode, self.push_mode)
        self.fault_policy = self._coerce_enum(
            "fault_policy", FaultPolicy, self.fault_policy
        )
        for name in self._BOOL_FIELDS:
            if not isinstance(getattr(self, name), bool):
                raise TypeError(
                    f"EngineConfig.{name} must be a bool, "
                    f"got {getattr(self, name)!r}"
                )
        for name in ("max_invocations", "max_rounds", "max_concurrency"):
            bound = getattr(self, name)
            if not isinstance(bound, int) or isinstance(bound, bool) or bound < 1:
                raise ValueError(
                    f"EngineConfig.{name} must be a positive integer, "
                    f"got {bound!r}"
                )
        if self.call_cache_ttl_s is not None and (
            not isinstance(self.call_cache_ttl_s, (int, float))
            or isinstance(self.call_cache_ttl_s, bool)
            or self.call_cache_ttl_s <= 0
        ):
            raise ValueError(
                f"EngineConfig.call_cache_ttl_s must be a positive number "
                f"or None, got {self.call_cache_ttl_s!r}"
            )
        if not isinstance(self.retry, RetryPolicy):
            raise TypeError(
                f"EngineConfig.retry must be a RetryPolicy, got {self.retry!r}"
            )
        if self.breaker is not None and not isinstance(
            self.breaker, CircuitBreakerPolicy
        ):
            raise TypeError(
                f"EngineConfig.breaker must be a CircuitBreakerPolicy "
                f"or None, got {self.breaker!r}"
            )
        if self.match_options is not None and not isinstance(
            self.match_options, MatchOptions
        ):
            raise TypeError(
                f"EngineConfig.match_options must be a MatchOptions or "
                f"None, got {self.match_options!r}"
            )
        if self.trace is not None and not (
            isinstance(self.trace, (Tracer, NullTracer))
            or hasattr(self.trace, "on_span_end")
        ):
            raise TypeError(
                f"EngineConfig.trace must be a TraceSink, a Tracer or "
                f"None, got {self.trace!r}"
            )
        if self.strategy is Strategy.LAZY_NFQ_TYPED and self.typing is TypingMode.NONE:
            self.typing = TypingMode.LENIENT
        if self.strategy in (Strategy.NAIVE, Strategy.TOP_DOWN):
            self.use_layers = False
        if self.strategy is Strategy.TOP_DOWN:
            self.parallel = False

    @staticmethod
    def _coerce_enum(name, enum_type, value):
        if isinstance(value, enum_type):
            return value
        try:
            return enum_type(value)
        except ValueError:
            choices = ", ".join(repr(member.value) for member in enum_type)
            raise ValueError(
                f"EngineConfig.{name} must be a {enum_type.__name__} "
                f"(or one of {choices}), got {value!r}"
            ) from None

    @classmethod
    def tolerant(cls, **kwargs) -> "EngineConfig":
        """A config that survives remote faults without losing data:
        ``FREEZE`` (the non-raising default) unless overridden."""
        kwargs.setdefault("fault_policy", FaultPolicy.default_non_raising())
        return cls(**kwargs)

    @classmethod
    def serving(cls, **kwargs) -> "EngineConfig":
        """The preset for long-lived standing queries behind a
        :class:`~repro.serve.QueryServer` (or ``repro.subscribe``).

        Everything the serving layer leans on is switched on at once:
        delta-driven answer maintenance (engine skips on quiet
        refreshes), incremental relevance analysis, the shared
        multi-query matching pass, the bus-level call cache, a
        concurrent invocation scheduler, and the non-raising ``FREEZE``
        fault policy — a server must degrade, not raise.  Every choice
        can be overridden by keyword, e.g.
        ``EngineConfig.serving(call_cache=False)``.
        """
        kwargs.setdefault("maintain_answers", True)
        kwargs.setdefault("incremental", True)
        kwargs.setdefault("shared_matching", True)
        kwargs.setdefault("call_cache", True)
        kwargs.setdefault("max_concurrency", 4)
        kwargs.setdefault("fault_policy", FaultPolicy.default_non_raising())
        return cls(**kwargs)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Every configurable field, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def nearest_field(cls, name: str) -> Optional[str]:
        """The configured field whose name is closest to ``name``.

        The serving entry points accept exactly one ``config=`` object
        and no loose engine kwargs; when a caller passes one anyway
        (``QueryServer(..., maintain_answer=True)``), the rejection
        names the nearest real :class:`EngineConfig` field — the same
        fail-loudly-naming-the-field contract ``__post_init__``
        applies to bad values.
        """
        matches = difflib.get_close_matches(
            name, cls.field_names(), n=1, cutoff=0.4
        )
        return matches[0] if matches else None

    @property
    def label(self) -> str:
        parts = [self.strategy.value]
        if self.typing is not TypingMode.NONE and self.strategy not in (
            Strategy.NAIVE,
            Strategy.TOP_DOWN,
        ):
            parts.append(self.typing.value)
        if self.speculative:
            parts.append("spec")
        if self.use_fguide:
            parts.append("fguide")
        if self.push_mode is not PushMode.NONE:
            parts.append(f"push-{self.push_mode.value}")
        if self.max_concurrency > 1:
            parts.append(f"conc{self.max_concurrency}")
        if self.call_cache:
            parts.append("cache")
        if self.incremental:
            parts.append("inc")
        if self.shared_matching:
            parts.append("shared")
        if self.arena:
            parts.append("arena")
        if self.column_match:
            parts.append("colmatch")
        if self.maintain_answers:
            parts.append("ans")
        return "+".join(parts)
