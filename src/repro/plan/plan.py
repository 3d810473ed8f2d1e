"""Compiled pattern plans: the compile-once / run-many seam.

A :class:`PatternPlan` bundles everything that is derivable from a SES
pattern alone — the built automaton with its transition tables trimmed
(:func:`repro.automaton.minimize.trim`), the Section 4.5 constant-
condition prefilter compiled to per-attribute predicate vectors for both
filter modes, the applied compile-time rewrites, and the pattern's
canonical fingerprint.  Plans are immutable and picklable: parallel
workers receive the pickled plan instead of rebuilding the automaton,
and the process-global :class:`~repro.plan.cache.PlanCache` shares one
plan across every matcher that compiles an equal pattern.

Execution state never lives on the plan.  ``match`` / ``executor`` /
``stream`` hand out fresh executors that share the plan's stateless
prefilter, so one plan can serve any number of concurrent matchers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple, Union

from ..automaton.automaton import SESAutomaton
from ..automaton.builder import build_automaton
from ..automaton.executor import MatchResult, SESExecutor
from ..automaton.minimize import trim
from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.relation import EventRelation
from .fingerprint import aggregate_fingerprint, pattern_fingerprint
from .prefilter import FILTER_MODES, VectorizedPrefilter

__all__ = ["PatternPlan", "OPTIMIZATIONS", "DEFAULT_OPTIMIZATIONS",
           "build_plan"]

#: Optimizations :func:`repro.compile` knows about.  ``"trim"`` removes
#: provably dead transitions and unreachable states from the automaton
#: (result-preserving).
OPTIMIZATIONS = ("trim",)
DEFAULT_OPTIMIZATIONS = ("trim",)


def normalise_optimizations(optimizations) -> Tuple[str, ...]:
    """Validate and canonicalise an optimizations spec."""
    if optimizations is None:
        return DEFAULT_OPTIMIZATIONS
    out = tuple(sorted(set(optimizations)))
    unknown = [name for name in out if name not in OPTIMIZATIONS]
    if unknown:
        raise ValueError(
            f"unknown optimizations {unknown!r}; known: {OPTIMIZATIONS}")
    return out


def build_plan(pattern: SESPattern,
               optimizations: Optional[Iterable[str]] = None,
               fingerprint: Optional[str] = None,
               aggregate=None) -> "PatternPlan":
    """Compile ``pattern`` into a fresh :class:`PatternPlan` (no cache).

    ``aggregate`` (an :class:`~repro.agg.spec.AggregateSpec`) turns the
    plan into an aggregation plan: its executors fold incrementally
    instead of enumerating, and the fingerprint is suffixed so the plan
    cache never conflates it with the enumeration plan of the same
    pattern.
    """
    if not isinstance(pattern, SESPattern):
        raise TypeError(f"expected SESPattern, got {type(pattern).__name__}")
    optimizations = normalise_optimizations(optimizations)
    if fingerprint is None:
        fingerprint = pattern_fingerprint(pattern, optimizations)
        if aggregate is not None:
            fingerprint = aggregate_fingerprint(fingerprint, aggregate)
    if aggregate is not None:
        aggregate.validate(pattern)
    automaton = build_automaton(pattern)
    rewrites = []
    if "trim" in optimizations:
        report = trim(automaton)
        if not report.satisfiable or report.changed:
            rewrites.append(f"trim: {report.describe()}")
        if report.satisfiable:
            automaton = report.automaton
    prefilters = {mode: VectorizedPrefilter(pattern, mode)
                  for mode in FILTER_MODES}
    return PatternPlan(pattern=pattern, automaton=automaton,
                       fingerprint=fingerprint, optimizations=optimizations,
                       prefilters=prefilters, rewrites=tuple(rewrites),
                       aggregate=aggregate)


class PatternPlan:
    """An immutable, picklable compiled form of one SES pattern.

    Build plans with :func:`repro.compile` (which consults the process-
    global plan cache) rather than directly.  The run-time API:

    * :meth:`match` — batch execution over a relation, with the same
      options every matcher understands (``selection=``, ``consume=``,
      ``workers=``, ``partition_by=``, ``observability=``);
    * :meth:`executor` — a fresh incremental :class:`SESExecutor`;
    * :meth:`stream` — a continuous (optionally partitioned) matcher.
    """

    def __init__(self, pattern: SESPattern, automaton: SESAutomaton,
                 fingerprint: str, optimizations: Tuple[str, ...],
                 prefilters: Dict[str, VectorizedPrefilter],
                 rewrites: Tuple[str, ...] = (), aggregate=None):
        self._pattern = pattern
        self._automaton = automaton
        self._fingerprint = fingerprint
        self._optimizations = tuple(optimizations)
        self._prefilters = dict(prefilters)
        self._rewrites = tuple(rewrites)
        self._aggregate = aggregate

    # ------------------------------------------------------------------
    # Compile-time artifacts
    # ------------------------------------------------------------------
    @property
    def pattern(self) -> SESPattern:
        """The source pattern."""
        return self._pattern

    @property
    def automaton(self) -> SESAutomaton:
        """The built (and, with ``"trim"``, minimized) SES automaton."""
        return self._automaton

    @property
    def fingerprint(self) -> str:
        """The canonical cache key (pattern + optimizations)."""
        return self._fingerprint

    @property
    def optimizations(self) -> Tuple[str, ...]:
        """The optimizations the plan was compiled with."""
        return self._optimizations

    @property
    def rewrites(self) -> Tuple[str, ...]:
        """Human-readable descriptions of applied compile-time rewrites."""
        return self._rewrites

    @property
    def aggregate(self):
        """The :class:`~repro.agg.spec.AggregateSpec`, or ``None``."""
        return self._aggregate

    def prefilter(self, filter_mode: str = "conjunctive"
                  ) -> VectorizedPrefilter:
        """The compiled constant-condition prefilter for one mode."""
        try:
            return self._prefilters[filter_mode]
        except KeyError:
            raise ValueError(f"unknown filter mode {filter_mode!r}") from None

    # ------------------------------------------------------------------
    # Run-time API
    # ------------------------------------------------------------------
    def match(self, relation: Union[EventRelation, Iterable[Event]], *,
              use_filter: bool = True, filter_mode: str = "conjunctive",
              selection: str = "paper", consume: str = "greedy",
              workers: int = 1, partition_by: Optional[str] = None,
              observability=None, chunks_per_worker: int = 4,
              start_method: Optional[str] = None) -> MatchResult:
        """Run the plan over ``relation`` and return a :class:`MatchResult`.

        ``partition_by`` or ``workers > 1`` evaluates per partition
        (:class:`~repro.parallel.pool.ParallelPartitionedMatcher`:
        in-process with one worker, over a process pool with more);
        otherwise one :meth:`executor` runs over the whole relation,
        asking the plan's prefilter about each event as it reads it.
        """
        if workers is None or workers < 1:
            raise ValueError("workers must be >= 1")
        if partition_by is not None or workers > 1:
            from ..parallel.pool import ParallelPartitionedMatcher
            matcher = ParallelPartitionedMatcher(
                self, partition_by=partition_by, workers=workers,
                use_filter=use_filter, filter_mode=filter_mode,
                selection=selection, consume=consume,
                chunks_per_worker=chunks_per_worker,
                start_method=start_method, observability=observability)
            return matcher.run(relation)
        return self.executor(
            use_filter=use_filter, filter_mode=filter_mode,
            selection=selection, consume=consume,
            observability=observability).run(relation)

    def executor(self, *, use_filter: bool = True,
                 filter_mode: str = "conjunctive", selection: str = "paper",
                 consume: str = "greedy",
                 expire_on_filtered: bool = False, observability=None,
                 record_history: bool = False,
                 history_max_samples: Optional[int] = None, tracer=None,
                 flight=None, guard=None) -> SESExecutor:
        """A fresh incremental executor over the compiled automaton."""
        event_filter = self.prefilter(filter_mode) if use_filter else None
        if flight is not None:
            flight.note_plan(self._fingerprint)
        return SESExecutor(self._automaton, event_filter=event_filter,
                           selection=selection,
                           expire_on_filtered=expire_on_filtered,
                           consume_mode=consume, tracer=tracer,
                           obs=observability, record_history=record_history,
                           history_max_samples=history_max_samples,
                           flight=flight, guard=guard,
                           aggregate=self._aggregate)

    def stream(self, *, use_filter: bool = True,
               suppress_overlaps: bool = True,
               partition_by: Optional[str] = None, observability=None,
               flight=None, guard=None):
        """A continuous matcher over this plan.

        Returns a :class:`~repro.stream.runner.ContinuousMatcher`, or —
        with ``partition_by`` — a
        :class:`~repro.stream.partitioned.PartitionedContinuousMatcher`
        routing events to per-key matchers that all share this plan.
        """
        if partition_by is not None:
            from ..stream.partitioned import PartitionedContinuousMatcher
            return PartitionedContinuousMatcher(
                self, partition_by=partition_by, use_filter=use_filter,
                suppress_overlaps=suppress_overlaps,
                observability=observability, flight=flight, guard=guard)
        from ..stream.runner import ContinuousMatcher
        return ContinuousMatcher(self, use_filter=use_filter,
                                 suppress_overlaps=suppress_overlaps,
                                 observability=observability, flight=flight,
                                 guard=guard)

    # ------------------------------------------------------------------
    # Introspection and plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternPlan):
            return NotImplemented
        return self._fingerprint == other._fingerprint

    def __hash__(self) -> int:
        return hash(self._fingerprint)

    def __repr__(self) -> str:
        return (f"PatternPlan({self._fingerprint[:12]}, "
                f"optimizations={self._optimizations!r})")
