"""Continuous SES pattern matching over live streams.

:class:`ContinuousMatcher` wraps the incremental
:class:`~repro.automaton.executor.SESExecutor` with a subscription API:
callbacks fire as soon as a match is *emitted* (its window expires, per
Algorithm 1 — a match cannot be emitted earlier because a group variable
might still collect further events).

Streaming result semantics: a buffer is reported when accepted.  The
global conditions 4–5 of Definition 2 compare against candidates that may
not have been seen yet, so the streaming matcher applies them *per
emission batch* (buffers expiring at the same input event) plus
non-overlap against previously reported matches — the natural online
approximation, which coincides with the batch semantics whenever match
windows do not straddle emission points.

Retention is a window, not a history: the overlap set keeps only events
a future match can still bind (none older than the oldest start in Ω),
and the reported matches are archived only with ``keep_matches=True``.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterable, List, Optional

from ..agg.result import Match
from ..automaton.executor import SESExecutor
from ..core.events import Event
from ..core.semantics import select_matches
from ..core.substitution import Substitution
from ..plan.cache import as_plan

__all__ = ["ContinuousMatcher", "MatchHistoryDisabled"]

logger = logging.getLogger(__name__)

#: Subscribers receive the unified :class:`~repro.agg.result.Match`
#: dataclass (it delegates ``events()``/``min_ts()``/iteration to the
#: wrapped substitution, so most existing callbacks keep working).
MatchCallback = Callable[[Match], None]

#: The overlap set is pruned once it holds this many events, and after
#: that once it has doubled since its last prune.
PRUNE_FLOOR = 1024


class MatchHistoryDisabled(RuntimeError):
    """The matcher was built with ``keep_matches=False``: it archives no
    reported match, so there is no history to read."""

    def __init__(self, owner: str):
        super().__init__(
            f"{owner} was built with keep_matches=False and keeps no match "
            f"history: collect what push/push_many/close return, or "
            f"subscribe with on_match")


class ContinuousMatcher:
    """Push-based continuous matcher for one SES pattern.

    Parameters
    ----------
    pattern:
        The SES pattern to watch for, or a compiled
        :class:`~repro.plan.plan.PatternPlan` (plans are shared — the
        recommended spelling is ``repro.compile(pattern).stream()``).
    use_filter:
        Apply the Section 4.5 event pre-filter.
    suppress_overlaps:
        Skip matches sharing events with an already reported match
        (the paper's intended-results behaviour).  Set to ``False`` to
        report every accepted buffer.
    observability:
        Optional :class:`repro.obs.Observability` bundle: the underlying
        executor reports span timings, |Ω| and latency through it, and
        the runner counts reported matches
        (``ses_stream_matches_reported_total``).
    flight:
        Optional :class:`repro.obs.flight.FlightRecorder` attached to
        the underlying executor: the tail of recent execution steps and
        |Ω| samples, dumpable on crash or via ``/debug/flight``.
    guard:
        Optional :class:`repro.resilience.guards.ResourceGuard` (or
        :class:`~repro.resilience.guards.GuardConfig`) bounding the
        executor's live state — see ``docs/resilience.md``.
    keep_matches:
        Archive every reported match for :attr:`matches`.  With
        ``False`` the matcher keeps only :attr:`match_count`, and its
        memory is bounded by Ω and the window τ, however long it runs.
    """

    def __init__(self, pattern, use_filter: bool = True,
                 suppress_overlaps: bool = True, observability=None,
                 flight=None, guard=None, keep_matches: bool = True):
        self.plan = as_plan(pattern)
        self.pattern = self.plan.pattern
        self.obs = observability
        self.flight = flight
        # Filtered events still advance the expiry clock so emission
        # latency stays bounded (see SESExecutor.expire_on_filtered).
        self._executor: SESExecutor = self.plan.executor(
            use_filter=use_filter, selection="accepted",
            expire_on_filtered=True, observability=observability,
            flight=flight, guard=guard)
        self._callbacks: List[MatchCallback] = []
        self._reported: Optional[List[Substitution]] = (
            [] if keep_matches else None)
        self._match_count = 0
        #: Events of reported matches a future match can still bind
        #: (maintained only when overlaps are suppressed).
        self._used_events: set = set()
        self._prune_at = PRUNE_FLOOR
        self.suppress_overlaps = suppress_overlaps
        self._reported_counter = (
            None if observability is None
            else observability.registry.counter(
                "ses_stream_matches_reported_total",
                help="matches reported to stream subscribers"))

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def on_match(self, callback: MatchCallback) -> MatchCallback:
        """Register a callback invoked once per reported match.

        Usable as a decorator::

            @matcher.on_match
            def alert(match):
                ...
        """
        self._callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def push(self, event: Event) -> List[Substitution]:
        """Feed one event; returns the matches reported at this point."""
        accepted = self._executor.feed(event)
        return self._report(accepted, event.ts) if accepted else accepted

    def tick(self, event: Event) -> List[Substitution]:
        """Advance the expiry clock without offering the event.

        Equivalent to :meth:`push` for an event the pattern's pre-filter
        rejects (the executor runs its expiry-only sweep either way);
        callers that decide admission externally — the registry's merged
        prefilter — use this to keep emission latency bounded while
        skipping the per-pattern filter work.
        """
        accepted = self._executor.expire(event)
        return self._report(accepted, event.ts) if accepted else accepted

    @property
    def next_expiry_ts(self):
        """Latest timestamp the matcher's Ω survives unchanged (see
        :attr:`SESExecutor.next_expiry_ts`); ``None`` when nothing can
        expire."""
        return self._executor.next_expiry_ts

    def push_many(self, events: Iterable[Event]) -> List[Substitution]:
        """Feed a batch of events; returns all matches reported."""
        out: List[Substitution] = []
        for event in events:
            out.extend(self.push(event))
        return out

    def close(self) -> List[Substitution]:
        """Signal end-of-stream, flushing still-active accepting instances."""
        reported = self._report(self._executor.finish())
        self.publish_stats()
        return reported

    def publish_stats(self) -> None:
        """Flush execution counters into the obs registry (if any)."""
        self._executor.publish_stats()

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot for checkpoint/restore: executor state, the match
        count and the overlap window (so overlap suppression behaves
        identically after a restore), plus the reported matches when
        the matcher keeps them."""
        state = {
            "executor": self._executor.state_dict(),
            "match_count": self._match_count,
            "used_events": set(self._used_events),
        }
        if self._reported is not None:
            state["reported"] = list(self._reported)
        return state

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._executor.load_state(state["executor"])
        self._match_count = state["match_count"]
        if self._reported is not None:
            self._reported = list(state.get("reported", ()))
        self._used_events = set(state["used_events"])
        self._prune_at = max(PRUNE_FLOOR, 2 * len(self._used_events))

    def _prune(self, ts) -> None:
        """Drop the overlap set's events no future match can bind: those
        older than the oldest start in Ω, or than ``ts`` (the event just
        consumed) when Ω is empty."""
        deadline = self._executor.next_expiry_ts
        used = self._used_events
        if deadline is None:
            kept = {event for event in used if not event.ts < ts}
        else:
            # Ω's oldest start s is deadline - τ; comparing e.ts + τ with
            # deadline = s + τ keeps every event at s where subtracting
            # τ would round.
            tau = self._executor.automaton.tau
            kept = {event for event in used if not event.ts + tau < deadline}
        self._used_events = kept
        self._prune_at = max(PRUNE_FLOOR, 2 * len(kept))

    def _report(self, accepted: List[Substitution],
                ts=None) -> List[Substitution]:
        """Select and report ``accepted``; ``ts`` is the timestamp of
        the event that released them (``None`` at end of stream)."""
        if not accepted:
            return []
        lineage = None if self.obs is None else self.obs.lineage
        # Conditions 4-5 compare a candidate with the others of its
        # emission batch; overlaps also count the window of events
        # earlier batches reported.
        if self.suppress_overlaps:
            batch = select_matches(accepted, used=self._used_events)
        else:
            batch = select_matches(accepted, overlap="allow")
        history = self._reported
        for substitution in batch:
            if history is not None:
                history.append(substitution)
            self._match_count += 1
            if self._reported_counter is not None:
                self._reported_counter.inc()
            provenance = (lineage.deliver(substitution, by="stream")
                          if lineage is not None else None)
            logger.debug("match reported: %r", substitution)
            if self._callbacks:
                delivered = Match(substitution, provenance=provenance)
                for callback in self._callbacks:
                    callback(delivered)
        if ts is not None and len(self._used_events) >= self._prune_at:
            self._prune(ts)
        return batch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def matches(self) -> List[Substitution]:
        """All matches reported so far; raises
        :class:`MatchHistoryDisabled` when built with
        ``keep_matches=False``."""
        if self._reported is None:
            raise MatchHistoryDisabled(type(self).__name__)
        return list(self._reported)

    @property
    def match_count(self) -> int:
        """How many matches were reported so far (a counter, whether or
        not the matches themselves are kept)."""
        return self._match_count

    @property
    def matches_folded(self) -> int:
        """Matches folded into aggregates (0 for enumeration plans)."""
        return self._executor.matches_folded

    def aggregates(self):
        """Live aggregates as an :class:`~repro.agg.result.AggregateSeries`
        (``None`` for enumeration plans).  For an aggregation plan the
        matcher reports no matches — values accumulate here instead."""
        return self._executor.aggregate_result()

    def aggregate_snapshot(self):
        """Mergeable partial-aggregate snapshot (``None`` for
        enumeration plans); the sharded runtime ships these."""
        return self._executor.aggregate_snapshot()

    @property
    def active_instances(self) -> int:
        """Current automaton instance population."""
        return self._executor.active_instances

    @property
    def stats(self):
        """Execution counters of the underlying executor."""
        return self._executor.stats

    def __repr__(self) -> str:
        return (f"ContinuousMatcher({self.pattern!r}, "
                f"{self._match_count} matches, "
                f"{self.active_instances} active instances)")
