"""Partitioned continuous matching: one matcher per key, online.

The streaming analogue of batch partitioning
(``plan.match(relation, partition_by=...)``): events are routed by a
partition attribute (e.g. the patient ``ID``) to a per-key
:class:`~repro.stream.runner.ContinuousMatcher`, created lazily on first
sight of the key.  Sound whenever the pattern equi-joins all variables on
the attribute; like batch partitioning it is immune to cross-partition
greedy hijacking, so it may report matches the unpartitioned matcher
would miss — never fewer.

Idle partitions can be garbage-collected: a partition whose matcher holds
no active instances and whose last event is more than τ old can never
contribute again; :meth:`PartitionedContinuousMatcher.collect` drops them.

Like the registry's matchers, the partitioned matcher keeps no match
history (its per-key matchers run ``keep_matches=False``): what
``push``/``push_many``/``close`` return and what ``on_match`` callbacks
receive is the whole answer, and a collected partition loses nothing.
"""

from __future__ import annotations

import logging
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from ..agg.result import Match
from ..automaton.optimizations import partition_attribute
from ..core.events import Event
from ..core.substitution import Substitution
from ..plan.cache import as_plan
from .runner import ContinuousMatcher

__all__ = ["PartitionedContinuousMatcher"]

logger = logging.getLogger(__name__)

#: Subscribers receive ``(partition_key, match)`` where ``match`` is the
#: unified :class:`~repro.agg.result.Match` (its ``partition`` field
#: carries the key too, for callbacks that only take the match).
MatchCallback = Callable[[Hashable, Match], None]


class PartitionedContinuousMatcher:
    """Continuous matching with per-partition instance populations.

    Parameters
    ----------
    pattern:
        The SES pattern (or compiled
        :class:`~repro.plan.plan.PatternPlan`); it must equi-join all
        variables on ``partition_by``.
    partition_by:
        Partition attribute; auto-detected from the pattern's equality
        conditions when omitted.
    use_filter / suppress_overlaps:
        Forwarded to each per-partition matcher.
    observability:
        Optional :class:`repro.obs.Observability` bundle.  When given,
        every partition gets its *own* child bundle (so metrics never
        race across partitions even if feeding is ever parallelised) and
        the bundle itself tracks the partition population; call
        :meth:`aggregate` for the merged cross-partition view.
    """

    def __init__(self, pattern, partition_by: Optional[str] = None,
                 use_filter: bool = True, suppress_overlaps: bool = True,
                 observability=None, flight=None, guard=None):
        self._plan = as_plan(pattern)
        if partition_by is None:
            partition_by = partition_attribute(self._plan.pattern)
        if partition_by is None:
            raise ValueError(
                "pattern does not equi-join all variables on a single "
                "attribute; partitioned streaming would lose matches"
            )
        self.pattern = self._plan.pattern
        self.attribute = partition_by
        self._use_filter = use_filter
        self._suppress_overlaps = suppress_overlaps
        self._matchers: Dict[Hashable, ContinuousMatcher] = {}
        self._last_ts: Dict[Hashable, object] = {}
        self._callbacks: List[MatchCallback] = []
        # Partial aggregates inherited from garbage-collected partitions
        # (aggregation plans only); merged into aggregate_snapshot().
        self._agg_carry = None
        self.obs = obs = observability
        #: One shared flight recorder across all per-key matchers — a
        #: single tail of recent execution for the whole partition set.
        self.flight = flight
        #: One shared :class:`~repro.resilience.guards.ResourceGuard`
        #: across all per-key matchers: ceilings apply per executor (the
        #: unit the Section 4.4 bounds describe), trip statistics
        #: accumulate partition-wide.  A bare
        #: :class:`~repro.resilience.guards.GuardConfig` is wrapped here.
        self.guard = guard
        if guard is not None and not hasattr(guard, "check"):
            from ..resilience.guards import ResourceGuard
            self.guard = ResourceGuard(
                guard, registry=None if obs is None else obs.registry)
        self._partition_gauge = (
            None if obs is None else obs.registry.gauge(
                "ses_stream_partitions", help="live partition matchers"))
        self._collected_counter = (
            None if obs is None else obs.registry.counter(
                "ses_stream_partitions_collected_total",
                help="idle partitions garbage-collected"))

    def on_match(self, callback: MatchCallback) -> MatchCallback:
        """Register ``callback(partition_key, match)``."""
        self._callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def _matcher_for(self, key: Hashable) -> ContinuousMatcher:
        """The per-key matcher, created lazily on first sight of ``key``."""
        matcher = self._matchers.get(key)
        if matcher is None:
            child_obs = None
            if self.obs is not None:
                from ..obs import Observability
                child_obs = Observability()
                # All partitions share the root lineage recorder (match
                # identity is content-derived, so one recorder serves
                # every key); assigning even when it is None keeps
                # children from auto-creating their own from the env.
                child_obs.lineage = self.obs.lineage
            matcher = ContinuousMatcher(
                self._plan, use_filter=self._use_filter,
                suppress_overlaps=self._suppress_overlaps,
                observability=child_obs, flight=self.flight,
                guard=self.guard, keep_matches=False)
            self._matchers[key] = matcher
            logger.debug("new partition %r (%d live)", key,
                         len(self._matchers))
            if self._partition_gauge is not None:
                self._partition_gauge.set(len(self._matchers))
        return matcher

    def push(self, event: Event) -> List[Substitution]:
        """Route one event to its partition; returns new matches."""
        key = event.get(self.attribute)
        matcher = self._matcher_for(key)
        self._last_ts[key] = event.ts
        reported = matcher.push(event)
        lineage = None if self.obs is None else self.obs.lineage
        for callback in self._callbacks:
            for substitution in reported:
                # The per-key matcher already stamped delivery on the
                # shared recorder; only look the record up here.
                provenance = (lineage.provenance_for(substitution)
                              if lineage is not None else None)
                callback(key, Match(substitution, partition=key,
                                    provenance=provenance))
        return reported

    def push_many(self, events: Iterable[Event]) -> List[Substitution]:
        """Feed a batch of events (stream order)."""
        out: List[Substitution] = []
        for event in events:
            out.extend(self.push(event))
        return out

    def close(self) -> List[Substitution]:
        """End-of-stream: flush every partition."""
        out: List[Substitution] = []
        lineage = None if self.obs is None else self.obs.lineage
        for key, matcher in self._matchers.items():
            flushed = matcher.close()
            out.extend(flushed)
            for callback in self._callbacks:
                for substitution in flushed:
                    provenance = (lineage.provenance_for(substitution)
                                  if lineage is not None else None)
                    callback(key, Match(substitution, partition=key,
                                        provenance=provenance))
        return out

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot every live partition for checkpoint/restore."""
        return {
            "partitions": {key: matcher.state_dict()
                           for key, matcher in self._matchers.items()},
            "last_ts": dict(self._last_ts),
            "agg_carry": self._agg_carry,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (partitions are
        created as needed; existing partitions are overwritten)."""
        for key, sub_state in state["partitions"].items():
            self._matcher_for(key).load_state(sub_state)
        self._last_ts.update(state["last_ts"])
        self._agg_carry = state.get("agg_carry")

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------
    def collect(self, now) -> int:
        """Drop partitions that can no longer contribute matches.

        A partition is collectable when its matcher has no active
        instances and its newest event is more than τ older than ``now``
        (so even a fresh instance could never span back to it).  Returns
        the number of partitions dropped.
        """
        tau = self.pattern.tau
        dead = [key for key, matcher in self._matchers.items()
                if matcher.active_instances == 0
                and now - self._last_ts[key] > tau]
        obs = self.obs
        agg_plan = self._plan.aggregate is not None
        for key in dead:
            matcher = self._matchers[key]
            if obs is not None:
                # Fold the dying partition's metrics into the root bundle
                # so aggregate views survive garbage collection.
                matcher.publish_stats()
                if matcher.obs is not None:
                    obs.merge(matcher.obs)
            if agg_plan:
                # Aggregate partials likewise outlive their partition.
                from ..agg.engine import merge_snapshots
                self._agg_carry = merge_snapshots(
                    self._plan.aggregate, self._agg_carry,
                    matcher.aggregate_snapshot())
            del self._matchers[key]
            del self._last_ts[key]
        if dead:
            logger.debug("collected %d idle partition(s), %d live",
                         len(dead), len(self._matchers))
            if self._partition_gauge is not None:
                self._partition_gauge.set(len(self._matchers))
            if self._collected_counter is not None:
                self._collected_counter.inc(len(dead))
        return len(dead)

    def aggregate(self):
        """The merged cross-partition :class:`~repro.obs.Observability`.

        A fresh bundle combining the root bundle (partition gauges plus
        metrics inherited from collected partitions) with every live
        partition's child bundle: counters and histograms sum, gauges
        sum values and high-waters.  Returns ``None`` when the matcher
        was built without ``obs``.
        """
        if self.obs is None:
            return None
        from ..obs import Observability
        out = Observability()
        # Every per-key matcher shares the root lineage recorder, so the
        # merged view carries it by identity — merge()'s identity guard
        # then skips re-absorbing the same records once per partition.
        out.lineage = self.obs.lineage
        out.merge(self.obs)
        for matcher in self._matchers.values():
            if matcher.obs is not None:
                matcher.publish_stats()
                out.merge(matcher.obs)
        return out

    def aggregate_snapshot(self):
        """Mergeable cross-partition aggregate snapshot.

        Merges the carry inherited from collected partitions with every
        live partition's partials; ``None`` for enumeration plans.  For
        aggregation plans an (empty) snapshot is always returned, even
        with zero partitions, so shippers need no special casing.
        """
        spec = self._plan.aggregate
        if spec is None:
            return None
        from ..agg.engine import empty_snapshot, merge_snapshots
        snapshot = merge_snapshots(spec, None, self._agg_carry)
        for matcher in self._matchers.values():
            snapshot = merge_snapshots(spec, snapshot,
                                       matcher.aggregate_snapshot())
        return snapshot if snapshot is not None else empty_snapshot(spec)

    def aggregates(self):
        """Cross-partition aggregates as an
        :class:`~repro.agg.result.AggregateSeries` (``None`` for
        enumeration plans)."""
        spec = self._plan.aggregate
        if spec is None:
            return None
        from ..agg.result import AggregateSeries
        return AggregateSeries(spec, self.aggregate_snapshot())

    @property
    def matches_folded(self) -> int:
        """Matches folded into aggregates across all partitions (0 for
        enumeration plans; collected partitions included)."""
        folded = sum(m.matches_folded for m in self._matchers.values())
        if self._agg_carry is not None:
            folded += self._agg_carry.get("matches", 0)
        return folded

    @property
    def partitions(self) -> List[Hashable]:
        """Keys with a live matcher."""
        return list(self._matchers)

    @property
    def active_instances(self) -> int:
        """Total automaton instances across partitions."""
        return sum(m.active_instances for m in self._matchers.values())

    def __repr__(self) -> str:
        return (f"PartitionedContinuousMatcher({self.attribute!r}, "
                f"{len(self._matchers)} partitions, "
                f"{self.active_instances} active instances)")
