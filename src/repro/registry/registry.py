"""The multi-tenant pattern registry: one admission pass, many plans.

:class:`PatternRegistry` holds any number of **distinct** compiled
:class:`~repro.plan.plan.PatternPlan`s and drives them all from one
shared per-event admission pass:

1. every pushed event is evaluated once against the deduplicated
   :class:`~repro.core.predicates.PredicateBank` (each distinct predicate
   across *all* registered patterns costs one comparison, however many
   patterns reference it), yielding a truth bitmap;
2. each pattern's :class:`~repro.core.predicates.AdmissionSpec`
   decides admission by bitmask algebra — the class that pattern's own
   Section 4.5 conjunctive prefilter holds over a private bank;
3. patterns whose start layers are structurally equal share one
   :class:`~repro.registry.admission.StartGate` evaluation (the common
   automaton-prefix grouping); a closed gate feeds the event with
   ``allow_start=False``, skipping the fresh instance the per-pattern
   executor would have created and immediately dropped;
4. a non-admitted event reaches a pattern only as an expiry tick (and
   only while that pattern has live instances); patterns neither
   admitted nor active skip the event entirely.

Every step is match-set-preserving, so the registry's per-pattern
results are identical to running each pattern through its own
:class:`~repro.stream.runner.ContinuousMatcher` — the property
``tests/test_registry.py`` pins for hundreds of randomized patterns.

Hot register/deregister is safe against a live stream: all state is
mutated under one lock, and :meth:`push_many` re-acquires it between
chunks so an HTTP registration never starves behind a long replay.  A
pattern registered mid-stream sees exactly the suffix of events pushed
after its registration.

Tenancy: each registered pattern belongs to a tenant; a
:class:`TenantQuota` caps the tenant's pattern count and attaches one
shared :class:`~repro.resilience.guards.ResourceGuard` (raise / shed /
degrade policies, see ``docs/resilience.md``) to every executor the
tenant registers — ceilings apply per pattern, trip/shed counters
aggregate per tenant.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..agg.result import Match
from ..automaton.executor import MatchResult
from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.predicates import AdmissionSpec, PredicateBank
from ..core.substitution import Substitution
from ..plan.cache import as_plan
from ..plan.plan import PatternPlan
from ..resilience.guards import GuardConfig, ResourceGuard
from ..stream.runner import ContinuousMatcher
from .admission import StartGate

__all__ = ["PatternRegistry", "TenantQuota", "RegistryError",
           "DuplicatePatternError", "UnknownPatternError", "QuotaExceeded",
           "OutOfOrderError"]

#: Events processed per lock acquisition in :meth:`PatternRegistry.push_many`
#: — large enough to amortise locking and the columnar pass, small enough
#: that a concurrent register/deregister gets the lock promptly.
CHUNK_SIZE = 256

#: Subscribers receive ``(pattern_id, match)`` where ``match`` is the
#: unified :class:`~repro.agg.result.Match` (its ``pattern_id`` field
#: carries the id too, for callbacks that only take the match).
MatchCallback = Callable[[str, Match], None]


class RegistryError(Exception):
    """Base class for registry errors."""


class DuplicatePatternError(RegistryError):
    """A pattern id is already registered."""


class UnknownPatternError(RegistryError, KeyError):
    """No pattern is registered under the given id."""

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0] if self.args else ""


class QuotaExceeded(RegistryError):
    """A tenant attempted to exceed its registered-pattern quota."""


class OutOfOrderError(RegistryError, ValueError):
    """A pushed chunk is not in chronological order — within itself or
    against what the registry has already seen.  Nothing of the chunk
    was applied to any pattern."""


@dataclass(frozen=True)
class TenantQuota:
    """Resource quotas for one tenant's registered patterns.

    ``max_patterns`` caps how many patterns the tenant may hold at once
    (``None`` = unlimited).  ``guard`` attaches resource-guard ceilings
    (|Ω|, buffer bytes, per-event seconds with raise/shed/degrade
    policies) to every executor the tenant registers; the guard object
    is shared tenant-wide so its trip/shed counters aggregate.
    """

    max_patterns: Optional[int] = None
    guard: Optional[GuardConfig] = None

    def __post_init__(self):
        if self.max_patterns is not None and self.max_patterns < 1:
            raise ValueError("max_patterns must be >= 1")


class _Tenant:
    """Per-tenant live state: quota, shared guard, pattern count."""

    __slots__ = ("name", "quota", "guard", "patterns")

    def __init__(self, name: str, quota: Optional[TenantQuota], registry):
        self.name = name
        self.quota = quota
        self.guard = None
        if quota is not None and quota.guard is not None:
            obs = registry._obs
            self.guard = ResourceGuard(
                quota.guard,
                registry=None if obs is None else obs.registry)
        self.patterns = 0


class _Entry:
    """One registered pattern: plan, matcher, admission artifacts."""

    __slots__ = ("pattern_id", "tenant", "plan", "matcher", "spec", "gate",
                 "query", "deliveries", "match_counter", "events_counter",
                 "agg_counter", "agg_published")

    def __init__(self, pattern_id: str, tenant: str, plan: PatternPlan,
                 matcher: ContinuousMatcher, spec: AdmissionSpec,
                 gate: StartGate, query: Optional[str]):
        self.pattern_id = pattern_id
        self.tenant = tenant
        self.plan = plan
        self.matcher = matcher
        self.spec = spec
        self.gate = gate
        self.query = query
        self.deliveries = 0
        self.match_counter = None
        self.events_counter = None
        self.agg_counter = None
        self.agg_published = 0


class PatternRegistry:
    """Thousands of live patterns behind one shared admission pass.

    Parameters
    ----------
    use_filter:
        Apply the shared admission pass (each pattern's conjunctive
        prefilter, deduplicated).  With ``False`` every event is
        delivered to every pattern — the per-pattern matchers then run
        unfiltered, matching ``ContinuousMatcher(use_filter=False)``.
    suppress_overlaps:
        Per-pattern overlap suppression (matches of different patterns
        may freely share events), as in :class:`ContinuousMatcher`.
    observability:
        Optional :class:`~repro.obs.Observability`.  The registry
        publishes aggregate counters (``ses_registry_*``) and, per
        registered pattern, labeled ``ses_pattern_matches_total`` /
        ``ses_pattern_events_total`` series keyed by pattern id.
    default_quota:
        :class:`TenantQuota` applied to tenants that register without an
        explicit quota.
    flight:
        Optional :class:`~repro.obs.flight.FlightRecorder`, attached to
        one registered pattern's executor: the first (the served query
        in ``repro serve``), and once that one is deregistered the next
        to register; the others run unrecorded.
    """

    def __init__(self, *, use_filter: bool = True,
                 suppress_overlaps: bool = True, observability=None,
                 default_quota: Optional[TenantQuota] = None, flight=None):
        self._lock = threading.RLock()
        self._bank = PredicateBank()
        self._entries: Dict[str, _Entry] = {}
        self._tenants: Dict[str, _Tenant] = {}
        self._gate_members: Dict[frozenset, int] = {}
        self._use_filter = use_filter
        self._suppress_overlaps = suppress_overlaps
        self._obs = observability
        self._default_quota = default_quota
        self._flight = flight
        #: Id of the pattern whose executor carries the flight recorder.
        self._flight_owner: Optional[str] = None
        self._auto_id = 0
        self._reported: List[Match] = []
        self._callbacks: List[MatchCallback] = []
        self._closed = False
        self._last_ts = None
        if observability is None:
            self._events_counter = None
            self._deliveries_counter = None
            self._matches_counter = None
        else:
            registry = observability.registry
            self._events_counter = registry.counter(
                "ses_registry_events_total",
                help="events pushed through the shared admission pass")
            self._deliveries_counter = registry.counter(
                "ses_registry_deliveries_total",
                help="event-to-pattern deliveries after shared admission")
            self._matches_counter = registry.counter(
                "ses_registry_matches_total",
                help="matches reported across all registered patterns")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, pattern, *, pattern_id: Optional[str] = None,
                 tenant: str = "default",
                 quota: Optional[TenantQuota] = None) -> str:
        """Register a pattern; returns its id.

        ``pattern`` may be a :class:`~repro.core.pattern.SESPattern`, a
        compiled :class:`~repro.plan.plan.PatternPlan`, or PERMUTE query
        text (parsed via :func:`repro.lang.parse_query_spec`).  Query
        text with a ``SELECT`` clause registers an **aggregation**
        pattern: matches fold into live totals instead of materialising
        (read them via :meth:`aggregates_of`); a plan compiled with an
        aggregate behaves the same.  Ids default to ``p0``, ``p1``, …;
        an explicit duplicate raises :class:`DuplicatePatternError`.
        ``quota`` pins the tenant's quota on first use (a tenant's quota
        is set once; later registrations for the same tenant must not
        pass a conflicting one).
        """
        query = None
        aggregate = None
        if isinstance(pattern, str):
            from ..lang import parse_query_spec
            query = pattern
            pattern, aggregate = parse_query_spec(pattern)
        if not isinstance(pattern, (SESPattern, PatternPlan)):
            raise TypeError(
                f"expected SESPattern, PatternPlan or query text, got "
                f"{type(pattern).__name__}")
        if aggregate is not None:
            from ..plan.cache import compile as compile_plan
            plan = compile_plan(pattern, aggregate=aggregate)
        else:
            plan = as_plan(pattern)
        with self._lock:
            if self._closed:
                raise RegistryError("registry is closed")
            if pattern_id is None:
                while f"p{self._auto_id}" in self._entries:
                    self._auto_id += 1
                pattern_id = f"p{self._auto_id}"
                self._auto_id += 1
            elif pattern_id in self._entries:
                raise DuplicatePatternError(
                    f"pattern id {pattern_id!r} is already registered")
            state = self._tenants.get(tenant)
            if state is None:
                state = _Tenant(tenant, quota or self._default_quota, self)
                self._tenants[tenant] = state
            elif quota is not None and quota != state.quota:
                raise ValueError(
                    f"tenant {tenant!r} already has quota {state.quota!r}")
            limit = (state.quota.max_patterns
                     if state.quota is not None else None)
            if limit is not None and state.patterns >= limit:
                raise QuotaExceeded(
                    f"tenant {tenant!r} is at its quota of {limit} "
                    f"pattern(s)")
            flight = self._flight if self._flight_owner is None else None
            # Admission is decided once, by the shared bank (bit-identical
            # to the plan's own prefilter), and rejected events reach the
            # matcher as ticks - its executor has nothing left to filter.
            matcher = ContinuousMatcher(
                plan, use_filter=False,
                suppress_overlaps=self._suppress_overlaps,
                flight=flight, guard=state.guard)
            spec = AdmissionSpec(self._bank, plan.pattern)
            gate = StartGate(self._bank, plan.automaton)
            entry = _Entry(pattern_id, tenant, plan, matcher, spec, gate,
                           query)
            if self._obs is not None:
                registry = self._obs.registry
                entry.match_counter = registry.counter(
                    f"ses_pattern_matches_total[{pattern_id}]",
                    help="Matches reported, per registered pattern.",
                    labels={"pattern": pattern_id},
                    metric="ses_pattern_matches_total")
                entry.events_counter = registry.counter(
                    f"ses_pattern_events_total[{pattern_id}]",
                    help="Events delivered after shared admission, per "
                         "registered pattern.",
                    labels={"pattern": pattern_id},
                    metric="ses_pattern_events_total")
                if plan.aggregate is not None:
                    entry.agg_counter = registry.counter(
                        f"ses_agg_matches_folded_total[{pattern_id}]",
                        help="Matches folded into aggregates without "
                             "materialisation, per registered pattern.",
                        labels={"pattern": pattern_id},
                        metric="ses_agg_matches_folded_total")
            self._entries[pattern_id] = entry
            if flight is not None:
                self._flight_owner = pattern_id
            self._gate_members[gate.key] = (
                self._gate_members.get(gate.key, 0) + 1)
            state.patterns += 1
            self._publish_gauges()
            return pattern_id

    def deregister(self, pattern_id: str) -> dict:
        """Remove a pattern; its already-reported matches are kept.

        Live (unexpired) instances are discarded without flushing —
        deregistration means "stop watching", not end-of-stream.
        Returns a summary dict of the removed pattern.
        """
        with self._lock:
            entry = self._entries.pop(pattern_id, None)
            if entry is None:
                raise UnknownPatternError(
                    f"no pattern registered under id {pattern_id!r}")
            entry.spec.release(self._bank)
            entry.gate.release(self._bank)
            if self._flight_owner == pattern_id:
                # The next registration takes the recorder over.
                self._flight_owner = None
            members = self._gate_members[entry.gate.key] - 1
            if members:
                self._gate_members[entry.gate.key] = members
            else:
                del self._gate_members[entry.gate.key]
            state = self._tenants[entry.tenant]
            state.patterns -= 1
            self._publish_gauges()
            return self._describe_entry(entry)

    def on_match(self, callback: MatchCallback) -> MatchCallback:
        """Register ``callback(pattern_id, match)`` for every reported
        match (invoked under the registry lock — callbacks must not call
        back into the registry)."""
        self._callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def push(self, event: Event) -> List[Match]:
        """Push one event through the shared admission pass.

        Returns a :class:`~repro.agg.result.Match` (with its
        ``pattern_id`` set) for every match reported at this point.
        """
        with self._lock:
            return self._push_chunk([event])

    def push_many(self, events) -> List[Match]:
        """Push a batch, admitting it columnar in chunks.

        The lock is released between chunks of :data:`CHUNK_SIZE`
        events, so concurrent register/deregister calls interleave with
        a long replay instead of waiting for it to finish.
        """
        events = list(events)
        out: List[Match] = []
        for start in range(0, len(events), CHUNK_SIZE):
            with self._lock:
                out.extend(self._push_chunk(events[start:start + CHUNK_SIZE]))
        return out

    def _push_chunk(self, events: List[Event]) -> List[Match]:
        """One locked chunk: shared columnar admission, then fan-out.

        Chronology is checked here, for the whole chunk and before any
        matcher sees an event of it: the patterns' own checks would
        refuse the chunk one pattern at a time, after others took it.
        """
        timestamps = [event.ts for event in events]
        last = self._last_ts
        for ts in timestamps:
            if last is not None and ts < last:
                raise OutOfOrderError(
                    f"events must arrive in chronological order; got "
                    f"T={ts} after T={last}")
            last = ts
        self._last_ts = last
        n = len(events)
        full = (1 << n) - 1
        if self._events_counter is not None:
            self._events_counter.inc(n)
        lineage = (None if self._obs is None else self._obs.lineage)
        if lineage is not None:
            # Stamp ingest once per event at admission — per-pattern
            # matchers run observability-free, so this is the only point
            # that sees every event exactly once.
            for event in events:
                lineage.note_ingest(event)
        if self._use_filter:
            columns = self._bank.truth_columns(events)
            # One columnar gate evaluation per *distinct* start structure.
            start_masks = {
                key: StartGate.key_fire_mask(key, columns, full)
                for key in self._gate_members}
        reported: List[Match] = []
        for entry in list(self._entries.values()):
            if self._use_filter:
                admitted = entry.spec.admitted_mask(columns, full)
                starts = start_masks[entry.gate.key]
            else:
                # Unfiltered: every pattern sees every event, starts allowed.
                admitted = starts = full
            matcher = entry.matcher
            if not admitted and not matcher.active_instances:
                continue
            delivered = 0
            # Jump between the pattern's admitted events; in the gaps,
            # an expiry sweep only matters past the matcher's next
            # expiry deadline (below it the sweep is a no-op), so skip
            # straight to the first event that can actually expire
            # something.
            deadline = matcher.next_expiry_ts
            i = 0
            while i < n:
                rest = admitted >> i
                next_admit = (i + (rest & -rest).bit_length() - 1
                              if rest else n)
                while deadline is not None:
                    j = bisect_right(timestamps, deadline, i, next_admit)
                    if j >= next_admit:
                        break
                    matches = matcher.tick(events[j])
                    if matches:
                        self._collect(entry, matches, reported)
                    deadline = matcher.next_expiry_ts
                    i = j + 1
                if next_admit >= n:
                    break
                matches = matcher.push(events[next_admit],
                                       bool(starts & (1 << next_admit)))
                if matches:
                    self._collect(entry, matches, reported)
                delivered += 1
                deadline = matcher.next_expiry_ts
                i = next_admit + 1
            if delivered:
                entry.deliveries += delivered
                if entry.events_counter is not None:
                    entry.events_counter.inc(delivered)
                if self._deliveries_counter is not None:
                    self._deliveries_counter.inc(delivered)
            self._publish_agg(entry)
        return reported

    def _collect(self, entry: _Entry, matches: List[Substitution],
                 out: List[Match]) -> None:
        """Report a non-empty list of one pattern's matches."""
        if entry.match_counter is not None:
            entry.match_counter.inc(len(matches))
        if self._matches_counter is not None:
            self._matches_counter.inc(len(matches))
        # Registry matchers run observability-free (the shared admission
        # pass owns the metrics), so delivery is the one stamping point:
        # the record carries event ids + deliver stage, with the path
        # reconstructed from the substitution's canonical order.
        lineage = (None if self._obs is None else self._obs.lineage)
        for substitution in matches:
            provenance = (lineage.deliver(substitution, by="registry",
                                          pattern_id=entry.pattern_id)
                          if lineage is not None else None)
            match = Match(substitution, pattern_id=entry.pattern_id,
                          provenance=provenance)
            self._reported.append(match)
            out.append(match)
            for callback in self._callbacks:
                callback(entry.pattern_id, match)

    def _publish_agg(self, entry: _Entry) -> None:
        """Publish the entry's fold-counter delta (aggregation patterns
        registered with observability only)."""
        if entry.agg_counter is None:
            return
        folded = entry.matcher.matches_folded
        delta = folded - entry.agg_published
        if delta > 0:
            entry.agg_counter.inc(delta)
            entry.agg_published = folded

    def close(self) -> List[Match]:
        """End-of-stream: flush every pattern's matcher."""
        with self._lock:
            self._closed = True
            reported: List[Match] = []
            for entry in self._entries.values():
                matches = entry.matcher.close()
                if matches:
                    self._collect(entry, matches, reported)
                self._publish_agg(entry)
            return reported

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(self, relation, *, selection: str = "paper",
                  consume: str = "greedy") -> Dict[str, MatchResult]:
        """Run every registered pattern over a finite relation at once:
        ``plan.match(relation)`` per pattern, filtered as the registry
        is (``use_filter``) and independent of streaming state (fresh
        executors throughout)."""
        events = list(relation)
        with self._lock:
            return {pattern_id: entry.plan.match(
                        events, use_filter=self._use_filter,
                        selection=selection, consume=consume)
                    for pattern_id, entry in self._entries.items()}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pattern_ids(self) -> List[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, pattern_id: str) -> bool:
        return pattern_id in self._entries

    @property
    def matches(self) -> List[Substitution]:
        """All matches reported so far (flat, across patterns)."""
        with self._lock:
            return [match.substitution for match in self._reported]

    @property
    def match_count(self) -> int:
        """How many matches were reported so far — ``len(matches)``
        without the copy (or the lock: a health probe must not queue
        behind the matcher thread)."""
        return len(self._reported)

    def matches_of(self, pattern_id: str) -> List[Substitution]:
        """Matches reported so far for one pattern (survives deregister)."""
        with self._lock:
            if (pattern_id not in self._entries
                    and all(m.pattern_id != pattern_id
                            for m in self._reported)):
                raise UnknownPatternError(
                    f"no pattern registered under id {pattern_id!r}")
            return [match.substitution for match in self._reported
                    if match.pattern_id == pattern_id]

    def aggregates_of(self, pattern_id: str):
        """Live aggregates of one registered pattern as an
        :class:`~repro.agg.result.AggregateSeries` (``None`` for
        enumeration patterns)."""
        with self._lock:
            entry = self._entries.get(pattern_id)
            if entry is None:
                raise UnknownPatternError(
                    f"no pattern registered under id {pattern_id!r}")
            return entry.matcher.aggregates()

    @property
    def active_instances(self) -> int:
        """Total live automaton instances across all patterns."""
        with self._lock:
            return sum(entry.matcher.active_instances
                       for entry in self._entries.values())

    def tenant_of(self, pattern_id: str) -> Optional[str]:
        """The owning tenant of a registered pattern (``None`` when the
        pattern is unknown — e.g. already deregistered).  Safe to call
        from an ``on_match`` callback (the lock is re-entrant)."""
        with self._lock:
            entry = self._entries.get(pattern_id)
            return None if entry is None else entry.tenant

    @property
    def predicate_count(self) -> int:
        """Distinct live predicates in the shared bank."""
        with self._lock:
            return len(self._bank)

    @property
    def prefix_group_count(self) -> int:
        """Distinct start-gate structures (shared gate evaluations)."""
        with self._lock:
            return len(self._gate_members)

    def describe(self) -> List[dict]:
        """Per-pattern summary rows (the ``/patterns`` listing)."""
        with self._lock:
            return [self._describe_entry(entry)
                    for entry in self._entries.values()]

    def _describe_entry(self, entry: _Entry) -> dict:
        row = {
            "id": entry.pattern_id,
            "tenant": entry.tenant,
            "fingerprint": entry.plan.fingerprint,
            "query": entry.query,
            "active_instances": entry.matcher.active_instances,
            "matches": entry.matcher.match_count,
            "events_delivered": entry.deliveries,
        }
        if entry.plan.aggregate is not None:
            series = entry.matcher.aggregates()
            row["aggregates"] = dict(series)
            row["matches_folded"] = series.matches_folded
        return row

    def tenant_stats(self) -> Dict[str, dict]:
        """Per-tenant usage: pattern count, quota, guard counters."""
        with self._lock:
            out = {}
            for name, state in self._tenants.items():
                if not state.patterns and state.quota is None:
                    continue
                row = {
                    "patterns": state.patterns,
                    "max_patterns": (state.quota.max_patterns
                                     if state.quota else None),
                }
                if state.guard is not None:
                    row["guard_policy"] = state.guard.config.policy
                    row["guard_trips"] = state.guard.trips
                    row["shed_instances"] = state.guard.shed_total
                out[name] = row
            return out

    def publish_stats(self) -> None:
        """Refresh registry gauges and flush matcher counters (if any)."""
        with self._lock:
            for entry in self._entries.values():
                self._publish_agg(entry)
            self._publish_gauges()

    def _publish_gauges(self) -> None:
        if self._obs is None:
            return
        registry = self._obs.registry
        registry.gauge(
            "ses_registry_patterns",
            help="patterns currently registered").set(len(self._entries))
        registry.gauge(
            "ses_registry_predicates",
            help="distinct live predicates in the shared bank",
        ).set(len(self._bank))
        registry.gauge(
            "ses_registry_prefix_groups",
            help="distinct start-gate structures sharing one evaluation",
        ).set(len(self._gate_members))

    def __repr__(self) -> str:
        return (f"PatternRegistry({len(self._entries)} patterns, "
                f"{len(self._bank)} predicates, "
                f"{len(self._gate_members)} prefix groups)")
