"""Execution of SES automata (Section 4.3, Algorithms 1 and 2).

:class:`SESExecutor` maintains the set Ω of active automaton instances.
For every input event it

1. adds a fresh instance in the start state (Algorithm 1, line 4);
2. expires instances whose window would overrun, emitting the buffer of an
   expired instance that sits in the accepting state (lines 7–10);
3. lets every surviving instance consume the event (Algorithm 2): each
   enabled transition yields a successor instance; several enabled
   transitions branch nondeterministically; an instance with no enabled
   transition survives unchanged unless it still sits in the start state.

Ω holds **runs**, not instances.  What Algorithm 2 asks of an instance
— whether a transition fires, and which summary registers its new
buffer node holds — depends on its state, its buffer's registers and
its last binding's variable and timestamp alone
(:meth:`Transition.admits_bindings
<repro.automaton.transitions.Transition.admits_bindings>`,
:class:`~repro.automaton.buffer.MatchBuffer`) — and of the registers,
only on those some decision still reachable from the state can read:
a transition whose register already holds ``CONFLICT`` or ``MISSING``
can never fire again, so what only it reads is dead
(:meth:`SESAutomaton.live_slots
<repro.automaton.automaton.SESAutomaton.live_slots>`).  Successors of
one event that agree on the variable and the live registers are one
run: a state, a ``count`` of members, the members' ``starts`` in order
(an instance's start is its earliest buffered timestamp), and one tip
in a DAG of buffer nodes whose paths are the members' buffers — an
"extend" node per firing run, and a
:class:`~repro.automaton.buffer.UnionNode`, carrying the live
registers, where runs joined.  Members that can no longer accept — the
bulk of Ω where a group variable binds other join keys' events — so
share one run.  A run of
one member is a plain instance that also records its start.  So an
event is decided once per run and enabled move, and builds one node per
firing run, however many members the run stands for.  The bookkeeping
stays per member: ``transitions_fired`` grows by ``fired × count``, |Ω|
is the sum of the counts, and so on for branchings, created, expired
and accepted instances — the counters of the instance-per-instance loop.

Expiry removes a run's oldest starts: the run records the newest start
removed (its ``dead`` cutoff) and a union records each child's, so the
members' paths that already left are never produced again.  Buffers are
walked — :func:`~repro.automaton.buffer.member_paths` — only where a
member leaves accepting, at :meth:`SESExecutor.finish`, or where Ω is
handed out (:meth:`SESExecutor.instances`, for checkpoints and the
resource guard's shedding).  A run that never empties would keep every
union it was built through, so once the members expired since the last
sweep reach |Ω|, a sweep after the step's emissions drops every union
child whose members have all expired
(:func:`~repro.automaton.buffer.drop_expired`).

Runs stay single instances only under a tracer: Figure 6 is one record
per instance per event.  The flight recorder rides runs: a run's step is
recorded once, with its members' starts, and a dump expands it into one
record per member (:class:`~repro.obs.flight.FlightRecorder`); a lineage
recorder is told of each accepted buffer where it is emitted.  A member
whose live registers stop summarising its partners (``WALK``) decides
by walking its own chain, so it rests as a single instance, as every
instance of ANALYZE's counting shadow does (its ``live_slots`` say so).

Ω is **one bucket per occupied automaton state, its runs ordered by
oldest start**, and a state all of whose outgoing transitions check
``v.A = u.B`` against one bound ``u.B``
(:meth:`SESAutomaton.probe <repro.automaton.automaton.SESAutomaton.probe>`)
also files its runs under the value their ``u`` events carry — the
probe's ``EQUAL`` register, which every member shares.  So per event:

* expiry is a cut at the head of each bucket — one comparison with the
  head of every occupied bucket when nothing expires, and
  ``next_expiry_ts`` is the minimum over the heads;
* the conditions on the event alone are evaluated once per event — each
  distinct one, into the event's class — and every occupied state reads
  its row of the automaton's step table
  (:meth:`SESAutomaton.step_rows
  <repro.automaton.automaton.SESAutomaton.step_rows>`): the transitions
  the class enables there.  A state without a row is not touched;
* an indexed state offers the event only to the runs filed under the
  event's own value(s) — plus the few no lookup can rule out — while any
  other state walks its bucket;
* successors are joined into runs and merged into their target buckets
  after every source has been consumed.

The lookup only chooses whom to ask: Algorithm 2 (``_consume``) still
decides every firing, so the accepted buffers and every counter are
those of the flat loop (kept as the oracle in
``tests/test_omega_index.py``).  What an emission point returns (and
tells a lineage recorder of) is in start order, buffers sharing a start
in the order of their bindings' timestamps, variable names and event
ids, so a run restored from a snapshot emits exactly what the
uninterrupted one does.  Every run is visited on every event only where
something depends on it: with a :class:`~repro.automaton.trace.Tracer`
attached (Figure 6 records the instances an event leaves alone) and in
``"contiguous"`` mode (leaving an instance alone ends it).

Every instance resting in Ω has bound an event, so it has a start and
sits outside the start state: the event's own start-state instance is
offered the event before it could rest and leaves successors or
nothing, and :meth:`SESExecutor.replace_instances` (so also
:meth:`SESExecutor.load_state`) refuses an instance that has bound
nothing.

For finite relations the executor additionally *flushes* accepting
instances at end of input — Algorithm 1 as printed only reports a match
once the window expires, which would silently drop matches completing in
the last τ time units of the data.

Result selection
----------------
Accepted buffers are candidates; Definition 2's skip-till-next-match and
maximality conditions (4 and 5) are then applied across the accepted set,
duplicates are removed, and (for the default ``selection="paper"``)
overlapping later matches are suppressed, yielding the paper's intended
results.  ``selection="all-starts"`` keeps one match per start position;
``selection="accepted"`` returns the raw accepted buffers.
"""

from __future__ import annotations

import copy
import logging
import time
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.events import Event
from ..core.semantics import SELECTIONS, select
from ..core.substitution import Substitution
from .automaton import SESAutomaton, StateProbe, StepRow
from .buffer import (CONFLICT, MISSING, UNBOUND, WALK, MatchBuffer,
                     UnionNode, drop_expired, member_paths, substitution_of)
from .instance import AutomatonInstance
from .metrics import ExecutionStats
from .states import State

__all__ = ["SESExecutor", "MatchResult"]

logger = logging.getLogger(__name__)

#: ``(stats attribute, counter name)`` pairs published to an
#: :class:`~repro.obs.Observability` registry after a batch run.
_STAT_COUNTERS = (
    ("events_read", "ses_events_read_total"),
    ("events_filtered", "ses_events_filtered_total"),
    ("events_processed", "ses_events_processed_total"),
    ("instances_created", "ses_instances_created_total"),
    ("transitions_fired", "ses_transitions_fired_total"),
    ("branchings", "ses_branchings_total"),
    ("expired_instances", "ses_instances_expired_total"),
    ("accepted_buffers", "ses_accepted_buffers_total"),
    ("matches", "ses_matches_total"),
)

#: Event-consumption modes.  ``"greedy"`` is Algorithm 2 as published
#: (skip-till-next-match: an instance whose transitions fire is replaced
#: by its successors).  ``"exhaustive"`` additionally keeps the original
#: instance alive (skip-till-any-match), so every candidate substitution
#: of conditions 1–3 is explored; combined with result selection this
#: yields exactly the declarative Definition 2 semantics, at an
#: exponential worst-case cost — an oracle-grade mode, not the paper's
#: algorithm.  ``"contiguous"`` is the strict-contiguity strategy of
#: SASE-style engines: an instance that cannot consume an event ends —
#: emitting its buffer if it already sits in the accepting state —
#: so matched events must be adjacent in the (filtered) input.
CONSUME_MODES = ("greedy", "exhaustive", "contiguous")

#: An instance's start: the timestamp its window is anchored at.  Every
#: instance outside the start state has one (a transition binds an event).
_start = attrgetter("buffer.min_ts")

#: A run's oldest start: runs are ordered by it.
_oldest = attrgetter("oldest")

#: Index key of the runs an equality lookup cannot rule out: no
#: partner event bound, or partner events that lack the attribute or
#: disagree on it.
_WILD = object()

#: Default of ``event.get``: nothing is ever filed under it.
_ABSENT = object()

#: ``id`` of the marker a register that no longer summarises holds:
#: looked for by identity, so no attribute value's ``__eq__`` is asked.
_WALK_ID = id(WALK)


class _Run(AutomatonInstance):
    """A run of one member: a plain instance, its buffer a chain, its
    start ``oldest`` — what most of Ω is, and what a step recorder is
    handed as the instance it is.  Costs what an instance costs plus
    its start; :class:`_Group` is a run of several."""

    __slots__ = ("oldest",)

    #: The newest start of a member that expired (none).
    dead = None

    def __init__(self, state: State, buffer: MatchBuffer, oldest):
        self.state = state
        self.buffer = buffer
        self.oldest = oldest

    @property
    def starts(self) -> tuple:
        """The members' starts, oldest first."""
        return (self.oldest,)

    @property
    def events(self) -> int:
        """The events the members have bound."""
        return self.buffer.size

    def members(self) -> List[Tuple]:
        """``(start, bindings)`` of every member."""
        return [(self.oldest, self.buffer.bindings())]


class _Group(_Run):
    """Members of Ω that rest in one state and agree on everything a
    decision reads: ``buffer`` is their tip in the DAG of buffer nodes,
    ``starts`` their starts in order (a tuple, so successors share it),
    ``count`` how many there are, ``dead`` the newest start of a member
    that already expired (``None``: none has) and ``events`` the sum of
    their buffer lengths (``None`` until worked out again, after an
    expiry that did not walk the members leaving).  One member left by
    such an expiry stays a group: its path still runs through unions.
    """

    __slots__ = ("starts", "count", "dead", "events")

    #: The members' starts, which a recorder keeps with the run's step.
    born = property(attrgetter("starts"))

    def __init__(self, state: State, buffer, starts: tuple, count: int,
                 dead, events: Optional[int]):
        self.state = state
        self.buffer = buffer
        self.oldest = starts[0]
        self.starts = starts
        self.count = count
        self.dead = dead
        self.events = events

    def members(self):
        # Up to its newest start: members leaving share the tip (_lose).
        return member_paths(self.buffer, self.dead, self.starts[-1])


def _single(state: State, buffer: MatchBuffer) -> _Run:
    """The run of one instance ``(state, buffer)``."""
    return _Run(state, buffer, buffer.min_ts)


def _by_state(instances: Iterable[AutomatonInstance]
              ) -> Dict[State, List[AutomatonInstance]]:
    """``instances`` grouped by the state they are in, order kept."""
    grouped: Dict[State, List[AutomatonInstance]] = {}
    for instance in instances:
        state = instance.state
        if state in grouped:
            grouped[state].append(instance)
        else:
            grouped[state] = [instance]
    return grouped


def _binding_order(bindings) -> list:
    """Order among members sharing a start: their bindings'
    timestamps, variable names and event ids, in binding order."""
    return [(event.ts, variable.name, str(event.eid))
            for variable, event in bindings]


def _in_order(members: List[Tuple]) -> List[Substitution]:
    """The substitutions of ``(start, bindings)`` members, in start
    order and, within a start, in :func:`_binding_order`."""
    if len(members) == 1:
        return [substitution_of(members[0][1])]
    members.sort(key=itemgetter(0))
    starts = [start for start, _ in members]
    if len(set(starts)) < len(starts):
        members.sort(key=lambda member: (member[0],
                                         _binding_order(member[1])))
    return [substitution_of(bindings) for _, bindings in members]


def _union(group: List[_Run], registers: tuple) -> _Group:
    """Join ``group`` — successors of one event in one state, agreeing
    on variable and on the live ``registers`` — into one run under one
    :class:`UnionNode` carrying those registers."""
    starts: list = []
    children = []
    events = 0
    for member in group:
        if member.__class__ is _Run:
            starts.append(member.oldest)
            newest = member.oldest
        else:
            starts += member.starts
            newest = member.starts[-1]
        children.append((member.buffer, member.dead, member.oldest, newest))
        if events is not None:
            events = (None if member.events is None
                      else events + member.events)
    starts.sort()
    return _Group(group[0].state, UnionNode(children, registers),
                  tuple(starts), len(starts), None, events)


def _same_types(held: tuple, registers: tuple) -> bool:
    """Equal registers that are also of one type slot by slot: ``1``,
    ``1.0`` and ``True`` compare equal, but a register holding one
    summarises the next value differently from one holding another."""
    return held is registers or [*map(type, held)] == [*map(type, registers)]


class _Bucket:
    """The runs resting in one automaton state, ordered by oldest start.

    ``by_value`` (indexed states only) files the same runs under the one
    value their :attr:`probe` partner carries — every member's, as they
    share the register — each list ordered by oldest start; the rest
    sit under :data:`_WILD`.
    A run remembers the key it is filed under (``run.key``).
    """

    __slots__ = ("state", "runs", "probe", "by_value", "accepting",
                 "joins")

    def __init__(self, state: State, probe: Optional[StateProbe],
                 accepting: bool, joins: bool):
        self.state = state
        self.runs: List[_Run] = []
        self.probe = probe
        self.by_value: Optional[dict] = None if probe is None else {}
        #: The automaton's accepting state: its members are emitted.
        self.accepting = accepting
        #: Successors arriving here are joined into runs: something
        #: leaves the state (members of a state nothing leaves only wait
        #: to expire or be flushed, one by one).
        self.joins = joins

    def key_of(self, run: _Run):
        """The value ``run`` is filed under: its probe partner's
        ``EQUAL`` register (a walk of the partner's events where the
        register could not summarise them — a single instance's chain,
        as such a run always is)."""
        probe = self.probe
        held = run.buffer.registers[probe.slot]
        if held is UNBOUND or held is MISSING or held is CONFLICT:
            return _WILD
        if held is not WALK:
            return held
        partners = run.buffer.events_of(probe.partner)
        value = partners[0].get(probe.attribute, _ABSENT)
        if value is _ABSENT:
            return _WILD
        for partner in partners[1:]:
            if not partner.get(probe.attribute, _ABSENT) == value:
                return _WILD
        return value

    def file(self, run: _Run) -> None:
        """Add ``run`` (already in :attr:`runs`) to the index, after the
        runs filed under its key that do not start later."""
        key = run.key = self.key_of(run)
        filed = self.by_value.get(key)
        if filed is None:
            self.by_value[key] = [run]
            return
        at = len(filed)
        oldest = run.oldest
        while at and filed[at - 1].oldest > oldest:
            at -= 1
        filed.insert(at, run)

    def unfile(self, run: _Run) -> None:
        """Drop ``run`` from the index."""
        key = run.key
        filed = self.by_value[key]
        if len(filed) == 1:
            del self.by_value[key]
        else:
            filed.remove(run)


@dataclass
class MatchResult:
    """Outcome of executing a SES automaton over an event relation."""

    #: Matching substitutions after result selection.
    matches: List[Substitution]
    #: Raw accepted buffers (before conditions 4–5 and deduplication).
    accepted: List[Substitution]
    #: Execution counters.
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    #: Finalised :class:`~repro.agg.result.AggregateSeries` when the run
    #: aggregated instead of enumerating; ``None`` otherwise.
    aggregates: Optional[object] = None

    def __iter__(self):
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)

    def to_rows(self) -> List[dict]:
        """Matches as plain dicts (for tabulation/serialisation).

        Each row maps variable names to the list of bound event ids (or
        timestamps when an event has no id) and carries ``start``/``end``
        timestamps.
        """
        rows: List[dict] = []
        for substitution in self.matches:
            row: dict = {
                "start": substitution.min_ts(),
                "end": substitution.max_ts(),
            }
            for variable in sorted(substitution.variables):
                row[repr(variable)] = [
                    e.eid if e.eid is not None else e.ts
                    for e in substitution.events_of(variable)
                ]
            rows.append(row)
        return rows

    def __repr__(self) -> str:
        return (f"MatchResult({len(self.matches)} matches, "
                f"{len(self.accepted)} accepted, "
                f"maxΩ={self.stats.max_simultaneous_instances})")


class SESExecutor:
    """Executes a SES automaton over a stream of time-ordered events.

    Parameters
    ----------
    automaton:
        The SES automaton to run.
    event_filter:
        Optional Section 4.5 pre-filter, asked ``admits(event)`` for
        every input event before the instance loop — a plan's
        :meth:`~repro.plan.plan.PatternPlan.prefilter`.  Its decisions
        are counted once, as ``stats.events_processed`` /
        ``stats.events_filtered``.
    selection:
        ``"paper"`` (default) post-filters accepted buffers with
        Definition 2's conditions 4–5 and suppresses overlapping later
        matches; ``"all-starts"`` keeps overlaps; ``"accepted"`` returns
        raw buffers.

    The executor is incremental: :meth:`feed` consumes one event and
    returns buffers accepted *by expiry* at that event; :meth:`finish`
    flushes end-of-input acceptances.  :meth:`run` wraps both for batch
    use.  A single executor may be reused after :meth:`reset`.
    """

    def __init__(self, automaton: SESAutomaton,
                 event_filter=None,
                 selection: str = "paper",
                 expire_on_filtered: bool = False,
                 consume_mode: str = "greedy",
                 tracer=None,
                 record_history: bool = False,
                 history_max_samples: Optional[int] = None,
                 obs=None,
                 flight=None,
                 guard=None,
                 aggregate=None):
        if selection not in SELECTIONS:
            raise ValueError(
                f"unknown selection {selection!r}; expected one of {SELECTIONS}"
            )
        if consume_mode not in CONSUME_MODES:
            raise ValueError(
                f"unknown consume_mode {consume_mode!r}; expected one of "
                f"{CONSUME_MODES}"
            )
        self.automaton = automaton
        self.event_filter = event_filter
        self.selection = selection
        self.consume_mode = consume_mode
        #: Optional :class:`~repro.automaton.trace.Tracer` recording every
        #: execution step (Figure 6 style).  Adds overhead; leave ``None``
        #: for measurement runs.
        self.tracer = tracer
        #: Also run the expiry sweep for filtered events.  Algorithm 1 with
        #: the Section 4.5 filter skips the whole instance loop, which is
        #: fine for batch runs (results are flushed at end of input) but
        #: delays match emission on live streams; streaming callers enable
        #: this so expiry — and hence emission — keeps up with time even
        #: when only irrelevant events arrive.  The accepted set is
        #: unchanged either way (expired instances cannot consume).
        self.expire_on_filtered = expire_on_filtered
        #: Record a per-event (timestamp, |Ω|) timeline in
        #: ``stats.omega_history`` (render with
        #: :func:`repro.automaton.metrics.sparkline`).
        self.record_history = record_history
        #: Cap on retained history samples (uniform downsampling beyond).
        self.history_max_samples = history_max_samples
        #: Optional :class:`repro.obs.Observability` bundle.  When set,
        #: :meth:`feed` times the filter and consume stages with spans,
        #: updates the |Ω| gauge, and observes per-event latency and
        #: instance lifetimes; :meth:`run` additionally times result
        #: selection and publishes the :class:`ExecutionStats` counters.
        #: ``None`` (the default) keeps the hot path instrumentation-free
        #: behind plain ``is None`` tests.
        self.obs = obs
        #: Optional :class:`repro.obs.flight.FlightRecorder`.  Attached,
        #: it records every execution step next to any full tracer,
        #: plus one |Ω| sample per processed event, so the tail of
        #: execution survives a crash.
        self.flight = flight
        #: Optional :class:`repro.resilience.guards.ResourceGuard` (or a
        #: bare :class:`~repro.resilience.guards.GuardConfig`, wrapped
        #: here) enforcing ceilings on |Ω|, buffer bytes and per-event
        #: time after every :meth:`feed`.  ``None`` (the default) costs
        #: a single ``is None`` check per event, like ``obs``.
        self.guard = guard
        if guard is not None and not hasattr(guard, "check"):
            from ..resilience.guards import ResourceGuard
            self.guard = ResourceGuard(
                guard, registry=None if obs is None else obs.registry)
        #: Optional :class:`~repro.agg.spec.AggregateSpec`.  Set, the
        #: executor folds aggregates incrementally over coalesced
        #: instance groups instead of enumerating matches: ``feed``
        #: returns no substitutions, ``run`` produces an empty match
        #: list whose :attr:`MatchResult.aggregates` carries the
        #: finalised values.  Aggregation folds the raw accepted
        #: buffers, so the selection is forced to ``"accepted"`` —
        #: the global selection passes would require materialisation.
        self.aggregate = aggregate
        self._agg = None
        if aggregate is not None:
            from ..agg.engine import AggregationEngine
            self.selection = "accepted"
            self._agg = AggregationEngine(
                automaton, aggregate, consume_mode=consume_mode)
        #: Optional :class:`~repro.obs.lineage.LineageRecorder`, taken
        #: from the observability bundle: :meth:`feed` stamps every
        #: event's ingest on it, :meth:`_accept` every accepted buffer.
        self.lineage = (None if obs is None
                        else getattr(obs, "lineage", None))
        #: Step recorders, in call order; every execution step goes to
        #: all of them through :meth:`_emit`.  Empty (the default) costs
        #: one truthiness test per step.
        self._hooks = tuple(hook for hook in (tracer, flight)
                            if hook is not None)
        if len(self._hooks) == 1:
            # The only recorder takes its steps directly.
            self._emit = self._hooks[0].record
        #: Offer every event to every run instead of looking the
        #: candidates up: a tracer records the instances an event leaves
        #: alone, and strict contiguity ends them.
        self._walks_all = tracer is not None or consume_mode == "contiguous"
        self.reset()

    def reset(self) -> None:
        """Clear all execution state for a fresh run."""
        self._buckets: Dict[State, _Bucket] = {}
        self._count = 0
        self._accepted_during_consume: List[Substitution] = []
        self._next_expiry = None
        self._expiry_stale = False
        self._unswept = 0
        self._last_ts = None
        self._published_stats = {}
        self.stats = ExecutionStats()
        if getattr(self, "_agg", None) is not None:
            self._agg.reset()
        if getattr(self, "record_history", False):
            self.stats.enable_history(
                max_samples=getattr(self, "history_max_samples", None))

    @property
    def active_instances(self) -> int:
        """Current size of Ω (coalesced groups in aggregate mode)."""
        if self._agg is not None:
            return self._agg.group_count
        return self._count

    # ------------------------------------------------------------------
    # Ω: one bucket per occupied state
    # ------------------------------------------------------------------
    def instances(self) -> List[AutomatonInstance]:
        """Ω as one list of instances in start order (oldest first);
        instances sharing a start come state by state, and within a
        state in the order of their bindings.  A run of several members
        is handed out as that many fresh instances."""
        rank = self.automaton.state_rank
        members = []
        for state, bucket in self._buckets.items():
            order = rank(state)
            for run in bucket.runs:
                if run.__class__ is _Run:
                    members.append((run.oldest, order,
                                    AutomatonInstance(state, run.buffer)))
                    continue
                registers = run.buffer.registers
                for start, bindings in run.members():
                    members.append((start, order, AutomatonInstance(
                        state, MatchBuffer.from_bindings(bindings,
                                                         registers))))
        members.sort(key=lambda member: (
            member[0], member[1],
            _binding_order(member[2].buffer.bindings())))
        return [instance for _, _, instance in members]

    def replace_instances(self,
                          instances: Iterable[AutomatonInstance]) -> None:
        """Make ``instances`` (in any order) the new Ω, each its own run.

        An instance in the start state or with an empty buffer has bound
        no event, and Ω never holds one: it raises :class:`ValueError`,
        leaving Ω as it was.
        """
        instances = list(instances)
        start = self.automaton.start
        for instance in instances:
            if instance.state == start or not instance.buffer:
                raise ValueError(f"cannot rest in Ω: {instance!r} is in "
                                 f"the start state or has bound no event")
        by_state = _by_state(_single(instance.state, instance.buffer)
                             for instance in sorted(instances, key=_start))
        self._buckets = {}
        self._count = len(instances)
        self._expiry_stale = True
        for state in sorted(by_state, key=self.automaton.state_rank):
            self._arrive(state, by_state[state])

    @property
    def buffered_events(self) -> int:
        """The events bound across Ω — the sum of every instance's
        buffer length — without handing Ω out: kept per run, and worked
        out again from the run's paths only after an expiry removed
        members it did not walk."""
        total = 0
        for bucket in self._buckets.values():
            for run in bucket.runs:
                events = run.events
                if events is None:
                    events = run.events = sum(
                        len(bindings) for _, bindings in run.members())
                total += events
        return total

    def _open(self, state: State) -> _Bucket:
        """The bucket of a state occupied for the first time.

        Buckets are kept in :meth:`SESAutomaton.state_rank` order (and
        never removed, only emptied), so a step visits the occupied
        states in an order that depends on Ω alone, not on how it came
        about — a restored snapshot continues exactly like the run that
        wrote it.
        """
        automaton = self.automaton
        buckets = self._buckets
        rank = automaton.state_rank
        last = next(reversed(buckets), None)
        buckets[state] = bucket = _Bucket(
            state, None if self._walks_all else automaton.probe(state),
            state == automaton.accepting,
            self.tracer is None and bool(automaton.outgoing(state)))
        if last is not None and rank(state) < rank(last):
            self._buckets = dict(sorted(buckets.items(),
                                        key=lambda item: rank(item[0])))
        return bucket

    def _arrive(self, state: State, arrivals: List[_Run],
                unordered: bool = False, made: bool = False) -> None:
        """Merge ``arrivals`` (ordered by oldest start, unless
        ``unordered``) into the bucket of ``state``, after the residents
        that share their start.  Successors ``made`` by one event are
        joined into runs first where the state joins them."""
        bucket = self._buckets.get(state)
        if bucket is None:
            bucket = self._open(state)
        if made and bucket.joins and (len(arrivals) > 1
                                      or arrivals[0].__class__ is not _Run):
            joined = self._coalesce(arrivals)
            if joined is not arrivals:
                arrivals = joined
                unordered = True
        if unordered:
            arrivals.sort(key=_oldest)
        self._expiry_stale = True
        residents = bucket.runs
        if not residents:
            bucket.runs = arrivals
        else:
            late = arrivals[0].oldest >= residents[-1].oldest
            residents.extend(arrivals)
            if not late:
                residents.sort(key=_oldest)
        if bucket.probe is not None:
            for run in arrivals:
                bucket.file(run)

    def _coalesce(self, moved: List[_Run]) -> List[_Run]:
        """The successors ``moved`` — made by one event, bound for one
        state that something leaves — as the runs they rest as there:
        those that agree on their variable and on the registers a
        decision can still read there
        (:meth:`SESAutomaton.live_slots
        <repro.automaton.automaton.SESAutomaton.live_slots>`) as one run
        each, carrying those registers.  A successor whose live
        registers no longer summarise (``WALK``) decides by walking its
        own chain, so it stays, or becomes, single instances; a run
        whose masked registers alone walk rests under a union carrying
        the masked ones, whatever it joins.  (In a
        state nothing leaves no register is read again, so nothing there
        is joined or split.)  Returns ``moved`` itself when nothing
        changes."""
        live = self.automaton.live_slots(moved[0].state)
        groups: Dict[tuple, Tuple[tuple, List[_Run]]] = {}
        runs: List[_Run] = []
        changed = False
        for run in moved:
            buffer = run.buffer
            registers = live(buffer.registers)
            if _WALK_ID in map(id, registers):
                if run.__class__ is _Run:
                    runs.append(run)
                else:
                    runs += [_single(run.state, MatchBuffer.from_bindings(
                        bindings, registers))
                        for _, bindings in run.members()]
                    changed = True
                continue
            if (run.__class__ is not _Run
                    and _WALK_ID in map(id, buffer.registers)):
                # Only a masked register walks, but a blocked decision
                # may still read it first, and a tip above a union has
                # no chain to walk: the run rests under a union of its
                # own, carrying the masked registers.
                run = _union([run], registers)
                changed = True
            key = (buffer.variable, registers)
            try:
                group = groups.get(key)
            except TypeError:  # a register no dict can key
                runs.append(run)
                continue
            if group is None:
                groups[key] = (registers, [run])
            elif _same_types(group[0], registers):
                group[1].append(run)
            else:
                runs.append(run)
        for registers, group in groups.values():
            if len(group) == 1:
                runs.append(group[0])
            else:
                runs.append(_union(group, registers))
                changed = True
        return runs if changed else moved

    # ------------------------------------------------------------------
    # Incremental execution
    # ------------------------------------------------------------------
    def feed(self, event: Event,
             allow_start: bool = True) -> List[Substitution]:
        """Consume one event; return buffers accepted by window expiry.

        With a resource guard attached, the guard's ceilings are checked
        (and its breach policy applied) after the event is processed.

        ``allow_start=False`` skips creating the fresh start-state
        instance for this event.  A caller may only pass it when it has
        proven no start transition can fire on the event (the registry's
        shared start gate does exactly that) — the fresh instance would
        then be dropped inside the consume loop anyway, so the match set
        is unchanged.
        """
        obs = self.obs
        guard = self.guard
        if self.lineage is not None:
            self.lineage.note_ingest(event)
        self._advance_clock(event)
        timed = obs is not None or (guard is not None and guard.time_limited)
        if timed:
            start = time.perf_counter()
        event_filter = self.event_filter
        admitted = event_filter is None or event_filter.admits(event)
        if obs is not None:
            filtered_at = time.perf_counter()
            obs.spans.add("filter", filtered_at - start)
        if admitted:
            self.stats.events_processed += 1
            accepted = self._step(event, allow_start)
            if obs is not None:
                obs.spans.add("consume", time.perf_counter() - filtered_at)
        else:
            self.stats.events_filtered += 1
            accepted = (self._step(event, consume=False)
                        if self.expire_on_filtered else [])
        elapsed = time.perf_counter() - start if timed else None
        if obs is not None:
            obs.omega(self.active_instances)
            obs.event_seconds(elapsed)
        if guard is not None:
            guard.check(self, event, elapsed)
        return accepted

    def _advance_clock(self, event: Event) -> None:
        """Shared prologue of :meth:`feed` and :meth:`expire`: count the
        event as read and enforce chronological arrival."""
        self.stats.events_read += 1
        if self._last_ts is not None and event.ts < self._last_ts:
            raise ValueError(
                f"events must arrive in chronological order; got T={event.ts} "
                f"after T={self._last_ts}"
            )
        self._last_ts = event.ts

    @property
    def next_expiry_ts(self):
        """Latest timestamp the current Ω survives unchanged.

        An event with ``ts`` at or below this value expires nothing (an
        expiry-only sweep would be a no-op); the first event beyond it
        expires the oldest instance.  ``None`` when Ω is empty —
        nothing can expire.  Callers that batch events
        (the registry's shared admission pass) use this to skip the
        per-event expiry sweeps that cannot fire.
        """
        if self._agg is not None:
            return self._agg.next_expiry_ts
        if self._expiry_stale:
            # The minimum over the bucket heads; it stands until a run
            # arrives in a bucket or a member leaves one.
            heads = [bucket.runs[0].oldest
                     for bucket in self._buckets.values()
                     if bucket.runs]
            self._next_expiry = (min(heads) + self.automaton.tau
                                 if heads else None)
            self._expiry_stale = False
        return self._next_expiry

    def expire(self, event: Event) -> List[Substitution]:
        """Advance the expiry clock without offering the event to Ω.

        The bookkeeping twin of the filtered branch of :meth:`feed`: the
        event counts as read-and-filtered, the chronology check runs, and
        instances whose window the event's timestamp overruns expire
        (emitting accepting buffers).  Used by callers that decide
        admission outside the executor — the registry's shared admission
        pass calls this for events its merged prefilter rejected.
        """
        self._advance_clock(event)
        self.stats.events_filtered += 1
        return self._step(event, consume=False)

    def _emit(self, kind: str, event: Optional[Event],
              instance: AutomatonInstance, transition=None,
              successor=None) -> None:
        """Report one execution step to every attached step recorder
        (tracer, flight recorder).  Callers test ``self._hooks`` first."""
        for hook in self._hooks:
            hook.record(kind, event, instance, transition, successor)

    def _step(self, event: Event, allow_start: bool = True,
              consume: bool = True) -> List[Substitution]:
        """Algorithm 1's per-event instance loop (post-filter).

        ``consume=False`` is the expiry-only sweep run for events the
        filter rejected: windows expire and accepting buffers are
        emitted, but no instance is created and none sees the event.
        """
        stats = self.stats
        if self._agg is not None:
            if consume:
                self._agg.step(event, allow_start, stats)
                if self.lineage is not None:
                    self.lineage.note_fold(event, self._agg.matches_folded)
                if self.flight is not None:
                    self.flight.sample_omega(event.ts, self._agg.group_count)
            else:
                self._agg.expire_only(event, stats)
            return []
        obs = self.obs
        hooks = self._hooks
        automaton = self.automaton
        tau = automaton.tau
        ts = event.ts

        fresh = None
        if consume:
            # The event's own instance rests nowhere: it is offered the
            # event first (the start state is the first in rank) and
            # leaves successors or nothing.  Until then it counts.
            count = self._count
            if allow_start:
                fresh = _Run(automaton.start, automaton.empty_buffer, ts)
                count += 1
                stats.instances_created += 1
            stats.observe_event(ts)
            stats.observe_omega(count)
            if obs is not None:
                obs.omega(count)
            if hooks and allow_start:
                self._emit("start", event, fresh)

        self._accepted_during_consume = accepted = []
        expired: List[_Run] = []
        expired_before = stats.expired_instances
        for bucket in self._buckets.values():
            runs = bucket.runs
            if runs and ts - runs[0].oldest > tau:
                expired += self._cut_expired(bucket, event, accepted)
        if expired:
            accepting = automaton.accepting
            if hooks:
                expired.sort(key=_oldest)
            for run in expired:
                count = run.count
                stats.expired_instances += count
                if obs is not None:
                    for start in run.starts:
                        obs.lifetime(ts - start)
                if hooks:
                    self._emit("expire", event, run)
                if run.state == accepting:
                    accepted += run.members()
                    stats.accepted_buffers += count
                    if hooks:
                        self._emit("accept", event, run)
        if consume:
            self._offer(event, fresh)
            stats.observe_omega(self._count)
            if self.flight is not None:
                self.flight.sample_omega(ts, self._count)
        if stats.expired_instances != expired_before:
            self._unswept += stats.expired_instances - expired_before
            if self._unswept >= self._count:
                self._sweep(ts)
        return self._accept(accepted) if accepted else []

    def _accept(self, members: List[Tuple]) -> List[Substitution]:
        """The accepted ``(start, bindings)`` ``members``, :func:`_in_order`,
        each noted on the lineage recorder, if one is attached."""
        accepted = _in_order(members)
        if self.lineage is not None:
            for (_, bindings), substitution in zip(members, accepted):
                self.lineage.note_accepted(bindings, substitution)
        return accepted

    def _sweep(self, ts) -> None:
        """Let go of the buffer paths of members that expired: every
        union child all of whose members the window at ``ts`` overruns
        is dropped (:func:`~repro.automaton.buffer.drop_expired`).  Run
        after the step's emissions — the members leaving accepting were
        walked by then — and only once the members expired since the
        last sweep reach |Ω|, so it costs each expired member a constant
        share of one walk of Ω's nodes."""
        self._unswept = 0
        drop_expired((run.buffer for bucket in self._buckets.values()
                      for run in bucket.runs if run.__class__ is not _Run),
                     ts, self.automaton.tau)

    def _cut_expired(self, bucket: _Bucket, event: Event,
                     accepted: List[Tuple]) -> List[_Run]:
        """Remove from ``bucket`` and return the runs all of whose
        members' window ``event`` overruns (Algorithm 1, line 7): a
        prefix, the head being one of them.  A run of that prefix
        keeping some members only loses its oldest (:meth:`_lose`) and
        stays."""
        tau = self.automaton.tau
        ts = event.ts
        runs = bucket.runs
        cut = 1
        while cut < len(runs) and ts - runs[cut].oldest > tau:
            cut += 1
        expired = runs[:cut]
        del runs[:cut]
        by_value = bucket.by_value
        left = 0
        keep = []
        for run in expired:
            count = run.count
            if count > 1 and not ts - run.starts[-1] > tau:
                keep.append(run)
                continue
            left += count
            if by_value is not None:
                bucket.unfile(run)
        if keep:
            expired = [run for run in expired if run not in keep]
            for run in keep:
                left += self._lose(run, event, accepted, bucket.accepting)
                if by_value is not None:
                    # Its oldest start moved: file it where it now goes.
                    bucket.unfile(run)
                    bucket.file(run)
            runs += keep
            runs.sort(key=_oldest)
        self._count -= left
        self._expiry_stale = True
        return expired

    def _lose(self, run: _Group, event: Event, accepted: List[Tuple],
              accepting: bool) -> int:
        """Expire the members of ``run`` whose window ``event`` overruns
        — some, not all — and return how many: their starts are popped,
        the newest of them becomes the run's cutoff, and their paths
        are walked only if the run is accepting.  They leave as a run of
        their own, which is what a recorder is told of."""
        tau = self.automaton.tau
        ts = event.ts
        starts = run.starts
        cut = 1
        while ts - starts[cut] > tau:
            cut += 1
        leavers = _Group(run.state, run.buffer, starts[:cut], cut, run.dead,
                         None)
        stats = self.stats
        stats.expired_instances += cut
        if self.obs is not None:
            for start in leavers.starts:
                self.obs.lifetime(ts - start)
        if accepting:
            accepted += leavers.members()
            stats.accepted_buffers += cut
        if self._hooks:
            self._emit("expire", event, leavers)
            if accepting:
                self._emit("accept", event, leavers)
        run.starts = starts[cut:]
        run.oldest = starts[cut]
        run.count -= cut
        run.dead = starts[cut - 1]
        run.events = None
        return cut

    def _offer(self, event: Event, fresh: Optional[_Run]) -> None:
        """Offer ``event`` to ``fresh`` (its own start-state instance, if
        it gets one) and to Ω, state by state (Algorithm 2 per bucket).

        The event is classified once and every occupied state reads its
        row of the step table.  A state without a row is left as it is;
        an indexed state offers the event only to the runs filed under
        the event's value(s) (and the unfiled ones); any other state
        walks its bucket.  Successors are held back per target state
        until every source has been consumed, so none is offered the
        event that made it; then those that agree on what a decision
        reads are joined into one run.
        """
        rows = self.automaton.step_rows(event)
        walks_all = self._walks_all
        consume = self._consume
        out: List[_Run] = []
        if fresh is not None:
            self._count += 1  # until it leaves, like any run consuming
            consume((fresh,), rows[fresh.state], event, out)
        arrivals = _by_state(out)
        unordered = set()
        for bucket in self._buckets.values():
            residents = bucket.runs
            if not residents:
                continue
            row = rows[bucket.state]
            by_value = bucket.by_value
            if by_value is None:
                if row is None and not walks_all:
                    continue
                offered = (residents,)
            else:
                if row is None:
                    continue
                keys = []
                for attribute in row.attributes:
                    key = event.get(attribute, _ABSENT)
                    if key in by_value and key not in keys:
                        keys.append(key)
                if _WILD in by_value:
                    keys.append(_WILD)
                if not keys:
                    continue
                offered = [by_value[key] for key in keys]
            out = []
            # The first list's leavers are taken as they come: copying
            # them into a list of this frame's own read 8 % slower on
            # the ledger's P3 units (EXPERIMENTS.md, PR 23).
            gone = consume(offered[0], row, event, out)
            for candidates in offered[1:]:
                gone += consume(candidates, row, event, out)
            if gone:
                self._expiry_stale = True
                if len(gone) == len(residents):
                    bucket.runs = []
                    if by_value:
                        by_value.clear()
                else:
                    if len(gone) == 1:
                        residents.remove(gone[0])
                    else:
                        left = set(gone)
                        bucket.runs = [run for run in residents
                                       if run not in left]
                    if by_value is not None:
                        for run in gone:
                            bucket.unfile(run)
            if not out:
                continue
            # Successors of one list come out in its (oldest start) order.
            ordered = len(offered) == 1
            for target, moved in _by_state(out).items():
                if target in arrivals:
                    arrivals[target] += moved
                    unordered.add(target)
                else:
                    arrivals[target] = moved
                    if not ordered:
                        unordered.add(target)
        for target, moved in arrivals.items():
            self._arrive(target, moved, target in unordered, True)

    def _consume(self, candidates: Sequence[_Run],
                 row: Optional[StepRow], event: Event,
                 out: List[_Run]) -> List[_Run]:
        """Algorithm 2 (ConsumeEvent) for ``candidates`` — runs of one
        state — appending their successors to ``out`` and returning
        those that left the state; |Ω| counts both from here on.

        Conditions on the event alone are the same for every instance in
        a state, so they are not asked here: ``row``, the state's row of
        the step table, names the outgoing transitions that pass them
        (``None``: there is none), and per run only each one's
        :meth:`~repro.automaton.transitions.Transition.admits_bindings`
        runs — once for all the run's members, which agree on what it
        reads.  A transition that fires costs that decision, one buffer
        node (the run's tip extended by the event, the registers the
        variable feeds updated) and one run — none of it grows with the
        buffers or with the members; the counters move by the members,
        once per call.

        In ``"exhaustive"`` mode the original instance also survives when
        transitions fire, so the run may *skip* a consumable event — the
        skip-till-any-match behaviour needed for Definition-2 exactness.
        """
        hooks = self._hooks
        emit = self._emit if hooks else None
        moves = () if row is None else row.moves
        state = candidates[0].state
        mode = self.consume_mode
        exhaustive = mode == "exhaustive" and state != self.automaton.start
        rests = None  # worked out for the first run nothing fires on
        gone: List[_Run] = []
        transitions_fired = branchings = kept = left = 0
        for run in candidates:
            buffer = run.buffer
            fired = 0
            for admits_bindings, target, variable, updates, transition \
                    in moves:
                if admits_bindings(event, buffer):
                    node = MatchBuffer(buffer, variable, event, updates)
                    if run.__class__ is _Run:
                        successor = _Run(target, node, run.oldest)
                    else:
                        events = run.events
                        successor = _Group(
                            target, node, run.starts, run.count, run.dead,
                            None if events is None else events + run.count)
                    out.append(successor)
                    fired += 1
                    if hooks:
                        emit("transition", event, run, transition,
                             successor)
            if fired:
                count = run.count
                transitions_fired += fired * count
                if fired > 1:
                    branchings += (fired - 1) * count
                if exhaustive:
                    kept += count
                else:
                    gone.append(run)
                    left += count
                continue
            if rests is None:
                rests = state != self.automaton.start
            if not rests:
                gone.append(run)
                left += run.count
                if hooks:
                    emit("drop", event, run)
            elif mode == "contiguous":
                # Strict contiguity: a non-consumable event ends the run;
                # a run already in the accepting state is complete.
                gone.append(run)
                left += run.count
                if state == self.automaton.accepting:
                    self._accepted_during_consume += run.members()
                    self.stats.accepted_buffers += run.count
                    if hooks:
                        emit("accept", event, run)
                elif hooks:
                    emit("drop", event, run)
            elif self.tracer is not None:
                # Figure 6's "ignored by instance at ..." line: only a
                # tracer wants it, and only a walk of every instance
                # (which a tracer forces) can produce it.
                self.tracer.record("skip", event, run)
        # |Ω| moves by the members made and the members gone; the
        # successors are counted here, before they arrive.
        self._count += transitions_fired - left
        if transitions_fired:
            stats = self.stats
            stats.transitions_fired += transitions_fired
            stats.branchings += branchings
            stats.instances_created += branchings + kept
        return gone

    @property
    def matches_folded(self) -> int:
        """Matches folded into aggregates so far (0 without a spec)."""
        return 0 if self._agg is None else self._agg.matches_folded

    def aggregate_snapshot(self) -> Optional[dict]:
        """Mergeable partial-aggregate snapshot (``None`` without a spec)."""
        return None if self._agg is None else self._agg.snapshot()

    def aggregate_result(self):
        """Current aggregates as an :class:`~repro.agg.result.AggregateSeries`
        (``None`` without a spec)."""
        if self._agg is None:
            return None
        from ..agg.result import AggregateSeries
        return AggregateSeries(self.aggregate, self._agg.snapshot(),
                               stats=self.stats)

    def finish(self) -> List[Substitution]:
        """Flush: accept buffers of instances resting in the accepting state."""
        if self._agg is not None:
            self._agg.finish(self.stats)
            return []
        members = []
        bucket = self._buckets.get(self.automaton.accepting)
        if bucket is not None:
            for run in bucket.runs:
                members += run.members()
                self.stats.accepted_buffers += run.count
                if self._hooks:
                    self._emit("flush", None, run)
        self.replace_instances(())
        return self._accept(members)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot the execution state for checkpoint/restore.

        Captures Ω (as ``(state, buffer)`` pairs — both immutable — in
        the order of :meth:`instances`), the last-processed timestamp
        and a deep copy of the counters: what the run still needs, not
        the buffers :meth:`feed` already returned (those are the
        caller's).  Restoring the snapshot into a fresh executor over
        the same automaton and then feeding the same suffix of events
        reproduces the run exactly (execution is deterministic in the
        event sequence).
        """
        snapshot = {
            "omega": [(instance.state, instance.buffer)
                      for instance in self.instances()],
            "last_ts": self._last_ts,
            "stats": copy.deepcopy(self.stats),
        }
        if self._agg is not None:
            snapshot["agg"] = self._agg.state_dict()
        return snapshot

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (inverse of it).

        Ω goes through :meth:`replace_instances`, so a snapshot holding an
        instance that has bound no event raises :class:`ValueError`.
        """
        self.replace_instances(AutomatonInstance(q, beta)
                               for q, beta in state["omega"])
        self._accepted_during_consume = []
        self._last_ts = state["last_ts"]
        self.stats = copy.deepcopy(state["stats"])
        self._published_stats = {}
        if self._agg is not None and "agg" in state:
            self._agg.load_state(state["agg"])

    # ------------------------------------------------------------------
    # Batch execution and result selection
    # ------------------------------------------------------------------
    def run(self, events: Iterable[Event]) -> MatchResult:
        """Execute over a complete relation and select results.

        With a flight recorder attached, an exception escaping the run
        carries the recorder's dump as ``exc.flight_dump`` — the tail of
        execution leading up to the failure.
        """
        self.reset()
        accepted: List[Substitution] = []
        current: Optional[Event] = None
        try:
            for event in events:
                current = event
                accepted += self.feed(event)
            current = None
            accepted += self.finish()
        except Exception as exc:
            if self.flight is not None and not hasattr(exc, "flight_dump"):
                self.flight.note_crash(
                    current, f"{type(exc).__name__}: {exc}")
                exc.flight_dump = self.flight.dump()
                logger.error(
                    "executor failed after %d event(s); flight recorder "
                    "holds %d step(s)", self.stats.events_read,
                    len(self.flight))
            raise
        if self._agg is not None:
            # No enumeration: matches stays empty (ses_matches_total does
            # not grow) and the fold totals ride on the result.
            self.publish_stats()
            logger.debug(
                "aggregate run complete: %d events, %d matches folded, "
                "max groups=%d", self.stats.events_read,
                self._agg.matches_folded, self._agg.max_groups)
            return MatchResult(matches=[], accepted=[], stats=self.stats,
                               aggregates=self.aggregate_result())
        matches = self.select(accepted)
        self.stats.matches = len(matches)
        self.publish_stats()
        logger.debug(
            "run complete: %d events, %d accepted, %d matches, max|Ω|=%d",
            self.stats.events_read, self.stats.accepted_buffers,
            self.stats.matches, self.stats.max_simultaneous_instances)
        return MatchResult(matches=matches, accepted=accepted,
                           stats=self.stats)

    def select(self, accepted: Sequence[Substitution]) -> List[Substitution]:
        """Apply the configured result selection to accepted buffers."""
        if self.obs is None:
            return select(accepted, self.selection)
        with self.obs.span("select"):
            return select(accepted, self.selection)

    def publish_stats(self) -> None:
        """Mirror the :class:`ExecutionStats` counters into the registry.

        Delta-aware, so it is safe to call repeatedly (streaming callers
        publish at every snapshot point); a no-op without ``obs``.
        """
        if self.obs is None:
            return
        registry = self.obs.registry
        published = self._published_stats
        for attr, name in _STAT_COUNTERS:
            value = getattr(self.stats, attr)
            delta = value - published.get(attr, 0)
            if delta:
                registry.counter(name).inc(delta)
                published[attr] = value
        registry.gauge(
            "ses_omega_peak",
            help="max simultaneously active instances this run",
        ).set(self.stats.max_simultaneous_instances)
        if self._agg is not None:
            folded = self._agg.matches_folded
            delta = folded - published.get("_agg_folded", 0)
            if delta:
                registry.counter(
                    "ses_agg_matches_folded_total",
                    help="matches folded into aggregates (not materialised)",
                ).inc(delta)
                published["_agg_folded"] = folded
            registry.gauge(
                "ses_agg_groups",
                help="active coalesced instance groups",
            ).set(self._agg.group_count)
            registry.gauge(
                "ses_agg_groups_peak",
                help="max coalesced instance groups this run",
            ).set(self._agg.max_groups)
