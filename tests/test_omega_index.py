"""Ω bucketed by state and join value against the flat list it replaced.

:class:`FlatExecutor` is the per-event loop as it stood before
``SESExecutor`` bucketed Ω — one list, every instance tested for expiry
and offered every admitted event, ``next_expiry_ts`` scanning the list —
kept here as the oracle, together with the match buffer and the binding
decision as they stood before buffers became parent-pointer nodes with
summary registers: :class:`TupleBuffer` copies its per-variable tuples on
every extension, and :meth:`FlatExecutor.admits_bindings` walks every
bound partner event.  The bucketed executor must be the same machine
seen from outside: the same buffers accepted at the same events (in
start order; instances sharing a start may swap places), the same Ω, the
same counters, for every step recorder (tracer, flight recorder) the
same steps, and a lineage recorder the records the oracle's accepted
buffers make — whatever the consume mode.
"""

import itertools
from collections import Counter
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event, GuardConfig, SESPattern
from repro.automaton import (AutomatonInstance, SESAutomaton, SESExecutor,
                             Tracer, Transition)
from repro.automaton.buffer import WALK
from repro.automaton.builder import build_automaton
from repro.automaton.executor import CONSUME_MODES
from repro.core.conditions import parse_condition
from repro.core.events import TIME_ATTRIBUTE
from repro.core.substitution import Substitution
from repro.core.variables import Variable, group, var
from repro.lang import parse_pattern
from repro.obs import FlightRecorder, Observability
from repro.obs.lineage import LineageRecorder, match_id
from repro.obs.tracectx import TraceConfig
from repro.plan.cache import compile as compile_plan
from repro.resilience.guards import ResourceGuard


def _start_key(instance):
    min_ts = instance.buffer.min_ts
    return (min_ts is None, min_ts)


class TupleBuffer:
    """The match buffer of commit dffcde2 (``MatchBuffer`` then),
    verbatim but for :meth:`bindings`: a per-variable tuple of events,
    copied on every extension.

    Events are appended in consumption order, which is chronological, so
    per-variable tuples stay time-sorted without explicit sorting.
    """

    __slots__ = ("by_var", "min_ts", "max_ts", "size")

    def __init__(self, by_var: Optional[Dict[Variable, Tuple]] = None,
                 min_ts=None, max_ts=None, size: int = 0):
        self.by_var = by_var if by_var is not None else {}
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.size = size

    def extend(self, variable, event) -> "TupleBuffer":
        """Return a new buffer with ``variable/event`` appended."""
        by_var = dict(self.by_var)
        by_var[variable] = by_var.get(variable, ()) + (event,)
        min_ts = event.ts if self.min_ts is None else self.min_ts
        return TupleBuffer(by_var, min_ts, event.ts, self.size + 1)

    def events_of(self, variable) -> Tuple:
        """Events bound to ``variable``, chronologically (may be empty)."""
        return self.by_var.get(variable, ())

    def bindings(self) -> list:
        """The bindings chronologically (across variables the tuples
        keep no firing order, so events sharing a timestamp come
        variable by variable)."""
        pairs = [(v, e) for v, events in self.by_var.items() for e in events]
        pairs.sort(key=lambda pair: pair[1].ts)
        return pairs

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def to_substitution(self) -> Substitution:
        return Substitution.from_chronological(self.by_var)

    def __repr__(self) -> str:
        parts = []
        for variable in sorted(self.by_var):
            for event in self.by_var[variable]:
                parts.append(f"{variable!r}/{event.eid or event.ts}")
        return "{" + ", ".join(parts) + "}"


def advance(instance, target, variable, event) -> AutomatonInstance:
    """The successor instance after binding ``variable/event``
    (``AutomatonInstance.advance`` of commit dffcde2)."""
    return AutomatonInstance(target, instance.buffer.extend(variable, event))


def expired(instance, event, tau) -> bool:
    """Expiry check of Algorithm 1 (``AutomatonInstance.expired`` of
    commit dffcde2): an instance with an empty buffer never expires."""
    min_ts = instance.buffer.min_ts
    if min_ts is None:
        return False
    return event.ts - min_ts > tau


def as_chain(automaton, buffer):
    """A :class:`TupleBuffer` as the node chain ``automaton`` builds,
    bindings replayed chronologically."""
    chain = automaton.empty_buffer
    for variable, event in buffer.bindings():
        chain = automaton.extend(chain, variable, event)
    return chain


class FlatExecutor(SESExecutor):
    """Algorithms 1-2 over one flat list Ω (``_step``, ``_consume``,
    ``next_expiry_ts`` and ``finish`` of commit 7f600f9, verbatim), its
    instances holding :class:`TupleBuffer` s and deciding bindings by
    :meth:`admits_bindings`."""

    def admits_bindings(self, transition, event, buffer) -> bool:
        """``Transition.admits_bindings`` of commit dffcde2, verbatim:
        ``event`` against every bound partner event."""
        bound = buffer.by_var
        attrs = event._attrs
        for partner, attribute, op, partner_attribute \
                in transition.binding_rows:
            partners = bound[partner] if partner in bound else None
            if not partners:
                continue
            if attribute == TIME_ATTRIBUTE:
                lhs = event.ts
            elif attribute in attrs:
                lhs = attrs[attribute]
            else:
                return False
            try:
                if partner_attribute == TIME_ATTRIBUTE:
                    for other in partners:
                        if not op(lhs, other.ts):
                            return False
                else:
                    for other in partners:
                        others = other._attrs
                        if (partner_attribute not in others
                                or not op(lhs, others[partner_attribute])):
                            return False
            except TypeError:
                return False
        return True

    def reset(self) -> None:
        super().reset()
        self._omega: List[AutomatonInstance] = []

    @property
    def active_instances(self) -> int:
        return len(self._omega)

    @property
    def buffered_events(self) -> int:
        return sum(len(instance.buffer) for instance in self._omega)

    def instances(self):
        return sorted(self._omega, key=_start_key)

    def replace_instances(self, instances) -> None:
        self._omega = sorted(instances, key=_start_key)

    @property
    def next_expiry_ts(self):
        oldest = None
        for instance in self._omega:
            min_ts = instance.buffer.min_ts
            if min_ts is not None and (oldest is None or min_ts < oldest):
                oldest = min_ts
        return None if oldest is None else oldest + self.automaton.tau

    def _step(self, event, allow_start=True, consume=True):
        stats = self.stats
        obs = self.obs
        hooks = self._hooks
        automaton = self.automaton
        tau = automaton.tau
        accepting = automaton.accepting

        omega = self._omega
        if consume:
            if allow_start:
                fresh = AutomatonInstance(automaton.start, TupleBuffer())
                omega.append(fresh)
                stats.instances_created += 1
            stats.observe_event(event.ts)
            stats.observe_omega(len(omega))
            if obs is not None:
                obs.omega(len(omega))
            if hooks and allow_start:
                self._emit("start", event, fresh)
            self._enabled = {}

        accepted_now: List[Substitution] = []
        self._accepted_during_consume = accepted_now
        next_omega: List[AutomatonInstance] = []
        for instance in omega:
            if expired(instance, event, tau):
                stats.expired_instances += 1
                if obs is not None:
                    obs.lifetime(event.ts - instance.buffer.min_ts)
                if hooks:
                    self._emit("expire", event, instance)
                if instance.state == accepting:
                    accepted_now.append(instance.buffer.to_substitution())
                    stats.accepted_buffers += 1
                    if hooks:
                        self._emit("accept", event, instance)
            elif consume:
                self._consume(instance, event, next_omega)
            else:
                next_omega.append(instance)
        self._omega = next_omega
        if consume:
            stats.observe_omega(len(next_omega))
            if self.flight is not None:
                self.flight.sample_omega(event.ts, len(next_omega))
        return accepted_now

    def _consume(self, instance, event, out) -> None:
        stats = self.stats
        hooks = self._hooks
        state = instance.state
        enabled = self._enabled.get(state)
        if enabled is None:
            enabled = self._enabled[state] = [
                transition for transition in self.automaton.outgoing(state)
                if transition.admits_event(event)]
        buffer = instance.buffer
        fired = 0
        for transition in enabled:
            if self.admits_bindings(transition, event, buffer):
                successor = advance(
                    instance, transition.target, transition.variable, event)
                out.append(successor)
                fired += 1
                if hooks:
                    self._emit("transition", event, instance,
                               transition, successor)
        if fired:
            stats.transitions_fired += fired
            if fired > 1:
                stats.branchings += fired - 1
                stats.instances_created += fired - 1
            if (self.consume_mode == "exhaustive"
                    and state != self.automaton.start):
                out.append(instance)
                stats.instances_created += 1
        elif state != self.automaton.start:
            if self.consume_mode == "contiguous":
                if state == self.automaton.accepting:
                    self._accepted_during_consume.append(
                        buffer.to_substitution())
                    stats.accepted_buffers += 1
                    if hooks:
                        self._emit("accept", event, instance)
                elif hooks:
                    self._emit("drop", event, instance)
                return
            out.append(instance)
            if hooks:
                self._emit("skip", event, instance)
        elif hooks:
            self._emit("drop", event, instance)

    def finish(self):
        accepted_now: List[Substitution] = []
        for instance in self._omega:
            if instance.state == self.automaton.accepting:
                accepted_now.append(instance.buffer.to_substitution())
                self.stats.accepted_buffers += 1
                if self._hooks:
                    self._emit("flush", None, instance)
        self._omega = []
        return accepted_now


# ----------------------------------------------------------------------
# Lockstep comparison
# ----------------------------------------------------------------------
def _canon(instance):
    return (instance.state, instance.buffer.to_substitution())


def omega_by_start(executor):
    """Ω as ``[(start, multiset of (state, buffer))]``, oldest first."""
    return [(start, Counter(map(_canon, members)))
            for start, members in itertools.groupby(
                executor.instances(), key=lambda i: i.buffer.min_ts)]


def by_start(accepted):
    return [(start, Counter(members)) for start, members in
            itertools.groupby(accepted, key=Substitution.min_ts)]


def steps_of(tracer):
    return Counter(
        (step.kind, step.event, _canon(step.instance), step.transition,
         None if step.successor is None else _canon(step.successor))
        for step in tracer.steps)


def lineage_of(accepted, order):
    """What a lineage recorder holds for ``accepted`` buffers:
    ``{match id: (path, event ids)}``, the path the variables bound in
    firing order — the order ``order`` (``id(event) → position``) says
    the stream delivered their events in, as no buffer binds an event
    twice."""
    records = {}
    for substitution in accepted:
        bindings = sorted(substitution, key=lambda pair: order[id(pair[1])])
        records[match_id(substitution)] = (
            tuple(variable.name for variable, _ in bindings),
            tuple(event.eid for event in substitution.events()))
    return records


def records_of(lineage):
    """A lineage recorder's match records as :func:`lineage_of` has
    them."""
    return {record.match_id: (record.path, record.event_ids)
            for record in lineage.records()}


#: Recorder combinations an executor runs under: none, one hook (called
#: directly), the tracer (which also makes it walk every instance), two
#: hooks (looped over), and lineage (no hook: told of accepted buffers).
HOOKS = ("none", "flight", "tracer", "flight+lineage", "tracer+flight")


class _Recorders:
    """The recorders of one executor and what the step recorders saw
    since the last :meth:`clear`, as multisets.  ``skip`` is the
    tracer's alone: the flat loop told every hook, the bucketed one
    tells only the tracer."""

    def __init__(self, hooks):
        self.tracer = Tracer() if "tracer" in hooks else None
        self.flight = (FlightRecorder(capacity=1 << 14)
                       if "flight" in hooks else None)
        self.lineage = (LineageRecorder(TraceConfig(sample_rate=1.0,
                                                    max_traces=1 << 20))
                        if "lineage" in hooks else None)
        #: Steps handed to :meth:`seen` so far, all recorders together.
        self.total = 0

    def kwargs(self):
        obs = (None if self.lineage is None
               else Observability(lineage=self.lineage))
        return {"tracer": self.tracer, "flight": self.flight, "obs": obs}

    def clear(self):
        if self.tracer is not None:
            self.tracer.clear()
        if self.flight is not None:
            self.flight.clear()

    def seen(self):
        seen = {}
        if self.tracer is not None:
            seen["tracer"] = steps_of(self.tracer)
        if self.flight is not None:
            assert not self.flight.dropped
            seen["flight"] = Counter(
                tuple(value for key, value in sorted(record.items())
                      if key != "seq")
                for record in self.flight.tail() if record["kind"] != "skip")
        self.total += sum(sum(steps.values()) for steps in seen.values())
        return seen


def assert_invariants(executor):
    """What the bucketed Ω relies on between events, over its runs:
    buckets in state rank order, each holding its own state's runs,
    ordered by oldest start; every run's starts sorted, above the start
    its last expiry removed, and as many as its members; in an indexed
    bucket every run filed exactly once, under its own key, each list
    ordered by oldest start and none empty; and the members adding up
    to |Ω|."""
    automaton = executor.automaton
    ranks = [automaton.state_rank(state) for state in executor._buckets]
    assert ranks == sorted(ranks)
    total = 0
    for state, bucket in executor._buckets.items():
        runs = bucket.runs
        assert all(run.state == state for run in runs)
        oldest = [run.starts[0] for run in runs]
        assert oldest == sorted(oldest)
        for run in runs:
            assert run.count == len(run.starts) > 0
            assert list(run.starts) == sorted(run.starts)
            assert run.oldest == run.starts[0]
            assert run.dead is None or run.starts[0] > run.dead
            total += run.count
        if automaton.probe(state) is None or executor._walks_all:
            assert bucket.by_value is None
            continue
        filed = [id(run) for members in bucket.by_value.values()
                 for run in members]
        assert sorted(filed) == sorted(map(id, runs))
        for key, members in bucket.by_value.items():
            assert members
            assert [run.oldest for run in members] == sorted(
                run.oldest for run in members)
            assert all(bucket.key_of(run) is key
                       or bucket.key_of(run) == key for run in members)
    assert total == executor.active_instances


class _SpyGuard(ResourceGuard):
    """Remembers Ω as it stood when the guard was asked to check it."""

    __slots__ = ("before",)

    def check(self, executor, event, elapsed) -> None:
        self.before = omega_by_start(executor)
        super().check(executor, event, elapsed)


def assert_lockstep(automaton, ops, consume="greedy", hooks="none",
                    guard=None, reload_at=None, omega_every=1):
    """Drive a :class:`FlatExecutor` and a bucketed ``SESExecutor`` through
    ``ops`` — ``(event, True | False)`` feeds the event with that
    ``allow_start``, ``(event, None)`` is an expiry tick — comparing the
    two after every one, under the recorders ``hooks`` names (one of
    :data:`HOOKS`).  ``reload_at`` swaps the bucketed executor for a
    fresh one restored from its ``state_dict()`` before that op;
    ``omega_every`` thins the comparison of Ω itself (everything else is
    compared after every op) for long streams.  A lineage recorder on
    the bucketed executor must hold, after every op, the records
    :func:`lineage_of` makes of every buffer the flat one accepted so
    far.  Returns the bucketed executor.
    """
    def make(cls, guard, recorders):
        return cls(automaton, selection="accepted", consume_mode=consume,
                   guard=guard, **recorders.kwargs())

    old_recorders, new_recorders = _Recorders(hooks), _Recorders(hooks)
    flat = make(FlatExecutor, guard and _SpyGuard(guard), old_recorders)
    fast = make(SESExecutor, guard and _SpyGuard(guard), new_recorders)
    lineage = new_recorders.lineage
    order = {id(event): index for index, (event, _) in enumerate(ops)}
    expected = {}
    for index, (event, action) in enumerate(ops):
        if index == reload_at:
            restored = make(SESExecutor, fast.guard, new_recorders)
            restored.load_state(fast.state_dict())
            fast = restored
        emitted = []
        for executor, recorders in ((flat, old_recorders),
                                    (fast, new_recorders)):
            recorders.clear()
            emitted.append(executor.expire(event) if action is None
                           else executor.feed(event, allow_start=action))
        assert by_start(emitted[0]) == by_start(emitted[1]), index
        assert flat.stats == fast.stats, index
        assert old_recorders.seen() == new_recorders.seen(), index
        if lineage is not None:
            expected.update(lineage_of(emitted[0], order))
            assert records_of(lineage) == expected, index
        if guard and action is not None:
            assert flat.guard.before == fast.guard.before, index
            assert flat.guard.trips == fast.guard.trips, index
        if not guard:
            assert flat.active_instances == fast.active_instances, index
            assert flat.next_expiry_ts == fast.next_expiry_ts, index
        if index % omega_every:
            continue
        assert_invariants(fast)
        old, new = omega_by_start(flat), omega_by_start(fast)
        if guard and old != new:
            # What the guard was handed is the same Ω; what it sheds is
            # "oldest start first", and among instances sharing a start
            # that is each executor's own order.  So the survivors may
            # differ in the one start the shedding stopped in — the
            # oldest left — and the two runs part ways there.
            assert (flat.guard.degraded_total
                    == fast.guard.degraded_total), index
            old, new = dict(old), dict(new)
            split = {start for start in {*old, *new}
                     if old.get(start) != new.get(start)}
            assert split == {min({*old, *new})}, index
            return fast
        assert old == new, index
        if guard:
            assert flat.next_expiry_ts == fast.next_expiry_ts, index
            assert flat.guard.stats() == fast.guard.stats(), index
    old_recorders.clear()
    new_recorders.clear()
    flushed = flat.finish()
    assert by_start(flushed) == by_start(fast.finish())
    assert old_recorders.seen() == new_recorders.seen()
    if lineage is not None:
        expected.update(lineage_of(flushed, order))
        assert records_of(lineage) == expected
    if hooks != "none" and fast.stats.transitions_fired:
        assert new_recorders.total >= fast.stats.transitions_fired
    assert flat.stats == fast.stats
    assert fast.active_instances == 0 and fast.next_expiry_ts is None
    return fast


# ----------------------------------------------------------------------
# Strategies: patterns with and without equality joins, hostile values
# ----------------------------------------------------------------------
NAN = float("nan")
ABSENT, FRESH_NAN = object(), object()
#: ``1 == 1.0 == True`` (one index slot), a shared and a fresh ``nan``
#: (equal to nothing, the shared one found by identity), a missing
#: attribute.
VALUES = (1, 1.0, True, 2, 2, "x", NAN, FRESH_NAN, ABSENT)


@st.composite
def keyed_events(draw, max_events=12, kinds="ABC", values=VALUES):
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=30), min_size=n, max_size=n)))
    events = []
    for i, ts in enumerate(timestamps):
        attrs = {"kind": draw(st.sampled_from(kinds))}
        for name in ("k", "j"):
            value = draw(st.sampled_from(values))
            if value is FRESH_NAN:
                value = float("nan")
            if value is not ABSENT:
                attrs[name] = value
        events.append(Event(ts=ts, eid=f"e{i}", **attrs))
    return events


@st.composite
def joined_patterns(draw):
    """One or two event sets of up to three variables (up to two of them
    group variables), most carrying a ``kind`` condition, joined pairwise
    at random: ``x.k = y.k`` (the indexable shape), ``x.k = y.j``, or a
    comparison no index can answer."""
    n_sets = draw(st.integers(min_value=1, max_value=2))
    names = iter("abcdef")
    sets, conditions, variables = [], [], []
    groups_left = 2
    for _ in range(n_sets):
        current = []
        for _ in range(draw(st.integers(min_value=1,
                                        max_value=4 - n_sets))):
            name = next(names)
            is_group = bool(groups_left) and draw(st.sampled_from(
                (False, False, True)))
            groups_left -= is_group
            current.append(name + "+" if is_group else name)
            variables.append(name)
            kind = draw(st.sampled_from(("A", "B", "C", None)))
            if kind is not None:
                conditions.append(f"{name}.kind = '{kind}'")
        sets.append(current)
    for x, y in itertools.combinations(variables, 2):
        join = draw(st.sampled_from(
            (None, None, "{x}.k = {y}.k", "{x}.k = {y}.k", "{y}.k = {x}.k",
             "{x}.k = {y}.j", "{x}.k != {y}.k", "{x}.j < {y}.j")))
        if join is not None:
            conditions.append(join.format(x=x, y=y))
    return SESPattern(sets=sets, conditions=conditions,
                      tau=draw(st.integers(min_value=0, max_value=40)))


@st.composite
def equi_joined_patterns(draw):
    """Every state indexed: one or two sets over two kinds, every pair of
    variables joined on ``k`` — with two or three join values in the
    stream, buckets hold several instances per value and lose some of
    them at a time."""
    n_sets = draw(st.integers(min_value=1, max_value=2))
    names = iter("abcd")
    sets, conditions, variables = [], [], []
    for _ in range(n_sets):
        current = []
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            name = next(names)
            current.append(name)
            variables.append(name)
            conditions.append(
                f"{name}.kind = '{draw(st.sampled_from('AB'))}'")
        sets.append(current)
    conditions += [f"{x}.k = {y}.k"
                   for x, y in itertools.combinations(variables, 2)]
    return SESPattern(sets=sets, conditions=conditions,
                      tau=draw(st.integers(min_value=3, max_value=30)))


def drawn_ops(data, events):
    """Each event fed (mostly with a fresh start instance) or ticked."""
    actions = data.draw(st.lists(
        st.sampled_from((True, True, True, False, None)),
        min_size=len(events), max_size=len(events)))
    return list(zip(events, actions))


class TestBucketedEqualsFlat:
    @given(pattern=joined_patterns(), events=keyed_events(),
           consume=st.sampled_from(CONSUME_MODES),
           hooks=st.sampled_from(HOOKS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_lockstep_on_random_streams(self, pattern, events, consume,
                                        hooks, data):
        ops = drawn_ops(data, events)
        reload_at = data.draw(st.one_of(
            st.none(), st.integers(min_value=0, max_value=len(ops))))
        assert_lockstep(build_automaton(pattern), ops, consume, hooks,
                        reload_at=reload_at)

    @pytest.mark.parametrize("hooks", HOOKS)
    @pytest.mark.parametrize("consume", CONSUME_MODES)
    def test_every_mode_recorder_and_executor(self, consume, hooks):
        """The whole grid on one stream that branches, loops, expires
        and accepts, restored from a snapshot half way."""
        pattern = SESPattern(
            sets=[["a", "b+"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'A'", "c.kind = 'C'",
                        "a.k = b.k", "c.k = a.k"], tau=9)
        events = [Event(ts=t, eid=f"e{t}", kind="AACAXA"[t % 6],
                        k=(t // 6) % 2) for t in range(1, 49)]
        fast = assert_lockstep(
            build_automaton(pattern), [(e, True) for e in events], consume,
            hooks, reload_at=20)
        assert fast.stats.branchings and fast.stats.accepted_buffers
        if consume != "contiguous":  # there a run ends before its window
            assert fast.stats.expired_instances

    @given(pattern=equi_joined_patterns(),
           events=keyed_events(max_events=24, kinds="AB", values=(1, 2, 3)),
           consume=st.sampled_from(("greedy", "exhaustive")),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lockstep_when_every_state_is_indexed(self, pattern, events,
                                                  consume, data):
        automaton = build_automaton(pattern)
        assert all(automaton.probe(state) for state in automaton.states
                   if state not in (automaton.start, automaton.accepting))
        ops = drawn_ops(data, events)
        assert_lockstep(automaton, ops, consume, reload_at=data.draw(
            st.one_of(st.none(), st.integers(0, len(ops)))))

    def test_a_check_against_an_unbound_partner_holds_vacuously(self):
        """A hand-built automaton may check ``b.k = a.k`` where nothing
        has bound ``a``: the check holds for want of a partner, so such
        an instance is offered every event — not filed under a value it
        does not have."""
        a, b, c = var("a"), var("b"), var("c")
        names = {"a": a, "b": b, "c": c}
        empty, resting, full = frozenset(), frozenset({b}), frozenset({a, b})
        automaton = SESAutomaton(
            [empty, resting, full],
            [Transition(empty, b, [parse_condition("b.kind = 'B'", names)]),
             Transition(resting, a, [parse_condition("a.k = c.k", names)])],
            empty, full, 50)
        assert automaton.probe(resting).label == "c.k"
        events = [Event(ts=1, eid="b1", kind="B", k=1),
                  Event(ts=2, eid="x2", kind="X", k=7),
                  Event(ts=3, eid="b3", kind="B", k=2)]
        fast = assert_lockstep(automaton, [(e, True) for e in events])
        assert fast.stats.transitions_fired == 3  # b1, then x2 as a, b3
        assert fast.stats.accepted_buffers == 1

    @given(pattern=joined_patterns(), events=keyed_events(max_events=16),
           consume=st.sampled_from(("greedy", "exhaustive")),
           ceiling=st.integers(min_value=1, max_value=6),
           policy=st.sampled_from(("shed", "degrade")),
           by_bytes=st.booleans(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_lockstep_through_a_shedding_guard(self, pattern, events,
                                               consume, ceiling, policy,
                                               by_bytes, data):
        if by_bytes:
            guard = GuardConfig(max_buffer_bytes=ceiling * 2, policy=policy,
                                degrade_arity=1, bytes_per_event=1)
        else:
            guard = GuardConfig(max_instances=ceiling, policy=policy,
                                degrade_arity=1)
        assert_lockstep(build_automaton(pattern), drawn_ops(data, events),
                        consume, guard=guard)

    def test_group_partner_whose_events_disagree(self):
        """``c`` joins on the group variable ``a+`` alone.  An instance
        whose ``a+`` events carry two values (or lack one) can never take
        a ``c`` — it stays findable, and is found and refused, rather
        than being filed under one of the values or lost."""
        automaton = build_automaton(SESPattern(
            sets=[["a+"], ["b"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                        "c.k = a.k"],
            tau=50))
        resting = frozenset({group("a"), var("b")})
        assert automaton.probe(resting).label == "a+.k"
        events = [Event(ts=1, eid="a1", kind="A", k=1),
                  Event(ts=2, eid="a2", kind="A", k=2),
                  Event(ts=3, eid="b3", kind="B"),
                  Event(ts=4, eid="c4", kind="C", k=1),
                  Event(ts=5, eid="a5", kind="A"),
                  Event(ts=6, eid="b6", kind="B"),
                  Event(ts=7, eid="c7", kind="C", k=2),
                  Event(ts=8, eid="c8", kind="C")]
        for consume in CONSUME_MODES:
            fast = assert_lockstep(automaton, [(e, True) for e in events],
                                   consume)
            if consume == "greedy":
                # {a1, a2} disagrees, {a2} takes c7, {a5} lacks k.
                assert fast.stats.accepted_buffers == 1

    def test_a_run_whose_register_stops_summarising_splits(self):
        """Two instances agree on ``p+``'s greatest ``k`` (``1``) and
        rest as one run; a ``1.0`` then makes the register ``WALK``, so
        ``c.k > p.k`` must walk each member's own chain: the run goes
        back to single instances even when, as here, it is the only
        arrival in its state (no start on the event)."""
        automaton = build_automaton(SESPattern(
            sets=[["p+"], ["c"]],
            conditions=["p.kind = 'A'", "c.kind = 'C'", "c.k > p.k"],
            tau=50))
        ops = [(Event(ts=1, eid="a1", kind="A", k=1), True),
               (Event(ts=2, eid="a2", kind="A", k=1), True),
               (Event(ts=3, eid="a3", kind="A", k=1.0), False),
               (Event(ts=4, eid="c4", kind="C", k=5), True)]
        joined = SESExecutor(automaton)
        for event, _ in ops[:2]:
            joined.feed(event)
        assert [run.count for bucket in joined._buckets.values()
                for run in bucket.runs] == [2]
        fast = assert_lockstep(automaton, ops)
        assert fast.stats.accepted_buffers == 2

    @pytest.mark.parametrize("hooks", ("none", "flight"))
    @pytest.mark.parametrize("consume", CONSUME_MODES)
    def test_a_run_whose_masked_register_walks_decides_alike(self, consume,
                                                             hooks):
        """A ``{d, p+}`` run loops on ``p4``: its ``p.x`` register meets
        ``1.0`` after ``1`` and walks, its ``p.id`` conflicts.  ``c``'s
        transition is blocked, so ``p.x`` is masked and the run stays
        one — but ``c.x = p.x`` is still read before ``c.id = p.id``,
        and a tip above a union has no chain to walk: the run must carry
        the masked registers, not its own."""
        automaton = build_automaton(SESPattern(
            sets=[["d", "p+"], ["c"]],
            conditions=["d.kind = 'D'", "p.kind = 'P'", "c.kind = 'C'",
                        "c.x = p.x", "c.id = p.id"], tau=50))
        ops = [(Event(ts=1, eid="p1", kind="P", x=1, id=1), True),
               (Event(ts=2, eid="p2", kind="P", x=1, id=1), True),
               (Event(ts=3, eid="d3", kind="D"), True),
               (Event(ts=4, eid="p4", kind="P", x=1.0, id=2), True),
               (Event(ts=5, eid="c5", kind="C", x=1, id=1), True)]
        joined = SESExecutor(automaton, consume_mode=consume)
        for event, _ in ops[:4]:
            joined.feed(event)
        resting = joined._buckets[frozenset({var("d"), group("p")})].runs
        assert any(run.count > 1 for run in resting)
        assert all(register is not WALK for run in resting
                   if run.count > 1 for register in run.buffer.registers)
        assert_lockstep(automaton, ops, consume, hooks)

    def test_a_run_that_loses_its_oldest_member_is_filed_again(self):
        """Exhaustive runs of one key join in ``{a, b+}`` (indexed by
        ``a.k``); when the window drops a joined run's oldest member,
        its oldest start moves past a run filed after it.  Filed where
        it was, the key's list would offer the next event out of start
        order, and the successors would rest out of order."""
        automaton = build_automaton(SESPattern(
            sets=[["a", "b+"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                        "a.k = b.k", "c.k = a.k"], tau=5))
        ops = [(Event(ts=ts, eid=f"e{ts}", kind=kind, k=1), True)
               for ts, kind in ((3, "B"), (5, "A"), (6, "B"), (8, "A"),
                                (9, "A"))]
        fast = assert_lockstep(automaton, ops, "exhaustive")
        assert fast.stats.expired_instances

    def test_members_leaving_a_run_are_handed_out_alone(self):
        """When the window overruns some of a joined run's members, a
        step recorder is told of them as a run of their own, sharing
        the run's tip: expanded, it yields the members leaving, not
        every member still alive through that tip.  ``p1``'s and
        ``p5``'s instances join in ``{p+}`` and, after ``p6``, in the
        accepting state; ``x12`` overruns ``p1``'s start alone."""
        class Expander:
            """A step recorder expanding every run that expires or
            accepts into its members' ``(start, event ids)``."""

            def __init__(self):
                self.expanded = []

            def record(self, kind, event, instance, transition=None,
                       successor=None):
                if kind in ("expire", "accept"):
                    self.expanded.append((kind, sorted(
                        (start, [event.eid for _, event in bindings])
                        for start, bindings in instance.members())))
                    assert len(self.expanded[-1][1]) == instance.count

            def sample_omega(self, ts, size):
                pass

        automaton = build_automaton(SESPattern(
            sets=[["p+"], ["b"]],
            conditions=["p.kind = 'P'", "b.kind = 'P'"], tau=10))
        hook = Expander()
        executor = SESExecutor(automaton, selection="accepted", flight=hook)
        for ts, start in ((1, True), (5, True), (6, False)):
            executor.feed(Event(ts=ts, eid=f"p{ts}", kind="P"),
                          allow_start=start)
        assert [run.count for bucket in executor._buckets.values()
                for run in bucket.runs] == [2, 1, 2]
        del hook.expanded[:]
        executor.expire(Event(ts=12, eid="x12", kind="X"))
        assert sorted(hook.expanded) == [
            ("accept", [(1, ["p1", "p5"])]),
            ("accept", [(1, ["p1", "p5", "p6"])]),
            ("expire", [(1, ["p1", "p5"])]),
            ("expire", [(1, ["p1", "p5", "p6"])]),
            ("expire", [(1, ["p1", "p5", "p6"])])]

    @pytest.mark.parametrize("consume", ("greedy", "exhaustive"))
    def test_snapshot_written_out_of_start_order(self, consume):
        """``load_state`` takes Ω in any order (the flat executor wrote it
        in list order) and continues as the run that wrote it would."""
        pattern = SESPattern(
            sets=[["a", "b"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                        "a.k = b.k", "c.k = a.k"], tau=20)
        automaton = build_automaton(pattern)
        events = [Event(ts=t, eid=f"e{t}", kind="ABC"[t % 3], k=t % 2)
                  for t in range(1, 16)]
        head, rest = events[:8], events[8:]
        flat = FlatExecutor(automaton, consume_mode=consume)
        for event in head:
            flat.feed(event)
        snapshot = flat.state_dict()
        assert len(snapshot["omega"]) > 3
        snapshot["omega"] = [(q, as_chain(automaton, beta))
                             for q, beta in snapshot["omega"][::-1]]
        fast = SESExecutor(automaton, consume_mode=consume)
        fast.load_state(snapshot)
        starts = [i.buffer.min_ts for i in fast.instances()]
        assert starts == sorted(starts)
        assert ([(q, b) for q, b in fast.state_dict()["omega"]]
                == [(i.state, i.buffer) for i in fast.instances()])
        assert omega_by_start(fast) == omega_by_start(flat)
        for event in rest:
            assert by_start(flat.feed(event)) == by_start(fast.feed(event))
            assert omega_by_start(fast) == omega_by_start(flat)
            assert fast.stats == flat.stats
        assert by_start(flat.finish()) == by_start(fast.finish())

    def test_restored_run_continues_in_the_same_order(self):
        """Not only the same multisets: a run restored from a snapshot
        emits and holds exactly what the uninterrupted run does, order
        included (states are visited in a fixed order, not in the order
        history happened to occupy them)."""
        automaton = build_automaton(SESPattern(
            sets=[["x", "y", "z"]],
            conditions=["x.kind = 'M'", "y.kind = 'M'", "z.kind = 'M'"],
            tau=6))
        events = [Event(ts=t // 2, eid=f"m{t}", kind="M")
                  for t in range(24)]
        straight = SESExecutor(automaton, selection="accepted")
        resumed = SESExecutor(automaton, selection="accepted")
        for index, event in enumerate(events):
            if index % 5 == 4:
                snapshot = resumed.state_dict()
                resumed = SESExecutor(automaton, selection="accepted")
                resumed.load_state(snapshot)
            assert straight.feed(event) == resumed.feed(event)
            assert ([_canon(i) for i in straight.instances()]
                    == [_canon(i) for i in resumed.instances()])
        assert straight.finish() == resumed.finish()
        assert straight.stats.accepted_buffers > 0

    @pytest.mark.parametrize("state", ("start", "resting"))
    def test_load_state_refuses_an_instance_that_bound_nothing(self, state):
        """Ω holds only instances that have bound an event, and a
        snapshot from outside is held to that: an instance in the start
        state or with an empty buffer is refused with a ``ValueError``
        naming it, and Ω is left as it was."""
        automaton = build_automaton(SESPattern(
            sets=[["a", "b"]], conditions=["a.kind = 'A'", "b.kind = 'B'"],
            tau=5))
        unbound = (automaton.start if state == "start"
                   else frozenset({var("a")}))
        executor = SESExecutor(automaton)
        executor.feed(Event(ts=1, eid="a1", kind="A"))
        before = executor.state_dict()
        with pytest.raises(ValueError, match="cannot rest in Ω"):
            executor.load_state(dict(
                before, omega=[(unbound, automaton.empty_buffer)]))
        assert executor.state_dict()["omega"] == before["omega"]


# ----------------------------------------------------------------------
# The ledger's streams (smoke sizes)
# ----------------------------------------------------------------------
def _ledger_ops(plan, rows):
    """What the registry does with a stream: events the plan's prefilter
    rejects only advance the clock."""
    from repro.net.protocol import event_from_json
    admits = plan.prefilter().admits
    events = [event_from_json(row) for row in rows]
    return [(event, True if admits(event) else None) for event in events]


class TestLedgerStreams:
    @pytest.mark.parametrize("traced", (False, True))
    def test_serve_q1_sparse(self, traced):
        self.serve_q1_sparse("tracer" if traced else "none")

    @pytest.mark.parametrize("hooks", ("flight", "flight+lineage"))
    def test_serve_q1_sparse_recorded(self, hooks):
        self.serve_q1_sparse(hooks)

    @staticmethod
    def serve_q1_sparse(hooks):
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        plan = compile_plan(parse_pattern(workloads.Q1))
        fast = assert_lockstep(
            plan.automaton, _ledger_ops(plan, chemo_stream(1, 2400, 24)),
            hooks=hooks, omega_every=41)
        assert fast.stats.accepted_buffers > 20

    def test_serve_reg25_dense(self):
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        rows = chemo_stream(1, 1200, 24)
        accepted = 0
        for _, query in workloads.BY_NAME["serve-reg25-dense"].queries:
            plan = compile_plan(parse_pattern(query))
            accepted += assert_lockstep(
                plan.automaton, _ledger_ops(plan, rows), omega_every=41
            ).stats.accepted_buffers
        assert accepted > 500

    @pytest.mark.parametrize("consume", ("greedy", "contiguous"))
    def test_batch_p3_exp2(self, consume):
        workloads = pytest.importorskip("ledger.workloads")
        plan = compile_plan(parse_pattern(workloads.P3))
        fired = 0
        for _, rows in workloads._p3_units(1, True):
            fired += assert_lockstep(
                plan.automaton, _ledger_ops(plan, rows[:400]), consume,
                omega_every=41).stats.transitions_fired
        assert fired > 1000

    def test_batch_agg_fold_enumerated(self):
        """The fold's streams, enumerated: Q1 over the four slices."""
        workloads = pytest.importorskip("ledger.workloads")
        plan = compile_plan(parse_pattern(workloads.Q1))
        for _, rows in workloads._agg_units(1, True):
            assert_lockstep(plan.automaton, _ledger_ops(plan, rows[:800]),
                            omega_every=41)


# ----------------------------------------------------------------------
# Cost: independent of what else rests in the window
# ----------------------------------------------------------------------
class TestCostIsIndependentOfTheWindow:
    """García & Riveros' yardstick as an assertion: what an event costs
    does not depend on how many *other* patients rest in the window."""

    PATTERN = ("PATTERN PERMUTE(a, b) WHERE a.L = 'A' AND b.L = 'B' "
               "AND a.ID = b.ID WITHIN 1000")

    @staticmethod
    def stream(others):
        """Patient 0's a/b events, one per 10 ticks, after ``others``
        more patients each left an ``a`` resting in the window."""
        events = [Event(ts=i, eid=f"o{i}", L="A", ID=1 + i)
                  for i in range(others)]
        events += [Event(ts=100 + 10 * i, eid=f"p{i}", L="AB"[i % 2], ID=0)
                   for i in range(12)]
        return events

    def work_per_event(self, cls, others, monkeypatch):
        calls = Counter()
        decides = FlatExecutor if cls is FlatExecutor else Transition
        for owner, name in ((decides, "admits_bindings"),
                            (cls, "_consume")):
            def counted(*args, _original=getattr(owner, name), _name=name):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(owner, name, counted)
        executor = cls(build_automaton(parse_pattern(self.PATTERN)))
        events = self.stream(others)
        for event in events[:others]:
            executor.feed(event)
        calls.clear()
        for event in events[others:]:
            executor.feed(event)
        monkeypatch.undo()
        assert executor.stats.transitions_fired > others + 12
        assert calls["admits_bindings"] and calls["_consume"]
        return calls["admits_bindings"], calls["_consume"]

    def test_indexed_cost_ignores_other_patients(self, monkeypatch):
        assert (self.work_per_event(SESExecutor, 25, monkeypatch)
                == self.work_per_event(SESExecutor, 100, monkeypatch))

    def test_flat_cost_grows_with_them(self, monkeypatch):
        few = self.work_per_event(FlatExecutor, 25, monkeypatch)
        many = self.work_per_event(FlatExecutor, 100, monkeypatch)
        assert many[0] >= 3 * few[0] and many[1] >= 3 * few[1]

    def test_a_fired_transition_compares_join_keys_a_constant_number_of_times(
            self):
        """The same yardstick for the match itself: deciding ``p.ID =
        q.ID`` reads ``q``'s summary register, and extending a buffer
        copies nothing, so what a fired transition costs in join-key
        comparisons does not grow with the groups it extends.  (Before
        the registers every decision compared the new key with every
        bound partner event: 5.1 per fired transition at group length
        16, 21.1 at 64.)"""
        class Key(int):
            """A join key that counts the comparisons made with it."""
            compared = 0
            __hash__ = int.__hash__

            def __eq__(self, other):
                Key.compared += 1
                return int.__eq__(self, other)

        automaton = build_automaton(parse_pattern(
            "PATTERN PERMUTE(q+, p+) THEN b WHERE q.L = 'Q' AND p.L = 'P' "
            "AND b.L = 'B' AND p.ID = q.ID WITHIN 100000"))

        def per_fired(length):
            events = [Event(ts=t, eid=f"e{t}", L="QP"[t % 2], ID=Key(0))
                      for t in range(2 * length)]
            events.append(Event(ts=2 * length, eid="b", L="B", ID=Key(0)))
            executor = SESExecutor(automaton, selection="accepted")
            Key.compared = 0
            for event in events:
                executor.feed(event)
            assert executor.finish()
            return Key.compared / executor.stats.transitions_fired

        short, long = per_fired(16), per_fired(64)
        assert long <= 1.25 * short, (short, long)

    def test_event_only_conditions_are_evaluated_once_per_event(
            self, monkeypatch):
        """The other half of the per-event constant: an event is
        classified by evaluating each *distinct* event-only predicate of
        the automaton once — whatever states are occupied, and for each
        of the executors sharing the plan's automaton alike — and the
        memoised rows ask no transition again.  (Before the step table:
        every outgoing transition of every occupied state, per event.)"""
        class Label(str):
            """A label that counts the comparisons made against it."""
            compared = 0
            __hash__ = str.__hash__

            def __eq__(self, other):
                Label.compared += 1
                return str.__eq__(self, other)

        automaton = build_automaton(parse_pattern(self.PATTERN))
        predicates = len(automaton.event_alphabet)
        assert predicates == 2  # L = 'A', L = 'B': the joins are not
        events = [Event(ts=e.ts, eid=e.eid, L=Label(e["L"]), ID=e["ID"])
                  for e in self.stream(40)]
        asked = Counter()
        original = Transition.admits_event
        monkeypatch.setattr(
            Transition, "admits_event",
            lambda self, event: (asked.update(["admits_event"]),
                                 original(self, event))[1])
        SESExecutor(automaton).run(events)  # builds the rows it reads
        built = asked["admits_event"]
        executors = [SESExecutor(automaton) for _ in range(3)]
        per_event = []
        for event in events:
            Label.compared = 0
            for executor in executors:
                executor.feed(event)
            per_event.append(Label.compared)
        # Three resting states are occupied by now (patient 0 in {a},
        # {b} or {a,b} next to the 40 others' {a}); every feed classified
        # and none asked a transition.
        assert {len(e._buckets) for e in executors} == {3}
        assert asked["admits_event"] == built
        assert set(per_event) == {predicates * len(executors)}
        # Rows were built once per (class, state): two classes here.
        assert built <= 2 * len(automaton.transitions)


# ----------------------------------------------------------------------
# Runs: one decision and one buffer node for the members that agree
# ----------------------------------------------------------------------
class TestRunsShareTheWork:
    """The count gate on coalescing: on a dense P3 unit the members of
    Ω that agree on state, on the registers a decision can still read
    and on their last binding are decided once and extended by one
    node, so decisions and nodes built are a fraction of the
    transitions fired — which stay, with every other counter and the
    accepted buffers, those of the flat oracle.  A change that quietly
    stops joining successors into runs fails here whatever the machine.

    The second tenth: members that can no longer accept — a ``{d,p+}``
    instance whose ``p+`` looped on another patient's Prednisone can
    never take its ``c`` — differ only in registers nothing reads, and
    share one run.  Keyed on every register they stayed apart: 19 799
    decisions and 10 536 nodes of 89 398 transitions fired on the dense
    unit; keyed on the live ones, 2 691 and 1 982."""

    @staticmethod
    def counted_work(monkeypatch):
        """Count decisions and buffer nodes built from now on."""
        from repro.automaton.buffer import MatchBuffer
        work = Counter()

        def counted(name, original):
            def count(*args):
                work[name] += 1
                return original(*args)
            return count

        # Before compiling: a step row binds the decision it is built
        # with.
        monkeypatch.setattr(Transition, "admits_bindings", counted(
            "decisions", Transition.admits_bindings))
        monkeypatch.setattr(MatchBuffer, "__init__", counted(
            "nodes", MatchBuffer.__init__))
        return work

    def test_dense_p3_decides_and_builds_once_per_run(self, monkeypatch):
        workloads = pytest.importorskip("ledger.workloads")
        from repro.net.protocol import event_from_json
        work = self.counted_work(monkeypatch)
        plan = compile_plan(parse_pattern(workloads.P3), cache=False)
        _, rows = workloads._p3_units(1, False)[0]
        events = [event_from_json(row) for row in rows]
        fast = SESExecutor(plan.automaton, selection="accepted").run(events)
        monkeypatch.undo()
        fired = fast.stats.transitions_fired
        assert fired > 5000
        assert work["decisions"] <= fired / 4, (work, fired)
        assert work["nodes"] <= fired / 4, (work, fired)
        assert work["decisions"] <= fired / 10, (work, fired)
        assert work["nodes"] <= fired / 10, (work, fired)
        flat = FlatExecutor(plan.automaton, selection="accepted").run(events)
        assert flat.stats == fast.stats
        assert Counter(flat.accepted) == Counter(fast.accepted)

    def test_recorded_q1_shares_runs_and_dumps_every_member(
            self, monkeypatch):
        """Q1 over ``batch-agg-fold``'s slice-1 stream with a flight
        recorder attached, as ``repro serve`` runs it: the recorder
        rides the runs (it used to split Ω into single instances, one
        decision and one node per transition fired), and what it dumps
        is, window by window, the flat loop's steps member by member."""
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        work = self.counted_work(monkeypatch)
        plan = compile_plan(parse_pattern(workloads.Q1), cache=False)
        ops = _ledger_ops(plan, chemo_stream(1001, 16000, 24))
        recorders = _Recorders("flight"), _Recorders("flight")
        fast = SESExecutor(plan.automaton, selection="accepted",
                           **recorders[0].kwargs())
        flat = FlatExecutor(plan.automaton, selection="accepted",
                            **recorders[1].kwargs())
        for at, (event, action) in enumerate(ops):
            for executor in (fast, flat):
                if action is None:
                    executor.expire(event)
                else:
                    executor.feed(event)
            if at % 500 == 499:
                assert recorders[0].seen() == recorders[1].seen(), at
                recorders[0].clear()
                recorders[1].clear()
        fast.finish()
        flat.finish()
        monkeypatch.undo()
        assert recorders[0].seen() == recorders[1].seen()
        assert flat.stats == fast.stats
        fired = fast.stats.transitions_fired
        assert fired > 100000
        assert work["decisions"] <= 0.15 * fired, (work, fired)
        assert work["nodes"] <= 0.15 * fired, (work, fired)
        assert recorders[0].total > fired


# ----------------------------------------------------------------------
# Retention: what expired is let go of
# ----------------------------------------------------------------------
def reachable_nodes(tips) -> int:
    """The distinct buffer nodes (``MatchBuffer`` and ``UnionNode``)
    reachable from ``tips``, through every union child."""
    from repro.automaton.buffer import UnionNode
    seen = set()
    stack = list(tips)
    while stack:
        node = stack.pop()
        while node is not None and id(node) not in seen:
            seen.add(id(node))
            if node.__class__ is UnionNode:
                stack += [child[0] for child in node.children]
                break
            node = node.parent
    return len(seen)


class TestExpiredPathsAreLetGo:
    """A run that never empties — Q1's dead ``{d,p+}`` run absorbs a
    member per Prednisone — keeps every union it was built through, and
    each union the paths of members long expired: 17 633 nodes and 3 774
    unions for 108 members after 48 000 events when nothing was dropped.
    Expiry is by time, so a union child whose newest start the window
    overran has left every run sharing it, and the executor drops it."""

    def test_a_recorded_q1_stream_holds_no_more_nodes_than_it_buffers(self):
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        plan = compile_plan(parse_pattern(workloads.Q1), cache=False)
        executor = SESExecutor(plan.automaton, selection="accepted",
                               flight=FlightRecorder())
        for event, action in _ledger_ops(plan,
                                         chemo_stream(1001, 20000, 24)):
            if action is None:
                executor.expire(event)
            else:
                executor.feed(event)
        runs = [run for bucket in executor._buckets.values()
                for run in bucket.runs]
        assert executor.active_instances > len(runs)
        nodes = reachable_nodes(run.buffer for run in runs)
        assert nodes <= executor.buffered_events + len(runs), (
            nodes, executor.buffered_events, len(runs))

    def test_a_shared_child_is_dropped_after_the_accepting_run_emits(self):
        """``p`` and ``b`` both take a ``P``: the joined ``{p+}`` run
        fires both, so its looping successor and its accepting one
        extend one union.  When the window overruns the older start,
        both runs lose that member and the sweep drops the union's child
        — after the accepting run emitted its member, whose path runs
        through the child."""
        automaton = build_automaton(SESPattern(
            sets=[["p+"], ["b"]],
            conditions=["p.kind = 'P'", "b.kind = 'P'"], tau=10))
        ops = [(Event(ts=1, eid="p1", kind="P"), True),
               (Event(ts=2, eid="p2", kind="P"), True),
               (Event(ts=3, eid="p3", kind="P"), False),
               (Event(ts=12, eid="x12", kind="X"), None)]
        executor = SESExecutor(automaton, selection="accepted")
        for event, action in ops[:-1]:
            assert not executor.feed(event, allow_start=action)
        accepting = executor._buckets[automaton.accepting].runs
        assert [run.count for run in accepting] == [1, 2]
        union = accepting[1].buffer.parent
        assert len(union.children) == 2
        emitted = executor.expire(ops[-1][0])
        assert len(union.children) == 1  # swept
        assert sorted([event.eid for event in match.events()]
                      for match in emitted) == [["p1", "p2"],
                                                ["p1", "p2", "p3"]]
        fast = assert_lockstep(automaton, ops)
        assert fast.stats.accepted_buffers == 3
