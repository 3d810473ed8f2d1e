"""The SES automaton (Definition 3).

A SES automaton is a five-tuple ``N = (Q, Δ, qs, qf, τ)``: a finite set of
states (subsets of the pattern's variables), a finite set of transitions,
a start state, an accepting state, and the maximal duration τ.  Executing
an automaton maintains *automaton instances*, each enriched with a match
buffer β collecting variable bindings (see :mod:`repro.automaton.instance`).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.events import TIME_ATTRIBUTE, Event
from ..core.predicates import PredicateBank
from ..core.variables import Variable
from .buffer import (CONFLICT, EQUAL, LATEST, MISSING, ORDERED_TYPES, UNBOUND,
                     WALK, MatchBuffer)
from .states import State, state_label, state_sort_key
from .transitions import Transition

__all__ = ["SESAutomaton", "AutomatonError", "StateProbe", "EventPredicate",
           "StepRow", "LiveSlots", "STEP_TABLE_CAP"]

#: Event classes whose rows one automaton memoises.  An alphabet of n
#: predicates has up to 2^n classes; streams realise few of them (the
#: ledger's: one per label the pattern mentions, plus "none").  Past
#: the cap a new class has its rows built for the event and dropped.
STEP_TABLE_CAP = 1024


class AutomatonError(ValueError):
    """Raised when an automaton is structurally invalid."""


class StateProbe:
    """The equality lookup every outgoing transition of one state shares.

    Each transition leaving the state carries a check ``v.A = u.B``
    against the same bound ``u.B`` (:attr:`partner`, :attr:`attribute`),
    so an instance resting there can only fire on an event whose ``A``
    equals the one value its ``u`` events carry in ``B`` — the executor
    files the state's instances under that value and offers an event
    only to those filed under the event's own.  :attr:`lookups` pairs
    each outgoing transition with the event attribute ``A`` it compares.
    That value is ``u.B``'s ``EQUAL`` summary register, at :attr:`slot`
    of an instance's :attr:`~repro.automaton.buffer.MatchBuffer.registers`.
    """

    __slots__ = ("partner", "attribute", "lookups", "slot")

    def __init__(self, partner: Variable, attribute: str,
                 lookups: Tuple[Tuple[Transition, str], ...], slot: int):
        self.partner = partner
        self.attribute = attribute
        self.lookups = lookups
        self.slot = slot

    @property
    def label(self) -> str:
        """``u.B`` as conditions print it."""
        return f"{self.partner}.{self.attribute}"

    def __repr__(self) -> str:
        return f"StateProbe({self.label})"


class EventPredicate:
    """One letter of the event alphabet: a distinct check on the event
    alone (``A φ C`` or ``A φ A'``, whatever variable it was written
    for) and the transitions whose condition sets read it."""

    __slots__ = ("text", "bit", "readers")

    def __init__(self, text: str, bit: int):
        self.text = text
        #: The predicate's bit in :meth:`SESAutomaton.classify`'s vector.
        self.bit = bit
        self.readers: List[Transition] = []

    def __repr__(self) -> str:
        return f"EventPredicate({self.text}, {len(self.readers)} reader(s))"


class StepRow:
    """What one state does on the events of one class: the outgoing
    transitions whose event-only conditions the class satisfies."""

    __slots__ = ("transitions", "moves", "indices", "attributes")

    def __init__(self, transitions: Tuple[Transition, ...],
                 indices: Tuple[int, ...], attributes: Tuple[str, ...],
                 updates: Tuple[Tuple, ...]):
        #: The enabled transitions, in :meth:`SESAutomaton.outgoing` order.
        self.transitions = transitions
        #: What firing each of them takes, prepared once: ``(bound
        #: admits_bindings, target state, variable, the register updates
        #: the new buffer node makes, transition)``.
        self.moves = tuple(
            (transition.admits_bindings, transition.target,
             transition.variable, move_updates, transition)
            for transition, move_updates in zip(transitions, updates))
        #: Their positions in :meth:`SESAutomaton.outgoing`.
        self.indices = indices
        #: For a state with a :class:`StateProbe`: the distinct event
        #: attributes the enabled transitions compare with the probe.
        self.attributes = attributes

    def __repr__(self) -> str:
        return f"StepRow({', '.join(map(repr, self.transitions))})"


#: What a masked slot reads: the register of a decision that cannot pass.
_PAD = (CONFLICT,)


class LiveSlots:
    """The registers an instance resting in one state can still have
    read — called on a buffer's registers, it returns them with every
    other slot replaced by :data:`~repro.automaton.buffer.CONFLICT`.

    A transition reachable from the state is *blocked* for an instance
    once one of its binding rows reads a register holding ``CONFLICT``
    or ``MISSING``, or two of its ``=`` rows on one event attribute read
    ``EQUAL`` registers holding two different values of one ordered
    type (no value equals both).  Both last: no binding takes a
    register out of ``CONFLICT`` or ``MISSING``, and a partner's bound
    values only accumulate.  A slot is *live* if a transition reachable
    through unblocked ones reads it, or it is the probe slot of a state
    reached so; no decision reads any other slot again (a blocked
    transition's own slots, masked, keep it blocked).  So instances
    whose masked registers agree decide alike from then on, and an
    executor joins them into one run.

    The tests are fixed per state — :attr:`reads` pairs each register a
    reachable row can block on with the transitions reading it (as
    bits), :attr:`pairs` names each two ``EQUAL`` registers one
    transition compares with one event attribute — and the masks are a
    table keyed by the set of blocked transitions: finite, and never
    keyed by register values.
    """

    __slots__ = ("reads", "pairs", "_edges", "_masks", "_state", "_width")

    def __init__(self, automaton: "SESAutomaton", state: State):
        self._state = state
        self._width = len(automaton.empty_buffer.registers)
        self._masks: Dict[int, Optional[itemgetter]] = {}
        #: ``source → (probe slots, [(bit, slots read, target), ...])``
        #: over the states reachable from ``state``, one bit a transition.
        self._edges: Dict[State, Tuple[tuple, list]] = {}
        reads: Dict[int, int] = {}
        pairs = []
        bit = 1
        stack = [state]
        while stack:
            source = stack.pop()
            if source in self._edges:
                continue
            probe = automaton.probe(source)
            edges = []
            self._edges[source] = (() if probe is None else (probe.slot,),
                                   edges)
            for transition in automaton.outgoing(source):
                bit <<= 1
                edges.append((bit, tuple(row[0] for row
                                         in transition._register_rows),
                               transition.target))
                stack.append(transition.target)
                by_attribute: Dict[Optional[str], List[int]] = {}
                for (_, _, kind), (slot, attribute, *_) in zip(
                        transition.register_keys,
                        transition._register_rows):
                    if kind is WALK or kind is LATEST:
                        continue  # never MISSING nor CONFLICT by binding
                    reads[slot] = reads.get(slot, 0) | bit
                    if kind is EQUAL:
                        slots = by_attribute.setdefault(attribute, [])
                        pairs += [(other, slot, bit) for other in slots
                                  if other != slot]
                        slots.append(slot)
        self.reads: Tuple[Tuple[int, int], ...] = tuple(reads.items())
        self.pairs: Tuple[Tuple[int, int, int], ...] = tuple(pairs)

    def __call__(self, registers: tuple) -> tuple:
        """``registers`` with the slots no decision can read masked —
        the very tuple when every slot is live."""
        blocked = 0
        for slot, bits in self.reads:
            held = registers[slot]
            if held is CONFLICT or held is MISSING:
                blocked |= bits
        for first, second, bit in self.pairs:
            held = registers[first]
            other = registers[second]
            if (held.__class__ is other.__class__
                    and held.__class__ in ORDERED_TYPES and held != other):
                blocked |= bit
        try:
            keep = self._masks[blocked]
        except KeyError:
            keep = self._masks[blocked] = self._mask(blocked)
        return registers if keep is None else keep(registers + _PAD)

    def _mask(self, blocked: int) -> Optional[itemgetter]:
        """The getter that masks the slots no transition reachable
        through unblocked ones reads (``None``: every slot is live)."""
        edges = self._edges
        live = set()
        stack = [self._state]
        seen = set()
        while stack:
            source = stack.pop()
            if source in seen:
                continue
            seen.add(source)
            probes, outgoing = edges[source]
            live.update(probes)
            for bit, slots, target in outgoing:
                if not bit & blocked:
                    live.update(slots)
                    stack.append(target)
        width = self._width
        if len(live) == width:
            return None
        pad = width  # the index of _PAD's CONFLICT past the registers
        indices = [slot if slot in live else pad for slot in range(width)]
        if width == 1:  # one index: a slice, so a tuple comes back
            return itemgetter(slice(pad, pad + 1))
        return itemgetter(*indices)

    def __repr__(self) -> str:
        return (f"LiveSlots({state_label(self._state)}, "
                f"{len(self.reads)} read(s), {len(self.pairs)} pair(s))")


class _StepRows(dict):
    """``state → StepRow`` for one event class, filled as states ask;
    ``None`` is the row of a state the class enables nothing in."""

    __slots__ = ("_automaton", "_event")

    def __init__(self, automaton: "SESAutomaton", event: Event):
        self._automaton = automaton
        self._event = event  # any event of the class decides alike

    def __missing__(self, state: State) -> Optional[StepRow]:
        row = self[state] = self._automaton._build_row(state, self._event)
        return row


class SESAutomaton:
    """A SES automaton ``N = (Q, Δ, qs, qf, τ)``.

    Parameters
    ----------
    states:
        The state set ``Q``; every transition endpoint must be included.
    transitions:
        The transition set ``Δ``.
    start:
        Start state ``qs``.
    accepting:
        Accepting state ``qf``.
    tau:
        Maximal duration spanned by the events in a match buffer.
    """

    def __init__(self, states: Iterable[State], transitions: Iterable[Transition],
                 start: State, accepting: State, tau):
        self.states: FrozenSet[State] = frozenset(frozenset(s) for s in states)
        self.transitions: Tuple[Transition, ...] = tuple(transitions)
        self.start: State = frozenset(start)
        self.accepting: State = frozenset(accepting)
        self.tau = tau
        self._validate()
        self._outgoing: Dict[State, Tuple[Transition, ...]] = {}
        by_source: Dict[State, List[Transition]] = {}
        for t in self.transitions:
            by_source.setdefault(t.source, []).append(t)
        for state in self.states:
            self._outgoing[state] = tuple(by_source.get(state, ()))
        self._lay_out_registers()
        self._probes: Dict[State, StateProbe] = {}
        self._probe_gaps: Dict[State, str] = {}
        for state, outgoing in self._outgoing.items():
            self._find_probe(state, outgoing)
        self._move_updates = self._live_updates()
        self._live_slots: Dict[State, LiveSlots] = {}
        self._rank: Optional[Dict[State, int]] = None
        # Event alphabet and step table: built when the first event is
        # classified, so compiling a plan pays for neither.
        self._bank: Optional[PredicateBank] = None
        self._alphabet: Tuple[EventPredicate, ...] = ()
        self._step_table: Dict[int, _StepRows] = {}

    #: How many event classes :meth:`step_rows` memoises (a subclass
    #: that must see every row built sets 0).
    step_table_cap = STEP_TABLE_CAP

    # ------------------------------------------------------------------
    # Summary registers
    # ------------------------------------------------------------------
    def _lay_out_registers(self) -> None:
        """One register slot per ``(partner, attribute, kind)`` a
        binding row reads, numbered in transition order; every
        transition's rows are bound to them."""
        slots: Dict[Tuple, int] = {}
        for transition in self.transitions:
            for key in transition.register_keys:
                slots.setdefault(key, len(slots))
        for transition in self.transitions:
            try:
                transition.lay_out_registers(slots)
            except ValueError as exc:
                raise AutomatonError(str(exc)) from None
        # What binding each variable does to the registers, as ``(slot,
        # attribute, kind)``: its own values (the time attribute read as
        # ``None``), and ``(slot, u, LATEST)`` for each other group
        # variable ``u`` whose run it may end (the parent's timestamp,
        # if the parent bound ``u``).  A `≠` register walks from the
        # start: nothing updates it.
        latest = {partner: slot for (partner, _, kind), slot in slots.items()
                  if kind is LATEST}
        updates: Dict[Variable, List[Tuple]] = {}
        for (partner, attribute, kind), slot in slots.items():
            if kind is not WALK and kind is not LATEST:
                updates.setdefault(partner, []).append((
                    slot, None if attribute == TIME_ATTRIBUTE else attribute,
                    kind))
        for variable in {v for state in self.states for v in state}:
            updates.setdefault(variable, []).extend(
                (slot, partner, LATEST) for partner, slot in latest.items()
                if partner is not variable)
        self._slots = slots
        self._updates = {variable: tuple(triples)
                         for variable, triples in updates.items()}
        #: The buffer a fresh instance starts from: no binding, every
        #: register :data:`~repro.automaton.buffer.UNBOUND` (a ``≠``
        #: one :data:`~repro.automaton.buffer.WALK`).
        self.empty_buffer = MatchBuffer.root(tuple(
            WALK if kind is WALK else UNBOUND for _, _, kind in slots))

    def _live_updates(self) -> Dict[State, Tuple[Tuple, ...]]:
        """Per state, for each of its :meth:`outgoing` transitions, the
        register updates binding the transition's variable makes that
        some decision can still read: a register that no transition
        leaving the target state — or any state reachable from it —
        reads (nor its :class:`StateProbe`) is left as it is."""
        reads: Dict[State, set] = {}

        def live(state: State) -> set:
            if state not in reads:
                reads[state] = found = set()
                probe = self._probes.get(state)
                if probe is not None:
                    found.add(probe.slot)
                for transition in self._outgoing.get(state, ()):
                    found.update(row[0] for row in transition._register_rows)
                    if transition.target != state:
                        found |= live(transition.target)
            return reads[state]

        return {state: tuple(
                    tuple(update for update
                          in self._updates[transition.variable]
                          if update[0] in live(transition.target))
                    for transition in outgoing)
                for state, outgoing in self._outgoing.items()}

    def live_slots(self, state: State) -> "LiveSlots":
        """What an instance resting in ``state`` can still have read of
        its registers (see :class:`LiveSlots`); built on first use."""
        masks = self._live_slots.get(state)
        if masks is None:
            masks = self._live_slots[state] = LiveSlots(self, state)
        return masks

    @property
    def register_slots(self) -> Dict[Tuple, int]:
        """``(partner, partner attribute, kind) → slot``: the summary
        registers a buffer of this automaton carries (see
        :mod:`repro.automaton.buffer`)."""
        return dict(self._slots)

    def extend(self, buffer: MatchBuffer, variable: Variable,
               event: Event) -> MatchBuffer:
        """``buffer`` extended by ``variable/event``, registers updated —
        what firing a transition binding ``variable`` does to a buffer
        (the executor builds the same node from a step row's moves)."""
        return MatchBuffer(buffer, variable, event, self._updates[variable])

    # ------------------------------------------------------------------
    # Event alphabet and step table
    # ------------------------------------------------------------------
    def _build_alphabet(self) -> PredicateBank:
        """Intern the event-only checks of all transitions."""
        bank = PredicateBank()
        alphabet: List[EventPredicate] = []
        for transition in self.transitions:
            for anchored in transition.event_checks:
                pid = bank.intern(anchored)
                if pid == len(alphabet):
                    alphabet.append(EventPredicate(bank.text(pid), 1 << pid))
                readers = alphabet[pid].readers
                if not readers or readers[-1] is not transition:
                    readers.append(transition)
        self._alphabet = tuple(alphabet)
        self._bank = bank
        return bank

    @property
    def event_alphabet(self) -> Tuple[EventPredicate, ...]:
        """The distinct conditions on the event alone — constant and
        self conditions — across all transitions, as the automaton's
        private :class:`~repro.core.predicates.PredicateBank` interned
        them (the registry's shared bank deduplicates the same way for
        admission).  Their truth values on an event are all the
        transitions' :meth:`~Transition.admits_event` can depend on."""
        if self._bank is None:
            self._build_alphabet()
        return self._alphabet

    def classify(self, event: Event) -> int:
        """The event's class: the alphabet bank's
        :meth:`~repro.core.predicates.PredicateBank.truth`, one bit per
        :attr:`event_alphabet` predicate, each evaluated once (a missing
        attribute and an incomparable value are ``False``)."""
        bank = self._bank
        if bank is None:
            bank = self._build_alphabet()
        return bank.truth(event)

    def step_rows(self, event: Event) -> Dict[State, Optional[StepRow]]:
        """The step table's rows for ``event``: ``rows[state]`` is the
        :class:`StepRow` of the transitions leaving ``state`` that
        ``event`` may fire (their event-only conditions hold), or
        ``None`` when there is none — that state need not be touched.

        One classification per call; rows are built on first use per
        (class, state) by asking each transition's own
        :meth:`~Transition.admits_event`, and shared by every executor
        running this automaton.
        """
        bank = self._bank
        if bank is None:
            bank = self._build_alphabet()
        cls = bank.truth(event)
        rows = self._step_table.get(cls)
        if rows is None:
            rows = _StepRows(self, event)
            if len(self._step_table) < self.step_table_cap:
                self._step_table[cls] = rows
        return rows

    def _build_row(self, state: State, event: Event) -> Optional[StepRow]:
        outgoing = self.outgoing(state)
        indices = tuple(i for i, transition in enumerate(outgoing)
                        if transition.admits_event(event))
        if not indices:
            return None
        probe = self._probes.get(state)
        attributes = () if probe is None else tuple(dict.fromkeys(
            probe.lookups[i][1] for i in indices))
        updates = self._move_updates[state]
        return StepRow(tuple(outgoing[i] for i in indices), indices,
                       attributes, tuple(updates[i] for i in indices))

    def __getstate__(self) -> dict:
        """A plan pickled to a worker travels without its memoised rows
        (they hold events) and register masks; the worker rebuilds the
        ones it reads."""
        state = self.__dict__.copy()
        state["_step_table"] = {}
        state["_live_slots"] = {}
        return state

    def _find_probe(self, state: State,
                    outgoing: Tuple[Transition, ...]) -> None:
        """Work out the state's :class:`StateProbe`, or why it has none."""
        if not outgoing:
            return
        common = set.intersection(
            *(set(transition.equality_probes) for transition in outgoing))
        if common:
            # Any common key is sound; a singleton partner never holds
            # two values, so prefer it, then break ties by name.
            key = min(common, key=lambda k: (k[0].is_group, k[0].name, k[1]))
            self._probes[state] = StateProbe(key[0], key[1], tuple(
                (t, t.equality_probes[key]) for t in outgoing),
                self._slots[(key[0], key[1], EQUAL)])
            return
        bare = [t for t in outgoing if not t.equality_probes]
        if bare:
            self._probe_gaps[state] = (
                f"transition `{bare[0].variable!r}` has no equality check "
                f"against a bound variable")
        else:
            self._probe_gaps[state] = (
                "its transitions share no equality check against one "
                "bound attribute")

    def _validate(self) -> None:
        if self.start not in self.states:
            raise AutomatonError("start state not in state set")
        if self.accepting not in self.states:
            raise AutomatonError("accepting state not in state set")
        for t in self.transitions:
            if t.source not in self.states:
                raise AutomatonError(f"transition source missing from Q: {t!r}")
            if t.target not in self.states:
                raise AutomatonError(f"transition target missing from Q: {t!r}")

    # ------------------------------------------------------------------
    # Navigation
    # ------------------------------------------------------------------
    def outgoing(self, state: State) -> Tuple[Transition, ...]:
        """Transitions whose source is ``state``."""
        try:
            return self._outgoing[state]
        except KeyError:
            raise AutomatonError(f"unknown state {state_label(state)}") from None

    def probe(self, state: State) -> Optional[StateProbe]:
        """The equality lookup shared by every transition leaving
        ``state``; ``None`` when there is none (see :meth:`probe_gap`).
        Worked out once, at construction, from
        :attr:`Transition.equality_probes`."""
        return self._probes.get(state)

    def probe_gap(self, state: State) -> Optional[str]:
        """Why ``state`` has no :meth:`probe` — ``None`` when it has one,
        or has no outgoing transition to look anything up for."""
        return self._probe_gaps.get(state)

    def state_rank(self, state: State) -> int:
        """Position of ``state`` in :meth:`sorted_states` — the fixed
        order in which an executor visits its occupied states."""
        if self._rank is None:
            self._rank = {q: i for i, q in enumerate(self.sorted_states())}
        try:
            return self._rank[state]
        except KeyError:
            raise AutomatonError(f"unknown state {state_label(state)}") from None

    def loops_at(self, state: State) -> Tuple[Transition, ...]:
        """The looping transitions at ``state``."""
        return tuple(t for t in self.outgoing(state) if t.is_loop)

    @property
    def variables(self) -> FrozenSet[Variable]:
        """All variables bound by some transition."""
        return frozenset(t.variable for t in self.transitions)

    def is_accepting(self, state: State) -> bool:
        """True iff ``state`` is the accepting state."""
        return state == self.accepting

    # ------------------------------------------------------------------
    # Introspection / rendering
    # ------------------------------------------------------------------
    def sorted_states(self) -> List[State]:
        """States in a deterministic order (size, then label)."""
        return sorted(self.states, key=state_sort_key)

    def describe(self) -> str:
        """Multi-line description mirroring the paper's figures."""
        lines = [
            f"SES automaton: {len(self.states)} states, "
            f"{len(self.transitions)} transitions, τ={self.tau}",
            f"  start: {state_label(self.start)}",
            f"  accepting: {state_label(self.accepting)}",
        ]
        for state in self.sorted_states():
            for t in sorted(self.outgoing(state),
                            key=lambda t: (state_sort_key(t.target), t.variable.name)):
                conds = ", ".join(repr(c) for c in t.conditions)
                lines.append(
                    f"  {state_label(state)} --{t.variable!r}--> "
                    f"{state_label(t.target)}  {{{conds}}}"
                )
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Render as Graphviz DOT (for documentation and debugging)."""
        lines = ["digraph SES {", "  rankdir=LR;"]
        for state in self.sorted_states():
            label = state_label(state)
            shape = "doublecircle" if state == self.accepting else "circle"
            lines.append(f'  "{label}" [shape={shape}];')
        lines.append('  __start [shape=point];')
        lines.append(f'  __start -> "{state_label(self.start)}";')
        for t in self.transitions:
            conds = ", ".join(repr(c) for c in t.conditions)
            lines.append(
                f'  "{state_label(t.source)}" -> "{state_label(t.target)}" '
                f'[label="{t.variable!r} {conds}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"SESAutomaton(|Q|={len(self.states)}, |Δ|={len(self.transitions)}, "
                f"qs={state_label(self.start)}, qf={state_label(self.accepting)}, "
                f"τ={self.tau})")
