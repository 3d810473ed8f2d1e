"""Transitions of a SES automaton.

A transition ``δ = (q, v, Θδ)`` (Definition 3) leads from source state ``q``
to target state ``q ∪ {v}`` when the transition condition set ``Θδ`` is
satisfied by the new binding together with the bindings already collected.
For a group variable ``v+ ∈ q`` the target equals the source, i.e. the
transition loops.
"""

from __future__ import annotations

import operator
from typing import Dict, Iterable, Optional, Tuple

from ..core.conditions import OPERATORS, Condition
from ..core.events import TIME_ATTRIBUTE, Event
from ..core.variables import Variable
from .buffer import (EQUAL, GREATEST, LATEST, LEAST, UNBOUND, WALK, Marker,
                     MatchBuffer)
from .states import State, state_label

__all__ = ["Transition"]

#: ``Transition._walk``'s left operand before a partner event needs it.
_UNREAD = object()

#: What a binding row needs to know about its partner's events, by
#: operator: ``x = every p`` reads the one value, ``x < every p`` the
#: least, ``x > every p`` the greatest; ``≠`` walks them.
_REGISTER_KINDS = {operator.eq: EQUAL, operator.lt: LEAST,
                   operator.le: LEAST, operator.gt: GREATEST,
                   operator.ge: GREATEST, operator.ne: WALK}


class Transition:
    """A transition ``δ = (q, v, Θδ)``.

    Parameters
    ----------
    source:
        Source state ``q``.
    variable:
        The event variable bound when the transition fires.
    conditions:
        The transition condition set ``Θδ``.
    """

    __slots__ = ("source", "variable", "conditions", "target", "_checks",
                 "_event_checks", "_binding_rows", "_probes", "_register_rows")

    def __init__(self, source: State, variable: Variable,
                 conditions: Iterable[Condition] = ()):
        self.source: State = frozenset(source)
        self.variable = variable
        self.conditions: Tuple[Condition, ...] = tuple(conditions)
        #: Target state ``q ∪ {v}`` (equals ``q`` for a looping transition).
        self.target: State = self.source | {variable}
        # Precompile the condition checks so admission does no per-event
        # normalisation: each entry is (partner_variable_or_None, anchored
        # condition with `variable` on the left).
        checks = []
        for condition in self.conditions:
            other = condition.other_variable(variable)
            anchored = condition.normalised_for(variable)
            if other is None or other == variable:
                checks.append((None, anchored))
            else:
                checks.append((other, anchored))
        self._checks: Tuple = tuple(checks)
        # The two halves of admits(): checks on the new event alone
        # (shared by every instance in the source state) and checks
        # against an instance's bindings, the latter bound to rows here
        # so that firing interprets nothing.
        self._event_checks: Tuple = tuple(
            anchored for other, anchored in checks if other is None)
        self._binding_rows: Tuple = tuple(
            (other, anchored.left.attribute, OPERATORS[anchored.op],
             anchored.right.attribute)
            for other, anchored in checks if other is not None)
        probes = {}
        for partner, attribute, op, partner_attribute in self._binding_rows:
            if op is operator.eq:
                probes.setdefault((partner, partner_attribute), attribute)
        self._probes = probes
        # The rows admits_bindings walks, each reading its partner's
        # summary register: laid out by the automaton that owns the
        # transition (there is nothing to lay out without binding rows).
        self._register_rows: Optional[Tuple] = (
            None if self._binding_rows else ())

    @property
    def checks(self) -> Tuple:
        """The precompiled checks: ``(partner_or_None, anchored)`` pairs.

        ``partner_or_None`` is ``None`` for constant and self-conditions
        (evaluate on the new event alone); otherwise the partner variable
        whose bound events the anchored condition is universally
        quantified over.  The aggregation engine compiles these into
        value-space checks over projected attribute sets.
        """
        return self._checks

    @property
    def event_checks(self) -> Tuple[Condition, ...]:
        """The half of ``Θδ`` on the new event alone — constant and self
        conditions, anchored with :attr:`variable` on the left — in
        :attr:`checks` order.  :meth:`admits_event` evaluates them; the
        automaton's event alphabet and the registry's start gate intern
        them into a :class:`~repro.core.predicates.PredicateBank`."""
        return self._event_checks

    @property
    def binding_rows(self) -> Tuple:
        """The binding half of ``Θδ``, one row per check against a
        partner variable: ``(partner variable, attribute of the new
        event, operator function, attribute of the partner's events)``,
        in :attr:`checks` order.  :meth:`admits_bindings` decides them
        against a match buffer's summary registers
        (:attr:`register_keys`); the aggregation engine walks the same
        rows against its projected value sets."""
        return self._binding_rows

    @property
    def register_keys(self) -> Tuple:
        """The summary register each of :attr:`binding_rows` reads, as
        ``(partner, partner attribute, kind)`` — ``kind`` one of
        :data:`~repro.automaton.buffer.EQUAL`,
        :data:`~repro.automaton.buffer.LEAST`,
        :data:`~repro.automaton.buffer.GREATEST` (``LATEST`` for a
        group variable's timestamps) or
        :data:`~repro.automaton.buffer.WALK` (``≠``)."""
        return tuple(
            (partner, partner_attribute,
             LATEST if (_REGISTER_KINDS[op] is GREATEST and partner.is_group
                        and partner_attribute == TIME_ATTRIBUTE)
             else _REGISTER_KINDS[op])
            for partner, _, op, partner_attribute in self._binding_rows)

    def lay_out_registers(self, slots: Dict[Tuple, int]) -> None:
        """Bind :attr:`binding_rows` to register slots — ``slots`` maps
        each of :attr:`register_keys` to its index in a buffer's
        :attr:`~repro.automaton.buffer.MatchBuffer.registers`.  Called
        by :class:`~repro.automaton.automaton.SESAutomaton` when it is
        built; a transition laid out differently by another automaton
        raises :class:`ValueError` (build a fresh one)."""
        # Prepared for the decision: the event's time attribute is read
        # as ``None``, and ``=`` — most rows — is compared inline.
        rows = tuple(
            (slots[key], None if attribute == TIME_ATTRIBUTE else attribute,
             None if op is operator.eq else op, partner, partner_attribute,
             key[2] is LATEST)
            for key, (partner, attribute, op, partner_attribute)
            in zip(self.register_keys, self._binding_rows))
        if self._register_rows is not None and self._register_rows != rows:
            raise ValueError(f"{self!r} is laid out by another automaton")
        self._register_rows = rows

    @property
    def equality_probes(self) -> dict:
        """The equality checks against partner variables, as
        ``{(partner, partner attribute): attribute of the new event}``.

        An instance whose ``partner`` events all carry one value of the
        attribute can only fire this transition on an event carrying the
        same value, so a state whose outgoing transitions share a key
        can file its instances under that value
        (:meth:`SESAutomaton.probe <repro.automaton.automaton.SESAutomaton.probe>`).
        """
        return self._probes

    @property
    def is_loop(self) -> bool:
        """True iff the transition loops (group variable already in ``q``)."""
        return self.target == self.source

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def admits(self, event: Event, buffer: MatchBuffer) -> bool:
        """Evaluate ``Θδ`` for binding ``event`` to :attr:`variable`.

        The check is incremental: conditions are instantiated with the new
        binding against *every* existing binding of the other mentioned
        variable (decomposition semantics).  Bindings already in the buffer
        were validated when they were added, so re-checking pairs that do
        not involve the new event is unnecessary.
        """
        return (self.admits_event(event)
                and self.admits_bindings(event, buffer))

    def admits_event(self, event: Event) -> bool:
        """The half of :meth:`admits` that depends on ``event`` alone.

        Constant conditions and self-conditions ``v.A φ v.A'`` evaluate on
        the new event (a decomposed substitution binds one event per
        variable), so the answer is the same for every instance in the
        source state — and for every event the automaton's event
        alphabet classifies alike: :meth:`SESAutomaton.step_rows
        <repro.automaton.automaton.SESAutomaton.step_rows>` asks once per
        (event class, state), when it builds the row, and the per-event
        loop reads rows.  An override must stay a function of the truth
        values of the transition's own event-only conditions.
        """
        for anchored in self._event_checks:
            if not anchored.evaluate_events(event, event):
                return False
        return True

    def admits_bindings(self, event: Event, buffer: MatchBuffer) -> bool:
        """The half of :meth:`admits` that depends on the bindings in
        ``buffer``: ``event`` against every bound partner event, with
        :meth:`Condition.evaluate_events
        <repro.core.conditions.Condition.evaluate_events>`' semantics (a
        missing attribute and an incomparable value are ``False``).

        This is the one decision per (instance, transition): the
        executor calls it — through the step table's rows, so an
        override decides — and does nothing else to find out whether a
        transition fires.  Each row reads its partner's summary register
        in ``buffer`` — one comparison, whatever the partner has bound —
        and walks the partner's events only where the register says
        :data:`~repro.automaton.buffer.WALK`.
        An override decides for a whole run, so it must decide from
        what the registers summarise, or its automaton's ``live_slots``
        must say they walk (EXPLAIN ANALYZE's counting shadow does).
        """
        registers = buffer.registers
        # The attribute dict is read directly: an ``Event.get`` per
        # operand was the larger part of what a decision cost.
        attrs = event._attrs
        for slot, attribute, op, partner, partner_attribute, latest \
                in self._register_rows:
            held = registers[slot]
            if latest and buffer.variable is partner and held is not WALK:
                # The partner's run ends in the buffer's own event: the
                # latest, so the greatest, of its timestamps.
                held = buffer.event.ts
            elif held.__class__ is Marker:
                if held is UNBOUND:
                    # An unbound partner cannot be checked on this
                    # transition; the builder only routes conditions
                    # whose partner is guaranteed bound, so this only
                    # happens for custom automata — treat as satisfied
                    # (checked later).
                    continue
                if held is not WALK:
                    return False  # MISSING or CONFLICT: no value passes
                if not self._walk(event, attribute, op, buffer, partner,
                                  partner_attribute):
                    return False
                continue
            if attribute is None:
                lhs = event.ts
            elif attribute in attrs:
                lhs = attrs[attribute]
            else:
                return False
            try:
                if op is None:
                    if not lhs == held:
                        return False
                elif not op(lhs, held):
                    return False
            except TypeError:
                return False
        return True

    @staticmethod
    def _walk(event: Event, attribute: str, op, buffer: MatchBuffer,
              partner: Variable, partner_attribute: str) -> bool:
        """One row decided without its register: ``event``'s
        ``attribute`` against every event bound to ``partner`` in
        ``buffer``, read off the chain (no partner event: ``True``)."""
        if op is None:
            op = operator.eq
        lhs = _UNREAD
        node = buffer
        try:
            while node.parent is not None:
                if node.variable is partner:
                    if lhs is _UNREAD:
                        if attribute is None:
                            lhs = event.ts
                        elif attribute in event._attrs:
                            lhs = event._attrs[attribute]
                        else:
                            return False
                    if partner_attribute == TIME_ATTRIBUTE:
                        value = node.event.ts
                    elif partner_attribute in node.event._attrs:
                        value = node.event._attrs[partner_attribute]
                    else:
                        return False
                    if not op(lhs, value):
                        return False
                node = node.parent
        except TypeError:
            return False
        return True

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Transition):
            return NotImplemented
        return (self.source == other.source
                and self.variable == other.variable
                and frozenset(self.conditions) == frozenset(other.conditions))

    def __hash__(self) -> int:
        return hash((self.source, self.variable, frozenset(self.conditions)))

    def __repr__(self) -> str:
        conds = ", ".join(repr(c) for c in self.conditions)
        return (f"({state_label(self.source)} --{self.variable!r}--> "
                f"{state_label(self.target)} [{conds}])")
