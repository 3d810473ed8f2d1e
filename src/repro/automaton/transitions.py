"""Transitions of a SES automaton.

A transition ``δ = (q, v, Θδ)`` (Definition 3) leads from source state ``q``
to target state ``q ∪ {v}`` when the transition condition set ``Θδ`` is
satisfied by the new binding together with the bindings already collected.
For a group variable ``v+ ∈ q`` the target equals the source, i.e. the
transition loops.
"""

from __future__ import annotations

import operator
from typing import Iterable, Tuple

from ..core.conditions import OPERATORS, Condition
from ..core.events import TIME_ATTRIBUTE, Event
from ..core.variables import Variable
from .buffer import MatchBuffer
from .states import State, state_label

__all__ = ["Transition"]


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
                 "_event_checks", "_binding_rows", "_probes")

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
        in :attr:`checks` order.  :meth:`admits_bindings` walks them
        against a match buffer; the aggregation engine walks the same
        rows against its projected value sets."""
        return self._binding_rows

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
        transition fires.
        """
        bound = buffer.by_var
        # The attribute dicts are read directly: an ``Event.get`` per
        # operand was the larger part of what a decision cost.
        attrs = event._attrs
        for partner, attribute, op, partner_attribute in self._binding_rows:
            # An unbound partner cannot be checked on this transition; the
            # builder only routes conditions whose partner is guaranteed
            # bound, so this only happens for custom automata — treat as
            # satisfied (checked later).
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
