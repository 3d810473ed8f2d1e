"""Transitions of a SES automaton.

A transition ``δ = (q, v, Θδ)`` (Definition 3) leads from source state ``q``
to target state ``q ∪ {v}`` when the transition condition set ``Θδ`` is
satisfied by the new binding together with the bindings already collected.
For a group variable ``v+ ∈ q`` the target equals the source, i.e. the
transition loops.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..core.conditions import Condition
from ..core.events import Event
from ..core.substitution import Substitution
from ..core.variables import Variable
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
                 "_event_checks", "_binding_checks", "_probes")

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
        # against an instance's bindings.
        self._event_checks: Tuple = tuple(
            anchored for other, anchored in checks if other is None)
        self._binding_checks: Tuple = tuple(
            check for check in checks if check[0] is not None)
        probes = {}
        for other, anchored in self._binding_checks:
            if anchored.op == "=":
                probes.setdefault((other, anchored.right.attribute),
                                  anchored.left.attribute)
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
    def admits(self, event: Event, buffer: Substitution) -> bool:
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

    def admits_bindings(self, event: Event, buffer: Substitution) -> bool:
        """The half of :meth:`admits` that depends on the bindings in
        ``buffer``: ``event`` against every bound partner event."""
        for other, anchored in self._binding_checks:
            # An unbound partner cannot be checked on this transition; the
            # builder only routes conditions whose partner is guaranteed
            # bound, so this only happens for custom automata — treat as
            # satisfied (checked later).
            for partner in buffer.events_of(other):
                if not anchored.evaluate_events(event, partner):
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
