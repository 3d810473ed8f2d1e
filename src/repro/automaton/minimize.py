"""Automaton trimming: remove dead transitions and unreachable states.

The powerset construction (Section 4.2) generates every subset of each
event set pattern.  When a user writes conditions that can never fire
together — e.g. two conflicting constant conditions end up on one
transition — parts of the lattice become dead weight: the transition can
never fire, and states only reachable through it are never entered, yet
every unpruned state still costs lookup work at execution time and the
automaton is harder to read in ``describe()`` output.

:func:`trim` removes

* transitions whose own constant conditions are mutually unsatisfiable
  (decided with the conservative conflict test of
  :mod:`repro.complexity.bounds` — only provable conflicts are pruned);
* states unreachable from the start state over the remaining transitions;
* transitions from/to removed states.

The result accepts exactly the same buffers as the input.  If the
accepting state itself becomes unreachable the pattern can never match;
:func:`trim` reports that instead of returning a broken automaton.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..complexity.bounds import conditions_conflict
from .automaton import SESAutomaton
from .states import State, state_label
from .transitions import Transition

__all__ = ["TrimReport", "trim"]


@dataclass
class TrimReport:
    """Outcome of one :func:`trim` pass."""

    #: The trimmed automaton (equal to the input when nothing was removed).
    automaton: SESAutomaton
    #: Transitions removed because their conditions are unsatisfiable.
    dead_transitions: Tuple[Transition, ...]
    #: States removed as unreachable.
    unreachable_states: Tuple[State, ...]
    #: True iff the accepting state is still reachable.
    satisfiable: bool

    @property
    def changed(self) -> bool:
        """True iff trimming removed anything."""
        return bool(self.dead_transitions or self.unreachable_states)

    def describe(self) -> str:
        """One-paragraph human-readable summary."""
        if not self.satisfiable:
            return ("accepting state unreachable: the pattern can never "
                    "match (check the linter for conflicting conditions)")
        if not self.changed:
            return "nothing to trim"
        dead = ", ".join(
            f"{state_label(t.source)}--{t.variable!r}-->"
            f"{state_label(t.target)}" for t in self.dead_transitions)
        states = ", ".join(state_label(s) for s in sorted(
            self.unreachable_states, key=state_label))
        parts = []
        if self.dead_transitions:
            parts.append(f"removed {len(self.dead_transitions)} dead "
                         f"transition(s): {dead}")
        if self.unreachable_states:
            parts.append(f"removed {len(self.unreachable_states)} "
                         f"unreachable state(s): {states}")
        return "; ".join(parts)


def _transition_viable(transition: Transition) -> bool:
    """False iff the transition's constant conditions provably conflict."""
    constants = [c for c in transition.conditions if c.is_constant]
    for i, a in enumerate(constants):
        for b in constants[i + 1:]:
            if conditions_conflict(a, b):
                return False
    return True


def trim(automaton: SESAutomaton) -> TrimReport:
    """Remove dead transitions and unreachable states (see module docs)."""
    dead: List[Transition] = []
    viable: List[Transition] = []
    for transition in automaton.transitions:
        if _transition_viable(transition):
            viable.append(transition)
        else:
            dead.append(transition)

    # Reachability over the viable transitions.
    outgoing: Dict[State, List[Transition]] = {}
    for transition in viable:
        outgoing.setdefault(transition.source, []).append(transition)
    reachable: Set[State] = {automaton.start}
    queue = deque([automaton.start])
    while queue:
        state = queue.popleft()
        for transition in outgoing.get(state, ()):
            if transition.target not in reachable:
                reachable.add(transition.target)
                queue.append(transition.target)

    satisfiable = automaton.accepting in reachable
    unreachable = tuple(sorted(automaton.states - reachable,
                               key=state_label))
    kept_transitions = [t for t in viable
                        if t.source in reachable and t.target in reachable]

    if not satisfiable:
        return TrimReport(automaton=automaton,
                          dead_transitions=tuple(dead),
                          unreachable_states=unreachable,
                          satisfiable=False)
    if not dead and not unreachable:
        return TrimReport(automaton=automaton, dead_transitions=(),
                          unreachable_states=(), satisfiable=True)

    # Fresh transitions: the trimmed automaton numbers its summary
    # registers afresh, and a transition is laid out by one automaton.
    trimmed = SESAutomaton(
        states=reachable,
        transitions=[Transition(t.source, t.variable, t.conditions)
                     for t in kept_transitions],
        start=automaton.start,
        accepting=automaton.accepting,
        tau=automaton.tau,
    )
    return TrimReport(automaton=trimmed,
                      dead_transitions=tuple(dead),
                      unreachable_states=unreachable,
                      satisfiable=True)
