"""The start gate: a pattern's first automaton layer over the shared bank.

Admission proper is :class:`~repro.core.predicates.AdmissionSpec` — a
pattern's ``"conjunctive"`` prefilter as AND-masks over bank predicate
ids.  A plan's own :class:`~repro.plan.prefilter.VectorizedPrefilter`
holds one over a private bank and the registry builds the same class
over its shared :class:`~repro.core.predicates.PredicateBank`, so the
two decisions are one piece of code.  It is defined beside the bank
(``repro.plan`` cannot import ``repro.registry``: ``registry.py``
imports ``plan.cache``).

:class:`StartGate` goes one automaton layer deeper: it interns the
event-only checks of the (trimmed) automaton's start-outgoing
transitions.  ``fires(truth)`` is then *exactly* "some start transition
admits the event against an empty buffer": at the start state no
partner is bound, so a two-variable condition is vacuously satisfied
and only :attr:`Transition.event_checks
<repro.automaton.transitions.Transition.event_checks>` decide.  When
the gate is closed the registry feeds the event with
``allow_start=False``: the fresh start-state instance it skips would
have fired no transition and been dropped inside the consume loop, so
the match set is unchanged.  Patterns whose start layers share
structure hash to the same :attr:`StartGate.key`, so one gate
evaluation serves all of them.
"""

from __future__ import annotations

from typing import List, Tuple

from ..automaton.automaton import SESAutomaton
# AdmissionSpec is not used below: the benchmark harness (ledger/layers.py,
# which a source PR may not edit) imports it from this module.
from ..core.predicates import (AdmissionSpec, PredicateBank, any_group,
                               any_group_mask)

__all__ = ["AdmissionSpec", "StartGate"]


class StartGate:
    """The start-transition layer of one automaton, as predicate masks.

    ``transition_masks[j]`` ANDs the bank predicates of the j-th
    start-outgoing transition's constant and self conditions;
    :meth:`fires` is true iff some transition's mask is satisfied —
    i.e. iff a fresh start-state instance would consume the event.
    """

    __slots__ = ("pids", "transition_masks", "key")

    def __init__(self, bank: PredicateBank, automaton: SESAutomaton):
        pids: List[int] = []
        transition_masks: List[int] = []
        for transition in automaton.outgoing(automaton.start):
            mask = 0
            for anchored in transition.event_checks:
                pid = bank.intern(anchored)
                pids.append(pid)
                mask |= 1 << pid
            transition_masks.append(mask)
        self.pids: Tuple[int, ...] = tuple(pids)
        self.transition_masks: Tuple[int, ...] = tuple(transition_masks)
        #: Structural identity: patterns with equal keys share one gate
        #: evaluation per event (the common-prefix grouping).
        self.key = frozenset(transition_masks)

    def fires(self, truth: int) -> bool:
        """True iff some start transition admits the event."""
        return any_group(self.transition_masks, truth)

    @staticmethod
    def key_fire_mask(key: frozenset, columns: List[int], full: int) -> int:
        """Columnar :meth:`fires` over a batch, from a structural key."""
        return any_group_mask(key, columns, full)

    def release(self, bank: PredicateBank) -> None:
        for pid in self.pids:
            bank.release(pid)

    def __repr__(self) -> str:
        return f"StartGate({len(self.transition_masks)} transitions)"
