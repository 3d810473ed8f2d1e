"""Old import paths of the registry's admission artifacts.

Admission is :class:`~repro.core.predicates.AdmissionSpec`, defined
beside the bank (``repro.plan`` cannot import ``repro.registry``) and
re-exported here.  Whether an admitted event's fresh start-state
instance can fire is not decided here but by each pattern's executor,
from its automaton's step table; :class:`StartGate` is left only as a
constructor interning the start transitions' event checks into a bank.
Both stay because the benchmark harness (``ledger/layers.py``) imports
them from this module.
"""

from __future__ import annotations

from ..automaton.automaton import SESAutomaton
from ..core.predicates import AdmissionSpec, PredicateBank

__all__ = ["AdmissionSpec", "StartGate"]


class StartGate:
    """Interns the event-only checks of ``automaton``'s start-outgoing
    transitions into ``bank``; ``pids`` are the ids, with multiplicity."""

    __slots__ = ("pids",)

    def __init__(self, bank: PredicateBank, automaton: SESAutomaton):
        self.pids = tuple(
            bank.intern(anchored)
            for transition in automaton.outgoing(automaton.start)
            for anchored in transition.event_checks)
