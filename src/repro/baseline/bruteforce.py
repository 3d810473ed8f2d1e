"""The brute force baseline of Section 5.2.

Instead of a single SES automaton whose states are sets of variables, the
brute force algorithm creates one *sequential* automaton per possible
ordering of the pattern's variables (``|V1|!·…·|Vm|!`` automata) and
executes them all in parallel: every input event is offered to every
automaton.  This corresponds to how systems without a PERMUTE operator
(DejaVu, SASE+/NFAb, Cayuga) would have to express a SES pattern.

The implementation reuses :class:`~repro.automaton.executor.SESExecutor`
for each sequential automaton and interleaves them event-by-event, so the
measured ``max_simultaneous_instances`` is the true peak of the *combined*
instance population — the quantity Figure 11 and Table 1 report.
"""

from __future__ import annotations

from typing import Iterable, List, Union

from ..automaton.builder import build_automaton
from ..automaton.executor import MatchResult, SESExecutor
from ..automaton.metrics import ExecutionStats
from ..core.events import Event
from ..core.pattern import PatternError, SESPattern
from ..core.relation import EventRelation
from ..core.semantics import select
from ..core.substitution import Substitution
from ..plan.prefilter import VectorizedPrefilter
from .sequences import enumerate_sequences, sequence_pattern

__all__ = ["BruteForceMatcher", "brute_force_match"]


class BruteForceMatcher:
    """Evaluates a SES pattern with one automaton per variable sequence.

    Parameters
    ----------
    pattern:
        The SES pattern.  Group variables are rejected by default because
        the sequence rewriting forces their bindings to be consecutive,
        which is not SES semantics (the paper's Experiment 1 uses
        singleton-only patterns); pass ``allow_group=True`` to accept the
        approximation anyway.
    use_filter:
        Apply the Section 4.5 pre-filter in front of the shared event loop.
    selection:
        Result selection, as in :class:`~repro.automaton.executor.SESExecutor`.
    allow_group:
        Permit group variables despite the consecutive-bindings caveat.
    """

    def __init__(self, pattern: SESPattern, use_filter: bool = False,
                 filter_mode: str = "conjunctive", selection: str = "paper",
                 allow_group: bool = False):
        if pattern.group_variables and not allow_group:
            raise PatternError(
                "the brute force rewriting is only exact for patterns "
                "without group variables; pass allow_group=True to force "
                "the consecutive-bindings approximation"
            )
        self.pattern = pattern
        self.selection = selection
        self.event_filter = (VectorizedPrefilter(pattern, filter_mode)
                             if use_filter else None)
        self.automata = [
            build_automaton(sequence_pattern(pattern, sequence))
            for sequence in enumerate_sequences(pattern)
        ]

    @property
    def automaton_count(self) -> int:
        """Number of sequential automata (``|V1|!·…·|Vm|!``)."""
        return len(self.automata)

    def run(self, relation: Union[EventRelation, Iterable[Event]]) -> MatchResult:
        """Execute all sequential automata in parallel over ``relation``."""
        executors = [SESExecutor(a, selection="accepted") for a in self.automata]
        # Each automaton's accepted buffers, in the order it emitted them.
        accepted_by: List[List[Substitution]] = [[] for _ in executors]
        stats = ExecutionStats()
        for event in relation:
            stats.events_read += 1
            if self.event_filter is not None and not self.event_filter.admits(event):
                stats.events_filtered += 1
                continue
            stats.events_processed += 1
            for executor, buffers in zip(executors, accepted_by):
                buffers += executor.feed(event)
            stats.observe_omega(sum(e.active_instances for e in executors))
        accepted: List[Substitution] = []
        for executor, buffers in zip(executors, accepted_by):
            accepted += buffers
            accepted += executor.finish()
            stats.instances_created += executor.stats.instances_created
            stats.transitions_fired += executor.stats.transitions_fired
            stats.branchings += executor.stats.branchings
            stats.expired_instances += executor.stats.expired_instances
            stats.accepted_buffers += executor.stats.accepted_buffers

        matches = select(accepted, self.selection)
        stats.matches = len(matches)
        return MatchResult(matches=matches, accepted=accepted, stats=stats)

    def __repr__(self) -> str:
        return (f"BruteForceMatcher({self.pattern!r}, "
                f"{self.automaton_count} automata)")


def brute_force_match(pattern: SESPattern,
                      relation: Union[EventRelation, Iterable[Event]],
                      use_filter: bool = False,
                      selection: str = "paper") -> MatchResult:
    """One-shot brute force evaluation (see :class:`BruteForceMatcher`)."""
    matcher = BruteForceMatcher(pattern, use_filter=use_filter,
                                selection=selection)
    return matcher.run(relation)
