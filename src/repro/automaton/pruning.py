"""Deadline pruning: terminate partial matches that cannot complete.

Inspired by the constraint-aware CEP of the paper's related work (C-CEP
[14], "detects at runtime optimal points for terminating the evaluation
of partial query matches that will never be satisfied").  The variant
implemented here is *temporal* unsatisfiability:

An instance anchored at ``min_ts`` must finish by ``min_ts + τ``.  From
its current state it still has to cross some number ``b`` of *set
boundaries* (event set patterns with no binding yet), and entering a set
requires a timestamp strictly greater than every event of the preceding
set.  With tick size 1 (integer domains), the earliest possible
completion time is

    max(last_bound_ts + 1, current_ts) + (b - 1)

— the first boundary needs to clear the newest bound event (but may
coincide with the current timestamp if that is already later), and each
further boundary costs another tick.  If that exceeds ``min_ts + τ``,
no future input can ever complete the instance and it can be dropped
*now* instead of lingering until expiry.  Pruning only applies to
non-accepting instances, so the accepted-buffer set is unchanged; only
the instance population (and hence time and memory) shrinks.

:class:`DeadlineTable` precomputes the remaining-boundary count per
automaton state; :class:`PruningExecutor` plugs it into the standard
executor loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.events import Event
from ..core.pattern import SESPattern
from .automaton import SESAutomaton, StepRow
from .executor import SESExecutor
from .instance import AutomatonInstance
from .states import State

__all__ = ["DeadlineTable", "PruningExecutor"]


class DeadlineTable:
    """Per-state minimum time still needed to reach the accepting state.

    Parameters
    ----------
    pattern:
        The SES pattern the automaton was built from (provides the event
        set structure).
    automaton:
        The automaton whose states are to be annotated.
    tick:
        Minimal distance between two distinct timestamps (1 for integer
        domains).  Use 0 for dense/unknown domains — pruning then only
        triggers on instances that must cross a boundary *after* the
        window already closed.
    """

    def __init__(self, pattern: SESPattern, automaton: SESAutomaton,
                 tick: int = 1):
        if tick < 0:
            raise ValueError("tick must be non-negative")
        self.tick = tick
        self._needed: Dict[State, int] = {}
        for state in automaton.states:
            self._needed[state] = self._boundaries_remaining(pattern, state) * tick

    @staticmethod
    def _boundaries_remaining(pattern: SESPattern, state: State) -> int:
        """Set boundaries an instance at ``state`` still has to cross.

        A set pattern with at least one binding in ``state`` has been
        *entered*.  Every set after the last entered one costs a strictly
        later timestamp.  (Unbound variables within the current set can
        still bind events at the current timestamp — ties are allowed
        inside a set — so they cost nothing.)
        """
        last_entered = -1
        for i, variables in enumerate(pattern.sets):
            if variables & state:
                last_entered = i
        return len(pattern.sets) - 1 - last_entered if last_entered >= 0 \
            else len(pattern.sets) - 1

    def min_remaining_time(self, state: State) -> int:
        """Minimal extra time an instance at ``state`` still needs."""
        return self._needed[state]

    def doomed(self, instance: AutomatonInstance, current_ts, tau) -> bool:
        """True iff ``instance`` provably cannot complete within its window."""
        buffer = instance.buffer
        min_ts = buffer.min_ts
        if min_ts is None:
            return False
        needed = self._needed[instance.state]
        if needed == 0:
            return False
        # Earliest entry into the next set clears the newest bound event;
        # every further boundary costs one more tick.
        first_entry = buffer.max_ts + self.tick
        if first_entry < current_ts:
            first_entry = current_ts
        earliest_completion = first_entry + needed - self.tick
        return earliest_completion > min_ts + tau


class PruningExecutor(SESExecutor):
    """The standard executor plus C-CEP-style deadline pruning.

    Accepts the same arguments as
    :class:`~repro.automaton.executor.SESExecutor` plus the ``pattern``
    (needed for set-boundary analysis) and the domain ``tick``.
    Accepted buffers are identical to the plain executor's; the instance
    population is never larger.
    """

    #: A resting instance turns doomed as time passes, not only when an
    #: event can move it.
    visits_every_instance = True

    def __init__(self, pattern: SESPattern, automaton: SESAutomaton,
                 event_filter=None,
                 selection: str = "paper", tick: int = 1, **kwargs):
        super().__init__(automaton, event_filter=event_filter,
                         selection=selection, **kwargs)
        self.deadlines = DeadlineTable(pattern, automaton, tick=tick)
        self.pruned_instances = 0

    def reset(self) -> None:
        super().reset()
        self.pruned_instances = 0

    def _consume(self, candidates, row: Optional[StepRow], event: Event,
                 out: List[AutomatonInstance]) -> List[AutomatonInstance]:
        before = len(out)
        gone = super()._consume(candidates, row, event, out)
        # Drop doomed survivors — successors and instances left resting
        # alike (never in the accepting state: accepting instances have
        # zero remaining boundaries by construction, so doomed() cannot
        # fire for them before plain expiry does).
        accepting = self.automaton.accepting
        doomed = self.deadlines.doomed
        ts, tau = event.ts, self.automaton.tau
        kept = [successor for successor in out[before:]
                if successor.state == accepting
                or not doomed(successor, ts, tau)]
        pruned = len(out) - before - len(kept)
        if pruned:
            out[before:] = kept
        if len(gone) < len(candidates) and candidates[0].state != accepting:
            left = set(gone)
            resting = [instance for instance in candidates
                       if instance not in left and doomed(instance, ts, tau)]
            pruned += len(resting)
            gone += resting
        self.pruned_instances += pruned
        return gone
