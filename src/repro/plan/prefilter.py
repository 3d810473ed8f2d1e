"""The Section 4.5 constant-condition pre-filter, compiled.

Events that satisfy none of the constant conditions ``v.A φ C`` of a
pattern can never be bound by any transition, yet in Algorithm 1 every
input event causes an iteration over all active automaton instances.
The paper therefore filters such events out right after they are read,
which its Experiment 3 shows to cut execution time by about an order of
magnitude.  Filtering does not change the set of accepted buffers, only
the number of instance-loop iterations.

:class:`VectorizedPrefilter` interns a pattern's constant conditions
**once** into a private :class:`~repro.core.predicates.PredicateBank`
(equal predicates written for different variables share a slot).  Its
:meth:`~VectorizedPrefilter.admits` is the one admission decision: every
executor is handed the plan's prefilter and asks it once per event (a
missing attribute or an incomparable value counts as ``False``).
:meth:`~VectorizedPrefilter.admission_mask` computes the same decisions
columnar over a whole batch — the measurement and test reference, not a
second route into an executor.

Plans are shared (cached, pickled to workers); the prefilter holds no
per-use state, so one instance serves every matcher of the plan.
"""

from __future__ import annotations

from typing import Tuple

from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.predicates import AdmissionSpec, PredicateBank

__all__ = ["VectorizedPrefilter", "FILTER_MODES"]

#: Supported filter modes (see :class:`VectorizedPrefilter`).
FILTER_MODES = ("paper", "conjunctive")

#: One compiled predicate: ``(attribute, operator name, constant)``.
Predicate = Tuple[str, str, object]


def popcount(mask: int) -> int:
    """Number of set bits (admitted events) in an admission mask."""
    return bin(mask).count("1")


class VectorizedPrefilter:
    """A pattern's constant conditions, compiled for one filter mode.

    * ``"conjunctive"`` (default) — an event passes iff there is *some
      variable* all of whose constant conditions it satisfies.  Always
      sound (a variable without constant conditions admits everything)
      and never weaker than the paper mode.
    * ``"paper"`` — the filter exactly as published: an event passes iff
      it satisfies *at least one* constant condition from Θ.  Only sound
      when every variable carries a constant condition (otherwise events
      meant for an unconstrained variable would be dropped); when one
      has none, the filter disables itself and passes everything.
    """

    def __init__(self, pattern: SESPattern, mode: str = "conjunctive"):
        if mode not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {mode!r}")
        self.mode = mode
        self._predicates: Tuple[Predicate, ...] = tuple(
            (condition.left.attribute, condition.op, condition.right.value)
            for variable in sorted(pattern.variables)
            for condition in pattern.constant_conditions(variable))
        self._bank = PredicateBank()
        self._spec = AdmissionSpec(self._bank, pattern)

    @property
    def is_effective(self) -> bool:
        """False iff the filter passes every event (no pruning possible):
        some variable is unconstrained, or there is none."""
        return not self._spec.always

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The pattern's ``(attribute, op, constant)`` predicates, one
        per constant condition in variable order (the bank evaluates
        each distinct one once)."""
        return self._predicates

    def admits(self, event: Event) -> bool:
        """True iff ``event`` may be relevant to some variable — what
        every executor asks of its ``event_filter``."""
        spec = self._spec
        if spec.always:
            return True
        truth = self._bank.truth(event)
        return truth != 0 if self.mode == "paper" else spec.admitted(truth)

    def admission_mask(self, events) -> int:
        """The admission bitmask over an event batch (bit i = event i):
        the bank's per-predicate columns combined AND-within-variable /
        OR-across-variables (conjunctive) or OR-over-everything (paper),
        matching :meth:`admits` bit for bit."""
        n = len(events)
        full = (1 << n) - 1
        if self._spec.always or not n:
            return full
        columns = self._bank.truth_columns(events)
        if self.mode == "paper":
            out = 0
            for column in columns:
                out |= column
            return out
        return self._spec.admitted_mask(columns, full)

    def __repr__(self) -> str:
        state = "effective" if self.is_effective else "pass-through"
        return (f"VectorizedPrefilter(mode={self.mode!r}, "
                f"{len(self._predicates)} predicates, {state})")
