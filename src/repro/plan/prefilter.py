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
(equal predicates written for different variables share a slot) and
offers two evaluation paths over it:

* :meth:`admission_mask` — columnar batch evaluation: the bank walks
  each attribute's "column" once over the whole event batch, and the
  per-predicate bit masks (``bit i`` = event ``i``) are combined with
  ``&``/``|`` exactly as the filter's boolean structure dictates.  The
  result is one Python big-int admission mask computed *before* the
  per-event instance loop.
* :meth:`admits` — the scalar per-event check, the same decision read
  off the bank's truth vector for one event (missing attributes and
  incomparable values count as ``False``).

Plans are shared (cached, pickled to workers), so the prefilter itself
is never mutated at match time; per-use state — metric binding, the
sequential mask cursor — lives in the small :class:`PrefilterHandle` and
:class:`MaskCursor` adapters instead.
"""

from __future__ import annotations

from typing import Tuple

from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.predicates import AdmissionSpec, PredicateBank

__all__ = ["VectorizedPrefilter", "PrefilterHandle", "MaskCursor",
           "FILTER_MODES"]

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
        # ``spec.always``: some variable is unconstrained (or there is
        # none) — every event passes, and the paper filter says so by
        # calling itself ineffective.
        self._effective = (not self._spec.always if mode == "paper"
                           else bool(pattern.variables))

    @property
    def is_effective(self) -> bool:
        """False iff the filter passes every event (no pruning possible)."""
        return self._effective

    @property
    def predicates(self) -> Tuple[Predicate, ...]:
        """The pattern's ``(attribute, op, constant)`` predicates, one
        per constant condition in variable order (the bank evaluates
        each distinct one once)."""
        return self._predicates

    def admits(self, event: Event) -> bool:
        """True iff ``event`` may be relevant to some variable (the
        scalar path: streaming, incremental executors)."""
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

    # ------------------------------------------------------------------
    # Per-use adapters
    # ------------------------------------------------------------------
    def handle(self) -> "PrefilterHandle":
        """A fresh scalar filter handle (safe to bind metrics to)."""
        return PrefilterHandle(self)

    def cursor(self, mask: int, n_events: int) -> "MaskCursor":
        """A sequential cursor over a precomputed admission mask."""
        return MaskCursor(self, mask, n_events)

    def __repr__(self) -> str:
        state = "effective" if self._effective else "pass-through"
        return (f"VectorizedPrefilter(mode={self.mode!r}, "
                f"{len(self._predicates)} predicates, {state})")


class _FilterAdapter:
    """Shared plumbing: the executor-facing filter protocol.

    Executors call :meth:`admits` once per input event and — when
    instrumented — :meth:`bind_metrics` first.  Binding swaps
    :meth:`admits` for a counting wrapper *on the adapter instance*, so
    the shared plan is never mutated and unbound matching pays nothing.
    """

    def __init__(self, prefilter: VectorizedPrefilter):
        self.prefilter = prefilter
        self._admitted_counter = None
        self._rejected_counter = None

    @property
    def mode(self) -> str:
        return self.prefilter.mode

    @property
    def is_effective(self) -> bool:
        return self.prefilter.is_effective

    def admits(self, event: Event) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def bind_metrics(self, registry) -> "_FilterAdapter":
        """Report admitted/rejected counts to an obs registry."""
        self._admitted_counter = registry.counter(
            "ses_filter_admitted_total",
            help="events admitted by the Section 4.5 pre-filter")
        self._rejected_counter = registry.counter(
            "ses_filter_rejected_total",
            help="events rejected by the Section 4.5 pre-filter")
        unbound = type(self).admits
        self.admits = lambda event: self._admits_counted(unbound, event)
        return self

    def _admits_counted(self, unbound, event: Event) -> bool:
        ok = unbound(self, event)
        counter = self._admitted_counter if ok else self._rejected_counter
        counter.inc()
        return ok


class PrefilterHandle(_FilterAdapter):
    """Scalar per-use view of a shared :class:`VectorizedPrefilter`."""

    def admits(self, event: Event) -> bool:
        return self.prefilter.admits(event)

    def __repr__(self) -> str:
        return f"PrefilterHandle({self.prefilter!r})"


class MaskCursor(_FilterAdapter):
    """Sequential reader over a precomputed admission mask.

    The batch path computes the mask columnar up front; the executor
    still calls ``admits`` once per event in input order, and the cursor
    answers from the mask bit by bit — counters, stats and control flow
    stay bit-identical to scalar filtering.
    """

    def __init__(self, prefilter: VectorizedPrefilter, mask: int,
                 n_events: int):
        super().__init__(prefilter)
        self._mask = mask
        self._n_events = n_events
        self._position = 0

    def admits(self, event: Event) -> bool:
        position = self._position
        if position >= self._n_events:  # defensive: past the batch
            return self.prefilter.admits(event)
        self._position = position + 1
        return bool((self._mask >> position) & 1)

    def __repr__(self) -> str:
        return (f"MaskCursor({self._position}/{self._n_events}, "
                f"{popcount(self._mask)} admitted)")
