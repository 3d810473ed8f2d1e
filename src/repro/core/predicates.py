"""Conditions on the event alone: interned once, evaluated once.

Section 4.5's filter and the event-only half of every transition
condition set ``Θδ`` ask one question of an event — which constant
conditions ``A φ C`` and self conditions ``A φ A'`` does it satisfy,
whatever variable they were written for — and :class:`PredicateBank` is
the one place that answers it.  Three consumers read its truth vector:

* :class:`~repro.automaton.automaton.SESAutomaton` interns the
  event-only checks of all its transitions into a private bank — the
  automaton's *event alphabet*; an event's class is that bank's
  :meth:`~PredicateBank.truth`;
* :class:`~repro.plan.prefilter.VectorizedPrefilter` interns a pattern's
  constant conditions into a private bank and decides admission with an
  :class:`AdmissionSpec` over it;
* :class:`~repro.registry.registry.PatternRegistry` shares one bank
  across every registered pattern: registering the same ``v.L = 'C'`` a
  thousand times costs one slot, each event is evaluated against each
  **distinct** predicate once per push, and every pattern's admission
  (:class:`AdmissionSpec`) and start gate
  (:class:`~repro.registry.admission.StartGate`) is bitmask algebra over
  the shared vector.

Evaluation has :meth:`Condition.evaluate_events
<repro.core.conditions.Condition.evaluate_events>`' semantics: a missing
attribute and an incomparable value both count as ``False``.  It is
written here once for one event (:meth:`~PredicateBank.truth`) and once
for a batch (:meth:`~PredicateBank.truth_columns`).

Slots are reference-counted.  Releasing a pattern's predicate ids
tombstones the slots that drop to zero and recycles their ids for the
next intern, so a long-lived registry under register/deregister churn
keeps the truth vector (a Python big-int, bit ``pid``) bounded by the
number of *live* distinct predicates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .conditions import OPERATORS, Condition
from .events import Event

__all__ = ["PredicateBank", "AdmissionSpec", "mask_bits", "any_group",
           "any_group_mask"]

#: Sentinel distinguishing "attribute absent" from any real value.
_MISSING = object()


def mask_bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions (predicate ids) of a bitmask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class PredicateBank:
    """Reference-counted, deduplicated predicate slots.

    :meth:`intern` returns a stable predicate id (bit position); equal
    predicates share one id.  A constant predicate is keyed
    ``(attribute, op, constant)`` and a self condition ``(attribute, op,
    attribute)`` — both without the variable, so ``a.X < a.Y`` and
    ``b.X < b.Y`` are one slot.  :meth:`truth` evaluates every live
    predicate against one event and returns the truth vector as a
    big-int; :meth:`truth_columns` is the columnar batch twin — one
    per-event bitmask (bit ``i`` = event ``i``) per predicate id, with
    each attribute column walked once over the whole batch.
    """

    def __init__(self):
        # Indexed by predicate id: ``(key in _ids, text, operand)`` — the
        # operand a constant or an anchored self condition — or ``None``
        # for a tombstone; and the slot's reference count.
        self._slots: List[Optional[tuple]] = []
        self._refcounts: List[int] = []
        self._ids: Dict[tuple, int] = {}
        self._free: List[int] = []
        # What evaluation walks, compiled from the slots on first use
        # after one opened or closed (``None``: stale).
        self._const_rows: Optional[tuple] = None
        self._self_rows: tuple = ()

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def intern(self, condition: Condition) -> int:
        """Intern a condition on the event alone: a constant condition,
        or a self condition (both sides the same variable)."""
        if condition.is_constant:
            return self.intern_const(condition.left.attribute, condition.op,
                                     condition.right.value)
        return self.intern_self(condition)

    def intern_const(self, attribute: str, op: str, value) -> int:
        """Intern a constant predicate ``event[attribute] φ value``."""
        if op not in OPERATORS:
            raise ValueError(f"unknown comparison operator {op!r}")
        try:
            key = ("const", attribute, op, value)
            pid = self._ids.get(key)
        except TypeError:  # unhashable constant: equal only to itself
            key = ("const-id", attribute, op, id(value))
            pid = self._ids.get(key)
        if pid is None:
            pid = self._open(key, f"{attribute} {op} {value!r}", value)
        self._refcounts[pid] += 1
        return pid

    def intern_self(self, condition: Condition) -> int:
        """Intern a self condition (both sides bound to the new event)."""
        attribute, other = condition.left.attribute, condition.right.attribute
        key = ("self", attribute, condition.op, other)
        pid = self._ids.get(key)
        if pid is None:
            pid = self._open(key, f"{attribute} {condition.op} {other}",
                             condition)
        self._refcounts[pid] += 1
        return pid

    def _open(self, key: tuple, text: str, operand) -> int:
        """A slot for a predicate seen for the first time: a recycled
        id when there is one."""
        slot = (key, text, operand)
        if self._free:
            pid = self._free.pop()
            self._slots[pid] = slot
        else:
            pid = len(self._slots)
            self._slots.append(slot)
            self._refcounts.append(0)
        self._ids[key] = pid
        self._const_rows = None
        return pid

    def release(self, pid: int) -> None:
        """Drop one reference; a zero-count slot is recycled."""
        self._refcounts[pid] -= 1
        if self._refcounts[pid] > 0:
            return
        del self._ids[self._slots[pid][0]]
        self._slots[pid] = None
        self._free.append(pid)
        self._const_rows = None

    def _compile(self) -> tuple:
        """Lay the live slots out for evaluation: constant predicates by
        attribute, each a row ``(pid, bit, operator function,
        constant)``; self conditions as ``(pid, bit, anchored
        condition)``."""
        by_attribute: Dict[str, list] = {}
        self_rows = []
        for pid, slot in enumerate(self._slots):
            if slot is None:
                continue
            (kind, attribute, op, _), _, operand = slot
            if kind == "self":
                self_rows.append((pid, 1 << pid, operand))
            else:
                by_attribute.setdefault(attribute, []).append(
                    (pid, 1 << pid, OPERATORS[op], operand))
        self._self_rows = tuple(self_rows)
        self._const_rows = tuple(
            (attribute, tuple(tests))
            for attribute, tests in by_attribute.items())
        return self._const_rows

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def truth(self, event: Event) -> int:
        """Truth vector of every live predicate on one event (bit=pid)."""
        const_rows = self._const_rows
        if const_rows is None:
            const_rows = self._compile()
        out = 0
        get = event.get
        for attribute, tests in const_rows:
            value = get(attribute, _MISSING)
            if value is _MISSING:
                continue
            for _, bit, op, constant in tests:
                try:
                    if op(value, constant):
                        out |= bit
                except TypeError:
                    pass
        for _, bit, condition in self._self_rows:
            if condition.evaluate_events(event, event):
                out |= bit
        return out

    def truth_columns(self, events) -> List[int]:
        """Per-predicate event masks over a batch (bit ``i`` = event ``i``).

        The columnar twin of :meth:`truth`: each attribute column is
        walked once over the whole batch, every predicate on that
        attribute applied in the same pass.
        """
        const_rows = self._const_rows
        if const_rows is None:
            const_rows = self._compile()
        columns = [0] * len(self._slots)
        for attribute, tests in const_rows:
            at = 1
            for event in events:
                value = event.get(attribute, _MISSING)
                if value is not _MISSING:
                    for pid, _, op, constant in tests:
                        try:
                            if op(value, constant):
                                columns[pid] |= at
                        except TypeError:
                            pass
                at <<= 1
        for pid, _, condition in self._self_rows:
            at = 1
            for event in events:
                if condition.evaluate_events(event, event):
                    columns[pid] |= at
                at <<= 1
        return columns

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of live (referenced) predicate slots."""
        return len(self._slots) - len(self._free)

    def refcount(self, pid: int) -> int:
        return self._refcounts[pid]

    def text(self, pid: int) -> str:
        """The predicate as conditions print it, without the variable:
        ``A φ C`` or ``A φ A'``."""
        return self._slots[pid][1]

    def describe(self) -> List[Tuple[int, str, int]]:
        """``(pid, text, refcount)`` rows for every live slot."""
        return [(pid, slot[1], self._refcounts[pid])
                for pid, slot in enumerate(self._slots) if slot is not None]

    def __repr__(self) -> str:
        return (f"PredicateBank({len(self)} live predicates, "
                f"{len(self._free)} recycled slots)")


# ----------------------------------------------------------------------
# Group masks: OR over groups of AND-ed predicates
# ----------------------------------------------------------------------
def any_group(masks: Iterable[int], truth: int) -> bool:
    """True iff ``truth`` has every bit of some mask (an empty mask
    holds for every event)."""
    for mask in masks:
        if truth & mask == mask:
            return True
    return False


def any_group_mask(masks: Iterable[int], columns: List[int],
                   full: int) -> int:
    """Columnar :func:`any_group` over a batch: bit ``i`` is set iff
    event ``i`` satisfies every predicate of some mask, given the
    bank's :meth:`~PredicateBank.truth_columns` and the all-events mask
    ``full``."""
    out = 0
    for mask in masks:
        group = full
        for pid in mask_bits(mask):
            group &= columns[pid]
            if not group:
                break
        out |= group
        if out == full:
            break
    return out


class AdmissionSpec:
    """One pattern's conjunctive Section 4.5 filter, as bank predicate
    masks: an event is admitted iff *some variable's* constant
    predicates all hold, and a variable without constant conditions
    admits everything.

    Built over a private bank it is a plan's own prefilter
    (:class:`~repro.plan.prefilter.VectorizedPrefilter`); built over
    the registry's shared bank it is the same decision read off the
    truth vector every registered pattern shares.
    """

    __slots__ = ("pids", "group_masks", "always")

    def __init__(self, bank: PredicateBank, pattern):
        pids: List[int] = []
        group_masks: List[int] = []
        always = False
        for variable in sorted(pattern.variables):
            mask = 0
            for condition in pattern.constant_conditions(variable):
                pid = bank.intern(condition)
                pids.append(pid)
                mask |= 1 << pid
            if not mask:
                always = True
                break
            group_masks.append(mask)
        #: Interned predicate ids (with multiplicity) — released on
        #: deregistration.
        self.pids: Tuple[int, ...] = tuple(pids)
        #: Per-variable AND-masks; admission = OR over the groups.
        self.group_masks: Tuple[int, ...] = tuple(group_masks)
        #: True iff every event is admitted (some variable unconstrained).
        self.always = always or not group_masks

    def admitted(self, truth: int) -> bool:
        """Scalar admission decision from a bank truth vector."""
        return self.always or any_group(self.group_masks, truth)

    def admitted_mask(self, columns: List[int], full: int) -> int:
        """Columnar admission mask over a batch (bit ``i`` = event ``i``)."""
        if self.always:
            return full
        return any_group_mask(self.group_masks, columns, full)

    def release(self, bank: PredicateBank) -> None:
        for pid in self.pids:
            bank.release(pid)

    def __repr__(self) -> str:
        state = "always" if self.always else f"{len(self.group_masks)} groups"
        return f"AdmissionSpec({state}, {len(self.pids)} predicates)"
