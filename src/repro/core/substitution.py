"""Substitutions: bindings of event variables to events (Section 3.2).

A substitution ``γ = {v1/e1, ..., vn/en}`` is a finite set of bindings.  It
contains exactly one binding per singleton variable and one or more bindings
per group variable.  A substitution with several bindings for a group
variable *decomposes* into single-binding substitutions, one per combination
of bindings; instantiating Θ evaluates every condition against every
decomposed combination.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from .conditions import Condition
from .events import Event
from .pattern import SESPattern
from .variables import Variable

__all__ = ["Binding", "Substitution"]

#: A single binding ``v/e``.
Binding = Tuple[Variable, Event]


def _chronological_group(variable: Variable,
                         events: Tuple[Event, ...]) -> bool:
    """True iff ``events`` may all be bound to ``variable`` and already
    stand in the order a substitution keeps them in."""
    return (bool(events) and variable.is_group
            and all(a.ts <= b.ts for a, b in zip(events, events[1:])))


class Substitution:
    """An immutable set of bindings ``{v1/e1, ..., vn/en}``.

    Construct from an iterable of ``(variable, event)`` pairs, or use
    :meth:`extend` to derive a new substitution with one more binding.
    """

    __slots__ = ("_bindings", "_by_var", "_hash")

    def __init__(self, bindings: Iterable[Binding] = ()):
        pairs = []
        by_var: Dict[Variable, List[Event]] = {}
        seen = set()
        for variable, event in bindings:
            key = (variable, event)
            if key in seen:
                continue
            seen.add(key)
            pairs.append(key)
            by_var.setdefault(variable, []).append(event)
        for variable, events in by_var.items():
            if variable.is_singleton and len(events) > 1:
                raise ValueError(
                    f"singleton variable {variable!r} bound to "
                    f"{len(events)} events"
                )
            events.sort(key=lambda e: e.ts)
        self._bindings: FrozenSet[Binding] = frozenset(pairs)
        self._by_var: Dict[Variable, Tuple[Event, ...]] = {
            v: tuple(es) for v, es in by_var.items()
        }
        self._hash = hash(self._bindings)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_chronological(cls, by_var: Mapping[Variable, Tuple[Event, ...]]
                           ) -> "Substitution":
        """Adopt per-variable event tuples that are already what the
        constructor would produce — distinct and chronological, as a
        match buffer collects them — without regrouping, re-validating
        and re-sorting them.

        Equal to ``Substitution(pairs)`` over the same bindings: tuples
        that do repeat an event, run backwards in time or bind several
        events to a singleton variable go through the constructor.
        ``by_var`` is kept, not copied — the caller must not change it.
        """
        pairs = [(v, e) for v, events in by_var.items() for e in events]
        bindings = frozenset(pairs)
        if len(bindings) != len(pairs) or not all(
                len(events) == 1 or _chronological_group(variable, events)
                for variable, events in by_var.items()):
            return cls(pairs)
        self = object.__new__(cls)
        self._bindings = bindings
        self._by_var = by_var
        self._hash = hash(bindings)
        return self

    def extend(self, variable: Variable, event: Event) -> "Substitution":
        """Return a new substitution with the binding ``variable/event`` added."""
        return Substitution(list(self._bindings) + [(variable, event)])

    @classmethod
    def from_mapping(cls, mapping: Mapping[Variable, Iterable[Event]]
                     ) -> "Substitution":
        """Build from ``{variable: [events...]}``."""
        pairs: List[Binding] = []
        for variable, events in mapping.items():
            if isinstance(events, Event):
                events = [events]
            for e in events:
                pairs.append((variable, e))
        return cls(pairs)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def bindings(self) -> FrozenSet[Binding]:
        """The bindings as a frozen set of ``(variable, event)`` pairs."""
        return self._bindings

    @property
    def variables(self) -> FrozenSet[Variable]:
        """The bound variables."""
        return frozenset(self._by_var)

    def events_of(self, variable: Variable) -> Tuple[Event, ...]:
        """Events bound to ``variable`` in chronological order (may be empty)."""
        return self._by_var.get(variable, ())

    def events(self) -> Tuple[Event, ...]:
        """All bound events in chronological order (with duplicates removed)."""
        uniq = {e for _, e in self._bindings}
        return tuple(sorted(uniq, key=lambda e: e.ts))

    def __len__(self) -> int:
        return len(self._bindings)

    def __bool__(self) -> bool:
        return bool(self._bindings)

    def __contains__(self, binding: Binding) -> bool:
        return binding in self._bindings

    def __iter__(self) -> Iterator[Binding]:
        """The bindings in canonical order: by event timestamp, then
        variable name, then event id."""
        return iter(sorted(self._bindings,
                           key=lambda b: (b[1].ts, b[0].name, b[1].eid or "")))

    # ------------------------------------------------------------------
    # Temporal structure
    # ------------------------------------------------------------------
    def min_ts(self):
        """Timestamp of the chronologically first bound event (``minT``)."""
        if not self._bindings:
            raise ValueError("empty substitution has no minimal timestamp")
        return min(e.ts for _, e in self._bindings)

    def max_ts(self):
        """Timestamp of the chronologically last bound event."""
        if not self._bindings:
            raise ValueError("empty substitution has no maximal timestamp")
        return max(e.ts for _, e in self._bindings)

    def span(self):
        """Duration between the first and the last bound event."""
        return self.max_ts() - self.min_ts()

    def min_binding(self) -> Binding:
        """The binding with the earliest event (``minT(γ)`` of the paper)."""
        if not self._bindings:
            raise ValueError("empty substitution has no minimal binding")
        return min(self._bindings,
                   key=lambda b: (b[1].ts, b[0].name, b[1].eid or ""))

    # ------------------------------------------------------------------
    # Decomposition and instantiation (Section 3.2)
    # ------------------------------------------------------------------
    def decompose(self) -> Iterator["Substitution"]:
        """Yield single-binding-per-variable substitutions.

        A substitution with multiple bindings for group variables
        decomposes into one substitution per combination of bindings with
        distinct event variables.
        """
        variables = sorted(self._by_var, key=lambda v: v.name)
        choices = [self._by_var[v] for v in variables]
        for combo in itertools.product(*choices):
            yield Substitution(zip(variables, combo))

    def satisfies(self, conditions: Iterable[Condition]) -> bool:
        """True iff every condition holds on every decomposed combination.

        This is the instantiation ``Θγ`` of the paper: each condition is
        replaced by one instance per decomposed substitution, and all
        instances must be satisfied.  Only conditions whose variables are
        all bound are checked (partial substitutions arise during search);
        use :meth:`is_total_for` to confirm completeness.
        """
        conditions = list(conditions)
        for condition in conditions:
            involved = sorted(condition.variables, key=lambda v: v.name)
            if any(v not in self._by_var for v in involved):
                continue
            pools = [self._by_var[v] for v in involved]
            for combo in itertools.product(*pools):
                assignment = dict(zip(involved, combo))
                if not condition.evaluate(assignment):
                    return False
        return True

    def is_total_for(self, pattern: SESPattern) -> bool:
        """True iff every variable of ``pattern`` has at least one binding."""
        return all(v in self._by_var for v in pattern.variables)

    # ------------------------------------------------------------------
    # Set relations (used by Definition 2, condition 5)
    # ------------------------------------------------------------------
    def issubset(self, other: "Substitution") -> bool:
        """True iff every binding of ``self`` is also in ``other``."""
        return self._bindings <= other._bindings

    def __le__(self, other: "Substitution") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Substitution") -> bool:
        return self._bindings < other._bindings

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substitution):
            return NotImplemented
        return self._bindings == other._bindings

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{variable!r}/{event.eid if event.eid else repr(event)}"
            for variable, event in self
        )
        return "{" + parts + "}"
