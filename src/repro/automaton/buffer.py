"""Match buffers: the β of an automaton instance.

Functionally this is the substitution an instance has collected so far.
:class:`~repro.core.substitution.Substitution` is immutable and optimised
for set-algebraic queries; during execution we instead need a structure
that is cheap to *extend* (every fired transition copies the buffer).
:class:`MatchBuffer` stores a per-variable tuple of events and extends by
copying a handful of dict entries, converting to a full substitution only
when a buffer is accepted.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.events import Event
from ..core.substitution import Substitution
from ..core.variables import Variable

__all__ = ["MatchBuffer", "EMPTY_BUFFER"]


class MatchBuffer:
    """An append-only collection of variable bindings.

    Events are appended in consumption order, which is chronological, so
    per-variable tuples stay time-sorted without explicit sorting.
    """

    __slots__ = ("by_var", "min_ts", "max_ts", "size")

    def __init__(self, by_var: Optional[Dict[Variable, Tuple[Event, ...]]] = None,
                 min_ts=None, max_ts=None, size: int = 0):
        #: ``variable → its events``, chronological.  Read by the
        #: per-transition loop (:meth:`Transition.admits_bindings
        #: <repro.automaton.transitions.Transition.admits_bindings>`, the
        #: executor's successor construction); never changed once built.
        self.by_var = by_var if by_var is not None else {}
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.size = size

    def extend(self, variable: Variable, event: Event) -> "MatchBuffer":
        """Return a new buffer with ``variable/event`` appended."""
        by_var = dict(self.by_var)
        by_var[variable] = by_var.get(variable, ()) + (event,)
        min_ts = event.ts if self.min_ts is None else self.min_ts
        return MatchBuffer(by_var, min_ts, event.ts, self.size + 1)

    def events_of(self, variable: Variable) -> Tuple[Event, ...]:
        """Events bound to ``variable``, chronologically (may be empty)."""
        return self.by_var.get(variable, ())

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def to_substitution(self) -> Substitution:
        """Materialise as an immutable :class:`Substitution`.

        The per-variable tuples are handed over as they are: appended in
        consumption order they are already what the substitution would
        sort them into, and no buffer ever changes its dict.
        """
        return Substitution.from_chronological(self.by_var)

    def __repr__(self) -> str:
        parts = []
        for variable in sorted(self.by_var):
            for event in self.by_var[variable]:
                parts.append(f"{variable!r}/{event.eid or event.ts}")
        return "{" + ", ".join(parts) + "}"


#: A shared empty buffer for fresh start instances.
EMPTY_BUFFER = MatchBuffer()
