"""Automaton instances (Definition 4).

An automaton instance ``Ñ = (qc, β)`` describes a SES automaton during
execution: the state it currently occupies and the match buffer β that
collects variable bindings.  Instances are immutable; consuming an event
produces new instances.
"""

from __future__ import annotations

from ..core.events import Event
from ..core.variables import Variable
from .buffer import EMPTY_BUFFER, MatchBuffer
from .states import State, state_label

__all__ = ["AutomatonInstance"]


class AutomatonInstance:
    """An automaton instance ``Ñ = (qc, β)``.

    The buffer's ``min_ts`` (timestamp of the earliest buffered event)
    makes the expiry check of Algorithm 1 (line 7) O(1) per instance.
    """

    __slots__ = ("state", "buffer", "key")

    def __init__(self, state: State, buffer: MatchBuffer = EMPTY_BUFFER):
        self.state = state
        self.buffer = buffer
        #: The join value an executor filed the instance under, while it
        #: rests in an indexed state (executor bookkeeping, not part of Ñ).
        self.key = None

    def advance(self, target: State, variable: Variable,
                event: Event) -> "AutomatonInstance":
        """Return the successor instance after binding ``variable/event``."""
        return AutomatonInstance(target, self.buffer.extend(variable, event))

    def expired(self, event: Event, tau) -> bool:
        """Expiry check of Algorithm 1: does ``event`` overrun the window?

        An instance with an empty buffer never expires.  Events arrive in
        chronological order, so the maximal span between ``event`` and any
        buffered event is ``event.ts - min_ts``.
        """
        min_ts = self.buffer.min_ts
        if min_ts is None:
            return False
        return event.ts - min_ts > tau

    def __repr__(self) -> str:
        return f"Ñ(qc={state_label(self.state)}, β={self.buffer!r})"
