"""Automaton instances (Definition 4).

An automaton instance ``Ñ = (qc, β)`` describes a SES automaton during
execution: the state it currently occupies and the match buffer β that
collects variable bindings.  Instances are immutable; consuming an event
produces new instances.
"""

from __future__ import annotations

from operator import attrgetter

from .buffer import MatchBuffer
from .states import State, state_label

__all__ = ["AutomatonInstance"]


class AutomatonInstance:
    """An automaton instance ``Ñ = (qc, β)``.

    The buffer's ``min_ts`` (timestamp of the earliest buffered event)
    makes the expiry check of Algorithm 1 (line 7) O(1) per instance:
    ``event.ts - min_ts > τ``.
    """

    __slots__ = ("state", "buffer", "key")

    #: Members of Ω the instance stands for — one; an executor's run of
    #: several says how many (a step recorder counts steps by it).
    count = 1
    #: When the instance started: its buffer's earliest timestamp (a run
    #: of several gives its members' starts).
    born = property(attrgetter("buffer.min_ts"))

    def __init__(self, state: State, buffer: MatchBuffer):
        self.state = state
        self.buffer = buffer
        #: The join value an executor filed the instance under, while it
        #: rests in an indexed state (executor bookkeeping, not part of Ñ).
        self.key = None

    def __repr__(self) -> str:
        return f"Ñ(qc={state_label(self.state)}, β={self.buffer!r})"
