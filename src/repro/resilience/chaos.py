"""Deterministic fault injection for the sharded streaming runtime.

A :class:`FaultPlan` is an immutable, picklable schedule of faults keyed
by ``(shard, seq)`` — the per-shard 1-based sequence number the parent
stamps on every routed event.  Because shard routing and sequence
numbering are deterministic for a fixed input and worker count, a plan
reproduces the *same* crash at the *same* event on every run, which is
what lets ``tests/test_resilience.py`` assert exact match-set
equivalence between a faulted supervised run and a fault-free serial
run.

Three fault kinds:

``kill``
    Terminate the worker just before it processes the event — either a
    hard ``os._exit`` (no error report, no flight dump; the parent
    reads the death as end-of-file on the shard's pipe) or a raised
    :class:`InjectedFault` (the worker ships its error report and
    flight dump first).  The supervisor strips a kill fault once it has
    fired, so a restarted shard replays past the kill point.
``corrupt``
    Replace the event's attribute values (except the partition
    attribute, which the worker needs for routing) with a poison object
    whose comparison raises.  Corruption is re-applied deterministically
    on replay, so the same event crashes the restarted worker again —
    the double-crash signature that routes it to the dead-letter queue.
``delay``
    Sleep before processing the event (backpressure / slow-shard
    scenarios).
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

from ..core.events import Event

__all__ = ["FaultPlan", "FaultInjector", "InjectedFault"]

#: Exit code used by hard-kill faults (distinguishable from SIGKILL in
#: worker post-mortems).
KILL_EXIT_CODE = 23


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness."""


class _ChaosPoison:
    """Attribute value that detonates when a condition evaluates it."""

    __slots__ = ()

    def __eq__(self, other):
        raise InjectedFault("corrupted attribute value compared")

    def __ne__(self, other):
        raise InjectedFault("corrupted attribute value compared")

    def __lt__(self, other):
        raise InjectedFault("corrupted attribute value compared")

    def __gt__(self, other):
        raise InjectedFault("corrupted attribute value compared")

    def __hash__(self):
        return 0

    def __repr__(self):
        return "<poison>"


class FaultPlan:
    """An immutable schedule of injected faults.

    Build fluently — every method returns a new plan::

        plan = (FaultPlan(seed=7)
                .kill(0, at_seq=10)            # hard-kill shard 0
                .kill(1, at_seq=4, mode="raise")
                .corrupt(2, at_seq=5)          # poison event 5 of shard 2
                .delay(0, at_seq=20, seconds=0.1))

    ``seed`` feeds the supervisor's restart-backoff jitter so a chaos
    run is reproducible end to end.
    """

    __slots__ = ("seed", "_faults")

    def __init__(self, seed: int = 0, _faults: Tuple = ()):
        self.seed = seed
        self._faults = tuple(_faults)

    def _extend(self, fault) -> "FaultPlan":
        return FaultPlan(self.seed, self._faults + (fault,))

    def kill(self, shard: int, at_seq: int,
             mode: str = "exit") -> "FaultPlan":
        """Kill ``shard`` just before it processes event ``at_seq``."""
        if mode not in ("exit", "raise"):
            raise ValueError(f"unknown kill mode {mode!r}")
        return self._extend((shard, at_seq, "kill", mode))

    def corrupt(self, shard: int, at_seq: int) -> "FaultPlan":
        """Poison the attribute values of event ``at_seq`` on ``shard``."""
        return self._extend((shard, at_seq, "corrupt"))

    def delay(self, shard: int, at_seq: int,
              seconds: float) -> "FaultPlan":
        """Sleep ``seconds`` before processing event ``at_seq``."""
        if seconds < 0:
            raise ValueError("delay must be >= 0")
        return self._extend((shard, at_seq, "delay", seconds))

    def for_shard(self, shard: int) -> list:
        """The mutable per-shard fault list handed to one worker.

        Entries are ``(at_seq, kind, *params)`` tuples; the supervisor
        owns the parent-side copy and strips kill faults as they fire.
        """
        return [fault[1:] for fault in self._faults if fault[0] == shard]

    def __len__(self) -> int:
        return len(self._faults)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, {len(self._faults)} faults)"


class FaultInjector:
    """Worker-side executor of one shard's fault list.

    ``before(seq, event)`` is called once per dequeued event and returns
    the (possibly corrupted) event to process; kill faults never return.
    """

    __slots__ = ("_faults", "_spare_attribute")

    def __init__(self, faults, spare_attribute: Optional[str] = None):
        self._faults = list(faults)
        self._spare_attribute = spare_attribute

    def before(self, seq: int, event: Event) -> Event:
        for fault in self._faults:
            if fault[0] != seq:
                continue
            kind = fault[1]
            if kind == "kill":
                if fault[2] == "exit":
                    os._exit(KILL_EXIT_CODE)
                raise InjectedFault(
                    f"injected kill at seq {seq}")
            if kind == "delay":
                time.sleep(fault[2])
            elif kind == "corrupt":
                event = self._poison(event)
        return event

    def _poison(self, event: Event) -> Event:
        poison = _ChaosPoison()
        attrs = {name: (value if name == self._spare_attribute else poison)
                 for name, value in event.attributes.items()}
        return Event(ts=event.ts, attrs=attrs, eid=event.eid)

    def __repr__(self) -> str:
        return f"FaultInjector({len(self._faults)} faults)"
