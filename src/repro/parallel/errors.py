"""Errors raised by the parallel execution layer."""

from __future__ import annotations

from typing import List, Optional

__all__ = ["WorkerCrashed"]


class WorkerCrashed(RuntimeError):
    """A worker process died instead of returning a result.

    Raised by :class:`~repro.parallel.pool.ParallelPartitionedMatcher`
    and :class:`~repro.parallel.sharded.ShardedStreamMatcher` when a
    worker exits abnormally (killed, unhandled low-level crash, lost
    pipe).  The parent cleans up the remaining workers before raising,
    so callers never hang on a dead pool.

    ``flight_dump`` carries the crashing worker's flight-recorder dump
    (see :class:`repro.obs.flight.FlightRecorder`) — the tail of
    execution steps and |Ω| samples leading up to the failure — when the
    worker got the chance to capture one; it is ``None`` for hard
    crashes (``SIGKILL``, ``os._exit``) where no evidence survives.

    ``partial_matches`` carries the matches the sharded matcher had
    read but not yet returned when the crash cut short its ``push``,
    ``flush`` or ``close`` — work that was complete and correct,
    attached instead of discarded (the matcher keeps no other copy).
    """

    def __init__(self, message: str, flight_dump: Optional[dict] = None,
                 partial_matches: Optional[List] = None):
        super().__init__(message)
        self.flight_dump = flight_dump
        self.partial_matches = list(partial_matches or [])

    def __reduce__(self):
        # Default exception pickling only keeps args; the dump and the
        # partial results must survive the trip from a pool worker back
        # to the parent.
        return (
            type(self),
            (self.args[0] if self.args else "", self.flight_dump,
             self.partial_matches),
        )
