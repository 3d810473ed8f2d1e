"""Flight recorder: a fixed-size ring buffer over recent execution steps.

A crashed worker or a degrading long-running matcher leaves no evidence
unless someone was tracing — and full tracing is far too expensive to
leave on in production.  :class:`FlightRecorder` is the middle ground:
a preallocated ring buffer that keeps only the *tail* of execution —
the most recent :class:`~repro.automaton.trace.TraceStep`-shaped records
(``start`` / ``transition`` / ``drop`` / ``expire`` / ``accept`` /
``flush``, the Algorithm 1 vocabulary), a bounded timeline of ``|Ω|``
samples, and the fingerprints of the plans that ran — at O(1) append
cost and fixed memory.

What the ring does **not** hold is ``skip``: "this event left that
resting instance alone" is Figure 6's line, one per instance per
admitted event, and belongs to the full
:class:`~repro.automaton.trace.Tracer`.  Recorded here it filled two
thirds of a served dump with noise (the tail reached back four admitted
events) and forced the executor to visit every instance on every event
just to say nothing happened to it; without it the recorder rides the
executor's indexed path and a dump is what *did* happen.

It plugs into the executor through the same hook as the full tracer
(``SESExecutor(..., flight=recorder)``), so attaching it adds **no new
branches** to the hot path.  Records are stored as compact tuples and
only rendered to dicts at dump time.

The dump surfaces in three ways:

* a worker crash — ``repro.parallel`` workers run their own recorder
  and pickle the tail back to the parent, which attaches it to the
  raised :class:`~repro.parallel.errors.WorkerCrashed` as
  ``flight_dump``;
* an unhandled exception in :meth:`SESExecutor.run` — the dump is
  attached to the escaping exception as ``flight_dump``;
* on demand — ``SIGUSR2`` (see :func:`install_flight_signal_handler`)
  or the ``/debug/flight`` route of :class:`repro.obs.live.ObsServer`.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from typing import List, Optional

__all__ = ["FlightRecorder", "install_flight_signal_handler"]

#: Default ring capacities: step records and |Ω| samples kept.
DEFAULT_CAPACITY = 512
DEFAULT_OMEGA_CAPACITY = 256

#: Positional layout of one step tuple (kept in sync with record()).
_FIELDS = ("seq", "kind", "ts", "event", "state", "variable", "born")


class FlightRecorder:
    """Bounded, preallocated recorder of recent execution steps.

    Implements the :class:`~repro.automaton.trace.Tracer` recording
    interface (:meth:`record`), so it attaches anywhere a tracer does;
    unlike the tracer it never grows — the oldest records are
    overwritten once ``capacity`` is reached, so what remains is always
    the tail of execution leading up to now.

    Parameters
    ----------
    capacity:
        Step records retained (ring size).
    omega_capacity:
        ``(ts, |Ω|)`` samples retained (separate ring, so a burst of
        step records cannot evict the population timeline).

    Thread-safety: appends are single-writer (one executor); dumps from
    another thread (HTTP endpoint, signal handler) take an internal lock
    only while copying the ring out.
    """

    __slots__ = ("capacity", "omega_capacity", "_steps", "_next", "_seq",
                 "_omega", "_omega_next", "_omega_seq", "_plans", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 omega_capacity: int = DEFAULT_OMEGA_CAPACITY):
        if capacity < 1 or omega_capacity < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self.capacity = capacity
        self.omega_capacity = omega_capacity
        self._steps: List[Optional[tuple]] = [None] * capacity
        self._next = 0
        self._seq = 0
        self._omega: List[Optional[tuple]] = [None] * omega_capacity
        self._omega_next = 0
        self._omega_seq = 0
        self._plans: List[str] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record(self, kind: str, event, instance,
               transition=None, successor=None) -> None:
        """Append one step record (Tracer-compatible signature), O(1)."""
        buffer = instance.buffer
        self._steps[self._next] = (
            self._seq, kind,
            None if event is None else event.ts,
            None if event is None else event.eid,
            instance.state,
            None if transition is None else repr(transition.variable),
            buffer.min_ts,
        )
        self._seq += 1
        self._next = (self._next + 1) % self.capacity

    def sample_omega(self, ts, size: int) -> None:
        """Append one ``(ts, |Ω|)`` sample to the population ring, O(1)."""
        self._omega[self._omega_next] = (ts, size)
        self._omega_seq += 1
        self._omega_next = (self._omega_next + 1) % self.omega_capacity

    def note_crash(self, event, message: str) -> None:
        """Append a synthetic ``crash`` record naming the event under
        processing when an exception escaped.

        Called by the crash hooks (executor ``run()``, pool and shard
        workers), never from the hot path, so the dump's **last** step
        points at the poisoned input rather than at whatever happened to
        execute just before it.
        """
        self._steps[self._next] = (
            self._seq, "crash",
            None if event is None else event.ts,
            None if event is None else event.eid,
            None, message, None)
        self._seq += 1
        self._next = (self._next + 1) % self.capacity

    def note_plan(self, fingerprint: str) -> None:
        """Remember a plan fingerprint that executed under this recorder."""
        if fingerprint not in self._plans:
            self._plans.append(fingerprint)

    def clear(self) -> None:
        """Drop everything recorded so far (capacity is kept)."""
        with self._lock:
            self._steps = [None] * self.capacity
            self._next = 0
            self._seq = 0
            self._omega = [None] * self.omega_capacity
            self._omega_next = 0
            self._omega_seq = 0
            self._plans = []

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Step records currently retained (≤ capacity)."""
        return min(self._seq, self.capacity)

    @property
    def recorded(self) -> int:
        """Total step records ever appended (including overwritten)."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Step records lost to ring overwrites."""
        return max(0, self._seq - self.capacity)

    def _tail_tuples(self) -> List[tuple]:
        with self._lock:
            if self._seq <= self.capacity:
                return [s for s in self._steps[:self._next]]
            return ([s for s in self._steps[self._next:]]
                    + [s for s in self._steps[:self._next]])

    def _omega_tuples(self) -> List[tuple]:
        with self._lock:
            if self._omega_seq <= self.omega_capacity:
                return [s for s in self._omega[:self._omega_next]]
            return ([s for s in self._omega[self._omega_next:]]
                    + [s for s in self._omega[:self._omega_next]])

    def tail(self, n: Optional[int] = None) -> List[dict]:
        """The retained step records, oldest first, as plain dicts.

        States are rendered with
        :func:`~repro.automaton.states.state_label` at export time so
        the hot path never pays for formatting.
        """
        from ..automaton.states import state_label
        tuples = self._tail_tuples()
        if n is not None:
            tuples = tuples[-n:]
        out = []
        for seq, kind, ts, eid, state, variable, born in tuples:
            record = {"seq": seq, "kind": kind, "ts": ts, "event": eid}
            if kind == "crash":
                # Synthetic note_crash record: the variable slot carries
                # the failure message, and there is no instance state.
                record["error"] = variable
            else:
                record["state"] = state_label(state)
                if variable is not None:
                    record["variable"] = variable
                if born is not None:
                    record["born"] = born
            out.append(record)
        return out

    def dump(self) -> dict:
        """The full JSON-ready dump: meta, |Ω| timeline, step tail."""
        return {
            "meta": {
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self.dropped,
                "plans": list(self._plans),
            },
            "omega": [list(sample) for sample in self._omega_tuples()],
            "steps": self.tail(),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The dump as a JSON document (timestamps via ``str`` fallback)."""
        return json.dumps(self.dump(), indent=indent, default=str)

    def write(self, path) -> None:
        """Write :meth:`to_json` to ``path``."""
        from pathlib import Path
        Path(path).write_text(self.to_json(indent=2) + "\n", encoding="utf-8")

    def __repr__(self) -> str:
        return (f"FlightRecorder({len(self)}/{self.capacity} steps, "
                f"{self.dropped} dropped)")


def install_flight_signal_handler(recorder: FlightRecorder, signum=None,
                                  path=None, stream=None):
    """Dump ``recorder`` whenever ``signum`` (default ``SIGUSR2``) fires.

    The dump goes to ``path`` (a file, overwritten per signal) when
    given, otherwise to ``stream`` (default ``sys.stderr``).  Returns
    the installed handler, or ``None`` on platforms without the signal
    (Windows has no ``SIGUSR2``).  Must be called from the main thread
    (CPython restricts ``signal.signal`` to it).
    """
    if signum is None:
        signum = getattr(signal, "SIGUSR2", None)
        if signum is None:  # pragma: no cover - Windows
            return None

    def _dump_flight(signo, frame):
        if path is not None:
            recorder.write(path)
        else:
            out = stream if stream is not None else sys.stderr
            out.write(recorder.to_json(indent=2) + "\n")
            out.flush()

    signal.signal(signum, _dump_flight)
    return _dump_flight
