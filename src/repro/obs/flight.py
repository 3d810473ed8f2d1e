"""Flight recorder: a fixed-size ring buffer over recent execution steps.

A crashed worker or a degrading long-running matcher leaves no evidence
unless someone was tracing — and full tracing is far too expensive to
leave on in production.  :class:`FlightRecorder` is the middle ground:
a preallocated ring buffer that keeps only the *tail* of execution —
the most recent :class:`~repro.automaton.trace.TraceStep`-shaped records
(``start`` / ``transition`` / ``drop`` / ``expire`` / ``accept`` /
``flush``, the Algorithm 1 vocabulary), a bounded timeline of ``|Ω|``
samples, and the fingerprints of the plans that ran — at O(1)
amortised append cost and bounded memory.

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
branches** to the hot path.  A step is recorded by reference — the
event, the state and the transition as the executor holds them — and
only rendered (timestamp, event id, variable and state labels) at dump
time: recording is one tuple and one append.

Unlike the tracer, the one recorder that keeps the executor from
joining instances into runs (:mod:`repro.automaton.executor`), it rides
them: a run's step is recorded once, with the members' starts (a tuple
the run already holds), and counted as one step per member.  The dump
expands it into one record per member, each ``born`` at that member's
start, so it reads as if every instance had stepped alone — the same
records, one run's members side by side.

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
from collections import deque
from typing import List, Optional

__all__ = ["FlightRecorder", "install_flight_signal_handler"]

#: Default ring capacities: step records and |Ω| samples kept.
DEFAULT_CAPACITY = 512
DEFAULT_OMEGA_CAPACITY = 256


class FlightRecorder:
    """Bounded recorder of recent execution steps.

    Implements the :class:`~repro.automaton.trace.Tracer` recording
    interface (:meth:`record`), so it attaches anywhere a tracer does;
    unlike the tracer it never grows — the oldest record is let go once
    the newer ones hold ``capacity`` steps, so what remains is always
    the tail of execution leading up to now.

    Parameters
    ----------
    capacity:
        Steps retained (ring size), one per member of a run's step.
    omega_capacity:
        ``(ts, |Ω|)`` samples retained (separate ring, so a burst of
        step records cannot evict the population timeline).

    Thread-safety: appends are single-writer (one executor); dumps from
    another thread (HTTP endpoint, signal handler) take an internal lock
    only while copying the ring out.
    """

    __slots__ = ("capacity", "omega_capacity", "_steps", "_seq", "_omega",
                 "_plans", "_lock")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 omega_capacity: int = DEFAULT_OMEGA_CAPACITY):
        if capacity < 1 or omega_capacity < 1:
            raise ValueError("flight recorder capacities must be >= 1")
        self.capacity = capacity
        self.omega_capacity = omega_capacity
        #: ``(end, kind, event, state, transition, born)`` per step,
        #: ``end`` one past the step's last member's sequence number — a
        #: run's ``born`` is its members' starts, one number each; a
        #: ``crash`` note carries its message in the transition slot.
        #: Every record but the oldest holds fewer than ``capacity``
        #: member steps between them: the oldest is let go once the
        #: others fill a tail alone (and so the ring never holds more
        #: than ``capacity`` records).
        self._steps: deque = deque(maxlen=capacity)
        self._seq = 0
        self._omega: deque = deque(maxlen=omega_capacity)
        self._plans: List[str] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record(self, kind: str, event, instance,
               transition=None, successor=None) -> None:
        """Append one step record (Tracer-compatible signature), O(1)
        amortised: the step of every member of ``instance``, a run of
        ``instance.count`` of them.  Records no tail of ``capacity``
        member steps reads any more are let go."""
        self._seq = seq = self._seq + instance.count
        steps = self._steps
        steps.append((seq, kind, event, instance.state, transition,
                      instance.born))
        while seq - steps[0][0] >= self.capacity:
            del steps[0]

    def sample_omega(self, ts, size: int) -> None:
        """Append one ``(ts, |Ω|)`` sample to the population ring, O(1)."""
        self._omega.append((ts, size))

    def note_crash(self, event, message: str) -> None:
        """Append a synthetic ``crash`` record naming the event under
        processing when an exception escaped.

        Called by the crash hooks (executor ``run()``, pool and shard
        workers), never from the hot path, so the dump's **last** step
        points at the poisoned input rather than at whatever happened to
        execute just before it.
        """
        self._seq = seq = self._seq + 1
        steps = self._steps
        steps.append((seq, "crash", event, None, message, None))
        while seq - steps[0][0] >= self.capacity:
            del steps[0]

    def note_plan(self, fingerprint: str) -> None:
        """Remember a plan fingerprint that executed under this recorder."""
        if fingerprint not in self._plans:
            self._plans.append(fingerprint)

    def clear(self) -> None:
        """Drop everything recorded so far (capacity is kept)."""
        with self._lock:
            self._steps.clear()
            self._seq = 0
            self._omega.clear()
            self._plans = []

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Steps a dump shows (≤ capacity)."""
        return min(self._seq, self.capacity)

    @property
    def recorded(self) -> int:
        """Total steps ever recorded (including overwritten), one per
        member of a run."""
        return self._seq

    @property
    def dropped(self) -> int:
        """Steps lost to ring overwrites."""
        return max(0, self._seq - self.capacity)

    def tail(self, n: Optional[int] = None) -> List[dict]:
        """The last ``n`` steps (at most ``capacity``, all of them by
        default), oldest first, as plain dicts — one per member of a
        run's step.

        Everything a record shows is rendered here, from what the ring
        holds by reference — timestamps and ids off the event, the
        variable off the transition, states with
        :func:`~repro.automaton.states.state_label` — so the hot path
        never pays for formatting.
        """
        from ..automaton.states import state_label
        with self._lock:
            steps = list(self._steps)
        wanted = self.capacity if n is None else min(n, self.capacity)
        out: List[dict] = []
        for end, kind, event, state, transition, born in reversed(steps):
            if len(out) >= wanted:
                break
            if born.__class__ is tuple:  # a run: one step per member
                born = born[len(out) - wanted:]
                members = [*enumerate(born, end - len(born))][::-1]
            else:
                members = [(end - 1, born)]
            for seq, member_born in members:
                record = {"seq": seq, "kind": kind,
                          "ts": None if event is None else event.ts,
                          "event": None if event is None else event.eid}
                if kind == "crash":
                    record["error"] = transition
                else:
                    record["state"] = state_label(state)
                    if transition is not None:
                        record["variable"] = repr(transition.variable)
                    if member_born is not None:
                        record["born"] = member_born
                out.append(record)
        out.reverse()
        return out

    def dump(self) -> dict:
        """The full JSON-ready dump: meta, |Ω| timeline, step tail."""
        with self._lock:
            omega = list(self._omega)
        return {
            "meta": {
                "capacity": self.capacity,
                "recorded": self._seq,
                "dropped": self.dropped,
                "plans": list(self._plans),
            },
            "omega": [list(sample) for sample in omega],
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
