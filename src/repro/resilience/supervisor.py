"""Shard supervision: restart, replay, quarantine.

A :class:`Supervisor` turns :class:`~repro.parallel.sharded.
ShardedStreamMatcher`'s crash *detection* (end-of-file on the shard's
result pipe) into crash *recovery*:

1. a dead shard is respawned with exponential backoff + deterministic
   jitter, under a bounded per-shard restart budget;
2. the replacement worker is seeded with the shard's last checkpoint
   (see :mod:`repro.resilience.checkpoint`) and the parent replays the
   write-ahead log of events routed since that checkpoint — execution
   is deterministic in the event sequence, so the worker reconstructs
   the exact pre-crash state;
3. matches are delivered **exactly once**: every match message carries
   the sequence number of the event that produced it, and the parent
   drops replayed matches at or below the shard's high-water mark;
4. an event that crashes its worker ``quarantine_after`` times is
   *poison*: it is removed from the replay log, parked in the
   :class:`~repro.resilience.quarantine.DeadLetterQueue` with the crash
   evidence, and the shard continues without it.

The supervisor binds to exactly one matcher
(``ShardedStreamMatcher(..., supervisor=Supervisor(...))``) and the
matcher calls :meth:`Supervisor.on_crash` from the one place it reads
a shard's end-of-file — no background thread, so supervision adds zero
overhead until something actually dies.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..parallel.codec import decode_event
from ..parallel.errors import WorkerCrashed
from .checkpoint import EventLog, ShardCheckpoint
from .quarantine import DeadLetterQueue, QuarantinedEvent

__all__ = ["RestartPolicy", "Supervisor", "ShardRuntime"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RestartPolicy:
    """Exponential backoff with bounded budget and deterministic jitter.

    ``delay(shard, attempt)`` for attempt ``n`` (1-based) is
    ``min(backoff * multiplier**(n-1), max_backoff)`` scaled by a jitter
    factor drawn from a PRNG seeded with ``(seed, shard, attempt)`` —
    fully reproducible for a fixed seed, yet de-synchronised across
    shards so a correlated failure does not respawn every worker in
    lockstep.
    """

    #: Restarts allowed per shard before the matcher gives up.
    max_restarts: int = 5
    #: First backoff delay, seconds.
    backoff: float = 0.05
    #: Backoff growth factor per successive restart.
    multiplier: float = 2.0
    #: Backoff ceiling, seconds.
    max_backoff: float = 2.0
    #: Jitter amplitude as a fraction of the delay (0 disables).
    jitter: float = 0.1
    #: Jitter seed (also reachable via ``FaultPlan.seed`` in chaos runs).
    seed: int = 0

    def __post_init__(self):
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.backoff < 0 or self.max_backoff < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be in [0, 1]")

    def delay(self, shard: int, attempt: int) -> float:
        """Backoff before restart ``attempt`` (1-based) of ``shard``."""
        base = min(self.backoff * (self.multiplier ** (attempt - 1)),
                   self.max_backoff)
        if not self.jitter or not base:
            return base
        # Composed int seed (tuple seeding was removed in Python 3.11).
        rng = random.Random(self.seed * 1_000_003 + shard * 8_191 + attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


class ShardRuntime:
    """Per-worker resilience config, pickled into the worker process.

    ``seq_value`` is a lock-free shared integer the worker stamps with
    the sequence number it is *about to* process — the parent reads it
    after a hard kill (``os._exit``/``SIGKILL``), where no error report
    identifies the in-flight event.
    """

    __slots__ = ("checkpoint_every", "start_seq", "state", "seq_value",
                 "faults", "guard")

    def __init__(self, checkpoint_every: int = 0, start_seq: int = 0,
                 state: Optional[bytes] = None, seq_value=None,
                 faults=(), guard=None):
        self.checkpoint_every = checkpoint_every
        self.start_seq = start_seq
        self.state = state
        self.seq_value = seq_value
        self.faults = list(faults)
        self.guard = guard

    def __getstate__(self):
        return {slot: getattr(self, slot) for slot in self.__slots__}

    def __setstate__(self, state):
        for slot, value in state.items():
            setattr(self, slot, value)


class _ShardState:
    """Parent-side recovery state for one shard."""

    __slots__ = ("wal", "checkpoint", "restarts", "crash_counts",
                 "quarantined", "delivered_seq", "generation")

    def __init__(self):
        self.wal = EventLog()
        self.checkpoint: Optional[ShardCheckpoint] = None
        self.restarts = 0
        self.crash_counts: Dict[int, int] = {}
        self.quarantined: Set[int] = set()
        self.delivered_seq = 0
        self.generation = 0


class Supervisor:
    """Restart/replay/quarantine policy for one sharded stream matcher.

    Parameters
    ----------
    restart:
        The :class:`RestartPolicy` (default: 5 restarts per shard,
        50 ms initial backoff doubling to 2 s, 10 % jitter).
    checkpoint_every:
        Workers checkpoint their matcher state every this many
        processed events (the WAL replay on recovery is at most this
        long, plus events routed since the last checkpoint arrived).
    quarantine_after:
        Crashes attributed to the *same event* before it is declared
        poison and dead-lettered.  The default 2 means: crash once,
        restart, crash again on replay of the same event → quarantine.
    dead_letter:
        The :class:`~repro.resilience.quarantine.DeadLetterQueue` to
        park poison events in (one is created when omitted).
    faults:
        Optional :class:`~repro.resilience.chaos.FaultPlan` adopted by
        the bound matcher (chaos testing).
    """

    def __init__(self, restart: Optional[RestartPolicy] = None,
                 checkpoint_every: int = 64, quarantine_after: int = 2,
                 dead_letter: Optional[DeadLetterQueue] = None,
                 faults=None):
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        self.restart = restart if restart is not None else RestartPolicy()
        self.checkpoint_every = checkpoint_every
        self.quarantine_after = quarantine_after
        self.dead_letter = (dead_letter if dead_letter is not None
                            else DeadLetterQueue())
        self.faults = faults
        self.restarts_total = 0
        self.quarantined_total = 0
        self.backoff_seconds_total = 0.0
        self.failed = False
        self._matcher = None
        self._shards: Dict[int, _ShardState] = {}

    # ------------------------------------------------------------------
    # Binding (called by ShardedStreamMatcher.__init__)
    # ------------------------------------------------------------------
    def bind(self, matcher) -> None:
        if self._matcher is not None:
            raise RuntimeError("a Supervisor supervises exactly one matcher")
        self._matcher = matcher
        self._shards = {shard: _ShardState()
                        for shard in range(matcher.n_shards)}

    # ------------------------------------------------------------------
    # Bookkeeping hooks (called from the matcher's hot paths)
    # ------------------------------------------------------------------
    def record_event(self, shard: int, seq: int, wire) -> None:
        """Log a routed event before it is enqueued (write-ahead)."""
        self._shards[shard].wal.append(seq, wire)

    def record_checkpoint(self, shard: int, seq: int,
                          payload: bytes) -> None:
        """Adopt a worker checkpoint; the WAL is trimmed through it."""
        state = self._shards[shard]
        state.checkpoint = ShardCheckpoint(seq, payload)
        state.wal.trim_through(seq)

    def should_deliver(self, shard: int, seq: int) -> bool:
        """Exactly-once filter for match messages (replay dedup)."""
        state = self._shards[shard]
        if seq <= state.delivered_seq:
            return False
        state.delivered_seq = seq
        return True

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def on_crash(self, shard: int, reason: Optional[str] = None,
                 dump: Optional[dict] = None,
                 seq: Optional[int] = None) -> None:
        """Recover one dead shard: quarantine, respawn, replay.

        Raises :class:`~repro.parallel.errors.WorkerCrashed` when the
        shard's restart budget is exhausted (the matcher is stopped
        first, so no worker outlives the failure).
        """
        matcher = self._matcher
        state = self._shards[shard]
        process = matcher._processes[shard]
        process.join(timeout=5.0)
        if seq is None:
            value = matcher._seq_values[shard]
            seq = int(value.value) if value is not None else 0
        if reason is None:
            reason = f"worker died (exit code {process.exitcode})"
        logger.warning("shard %d crashed at seq %d: %s", shard, seq, reason)

        if seq:
            count = state.crash_counts.get(seq, 0) + 1
            state.crash_counts[seq] = count
            if (count >= self.quarantine_after
                    and seq not in state.quarantined):
                self._quarantine(shard, seq, reason, dump, count)

        if state.restarts >= self.restart.max_restarts:
            self.failed = True
            matcher.stop()
            raise WorkerCrashed(
                f"stream shard {shard} exhausted its restart budget "
                f"({self.restart.max_restarts}): {reason}",
                flight_dump=dump)
        state.restarts += 1
        self.restarts_total += 1
        delay = self.restart.delay(shard, state.restarts)
        self.backoff_seconds_total += delay
        self._publish_restart(matcher, delay)
        if delay:
            time.sleep(delay)

        # A kill fault fires once: strip the one that just fired (its
        # trigger seq is the crash attribution) so the replay gets past
        # it.  Faults that did not cause this crash stay armed.
        faults = matcher._shard_faults.get(shard)
        if faults:
            for index, fault in enumerate(faults):
                if fault[1] == "kill" and fault[0] == seq:
                    del faults[index]
                    break

        state.generation += 1
        generation = state.generation
        start_seq = state.checkpoint.seq if state.checkpoint else 0
        payload = state.checkpoint.payload if state.checkpoint else None
        matcher._respawn(shard, state=payload, start_seq=start_seq)
        logger.info(
            "shard %d restarted (attempt %d/%d): checkpoint seq %d, "
            "replaying %d event(s)", shard, state.restarts,
            self.restart.max_restarts, start_seq,
            len(state.wal.entries_after(start_seq)))

        # Replay the WAL on top of the checkpoint.  A crash during
        # replay recurses into on_crash (puts read the pipes while the
        # queue is full), which replays the tail itself — the
        # generation counter tells this frame to stand down.
        for entry_seq, wire in state.wal.entries_after(start_seq):
            if entry_seq in state.quarantined:
                continue
            matcher._put(shard, ("e", entry_seq, wire))
            if state.generation != generation:
                return
        # Re-issue an in-progress barrier the dead worker never acked.
        if shard in matcher._barrier_pending:
            if matcher._barrier == "flush":
                matcher._put(shard, ("flush", matcher._flush_seq))
            elif matcher._barrier == "close":
                matcher._put(shard, ("close",))

    def _quarantine(self, shard: int, seq: int, reason: str,
                    dump: Optional[dict], count: int) -> None:
        state = self._shards[shard]
        wire = state.wal.find(seq)
        event = decode_event(wire) if wire is not None else None
        entry = QuarantinedEvent(shard, seq, event, reason,
                                 flight_dump=dump, crashes=count)
        self.dead_letter.add(entry)
        state.quarantined.add(seq)
        self.quarantined_total += 1
        matcher = self._matcher
        if matcher.obs is not None:
            matcher.obs.registry.counter(
                "ses_quarantined_events",
                help="poison events routed to the dead-letter queue",
            ).inc()
            lineage = matcher.obs.lineage
            if lineage is not None and event is not None:
                # Quarantined events are tail-sampled unconditionally:
                # the lineage record survives even at sample rate 0.
                lineage.note_quarantined(event, shard=shard, seq=seq,
                                         reason=reason)
        logger.error(
            "shard %d: event seq %d quarantined after %d crash(es): %s",
            shard, seq, count, reason)

    def _publish_restart(self, matcher, delay: float) -> None:
        if matcher.obs is None:
            return
        registry = matcher.obs.registry
        registry.counter(
            "ses_restarts_total",
            help="supervised shard worker restarts").inc()
        registry.counter(
            "ses_restart_backoff_seconds",
            help="cumulative restart backoff delay").inc(delay)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once any shard has restarted or quarantined an event."""
        return self.restarts_total > 0 or self.quarantined_total > 0

    def restarts_of(self, shard: int) -> int:
        return self._shards[shard].restarts

    def report(self) -> dict:
        """Supervision summary for the ``/healthz`` payload."""
        return {
            "restarts_total": self.restarts_total,
            "quarantined_events": self.quarantined_total,
            "backoff_seconds_total": round(self.backoff_seconds_total, 6),
            "restart_budget": self.restart.max_restarts,
            "failed": self.failed,
            "shards": {shard: {"restarts": st.restarts,
                               "checkpoint_seq": (st.checkpoint.seq
                                                  if st.checkpoint else 0),
                               "wal_depth": len(st.wal),
                               "quarantined": sorted(st.quarantined)}
                       for shard, st in self._shards.items()},
        }

    def __repr__(self) -> str:
        return (f"Supervisor(restarts={self.restarts_total}, "
                f"quarantined={self.quarantined_total}, "
                f"failed={self.failed})")
