"""Sharded continuous matching: partition-parallel streaming.

:class:`ShardedStreamMatcher` is the streaming analogue of
:class:`~repro.parallel.pool.ParallelPartitionedMatcher`: events are
routed to ``N`` worker processes by ``hash(key) % N`` of the partition
attribute, each worker runs a
:class:`~repro.stream.partitioned.PartitionedContinuousMatcher` over its
share of the key space, and matches stream back to the parent.  Because
every partition key lives in exactly one shard and the pattern
equi-joins all variables on the attribute, the union of the shards'
matches equals the single-process partitioned matcher's matches for the
same input — see ``docs/parallel.md`` for the soundness argument and
ordering guarantees.

Operational properties:

* **bounded queues** — each shard has a bounded input queue, so a slow
  shard exerts backpressure on :meth:`ShardedStreamMatcher.push` instead
  of buffering without limit;
* **flush/close semantics** — :meth:`flush` is a barrier (every event
  pushed so far has been fully processed when it returns); :meth:`close`
  flushes end-of-stream state, merges worker metrics, and joins the
  workers;
* **crash detection** — each shard replies on a pipe whose write end
  only it holds, so its death (error report, ``os._exit``, ``SIGKILL``)
  is end-of-file there, read on the next ``push``/``flush``/``close``
  like any message and raised as
  :class:`~repro.parallel.errors.WorkerCrashed`;
* **crash recovery** — with a
  :class:`~repro.resilience.supervisor.Supervisor` attached, a dead
  shard is instead respawned from its last checkpoint, the write-ahead
  log is replayed, matches are deduplicated by sequence number
  (exactly-once delivery), and events that keep crashing the worker are
  quarantined to a dead-letter queue — see ``docs/resilience.md``.

Wire protocol (parent ↔ shard): every routed event carries a per-shard
1-based sequence number, parent → worker ``("e", seq, wire)`` on the
shard's bounded input queue; with
tracing on, sampled events ship the four-element traced wire (the
trace context rides as ``wire[3]``, WAL entries included, so a replay
after a supervised restart preserves trace identity).  The
worker replies on its own pipe: ``("m", shard, seq, wires)`` for
matches, acks barriers
with ``("flushed", shard, flush_seq, last_seq, guard_stats)`` /
``("closed", shard, wires, obs_snapshot, last_seq, guard_stats,
agg_snapshot)``, ships checkpoints as ``("ckpt", shard, seq, payload)``
and crash reports as ``("error", shard, reason, flight_dump, seq)``.
The trailing ``agg_snapshot`` is the shard's mergeable partial-aggregate
snapshot (``None`` for enumeration plans); the parent folds the shards'
partials into the cross-shard aggregates.
"""

from __future__ import annotations

import logging
import os
import queue
from multiprocessing.connection import wait
from typing import Callable, List, Optional

from ..agg.result import Match
from ..core.events import Event
from ..core.substitution import Substitution
from ..stream.partitioned import PartitionedContinuousMatcher
from ..obs.tracectx import sampled
from .codec import (attach_trace_ctx, decode_event, decode_substitution,
                    encode_event, encode_substitution, event_trace_ctx)
from .errors import WorkerCrashed
from .pool import default_context

__all__ = ["ShardedStreamMatcher"]

logger = logging.getLogger(__name__)

#: Subscribers receive the unified :class:`~repro.agg.result.Match`
#: (its ``partition`` field carries the routing key).
MatchCallback = Callable[[Match], None]

#: Seconds a put waits on a full input queue between reads of the
#: shards' pipes.
_FULL_QUEUE_WAIT = 0.05

#: Events a shard handles between sweeps for idle partitions: a key
#: silent for more than τ with nothing in flight gives its matcher (and
#: child metrics bundle) back, so a shard holds — and checkpoints — the
#: keys of the last window, not every key it has ever seen.
_COLLECT_EVERY = 1024


# ----------------------------------------------------------------------
# Worker side (runs in the shard processes)
# ----------------------------------------------------------------------
def _shard_worker(shard_id: int, plan, attribute: str,
                  use_filter: bool, suppress_overlaps: bool,
                  instrument: bool, flight_capacity: int,
                  in_queue, out, runtime=None) -> None:
    """Shard main loop: consume events until a close message arrives.

    Every reply goes out on ``out``, the write end of the shard's own
    pipe, whose only copy this process holds.

    Receives the parent's pickled plan, seeds the shard's process-global
    plan cache with it, and never rebuilds the automaton.  Runs its own
    :class:`~repro.obs.flight.FlightRecorder` (shared across the shard's
    per-key matchers) whose dump rides the error report back to the
    parent if the shard crashes.

    ``runtime`` (a :class:`~repro.resilience.supervisor.ShardRuntime`)
    switches on the resilience features: restore from a checkpoint
    payload, periodic checkpoint messages, the shared in-flight sequence
    cell, injected faults, and resource guards.
    """
    flight = None
    current_event = None
    current_seq = None
    try:
        from ..plan.cache import plan_cache
        plan = plan_cache().seed(plan)
        obs = None
        lineage = None
        if instrument:
            from ..obs import Observability
            obs = Observability()
            lineage = obs.lineage
            if lineage is not None:
                # The parent owns delivery accounting; this shard only
                # contributes detail (paths, hop timestamps).
                lineage.site = f"shard:{shard_id}"
                lineage.authoritative = False
        if flight_capacity:
            from ..obs.flight import FlightRecorder
            flight = FlightRecorder(capacity=flight_capacity)
        guard = None
        injector = None
        checkpoint_every = 0
        seq_value = None
        events_seen = 0
        if runtime is not None:
            checkpoint_every = runtime.checkpoint_every
            seq_value = runtime.seq_value
            events_seen = runtime.start_seq
            if runtime.guard is not None:
                # No registry: trip statistics travel in flush/close
                # acks and the parent owns the counters — binding the
                # worker registry too would double-count at merge.
                from ..resilience.guards import ResourceGuard
                guard = ResourceGuard(runtime.guard)
            if runtime.faults:
                from ..resilience.chaos import FaultInjector
                injector = FaultInjector(runtime.faults, attribute)
        matcher = PartitionedContinuousMatcher(
            plan, partition_by=attribute, use_filter=use_filter,
            suppress_overlaps=suppress_overlaps, observability=obs,
            flight=flight, guard=guard)
        if runtime is not None and runtime.state is not None:
            from ..resilience.checkpoint import restore_state
            restore_state(matcher, runtime.state)
        since_checkpoint = since_collect = 0
        while True:
            message = in_queue.get()
            kind = message[0]
            if kind == "e":
                seq, wire = message[1], message[2]
                current_seq = seq
                if seq_value is not None:
                    seq_value.value = seq
                current_event = decode_event(wire)
                if lineage is not None:
                    ctx_wire = event_trace_ctx(wire)
                    if ctx_wire is not None:
                        lineage.adopt(ctx_wire)
                if injector is not None:
                    current_event = injector.before(seq, current_event)
                reported = matcher.push(current_event)
                now = current_event.ts
                current_event = None
                current_seq = None
                events_seen = seq
                if reported:
                    out.send(("m", shard_id, seq,
                              [encode_substitution(s) for s in reported]))
                since_collect += 1
                since_checkpoint += 1
                checkpoint = since_checkpoint == checkpoint_every
                if checkpoint or since_collect >= _COLLECT_EVERY:
                    # (A checkpoint holds the partitions still live.)
                    since_collect = 0
                    matcher.collect(now)
                if checkpoint:
                    since_checkpoint = 0
                    from ..resilience.checkpoint import snapshot_state
                    out.send(("ckpt", shard_id, seq,
                              snapshot_state(matcher)))
            elif kind == "flush":
                out.send(("flushed", shard_id, message[1], events_seen,
                          None if guard is None else guard.stats()))
            elif kind == "close":
                reported = matcher.close()
                aggregate = matcher.aggregate()
                snapshot = None if aggregate is None else aggregate.snapshot()
                out.send(("closed", shard_id,
                          [encode_substitution(s) for s in reported],
                          snapshot, events_seen,
                          None if guard is None else guard.stats(),
                          matcher.aggregate_snapshot()))
                break
            else:  # pragma: no cover - protocol violation
                raise RuntimeError(f"unknown shard message {kind!r}")
    except BaseException as exc:  # surface the reason before dying
        try:
            dump = None
            if flight is not None:
                flight.note_crash(current_event,
                                  f"{type(exc).__name__}: {exc}")
                dump = flight.dump()
            out.send(("error", shard_id,
                      f"{type(exc).__name__}: {exc}", dump,
                      current_seq if current_seq is not None else 0))
        finally:
            raise


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ShardedStreamMatcher:
    """Continuous matching fanned out over ``N`` shard processes.

    Parameters
    ----------
    pattern:
        The SES pattern, or a compiled
        :class:`~repro.plan.plan.PatternPlan`; it must equi-join all
        variables on the partition attribute (raises
        :class:`ValueError` otherwise — without a partition key there is
        nothing sound to shard on).  The parent compiles once and ships
        the pickled plan to every shard.
    workers:
        Number of worker processes; defaults to :func:`os.cpu_count`.
    partition_by:
        Partition attribute; auto-detected when omitted.
    use_filter / suppress_overlaps:
        Forwarded to each shard's partitioned matcher.
    queue_size:
        Bound of each shard's input queue (backpressure threshold).
    start_method:
        Multiprocessing start method (see
        :func:`~repro.parallel.pool.default_context`).
    observability:
        Optional :class:`repro.obs.Observability` bundle.  Shards run
        instrumented and their registries merge in at :meth:`close`;
        the parent additionally tracks ``ses_shard<i>_events_total``
        and ``ses_shard<i>_queue_depth`` per shard, plus — with guards
        or a supervisor — ``ses_shed_instances``, ``ses_restarts_total``
        and ``ses_quarantined_events``.
    flight_capacity:
        Ring size of each shard's
        :class:`~repro.obs.flight.FlightRecorder` (default 512; ``0``
        disables).  A shard that crashes with an exception ships its
        recorder dump back on the :class:`WorkerCrashed` it raises
        (``flight_dump`` attribute); :meth:`health` feeds the live
        ``/healthz`` endpoint.
    supervisor:
        Optional :class:`~repro.resilience.supervisor.Supervisor`.
        Attached, a dead shard is restarted from its checkpoint instead
        of aborting the stream; see ``docs/resilience.md``.
    guard:
        Optional :class:`~repro.resilience.guards.GuardConfig` shipped
        to every shard: each worker enforces the ceilings with its own
        :class:`~repro.resilience.guards.ResourceGuard`, and trip
        statistics ride the flush/close acks back to the parent.
    faults:
        Optional :class:`~repro.resilience.chaos.FaultPlan` injected
        into the shard workers (chaos testing); defaults to the
        supervisor's plan when one is set there.

    Routing uses ``hash(key) % workers``, which is stable within one
    process (str hashes are randomised per interpreter, so shard
    *assignment* may differ between runs; match results do not).
    """

    def __init__(self, pattern, workers: Optional[int] = None,
                 partition_by: Optional[str] = None, use_filter: bool = True,
                 suppress_overlaps: bool = True, queue_size: int = 1024,
                 start_method: Optional[str] = None, observability=None,
                 flight_capacity: int = 512,
                 supervisor=None, guard=None, faults=None):
        from ..automaton.optimizations import partition_attribute
        from ..plan.cache import as_plan
        plan = as_plan(pattern)
        if partition_by is None:
            partition_by = partition_attribute(plan.pattern)
        if partition_by is None:
            raise ValueError(
                "pattern does not equi-join all variables on a single "
                "attribute; sharded streaming would lose matches")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.plan = plan
        self.pattern = plan.pattern
        self.attribute = partition_by
        self.n_shards = workers if workers is not None else (os.cpu_count() or 1)
        self.obs = observability
        self.supervisor = supervisor
        self.guard = guard
        if faults is None and supervisor is not None:
            faults = supervisor.faults
        self.faults = faults
        self._callbacks: List[MatchCallback] = []
        #: Matches read from the shards and not yet returned.
        self._outbox: List[Substitution] = []
        self._match_count = 0
        self._agg_snapshot = None
        self._events_routed = [0] * self.n_shards
        self._events_processed = [0] * self.n_shards
        self._flush_seq = 0
        self._closed = False
        #: In-progress barrier kind (``"flush"``/``"close"``/``None``)
        #: and the shards still owing an ack — read by the supervisor to
        #: re-issue a barrier a dead worker never answered.
        self._barrier: Optional[str] = None
        self._barrier_pending: set = set()
        self._guard_stats = [None] * self.n_shards
        self._guard_carry = [{} for _ in range(self.n_shards)]
        self._guard_published: dict = {}
        self._backpressure_waits = 0
        self._backpressure_published = 0
        self._use_filter = use_filter
        self._suppress_overlaps = suppress_overlaps
        self._flight_capacity = flight_capacity
        self._queue_size = queue_size
        self._shard_faults = {
            shard: (faults.for_shard(shard) if faults is not None else [])
            for shard in range(self.n_shards)}
        context = default_context(start_method)
        self._context = context
        if supervisor is not None:
            self._seq_values = [context.Value("q", 0, lock=False)
                                for _ in range(self.n_shards)]
            supervisor.bind(self)
        else:
            self._seq_values = [None] * self.n_shards
        self._in_queues: List = [None] * self.n_shards
        #: Read end of each shard's result pipe (``None`` once closed or
        #: dead) and the error report a shard sent before its end-of-file.
        self._readers: List = [None] * self.n_shards
        self._last_words: dict = {}
        self._processes: List = [None] * self.n_shards
        for shard_id in range(self.n_shards):
            self._spawn(shard_id)
        logger.debug("started %d stream shard(s) on %r%s", self.n_shards,
                     partition_by,
                     ", supervised" if supervisor is not None else "")

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int, state: Optional[bytes] = None,
               start_seq: int = 0) -> None:
        """Start (or restart) one shard worker with fresh channels."""
        runtime = None
        if (self.supervisor is not None or self.guard is not None
                or self._shard_faults.get(shard_id)):
            from ..resilience.supervisor import ShardRuntime
            runtime = ShardRuntime(
                checkpoint_every=(self.supervisor.checkpoint_every
                                  if self.supervisor is not None else 0),
                start_seq=start_seq, state=state,
                seq_value=self._seq_values[shard_id],
                faults=list(self._shard_faults.get(shard_id, ())),
                guard=self.guard)
        in_queue = self._context.Queue(maxsize=self._queue_size)
        reader, writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_shard_worker,
            args=(shard_id, self.plan, self.attribute, self._use_filter,
                  self._suppress_overlaps, self.obs is not None,
                  self._flight_capacity, in_queue, writer, runtime),
            daemon=True, name=f"ses-shard-{shard_id}")
        process.start()
        # The shard now holds the only write end: its exit is end-of-file.
        writer.close()
        self._in_queues[shard_id] = in_queue
        self._readers[shard_id] = reader
        self._processes[shard_id] = process

    def _respawn(self, shard_id: int, state: Optional[bytes] = None,
                 start_seq: int = 0) -> None:
        """Replace a dead shard the supervisor has joined.  Its old
        queue is let go: the WAL replay re-delivers what it held."""
        self._fold_guard_stats(shard_id)
        _let_go(self._in_queues[shard_id])
        if self._seq_values[shard_id] is not None:
            self._seq_values[shard_id].value = 0
        self._spawn(shard_id, state=state, start_seq=start_seq)

    # ------------------------------------------------------------------
    # Subscription
    # ------------------------------------------------------------------
    def on_match(self, callback: MatchCallback) -> MatchCallback:
        """Register a callback invoked once per reported match."""
        self._callbacks.append(callback)
        return callback

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def push(self, event: Event) -> List[Substitution]:
        """Route one event to its shard; returns the matches read so far.

        Match delivery is asynchronous: a match produced by this event
        may be returned by a later ``push`` or by :meth:`flush`.
        """
        return self.push_many((event,))

    def push_many(self, events) -> List[Substitution]:
        """Feed a batch of events (stream order); returns the matches
        read meanwhile.  The pipes are polled once, after the batch
        (and by :meth:`_put` whenever a shard's queue is full)."""
        for event in events:
            self._route(event)
        self._receive(0)
        return self._take()

    def _route(self, event: Event) -> None:
        self._require_open()
        shard = hash(event.get(self.attribute)) % self.n_shards
        seq = self._events_routed[shard] + 1
        self._events_routed[shard] = seq
        wire = encode_event(event)
        lineage = None if self.obs is None else self.obs.lineage
        if lineage is not None:
            # True ingest happens here; sampled events carry their
            # context on the wire (and hence into the WAL, so replayed
            # events keep their original trace identity).
            ctx = lineage.note_ingest(event)
            if sampled(ctx.trace_id, lineage.config.sample_rate):
                wire = attach_trace_ctx(wire, ctx.to_wire())
        if self.supervisor is not None:
            # Write-ahead: the event is recoverable before it is queued.
            self.supervisor.record_event(shard, seq, wire)
        self._put(shard, ("e", seq, wire))

    def flush(self) -> List[Substitution]:
        """Barrier: wait until every pushed event is fully processed.

        Returns the matches read while waiting.  The stream stays open;
        push more events afterwards.
        """
        self._require_open()
        self._flush_seq += 1
        self._barrier_round("flush", ("flush", self._flush_seq))
        self._publish_shard_metrics()
        return self._take()

    def close(self) -> List[Substitution]:
        """End-of-stream: flush every shard, join workers, merge metrics.

        If a shard crashes (unsupervised) while later shards still owe
        their results, the raised :class:`WorkerCrashed` carries the
        matches read but not yet returned as ``partial_matches`` instead
        of discarding them.
        """
        if self._closed:
            return []
        self._closed = True
        self._barrier_round("close", ("close",))
        reported = self._take()
        for process in self._processes:
            process.join(timeout=10.0)
        crashed = [p for p in self._processes
                   if p.exitcode not in (0, None) or p.is_alive()]
        if crashed:
            self.stop()
            names = ", ".join(f"{p.name} (exit {p.exitcode})"
                              for p in crashed)
            raise WorkerCrashed(f"stream shard(s) failed to exit: {names}",
                                partial_matches=reported)
        self._publish_shard_metrics()
        if self.obs is not None:
            from ..explain.stats import stats_key, stats_store
            stats_store().observe(stats_key(self.pattern), runs=1)
        return reported

    def stop(self) -> None:
        """Terminate all shards immediately (no flush, no results)."""
        self._closed = True
        for process in self._processes:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._processes:
            if process is not None:
                process.join(timeout=5.0)
        for shard_id, reader in enumerate(self._readers):
            _let_go(self._in_queues[shard_id])
            if reader is not None:
                reader.close()
                self._readers[shard_id] = None

    def __enter__(self) -> "ShardedStreamMatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.stop()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def match_count(self) -> int:
        """Matches reported so far (the matcher keeps no copy: use what
        push/flush/close return, or :meth:`on_match`)."""
        return self._match_count

    def aggregate_snapshot(self):
        """Merged cross-shard partial-aggregate snapshot (``None`` for
        enumeration plans).  Shards ship their partials on ``close``, so
        before :meth:`close` this is empty for aggregation plans."""
        if self.plan.aggregate is None:
            return None
        from ..agg.engine import empty_snapshot, merge_snapshots
        merged = merge_snapshots(self.plan.aggregate, None,
                                 self._agg_snapshot)
        return merged if merged is not None else empty_snapshot(
            self.plan.aggregate)

    def aggregates(self):
        """Cross-shard aggregates as an
        :class:`~repro.agg.result.AggregateSeries` (``None`` for
        enumeration plans); complete only after :meth:`close`."""
        if self.plan.aggregate is None:
            return None
        from ..agg.result import AggregateSeries
        return AggregateSeries(self.plan.aggregate, self.aggregate_snapshot())

    @property
    def queue_depths(self) -> List[int]:
        """Current input-queue depth per shard (-1 where unsupported)."""
        depths = []
        for in_queue in self._in_queues:
            try:
                depths.append(in_queue.qsize())
            except NotImplementedError:  # pragma: no cover - macOS
                depths.append(-1)
        return depths

    @property
    def events_routed(self) -> List[int]:
        """Events routed to each shard so far."""
        return list(self._events_routed)

    def health(self) -> dict:
        """Liveness report: per-shard worker state and queue depths.

        The payload behind the live ``/healthz`` endpoint
        (:class:`repro.obs.live.ObsServer`).  ``status`` is three-valued:

        * ``"ok"`` — every shard alive (or cleanly exited after
          :meth:`close`), no recoveries, no guard activity;
        * ``"degraded"`` — still serving, but running on a restart
          budget (supervised restarts or quarantined events) or with
          guards actively shedding state; a dead-but-supervised shard
          (recovery pending on the next operation) also reports here;
        * ``"failed"`` — a shard is dead and nothing will restart it:
          unsupervised crash, or the supervisor's budget is exhausted.
        """
        depths = self.queue_depths
        supervised = self.supervisor is not None
        shards = []
        dead = False
        for shard_id, process in enumerate(self._processes):
            alive = process.is_alive()
            ok = alive or (self._closed and process.exitcode == 0)
            dead = dead or not ok
            entry = {
                "shard": shard_id,
                "alive": alive,
                "exitcode": process.exitcode,
                "queue_depth": depths[shard_id],
                "events_routed": self._events_routed[shard_id],
                "events_processed": self._events_processed[shard_id],
            }
            if supervised:
                entry["restarts"] = self.supervisor.restarts_of(shard_id)
            shards.append(entry)
        guard_totals = (self._guard_totals()
                        if self.guard is not None else None)
        shedding = bool(guard_totals) and (guard_totals.get("shed", 0) > 0
                                           or guard_totals.get("degraded", 0)
                                           > 0)
        if supervised and self.supervisor.failed:
            status = "failed"
        elif dead and not supervised:
            status = "failed"
        elif dead or shedding or (supervised and self.supervisor.degraded):
            status = "degraded"
        else:
            status = "ok"
        report = {
            "status": status,
            "closed": self._closed,
            "attribute": self.attribute,
            "supervised": supervised,
            "shards": shards,
        }
        if supervised:
            report["supervisor"] = self.supervisor.report()
        if guard_totals is not None:
            report["guard"] = guard_totals
        return report

    def __repr__(self) -> str:
        return (f"ShardedStreamMatcher({self.attribute!r}, "
                f"{self.n_shards} shards, {self._match_count} matches)")

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("stream matcher is closed")

    def _put(self, shard: int, message) -> None:
        """Enqueue for one shard, reading the pipes before and while
        waiting on its full queue (a worker blocked sending its results
        drains nothing, and :meth:`push_many` reads the pipes only once
        per call).

        A supervised recovery read meanwhile swaps in a fresh queue and
        re-delivers ``message`` itself (WAL replay, re-issued barrier),
        so it is not sent again.
        """
        in_queue = self._in_queues[shard]
        block = False
        while self._in_queues[shard] is in_queue:
            try:
                in_queue.put(message, block, _FULL_QUEUE_WAIT)
                return
            except queue.Full:
                self._backpressure_waits += 1
                self._receive(0)
                block = True

    def _barrier_round(self, kind: str, message) -> None:
        """Send ``message`` to every shard and read until each acked
        (the supervisor re-issues it to a shard that died first)."""
        self._barrier = kind
        self._barrier_pending = set(range(self.n_shards))
        try:
            for shard in range(self.n_shards):
                self._put(shard, message)
            while self._barrier_pending:
                self._receive()
        finally:
            self._barrier = None
            self._barrier_pending = set()

    def _take(self) -> List[Substitution]:
        reported, self._outbox = self._outbox, []
        return reported

    def _receive(self, timeout: Optional[float] = None) -> None:
        """Handle the shard messages ready within ``timeout`` seconds
        (``None``: block until one is).  End-of-file on a shard's pipe
        is its death, and this is the one place a death is read."""
        readers = {reader: shard for shard, reader in enumerate(self._readers)
                   if reader is not None}
        for reader in wait(list(readers), timeout):
            shard = readers[reader]
            # A recovery handled earlier in this loop may have replaced
            # this reader, or read it dry.
            if self._readers[shard] is not reader or not reader.poll():
                continue
            try:
                message = reader.recv()
            except (EOFError, OSError):
                # Handled below, outside this handler, so a shard the
                # recovery respawns does not inherit the exception.
                message = None
            if message is None:
                self._died(shard)
            else:
                self._handle(message)

    def _died(self, shard: int) -> None:
        """Recover a dead shard, or stop and raise :class:`WorkerCrashed`
        carrying the matches read but not yet returned."""
        self._readers[shard].close()
        self._readers[shard] = None
        reason, dump, seq = self._last_words.pop(shard, (None, None, None))
        try:
            if self.supervisor is not None:
                self.supervisor.on_crash(shard, reason, dump, seq)
                return
            self.stop()
            exitcode = self._processes[shard].exitcode
            raise WorkerCrashed(
                f"stream shard {shard} crashed: {reason}" if reason else
                f"stream shard {shard} died (exit code {exitcode}); "
                f"shutting down the remaining shards", flight_dump=dump)
        except WorkerCrashed as exc:
            exc.partial_matches += self._take()
            raise

    def _handle(self, message) -> None:
        """Process one message from a shard."""
        kind, shard_id = message[0], message[1]
        if kind == "m":
            # A replayed duplicate was delivered already.
            if (self.supervisor is None
                    or self.supervisor.should_deliver(shard_id, message[2])):
                self._report(message[3], shard_id)
        elif kind == "ckpt":
            if self.supervisor is not None:
                self.supervisor.record_checkpoint(*message[1:])
        elif kind == "error":
            # The shard's last words: its end-of-file follows.
            self._last_words[shard_id] = message[2:]
        elif kind == "flushed":
            _, shard_id, seq, events_seen, guard_stats = message
            if self._barrier == "flush" and seq == self._flush_seq:
                self._barrier_pending.discard(shard_id)
            self._events_processed[shard_id] = events_seen
            self._note_guard_stats(shard_id, guard_stats)
        elif kind == "closed":
            (_, shard_id, wires, snapshot, events_seen,
             guard_stats, agg_snapshot) = message
            # The shard exits now: its end-of-file is no death.
            self._readers[shard_id].close()
            self._readers[shard_id] = None
            self._barrier_pending.discard(shard_id)
            self._events_processed[shard_id] = events_seen
            self._note_guard_stats(shard_id, guard_stats)
            if agg_snapshot is not None:
                from ..agg.engine import merge_snapshots
                self._agg_snapshot = merge_snapshots(
                    self.plan.aggregate, self._agg_snapshot, agg_snapshot)
            self._report(wires, shard_id)
            if snapshot is not None and self.obs is not None:
                self.obs.merge_snapshot(snapshot)
            if snapshot is not None:
                # Feed the shard's cardinalities to the statistics store
                # (per shard with runs=0; close() counts the run once).
                from ..explain.stats import stats_key, stats_store
                read = snapshot.get("ses_events_read_total",
                                    {}).get("value", 0)
                processed = snapshot.get("ses_events_processed_total",
                                         {}).get("value", 0)
                matches = snapshot.get("ses_stream_matches_reported_total",
                                       {}).get("value", 0)
                stats_store().observe(
                    stats_key(self.pattern), runs=0, events=read,
                    matches=matches, filter_seen=read,
                    filter_admitted=processed)
        else:  # pragma: no cover - protocol violation
            raise WorkerCrashed(f"unexpected shard message {kind!r}")

    def _report(self, wires, shard: int) -> None:
        reported = [decode_substitution(w) for w in wires]
        self._outbox.extend(reported)
        self._match_count += len(reported)
        lineage = None if self.obs is None else self.obs.lineage
        provenances = None
        if lineage is not None:
            # Parent-side delivery stamp, after the supervisor's
            # exactly-once gate — a replayed duplicate never reaches
            # this point, so a delivered count above 1 is a real bug.
            provenances = [lineage.deliver(s, by=f"shard:{shard}")
                           for s in reported]
        if self._callbacks:
            for index, substitution in enumerate(reported):
                events = substitution.events()
                key = events[0].get(self.attribute) if events else None
                delivered = Match(substitution, partition=key,
                                  provenance=(provenances[index]
                                              if provenances is not None
                                              else None))
                for callback in self._callbacks:
                    callback(delivered)

    # ------------------------------------------------------------------
    # Guard statistics (workers report plain dicts; parent owns counters)
    # ------------------------------------------------------------------
    def _note_guard_stats(self, shard_id: int, stats) -> None:
        if stats is not None:
            self._guard_stats[shard_id] = stats

    def _fold_guard_stats(self, shard_id: int) -> None:
        """Bank a dying worker's last reported stats: its replacement
        starts counting from zero again."""
        stats = self._guard_stats[shard_id]
        if stats:
            carry = self._guard_carry[shard_id]
            for key, value in stats.items():
                carry[key] = carry.get(key, 0) + value
        self._guard_stats[shard_id] = None

    def _guard_totals(self) -> dict:
        totals = {"trips": 0, "shed": 0, "degraded": 0}
        for shard_id in range(self.n_shards):
            for source in (self._guard_carry[shard_id],
                           self._guard_stats[shard_id] or {}):
                for key in totals:
                    totals[key] += source.get(key, 0)
        return totals

    def _publish_shard_metrics(self) -> None:
        if self.obs is None:
            return
        registry = self.obs.registry
        depths = self.queue_depths
        for shard_id in range(self.n_shards):
            registry.gauge(
                f"ses_shard{shard_id}_events_total",
                help="events processed by this shard",
            ).set(self._events_processed[shard_id])
            registry.gauge(
                f"ses_shard{shard_id}_queue_depth",
                help="input-queue depth at the last flush/close",
            ).set(depths[shard_id])
        registry.gauge(
            "ses_queue_depth_max",
            help="deepest shard input queue at the last flush/close",
        ).set(max((d for d in depths if d >= 0), default=0))
        delta = self._backpressure_waits - self._backpressure_published
        if delta > 0:
            registry.counter(
                "ses_backpressure_waits_total",
                help="bounded-queue full waits while routing events",
            ).inc(delta)
            self._backpressure_published = self._backpressure_waits
        if self.guard is not None:
            totals = self._guard_totals()
            for key, name, help_text in (
                    ("shed", "ses_shed_instances",
                     "instances dropped by the shed/degrade guard policy"),
                    ("degraded", "ses_degraded_instances_total",
                     "over-arity group instances dropped by the degrade "
                     "policy"),
                    ("trips", "ses_guard_trips_total",
                     "resource-guard ceiling breaches")):
                delta = totals[key] - self._guard_published.get(key, 0)
                if delta > 0:
                    registry.counter(name, help=help_text).inc(delta)
                    self._guard_published[key] = totals[key]


def _let_go(in_queue) -> None:
    """Close a queue no worker will read again, unjoined at exit: its
    feeder thread may be blocked for good on a full pipe."""
    in_queue.cancel_join_thread()
    in_queue.close()
