"""Partitioned batch execution, in-process or over a process pool.

:class:`ParallelPartitionedMatcher` is the batch partition driver behind
``plan.match(partition_by=..., workers=...)``: the relation is split on
the partition attribute and every partition is evaluated by
:func:`_run_partitions` — in this process with one worker, or, grouped
into chunks, by the workers of a
:class:`~concurrent.futures.ProcessPoolExecutor`.  The paper's Section
4.4 bounds make the per-start instance population the scaling
bottleneck; partitions are provably independent (every condition
equi-joins the partition attribute across all variables), so they
parallelise embarrassingly.

Design notes
------------
* The parent compiles the pattern **once** (through the process-global
  plan cache) and ships the pickled :class:`~repro.plan.plan.PatternPlan`
  to each worker via the pool initializer; workers seed their own plan
  cache with it, so no worker ever rebuilds the automaton — even when a
  pool is reused across runs.  Chunks only carry events, encoded as
  compact tuples (:mod:`repro.parallel.codec`).
* Results merge in **deterministic order**: partitions are sorted by
  key, chunks are contiguous slices of that order, futures are collected
  in submission order and :meth:`ExecutionStats.merge` is associative —
  so the accepted list, the final selection, and the stats are
  bit-identical for any worker count.
* **No pool** with one worker, a single partition, or no partition
  attribute at all: the same loop runs in-process (the no-attribute
  case degrades to one unpartitioned run).
* **Robust shutdown**: any exception — including
  :class:`KeyboardInterrupt` and a worker crashing mid-chunk — cancels
  the remaining chunks and joins every worker before re-raising; a dead
  worker surfaces as :class:`~repro.parallel.errors.WorkerCrashed`
  rather than a hang or a leaked child process.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from ..agg.engine import merge_snapshots
from ..agg.result import AggregateSeries
from ..automaton.executor import MatchResult
from ..automaton.metrics import ExecutionStats
from ..automaton.optimizations import partition_attribute
from ..core.events import Event
from ..core.relation import EventRelation
from ..core.semantics import SELECTIONS, select
from ..core.substitution import Substitution
from .codec import (EventWire, SubstitutionWire, decode_events,
                    decode_substitution, encode_events, encode_substitution)
from .errors import WorkerCrashed

__all__ = ["ParallelPartitionedMatcher", "default_context", "chunk_partitions"]

logger = logging.getLogger(__name__)

#: What a run over some partitions yields: the accepted buffers, the
#: merged stats and the merged partial-aggregate snapshot (``None``
#: unless the plan aggregates).
PartitionRun = Tuple[List[Substitution], ExecutionStats, Optional[dict]]
#: One chunk of work: the event wires of each of its partitions.
Chunk = List[List[EventWire]]
#: One chunk's result: worker pid, accepted buffers, merged stats, obs
#: snapshot (``None`` when not instrumented) and the chunk's merged
#: partial-aggregate snapshot.
ChunkResult = Tuple[int, List[SubstitutionWire], ExecutionStats,
                    Optional[dict], Optional[dict]]


def default_context(start_method: Optional[str] = None):
    """The multiprocessing context the pool uses.

    ``fork`` where it is safe (Linux): workers inherit the parent's
    modules, so start-up is milliseconds instead of a full interpreter
    boot per worker.  Elsewhere (macOS forks are unsafe with threads,
    Windows has no fork) the platform default is used.  Pass an explicit
    ``start_method`` to override.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    if (sys.platform.startswith("linux")
            and "fork" in multiprocessing.get_all_start_methods()):
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def chunk_partitions(items: Sequence, n_chunks: int) -> List[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, near-even
    slices (never empty; fewer chunks when items run out)."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[list] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(list(items[start:start + size]))
        start += size
    return chunks


def _run_partitions(plan, partitions: Iterable[Iterable[Event]], *,
                    use_filter: bool, filter_mode: str, consume: str,
                    observability=None, flight=None) -> PartitionRun:
    """Algorithms 1–2 once per partition, merged in the order given.

    The one per-partition loop of batch execution: the in-process path
    runs it over all partitions, a pool worker over those of its chunk.
    Every partition gets a fresh executor that keeps its raw accepted
    buffers — result selection needs the buffers of all partitions and
    is the caller's.
    """
    accepted: List[Substitution] = []
    stats = ExecutionStats()
    agg_snapshot: Optional[dict] = None
    for events in partitions:
        executor = plan.executor(
            use_filter=use_filter, filter_mode=filter_mode,
            selection="accepted", consume=consume,
            observability=observability, flight=flight)
        result = executor.run(events)
        accepted.extend(result.accepted)
        stats.merge(result.stats)
        if plan.aggregate is not None:
            agg_snapshot = merge_snapshots(plan.aggregate, agg_snapshot,
                                           executor.aggregate_snapshot())
    return accepted, stats, agg_snapshot


# ----------------------------------------------------------------------
# Worker side (runs in the pool processes)
# ----------------------------------------------------------------------
_WORKER_PLAN = None
#: ``use_filter`` / ``filter_mode`` / ``consume`` for the worker's runs.
_WORKER_OPTIONS: dict = {}
_WORKER_INSTRUMENT = False
_WORKER_FLIGHT = None

#: Default per-worker flight-recorder ring size (0 disables recording).
DEFAULT_FLIGHT_CAPACITY = 512


def _init_worker(plan, use_filter: bool, filter_mode: str, consume: str,
                 instrument: bool,
                 flight_capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
    """Pool initializer: adopt the parent's pickled plan.

    The plan is seeded into the worker's process-global cache, so the
    worker never rebuilds the automaton — neither here nor if anything
    else in the worker compiles an equal pattern later.  Each worker
    also gets its own :class:`~repro.obs.flight.FlightRecorder` (unless
    ``flight_capacity`` is 0) so a crash can ship the tail of execution
    back to the parent.
    """
    global _WORKER_PLAN, _WORKER_OPTIONS, _WORKER_INSTRUMENT, _WORKER_FLIGHT
    from ..plan.cache import plan_cache
    _WORKER_PLAN = plan_cache().seed(plan)
    _WORKER_OPTIONS = {"use_filter": use_filter, "filter_mode": filter_mode,
                       "consume": consume}
    _WORKER_INSTRUMENT = instrument
    if flight_capacity:
        from ..obs.flight import FlightRecorder
        _WORKER_FLIGHT = FlightRecorder(capacity=flight_capacity)
    else:
        _WORKER_FLIGHT = None


def _run_chunk(chunk: Chunk) -> ChunkResult:
    """Evaluate every partition of one chunk with the worker's plan.

    An exception while evaluating is re-raised as
    :class:`~repro.parallel.errors.WorkerCrashed` carrying the worker's
    flight-recorder dump, so the parent learns *what the worker was
    doing* — not just that it died.
    """
    plan = _WORKER_PLAN
    if plan is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("worker pool not initialised")
    flight = _WORKER_FLIGHT
    obs = None
    if _WORKER_INSTRUMENT:
        from ..obs import Observability
        obs = Observability()
    try:
        accepted, stats, agg_snapshot = _run_partitions(
            plan, map(decode_events, chunk), observability=obs,
            flight=flight, **_WORKER_OPTIONS)
    except Exception as exc:
        if flight is None:
            raise
        raise WorkerCrashed(
            f"pool worker {os.getpid()} crashed evaluating a partition "
            f"chunk: {type(exc).__name__}: {exc}",
            flight_dump=flight.dump()) from exc
    return (os.getpid(), [encode_substitution(s) for s in accepted], stats,
            None if obs is None else obs.snapshot(), agg_snapshot)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class ParallelPartitionedMatcher:
    """Batch matching per partition, in-process or over a process pool.

    Parameters
    ----------
    pattern:
        The SES pattern, or a compiled
        :class:`~repro.plan.plan.PatternPlan`.  Partitioning is sound
        when the pattern equi-joins all variables on one attribute; the
        attribute is auto-detected
        (:func:`~repro.automaton.optimizations.partition_attribute`).
    partition_by:
        Explicit partition attribute (overrides detection, at your own
        risk).
    workers:
        Pool size; defaults to :func:`os.cpu_count`.  ``1`` runs
        serially in-process (no pool).
    use_filter / filter_mode / selection / consume:
        As on :meth:`PatternPlan.match <repro.plan.plan.PatternPlan.match>`;
        the filter and consume options go to every partition's executor,
        ``selection`` is applied once across all partitions.
    chunks_per_worker:
        Load-balancing granularity: partitions are grouped into about
        ``workers * chunks_per_worker`` chunks so a slow partition does
        not stall the whole pool.
    start_method:
        Multiprocessing start method (see :func:`default_context`).
    observability:
        Optional :class:`repro.obs.Observability` bundle.  Every
        partition's executor reports into it (pool workers report into
        a bundle of their own whose snapshot is merged back in), plus
        ``ses_pool_workers``, ``ses_pool_chunks_total``,
        ``ses_pool_partitions_total`` and per-worker
        ``ses_pool_worker<i>_events_total`` gauges.
    flight_capacity:
        Ring size of each worker's
        :class:`~repro.obs.flight.FlightRecorder` (default 512; ``0``
        disables).  A worker that crashes with an exception ships its
        recorder dump back attached to the raised
        :class:`~repro.parallel.errors.WorkerCrashed` as
        ``flight_dump``; hard crashes (``SIGKILL``/``os._exit``) leave
        no dump.

    A pattern with **no** partition attribute is accepted: the matcher
    logs a warning and falls back to one serial unpartitioned run
    (splitting would lose the cross-partition pruning guarantee, so
    there is nothing sound to fan out).
    """

    def __init__(self, pattern, partition_by: Optional[str] = None,
                 workers: Optional[int] = None, use_filter: bool = True,
                 filter_mode: str = "conjunctive", selection: str = "paper",
                 consume: str = "greedy", chunks_per_worker: int = 4,
                 start_method: Optional[str] = None, observability=None,
                 flight_capacity: int = DEFAULT_FLIGHT_CAPACITY):
        if selection not in SELECTIONS:
            raise ValueError(f"unknown selection {selection!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunks_per_worker < 1:
            raise ValueError("chunks_per_worker must be >= 1")
        from ..plan.cache import as_plan
        plan = as_plan(pattern)
        plan.prefilter(filter_mode)  # ValueError on an unknown mode
        detected = partition_attribute(plan.pattern)
        self.plan = plan
        self.pattern = plan.pattern
        self.attribute = detected if partition_by is None else partition_by
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.use_filter = use_filter
        self.filter_mode = filter_mode
        self.selection = selection
        self.consume_mode = consume
        self.chunks_per_worker = chunks_per_worker
        self.start_method = start_method
        self.obs = observability
        self.flight_capacity = flight_capacity
        if self.attribute is None:
            logger.warning(
                "pattern does not equi-join all variables on one attribute; "
                "ParallelPartitionedMatcher falls back to a serial "
                "unpartitioned run")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, relation: Union[EventRelation, Iterable[Event]]
            ) -> MatchResult:
        """Run the pattern over every partition; merge deterministically."""
        if not isinstance(relation, EventRelation):
            relation = EventRelation(relation)
        if self.attribute is None:
            parts = [relation]
        else:
            parts = [part for _, part in sorted(
                relation.partition_by(self.attribute).items(),
                key=lambda kv: str(kv[0]))]
        if self.workers <= 1 or len(parts) <= 1:
            accepted, stats, agg_snapshot = _run_partitions(
                self.plan, parts, use_filter=self.use_filter,
                filter_mode=self.filter_mode, consume=self.consume_mode,
                observability=self.obs)
            if self.obs is not None:
                self._publish_pool_metrics(1, len(parts), len(parts),
                                           {0: stats.events_read})
        else:
            accepted, stats, agg_snapshot = self._run_pool(parts)
        if self.plan.aggregate is not None:
            # Aggregation plan: no matches were materialised anywhere —
            # the merged partial snapshots are the whole result.
            matches = []
            aggregates = AggregateSeries(self.plan.aggregate, agg_snapshot,
                                         stats=stats)
        else:
            matches = select(accepted, self.selection)
            stats.matches = len(matches)
            aggregates = None
        if self.obs is not None:
            # Partitions only see their share; the run and its
            # post-selection match count are known here.
            from ..explain.stats import stats_key, stats_store
            stats_store().observe(
                stats_key(self.pattern), events=stats.events_read,
                matches=len(matches), filter_seen=stats.events_read,
                filter_admitted=stats.events_processed)
        return MatchResult(matches=matches, accepted=accepted, stats=stats,
                           aggregates=aggregates)

    def _run_pool(self, parts: List[EventRelation]) -> PartitionRun:
        encoded = [encode_events(part) for part in parts]
        n_workers = min(self.workers, len(encoded))
        chunks = chunk_partitions(encoded,
                                  n_workers * self.chunks_per_worker)
        context = default_context(self.start_method)
        logger.debug("dispatching %d partition(s) as %d chunk(s) to %d "
                     "worker(s) [%s]", len(encoded), len(chunks), n_workers,
                     context.get_start_method())
        pool = ProcessPoolExecutor(
            max_workers=n_workers, mp_context=context,
            initializer=_init_worker,
            initargs=(self.plan, self.use_filter, self.filter_mode,
                      self.consume_mode, self.obs is not None,
                      self.flight_capacity))
        futures = []
        try:
            futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
            chunk_results = [future.result() for future in futures]
        except BaseException as exc:
            # Exception, KeyboardInterrupt or worker crash: drop the
            # queued chunks and join every worker before re-raising, so
            # no child process outlives the call.
            for future in futures:
                future.cancel()
            if not isinstance(exc, Exception):
                # KeyboardInterrupt / SystemExit: a worker may be busy
                # on a long chunk, and shutdown(wait=True) would block
                # on it — exactly the window where a second Ctrl-C
                # leaves orphaned children behind.  Kill the workers
                # first; the pool then shuts down immediately.
                for process in list(getattr(pool, "_processes", {})
                                    .values()):
                    if process.is_alive():
                        process.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                # A hard crash (SIGKILL, os._exit) gives the worker no
                # chance to ship its recorder; flight_dump stays None.
                raise WorkerCrashed(
                    "a pool worker died while evaluating a partition chunk; "
                    "remaining workers were shut down cleanly"
                ) from exc
            raise
        else:
            pool.shutdown(wait=True)
        return self._merge(chunk_results, n_workers, len(encoded))

    def _merge(self, chunk_results: List[ChunkResult], n_workers: int,
               n_partitions: int) -> PartitionRun:
        """Merge chunk results in submission (= partition-sorted) order."""
        accepted: List[Substitution] = []
        stats = ExecutionStats()
        agg_snapshot: Optional[dict] = None
        events_by_pid: dict = {}
        for pid, wires, chunk_stats, snapshot, chunk_agg in chunk_results:
            accepted.extend(decode_substitution(w) for w in wires)
            stats.merge(chunk_stats)
            events_by_pid[pid] = (events_by_pid.get(pid, 0)
                                  + chunk_stats.events_read)
            if snapshot is not None and self.obs is not None:
                self.obs.merge_snapshot(snapshot)
            if chunk_agg is not None:
                agg_snapshot = merge_snapshots(self.plan.aggregate,
                                               agg_snapshot, chunk_agg)
        if self.obs is not None:
            events_by_worker = {
                index: events_by_pid[pid]
                for index, pid in enumerate(sorted(events_by_pid))
            }
            self._publish_pool_metrics(n_workers, n_partitions,
                                       len(chunk_results), events_by_worker)
        return accepted, stats, agg_snapshot

    def _publish_pool_metrics(self, n_workers: int, n_partitions: int,
                              n_chunks: int, events_by_worker: dict) -> None:
        registry = self.obs.registry
        registry.gauge("ses_pool_workers",
                       help="process-pool size of the last run").set(n_workers)
        registry.counter("ses_pool_chunks_total",
                         help="partition chunks dispatched").inc(n_chunks)
        registry.counter("ses_pool_partitions_total",
                         help="partitions evaluated").inc(n_partitions)
        for index, events in sorted(events_by_worker.items()):
            registry.gauge(
                f"ses_pool_worker{index}_events_total",
                help="events evaluated by this pool worker").set(events)

    def __repr__(self) -> str:
        return (f"ParallelPartitionedMatcher({self.attribute!r}, "
                f"workers={self.workers})")
