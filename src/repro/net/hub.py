"""The subscription hub: cursors, replay, shedding, graceful drain.

:class:`SubscriptionHub` is the transport-agnostic heart of push
delivery.  Matchers publish every reported match exactly once; the hub

* assigns a **monotonic cursor** (``seq``) per published match and
  appends the entries to a durable
  :class:`~repro.resilience.delivery.DeliveryLog` *before* any
  subscriber sees them (delivered-or-persisted: a crash after the
  commit loses nothing).  The unit of durability is the **batch**:
  publishes made inside a :meth:`SubscriptionHub.batch` scope — the
  push server opens one around every run of queued ingest batches — are
  handed, when the scope exits, to the hub's one **log writer** thread.
  The writer commits everything handed over since its last append with
  one log append (one ``write()``, one ``fsync()``: runs that queue up
  behind an fsync share the next one) and only then remembers the
  entries, adds them to the ring and offers them to subscribers, so the
  publishing thread goes on matching while the disk syncs.
  :meth:`SubscriptionHub.sync` waits for the writer; a publish outside
  any scope is a batch of one that waits for its own commit.  Without a
  log the commit happens inline, on the publishing thread;
* keeps a bounded in-memory **replay ring** for fast resume, spilling
  to the delivery log for older cursors — a subscriber reconnecting
  with ``Last-Event-ID: <cursor>`` is backfilled gap-free;
* suppresses **duplicate publications** by pattern id plus the
  content-derived :func:`~repro.obs.lineage.match_id` (supervisor
  restarts and WAL replays re-report matches; subscribers must not see
  them twice — while two patterns binding the same events under the
  same variable names are two matches);
* applies a per-subscriber **slow-consumer policy** when a bounded
  queue overflows — ``disconnect`` (drop the connection; the client
  resumes from its cursor), ``shed`` (drop oldest queued matches and
  deliver a ``gap`` notice naming the dropped cursor range) or
  ``degrade`` (collapse the queue to per-pattern aggregate counts until
  the consumer catches up);
* supports a **graceful drain**: no further publishes are accepted,
  every subscriber receives its queued backlog followed by a terminal
  ``drain`` notice carrying the resume token to present after the
  restart.

The hub is thread-safe and transport-neutral: the asyncio server
(:mod:`repro.net.server`) wakes its connections through each
subscriber's ``wake`` callback, while tests and the Hypothesis drain
property drive subscribers synchronously.
"""

from __future__ import annotations

import itertools
import json
import logging
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from ..obs.lineage import match_id as compute_match_id

logger = logging.getLogger(__name__)

__all__ = ["SubscriptionHub", "Subscriber", "DeliveredEntry",
           "POLICIES", "DEFAULT_QUEUE", "DEFAULT_RING"]

#: Slow-consumer policies (mirrors the resource-guard policy triple).
POLICIES = ("disconnect", "shed", "degrade")

#: Default per-subscriber queue bound.
DEFAULT_QUEUE = 256

#: Default replay-ring capacity.
DEFAULT_RING = 1024

#: Dedup window: published match ids remembered for duplicate
#: suppression (beyond it, the delivery log is the arbiter of record).
DEDUP_CAPACITY = 65536

#: Seconds the log writer waits for work before its thread ends (the
#: next hand-over starts another).
_WRITER_IDLE_SECONDS = 1.0

#: The one JSON rendering of what the hub publishes (compact; values
#: JSON has no form for are stringified, as every wire format here does).
_render = json.JSONEncoder(separators=(",", ":"), default=str).encode


class _LogRecord(dict):
    """A delivery-log record that brings its own JSON line: ``line`` is
    what ``json.dumps`` would make of the dict, with the payload's
    rendering spliced in instead of encoded again."""

    __slots__ = ("line",)


class DeliveredEntry:
    """One published match: cursor, identity, and its JSON payload."""

    __slots__ = ("seq", "match_id", "pattern_id", "tenant", "payload",
                 "published", "_payload_json")

    def __init__(self, seq: int, match_id: str, pattern_id: Optional[str],
                 tenant: Optional[str], payload: Dict[str, Any],
                 published: float):
        self.seq = seq
        self.match_id = match_id
        self.pattern_id = pattern_id
        self.tenant = tenant
        self.payload = payload
        self.published = published
        self._payload_json: Optional[str] = None

    @property
    def payload_json(self) -> str:
        """:attr:`payload` as JSON text, rendered once: the delivery-log
        line and every SSE frame splice this in."""
        if self._payload_json is None:
            self._payload_json = _render(self.payload)
        return self._payload_json

    def to_record(self) -> Dict[str, Any]:
        """The delivery-log record for this entry (a dict that carries
        its line)."""
        record = _LogRecord(seq=self.seq, match_id=self.match_id,
                            pattern_id=self.pattern_id, tenant=self.tenant,
                            published=self.published)
        record.line = (f"{_render(record)[:-1]},"
                       f'"payload":{self.payload_json}}}')
        record["payload"] = self.payload
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "DeliveredEntry":
        return cls(seq=record["seq"], match_id=record["match_id"],
                   pattern_id=record.get("pattern_id"),
                   tenant=record.get("tenant"),
                   payload=record.get("payload") or {},
                   published=record.get("published", 0.0))

    def __repr__(self) -> str:
        return f"DeliveredEntry(seq={self.seq}, match_id={self.match_id})"


class Subscriber:
    """One attached consumer: bounded queue, cursor, policy state.

    Queue items are ``(kind, payload)`` tuples; ``kind`` is one of
    ``"match"`` (payload: :class:`DeliveredEntry`), ``"gap"``,
    ``"aggregates"`` or ``"drain"`` (payload: notice dict).  Pop with
    :meth:`pop`; transports block on their own wake primitive, poked
    through the ``wake`` callback.
    """

    __slots__ = ("subscriber_id", "patterns", "tenants", "max_queue",
                 "policy", "cursor", "sheds", "closed", "close_reason",
                 "wake", "_queue", "_degraded", "_pending_gap", "_hub",
                 "attached_at", "delivered")

    def __init__(self, subscriber_id: str, hub: "SubscriptionHub",
                 patterns: Optional[frozenset], tenants: Optional[frozenset],
                 max_queue: int, policy: str, cursor: int):
        self.subscriber_id = subscriber_id
        self._hub = hub
        self.patterns = patterns
        self.tenants = tenants
        self.max_queue = max_queue
        self.policy = policy
        self.cursor = cursor
        self.sheds = 0
        self.delivered = 0
        self.closed = False
        self.close_reason: Optional[str] = None
        self.wake: Optional[Callable[[], None]] = None
        self._queue: deque = deque()
        self._degraded: Optional[Dict[Optional[str], int]] = None
        self._pending_gap = 0
        self.attached_at = time.time()

    # -- matching ------------------------------------------------------
    def wants(self, entry: DeliveredEntry) -> bool:
        if self.patterns is not None and entry.pattern_id not in self.patterns:
            return False
        if self.tenants is not None and entry.tenant not in self.tenants:
            return False
        return True

    # -- consumption (transport side) ----------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def pop(self) -> Optional[Tuple[str, Any]]:
        """Next queued item, or ``None`` when there is nothing to send.

        Emits a coalesced ``gap`` notice ahead of the next match after
        sheds, and the ``aggregates`` notice that ends a degraded
        stretch once the queue is empty again.
        """
        with self._hub._lock:
            if self._pending_gap and self._queue:
                notice = {"shed": self._pending_gap, "cursor": self.cursor}
                self._pending_gap = 0
                return "gap", notice
            if self._queue:
                kind, payload = self._queue.popleft()
                if kind == "match":
                    self.delivered += 1
                    self._hub._observe_delivery(payload, self)
                return kind, payload
            if self._degraded is not None:
                counts = {key or "": value
                          for key, value in self._degraded.items()}
                self._degraded = None
                return "aggregates", {"counts": counts,
                                      "cursor": self.cursor}
            return None

    def drain_items(self) -> List[Tuple[str, Any]]:
        """Pop everything currently available (sync consumers/tests)."""
        items = []
        while True:
            item = self.pop()
            if item is None:
                return items
            items.append(item)

    @property
    def idle(self) -> bool:
        """True when nothing is queued or pending for this subscriber."""
        with self._hub._lock:
            return (not self._queue and self._degraded is None
                    and not self._pending_gap)

    def close(self, reason: str = "detached") -> None:
        """Detach this subscriber (idempotent)."""
        self._hub.detach(self, reason=reason)

    def __repr__(self) -> str:
        return (f"Subscriber({self.subscriber_id!r}, cursor={self.cursor}, "
                f"depth={self.queue_depth}, policy={self.policy})")


class SubscriptionHub:
    """Fan-out hub with durable cursors; see the module docstring.

    Parameters
    ----------
    ring_size:
        Replay-ring capacity (in-memory resume window).
    wal:
        Optional :class:`~repro.resilience.delivery.DeliveryLog`.  When
        given, every batch of publishes is persisted, on the log
        writer's thread, before delivery, cursors resume across
        restarts, and previously delivered matches are deduplicated by
        (pattern id, match id) on re-publication.  A log object without
        ``append_many`` (only ``append`` / ``__iter__`` /
        ``entries_after`` / ``path``) is committed record by record.
    observability:
        Optional :class:`~repro.obs.Observability` bundle for the
        ``ses_subscribers`` / ``ses_sub_*`` metrics and per-subscriber
        lineage push hops.
    default_queue / default_policy:
        Per-subscriber bounds applied when :meth:`attach` does not
        override them.
    heartbeat_seconds / idle_timeout_seconds:
        Advisory intervals the transports read (the hub itself has no
        clock loop): how often to emit keep-alives, and after how much
        consumer silence to disconnect.
    """

    def __init__(self, ring_size: int = DEFAULT_RING, wal=None,
                 observability=None, default_queue: int = DEFAULT_QUEUE,
                 default_policy: str = "disconnect",
                 heartbeat_seconds: float = 15.0,
                 idle_timeout_seconds: float = 300.0):
        if default_policy not in POLICIES:
            raise ValueError(f"unknown slow-consumer policy "
                             f"{default_policy!r}; expected one of {POLICIES}")
        if ring_size < 1:
            raise ValueError("ring_size must be >= 1")
        self._lock = threading.RLock()
        self._ring: deque = deque(maxlen=ring_size)
        self._wal = wal
        self._subscribers: Dict[str, Subscriber] = {}
        self._ids = itertools.count(1)
        self._seen: "deque[Tuple[Optional[str], str]]" = deque(
            maxlen=DEDUP_CAPACITY)
        self._seen_set: set = set()
        # First cursor not yet durable; in-flight, then pending entries
        # count up from it.
        self._next_seq = 0
        # Open batch scope: published-but-uncommitted entries by dedup
        # key, in publish order (None outside a scope).
        self._pending: Optional[Dict[Tuple[Optional[str], str],
                                     DeliveredEntry]] = None
        # Handed to the log writer but not yet durable, by dedup key in
        # cursor order; and the hand-overs it has not taken yet, each
        # ``(ticket, owner thread id, entries)``.
        self._in_flight: Dict[Tuple[Optional[str], str],
                              DeliveredEntry] = {}
        self._handed_over: List[Tuple[int, int, List[DeliveredEntry]]] = []
        self._tickets = 0  # hand-overs made
        self._settled = 0  # hand-overs durable and offered, or failed
        # Per owner thread: its last failed hand-over, until sync() or a
        # later failure takes the slot.
        self._failed: Dict[int, Tuple[int, BaseException]] = {}
        # Failed hand-overs no sync() relayed to their owner.
        self._commit_errors = 0
        # .ticket: this thread's last hand-over (None: nothing to relay).
        self._local = threading.local()
        self._work = threading.Condition(self._lock)
        self._synced = threading.Condition(self._lock)
        self._writer: Optional[threading.Thread] = None
        self._draining = False
        self.default_queue = default_queue
        self.default_policy = default_policy
        self.heartbeat_seconds = heartbeat_seconds
        self.idle_timeout_seconds = idle_timeout_seconds
        self._obs = observability
        registry = None if observability is None else observability.registry
        if registry is not None:
            self._g_subscribers = registry.gauge(
                "ses_subscribers", help="attached push subscribers")
            self._g_depth = registry.gauge(
                "ses_sub_queue_depth",
                help="deepest per-subscriber delivery queue")
            self._c_shed = registry.counter(
                "ses_sub_shed_total",
                help="queued matches dropped by the shed policy")
            self._c_degraded = registry.counter(
                "ses_sub_degraded_total",
                help="matches collapsed to aggregate counts (degrade)")
            self._c_disconnected = registry.counter(
                "ses_sub_disconnected_total",
                help="subscribers dropped by the disconnect policy")
            self._c_published = registry.counter(
                "ses_push_published_total",
                help="matches published to the subscription hub")
            self._c_duplicates = registry.counter(
                "ses_push_duplicates_suppressed_total",
                help="re-published matches suppressed by match-id dedup")
            self._h_latency = registry.histogram(
                "ses_sub_delivery_latency_seconds",
                help="publish-to-delivery latency per match")
        else:
            self._g_subscribers = self._g_depth = None
            self._c_shed = self._c_degraded = self._c_disconnected = None
            self._c_published = self._c_duplicates = self._h_latency = None
        if wal is not None:
            self._recover(wal)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, wal) -> None:
        """Reload cursors, dedup set and ring tail from the WAL."""
        for record in wal:
            try:
                entry = DeliveredEntry.from_record(record)
            except KeyError:
                continue
            self._next_seq = max(self._next_seq, entry.seq + 1)
            self._remember((entry.pattern_id, entry.match_id))
            self._ring.append(entry)

    def _remember(self, key: Tuple[Optional[str], str]) -> None:
        if key in self._seen_set:
            return
        if len(self._seen) == self._seen.maxlen:
            self._seen_set.discard(self._seen[0])
        self._seen.append(key)
        self._seen_set.add(key)

    # ------------------------------------------------------------------
    # Publication (matcher side)
    # ------------------------------------------------------------------
    def publish(self, match, pattern_id: Optional[str] = None,
                tenant: Optional[str] = None) -> Optional[DeliveredEntry]:
        """Publish one reported match to every interested subscriber.

        ``match`` is anything substitution-shaped (a
        :class:`~repro.agg.result.Match` or a bare substitution).
        Returns the assigned entry, or ``None`` when the match was a
        duplicate (already delivered, e.g. re-reported by a supervisor
        replay, or already pending in the open batch or in flight to
        the log) or the hub is draining.  Inside a :meth:`batch` scope
        the entry is durable and delivered only after the scope exits;
        outside one, by the time this returns (a failed append raises
        here).
        """
        substitution = getattr(match, "substitution", match)
        if pattern_id is None:
            pattern_id = getattr(match, "pattern_id", None)
        # The canonical binding order, sorted once: the match id hashes
        # it and the payload lists it.
        bindings = list(substitution)
        mid = compute_match_id(bindings)
        key = (pattern_id, mid)
        with self._lock:
            if self._draining:
                return None
            pending = self._pending
            if (key in self._seen_set or key in self._in_flight
                    or (pending is not None and key in pending)):
                if self._c_duplicates is not None:
                    self._c_duplicates.inc()
                return None
            seq = self._next_seq + len(self._in_flight) + len(pending or ())
            payload = self._payload(bindings, mid, seq, pattern_id, tenant)
            entry = DeliveredEntry(seq=seq, match_id=mid,
                                   pattern_id=pattern_id, tenant=tenant,
                                   payload=payload, published=time.time())
            if pending is not None:
                pending[key] = entry
                return entry
            self._commit({key: entry})
        self.sync()
        return entry

    @contextmanager
    def batch(self) -> Iterator[None]:
        """Scope making the publishes inside it one unit of durability.

        On exit — also when the body raises — everything published in
        the scope is committed together: handed to the log writer (one
        append, then delivery, while this thread goes on), or delivered
        inline when the hub has no log.  :meth:`sync` waits for the
        commit and raises its failure.  A scope opened inside another
        joins the outer one.
        """
        with self._lock:
            outermost = self._pending is None
            if outermost:
                self._pending = {}
        try:
            yield
        finally:
            if outermost:
                with self._lock:
                    pending, self._pending = self._pending, None
                    self._commit(pending)

    def sync(self) -> None:
        """Wait until everything handed to the log writer is durable and
        offered; then re-raise the failure of the calling thread's last
        batch, if its commit failed (once: the failure is relayed here,
        not counted as lost)."""
        with self._lock:
            ticket = getattr(self._local, "ticket", None)
            self._local.ticket = None
            target = self._tickets
            while self._settled < target:
                self._synced.wait()
            owner = threading.get_ident()
            failed = self._failed.get(owner)
            if ticket is None or failed is None or failed[0] != ticket:
                return
            del self._failed[owner]
            self._commit_errors -= 1
        raise failed[1]

    def _commit(self, pending: Dict[Tuple[Optional[str], str],
                                    DeliveredEntry]) -> None:
        """Commit a closed batch (under the lock): deliver it inline
        without a log; otherwise hand it to the log writer, starting
        the writer's thread when none runs."""
        self._local.ticket = None
        if not pending:
            return
        if self._wal is None:
            self._deliver(list(pending.values()))
            return
        ticket = self._tickets
        self._tickets += 1
        self._local.ticket = ticket
        self._in_flight.update(pending)
        self._handed_over.append(
            (ticket, threading.get_ident(), list(pending.values())))
        if self._writer is None:
            self._writer = threading.Thread(
                target=self._write_log, daemon=True, name="repro-hub-log")
            self._writer.start()
        self._work.notify()

    def _write_log(self) -> None:
        """The log writer: take everything handed over since the last
        append and commit it, until idle for ``_WRITER_IDLE_SECONDS``.

        With ``append_many`` all of it is one append; a log offering
        only ``append`` is committed record by record, each record
        delivered after its own append and a failed record dropping the
        rest of its batch.
        """
        append_many = getattr(self._wal, "append_many", None)
        while True:
            with self._lock:
                while not self._handed_over:
                    if (not self._work.wait(_WRITER_IDLE_SECONDS)
                            and not self._handed_over):
                        self._writer = None
                        return
                taken, self._handed_over = self._handed_over, []
            try:
                if append_many is not None:
                    entries = [entry for _, _, batch in taken
                               for entry in batch]
                    self._persist(taken, entries, append_many)
                else:
                    for handover in taken:
                        for index, entry in enumerate(handover[2]):
                            if not self._persist([handover], [entry],
                                                 self._append_one,
                                                 handover[2][index:]):
                                break
            finally:
                with self._lock:
                    self._settled += len(taken)
                    self._synced.notify_all()

    def _append_one(self, records: List[Dict[str, Any]]) -> None:
        self._wal.append(records[0])

    def _persist(self, handovers, entries: List[DeliveredEntry],
                 append: Callable[[List[Dict[str, Any]]], None],
                 dropped: Optional[List[DeliveredEntry]] = None) -> bool:
        """Append ``entries`` (off the lock), then deliver them; if the
        append raises, drop ``dropped`` (default: ``entries``) instead.
        Either failure is the failure of every hand-over in
        ``handovers``.  Returns whether the append succeeded."""
        try:
            append([entry.to_record() for entry in entries])
        except Exception as exc:  # noqa: BLE001 - relayed by sync()
            logger.error("delivery log append failed: %d match(es) of %d "
                         "batch(es) dropped", len(dropped or entries),
                         len(handovers), exc_info=exc)
            logged = self._last_logged()
            with self._lock:
                self._drop(dropped or entries, logged)
                self._fail(handovers, exc)
            return False
        with self._lock:
            for entry in entries:
                del self._in_flight[(entry.pattern_id, entry.match_id)]
            try:
                self._deliver(entries)
            except Exception as exc:  # noqa: BLE001 - relayed by sync()
                logger.error("delivery of %d durable match(es) failed",
                             len(entries), exc_info=exc)
                self._fail(handovers, exc)
        return True

    def _last_logged(self) -> int:
        """Highest cursor the log holds (``-1`` when it holds none or
        cannot be read); asked after a failed append, off the lock."""
        try:
            return max((record.get("seq", -1) for record in self._wal),
                       default=-1)
        except Exception:  # noqa: BLE001 - the append's error is reported
            return -1

    def _drop(self, entries: List[DeliveredEntry], logged: int) -> None:
        """Forget in-flight entries whose append failed (under the lock):
        the entries handed over or published since take their cursors,
        so the sequence stays gap-free.  A failed append normally leaves
        nothing in the log; when it left records anyway (``logged``, the
        highest cursor the log holds, reaches them), numbering resumes
        above them, so no cursor the log holds is reused."""
        for entry in entries:
            del self._in_flight[(entry.pattern_id, entry.match_id)]
        self._next_seq = seq = max(self._next_seq, logged + 1)
        for entry in itertools.chain(self._in_flight.values(),
                                     (self._pending or {}).values()):
            entry.seq = entry.payload["seq"] = seq
            entry._payload_json = None
            seq += 1

    def _fail(self, handovers, exc: BaseException) -> None:
        """Record each hand-over's failure for its owner's :meth:`sync`
        (under the lock); until relayed it counts as a lost commit."""
        for ticket, owner, _ in handovers:
            if self._failed.get(owner, (None,))[0] != ticket:
                self._commit_errors += 1
            self._failed[owner] = (ticket, exc)

    def _deliver(self, entries: List[DeliveredEntry]) -> None:
        """Remember, ring and offer durable entries, then wake each
        offered subscriber once (under the lock)."""
        self._next_seq = entries[-1].seq + 1
        for entry in entries:
            self._remember((entry.pattern_id, entry.match_id))
            self._ring.append(entry)
        if self._c_published is not None:
            self._c_published.inc(len(entries))
        subscribers = list(self._subscribers.values())
        offered = set()
        for entry in entries:
            for subscriber in subscribers:
                if not subscriber.closed and subscriber.wants(entry):
                    self._offer(subscriber, entry)
                    offered.add(subscriber)
        # One wake-up per subscriber per commit, once its share of the
        # batch is queued (a disconnect already woke its own).
        for subscriber in offered:
            if not subscriber.closed:
                self._wake(subscriber)
        self._publish_gauges()

    @staticmethod
    def _payload(canonical, mid: str, seq: int, pattern_id: Optional[str],
                 tenant: Optional[str]) -> Dict[str, Any]:
        """The wire payload of a match from its bindings in canonical
        (hence chronological) order."""
        bindings = {}
        for variable, event in canonical:
            obj = {"ts": event.ts, "eid": event.eid,
                   "attrs": event.attributes}
            if variable.name in bindings:  # group variable: list form
                existing = bindings[variable.name]
                if isinstance(existing, list):
                    existing.append(obj)
                else:
                    bindings[variable.name] = [existing, obj]
            else:
                bindings[variable.name] = obj
        return {"seq": seq, "match_id": mid, "pattern_id": pattern_id,
                "tenant": tenant, "min_ts": canonical[0][1].ts,
                "max_ts": canonical[-1][1].ts, "bindings": bindings}

    def _offer(self, subscriber: Subscriber, entry: DeliveredEntry) -> None:
        """Enqueue under the lock, applying the slow-consumer policy;
        :meth:`_deliver` wakes the subscriber when the batch is queued."""
        full = (subscriber._degraded is None
                and len(subscriber._queue) >= subscriber.max_queue)
        if full and subscriber.policy == "disconnect":
            # The cursor stays on the last entry queued: it is the
            # resume token of the disconnect notice.
            if self._c_disconnected is not None:
                self._c_disconnected.inc()
            self._detach_locked(subscriber, reason="slow-consumer")
            return
        subscriber.cursor = entry.seq
        if subscriber._degraded is not None:
            subscriber._degraded[entry.pattern_id] = (
                subscriber._degraded.get(entry.pattern_id, 0) + 1)
            if self._c_degraded is not None:
                self._c_degraded.inc()
            return
        if full:
            if subscriber.policy == "shed":
                shed = 0
                while (len(subscriber._queue) >= subscriber.max_queue
                       and subscriber._queue):
                    kind, _ = subscriber._queue.popleft()
                    if kind == "match":
                        shed += 1
                subscriber.sheds += shed
                subscriber._pending_gap += shed
                if self._c_shed is not None:
                    self._c_shed.inc(shed)
            else:  # degrade
                counts: Dict[Optional[str], int] = {}
                for kind, queued in subscriber._queue:
                    if kind == "match":
                        counts[queued.pattern_id] = (
                            counts.get(queued.pattern_id, 0) + 1)
                subscriber._queue.clear()
                counts[entry.pattern_id] = counts.get(entry.pattern_id, 0) + 1
                subscriber._degraded = counts
                if self._c_degraded is not None:
                    self._c_degraded.inc(sum(counts.values()))
                return
        subscriber._queue.append(("match", entry))

    @staticmethod
    def _wake(subscriber: Subscriber) -> None:
        wake = subscriber.wake
        if wake is not None:
            wake()

    def _observe_delivery(self, entry: DeliveredEntry,
                          subscriber: Subscriber) -> None:
        if self._h_latency is not None:
            self._h_latency.observe(max(time.time() - entry.published, 0.0))
        lineage = None if self._obs is None else self._obs.lineage
        if lineage is not None:
            lineage.note_push(entry.match_id, subscriber.subscriber_id)

    # ------------------------------------------------------------------
    # Attach / detach (transport side)
    # ------------------------------------------------------------------
    def attach(self, subscriber_id: Optional[str] = None,
               patterns: Optional[Iterable[str]] = None,
               tenants: Optional[Iterable[str]] = None,
               resume_after: Optional[int] = None,
               queue_size: Optional[int] = None,
               policy: Optional[str] = None) -> Subscriber:
        """Attach a subscriber, optionally resuming after a cursor.

        ``resume_after`` is the subscriber's last received cursor
        (``Last-Event-ID``): every retained entry above it that passes
        the filters is queued before any live match.  ``None`` starts
        at the live tail.  Raises :class:`ValueError` for an unknown
        policy or a duplicate subscriber id.
        """
        policy = policy or self.default_policy
        if policy not in POLICIES:
            raise ValueError(f"unknown slow-consumer policy {policy!r}; "
                             f"expected one of {POLICIES}")
        with self._lock:
            if subscriber_id is None:
                subscriber_id = f"sub-{next(self._ids)}"
            elif subscriber_id in self._subscribers:
                raise ValueError(
                    f"subscriber id {subscriber_id!r} already attached")
            subscriber = Subscriber(
                subscriber_id, self,
                patterns=frozenset(patterns) if patterns else None,
                tenants=frozenset(tenants) if tenants else None,
                max_queue=queue_size or self.default_queue,
                policy=policy,
                cursor=resume_after if resume_after is not None
                else self._next_seq - 1)
            if resume_after is not None:
                for entry in self._replay_after(resume_after):
                    subscriber.cursor = entry.seq
                    if subscriber.wants(entry):
                        # Replay ignores queue bounds: resume must be
                        # gap-free; the transport writes it straight out.
                        subscriber._queue.append(("match", entry))
            self._subscribers[subscriber.subscriber_id] = subscriber
            if self._draining:
                subscriber._queue.append(
                    ("drain", {"resume": subscriber.cursor}))
            self._publish_gauges()
            return subscriber

    def _replay_after(self, cursor: int) -> List[DeliveredEntry]:
        """Retained entries above ``cursor``, ring first, WAL spill."""
        ring = [entry for entry in self._ring if entry.seq > cursor]
        if ring and ring[0].seq <= cursor + 1:
            return ring
        if self._wal is not None:
            ring_start = ring[0].seq if ring else self._next_seq
            spilled = [DeliveredEntry.from_record(record)
                       for record in self._wal.entries_after(cursor)
                       if record.get("seq", ring_start) < ring_start]
            return spilled + ring
        return ring

    def detach(self, subscriber: Subscriber, reason: str = "detached") -> None:
        with self._lock:
            self._detach_locked(subscriber, reason)

    def _detach_locked(self, subscriber: Subscriber, reason: str) -> None:
        if subscriber.closed:
            return
        subscriber.closed = True
        subscriber.close_reason = reason
        self._subscribers.pop(subscriber.subscriber_id, None)
        self._publish_gauges()
        self._wake(subscriber)

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self) -> int:
        """Stop accepting publishes; queue a terminal ``drain`` notice
        (carrying each subscriber's resume token) behind every backlog.
        Returns the number of subscribers notified.  Idempotent.  Waits
        for the log writer first, so the notice follows every match
        handed to it."""
        with self._lock:
            while self._settled < self._tickets:
                self._synced.wait()
            if self._draining:
                return 0
            self._draining = True
            notified = 0
            for subscriber in list(self._subscribers.values()):
                subscriber._queue.append(
                    ("drain", {"resume": subscriber.cursor}))
                self._wake(subscriber)
                notified += 1
            return notified

    def wait_drained(self, timeout: float = 5.0) -> bool:
        """Wait (polling) until every subscriber consumed its backlog —
        including the terminal drain notice — or the timeout passes."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._lock:
                if all(not s._queue and s._degraded is None
                       for s in self._subscribers.values()):
                    return True
            time.sleep(0.01)
        with self._lock:
            return all(not s._queue and s._degraded is None
                       for s in self._subscribers.values())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Highest durable cursor (``-1`` before the first commit)."""
        return self._next_seq - 1

    @property
    def subscribers(self) -> List[Subscriber]:
        with self._lock:
            return list(self._subscribers.values())

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "subscribers": len(self._subscribers),
                "last_seq": self.last_seq,
                "ring": len(self._ring),
                "draining": self._draining,
                "wal": None if self._wal is None else str(self._wal.path),
                "queues": {s.subscriber_id: s.queue_depth
                           for s in self._subscribers.values()},
                "sheds": {s.subscriber_id: s.sheds
                          for s in self._subscribers.values()
                          if s.sheds},
            }

    def _publish_gauges(self) -> None:
        if self._g_subscribers is None:
            return
        self._g_subscribers.set(len(self._subscribers))
        self._g_depth.set(max(
            (s.queue_depth for s in self._subscribers.values()), default=0))

    def __repr__(self) -> str:
        return (f"SubscriptionHub({len(self._subscribers)} subscribers, "
                f"last_seq={self.last_seq}, "
                f"{'draining' if self._draining else 'live'})")
