"""The asyncio push front-end: backpressured ingest + SSE fan-out.

:class:`PushServer` is the network half of ``repro serve --subscribe``.
One listener speaks two protocols, sniffed from the first bytes of each
connection:

* **length-framed ingest** (:mod:`repro.net.protocol`) — the one way
  events come in, the batch protocol ``repro push`` speaks; a full
  queue answers ``slow_down`` frames instead of buffering (explicit
  backpressure);
* **HTTP/1.1** — ``GET /subscribe`` (the one way matches go out: an SSE
  stream, resumable via ``Last-Event-ID``), ``GET /healthz``, ``GET
  /statz``, and ``POST /quitquitquit`` (graceful drain).

The server runs its own event loop on a daemon thread (``start()`` /
``shutdown()`` from any thread).  Matcher calls are serialised on a
single worker thread so a slow pattern never blocks heartbeats or
accept.  Ingested batches flow::

    conn -> bounded asyncio.Queue -> match worker takes a run: the
            batches already queued, up to RUN_EVENTS events
         -> matcher.push_many, once per batch of the run, in order
         -> (on_match callback wired by the caller) -> hub.publish
         -> [end of run: one WAL append + fsync for its matches]
         -> subscriber queues -> SSE writers, one write per backlog

The run is the unit of durability, the batch the unit of failure.  A
run is whatever event batches are queued when the worker comes back for
more — one batch when the server keeps up, several under load, never
across a ``submit_call`` barrier.  Each run, each barrier and the
end-of-stream flush runs inside one :meth:`SubscriptionHub.batch`
scope, so all matches a run reports are committed to the delivery log
together, before any subscriber sees one and before the next run is
matched; a batch that raises costs that batch alone.

Graceful drain (``shutdown()``, SIGTERM via the CLI, or ``POST
/quitquitquit``): stop admitting batches (``draining`` frames),
drain the ingest queue through the matcher, flush the matcher's
still-open windows, then :meth:`SubscriptionHub.drain` — every
subscriber receives its backlog plus a terminal ``drain`` event
carrying the cursor to resume from after the restart.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from http import HTTPStatus
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .hub import SubscriptionHub, Subscriber
from .protocol import (MAX_FRAME_BYTES, PROTO_VERSION, FrameDecoder,
                       FrameError, encode_frame, events_from_json,
                       sse_format, sse_frame)

__all__ = ["PushServer", "read_http_request", "write_http_response"]

logger = logging.getLogger(__name__)

#: Request head cap (request line + headers): the listeners' stream limit.
MAX_HTTP_HEAD = 64 * 1024

#: Seconds an HTTP request may take to send its head, and again its
#: body, before the connection is closed without a reply.
HTTP_READ_TIMEOUT = 30.0

#: The delay a ``slow_down`` frame hints to a backpressured producer.
RETRY_AFTER_MS = 250

#: ``(method, target, headers, body)`` of one HTTP request.
HTTPRequest = Tuple[str, str, Dict[str, str], bytes]

#: HTTP methods used to sniff HTTP from framed-ingest connections.
_HTTP_PREFIXES = (b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI",
                  b"PATC")

_CLOSE = object()  # ingest-queue sentinel

#: A run takes no further batch once it holds this many events.  It is
#: also the batch size of the local replay (``submit_events``), so one
#: commit never offers a subscriber more than a replay batch plus one
#: trailing frame would.
RUN_EVENTS = 256

#: Bytes per socket read on the ingest side, and the size past which one
#: delivery write takes no further frame.
IO_CHUNK_BYTES = 64 * 1024


async def read_http_request(reader: asyncio.StreamReader, writer,
                            initial: bytes = b"") -> Optional[HTTPRequest]:
    """Read one request: ``(method, target, headers, body)``, header names
    lower-cased, ``initial`` being what the caller already read.

    ``None`` means the request was answered here — 431 for a head over
    :data:`MAX_HTTP_HEAD`, 400 for a bad request line or a
    ``Content-Length`` that is not a non-negative integer, 413 for a body
    over ``MAX_FRAME_BYTES`` before any of it is read — or that the peer
    left or stayed silent for :data:`HTTP_READ_TIMEOUT`.
    """
    try:
        head = initial + await asyncio.wait_for(
            reader.readuntil(b"\r\n\r\n"), HTTP_READ_TIMEOUT)
    except asyncio.LimitOverrunError:
        return await write_http_response(writer, 431,
                                         {"error": "headers too large"})
    except (asyncio.IncompleteReadError, asyncio.TimeoutError):
        return None
    lines = head[:-4].decode("latin-1").split("\r\n")
    request_line = lines[0].split(" ", 2)
    if len(request_line) != 3:
        return await write_http_response(writer, 400,
                                         {"error": "bad request line"})
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        return await write_http_response(
            writer, 400, {"error": f"bad Content-Length {length!r}"})
    if int(length) > MAX_FRAME_BYTES:
        return await write_http_response(writer, 413, {
            "error": f"body of {length} bytes exceeds {MAX_FRAME_BYTES}"})
    try:
        body = await asyncio.wait_for(reader.readexactly(int(length)),
                                      HTTP_READ_TIMEOUT)
    except (asyncio.IncompleteReadError, asyncio.TimeoutError):
        return None
    return request_line[0], request_line[1], headers, body


async def write_http_response(writer, status: int, payload,
                              content_type: str = "application/json") -> None:
    """Write one response (``payload`` as ``bytes``, or a value sent as a
    line of JSON) and drain."""
    if not isinstance(payload, bytes):
        payload = (json.dumps(payload, default=str) + "\n").encode("utf-8")
    head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    writer.write(head.encode("latin-1") + payload)
    await writer.drain()


class PushServer:
    """Asyncio ingestion + subscription front-end over one port.

    Parameters
    ----------
    hub:
        The :class:`~repro.net.hub.SubscriptionHub` matches are
        published to (the caller wires the matcher's ``on_match`` to
        ``hub.publish``).
    submit:
        Callable taking a list of events; invoked on the match worker
        thread for every admitted batch (e.g. ``matcher.push_many``).
    flush:
        Optional callable invoked once during drain, after the last
        batch — close/flush the matcher so end-of-stream matches are
        published before subscribers get their terminal notice.
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    ingest_queue:
        Bound on queued-but-unprocessed batches.  A full queue is the
        backpressure signal: framed clients get ``slow_down``.
    observability:
        Optional :class:`~repro.obs.Observability` for the
        ``ses_ingest_*`` metrics.
    health:
        Optional callable returning ``(healthy, detail)`` for
        ``/healthz`` (defaults to hub stats, always healthy).
    on_quit:
        Callback invoked when a remote peer requests drain via ``POST
        /quitquitquit`` (typically the serve loop's ``stop.set``); the
        caller is then expected to call :meth:`shutdown`.  Without one
        the server schedules its own shutdown.
    """

    def __init__(self, hub: SubscriptionHub, submit: Callable[[list], Any],
                 flush: Optional[Callable[[], Any]] = None,
                 host: str = "127.0.0.1", port: int = 0,
                 ingest_queue: int = 64,
                 observability=None,
                 health: Optional[Callable[[], Tuple[bool, dict]]] = None,
                 on_quit: Optional[Callable[[], None]] = None):
        self.hub = hub
        self._submit = submit
        self._flush = flush
        self._host_arg = host
        self._port_arg = port
        self.host = host
        self.port = port
        self.ingest_queue_size = ingest_queue
        self._health = health
        self._on_quit = on_quit
        self._obs = observability
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._queue: Optional[asyncio.Queue] = None
        self._matcher_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-push-matcher")
        self._draining = False
        self._closed = False
        self._ingest_errors = 0
        self._ingest_runs = 0
        registry = None if observability is None else observability.registry
        if registry is not None:
            self._c_batches = registry.counter(
                "ses_ingest_batches_total", help="event batches admitted")
            self._c_runs = registry.counter(
                "ses_ingest_runs_total",
                help="runs of queued batches matched and committed together")
            self._c_events = registry.counter(
                "ses_ingest_events_total", help="events admitted")
            self._c_backpressure = registry.counter(
                "ses_ingest_backpressure_total",
                help="batches refused with slow_down")
            self._g_depth = registry.gauge(
                "ses_ingest_queue_depth", help="queued unprocessed batches")
        else:
            self._c_batches = self._c_runs = self._c_events = None
            self._c_backpressure = self._g_depth = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PushServer":
        """Bind and serve on a daemon thread; returns once listening."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-push-server")
        self._thread.start()
        self._started.wait(10.0)
        if self._start_error is not None:
            raise self._start_error
        if not self._started.is_set():
            raise RuntimeError("push server failed to start in time")
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception:  # pragma: no cover - surfaced via _start_error
            logger.exception("push server loop died")
        finally:
            self._started.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.ingest_queue_size)
        try:
            self._server = await asyncio.start_server(
                self._handle_conn, self._host_arg, self._port_arg,
                limit=MAX_HTTP_HEAD)
        except OSError as exc:
            self._start_error = exc
            return
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._stopped = asyncio.Event()
        worker = asyncio.ensure_future(self._match_worker())
        self._started.set()
        logger.info("push endpoint listening on %s", self.url)
        try:
            await self._stopped.wait()
        finally:
            worker.cancel()
            self._server.close()
            await self._server.wait_closed()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_drain(self) -> None:
        """Trigger the drain path from anywhere (thread-safe)."""
        if self._on_quit is not None:
            self._on_quit()
        else:
            threading.Thread(target=self.shutdown, daemon=True).start()

    def shutdown(self, grace: float = 5.0) -> None:
        """Graceful drain + stop; safe to call from any thread, once.

        Ordering: refuse new batches -> drain the ingest queue through
        the matcher -> ``flush`` the matcher (end-of-stream matches
        publish) -> drain the hub (terminal notices) -> wait up to
        ``grace`` for subscribers to consume -> tear the loop down.
        """
        if self._closed or self._loop is None:
            return
        self._closed = True
        self._draining = True
        loop = self._loop
        future = asyncio.run_coroutine_threadsafe(self._drain_ingest(), loop)
        try:
            future.result(timeout=max(grace, 1.0) + 30.0)
        except Exception:
            logger.exception("ingest drain failed; flushing anyway")
        try:
            if self._flush is not None:
                with self.hub.batch():
                    self._flush()
        except Exception:
            logger.exception("matcher flush failed during drain")
        self.hub.drain()
        self.hub.wait_drained(timeout=grace)
        asyncio.run_coroutine_threadsafe(
            self._finish(grace), loop).result(timeout=grace + 10.0)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._matcher_pool.shutdown(wait=False)

    async def _drain_ingest(self) -> None:
        """Process every already-admitted batch, then stop the worker."""
        assert self._queue is not None
        await self._queue.put(_CLOSE)
        await self._queue.join()

    async def _finish(self, grace: float) -> None:
        # Give SSE writers a beat to flush their terminal notices.
        deadline = time.monotonic() + grace
        while time.monotonic() < deadline:
            if all(s.idle for s in self.hub.subscribers):
                break
            await asyncio.sleep(0.02)
        self._stopped.set()

    # ------------------------------------------------------------------
    # Local producer (the CLI replay path)
    # ------------------------------------------------------------------
    def submit_events(self, events, batch_size: int = RUN_EVENTS,
                      timeout: Optional[float] = None) -> int:
        """Feed local events through the same bounded ingest queue.

        Blocks (honouring the queue bound — the local producer gets the
        same backpressure remote ones do) until every batch is
        admitted; returns the number of events submitted.
        """
        if self._loop is None:
            raise RuntimeError("push server is not running")

        async def admit(batch: List) -> None:
            await self._queue.put(batch)
            self._count_admitted(batch)

        events = list(events)
        for start in range(0, len(events), batch_size):
            future = asyncio.run_coroutine_threadsafe(
                admit(events[start:start + batch_size]), self._loop)
            future.result(timeout=timeout)
        return len(events)

    def submit_call(self, fn: Callable[[], Any],
                    timeout: Optional[float] = None) -> Any:
        """Run ``fn`` on the matcher worker, after everything queued.

        Matchers are not thread-safe; barriers like ``flush()`` must
        run where the batches do.  ``fn`` runs as one hub batch; blocks
        until it returned and the matches it published are committed
        (an exception from either propagates here, not into the worker).
        """
        if self._loop is None:
            raise RuntimeError("push server is not running")
        done = threading.Event()
        box: List[Any] = []

        def call() -> None:
            try:
                with self.hub.batch():
                    value = fn()
                box.append(("ok", value))
            except BaseException as exc:  # noqa: BLE001 - relayed below
                box.append(("err", exc))
            finally:
                done.set()

        asyncio.run_coroutine_threadsafe(
            self._queue.put(call), self._loop).result(timeout=timeout)
        if not done.wait(timeout if timeout is not None else 600.0):
            raise TimeoutError("matcher worker did not run the call")
        status, value = box[0]
        if status == "err":
            raise value
        return value

    def wait_idle(self, timeout: Optional[float] = None) -> None:
        """Block until every admitted batch has been processed."""
        self.submit_call(lambda: None, timeout=timeout)

    # ------------------------------------------------------------------
    # Match worker
    # ------------------------------------------------------------------
    async def _match_worker(self) -> None:
        """Hand the matcher thread what is queued, a run at a time.

        A run is the first queued event batch plus every batch already
        behind it (never waited for) while it holds fewer than
        :data:`RUN_EVENTS` events.  A ``submit_call`` barrier or the
        close sentinel met on the way ends the run and is handled next,
        so barriers keep their place in the order.
        """
        queue = self._queue
        assert queue is not None
        loop = asyncio.get_running_loop()
        held = None  # taken off the queue while collecting a run
        while True:
            item = await queue.get() if held is None else held
            held = None
            if item is _CLOSE:
                queue.task_done()
                return
            taken = 1
            if isinstance(item, list):
                run = [item]
                events = len(item)
                while events < RUN_EVENTS and not queue.empty():
                    behind = queue.get_nowait()
                    if not isinstance(behind, list):
                        held = behind
                        break
                    run.append(behind)
                    events += len(behind)
                taken = len(run)
                job = partial(self._run_batches, run)
                self._ingest_runs += 1
                if self._c_runs is not None:
                    self._c_runs.inc()
            else:  # a submit_call barrier, not events
                job = item
            if self._g_depth is not None:
                self._g_depth.set(queue.qsize())
            try:
                await loop.run_in_executor(self._matcher_pool, job)
            except Exception:
                # Only the commit raises here (batches and barriers
                # catch their own): nothing of the run was delivered.
                self._ingest_errors += 1
                logger.exception("commit failed for a run of %d batch(es)",
                                 taken)
            finally:
                for _ in range(taken):
                    queue.task_done()

    def _run_batches(self, run: List[List]) -> None:
        """Match a run of ingest batches as one hub batch: the matches
        they report share a WAL append + fsync, and are delivered before
        the next run is matched.  ``submit`` still sees one batch at a
        time, in arrival order: a batch that raises (out-of-order
        timestamps, a tripped guard) is counted, logged and skipped
        without taking the batches queued behind it along."""
        with self.hub.batch():
            for events in run:
                try:
                    self._submit(events)
                except Exception:
                    # A poisoned batch must not kill delivery for
                    # everyone; supervised serves quarantine poison
                    # upstream of here.
                    self._ingest_errors += 1
                    logger.exception(
                        "match worker failed on a batch of %d", len(events))

    def _count_admitted(self, events: List) -> None:
        if self._c_batches is not None:
            self._c_batches.inc()
            self._c_events.inc(len(events))
            self._g_depth.set(self._queue.qsize())

    def _admit(self, events: List) -> bool:
        """Try to enqueue a decoded batch; False means backpressure."""
        if self._draining or self._queue is None:
            return False
        try:
            self._queue.put_nowait(events)
        except asyncio.QueueFull:
            if self._c_backpressure is not None:
                self._c_backpressure.inc()
            return False
        self._count_admitted(events)
        return True

    # ------------------------------------------------------------------
    # Connection dispatch
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        try:
            first = await reader.read(4)
            if not first:
                return
            if first[:4].ljust(4) in _HTTP_PREFIXES or any(
                    first.startswith(p.strip()) for p in _HTTP_PREFIXES):
                await self._handle_http(reader, writer, first)
            else:
                await self._handle_framed(reader, writer, first)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception:
            logger.exception("connection handler failed")
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------
    # Framed ingest protocol
    # ------------------------------------------------------------------
    async def _handle_framed(self, reader, writer, initial: bytes) -> None:
        decoder = FrameDecoder()
        writer.write(encode_frame({"type": "hello", "proto": PROTO_VERSION,
                                   "server": "repro-push/1"}))
        await writer.drain()
        data = initial
        while data:
            try:
                frames = decoder.feed(data)
            except FrameError as exc:
                writer.write(encode_frame({"type": "error",
                                           "error": str(exc)}))
                await writer.drain()
                return
            for frame in frames:
                if not await self._handle_ingest_frame(frame, writer):
                    await writer.drain()
                    return
            await writer.drain()
            data = await reader.read(IO_CHUNK_BYTES)

    async def _handle_ingest_frame(self, frame: Dict[str, Any],
                                   writer) -> bool:
        kind = frame.get("type")
        seq = frame.get("seq")
        if kind == "hello":
            return True
        if kind == "ping":
            writer.write(encode_frame({"type": "pong"}))
            return True
        if kind == "bye":
            return False
        if kind != "batch":
            writer.write(encode_frame(
                {"type": "error", "seq": seq,
                 "error": f"unknown frame type {kind!r}"}))
            return True
        if self._draining:
            writer.write(encode_frame({"type": "draining", "seq": seq}))
            return True
        try:
            events = events_from_json(frame.get("events", []))
        except FrameError as exc:
            writer.write(encode_frame({"type": "error", "seq": seq,
                                       "error": str(exc)}))
            return True
        if not self._admit(events):
            writer.write(encode_frame(
                {"type": "slow_down", "seq": seq,
                 "retry_after_ms": RETRY_AFTER_MS,
                 "queue_depth": self._queue.qsize()}))
            return True
        writer.write(encode_frame({"type": "ack", "seq": seq,
                                   "accepted": len(events),
                                   "queue_depth": self._queue.qsize()}))
        return True

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    async def _handle_http(self, reader, writer, initial: bytes) -> None:
        request = await read_http_request(reader, writer, initial)
        if request is None:
            return
        method, target, headers, _ = request
        parts = urlsplit(target)
        path = parts.path
        query = {key: values[-1]
                 for key, values in parse_qs(parts.query).items()}
        if method == "GET" and path == "/subscribe":
            await self._serve_sse(writer, headers, query)
        elif method == "POST" and path == "/quitquitquit":
            await write_http_response(writer, 200, {
                "quitting": True, "resume": self.hub.last_seq})
            self.request_drain()
        elif method == "GET" and path == "/healthz":
            healthy, detail = ((True, self.hub.stats())
                               if self._health is None else self._health())
            await write_http_response(writer, 200 if healthy else 503,
                                      detail)
        elif method == "GET" and path == "/statz":
            stats = self.hub.stats()
            stats["ingest"] = {
                "queue_depth": self._queue.qsize(),
                "queue_size": self.ingest_queue_size,
                "draining": self._draining,
                "errors": self._ingest_errors,
                "runs": self._ingest_runs,
            }
            await write_http_response(writer, 200, stats)
        else:
            await write_http_response(writer, 404,
                                      {"error": f"unknown route {path!r}"})

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def _attach_from_query(self, headers: Dict[str, str],
                           query: Dict[str, str]) -> Subscriber:
        resume = headers.get("last-event-id", query.get("resume"))
        resume_after = None
        if resume not in (None, "", "live"):
            resume_after = int(resume)
        patterns = [p for p in (query.get("patterns") or "").split(",") if p]
        tenants = [t for t in (query.get("tenants") or "").split(",") if t]
        queue_size = (int(query["queue"]) if "queue" in query else None)
        return self.hub.attach(
            subscriber_id=query.get("id"),
            patterns=patterns or None, tenants=tenants or None,
            resume_after=resume_after, queue_size=queue_size,
            policy=query.get("policy"))

    async def _serve_sse(self, writer, headers: Dict[str, str],
                         query: Dict[str, str]) -> None:
        try:
            subscriber = self._attach_from_query(headers, query)
        except ValueError as exc:
            await write_http_response(writer, 400, {"error": str(exc)})
            return
        wake = asyncio.Event()
        loop = asyncio.get_running_loop()
        subscriber.wake = partial(loop.call_soon_threadsafe, wake.set)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: text/event-stream\r\n"
                     b"Cache-Control: no-cache\r\n"
                     b"X-Accel-Buffering: no\r\n"
                     b"Connection: close\r\n\r\n")
        writer.write(sse_format(
            {"subscriber": subscriber.subscriber_id,
             "cursor": subscriber.cursor,
             "heartbeat_seconds": self.hub.heartbeat_seconds},
            event="hello"))
        await writer.drain()
        try:
            await self._pump(subscriber, wake, writer)
        finally:
            self.hub.detach(subscriber, reason=subscriber.close_reason
                            or "connection closed")

    @staticmethod
    def _sse_chunk(kind: str, payload) -> bytes:
        if kind == "match":
            return sse_frame(payload.payload_json, event_id=payload.seq,
                             event="match")
        return sse_format(payload, event=kind)

    async def _pump(self, subscriber: Subscriber, wake: asyncio.Event,
                    writer) -> None:
        """The delivery loop: pop, render as SSE, write, heartbeat.

        A wake-up writes what is queued: every item the subscriber has
        goes out as one ``write`` + one ``drain`` (SSE frames are
        self-delimiting), cut at :data:`IO_CHUNK_BYTES` and after a
        terminal ``drain`` notice.
        """
        heartbeat = self.hub.heartbeat_seconds
        idle_timeout = self.hub.idle_timeout_seconds
        while True:
            # Clear-before-pop: a publish landing after an empty pop
            # still leaves the event set, so the wait returns at once.
            wake.clear()
            item = subscriber.pop()
            if item is None:
                if subscriber.closed:
                    writer.write(self._sse_chunk(
                        "disconnect",
                        {"reason": subscriber.close_reason or "detached",
                         "resume": subscriber.cursor}))
                    await writer.drain()
                    return
                try:
                    await asyncio.wait_for(wake.wait(), timeout=heartbeat)
                except asyncio.TimeoutError:
                    writer.write(b": hb\n\n")
                    try:
                        await asyncio.wait_for(writer.drain(), idle_timeout)
                    except asyncio.TimeoutError:
                        subscriber.close(reason="idle-timeout")
                        return
                continue
            frames = []
            size = 0
            while item is not None:
                kind, payload = item
                frame = self._sse_chunk(kind, payload)
                frames.append(frame)
                size += len(frame)
                if kind == "drain" or size >= IO_CHUNK_BYTES:
                    break
                item = subscriber.pop()
            writer.write(b"".join(frames))
            try:
                await asyncio.wait_for(writer.drain(), idle_timeout)
            except asyncio.TimeoutError:
                subscriber.close(reason="idle-timeout")
                return
            if kind == "drain":
                return

    def __repr__(self) -> str:
        state = ("draining" if self._draining
                 else "serving" if self._thread else "stopped")
        return f"PushServer({self.url}, {state})"
