"""Live runtime introspection over HTTP.

:class:`ObsServer` exposes a running engine's observability state on a
small HTTP/1.1 endpoint — no dependencies, safe to embed in the CLI or
any host application:

============== =========================================================
route          payload
============== =========================================================
``/metrics``   Prometheus text exposition (via
               :func:`repro.obs.exporters.to_prometheus`)
``/varz``      the raw metrics snapshot as JSON
``/healthz``   liveness JSON — ``200`` when healthy, ``503`` when a
               health provider reports degradation (dead shards, …)
``/debug/flight``  the flight-recorder tail as JSON (``404`` when no
               recorder is attached)
``/debug/explain``  the current pattern's EXPLAIN report as JSON
               (``404`` when no explain provider is attached)
``/debug/lineage``  the lineage recorder's summary plus sampled match
               ids as JSON; ``/debug/lineage/<match_id>`` returns one
               match's full provenance record (``404`` when no lineage
               provider is attached or the id is unknown)
``/patterns``  the pattern registry: ``GET`` lists registered patterns,
               ``POST`` registers the query in the JSON body, and
               ``DELETE /patterns/<id>`` deregisters — hot, against the
               running process (``404`` when no registry is attached;
               see ``docs/registry.md``)
``/quitquitquit``  ``POST`` only: invoke the ``on_quit`` callback
               (graceful remote shutdown for ``repro serve``)
============== =========================================================

The server is a route table on its own event-loop thread, served by the
HTTP code of :mod:`repro.net.server`.  Routes call their providers per
request, in the loop's thread pool: payloads reflect live state, and a
slow provider cannot stall ``/healthz``.  Port ``0`` picks an ephemeral
port — read it back from :attr:`port` / :attr:`url`.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from typing import Callable, Dict, Optional, Tuple

from .exporters import to_prometheus

__all__ = ["ObsServer", "parse_listen", "live_snapshot"]

logger = logging.getLogger(__name__)

#: ``Content-Type`` of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``(healthy, detail)`` returned by a health provider.
HealthReport = Tuple[bool, dict]

#: ``(status, payload)`` of a route: JSON, or ``str`` for Prometheus text.
Reply = Tuple[int, object]


def parse_listen(spec: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` listen spec (``:PORT`` means localhost)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"invalid listen address {spec!r}; expected HOST:PORT")
    return (host or "127.0.0.1", int(port))


def _found(value, what: str) -> Reply:
    """``200`` with ``value``, or ``404`` when no ``what`` supplied one."""
    if value is None:
        return 404, {"error": f"no {what} attached"}
    return 200, value


def _call(provider):
    return None if provider is None else provider()


class ObsServer:
    """Serves live engine state over HTTP from its own event loop.

    Parameters
    ----------
    host / port:
        Bind address; port ``0`` (default) picks an ephemeral port.
    snapshot:
        Callable returning the metrics snapshot dict (e.g.
        ``obs.snapshot``) backing ``/metrics`` and ``/varz``.
    health:
        Callable returning ``(healthy, detail_dict)`` backing
        ``/healthz``; without one the endpoint reports a plain
        ``{"status": "ok"}``.
    flight:
        A :class:`~repro.obs.flight.FlightRecorder` (or a callable
        returning a dump dict) backing ``/debug/flight``.
    explain:
        Callable returning the EXPLAIN report dict for the served
        pattern(s) (e.g. ``lambda: explain(plan).to_dict()``) backing
        ``/debug/explain``; the route 404s without one.
    patterns:
        A :class:`~repro.registry.service.RegistryHTTPAdapter` backing
        the ``/patterns`` routes (GET list / POST register /
        DELETE ``/patterns/<id>``); the routes 404 without one.
    lineage:
        A :class:`~repro.obs.lineage.LineageRecorder` (or a callable
        returning one, e.g. ``lambda: obs.lineage``) backing
        ``/debug/lineage`` and ``/debug/lineage/<match_id>``; the
        routes 404 without one.
    on_quit:
        Callback invoked by ``POST /quitquitquit`` once the reply is
        written (e.g. an Event's ``set``); it runs on the event loop,
        so it must not block.

    The socket is bound here; :meth:`start` serves it.  Usable as a
    context manager (``with ObsServer(...) as server:``); :meth:`stop`
    is idempotent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 snapshot: Optional[Callable[[], Dict[str, dict]]] = None,
                 health: Optional[Callable[[], HealthReport]] = None,
                 flight=None,
                 explain: Optional[Callable[[], dict]] = None,
                 patterns=None,
                 lineage=None,
                 on_quit: Optional[Callable[[], None]] = None):
        self._snapshot = snapshot
        self._health = health
        # A recorder serves its dump; a callable is the dump itself.
        self._flight = (flight if flight is None or callable(flight)
                        else flight.dump)
        self._explain = explain
        self.patterns = patterns
        self._lineage = (lineage if lineage is None or callable(lineage)
                         else lambda: lineage)
        self._on_quit = on_quit
        self._sock = socket.create_server((host, port))
        self._address = self._sock.getsockname()[:2]
        self._thread: Optional[threading.Thread] = None
        self._loop = None
        self._stopping = None
        #: ``(method, path)`` -> route, called with the rest of the path
        #: (see :attr:`_prefixed`) and the request body.
        self._table: Dict[Tuple[str, str], Callable[..., Reply]] = {
            ("GET", "/"): lambda *_: (200, {"routes": sorted(self.routes)}),
            ("GET", "/metrics"): lambda *_: (
                200, to_prometheus(_call(self._snapshot) or {})),
            ("GET", "/varz"): lambda *_: (200, _call(self._snapshot) or {}),
            ("GET", "/healthz"): self._healthz,
            ("GET", "/debug/flight"): lambda *_: _found(
                _call(self._flight), "flight recorder"),
            ("GET", "/debug/explain"): lambda *_: _found(
                _call(self._explain), "explain provider"),
            ("GET", "/debug/lineage"): self._debug_lineage,
            ("GET", "/debug/lineage/"): self._debug_lineage,
            ("GET", "/patterns"): lambda *_: self._registry(
                lambda patterns: patterns.list()),
            ("POST", "/patterns"): self._add_pattern,
            ("POST", "/quitquitquit"): lambda *_: (200, {"quitting": True}),
        }
        #: Routes that also serve the paths below them, given the rest.
        self._prefixed = (
            ("GET", "/debug/lineage/", self._debug_lineage),
            ("DELETE", "/patterns/", lambda pattern_id, _body: self._registry(
                lambda patterns: patterns.remove(pattern_id))))

    @property
    def routes(self) -> Tuple[str, ...]:
        routes = ["/metrics", "/varz", "/healthz"]
        if self._flight is not None:
            routes.append("/debug/flight")
        if self._explain is not None:
            routes.append("/debug/explain")
        if self._lineage is not None:
            routes.append("/debug/lineage")
        if self.patterns is not None:
            routes.append("/patterns")
        if self._on_quit is not None:
            routes.append("/quitquitquit")
        return tuple(routes)

    # ------------------------------------------------------------------
    # Serving: the loop reads and writes, routes run in its thread pool
    # ------------------------------------------------------------------
    def _dispatch(self, method: str, path: str,
                  body: bytes) -> Tuple[int, bytes, str]:
        """``(status, body, content type)`` of one request's route."""
        route, arg = self._table.get((method, path)), None
        if route is None:
            for prefix_method, prefix, prefixed in self._prefixed:
                if (method == prefix_method and path.startswith(prefix)
                        and len(path) > len(prefix)):
                    route, arg = prefixed, path[len(prefix):]
        try:
            status, payload = (
                (404, {"error": f"unknown route {path!r}"}) if route is None
                else route(arg, body))
        except Exception as exc:  # a broken provider must not kill the server
            logger.exception("obs endpoint %s %s failed", method, path)
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, str):
            return status, payload.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        text = json.dumps(payload, indent=2, default=str) + "\n"
        return status, text.encode("utf-8"), "application/json"

    def _healthz(self, *_) -> Reply:
        if self._health is None:
            return 200, {"status": "ok"}
        healthy, detail = self._health()
        return 200 if healthy else 503, detail

    def _debug_lineage(self, match_id: Optional[str], _body) -> Reply:
        """Without ``match_id``: the recorder summary plus the sampled
        match ids.  With one: that match's full provenance record."""
        lineage = _call(self._lineage)
        if lineage is None:
            return _found(None, "lineage provider")
        if not match_id:
            return 200, {"summary": lineage.summary(),
                         "match_ids": [record.match_id
                                       for record in lineage.records()]}
        record = lineage.get(match_id)
        if record is None:
            return 404, {"error": f"unknown match id {match_id!r}"}
        return 200, record.to_dict()

    def _registry(self, call: Callable[..., Reply]) -> Reply:
        if self.patterns is None:
            return _found(None, "pattern registry")
        return call(self.patterns)

    def _add_pattern(self, _arg, body: bytes) -> Reply:
        if self.patterns is None:
            return _found(None, "pattern registry")
        try:
            payload = json.loads(body or b"null")
        except ValueError as exc:
            return 400, {"error": f"invalid JSON body: {exc}"}
        return self.patterns.add(payload)

    async def _serve(self, ready: threading.Event) -> None:
        import asyncio

        from ..net.server import MAX_HTTP_HEAD
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._sock, limit=MAX_HTTP_HEAD)
        ready.set()
        await self._stopping.wait()
        server.close()  # asyncio.run then cancels open connections

    async def _serve_connection(self, reader, writer) -> None:
        import asyncio

        from ..net.server import read_http_request, write_http_response
        try:
            request = await read_http_request(reader, writer)
            if request is None:
                return
            method, target, _headers, body = request
            path = target.split("?", 1)[0]
            status, payload, content_type = await self._loop.run_in_executor(
                None, self._dispatch, method, path, body)
            await write_http_response(writer, status, payload, content_type)
            if ((method, path) == ("POST", "/quitquitquit")
                    and self._on_quit is not None):
                self._on_quit()
        except (ConnectionError, asyncio.CancelledError):
            pass  # the peer left, or stop() cancelled a connection in flight
        except Exception:
            logger.exception("obs connection handler failed")
        finally:
            writer.close()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._address[0]

    @property
    def port(self) -> int:
        return self._address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Begin serving on the server's own event-loop thread; returns
        ``self`` once listening."""
        if self._thread is not None:
            return self
        import asyncio  # loaded on first start, not with ``import repro``
        ready = threading.Event()
        self._thread = threading.Thread(
            target=asyncio.run, args=(self._serve(ready),),
            name=f"repro-obs-http-{self.port}", daemon=True)
        self._thread.start()
        if not ready.wait(10.0):
            raise RuntimeError(f"obs endpoint {self.url} failed to start")
        logger.info("obs endpoint listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Stop serving, join the loop thread and close the socket."""
        thread, self._thread = self._thread, None
        if thread is not None and thread.is_alive():
            self._loop.call_soon_threadsafe(self._stopping.set)
            thread.join(timeout=5.0)
        self._sock.close()

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def __repr__(self) -> str:
        state = "serving" if self._thread is not None else "stopped"
        return f"ObsServer({self.url}, {state})"


def live_snapshot(observability=None) -> Dict[str, dict]:
    """The full live ``/varz`` snapshot: engine metrics plus plan-cache
    counters, a derived prefilter selectivity, and per-pattern sections
    from the statistics store.

    The plan cache publishes its counters only at compile time; served
    endpoints outlive compilation, so this helper re-reads
    :meth:`~repro.plan.cache.PlanCache.stats` on every call.
    ``ses_prefilter_selectivity`` is derived here and nowhere else, from
    the executors' ``ses_events_filtered_total`` /
    ``ses_events_read_total`` counters, so every run shape (serial,
    streaming, pooled) exposes it alike.  The store's per-pattern
    records are the ``ses_stats_*`` families, labelled ``fingerprint``
    (the registry's ``ses_pattern_*`` families are labelled by pattern
    id), and carry ``labels``/``metric`` keys understood by
    :func:`~repro.obs.exporters.to_prometheus`.
    """
    from ..explain.stats import stats_store
    from ..plan.cache import plan_cache

    snapshot: Dict[str, dict] = (
        {} if observability is None else observability.snapshot())
    cache_stats = plan_cache().stats()
    snapshot["ses_plan_cache_hits_total"] = {
        "type": "counter", "value": cache_stats["hits"],
        "help": "plan cache lookups served from cache"}
    snapshot["ses_plan_cache_misses_total"] = {
        "type": "counter", "value": cache_stats["misses"],
        "help": "plan cache lookups that compiled a new plan"}
    snapshot["ses_plan_cache_evictions_total"] = {
        "type": "counter", "value": cache_stats["evictions"],
        "help": "plans evicted from the cache (LRU)"}
    snapshot["ses_plan_cache_size"] = {
        "type": "gauge", "value": cache_stats["size"],
        "max": cache_stats["maxsize"],
        "help": "compiled plans currently cached"}

    read = snapshot.get("ses_events_read_total", {}).get("value", 0)
    filtered = snapshot.get("ses_events_filtered_total", {}).get("value", 0)
    if read:
        snapshot["ses_prefilter_selectivity"] = {
            "type": "gauge", "value": filtered / read,
            "help": "fraction of read events rejected by the "
                    "pre-filter (derived from counters)"}

    store = stats_store()
    for fingerprint in store.fingerprints():
        record = store.get(fingerprint)
        if record is None:
            continue
        labels = {"fingerprint": fingerprint}
        for field, help_text in (
                ("runs", "observed runs per pattern fingerprint"),
                ("events", "events read per pattern fingerprint"),
                ("matches", "matches reported per pattern fingerprint")):
            snapshot[f"ses_stats_{field}_total[{fingerprint}]"] = {
                "type": "counter", "value": record.get(field, 0),
                "metric": f"ses_stats_{field}_total",
                "labels": labels, "help": help_text}
        selectivity = store.prefilter_selectivity(fingerprint)
        if selectivity is not None:
            snapshot[f"ses_stats_prefilter_selectivity[{fingerprint}]"] = {
                "type": "gauge", "value": selectivity,
                "metric": "ses_stats_prefilter_selectivity",
                "labels": labels,
                "help": "fraction of events the pre-filter rejected, per "
                        "pattern fingerprint (persisted statistics)"}
    return snapshot
