"""Live runtime introspection over HTTP (stdlib only).

:class:`ObsServer` exposes a running engine's observability state on a
small ``http.server``-based endpoint — no dependencies, safe to embed in
the CLI or any host application:

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

The server runs on a daemon thread (:meth:`start` returns the bound
address immediately); providers are callables evaluated per request, so
the payloads always reflect live state.  Binding port ``0`` picks an
ephemeral port — read it back from :attr:`port` / :attr:`url`.
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from .exporters import to_prometheus

__all__ = ["ObsServer", "parse_listen", "live_snapshot"]

logger = logging.getLogger(__name__)

#: ``Content-Type`` of the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: ``(healthy, detail)`` returned by a health provider.
HealthReport = Tuple[bool, dict]


def parse_listen(spec: str) -> Tuple[str, int]:
    """Parse a ``HOST:PORT`` listen spec (``:PORT`` means localhost)."""
    host, sep, port = spec.rpartition(":")
    if not sep or not port.isdigit():
        raise ValueError(
            f"invalid listen address {spec!r}; expected HOST:PORT")
    return (host or "127.0.0.1", int(port))


#: Default per-connection socket timeout for handler threads.  Keep-alive
#: (HTTP/1.1) handler threads otherwise block forever in ``readline()``
#: on a silent client, leaking one thread per abandoned connection.
DEFAULT_HANDLER_TIMEOUT = 30.0


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ObsServer`'s providers."""

    server_version = "repro-obs/1.0"
    protocol_version = "HTTP/1.1"
    #: ``BaseHTTPRequestHandler`` applies this as the connection's socket
    #: timeout; a timeout mid-request sets ``close_connection`` and ends
    #: the handler thread instead of hanging it.
    timeout = DEFAULT_HANDLER_TIMEOUT

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        obs_server: "ObsServer" = self.server.obs_server
        path = self.path.split("?", 1)[0]
        try:
            if path == "/metrics":
                snapshot = obs_server.read_snapshot()
                self._reply(200, to_prometheus(snapshot),
                            PROMETHEUS_CONTENT_TYPE)
            elif path == "/varz":
                self._reply_json(200, obs_server.read_snapshot())
            elif path == "/healthz":
                healthy, detail = obs_server.read_health()
                self._reply_json(200 if healthy else 503, detail)
            elif path == "/debug/flight":
                dump = obs_server.read_flight()
                if dump is None:
                    self._reply_json(404,
                                     {"error": "no flight recorder attached"})
                else:
                    self._reply_json(200, dump)
            elif path == "/debug/explain":
                report = obs_server.read_explain()
                if report is None:
                    self._reply_json(404,
                                     {"error": "no explain provider attached"})
                else:
                    self._reply_json(200, report)
            elif path == "/debug/lineage" or path.startswith("/debug/lineage/"):
                match_id = (path[len("/debug/lineage/"):]
                            if path.startswith("/debug/lineage/") else None)
                status, payload = obs_server.read_lineage(match_id or None)
                self._reply_json(status, payload)
            elif path == "/patterns":
                patterns = obs_server.patterns
                if patterns is None:
                    self._reply_json(404,
                                     {"error": "no pattern registry attached"})
                else:
                    self._reply_json(*patterns.list())
            elif path == "/":
                self._reply_json(200, {"routes": sorted(obs_server.routes)})
            else:
                self._reply_json(404, {"error": f"unknown route {path!r}"})
        except Exception as exc:  # a broken provider must not kill the server
            logger.exception("obs endpoint %s failed", path)
            self._reply_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        obs_server: "ObsServer" = self.server.obs_server
        path = self.path.split("?", 1)[0]
        if path == "/quitquitquit":
            self._reply_json(200, {"quitting": True})
            obs_server.request_quit()
        elif path == "/patterns":
            patterns = obs_server.patterns
            if patterns is None:
                self._reply_json(404,
                                 {"error": "no pattern registry attached"})
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
                payload = json.loads(self.rfile.read(length) or b"null")
            except (ValueError, json.JSONDecodeError) as exc:
                self._reply_json(400, {"error": f"invalid JSON body: {exc}"})
                return
            try:
                self._reply_json(*patterns.add(payload))
            except Exception as exc:  # registration must not kill the server
                logger.exception("pattern registration failed")
                self._reply_json(500,
                                 {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply_json(404, {"error": f"unknown route {path!r}"})

    def do_DELETE(self) -> None:  # noqa: N802 (http.server API)
        obs_server: "ObsServer" = self.server.obs_server
        path = self.path.split("?", 1)[0]
        prefix = "/patterns/"
        if path.startswith(prefix) and len(path) > len(prefix):
            patterns = obs_server.patterns
            if patterns is None:
                self._reply_json(404,
                                 {"error": "no pattern registry attached"})
                return
            try:
                self._reply_json(*patterns.remove(path[len(prefix):]))
            except Exception as exc:
                logger.exception("pattern deregistration failed")
                self._reply_json(500,
                                 {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply_json(404, {"error": f"unknown route {path!r}"})

    def _reply_json(self, status: int, payload) -> None:
        self._reply(status, json.dumps(payload, indent=2, default=str) + "\n",
                    "application/json")

    def _reply(self, status: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        logger.debug("obs http: %s", format % args)


class ObsServer:
    """Serves live engine state over HTTP from a daemon thread.

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
        Callback invoked by ``POST /quitquitquit`` (e.g. an Event's
        ``set``); the route 404s without one.
    handler_timeout:
        Per-connection socket timeout (seconds) applied to every
        handler thread; a client that stops sending mid-request is
        disconnected instead of pinning its thread forever.

    Usable as a context manager (``with ObsServer(...) as server:``);
    :meth:`stop` is idempotent.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 snapshot: Optional[Callable[[], Dict[str, dict]]] = None,
                 health: Optional[Callable[[], HealthReport]] = None,
                 flight=None,
                 explain: Optional[Callable[[], dict]] = None,
                 patterns=None,
                 lineage=None,
                 on_quit: Optional[Callable[[], None]] = None,
                 handler_timeout: float = DEFAULT_HANDLER_TIMEOUT):
        self._snapshot = snapshot
        self._health = health
        self._flight = flight
        self._explain = explain
        self.patterns = patterns
        self._lineage = lineage
        self._on_quit = on_quit
        # Per-server handler class so a custom timeout does not leak
        # into other ObsServer instances in the same process.
        handler = _Handler
        if handler_timeout != _Handler.timeout:
            handler = type("_Handler", (_Handler,),
                           {"timeout": handler_timeout})
        self._httpd = ThreadingHTTPServer((host, port), handler)
        self._httpd.daemon_threads = True
        self._httpd.obs_server = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Provider access (called from handler threads)
    # ------------------------------------------------------------------
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

    def read_snapshot(self) -> Dict[str, dict]:
        return {} if self._snapshot is None else self._snapshot()

    def read_health(self) -> HealthReport:
        if self._health is None:
            return True, {"status": "ok"}
        return self._health()

    def read_flight(self) -> Optional[dict]:
        flight = self._flight
        if flight is None:
            return None
        return flight() if callable(flight) else flight.dump()

    def read_explain(self) -> Optional[dict]:
        return None if self._explain is None else self._explain()

    def read_lineage(self, match_id: Optional[str] = None):
        """``(status, payload)`` for the lineage routes.

        Without ``match_id``: the recorder summary plus the sampled
        match ids.  With one: that match's full provenance record.
        """
        lineage = self._lineage
        if callable(lineage):
            lineage = lineage()
        if lineage is None:
            return 404, {"error": "no lineage provider attached"}
        if match_id is None:
            return 200, {"summary": lineage.summary(),
                         "match_ids": [record.match_id
                                       for record in lineage.records()]}
        record = lineage.get(match_id)
        if record is None:
            return 404, {"error": f"unknown match id {match_id!r}"}
        return 200, record.to_dict()

    def request_quit(self) -> None:
        if self._on_quit is not None:
            self._on_quit()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        """Begin serving on a daemon thread; returns ``self``."""
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-obs-http-{self.port}", daemon=True)
        self._thread.start()
        logger.info("obs endpoint listening on %s", self.url)
        return self

    def stop(self) -> None:
        """Shut the server down and join the serving thread."""
        if self._thread is None:
            self._httpd.server_close()
            return
        self._httpd.shutdown()
        self._thread.join(timeout=5.0)
        self._httpd.server_close()
        self._thread = None

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
    streaming, pooled) exposes it alike.  Per-pattern records carry
    ``labels``/``metric`` keys understood by
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
        labels = {"pattern": fingerprint}
        for field, help_text in (
                ("runs", "observed runs for this pattern"),
                ("events", "events read for this pattern"),
                ("matches", "matches reported for this pattern")):
            snapshot[f"ses_pattern_{field}_total[{fingerprint}]"] = {
                "type": "counter", "value": record.get(field, 0),
                "metric": f"ses_pattern_{field}_total",
                "labels": labels, "help": help_text}
        selectivity = store.prefilter_selectivity(fingerprint)
        if selectivity is not None:
            snapshot[f"ses_pattern_prefilter_selectivity[{fingerprint}]"] = {
                "type": "gauge", "value": selectivity,
                "metric": "ses_pattern_prefilter_selectivity",
                "labels": labels,
                "help": "fraction of events the pre-filter rejected "
                        "for this pattern (persisted statistics)"}
    return snapshot
