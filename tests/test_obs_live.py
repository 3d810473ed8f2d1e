"""Tests for the live HTTP observability endpoint (repro.obs.live)."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import FlightRecorder, Observability, ObsServer, parse_listen

from conftest import raw_http


def get(url):
    """GET ``url``, returning ``(status, body)`` even for error codes."""
    try:
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


def post(url):
    request = urllib.request.Request(url, data=b"", method="POST")
    try:
        with urllib.request.urlopen(request, timeout=5) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode()


class TestParseListen:
    def test_host_and_port(self):
        assert parse_listen("0.0.0.0:9100") == ("0.0.0.0", 9100)

    def test_bare_port_means_localhost(self):
        assert parse_listen(":8080") == ("127.0.0.1", 8080)

    @pytest.mark.parametrize("spec", ["8080", "host:", "host:abc", ""])
    def test_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_listen(spec)


class TestRoutes:
    @pytest.fixture
    def obs(self):
        bundle = Observability()
        bundle.registry.counter("ses_events_read_total",
                                help="events read").inc(42)
        return bundle

    def test_metrics_is_prometheus_exposition(self, obs):
        with ObsServer(snapshot=obs.snapshot) as server:
            status, body = get(server.url + "/metrics")
        assert status == 200
        assert "# TYPE ses_events_read_total counter" in body
        assert "ses_events_read_total 42" in body

    def test_varz_is_the_json_snapshot(self, obs):
        with ObsServer(snapshot=obs.snapshot) as server:
            status, body = get(server.url + "/varz")
        assert status == 200
        assert json.loads(body)["ses_events_read_total"]["value"] == 42

    def test_healthz_defaults_to_ok(self):
        with ObsServer() as server:
            status, body = get(server.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_healthz_503_when_degraded(self):
        detail = {"status": "degraded", "shards": [{"shard": 0,
                                                    "alive": False}]}
        with ObsServer(health=lambda: (False, detail)) as server:
            status, body = get(server.url + "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "degraded"

    def test_flight_route_serves_the_dump(self):
        recorder = FlightRecorder(capacity=4)
        recorder.sample_omega(3, 7)
        with ObsServer(flight=recorder) as server:
            status, body = get(server.url + "/debug/flight")
        assert status == 200
        assert json.loads(body)["omega"] == [[3, 7]]

    def test_flight_route_accepts_a_callable(self):
        with ObsServer(flight=lambda: {"steps": []}) as server:
            status, body = get(server.url + "/debug/flight")
        assert status == 200
        assert json.loads(body) == {"steps": []}

    def test_flight_404_without_recorder(self):
        with ObsServer() as server:
            status, _ = get(server.url + "/debug/flight")
        assert status == 404

    def test_root_lists_routes(self):
        with ObsServer(flight=FlightRecorder()) as server:
            status, body = get(server.url + "/")
        assert status == 200
        routes = json.loads(body)["routes"]
        assert "/metrics" in routes and "/debug/flight" in routes

    def test_unknown_route_404(self):
        with ObsServer() as server:
            status, _ = get(server.url + "/nope")
        assert status == 404

    def test_broken_provider_returns_500_and_survives(self):
        def broken():
            raise RuntimeError("boom")

        with ObsServer(snapshot=broken) as server:
            status, body = get(server.url + "/metrics")
            assert status == 500
            assert "boom" in body
            # the server must still answer after a provider failure
            status, _ = get(server.url + "/healthz")
            assert status == 200

    def test_quit_invokes_callback(self):
        import threading
        stop = threading.Event()
        with ObsServer(on_quit=stop.set) as server:
            status, body = get(server.url + "/healthz")
            assert status == 200
            status, body = post(server.url + "/quitquitquit")
            assert status == 200
            assert json.loads(body) == {"quitting": True}
        assert stop.is_set()

    def test_post_unknown_route_404(self):
        with ObsServer() as server:
            status, _ = post(server.url + "/nope")
        assert status == 404


class TestExplainRoute:
    def test_debug_explain_serves_the_report(self):
        provider = lambda: {"fingerprint": "abc123", "pattern": "P"}  # noqa: E731
        with ObsServer(explain=provider) as server:
            status, body = get(server.url + "/debug/explain")
            assert status == 200
            assert json.loads(body)["fingerprint"] == "abc123"
            _, root = get(server.url + "/")
        assert "/debug/explain" in json.loads(root)["routes"]

    def test_debug_explain_404_without_provider(self):
        with ObsServer() as server:
            status, body = get(server.url + "/debug/explain")
        assert status == 404
        assert "explain" in json.loads(body)["error"]


class TestLiveSnapshot:
    """Regression tests for the enriched /varz snapshot: plan-cache
    counters, the derived prefilter selectivity, and the per-pattern
    sections — asserted against the live endpoint, not just the dict."""

    @pytest.fixture(autouse=True)
    def fresh_state(self, monkeypatch):
        from repro.explain import clear_stats_store
        monkeypatch.delenv("REPRO_STATS_PATH", raising=False)
        monkeypatch.delenv("REPRO_STATS_DISABLE", raising=False)
        clear_stats_store()
        yield
        clear_stats_store()

    def test_plan_cache_counters_on_varz(self):
        import repro
        from repro import SESPattern
        from repro.obs import live_snapshot
        from repro.plan.cache import plan_cache
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=9)
        before = plan_cache().stats()["hits"]
        repro.compile(pattern)
        repro.compile(pattern)  # guaranteed hit
        with ObsServer(snapshot=live_snapshot) as server:
            status, body = get(server.url + "/varz")
        assert status == 200
        varz = json.loads(body)
        assert varz["ses_plan_cache_hits_total"]["value"] >= before + 1
        assert varz["ses_plan_cache_size"]["value"] >= 1
        for name in ("ses_plan_cache_misses_total",
                     "ses_plan_cache_evictions_total"):
            assert varz[name]["type"] == "counter"

    def test_prefilter_selectivity_derived_from_counters(self):
        from repro.obs import live_snapshot
        obs = Observability()
        obs.registry.counter("ses_events_read_total").inc(100)
        obs.registry.counter("ses_events_filtered_total").inc(25)
        with ObsServer(snapshot=lambda: live_snapshot(obs)) as server:
            status, body = get(server.url + "/varz")
        assert status == 200
        record = json.loads(body)["ses_prefilter_selectivity"]
        assert record["type"] == "gauge"
        assert record["value"] == pytest.approx(0.25)

    def test_per_pattern_sections_from_stats_store(self):
        from repro.obs import live_snapshot
        from repro.explain import stats_store
        stats_store().observe("fp1", runs=2, events=40, matches=3,
                              filter_seen=40, filter_admitted=10)
        with ObsServer(snapshot=live_snapshot) as server:
            _, varz_body = get(server.url + "/varz")
            _, metrics_body = get(server.url + "/metrics")
        varz = json.loads(varz_body)
        runs = varz["ses_stats_runs_total[fp1]"]
        assert runs["value"] == 2
        assert runs["labels"] == {"fingerprint": "fp1"}
        assert runs["metric"] == "ses_stats_runs_total"
        selectivity = varz["ses_stats_prefilter_selectivity[fp1]"]
        assert selectivity["value"] == pytest.approx(0.75)
        # the Prometheus exposition renders them as one labeled family
        assert ('ses_stats_runs_total{fingerprint="fp1"} 2'
                in metrics_body)
        assert "# TYPE ses_stats_runs_total counter" in metrics_body

    def test_each_family_is_typed_once_and_contiguous(self):
        """A registry's ``ses_pattern_*`` series (by pattern id) and the
        statistics store's ``ses_stats_*`` series (by fingerprint) in one
        exposition: every family has one ``# TYPE`` line, and its
        samples follow it with no other family in between."""
        import repro
        from repro.data import base_dataset, query_q1
        from repro.explain import stats_store
        from repro.obs import live_snapshot, to_prometheus
        from repro.registry import PatternRegistry
        relation = base_dataset(patients=3, cycles=2)
        obs = Observability()
        registry = PatternRegistry(observability=obs)
        registry.register(query_q1(), pattern_id="p0")
        registry.register(query_q1(), pattern_id="p1")
        registry.push_many(list(relation))
        repro.compile(query_q1()).match(relation, workers=2,
                                        observability=Observability())
        stats_store().observe("fp2", runs=1, events=5, matches=1,
                              filter_seen=5, filter_admitted=1)
        assert len(stats_store().fingerprints()) == 2

        text = to_prometheus(live_snapshot(obs))
        kinds, current = {}, None
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, family, kind = line.split(" ")
                assert family not in kinds, f"{family} typed twice"
                kinds[family], current = kind, family
            elif not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                members = {current}
                if kinds[current] == "histogram":
                    members |= {current + "_bucket", current + "_sum",
                                current + "_count"}
                assert name in members, f"{name} sample under {current}"
        assert 'ses_pattern_events_total{pattern="p0"}' in text
        assert "ses_stats_events_total{fingerprint=" in text


class TestLifecycle:
    def test_ephemeral_port_bound_and_reported(self):
        with ObsServer() as server:
            assert server.port > 0
            assert str(server.port) in server.url

    def test_stop_is_idempotent(self):
        server = ObsServer().start()
        server.stop()
        server.stop()

    def test_stop_without_start(self):
        ObsServer().stop()

    def test_snapshot_reflects_live_state(self):
        obs = Observability()
        counter = obs.registry.counter("ticks")
        with ObsServer(snapshot=obs.snapshot) as server:
            _, before = get(server.url + "/varz")
            counter.inc(5)
            _, after = get(server.url + "/varz")
        assert json.loads(before)["ticks"]["value"] == 0
        assert json.loads(after)["ticks"]["value"] == 5


class TestHandlerTimeout:
    """A stalled client is cut off after the read timeout, and it never
    holds up anyone else in the meantime."""

    def test_stalled_connection_is_closed_and_serving_continues(
            self, monkeypatch):
        import socket
        import time

        import repro.net.server as net_server
        monkeypatch.setattr(net_server, "HTTP_READ_TIMEOUT", 0.5)
        with ObsServer() as server:
            sock = socket.create_connection((server.host, server.port),
                                            timeout=5)
            try:
                # A partial request line, then silence: the read timeout
                # must close the socket rather than wait forever.
                sock.sendall(b"GET /varz HTT")
                # Meanwhile a second connection is answered at once.
                status, _ = get(server.url + "/healthz")
                assert status == 200
                sock.settimeout(5)
                start = time.monotonic()
                assert sock.recv(1024) == b""
                assert time.monotonic() - start < 4
            finally:
                sock.close()
            # the server itself survives the stalled client
            status, _ = get(server.url + "/healthz")
            assert status == 200


class TestHostileHeads:
    """A request head the server cannot honour gets a typed reply — it
    is never dropped without one, and no body is waited for."""

    @pytest.fixture
    def server(self):
        from repro.registry import PatternRegistry
        from repro.registry.service import RegistryHTTPAdapter
        adapter = RegistryHTTPAdapter(PatternRegistry())
        with ObsServer(patterns=adapter) as server:
            yield server

    def test_non_integer_content_length_is_400(self, server):
        status, body = raw_http(
            server.host, server.port,
            b"POST /patterns HTTP/1.1\r\nContent-Length: abc\r\n\r\n")
        assert status == 400
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_before_it_is_sent(self, server):
        from repro.net import MAX_FRAME_BYTES
        head = (f"POST /patterns HTTP/1.1\r\n"
                f"Content-Length: {MAX_FRAME_BYTES + 1}\r\n\r\n")
        status, body = raw_http(server.host, server.port, head.encode())
        assert status == 413
        assert str(MAX_FRAME_BYTES) in body["error"]

    def test_oversized_head_is_431(self, server):
        from repro.net.server import MAX_HTTP_HEAD
        head = (b"GET /healthz HTTP/1.1\r\nX-Pad: "
                + b"a" * MAX_HTTP_HEAD + b"\r\n\r\n")
        status, body = raw_http(server.host, server.port, head)
        assert status == 431
        assert body == {"error": "headers too large"}
        # the listener still serves
        assert get(server.url + "/healthz")[0] == 200
