"""Deterministic chaos test for the push front-end: a subscriber tailing
a real ``repro serve --subscribe`` process must receive *exactly* the
fault-free match set even when the server is SIGKILLed mid-stream and
restarted against the same delivery WAL — no loss, no duplicates.

The restarted matcher is fed the stream from the beginning (its in-flight
window state died with the process); the hub's WAL-recovered dedup set
suppresses everything already delivered, so the subscriber sees each
match id once.  A second test gates the cost of the zero-subscriber hub
path against the plain matcher (< 1.05x, min-of-rounds idiom).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import repro
from repro import Event
from repro.core.relation import EventRelation
from repro.lang import parse_query_spec
from repro.net import SubscriptionHub
from repro.net.client import push_events, request_quit, subscribe_sse
from repro.obs.lineage import match_id
from repro.plan.cache import compile as compile_plan
from repro.registry import PatternRegistry
from repro.storage import save_relation

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

QUERY = ("PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' "
         "AND a.ID = b.ID WITHIN 10")


def chaos_stream(pairs, start_ts=100):
    """``pairs`` well-separated B/C pairs joined on ID: one match each,
    so the fault-free set is exactly ``pairs`` distinct match ids."""
    events = []
    for i in range(pairs):
        base = start_ts + 20 * i
        events.append(Event(ts=base, attrs={"L": "B", "ID": i},
                            eid=f"b{i}"))
        events.append(Event(ts=base + 1, attrs={"L": "C", "ID": i},
                            eid=f"c{i}"))
    return events


def fault_free_ids(events):
    """The serial, fault-free match-id set for ``events``."""
    registry = PatternRegistry()
    pattern, aggregate = parse_query_spec(QUERY)
    registry.register(compile_plan(pattern, aggregate=aggregate))
    registry.push_many(events)
    registry.close()
    return {match_id(sub) for sub in registry.matches}


def free_port():
    import socket
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for(predicate, timeout=20.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def start_serve(tmp_path, primer_csv, port, wal):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data", str(primer_csv), "--query", QUERY,
         "--listen", "127.0.0.1:0",
         "--subscribe", f"127.0.0.1:{port}",
         "--delivery-wal", str(wal),
         "--heartbeat", "0.5", "--drain-grace", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        cwd=str(tmp_path),
        env={**os.environ,
             "PYTHONPATH": SRC_DIR + os.pathsep
             + os.environ.get("PYTHONPATH", "")})
    for _ in range(10):
        line = process.stdout.readline()
        if "serving push endpoint on " in line:
            return process
    process.kill()
    raise AssertionError("serve never announced the push endpoint")


class TestKillResumeChaos:
    def test_sigkill_mid_stream_resume_no_loss_no_dup(self, tmp_path):
        events = chaos_stream(40)
        expected = fault_free_ids(events)
        assert len(expected) == 40

        primer_csv = tmp_path / "primer.csv"
        save_relation(EventRelation(
            [Event(ts=0, attrs={"L": "Z", "ID": -1}, eid="z0"),
             Event(ts=1, attrs={"L": "Z", "ID": -1}, eid="z1")],
            name="primer"), primer_csv)
        wal = tmp_path / "delivery.jsonl"
        port = free_port()
        transcript = tmp_path / "subscriber.jsonl"

        received = []          # (seq, match_id) in delivery order
        notices = []
        done = threading.Event()

        def tail():
            with transcript.open("w") as out:
                for item in subscribe_sse(
                        "127.0.0.1", port, subscriber_id="chaos",
                        resume=-1,  # from the beginning of the stream
                        reconnect=True, reconnect_delay=0.1,
                        max_reconnects=400, stop_on_drain=True,
                        read_timeout=30.0):
                    out.write(json.dumps(item) + "\n")
                    out.flush()
                    if item["event"] == "match":
                        payload = item["data"]
                        received.append((int(item["id"]),
                                         payload["match_id"]))
                    else:
                        notices.append(item["event"])
            done.set()

        proc1 = start_serve(tmp_path, primer_csv, port, wal)
        proc2 = None
        thread = threading.Thread(target=tail, daemon=True)
        thread.start()
        try:
            # First half of the stream, then wait for live deliveries so
            # the kill lands with real progress on both sides of the WAL.
            accepted = push_events("127.0.0.1", port, events[:40])
            assert accepted == 40
            assert wait_for(lambda: len(received) >= 5), \
                "no live matches before the kill"

            os.kill(proc1.pid, signal.SIGKILL)
            proc1.wait(timeout=10)

            # Restart on the same port against the same WAL; the fresh
            # matcher replays the whole stream and the recovered dedup
            # set suppresses what the subscriber already has.
            proc2 = start_serve(tmp_path, primer_csv, port, wal)
            accepted = push_events("127.0.0.1", port, events)
            assert accepted == len(events)
            # All but the final pair (still inside its open WITHIN
            # window) stream live; drain flushes the rest.
            assert wait_for(
                lambda: len({mid for _, mid in received})
                >= len(expected) - 1,
                timeout=30), (
                f"subscriber saw {len({m for _, m in received})} of "
                f"{len(expected)} expected matches")

            request_quit("127.0.0.1", port)
            assert done.wait(timeout=30), "drain never reached subscriber"
            assert proc2.wait(timeout=30) == 0
        finally:
            for process in (proc1, proc2):
                if process is not None and process.poll() is None:
                    process.kill()
                    process.wait(timeout=10)
            done.set()

        delivered_ids = [mid for _, mid in received]
        assert set(delivered_ids) == expected, "match loss across restart"
        assert len(delivered_ids) == len(set(delivered_ids)), \
            "duplicate delivery across restart"
        # Cursors are monotonic in delivery order even across the kill.
        seqs = [seq for seq, _ in received]
        assert seqs == sorted(seqs)
        assert "drain" in notices
        assert transcript.exists() and transcript.stat().st_size > 0


class TestDisabledSubscription:
    def test_zero_subscriber_hub_only_records(self):
        """A hub nobody subscribed to takes every match into its ring and
        delivers nothing, leaving the matcher's output as it was.  (What
        that costs on the serve path is measured end to end by the ledger's
        ``serve-*`` workloads, not by a wall-clock assertion here.)"""
        events = []
        for i in range(400):
            if i % 100 == 0:
                events.append(Event(ts=i, attrs={"L": "B", "ID": i},
                                    eid=f"b{i}"))
            elif i % 100 == 1:
                events.append(Event(ts=i, attrs={"L": "C", "ID": i - 1},
                                    eid=f"c{i}"))
            else:
                events.append(Event(
                    ts=i, attrs={"L": "B" if i % 2 == 0 else "C",
                                 "ID": 100000 + i},
                    eid=f"n{i}"))
        pattern, aggregate = parse_query_spec(QUERY)
        plan = compile_plan(pattern, aggregate=aggregate)

        plain = PatternRegistry()
        plain.register(plan)
        expected = plain.push_many(events) + plain.close()

        registry = PatternRegistry()
        registry.register(plan)
        hub = SubscriptionHub(ring_size=256)
        registry.on_match(
            lambda pid, match: hub.publish(match, pattern_id=pid))
        matches = registry.push_many(events) + registry.close()
        assert len(matches) == len(expected) > 0
        assert hub.last_seq == len(expected) - 1
        assert hub.stats()["subscribers"] == 0
        assert hub.stats()["queues"] == {}
