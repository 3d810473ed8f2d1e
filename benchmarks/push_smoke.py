"""CI smoke for durable push delivery (docs/serving.md).

Drives the real CLI end to end: ``repro serve --subscribe`` with a
delivery WAL, a ``repro tail`` subscriber writing a transcript, a
``repro push`` producer — then SIGKILLs the server mid-stream, restarts
it on the same port against the same WAL, re-feeds the stream, and
drains gracefully.  The subscriber must end with *exactly* the
fault-free match set: resumed via ``Last-Event-ID``, no gap, no
duplicate.  Before the drain the second server is also handed one
well-framed batch no matcher can digest (``"ts": "x"``): it must be
refused at the door with an ``error`` frame, ``/statz`` must show no
ingest error, and the batches must have been matched in at least one
and at most as many runs as were admitted.

Leaves behind (uploaded by CI on failure):
  push-smoke-transcript.jsonl   every event the subscriber received
  push-smoke-cursor             the tail's persisted resume cursor
  push-smoke-serve{1,2}.log     both server generations' output
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request

from repro import Event
from repro.core.relation import EventRelation
from repro.lang import parse_query_spec
from repro.net.client import _next_frame
from repro.net.protocol import FrameDecoder, encode_frame
from repro.obs.lineage import match_id
from repro.plan.cache import compile as compile_plan
from repro.registry import PatternRegistry
from repro.storage import save_relation

QUERY = ("PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' "
         "AND a.ID = b.ID WITHIN 10")
PAIRS = 40

TRANSCRIPT = "push-smoke-transcript.jsonl"
CURSOR = "push-smoke-cursor"


def stream():
    events = []
    for i in range(PAIRS):
        base = 100 + 20 * i
        events.append(Event(ts=base, attrs={"L": "B", "ID": i},
                            eid=f"b{i}"))
        events.append(Event(ts=base + 1, attrs={"L": "C", "ID": i},
                            eid=f"c{i}"))
    return events


def expected_ids(events):
    registry = PatternRegistry()
    pattern, aggregate = parse_query_spec(QUERY)
    registry.register(compile_plan(pattern, aggregate=aggregate))
    registry.push_many(events)
    registry.close()
    return {match_id(sub) for sub in registry.matches}


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_for(predicate, timeout=30.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise SystemExit(f"timed out waiting for {what}")


def start_serve(port, generation):
    log = open(f"push-smoke-serve{generation}.log", "w")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--data", "push-smoke-primer.csv", "--query", QUERY,
         "--listen", "127.0.0.1:0",
         "--subscribe", f"127.0.0.1:{port}",
         "--delivery-wal", "push-smoke-delivery.jsonl",
         "--heartbeat", "0.5", "--drain-grace", "10"],
        stdout=log, stderr=subprocess.STDOUT)
    wait_for(lambda: "serving push endpoint on "
             in open(f"push-smoke-serve{generation}.log").read(),
             what=f"serve generation {generation} startup")
    return process


def hostile_frame_is_refused(port):
    """One acked ``"ts": "x"`` used to fail every later batch for good."""
    decoder, pending = FrameDecoder(), []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(encode_frame(
            {"type": "batch", "seq": 0,
             "events": [{"ts": "x", "attrs": {"L": "B", "ID": 0}}]}))
        replies = [_next_frame(sock, decoder, pending)["type"]
                   for _ in range(2)]
    assert replies == ["hello", "error"], replies


def check_ingest_counters(port, generation):
    """No ingest error, and batches-per-run is a readable quotient."""
    log = open(f"push-smoke-serve{generation}.log").read()
    obs_url = log.split("serving observability on ")[1].split()[0]
    with urllib.request.urlopen(obs_url + "/varz", timeout=10) as response:
        batches = json.load(response)["ses_ingest_batches_total"]["value"]
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/statz",
                                timeout=10) as response:
        ingest = json.load(response)["ingest"]
    assert ingest["errors"] == 0, ingest
    assert 1 <= ingest["runs"] <= batches, (ingest, batches)
    print(f"ingest: {batches:g} batches in {ingest['runs']} run(s), "
          f"0 errors")


def transcript_matches():
    try:
        lines = open(TRANSCRIPT).read().splitlines()
    except OSError:
        return []
    out = []
    for line in lines:
        item = json.loads(line)
        if item.get("event") == "match":
            out.append((int(item["id"]), item["data"]["match_id"]))
    return out


def main():
    events = stream()
    expected = expected_ids(events)
    assert len(expected) == PAIRS, len(expected)

    save_relation(EventRelation(
        [Event(ts=0, attrs={"L": "Z", "ID": -1}, eid="z0"),
         Event(ts=1, attrs={"L": "Z", "ID": -1}, eid="z1")],
        name="primer"), "push-smoke-primer.csv")
    save_relation(EventRelation(events[:PAIRS], name="half"),
                  "push-smoke-half.csv")
    save_relation(EventRelation(events, name="full"),
                  "push-smoke-full.csv")

    port = free_port()
    serve = start_serve(port, 1)
    tail = subprocess.Popen(
        [sys.executable, "-m", "repro", "tail",
         "--server", f"127.0.0.1:{port}", "--resume=-1",
         "--out", TRANSCRIPT, "--resume-file", CURSOR,
         "--id", "ci-smoke", "--reconnect-delay", "0.1",
         "--max-reconnects", "400"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    serve2 = None
    try:
        def push(data):
            subprocess.run(
                [sys.executable, "-m", "repro", "push",
                 "--server", f"127.0.0.1:{port}", "--data", data],
                check=True, stdout=subprocess.DEVNULL)

        push("push-smoke-half.csv")
        wait_for(lambda: len(transcript_matches()) >= 5,
                 what="live matches before the kill")

        os.kill(serve.pid, signal.SIGKILL)
        serve.wait(timeout=10)
        print(f"killed serve generation 1 with "
              f"{len(transcript_matches())} matches delivered")

        serve2 = start_serve(port, 2)
        push("push-smoke-full.csv")       # re-feed: WAL dedup absorbs it
        wait_for(lambda: len({m for _, m in transcript_matches()})
                 >= PAIRS - 1, what="resumed delivery after restart")

        hostile_frame_is_refused(port)
        check_ingest_counters(port, 2)

        from repro.net import request_quit
        request_quit("127.0.0.1", port)
        assert tail.wait(timeout=30) == 0, "tail did not exit cleanly"
        assert serve2.wait(timeout=30) == 0, "serve did not drain cleanly"
    finally:
        for process in (serve, serve2, tail):
            if process is not None and process.poll() is None:
                process.kill()

    received = transcript_matches()
    ids = [mid for _, mid in received]
    seqs = [seq for seq, _ in received]
    missing = expected - set(ids)
    extra = set(ids) - expected
    assert not missing, f"match loss across restart: {missing}"
    assert not extra, f"unexpected matches: {extra}"
    assert len(ids) == len(set(ids)), "duplicate delivery across restart"
    assert seqs == sorted(seqs), "cursors went backwards"
    cursor = int(open(CURSOR).read().strip())
    assert cursor == max(seqs), (cursor, max(seqs))
    print(f"push smoke OK: {len(ids)} matches delivered exactly once "
          f"across SIGKILL + resume (final cursor {cursor})")


if __name__ == "__main__":
    main()
