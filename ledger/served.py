"""Served path: the child server, the load generator, one timed pass.

The system under test is always a child process (``repro serve
--subscribe --delivery-wal``, or the traced twin in
:mod:`ledger.traced_serve`); this module is the other side of the
socket.  The load generator is one process with two threads and two
connections: the main thread pushes length-framed batches and reads the
acks, one thread tails the SSE match stream (``subscribe_sse``) and
stamps every match on arrival.

A pass is a list of segments against one server (laid out by
:func:`ledger.oracle.plan_served`):

* **warm** — untimed: enough stream for every pattern's window to fill,
  so Ω is stationary when timing starts.
* **paced** — open loop: batch *i* is due at ``t0 + i·batch/rate`` and is
  sent then whether or not the server keeps up; a match's latency runs
  from the *due* time of the batch holding its trigger event to its
  arrival at the tail, so a stall charges every batch it delays.  A
  ``slow_down`` reply is a failed operation (the batch is not resent —
  resending would reorder the stream).
* **burst** — closed loop, saturated: at most ``ingest_queue`` batches
  are sent back to back, so the bounded ingest queue can never refuse
  one.  Every burst (and paced segment) ends on a batch that triggers a
  match, and the next segment starts when that match arrives: the queue
  is then empty again.  Bursts are the timed throughput units.

Paced segments and bursts alternate over the run, so a slow stretch of
the machine dents a share of both instead of swallowing one phase.
"""

from __future__ import annotations

import gc
import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net import request_quit, subscribe_sse
from repro.net.protocol import PROTO_VERSION, FrameDecoder, encode_frame

from .common import (WAIT_LIMIT, calibrate, child_env, peak_rss_mb,
                     slowdown, split_cpus)

#: ``repro serve --ingest-queue`` default; a burst never exceeds it.
INGEST_QUEUE = 64

_EMPTY_CSV = "eid,T,ID,L,V,U\n#types,int,int,str,float,str\n"

Key = Tuple[str, str]  # (pattern_id, match_id)


def http_json(url: str, payload: Optional[dict] = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=WAIT_LIMIT) as response:
        return json.load(response)


class Tail(threading.Thread):
    """The subscriber thread: stamps each match as it arrives."""

    def __init__(self, host: str, port: int, keep_payloads: bool):
        super().__init__(name="ledger-tail", daemon=True)
        self.address = (host, port)
        self.arrivals: Dict[Key, int] = {}
        #: Match payloads, kept only for the traced run's SSE replay.
        self.payloads: Optional[List[dict]] = [] if keep_payloads else None
        self.duplicates = 0
        self.attached = threading.Event()
        self.drained = threading.Event()
        self._cond = threading.Condition()

    def run(self) -> None:
        host, port = self.address
        # The default 256-entry subscriber queue would disconnect the
        # tail whenever a burst publishes faster than the loop thread
        # writes; the resume would be gap-free but would charge a
        # reconnect to whichever match it hit.
        for item in subscribe_sse(host, port, queue_size=8192,
                                  reconnect=False):
            now = time.perf_counter_ns()
            kind = item["event"]
            if kind == "match":
                data = item["data"]
                key = (data["pattern_id"], data["match_id"])
                with self._cond:
                    if key in self.arrivals:
                        self.duplicates += 1
                    else:
                        self.arrivals[key] = now
                    self._cond.notify_all()
                if self.payloads is not None:
                    self.payloads.append(data)
            elif kind == "hello":
                self.attached.set()
            elif kind == "drain":
                self.drained.set()

    def wait_for(self, keys: Sequence[Key]) -> int:
        """Arrival time (ns) of the last of ``keys``, waiting for all."""
        arrivals = self.arrivals
        with self._cond:
            if not self._cond.wait_for(
                    lambda: all(key in arrivals for key in keys),
                    timeout=WAIT_LIMIT):
                raise TimeoutError("expected matches never arrived")
            return max(arrivals[key] for key in keys)


class Server:
    """One system-under-test child and the generator's two connections."""

    def __init__(self, workdir: Path, queries: Sequence[Tuple[str, str]],
                 traced: bool = False):
        self.workdir = workdir
        self.queries = list(queries)
        self.traced = traced
        self.process: Optional[subprocess.Popen] = None
        self.tail: Optional[Tail] = None
        self.sock: Optional[socket.socket] = None
        self.decoder = FrameDecoder()
        self.obs_url = self.push_url = ""
        self.setup_s = 0.0

    @property
    def wal_path(self) -> Path:
        return self.workdir / "delivery.wal"

    @property
    def spans_path(self) -> Path:
        return self.workdir / "spans.jsonl"

    def start(self) -> "Server":
        """Spawn the child and bring it to *ready for the first event*:
        push endpoint up, every pattern registered (all but the first
        hot, over ``POST /patterns``), subscriber attached, ingest
        connection greeted.  ``setup_s`` is the time that took."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        data = self.workdir / "empty.csv"
        data.write_text(_EMPTY_CSV)
        self.wal_path.unlink(missing_ok=True)
        module = "ledger.traced_serve" if self.traced else "repro"
        argv = [sys.executable, "-m", module, "serve",
                "--query", self.queries[0][1], "--data", str(data),
                "--listen", "127.0.0.1:0", "--subscribe", "127.0.0.1:0",
                "--delivery-wal", str(self.wal_path)]
        if self.traced:
            argv += ["--trace-out", str(self.spans_path)]
        child_cpus = split_cpus()[1]
        began = time.perf_counter()
        self.process = subprocess.Popen(
            argv, cwd=self.workdir, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        try:
            if child_cpus is not None:
                os.sched_setaffinity(self.process.pid, child_cpus)
            for line in self.process.stdout:
                if line.startswith("serving observability on "):
                    self.obs_url = line.split()[-1]
                elif line.startswith("serving push endpoint on "):
                    self.push_url = line.split()[-1]
                elif line.startswith("replayed "):
                    break
            if not self.push_url:
                raise RuntimeError("server child never became ready")
            # The CLI registered --query as p0; the rest go in hot.
            for pattern_id, query in self.queries[1:]:
                http_json(self.obs_url + "/patterns",
                          {"id": pattern_id, "query": query})
            host, port = self.push_url.rsplit("/", 1)[1].split(":")
            self.tail = Tail(host, int(port), keep_payloads=self.traced)
            self.tail.start()
            if not self.tail.attached.wait(WAIT_LIMIT):
                raise RuntimeError("subscriber never attached")
            self.sock = socket.create_connection((host, int(port)),
                                                 timeout=WAIT_LIMIT)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.sendall(encode_frame({"type": "hello",
                                            "proto": PROTO_VERSION}))
            while not self.decoder.feed(self.sock.recv(65536)):
                pass
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - began
        return self

    def queue_depth(self) -> int:
        return http_json(self.push_url + "/statz")["ingest"]["queue_depth"]

    def scrape(self) -> Tuple[dict, dict]:
        """``/varz`` (the JSON twin of ``/metrics``) and ``/statz``."""
        return (http_json(self.obs_url + "/varz"),
                http_json(self.push_url + "/statz"))

    def stop(self) -> float:
        """Graceful drain (flushes open windows to the tail); returns the
        child's peak RSS in MiB, read just before the drain."""
        try:
            rss = peak_rss_mb(self.process.pid)
            self.sock.sendall(encode_frame({"type": "bye"}))
            request_quit(*self.tail.address)
            if not self.tail.drained.wait(WAIT_LIMIT):
                raise RuntimeError("tail never saw the drain notice")
            self.process.wait(timeout=WAIT_LIMIT)
            self.tail.join(timeout=WAIT_LIMIT)
        finally:
            self.kill()
        return rss

    def kill(self) -> None:
        """Release everything; safe after any failure, idempotent."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.process is not None:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            self.process.stdout.close()
            self.process = None


class Pusher:
    """The main thread's side of the ingest connection."""

    def __init__(self, server: Server, frames: Sequence[bytes]):
        self.sock = server.sock
        self.decoder = server.decoder
        self.frames = frames
        self.sent_ns: Dict[int, int] = {}
        self.ack_ns: Dict[int, int] = {}
        self.depth: Dict[int, int] = {}
        self.refused: List[int] = []

    def _read_replies(self) -> None:
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("server closed the ingest connection")
        now = time.perf_counter_ns()
        for reply in self.decoder.feed(data):
            kind = reply.get("type")
            if kind == "ack":
                self.ack_ns[reply["seq"]] = now
                self.depth[reply["seq"]] = reply["queue_depth"]
            elif kind == "slow_down":
                self.refused.append(reply["seq"])
            else:
                raise RuntimeError(f"unexpected ingest reply {reply!r}")

    def poll(self, until: float) -> None:
        """Read replies until ``perf_counter()`` reaches ``until``."""
        while True:
            remaining = until - time.perf_counter()
            if remaining <= 0:
                return
            if select.select([self.sock], [], [], remaining)[0]:
                self._read_replies()

    def send(self, low: int, high: int) -> None:
        for index in range(low, high):
            self.sent_ns[index] = time.perf_counter_ns()
            self.sock.sendall(self.frames[index])

    def settle(self, upto: int) -> None:
        """Wait until every batch below ``upto`` has been answered."""
        deadline = time.perf_counter() + WAIT_LIMIT
        while len(self.ack_ns) + len(self.refused) < upto:
            if time.perf_counter() > deadline:
                raise TimeoutError("ingest replies never arrived")
            self.poll(time.perf_counter() + 0.05)


def run_pass(server: Server, plan) -> dict:
    """Drive ``plan`` (a :class:`ledger.oracle.ServedPlan`) through
    ``server``; returns the samples of the pass, every timing scaled to
    the reference machine speed (:mod:`ledger.estimate`)."""
    tail = server.tail
    pusher = Pusher(server, plan.frames)
    triggered = plan.keys_by_batch
    period = plan.batch / plan.rate
    child_cpus = split_cpus()[1]
    probes: List[float] = []
    due_ns: Dict[int, int] = {}
    lateness: List[float] = []
    paced: List[Tuple[int, int, int]] = []   # (segment, low, high)
    bursts: List[Tuple[int, int, float]] = []  # (segment, events, seconds)
    # A collection of the generator's own heap (the plan holds ~1e5
    # frames and keys) would stall the sender for tens of milliseconds.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        for segment, (kind, low, high) in enumerate(plan.segments):
            # The server is idle between segments: its CPU is free for
            # a calibration probe, which brackets every timed segment.
            probes.append(calibrate(child_cpus))
            if kind == "paced":
                t0 = time.perf_counter() + 0.02
                for index in range(low, high):
                    due = t0 + (index - low) * period
                    pusher.poll(due)
                    lateness.append((time.perf_counter() - due) * 1e3)
                    pusher.send(index, index + 1)
                    due_ns[index] = int(due * 1e9)
                paced.append((segment, low, high))
                tail.wait_for(triggered[high - 1])
            elif kind == "burst":
                began = time.perf_counter_ns()
                pusher.send(low, high)
                ended = tail.wait_for(triggered[high - 1])
                bursts.append((segment, sum(plan.batch_events[low:high]),
                               (ended - began) / 1e9))
            else:  # warm / tail: untimed, nothing guaranteed to arrive
                pusher.send(low, high)
                pusher.settle(high)
                while server.queue_depth():
                    time.sleep(0.005)
            pusher.settle(high)
        probes.append(calibrate(child_cpus))
    finally:
        gc.enable()
        gc.unfreeze()
    factor = [slowdown(before, after)
              for before, after in zip(probes, probes[1:])]
    arrivals = tail.arrivals
    paced_batches = [i for _, low, high in paced for i in range(low, high)]
    return {
        "bursts": [(events, seconds / factor[segment])
                   for segment, events, seconds in bursts],
        # One window of latencies per paced second.
        "windows": [[(arrivals[key] - due_ns[batch]) / 1e6 / factor[segment]
                     for batch in range(low, high)
                     for key in triggered.get(batch, ()) if key in arrivals]
                    for segment, low, high in paced],
        "lateness_ms": lateness,
        "ack_ms": [(pusher.ack_ns[i] - pusher.sent_ns[i]) / 1e6
                   for i in paced_batches if i in pusher.ack_ns],
        "ack_ns": {i: pusher.ack_ns[i] for i in paced_batches
                   if i in pusher.ack_ns},
        "queue_depth": [pusher.depth[i] for i in paced_batches
                        if i in pusher.depth],
        "refused": len(pusher.refused), "period_ms": period * 1e3,
        "speed": factor, "first_probe": probes[0],
    }
