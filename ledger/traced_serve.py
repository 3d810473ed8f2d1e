"""The traced twin of ``repro serve --subscribe --delivery-wal``.

``python -m ledger.traced_serve serve --query Q --data CSV --listen H:P
--subscribe H:P --delivery-wal PATH --trace-out SPANS``

Assembles, from this file, the same public pieces the CLI's single-
worker serve assembles — ``PatternRegistry``, ``SubscriptionHub``,
``DeliveryLog``, ``PushServer``, ``ObsServer`` with the CLI's defaults —
and wraps each seam between them with a span: the server's ``submit=``
callable around ``registry.push_many``, the ``on_match`` callback around
``hub.publish``, a delegating delivery log around ``append``.  All three
run on the server's one matcher thread, so spans nest by call order:
``wal.append`` inside ``hub.publish`` inside ``registry.push_many``.
It prints the CLI's start-up lines, so the generator drives both alike.
"""

from __future__ import annotations

import argparse
import itertools
import signal
import sys
import threading

from repro.explain import explain
from repro.lang import parse_query_spec
from repro.net import PushServer, SubscriptionHub
from repro.obs import (FlightRecorder, ObsServer, Observability,
                       live_snapshot, parse_listen)
from repro.plan.cache import compile as compile_plan
from repro.registry import PatternRegistry, RegistryHTTPAdapter
from repro.resilience import DeliveryLog
from repro.storage.csvio import load_relation

from .trace import Spans


class TracedLog:
    """A delivery log that times every append of the one it wraps."""

    def __init__(self, inner: DeliveryLog, spans: Spans):
        self._inner = inner
        self._spans = spans
        self.path = inner.path

    def append(self, record: dict) -> None:
        span = self._spans.start("resilience.delivery.append")
        try:
            self._inner.append(record)
        finally:
            self._spans.stop(span, matches=1)

    def __iter__(self):
        return iter(self._inner)

    def entries_after(self, cursor: int):
        return self._inner.entries_after(cursor)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m ledger.traced_serve")
    parser.add_argument("command", choices=["serve"])
    parser.add_argument("--query", required=True)
    parser.add_argument("--data", required=True)
    parser.add_argument("--listen", required=True)
    parser.add_argument("--subscribe", required=True)
    parser.add_argument("--delivery-wal", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)

    spans = Spans()
    pattern, aggregate = parse_query_spec(args.query)
    relation = load_relation(args.data)
    obs = Observability()
    plan = compile_plan(pattern, aggregate=aggregate, observability=obs)
    stop = threading.Event()
    flight = FlightRecorder()
    registry = PatternRegistry(use_filter=True, observability=obs,
                               flight=flight)
    registry.register(plan)

    def health():
        return True, {"status": "ok", "workers": 1,
                      "patterns": len(registry),
                      "active_instances": registry.active_instances,
                      "matches": len(registry.matches)}

    hub = SubscriptionHub(
        ring_size=1024, wal=TracedLog(DeliveryLog(args.delivery_wal), spans),
        observability=obs, default_queue=256, default_policy="disconnect",
        heartbeat_seconds=15.0, idle_timeout_seconds=300.0)

    def on_match(pattern_id, match) -> None:
        span = spans.start("net.hub.publish")
        entry = None
        try:
            entry = hub.publish(match, pattern_id=pattern_id,
                                tenant=registry.tenant_of(pattern_id))
        finally:
            spans.stop(span, matches=1, key=None if entry is None
                       else f"{pattern_id}/{entry.match_id}")

    registry.on_match(on_match)
    batches = itertools.count()

    def submit(events):
        span = spans.start("registry.push_many", next(batches))
        try:
            return registry.push_many(events)
        finally:
            spans.stop(span, events=len(events))

    closed = []

    def close_matcher() -> None:
        if not closed:
            closed.append(True)
            registry.close()

    push = PushServer(hub, submit=submit, flush=close_matcher,
                      host=parse_listen(args.subscribe)[0],
                      port=parse_listen(args.subscribe)[1],
                      ingest_queue=64, observability=obs, health=health,
                      on_quit=stop.set)
    server = ObsServer(*parse_listen(args.listen),
                       snapshot=lambda: live_snapshot(obs), health=health,
                       flight=flight,
                       explain=lambda: explain(plan).to_dict(),
                       patterns=RegistryHTTPAdapter(registry),
                       lineage=lambda: obs.lineage, on_quit=stop.set)
    signal.signal(signal.SIGTERM, lambda signo, frame: stop.set())
    try:
        server.start()
        print(f"serving observability on {server.url}", flush=True)
        push.start()
        print(f"serving push endpoint on {push.url}", flush=True)
        push.submit_events(relation)
        push.submit_call(registry.publish_stats)
        print(f"replayed {len(relation)} events, "
              f"{len(registry.matches)} match(es) so far", flush=True)
        while not stop.wait(0.25):
            pass
    finally:
        push.shutdown(grace=5.0)
        close_matcher()
        server.stop()
        spans.write(args.trace_out)
    print(f"done: {len(registry.matches)} match(es) reported")
    return 0


if __name__ == "__main__":
    sys.exit(main())
