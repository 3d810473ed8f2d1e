#!/usr/bin/env python
"""CI chaos smoke: a fixed fault plan must not change the answer.

Runs the supervised sharded stream matcher under a deterministic
:class:`repro.FaultPlan` — every shard killed once mid-stream, one
event poisoned — and checks the recovered run against the fault-free
serial reference:

* the kill-only scenario must produce *exactly* the serial match set
  (order-insensitive, no duplicates: exactly-once delivery);
* the poison scenario must quarantine exactly one event to the
  dead-letter file (with its flight dump) and still produce every
  match the healthy remainder of the stream supports.

On failure the evidence is left in the working directory for the CI
artifact upload: ``chaos-dead-letter.jsonl`` and
``chaos-flight-dump.json``.

Usage: PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

import json
import sys

from repro import (DeadLetterQueue, Event, FaultPlan, RestartPolicy,
                   SESPattern, Supervisor)
from repro.obs import Observability
from repro.parallel import ShardedStreamMatcher
from repro.stream import PartitionedContinuousMatcher

PATTERN = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)
WORKERS = 2


def make_events():
    events, ts = [], 0
    for _ in range(3):
        for key in range(6):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return events


def match_set(substitutions):
    return {frozenset(f"{var!r}/{event.eid}"
                      for var, event in sub.bindings)
            for sub in substitutions}


def serial_reference(events):
    matcher = PartitionedContinuousMatcher(PATTERN, partition_by="ID")
    reported = matcher.push_many(events)
    reported.extend(matcher.close())
    return reported


def run_supervised(events, faults, dead_letter):
    obs = Observability()
    supervisor = Supervisor(
        restart=RestartPolicy(max_restarts=5, backoff=0.01,
                              max_backoff=0.1),
        checkpoint_every=8, dead_letter=dead_letter, faults=faults)
    matcher = ShardedStreamMatcher(PATTERN, workers=WORKERS,
                                   partition_by="ID",
                                   supervisor=supervisor,
                                   observability=obs)
    with matcher:
        reported = matcher.push_many(events)
        reported += matcher.close()
    return matcher, reported, supervisor, obs


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


def main():
    events = make_events()
    expected = match_set(serial_reference(events))
    status = 0

    # Scenario 1: kill each shard once, mid-window.
    dead_letter = DeadLetterQueue()
    faults = FaultPlan().kill(0, 7).kill(1, 5, mode="exit")
    matcher, reported, supervisor, obs = run_supervised(events, faults,
                                                        dead_letter)
    got = match_set(reported)
    print(f"kill-each-shard-once: {len(reported)} matches, "
          f"{supervisor.restarts_total} restarts, "
          f"health={matcher.health()['status']}")
    if got != expected:
        status |= fail(f"kill scenario diverged from serial reference "
                       f"(missing={len(expected - got)}, "
                       f"extra={len(got - expected)})")
    if len(reported) != len(expected):
        status |= fail("kill scenario delivered duplicate matches")
    if supervisor.restarts_total != 2:
        status |= fail(f"expected 2 restarts, saw {supervisor.restarts_total}")

    # Scenario 2: one poisoned event must be quarantined, the rest of
    # the stream must still match.
    dead_letter = DeadLetterQueue()
    matcher, reported, supervisor, obs = run_supervised(
        events, FaultPlan().corrupt(0, 4), dead_letter)
    print(f"poison-event: {len(dead_letter)} quarantined, "
          f"{len(reported)} matches, "
          f"health={matcher.health()['status']}")
    dead_letter.write_jsonl("chaos-dead-letter.jsonl")
    if len(dead_letter) != 1:
        status |= fail(f"expected 1 quarantined event, saw "
                       f"{len(dead_letter)}")
    else:
        entry = dead_letter.entries[0]
        if entry.flight_dump is not None:
            with open("chaos-flight-dump.json", "w",
                      encoding="utf-8") as handle:
                json.dump(entry.flight_dump, handle, default=str)
        else:
            status |= fail("quarantined event carried no flight dump")
        survivors = [e for e in events if e.eid != entry.event.eid]
        if match_set(reported) != match_set(
                serial_reference(survivors)):
            status |= fail("poison scenario lost matches from the "
                           "healthy stream")
        quarantined = obs.snapshot().get("ses_quarantined_events", {})
        if quarantined.get("value") != 1:
            status |= fail(f"ses_quarantined_events = "
                           f"{quarantined.get('value')!r}, expected 1")

    print("chaos smoke:", "FAILED" if status else "OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
