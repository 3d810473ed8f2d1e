"""Quickstart: define events, a SES pattern, and find matches.

Run with::

    python examples/quickstart.py

A sequenced event set (SES) pattern matches a *sequence of sets* of
events: events matching the same set may arrive in any order, events
matching different sets must be strictly ordered, and everything must
happen within a time window.
"""

import repro
from repro import Event, EventRelation, SESPattern


def main() -> None:
    # A tiny login-audit trail: timestamps are minutes since midnight.
    relation = EventRelation([
        Event(ts=0, eid="boot", kind="boot", host="web-1"),
        Event(ts=3, eid="cfg", kind="config", host="web-1"),
        Event(ts=5, eid="svc", kind="service", host="web-1"),
        Event(ts=9, eid="ready", kind="ready", host="web-1"),
        Event(ts=14, eid="cfg2", kind="config", host="web-2"),
        Event(ts=15, eid="svc2", kind="service", host="web-2"),
        Event(ts=16, eid="boot2", kind="boot", host="web-2"),
        Event(ts=21, eid="ready2", kind="ready", host="web-2"),
    ])

    # Startup requires boot + config + service in ANY order, then ready —
    # all on the same host, within 15 minutes.  Note host web-2 performs
    # the first three steps in a different order than web-1; a PERMUTE
    # (event set) pattern matches both.
    pattern = SESPattern(
        sets=[["b", "c", "s"], ["r"]],
        conditions=[
            "b.kind = 'boot'", "c.kind = 'config'", "s.kind = 'service'",
            "r.kind = 'ready'",
            "b.host = c.host", "b.host = s.host", "b.host = r.host",
        ],
        tau=15,
    )

    result = repro.query(pattern, relation)
    print(f"found {len(result)} startup sequences")
    for substitution in result:
        host = substitution.events()[0]["host"]
        steps = ", ".join(f"{var!r}={event.eid}@{event.ts}"
                          for var, event in substitution)
        print(f"  host {host}: {steps}")

    stats = result.stats
    print(f"(processed {stats.events_processed} events with at most "
          f"{stats.max_simultaneous_instances} automaton instances)")


if __name__ == "__main__":
    main()
