"""RFID-based shipment tracking, another of the paper's motivating domains.

A pallet leaving a warehouse must be read by three dock sensors — weigh
bridge, customs scanner, and gate antenna.  Physical layout makes the
read order unpredictable (that is the PERMUTE part), but every complete
dock passage must be followed by a truck-departure read, all within 20
minutes.  Shipments whose sensor set is incomplete (a missed read) must
not match.

Run with::

    python examples/rfid_tracking.py
"""

import repro
from repro import Event, EventRelation
from repro.lang import parse_pattern

# Join-writing practice for skip-till-next-match engines: connect the
# equality constraints PAIRWISE (w-c, w-g, c-g), not just in a star around
# one variable.  With only star joins, an instance that bound ``g`` first
# has no checkable constraint when a *different* pallet's customs read
# arrives; greedy consumption then binds it and the run dead-ends, losing
# the match (see repro.automaton.optimizations for the same effect).
QUERY = """
    PATTERN PERMUTE(w, c, g) THEN t
    WHERE w.sensor = 'weigh'   AND c.sensor = 'customs'
      AND g.sensor = 'gate'    AND t.sensor = 'truck'
      AND w.tag = c.tag AND w.tag = g.tag AND c.tag = g.tag
      AND w.tag = t.tag
    WITHIN 20
"""


def dock_reads() -> EventRelation:
    """Sensor reads for three pallets (timestamps in minutes)."""
    rows = [
        # pallet A: complete passage, order weigh-customs-gate.
        (1, "weigh", "pallet-A"), (4, "customs", "pallet-A"),
        (6, "gate", "pallet-A"), (12, "truck", "pallet-A"),
        # pallet B: complete passage, scrambled order gate-weigh-customs.
        (3, "gate", "pallet-B"), (7, "weigh", "pallet-B"),
        (9, "customs", "pallet-B"), (15, "truck", "pallet-B"),
        # pallet C: customs read missing -> must NOT match.
        (5, "weigh", "pallet-C"), (8, "gate", "pallet-C"),
        (14, "truck", "pallet-C"),
        # pallet D: complete but truck read too late (outside 20 minutes).
        (20, "customs", "pallet-D"), (21, "weigh", "pallet-D"),
        (23, "gate", "pallet-D"), (55, "truck", "pallet-D"),
    ]
    events = [Event(ts=ts, eid=f"{tag}:{sensor}", sensor=sensor, tag=tag)
              for ts, sensor, tag in rows]
    return EventRelation(sorted(events, key=lambda e: e.ts))


def main() -> None:
    pattern = parse_pattern(QUERY)
    relation = dock_reads()
    result = repro.compile(pattern).match(relation)
    shipped = {m.events()[0]["tag"] for m in result}
    print(f"{len(relation)} reads, {len(result)} complete dock passages")
    for substitution in result:
        tag = substitution.events()[0]["tag"]
        order = " -> ".join(e["sensor"] for e in substitution.events())
        print(f"  {tag}: {order} ({substitution.span()} min)")

    for expected in ("pallet-A", "pallet-B"):
        assert expected in shipped, f"{expected} should have matched"
    assert "pallet-C" not in shipped, "incomplete passage must not match"
    assert "pallet-D" not in shipped, "late departure must not match"
    print("pallet-C (missed read) and pallet-D (too slow) correctly rejected")


if __name__ == "__main__":
    main()
