"""Expected outputs: what every workload must produce, computed apart.

* **Served** — an in-process :class:`~repro.registry.PatternRegistry`
  fed the same batches yields the expected ``(pattern id, match id)``
  set and, per match, its *trigger*: the batch whose push first reports
  it.  Latency is timed from that batch, so it excludes window length.
  The same pass lays out the segments, because every timed one must end
  on a batch that triggers a match (see :mod:`ledger.served`).
* **batch-p3-exp2** — the streaming registry must report exactly the
  matches ``repro.query`` selects.
* **batch-agg-fold** — ``fold_reference`` over the enumerated
  ``selection="accepted"`` buffers must finalise to the folded values.

Every check also holds the measured Ω against the paper's bound
(:func:`repro.complexity.pattern_instance_bound`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import repro
from repro.agg.engine import finalize_snapshot, fold_reference
from repro.complexity import pattern_instance_bound
from repro.lang import parse_query_spec
from repro.net.protocol import encode_frame, event_from_json
from repro.obs.lineage import match_id
from repro.registry import PatternRegistry

from .common import digest
from .served import INGEST_QUEUE, Key
from .streams import Row, window_size
from .workloads import Served

#: Length of one paced segment (one latency window), in seconds.
SEGMENT_SECONDS = 1.0


@dataclass
class ServedPlan:
    """One served pass, laid out: what to send when, what must arrive."""

    batch: int
    rate: int
    frames: List[bytes]
    batch_events: List[int]
    #: ``(kind, low, high)`` batch ranges in sending order; kinds are
    #: ``warm``, ``paced``, ``burst`` and ``tail`` (see ledger.served).
    segments: List[Tuple[str, int, int]]
    #: ``(key, trigger batch)`` in oracle order.
    expected: List[Tuple[Key, int]]
    #: Keys the end-of-stream flush must deliver.
    flushed: List[Key]
    #: ``trigger batch -> keys it triggers``.
    keys_by_batch: Dict[int, List[Key]]
    omega_peak: int
    omega_bound: int

    @property
    def events(self) -> int:
        return sum(self.batch_events)


def served_events(spec: Served, paced_seconds: float, bursts: int) -> int:
    """Stream length that is always enough for :func:`plan_served`."""
    per_segment = max(1, round(spec.rate * SEGMENT_SECONDS / spec.batch))
    batches = (spec.warm_batches + cycles(paced_seconds) * per_segment
               + bursts * spec.burst_batches)
    return batches * spec.batch


def cycles(paced_seconds: float) -> int:
    """Paced segments (each followed by its share of the bursts)."""
    return max(1, round(paced_seconds / SEGMENT_SECONDS))


def plan_served(spec: Served, rows: List[Row], paced_seconds: float,
                bursts: int) -> ServedPlan:
    """Run the oracle over ``rows`` and lay the segments out.

    One-second paced segments alternate with the bursts, dealt evenly
    between them.  Every timed segment must end on a batch that
    triggers a match, so the oracle is advanced only as far as each
    decision needs; whatever it has seen beyond the last burst is sent
    as an untimed ``tail``, so that the server's end-of-stream flush
    works on exactly the state the oracle flushed.
    """
    registry = PatternRegistry()
    patterns = []
    for pattern_id, query in spec.queries:
        registry.register(query, pattern_id=pattern_id)
        patterns.append(parse_query_spec(query)[0])
    events = [event_from_json(row) for row in rows]
    size = spec.batch
    chunks = [rows[i:i + size] for i in range(0, len(rows), size)]
    expected: List[Tuple[Key, int]] = []
    keys_by_batch: Dict[int, List[Key]] = {}
    omega_peak = 0
    consumed = 0  # batches the oracle has seen

    def advance(upto: int) -> None:
        nonlocal consumed, omega_peak
        if upto > len(chunks):
            raise ValueError("stream too short for the segment layout")
        while consumed < upto:
            chunk = events[consumed * size:(consumed + 1) * size]
            for match in registry.push_many(chunk):
                key = (match.pattern_id, match_id(match.substitution))
                expected.append((key, consumed))
                keys_by_batch.setdefault(consumed, []).append(key)
            omega_peak = max(omega_peak, registry.active_instances)
            consumed += 1

    def close_on_trigger(low: int, high: int) -> int:
        """Shrink ``[low, high)`` to end on its last triggering batch."""
        advance(high)
        for index in range(high - 1, low - 1, -1):
            if index in keys_by_batch:
                return index + 1
        raise ValueError(f"no batch in [{low}, {high}) triggers a match")

    segments: List[Tuple[str, int, int]] = []
    cursor = 0
    while cursor < spec.warm_batches:
        high = min(cursor + INGEST_QUEUE, spec.warm_batches)
        advance(high)
        segments.append(("warm", cursor, high))
        cursor = high
    paced = max(1, round(spec.rate * SEGMENT_SECONDS / size))
    rounds = cycles(paced_seconds)
    for cycle in range(rounds):
        high = close_on_trigger(cursor, cursor + paced)
        segments.append(("paced", cursor, high))
        cursor = high
        # Deal the bursts evenly: cycle c gets those whose turn it is.
        for _ in range((cycle + 1) * bursts // rounds
                       - cycle * bursts // rounds):
            high = close_on_trigger(cursor, cursor + spec.burst_batches)
            segments.append(("burst", cursor, high))
            cursor = high
    if cursor < consumed:
        segments.append(("tail", cursor, consumed))
    flushed = [(match.pattern_id, match_id(match.substitution))
               for match in registry.close()]
    window = window_size(rows[:consumed * size])
    return ServedPlan(
        batch=size, rate=spec.rate,
        frames=[encode_frame({"type": "batch", "seq": index,
                              "events": chunk})
                for index, chunk in enumerate(chunks[:consumed])],
        batch_events=[len(chunk) for chunk in chunks[:consumed]],
        segments=segments, expected=expected, flushed=flushed,
        keys_by_batch=keys_by_batch, omega_peak=omega_peak,
        omega_bound=sum(pattern_instance_bound(p, window) for p in patterns))


def check_served(plan: ServedPlan, arrivals: Dict[Key, int],
                 duplicates: int) -> Dict[str, int]:
    """Compare what the tail received with what the oracle expects."""
    wanted = {key for key, _ in plan.expected} | set(plan.flushed)
    return {"expected": len(wanted),
            "missing": len(wanted - arrivals.keys()),
            "unexpected": len(arrivals.keys() - wanted),
            "duplicates": duplicates}


def batch_expected(query: str, rows: List[Row]) -> dict:
    """The reference answer for one batch unit (see module docstring)."""
    events = [event_from_json(row) for row in rows]
    pattern, aggregate = parse_query_spec(query)
    bound = pattern_instance_bound(pattern, window_size(rows))
    if aggregate is None:
        registry = PatternRegistry()
        registry.register(pattern, pattern_id="oracle")
        reported = []
        for event in events:
            reported.extend(registry.push(event))
        reported.extend(registry.close())
        ids = [match_id(match.substitution) for match in reported]
        return {"count": len(ids), "digest": digest(ids),
                "omega_bound": bound}
    accepted = repro.query(pattern, events, selection="accepted").accepted
    snapshot = fold_reference(aggregate, accepted)
    return {"count": snapshot["matches"],
            "values": finalize_snapshot(aggregate, snapshot),
            "omega_bound": bound}
