"""Per-layer metrics of a traced run (layers are ``repro`` module names).

Three sources, in order of preference:

1. **spans** around the seams the benchmark itself assembles
   (:mod:`ledger.traced_serve`, :func:`ledger.trace.traced_query`);
2. **counts** the program already keeps — ``result.stats``, ``/varz``
   (the JSON twin of ``/metrics``) and ``/statz``, scraped once after the
   timed window;
3. **standalone replays** of sub-layers that have no seam
   (``PredicateBank.truth_columns``, ``parallel.codec``, the wire codecs
   on the client side) over the same chunks the workload uses.

On a served workload the executor and selection rows come from an
in-process replay of every pattern over the head of the stream (the
registry's matchers sit behind no seam); on a batch workload every
network, hub and WAL row is 0 — the prediction "no movement" made
checkable.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.lang import parse_query_spec
from repro.net.protocol import (FrameDecoder, encode_frame, event_from_json,
                                sse_format)
from repro.obs import Observability
from repro.parallel.codec import decode_events, encode_events
from repro.plan.plan import build_plan
from repro.registry import PatternRegistry
from repro.registry.admission import AdmissionSpec, StartGate
from repro.registry.bank import PredicateBank

from . import trace
from .common import slowdown
from .estimate import burst_rate, end_to_end, percentile
from .streams import Row

#: Events of the stream's head that the standalone replays run over.
REPLAY_EVENTS = 3000

#: Every per-layer metric and its unit, in reporting order.
CATALOGUE: Tuple[Tuple[str, str], ...] = (
    ("net.protocol.decode_us_per_event", "us"),
    ("net.protocol.sse_encode_us_per_match", "us"),
    ("net.protocol.bytes_in_per_event", "bytes"),
    ("net.protocol.bytes_out_per_match", "bytes"),
    ("net.server.ack_ms_p50", "ms"),
    ("net.server.queue_wait_ms_p50", "ms"),
    ("net.server.queue_wait_ms_p99", "ms"),
    ("net.server.backpressure_replies", "count"),
    ("net.server.ingest_errors", "count"),
    ("registry.push_many_self_us_per_event", "us"),
    ("registry.bank.truth_columns_us_per_event", "us"),
    ("registry.deliveries_per_event", "ratio"),
    ("registry.matches", "count"),
    ("plan.prefilter.mask_us_per_event", "us"),
    ("plan.prefilter.admit_ratio", "ratio"),
    ("automaton.executor.run_us_per_event", "us"),
    ("automaton.executor.us_per_transition", "us"),
    ("automaton.executor.instances_created", "count"),
    ("automaton.executor.instances_peak", "count"),
    ("automaton.executor.transitions_fired", "count"),
    ("automaton.executor.accepted_per_instance", "ratio"),
    ("core.semantics.select_us_per_accepted", "us"),
    ("core.semantics.select_share", "ratio"),
    ("agg.engine.run_us_per_event", "us"),
    ("agg.engine.groups_peak", "count"),
    ("agg.engine.matches_folded", "count"),
    ("lang.parse_ms", "ms"),
    ("plan.cache.compile_ms", "ms"),
    ("net.hub.publish_self_us_per_match", "us"),
    ("net.hub.deliver_wait_ms_p50", "ms"),
    ("net.hub.published", "count"),
    ("net.hub.duplicates_suppressed", "count"),
    ("resilience.delivery.append_us_per_match", "us"),
    ("resilience.delivery.bytes_per_match", "bytes"),
    ("parallel.codec.roundtrip_us_per_event", "us"),
    ("obs.overhead_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    # Not layers of the program: the tail latency (reported, not gated)
    # and how far from the reference speed the machine ran.
    ("e2e.match_latency_p99_ms", "ms"),
    ("harness.machine_slowdown", "ratio"),
)


def _finish(values: Dict[str, float]) -> Dict[str, dict]:
    """Every catalogued metric, 0 where the workload has no such layer."""
    unknown = values.keys() - {name for name, _ in CATALOGUE}
    if unknown:
        raise KeyError(f"uncatalogued layer metrics: {sorted(unknown)}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in CATALOGUE}


def _harness(samples: dict) -> Dict[str, float]:
    return {
        "e2e.match_latency_p99_ms":
            end_to_end(samples)["match_latency_p99_ms"]["value"],
        "harness.machine_slowdown": statistics.median(samples["speed"]),
    }


def _per(total_ns: float, count: float, scale: float = 1e3) -> float:
    """``total_ns / count`` in µs (or ms with ``scale=1e6``); 0 if idle."""
    return total_ns / scale / count if count else 0.0


def _timed(call: Callable[[], object]) -> Tuple[object, int]:
    began = time.perf_counter_ns()
    value = call()
    return value, time.perf_counter_ns() - began


# ----------------------------------------------------------------------
# Standalone replays (any workload)
# ----------------------------------------------------------------------
def replays(queries: Sequence[str], rows: List[Row], chunk: int
            ) -> Dict[str, float]:
    """Seam-less sub-layers, replayed over ``rows`` in ``chunk``-sized
    pieces: wire decode, codec round trip, bank truth columns."""
    frames = [encode_frame({"type": "batch", "seq": i // chunk,
                            "events": rows[i:i + chunk]})
              for i in range(0, len(rows), chunk)]
    decode_ns = 0
    chunks = []
    for frame in frames:
        decoded, spent = _timed(lambda: [
            event_from_json(obj)
            for payload in FrameDecoder().feed(frame)
            for obj in payload["events"]])
        decode_ns += spent
        chunks.append(decoded)
    events = [event for piece in chunks for event in piece]
    codec_ns = sum(_timed(lambda: decode_events(encode_events(piece)))[1]
                   for piece in chunks)
    bank = PredicateBank()
    for query in queries:
        plan = build_plan(parse_query_spec(query)[0])
        AdmissionSpec(bank, plan.pattern)
        StartGate(bank, plan.automaton)
    bank_ns = sum(_timed(lambda: bank.truth_columns(piece))[1]
                  for piece in chunks)
    n = len(events)
    return {
        "net.protocol.decode_us_per_event": _per(decode_ns, n),
        "net.protocol.bytes_in_per_event":
            sum(len(frame) for frame in frames) / n,
        "parallel.codec.roundtrip_us_per_event": _per(codec_ns, n),
        "registry.bank.truth_columns_us_per_event": _per(bank_ns, n),
    }


def pipeline(spans: Sequence[dict], stats: Sequence[dict], folded: int
             ) -> Dict[str, float]:
    """The rows read off :func:`ledger.trace.traced_query` spans and the
    ``ExecutionStats`` fields of the same runs (summed over runs)."""
    layers = trace.by_layer(spans)

    def layer(name: str) -> dict:
        return layers.get(name, {"total_ns": 0, "self_ns": 0, "events": 0,
                                 "matches": 0, "spans": 0})

    def total(field: str) -> int:
        return sum(run_stats[field] for run_stats in stats)

    peak = max(run_stats["max_simultaneous_instances"] for run_stats in stats)

    run, agg = layer("automaton.executor.run"), layer("agg.engine.run")
    select = layer("core.semantics.select")
    mask = layer("plan.prefilter.admission_mask")
    enumerating = run["spans"] > 0
    out = {
        "lang.parse_ms": layer("lang.parse")["total_ns"] / 1e6,
        "plan.cache.compile_ms":
            layer("plan.cache.compile")["total_ns"] / 1e6,
        "plan.prefilter.mask_us_per_event":
            _per(mask["total_ns"], mask["events"]),
        "plan.prefilter.admit_ratio":
            mask["matches"] / mask["events"] if mask["events"] else 0.0,
        "agg.engine.run_us_per_event": _per(agg["total_ns"], agg["events"]),
        "agg.engine.matches_folded": folded,
    }
    if enumerating:
        created = total("instances_created")
        out.update({
            "automaton.executor.run_us_per_event":
                _per(run["total_ns"], run["events"]),
            "automaton.executor.us_per_transition":
                _per(run["total_ns"], total("transitions_fired")),
            "automaton.executor.instances_created": created,
            "automaton.executor.instances_peak": peak,
            "automaton.executor.transitions_fired":
                total("transitions_fired"),
            "automaton.executor.accepted_per_instance":
                total("accepted_buffers") / created if created else 0.0,
            "core.semantics.select_us_per_accepted":
                _per(select["total_ns"], select["events"]),
            "core.semantics.select_share":
                select["total_ns"] / (select["total_ns"] + run["total_ns"]),
        })
    else:
        out["agg.engine.groups_peak"] = peak
    return out


# ----------------------------------------------------------------------
# Served
# ----------------------------------------------------------------------
def served_layers(spec, rows: List[Row], samples: dict, traced: dict,
                  untraced: dict) -> Dict[str, dict]:
    """``traced``/``untraced`` are the two passes of a traced run: the
    pass samples plus ``server``, ``varz``, ``statz``, ``wal_bytes``;
    ``samples`` is what the traced pass contributes to the run."""
    server, varz = traced["server"], traced["varz"]
    spans = trace.read(server.spans_path)
    layers = trace.by_layer(spans)
    push, publish = layers["registry.push_many"], layers["net.hub.publish"]
    append = layers["resilience.delivery.append"]

    def counter(metric: str) -> float:
        return varz.get(metric, {}).get("value", 0)

    # Queue wait of paced batches: admitted (ack read by the generator)
    # -> its push_many starts; both stamps are CLOCK_MONOTONIC.
    starts = {span["trace_id"]: span["start_ns"] for span in spans
              if span["layer"] == "registry.push_many"}
    waits = [max(0, starts[seq] - acked) / 1e6
             for seq, acked in traced["ack_ns"].items() if seq in starts]
    # Deliver wait: publish returns -> the match reaches the tail.
    arrivals = server.tail.arrivals
    delivered = []
    for span in spans:
        if span["layer"] == "net.hub.publish" and span["key"]:
            pattern_id, _, mid = span["key"].partition("/")
            if (pattern_id, mid) in arrivals:
                delivered.append(
                    (arrivals[(pattern_id, mid)] - span["end_ns"]) / 1e6)
    payloads = server.tail.payloads
    sse_bytes = 0
    sse_ns = 0
    for payload in payloads:
        block, spent = _timed(lambda: sse_format(
            payload, event_id=payload["seq"], event="match"))
        sse_bytes += len(block)
        sse_ns += spent
    events = counter("ses_registry_events_total")

    head = rows[:REPLAY_EVENTS]
    queries = [query for _, query in spec.queries]
    values = replays(queries, head, spec.batch)
    recorder = trace.Spans()
    decoded = [event_from_json(row) for row in head]
    stats = [vars(trace.traced_query(query, decoded, recorder,
                                     pattern_id).stats)
             for pattern_id, query in spec.queries]
    values.update(pipeline(
        [dict(zip(trace.FIELDS, row)) for row in recorder.rows], stats, 0))
    values.update({
        "net.protocol.sse_encode_us_per_match": _per(sse_ns, len(payloads)),
        "net.protocol.bytes_out_per_match":
            sse_bytes / len(payloads) if payloads else 0.0,
        "net.server.ack_ms_p50": statistics.median(traced["ack_ms"]),
        "net.server.queue_wait_ms_p50": percentile(waits, 0.50),
        "net.server.queue_wait_ms_p99": percentile(waits, 0.99),
        "net.server.backpressure_replies":
            counter("ses_ingest_backpressure_total"),
        "net.server.ingest_errors": traced["statz"]["ingest"]["errors"],
        "registry.push_many_self_us_per_event":
            _per(push["self_ns"], push["events"]),
        "registry.deliveries_per_event":
            counter("ses_registry_deliveries_total") / events,
        "registry.matches": counter("ses_registry_matches_total"),
        "net.hub.publish_self_us_per_match":
            _per(publish["self_ns"], publish["matches"]),
        "net.hub.deliver_wait_ms_p50": percentile(delivered, 0.50),
        "net.hub.published": counter("ses_push_published_total"),
        "net.hub.duplicates_suppressed":
            counter("ses_push_duplicates_suppressed_total"),
        "resilience.delivery.append_us_per_match":
            _per(append["total_ns"], append["matches"]),
        "resilience.delivery.bytes_per_match":
            traced["wal_bytes"] / append["matches"],
        "obs.overhead_ratio": _registry_obs_overhead(spec, decoded),
        "trace.overhead_ratio":
            burst_rate(untraced["bursts"]) / burst_rate(traced["bursts"]),
    })
    values.update(_harness(samples))
    return _finish(values)


def _registry_obs_overhead(spec, events: list) -> float:
    """In-process registry replay with observability on ÷ off (serve
    always runs with it on)."""
    def replay(observability) -> int:
        registry = PatternRegistry(observability=observability)
        for pattern_id, query in spec.queries:
            registry.register(query, pattern_id=pattern_id)
        return _timed(lambda: [
            registry.push_many(events[i:i + spec.batch])
            for i in range(0, len(events), spec.batch)])[1]

    return replay(Observability()) / replay(None)


# ----------------------------------------------------------------------
# Batch
# ----------------------------------------------------------------------
def batch_layers(spec, units, samples: dict,
                 traced_reports: Dict[str, dict],
                 span_rows: List[dict]) -> Dict[str, dict]:
    """``traced_reports``: the traced child's report per unit;
    ``span_rows``: all their spans."""
    import repro

    head = units[0][1][:REPLAY_EVENTS]
    values = replays([spec.query], head, 256)
    reports = list(traced_reports.values())
    values.update(pipeline(
        span_rows, [report["stats"] for report in reports],
        sum(report["results"][0]["count"] for report in reports)
        if "values" in reports[0]["results"][0] else 0))
    # A cold compile and parse happen once per process, not per unit.
    for name in ("lang.parse_ms", "plan.cache.compile_ms"):
        values[name] /= len(reports)
    decoded = [event_from_json(row) for row in head]
    plain = min(_timed(lambda: repro.query(spec.query, decoded))[1]
                for _ in range(2))
    observed = min(_timed(lambda: repro.query(
        spec.query, decoded, observability=Observability()))[1]
        for _ in range(2))
    values["obs.overhead_ratio"] = observed / plain
    values["trace.overhead_ratio"] = (
        sum(report["seconds"][0] / slowdown(*report["probes"][1:3])
            for report in reports)
        / sum(statistics.median(unit["seconds"])
              for unit in samples["units"].values()))
    values.update(_harness(samples))
    return _finish(values)
