"""Snapshot exporters: JSON-lines files and Prometheus text format.

Both exporters consume the plain-dict snapshots produced by
:meth:`repro.obs.metrics.MetricsRegistry.snapshot` /
:meth:`repro.obs.Observability.snapshot` — ``{name: record}`` where each
record carries a ``"type"`` of ``counter``, ``gauge``, ``histogram`` or
``stage``.

* **JSON lines** (:func:`write_jsonl` / :func:`read_jsonl`): one metric
  per line, ``{"name": ..., "type": ..., ...}``, safe to append across
  runs and trivially diffable — the format the CI benchmark artifact and
  ``repro stats`` use.
* **Prometheus text format** (:func:`to_prometheus`): the 0.0.4
  exposition format — counters and gauges verbatim, histograms as
  cumulative ``_bucket{le="..."}`` series plus ``_sum``/``_count``,
  stages as a ``_seconds_total``/``_calls_total`` pair.
* **Chrome trace event JSON** (:func:`to_chrome_trace` /
  :func:`write_chrome_trace`): spans as duration events and automaton
  instance lifecycles as async events, loadable in ``ui.perfetto.dev``
  or ``chrome://tracing``.
* **OTel-flavoured span JSON** (:func:`to_otel_spans` /
  :func:`write_otel_spans`): lineage records rendered in the
  OTLP/JSON ``resourceSpans`` shape — one span per match from ingest
  to delivery plus per-stage child spans — ingestible by any OTLP/HTTP
  collector without an SDK dependency.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Union

__all__ = ["write_jsonl", "read_jsonl", "to_jsonl", "to_prometheus",
           "to_chrome_trace", "write_chrome_trace",
           "to_otel_spans", "write_otel_spans"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name for the Prometheus exposition format."""
    name = _NAME_OK.sub("_", name)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _prom_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash, newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_value(value) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def _prom_label_value(value) -> str:
    """Escape a label value per the exposition format.

    Order matters: backslashes first, then quotes and newlines — pattern
    *names* are user-controlled and may contain any of them.
    """
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(record: dict, extra: str = "") -> str:
    """The ``{k="v",...}`` label block for a record (may be empty).

    ``extra`` is a pre-rendered label pair (the histogram ``le``) merged
    after the record's own labels.
    """
    pairs = [f'{_prom_name(key)}="{_prom_label_value(value)}"'
             for key, value in sorted(record.get("labels", {}).items())]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def to_jsonl(snapshot: Dict[str, dict]) -> str:
    """Render a snapshot as JSON lines (one metric per line)."""
    lines = [json.dumps({"name": name, **record}, sort_keys=True)
             for name, record in snapshot.items()]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(snapshot: Dict[str, dict], path: Union[str, Path],
                append: bool = False) -> Path:
    """Write a snapshot to ``path`` as JSON lines; returns the path."""
    path = Path(path)
    mode = "a" if append else "w"
    with path.open(mode, encoding="utf-8") as fh:
        fh.write(to_jsonl(snapshot))
    return path


def read_jsonl(path: Union[str, Path]) -> Dict[str, dict]:
    """Load a JSON-lines snapshot back into ``{name: record}`` form.

    Blank lines are skipped; on duplicate names (appended runs) the last
    record wins, matching "newest snapshot" expectations.
    """
    snapshot: Dict[str, dict] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        name = record.pop("name")
        snapshot[name] = record
    return snapshot


def to_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    A record may carry a ``"labels"`` dict, rendered as a label block on
    every sample with values escaped per the format (``\\``, ``"`` and
    newlines — pattern names are user-controlled).  A labeled record may
    also carry a ``"metric"`` key naming the real metric when the
    snapshot key had to stay unique (e.g. ``ses_stats_runs_total[x]``).
    Samples are grouped by metric family in first-seen order, each group
    under one ``# HELP``/``# TYPE`` header (the first record's help), so
    the series of one family stay contiguous however the snapshot
    interleaves them, as the format requires.
    """
    families: Dict[str, List[str]] = {}

    def emit(pname: str, kind: str, help_text: str, sample: str) -> None:
        lines = families.get(pname)
        if lines is None:
            lines = families[pname] = []
            if help_text:
                lines.append(f"# HELP {pname} {_prom_help(help_text)}")
            lines.append(f"# TYPE {pname} {kind}")
        lines.append(sample)

    for name, record in snapshot.items():
        kind = record.get("type", "gauge")
        if kind == "lineage":
            # Lineage rides Observability.snapshot() for cross-process
            # merging; it is structured data, not a scrapeable sample.
            continue
        pname = _prom_name(record.get("metric", name))
        help_text = record.get("help", "")
        labels = _prom_labels(record)
        if kind in ("counter", "gauge"):
            emit(pname, kind, help_text,
                 f"{pname}{labels} {_prom_value(record['value'])}")
            if kind == "gauge" and "max" in record:
                emit(f"{pname}_max", "gauge", "",
                     f"{pname}_max{labels} {_prom_value(record['max'])}")
        elif kind == "histogram":
            cumulative = 0
            for bound, count in record["buckets"]:
                cumulative += count
                le = f'le="{_prom_value(float(bound))}"'
                emit(pname, "histogram", help_text,
                     f"{pname}_bucket{_prom_labels(record, le)} "
                     f"{cumulative}")
            # Cumulative invariant: the +Inf bucket must equal _count.
            # Derive both from the bucket counts (+ the overflow bucket)
            # so a snapshot whose redundant "count" field disagrees —
            # e.g. a partial dump from a crashed worker — still renders
            # a monotonic series instead of +Inf < the last finite le.
            overflow = record.get("overflow")
            if overflow is None:
                overflow = max(record.get("count", cumulative) - cumulative, 0)
            total = cumulative + overflow
            inf_labels = _prom_labels(record, 'le="+Inf"')
            for sample in (f"{pname}_bucket{inf_labels} {total}",
                           f"{pname}_sum{labels} "
                           f"{_prom_value(record['sum'])}",
                           f"{pname}_count{labels} {total}"):
                emit(pname, "histogram", help_text, sample)
        elif kind == "stage":
            emit(f"{pname}_seconds_total", "counter", help_text,
                 f"{pname}_seconds_total{labels} "
                 f"{_prom_value(record['total_seconds'])}")
            emit(f"{pname}_calls_total", "counter", "",
                 f"{pname}_calls_total{labels} {record['count']}")
        else:  # unknown kinds degrade to a gauge with whatever value exists
            emit(pname, "untyped", help_text,
                 f"{pname}{labels} {_prom_value(record.get('value', 0))}")
    out = [line for lines in families.values() for line in lines]
    return "\n".join(out) + ("\n" if out else "")


# ----------------------------------------------------------------------
# Chrome trace event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
#: Synthetic process ids used in the trace: wall-clock spans and
#: event-time instance lifecycles live in different time domains, so
#: they are rendered as two separate "processes".
SPAN_PID = 1
INSTANCE_PID = 2
LINEAGE_PID = 3

#: Step kinds that terminate an automaton instance's lifecycle.
_LIFECYCLE_ENDS = ("expire", "accept", "flush")


def _span_records(spans):
    """Normalise a spans argument: SpanTracer, or iterable of Span."""
    if spans is None:
        return []
    records = getattr(spans, "records", None)
    return records if records is not None else list(spans)


def _lifecycle_records(steps, flight):
    """``(kind, end_ts, born_ts, label)`` per finished instance.

    ``steps`` is an iterable of :class:`~repro.automaton.trace.TraceStep`
    (or a Tracer); ``flight`` a FlightRecorder, its :meth:`dump` dict, or
    a list of step dicts.  Both name the same Algorithm 1 vocabulary, so
    lifecycles are read uniformly: an instance born at its buffer's
    ``min_ts`` ends when an expire/accept/flush step records it.
    """
    out = []
    if steps is not None:
        for step in getattr(steps, "steps", steps):
            if step.kind not in _LIFECYCLE_ENDS:
                continue
            end = step.event.ts if step.event is not None else None
            born = step.instance.buffer.min_ts
            label = (step.event.eid or str(step.event.ts)
                     if step.event is not None else "EOF")
            out.append((step.kind, end, born, label))
    if flight is not None:
        if hasattr(flight, "dump"):
            flight = flight.dump()
        records = flight["steps"] if isinstance(flight, dict) else flight
        for record in records:
            if record.get("kind") not in _LIFECYCLE_ENDS:
                continue
            out.append((record["kind"], record.get("ts"),
                        record.get("born"), record.get("event") or "EOF"))
    return out


def _lineage_records(lineage):
    """Normalise a lineage argument: LineageRecorder, LineageReport, or
    an iterable of :class:`~repro.obs.lineage.Provenance` records."""
    if lineage is None:
        return []
    records = getattr(lineage, "records", None)
    if callable(records):
        return records()
    if records is not None:
        return list(records)
    return list(lineage)


def to_chrome_trace(spans=None, steps=None, flight=None,
                    lineage=None) -> dict:
    """Render spans and instance lifecycles as a Chrome trace document.

    Parameters
    ----------
    spans:
        A :class:`~repro.obs.tracing.SpanTracer` built with
        ``keep_records=True`` (or an iterable of its ``Span`` records).
        Each span becomes a complete duration event (``"ph": "X"``) with
        microsecond timestamps on the monotonic clock, nested by depth.
    steps:
        A :class:`~repro.automaton.trace.Tracer` (or its step list).
        Every finished instance (spawn → accept/expire/flush) becomes an
        async event pair (``"ph": "b"``/``"e"``) spanning the instance's
        event-time lifetime — one event-time unit is rendered as one
        microsecond.
    flight:
        A :class:`~repro.obs.flight.FlightRecorder` (or its dump), read
        the same way as ``steps``.
    lineage:
        A :class:`~repro.obs.lineage.LineageRecorder` (or its report, or
        an iterable of :class:`~repro.obs.lineage.Provenance` records).
        Each sampled match becomes an async event pair spanning its
        ingest-to-delivery wall-clock window, with per-stage timestamps
        in the event args.

    Returns the ``{"traceEvents": [...]}`` document; load it at
    ``ui.perfetto.dev`` or ``chrome://tracing``.
    """
    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": SPAN_PID, "tid": 0,
         "args": {"name": "repro stages (wall clock)"}},
        {"name": "process_name", "ph": "M", "pid": INSTANCE_PID, "tid": 0,
         "args": {"name": "repro instances (event time)"}},
    ]
    lineage_records = _lineage_records(lineage)
    if lineage_records:
        events.append(
            {"name": "process_name", "ph": "M", "pid": LINEAGE_PID,
             "tid": 0, "args": {"name": "repro lineage (wall clock)"}})
        for index, record in enumerate(lineage_records):
            stamps = [ts for ts in record.stages.values() if ts is not None]
            if not stamps:
                continue
            begin, finish = min(stamps), max(stamps)
            name = f"match {record.match_id}"
            common = {"cat": "lineage", "id": index, "pid": LINEAGE_PID,
                      "tid": 0}
            events.append({
                "name": name, "ph": "b", "ts": begin * 1e6,
                "args": {"events": list(record.event_ids),
                         "path": list(record.path),
                         "delivered_by": record.delivered_by,
                         "stages": dict(record.stages)},
                **common})
            events.append({"name": name, "ph": "e", "ts": finish * 1e6,
                           **common})
    for span in _span_records(spans):
        events.append({
            "name": span.name, "cat": "stage", "ph": "X",
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "pid": SPAN_PID, "tid": span.depth,
        })
    for index, (kind, end, born, label) in enumerate(
            _lifecycle_records(steps, flight)):
        if end is None and born is None:
            continue
        begin = born if born is not None else end
        finish = end if end is not None else born
        name = f"instance {kind} @{label}"
        common = {"cat": "instance", "id": index, "pid": INSTANCE_PID,
                  "tid": 0}
        events.append({"name": name, "ph": "b", "ts": float(begin),
                       **common})
        events.append({"name": name, "ph": "e", "ts": float(finish),
                       **common})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: Union[str, Path], spans=None, steps=None,
                       flight=None, lineage=None) -> Path:
    """Write :func:`to_chrome_trace` output to ``path``; returns the path."""
    path = Path(path)
    document = to_chrome_trace(spans=spans, steps=steps, flight=flight,
                               lineage=lineage)
    path.write_text(json.dumps(document, default=str) + "\n",
                    encoding="utf-8")
    return path


# ----------------------------------------------------------------------
# OTel-flavoured span JSON (OTLP/JSON resourceSpans shape)
# ----------------------------------------------------------------------
def _otel_trace_id(record) -> str:
    """A 32-hex OTLP trace id for a lineage record.

    Derived from the first contributing event's trace id (16 hex,
    zero-padded) so every span of the same causal chain shares it; falls
    back to hashing the match id for records without contexts.
    """
    if record.trace_ids:
        return record.trace_ids[0].zfill(32)
    return hashlib.blake2b(record.match_id.encode("utf-8"),
                           digest_size=16).hexdigest()


def _otel_span_id(*parts) -> str:
    """A 16-hex OTLP span id derived from ``parts``."""
    return hashlib.blake2b("\x00".join(str(p) for p in parts).encode("utf-8"),
                           digest_size=8).hexdigest()


def _otel_attr(key, value) -> dict:
    if isinstance(value, bool):
        return {"key": key, "value": {"boolValue": value}}
    if isinstance(value, int):
        return {"key": key, "value": {"intValue": str(value)}}
    if isinstance(value, float):
        return {"key": key, "value": {"doubleValue": value}}
    return {"key": key, "value": {"stringValue": str(value)}}


def _otel_nanos(ts) -> str:
    return str(int(ts * 1e9))


def to_otel_spans(lineage, service: str = "repro") -> dict:
    """Render lineage records in the OTLP/JSON ``resourceSpans`` shape.

    ``lineage`` is a :class:`~repro.obs.lineage.LineageRecorder`, a
    :class:`~repro.obs.lineage.LineageReport`, or an iterable of
    :class:`~repro.obs.lineage.Provenance` records.  Each record becomes
    a root span covering its full ingest-to-delivery window plus one
    child span per adjacent stage pair (``ingest→recv``,
    ``accept→deliver``, ...), so collectors show the same per-stage
    latency breakdown :meth:`Provenance.stage_breakdown` computes.  Ids
    are content-derived — the trace id extends the first contributing
    event's trace id, the span id the match id — so spans exported from
    different processes for the same match coincide instead of
    duplicating.

    Built by hand against the OTLP/JSON field names (stdlib only; no
    opentelemetry SDK) — POST the document to an OTLP/HTTP collector's
    ``/v1/traces`` endpoint as-is.
    """
    spans: List[dict] = []
    for record in _lineage_records(lineage):
        stamped = sorted(
            ((stage, ts) for stage, ts in record.stages.items()
             if ts is not None), key=lambda item: item[1])
        if not stamped:
            continue
        trace_id = _otel_trace_id(record)
        root_id = (record.match_id.zfill(16)
                   if not record.match_id.count(":")
                   else _otel_span_id(record.match_id))
        begin, finish = stamped[0][1], stamped[-1][1]
        attributes = [
            _otel_attr("ses.match_id", record.match_id),
            _otel_attr("ses.kept", record.kept or "unsampled"),
            _otel_attr("ses.delivered", record.delivered),
            _otel_attr("ses.event_ids", ",".join(record.event_ids)),
            _otel_attr("ses.path", ",".join(record.path)),
        ]
        if record.pattern_id is not None:
            attributes.append(_otel_attr("ses.pattern_id",
                                         record.pattern_id))
        if record.partition is not None:
            attributes.append(_otel_attr("ses.partition", record.partition))
        if record.delivered_by is not None:
            attributes.append(_otel_attr("ses.delivered_by",
                                         record.delivered_by))
        spans.append({
            "traceId": trace_id, "spanId": root_id,
            "name": f"ses.match {record.match_id}", "kind": 1,
            "startTimeUnixNano": _otel_nanos(begin),
            "endTimeUnixNano": _otel_nanos(finish),
            "attributes": attributes,
        })
        for (stage, start), (next_stage, end) in zip(stamped, stamped[1:]):
            spans.append({
                "traceId": trace_id,
                "spanId": _otel_span_id(record.match_id, stage, next_stage),
                "parentSpanId": root_id,
                "name": f"ses.stage {stage}→{next_stage}", "kind": 1,
                "startTimeUnixNano": _otel_nanos(start),
                "endTimeUnixNano": _otel_nanos(end),
                "attributes": [_otel_attr("ses.stage", next_stage)],
            })
    return {
        "resourceSpans": [{
            "resource": {"attributes": [
                _otel_attr("service.name", service)]},
            "scopeSpans": [{"scope": {"name": "repro.obs.lineage"},
                            "spans": spans}],
        }],
    }


def write_otel_spans(path: Union[str, Path], lineage,
                     service: str = "repro") -> Path:
    """Write :func:`to_otel_spans` output to ``path``; returns the path."""
    path = Path(path)
    document = to_otel_spans(lineage, service=service)
    path.write_text(json.dumps(document, default=str) + "\n",
                    encoding="utf-8")
    return path
