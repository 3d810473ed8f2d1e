"""Spans recorded from the benchmark's own files.

A span is ``{trace_id, span_id, parent_id, layer, start_ns, end_ns,
events, matches, bytes}`` (plus ``key`` on hub publishes, so the tail's
arrival can be paired with it).  Spans are kept in memory and written
out when the traced process ends.  A layer's *self* time is its spans'
duration minus what their direct children cover.  ``perf_counter_ns``
is ``CLOCK_MONOTONIC`` on Linux, so spans of the child and timestamps
of the generator share one axis.

Nothing here patches or edits ``src/``: every span wraps a call the
benchmark itself makes into a public piece of ``repro``.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional

FIELDS = ("trace_id", "span_id", "parent_id", "layer", "start_ns", "end_ns",
          "events", "matches", "bytes", "key")


class Spans:
    """A single-threaded span recorder (nesting by call order)."""

    def __init__(self):
        self.rows: List[list] = []
        self._open: List[int] = []

    def start(self, layer: str, trace_id=None) -> int:
        span_id = len(self.rows)
        parent = self._open[-1] if self._open else None
        if trace_id is None and parent is not None:
            trace_id = self.rows[parent][0]
        self.rows.append([trace_id, span_id, parent, layer,
                          time.perf_counter_ns(), 0, 0, 0, 0, None])
        self._open.append(span_id)
        return span_id

    def stop(self, span_id: int, events: int = 0, matches: int = 0,
             size: int = 0, key: Optional[str] = None) -> None:
        row = self.rows[span_id]
        row[5] = time.perf_counter_ns()
        row[6], row[7], row[8], row[9] = events, matches, size, key
        self._open.pop()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(dict(zip(FIELDS, row))) + "\n")


def read(path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def by_layer(spans: Iterable[dict]) -> Dict[str, dict]:
    """Per layer: span count, total and self nanoseconds, work counts."""
    spans = list(spans)
    covered: Dict[int, int] = {}
    for span in spans:
        if span["parent_id"] is not None:
            covered[span["parent_id"]] = (
                covered.get(span["parent_id"], 0)
                + span["end_ns"] - span["start_ns"])
    out: Dict[str, dict] = {}
    for span in spans:
        layer = out.setdefault(span["layer"], {
            "spans": 0, "total_ns": 0, "self_ns": 0, "events": 0,
            "matches": 0, "bytes": 0})
        duration = span["end_ns"] - span["start_ns"]
        layer["spans"] += 1
        layer["total_ns"] += duration
        layer["self_ns"] += duration - covered.get(span["span_id"], 0)
        for field in ("events", "matches", "bytes"):
            layer[field] += span[field]
    return out


def traced_query(query: str, events: list, spans: Spans, trace_id: str):
    """``repro.query`` taken apart at its seams, one span each.

    ``parse_query_spec`` -> cold compile (``build_plan``, the plan cache
    bypassed) -> ``prefilter.admission_mask`` -> ``executor.run`` ->
    ``executor.select``.  Returns what ``repro.query`` would.
    """
    from repro.agg.result import MatchSet
    from repro.lang import parse_query_spec
    from repro.plan.plan import build_plan
    from repro.plan.prefilter import popcount

    root = spans.start("repro.query", trace_id)
    span = spans.start("lang.parse")
    pattern, aggregate = parse_query_spec(query)
    spans.stop(span)
    span = spans.start("plan.cache.compile")
    plan = build_plan(pattern, aggregate=aggregate)
    spans.stop(span)
    span = spans.start("plan.prefilter.admission_mask")
    mask = plan.prefilter().admission_mask(events)
    spans.stop(span, events=len(events), matches=popcount(mask))
    # Raw buffers first, so that selection gets a span of its own.
    executor = plan.executor(selection="accepted")
    layer = ("automaton.executor.run" if aggregate is None
             else "agg.engine.run")
    span = spans.start(layer)
    result = executor.run(events)
    spans.stop(span, events=len(events),
               matches=result.stats.accepted_buffers)
    if aggregate is not None:
        spans.stop(root, events=len(events))
        return result.aggregates
    span = spans.start("core.semantics.select")
    result.matches = plan.executor(selection="paper").select(result.accepted)
    spans.stop(span, events=len(result.accepted),
               matches=len(result.matches))
    result.stats.matches = len(result.matches)
    spans.stop(root, events=len(events))
    return MatchSet.from_result(result)
