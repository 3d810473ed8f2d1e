"""Span-based tracing: where does the wall-clock time go?

A :class:`SpanTracer` times named stages with the monotonic clock
(:func:`time.perf_counter`) via a nesting-aware context manager::

    spans = SpanTracer()
    with spans.span("feed"):
        with spans.span("filter"):
            admitted = event_filter.admits(event)
        with spans.span("consume"):
            ...

Per-stage aggregates distinguish *total* time (span open, children
included) from *self* time (children excluded), so nested stages do not
double-count when reading a breakdown.  Individual span records are kept
only when ``keep_records=True`` — aggregation alone is O(1) memory,
which is what the per-event hot path needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

__all__ = ["Span", "StageStats", "SpanTracer"]


@dataclass
class Span:
    """One recorded span (only kept when the tracer retains records)."""

    name: str
    start: float
    duration: float = 0.0
    depth: int = 0

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, depth={self.depth})"


@dataclass
class StageStats:
    """Aggregate timings for one stage name."""

    name: str
    count: int = 0
    #: Wall-clock seconds with the span open (children included).
    total_seconds: float = 0.0
    #: Seconds spent in the span itself (child spans excluded).
    self_seconds: float = 0.0

    def merge(self, other: "StageStats") -> None:
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.self_seconds += other.self_seconds


class _SpanContext:
    """Reusable context manager driving :meth:`SpanTracer.span`."""

    __slots__ = ("_tracer", "_name", "_start", "_child_seconds")

    def __init__(self, tracer: "SpanTracer", name: str):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        self._start = tracer._clock()
        self._child_seconds = 0.0
        tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        duration = tracer._clock() - self._start
        tracer._stack.pop()
        tracer.add(self._name, duration, self._child_seconds, self._start)


class SpanTracer:
    """Times named, possibly nested stages on the monotonic clock.

    Parameters
    ----------
    keep_records:
        Retain every individual :class:`Span` (timeline debugging).
        Off by default: aggregates only, O(#stage-names) memory.
    clock:
        Injectable time source for tests; defaults to
        :func:`time.perf_counter`.
    """

    def __init__(self, keep_records: bool = False, clock=time.perf_counter):
        self._clock = clock
        self._stack: List[_SpanContext] = []
        self._stages: Dict[str, StageStats] = {}
        self._records: Optional[List[Span]] = [] if keep_records else None

    def span(self, name: str) -> _SpanContext:
        """Context manager timing one occurrence of stage ``name``."""
        return _SpanContext(self, name)

    def add(self, name: str, duration: float, child_seconds: float = 0.0,
            start: Optional[float] = None) -> None:
        """Record one finished occurrence of stage ``name``, nested in
        whatever span is currently open.  For hot paths that read the
        clock themselves instead of entering a context manager."""
        stats = self._stages.get(name)
        if stats is None:
            stats = self._stages[name] = StageStats(name)
        stats.count += 1
        stats.total_seconds += duration
        stats.self_seconds += duration - child_seconds
        stack = self._stack
        if stack:
            stack[-1]._child_seconds += duration
        if self._records is not None:
            if start is None:
                start = self._clock() - duration
            self._records.append(Span(name, start, duration, depth=len(stack)))

    @property
    def records(self) -> List[Span]:
        """Individual spans (empty unless ``keep_records=True``)."""
        return list(self._records or ())

    @property
    def depth(self) -> int:
        """Current nesting depth (open spans)."""
        return len(self._stack)

    def stages(self) -> Dict[str, StageStats]:
        """Aggregated per-stage timings, insertion-ordered."""
        return dict(self._stages)

    def total_seconds(self, name: str) -> float:
        """Total seconds recorded under stage ``name`` (0.0 if unseen)."""
        stats = self._stages.get(name)
        return stats.total_seconds if stats is not None else 0.0

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> "SpanTracer":
        """Fold exported :meth:`snapshot` stage records back in.

        Aggregates stage timings reported by worker processes or by
        another in-process bundle.  Records whose type is not
        ``"stage"`` are ignored.
        """
        for name, record in snapshot.items():
            if record.get("type") != "stage":
                continue
            incoming = StageStats(name, record["count"],
                                  record["total_seconds"],
                                  record["self_seconds"])
            mine = self._stages.get(name)
            if mine is None:
                self._stages[name] = incoming
            else:
                mine.merge(incoming)
        return self

    def snapshot(self) -> Dict[str, dict]:
        """Stage aggregates as plain dicts (exporter-ready)."""
        return {
            name: {
                "type": "stage",
                "count": stats.count,
                "total_seconds": stats.total_seconds,
                "self_seconds": stats.self_seconds,
            }
            for name, stats in self._stages.items()
        }

    def __repr__(self) -> str:
        stages = ", ".join(
            f"{s.name}:{s.total_seconds * 1e3:.1f}ms" for s in self._stages.values())
        return f"SpanTracer({stages or 'empty'})"
