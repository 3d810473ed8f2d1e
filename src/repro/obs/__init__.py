"""Unified observability: metrics, span tracing, exporters, logging.

This package is the one instrumentation surface for the whole engine —
the executor hot path, the Section 4.5 pre-filter, the streaming
runners, the benchmark harness and the CLI all report through it.

The façade is :class:`Observability`: a metrics registry
(:mod:`repro.obs.metrics`) plus a span tracer (:mod:`repro.obs.tracing`)
with convenience handles for the engine's standard instruments.
Instrumentation is **opt-in and zero-cost when off**: every instrumented
API takes ``obs=None`` and the hot paths guard with a single ``is not
None`` check, so measurement runs pay nothing (the ``--profile``
overhead target is tracked in ``benchmarks/bench_exp1_instances.py``).

Usage::

    from repro.obs import Observability

    obs = Observability()
    result = match(pattern, relation, obs=obs)
    print(obs.stage_table())            # filter / consume / select
    write_jsonl(obs.snapshot(), "metrics.jsonl")
"""

from __future__ import annotations

from typing import Dict, Optional

from .exporters import (read_jsonl, to_chrome_trace, to_jsonl, to_otel_spans,
                        to_prometheus, write_chrome_trace, write_jsonl,
                        write_otel_spans)
from .flight import FlightRecorder, install_flight_signal_handler
from .lineage import LineageRecorder, LineageReport, Provenance, match_id
from .live import ObsServer, live_snapshot, parse_listen
from .logs import configure_logging, get_logger, verbosity_level
from .metrics import (LATENCY_BUCKETS, LIFETIME_BUCKETS, NULL_REGISTRY,
                      Counter, Gauge, Histogram, MetricsRegistry, NullRegistry,
                      estimate_quantile, snapshot_quantile)
from .tracectx import (TraceConfig, TraceContext, sampled, trace_id_for,
                       TRACE_MAX_ENV, TRACE_SAMPLE_ENV, TRACE_SLOW_MS_ENV)
from .tracing import Span, SpanTracer, StageStats

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "LATENCY_BUCKETS", "LIFETIME_BUCKETS",
    "Span", "SpanTracer", "StageStats", "Observability",
    "FlightRecorder", "ObsServer",
    "LineageRecorder", "LineageReport", "Provenance", "TraceConfig",
    "TraceContext", "match_id", "sampled", "trace_id_for",
    "TRACE_MAX_ENV", "TRACE_SAMPLE_ENV", "TRACE_SLOW_MS_ENV",
    "configure_logging", "get_logger", "verbosity_level",
    "estimate_quantile", "snapshot_quantile",
    "install_flight_signal_handler", "live_snapshot", "parse_listen",
    "read_jsonl", "to_chrome_trace", "to_jsonl", "to_otel_spans",
    "to_prometheus", "write_chrome_trace", "write_jsonl",
    "write_otel_spans",
]

#: The engine's canonical stage names, in pipeline order.
STAGES = ("filter", "consume", "select")


class Observability:
    """A metrics registry and span tracer travelling together.

    Parameters
    ----------
    registry:
        Backing registry; a fresh :class:`MetricsRegistry` by default,
        :data:`NULL_REGISTRY` for an explicit no-op bundle.
    spans:
        Backing tracer; fresh by default.
    lineage:
        Optional :class:`~repro.obs.lineage.LineageRecorder` for match
        provenance and causal tracing.  When omitted, one is created
        automatically iff the ``REPRO_TRACE_SAMPLE`` environment knob
        enables sampling — worker processes construct plain
        ``Observability()`` bundles, so tracing propagates across
        process boundaries through the inherited environment.

    The engine-standard instruments (``|Ω|`` gauge, per-event latency and
    instance-lifetime histograms) are created lazily on first use so a
    bundle only carries what its run actually touched.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanTracer] = None,
                 lineage: Optional[LineageRecorder] = None):
        self.registry = MetricsRegistry() if registry is None else registry
        self.spans = SpanTracer() if spans is None else spans
        if lineage is None:
            config = TraceConfig.from_env()
            lineage = (LineageRecorder(config, registry=self.registry)
                       if config.enabled else None)
        elif lineage._registry is NULL_REGISTRY:
            # An injected recorder built without a registry publishes its
            # latency histograms and counters through this bundle.
            lineage.bind_metrics(self.registry)
        self.lineage = lineage
        r = self.registry
        self._omega = r.gauge(
            "ses_omega_instances",
            help="active automaton instances |omega| (max = peak)")
        self._latency = r.histogram(
            "ses_event_latency_seconds",
            help="per-event feed() wall-clock latency",
            buckets=LATENCY_BUCKETS)
        self._lifetime = r.histogram(
            "ses_instance_lifetime",
            help="lifetime of expired instances, in event-time units",
            buckets=LIFETIME_BUCKETS)

    @property
    def enabled(self) -> bool:
        """False when backed by the no-op registry."""
        return self.registry.enabled

    # ------------------------------------------------------------------
    # Hot-path instruments (the executor calls these per event)
    # ------------------------------------------------------------------
    def omega(self, size: int) -> None:
        """Record the current |Ω| (gauge + high-water mark)."""
        self._omega.set(size)

    def event_seconds(self, seconds: float) -> None:
        """Observe one event's feed() latency."""
        self._latency.observe(seconds)

    def lifetime(self, span: float) -> None:
        """Observe the event-time lifetime of an expired instance."""
        self._lifetime.observe(span)

    def span(self, name: str):
        """Shorthand for ``self.spans.span(name)``."""
        return self.spans.span(name)

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------
    def merge(self, other: "Observability") -> "Observability":
        """Fold another live bundle in: :meth:`merge_snapshot` of its
        snapshot, less its lineage record when both bundles share one
        recorder (absorbing it would count every record twice)."""
        snapshot = other.snapshot()
        if other.lineage is self.lineage:
            snapshot.pop("repro_lineage", None)
        return self.merge_snapshot(snapshot)

    def ensure_lineage(self) -> LineageRecorder:
        """The lineage recorder, created on demand (used when worker
        snapshots arrive carrying lineage the parent did not ask for)."""
        if self.lineage is None:
            self.lineage = LineageRecorder(TraceConfig.from_env(),
                                           registry=self.registry)
        return self.lineage

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> "Observability":
        """Fold an exported :meth:`snapshot` back into this bundle.

        The one merge path: worker processes (``repro.parallel``) cannot
        hand back live registries, so they export ``snapshot()`` dicts
        and the parent aggregates them here; :meth:`merge` feeds a live
        bundle through the same door.
        Stage records (prefixed ``repro_stage_`` by :meth:`snapshot`) go
        to the tracer, everything else to the registry.
        """
        stages = {}
        metrics = {}
        for name, record in snapshot.items():
            kind = record.get("type")
            if kind == "stage":
                if name.startswith("repro_stage_"):
                    name = name[len("repro_stage_"):]
                stages[name] = record
            elif kind == "lineage":
                self.ensure_lineage().absorb(record)
            else:
                metrics[name] = record
        self.registry.merge_snapshot(metrics)
        self.spans.merge_snapshot(stages)
        return self

    def snapshot(self) -> Dict[str, dict]:
        """Registry metrics plus per-stage timings, exporter-ready.

        Stage aggregates appear under ``repro_stage_<name>`` so one flat
        snapshot feeds both exporters.
        """
        snapshot = self.registry.snapshot()
        for name, record in self.spans.snapshot().items():
            snapshot[f"repro_stage_{name}"] = record
        if self.lineage is not None:
            snapshot["repro_lineage"] = self.lineage.export_record()
        return snapshot

    def stage_rows(self):
        """``[stage, calls, total s, self s, share]`` rows for tabulation.

        Share is each stage's *self* time as a fraction of the summed
        self time, so nested spans don't push the column past 100 %.
        """
        stages = self.spans.stages()
        total_self = sum(s.self_seconds for s in stages.values()) or 1.0
        ordered = [n for n in STAGES if n in stages]
        ordered += [n for n in stages if n not in STAGES]
        return [
            [name, stages[name].count, stages[name].total_seconds,
             stages[name].self_seconds,
             f"{100 * stages[name].self_seconds / total_self:.1f}%"]
            for name in ordered
        ]

    def __repr__(self) -> str:
        return (f"Observability({len(self.registry)} metrics, "
                f"{len(self.spans.stages())} stages)")
