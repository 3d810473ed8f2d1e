"""Metric primitives and the registry (the observability data model).

Three metric kinds, deliberately Prometheus-shaped so the exporters in
:mod:`repro.obs.exporters` are trivial:

* :class:`Counter` — monotonically increasing count (events read,
  transitions fired, buffers accepted);
* :class:`Gauge` — a value that goes up and down, with a high-water mark
  (the instance population ``|Ω|``, live partitions);
* :class:`Histogram` — distribution over *fixed* bucket boundaries
  (per-event feed latency, instance lifetimes).  Fixed buckets keep
  observation O(#buckets) with zero allocation and make registries
  mergeable across partitions.

A :class:`MetricsRegistry` owns named metrics (get-or-create), renders
point-in-time :meth:`~MetricsRegistry.snapshot` dictionaries, and merges
sibling registries (per-partition aggregation).  :data:`NULL_REGISTRY`
is the shared no-op registry: every metric it hands out swallows updates,
so library code can instrument unconditionally once it holds a metric
handle.  Hot paths that cannot afford even a no-op call should keep the
usual ``if obs is not None`` guard instead.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullRegistry",
    "NULL_REGISTRY", "LATENCY_BUCKETS", "LIFETIME_BUCKETS",
    "estimate_quantile", "snapshot_quantile",
]

#: Default buckets for per-event feed latency, in seconds.  Pure-Python
#: event processing sits between ~1 µs and ~100 ms per event.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1,
)

#: Default buckets for automaton-instance lifetimes, in *time units* of
#: the event relation (the paper's τ is 264 for the chemo workload).
LIFETIME_BUCKETS: Tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000,
)


def _label_fields(metric) -> dict:
    """The optional ``labels``/``metric`` snapshot fields of a labeled
    metric (empty for the common unlabeled case).

    A labeled metric is registered under a unique registry key (e.g.
    ``ses_pattern_matches_total[checkout]``) while ``metric`` names the
    real exposition-format metric and ``labels`` its label set; the
    Prometheus exporter renders them as ``name{k="v"} value`` with label
    values escaped.
    """
    out = {}
    if metric.labels:
        out["labels"] = dict(metric.labels)
    if metric.metric:
        out["metric"] = metric.metric
    return out


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "help", "value", "labels", "metric")
    kind = "counter"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[dict] = None,
                 metric: Optional[str] = None):
        self.name = name
        self.help = help
        self.value = 0
        self.labels = labels
        self.metric = metric

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help, "value": self.value,
                **_label_fields(self)}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A value that rises and falls; remembers its high-water mark."""

    __slots__ = ("name", "help", "value", "max_value", "labels", "metric")
    kind = "gauge"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[dict] = None,
                 metric: Optional[str] = None):
        self.name = name
        self.help = help
        self.value = 0
        self.max_value = 0
        self.labels = labels
        self.metric = metric

    def set(self, value) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def inc(self, amount=1) -> None:
        self.set(self.value + amount)

    def dec(self, amount=1) -> None:
        self.value -= amount

    def snapshot(self) -> dict:
        return {"type": self.kind, "help": self.help, "value": self.value,
                "max": self.max_value, **_label_fields(self)}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, max={self.max_value})"


class Histogram:
    """A fixed-boundary histogram (cumulative-style on export).

    ``buckets`` are the upper bounds of the non-overflow buckets; an
    implicit ``+Inf`` bucket catches the rest.  ``observe`` is
    O(log #buckets) via bisect.
    """

    __slots__ = ("name", "help", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.bounds: Tuple[float, ...] = tuple(buckets)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        return {
            "type": self.kind, "help": self.help,
            "buckets": [list(pair) for pair in zip(self.bounds, self.counts)],
            "overflow": self.counts[-1],
            "sum": self.sum, "count": self.count,
        }

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (see :func:`estimate_quantile`);
        ``None`` while the histogram is empty."""
        return estimate_quantile(self.bounds, self.counts, q)

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, sum={self.sum:.6g})"


def estimate_quantile(bounds: Sequence[float], counts: Sequence[int],
                      q: float) -> Optional[float]:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    ``bounds`` are the non-overflow upper bounds, ``counts`` the
    per-bucket tallies including the trailing overflow bucket
    (``len(counts) == len(bounds) + 1``).  Linear interpolation within
    the bucket holding the target rank — the same estimator Prometheus's
    ``histogram_quantile`` uses.  Observations in the overflow bucket
    have no upper bound, so quantiles landing there clamp to the highest
    finite bound.  Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return None
    target = q * total
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= target:
            if index >= len(bounds):
                return float(bounds[-1])
            lower = bounds[index - 1] if index else 0.0
            upper = bounds[index]
            if count == 0:
                return float(upper)
            return lower + (upper - lower) * (target - previous) / count
    return float(bounds[-1])


def snapshot_quantile(record: dict, q: float) -> Optional[float]:
    """:func:`estimate_quantile` over an exported histogram snapshot
    record (the ``{"buckets": [[bound, count], ...], "overflow": n}``
    shape produced by :meth:`Histogram.snapshot`)."""
    if record.get("type") != "histogram":
        return None
    buckets = record.get("buckets", ())
    bounds = [bound for bound, _ in buckets]
    counts = [count for _, count in buckets]
    counts.append(record.get("overflow", 0))
    if not bounds:
        return None
    return estimate_quantile(bounds, counts, q)


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors.

    Accessors are idempotent: asking twice for the same name returns the
    same object, so independent call sites can share a metric.  Asking
    for an existing name with a *different* kind raises.
    """

    #: False on :class:`NullRegistry`; lets callers skip expensive
    #: observation work (snapshotting, history) when metrics go nowhere.
    enabled = True

    def __init__(self) -> None:
        self._metrics: Dict[str, object] = {}

    def _get(self, cls, name: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}")
        return metric

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None,
                metric: Optional[str] = None) -> Counter:
        return self._get(Counter, name, help=help, labels=labels,
                         metric=metric)

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None,
              metric: Optional[str] = None) -> Gauge:
        return self._get(Gauge, name, help=help, labels=labels,
                         metric=metric)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._get(Histogram, name, help=help, buckets=buckets)

    def __iter__(self):
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> Dict[str, dict]:
        """Point-in-time ``{name: state}`` view, sorted by name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> "MetricsRegistry":
        """Fold an exported :meth:`snapshot` into this registry, the one
        merge path (sum semantics).

        Worker processes ship ``snapshot()`` dicts across the process
        boundary; in-process bundles merge through their own snapshot
        (:meth:`repro.obs.Observability.merge`).  Metrics new to this
        registry are created; per kind, counters and histograms add, and
        gauges add values and high-waters — partition gauges describe
        disjoint populations, so the sum is the aggregate population
        (summed high-waters over-approximate the simultaneous peak: an
        upper bound, the conservative direction for capacity).  Records
        of unknown type (e.g. ``stage`` spans, which belong to the
        tracer) are ignored.

        Malformed records — e.g. a *partial* snapshot handed back from a
        crashed worker, with histogram fields missing or truncated —
        raise :class:`ValueError` **before** any mutation, so a failed
        merge never leaves this registry's bucket counts corrupted.
        """
        for name, record in snapshot.items():
            kind = record.get("type")
            if kind == "counter":
                try:
                    value = record["value"]
                except KeyError:
                    raise ValueError(
                        f"partial counter record {name!r}: missing value")
                self.counter(name, help=record.get("help", ""),
                             labels=record.get("labels"),
                             metric=record.get("metric")).inc(value)
            elif kind == "gauge":
                try:
                    value = record["value"]
                except KeyError:
                    raise ValueError(
                        f"partial gauge record {name!r}: missing value")
                gauge = self.gauge(name, help=record.get("help", ""),
                                   labels=record.get("labels"),
                                   metric=record.get("metric"))
                gauge.value += value
                gauge.max_value += record.get("max", value)
            elif kind == "histogram":
                # Read and validate every field before touching the
                # live histogram: a record that fails halfway must not
                # leave counts incremented with sum/count unchanged.
                try:
                    buckets = record["buckets"]
                    incoming_sum = record["sum"]
                    incoming_count = record["count"]
                except KeyError as missing:
                    raise ValueError(
                        f"partial histogram record {name!r}: missing "
                        f"{missing}")
                bounds = tuple(bound for bound, _ in buckets)
                counts = [count for _, count in buckets]
                counts.append(record.get("overflow", 0))
                histogram = self.histogram(name, help=record.get("help", ""),
                                           buckets=bounds)
                if histogram.bounds != bounds:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds "
                        f"differ")
                if len(counts) != len(histogram.counts):
                    raise ValueError(
                        f"partial histogram record {name!r}: "
                        f"{len(counts) - 1} bucket(s), expected "
                        f"{len(histogram.counts) - 1}")
                histogram.counts = [a + b for a, b in
                                    zip(histogram.counts, counts)]
                histogram.sum += incoming_sum
                histogram.count += incoming_count
        return self

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self._metrics)} metrics)"


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value) -> None:
        pass

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """A registry whose metrics discard every update.

    Handed out as the default so instrumented code needs no branches;
    all accessors return shared do-nothing singletons.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null", buckets=(1,))

    def counter(self, name: str, help: str = "",
                labels: Optional[dict] = None,
                metric: Optional[str] = None) -> Counter:
        return self._counter

    def gauge(self, name: str, help: str = "",
              labels: Optional[dict] = None,
              metric: Optional[str] = None) -> Gauge:
        return self._gauge

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._histogram

    def snapshot(self) -> Dict[str, dict]:
        return {}

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> MetricsRegistry:
        return self


#: Shared default no-op registry.
NULL_REGISTRY = NullRegistry()
