"""Match provenance: event-to-delivery lineage with latency accounting.

The :class:`LineageRecorder` answers "why did this match fire?" — which
events joined it, which transitions fired in what order, how long each
pipeline stage took, and which process/shard delivered it.  One recorder
instance serves a whole process: the executor tells it of every buffer
it accepts (whose chain of bindings *is* the order its transitions
fired, so paths are read off the output, not traced), it is stamped at
every delivery site (``query``, ``ContinuousMatcher``, the sharded
parent, the registry), and it ships its state across process
boundaries as a plain-dict record riding the observability snapshots.

Identity is content-derived on both axes: events get deterministic trace
ids (:func:`~repro.obs.tracectx.trace_id_for`) and matches get
deterministic match ids (:func:`match_id`, a digest of the canonical
binding sequence).  The same match therefore maps to the same id in a
pool worker, a shard, and a WAL replay after a supervised restart —
merging worker records into the parent and detecting duplicate or orphan
deliveries reduces to dictionary operations keyed by those ids, which is
what makes exactly-once attribution checkable.

Retention is tail-based: traces selected by the deterministic sampler
are kept, quarantined events are always kept, and unsampled matches
whose end-to-end latency exceeds the configured slow threshold are
promoted to kept at delivery.  Everything else is dropped once its
delivery has been counted, so memory stays bounded by
``TraceConfig.max_traces``.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .metrics import NULL_REGISTRY
from .tracectx import TraceConfig, TraceContext, sampled, trace_id_for

__all__ = ["match_id", "Provenance", "LineageRecorder", "LineageReport"]

#: End-to-end latency crosses process hand-offs, so the buckets extend
#: well past the per-feed-call ``LATENCY_BUCKETS``.
E2E_BUCKETS: Tuple[float, ...] = (
    1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0, 10.0,
)

#: Stage keys in pipeline order (used by renderers and the stage
#: breakdown histograms).
STAGES = ("ingest", "recv", "accept", "report", "deliver", "quarantine")


def match_id(substitution) -> str:
    """Deterministic 16-hex id of a match (its canonical bindings).

    Hashes the substitution's canonical binding order — ``(event ts,
    variable name, event id)`` sorted — so every process that sees the
    same set of bindings computes the same id without coordination.
    A caller that already holds that order (``list(substitution)``) may
    pass it instead of the substitution.
    """
    parts = tuple(
        (variable.name, event.ts,
         event.eid if event.eid is not None else trace_id_for(event))
        for variable, event in substitution)
    return hashlib.blake2b(repr(parts).encode("utf-8"),
                           digest_size=8).hexdigest()


#: ``kept`` reasons, in priority order (later reasons win on merge).
_KEPT_PRIORITY = {None: 0, "sampled": 1, "slow": 2, "quarantined": 3}


class Provenance:
    """One delivered match's lineage record.

    Attributes mirror the wire dict produced by :meth:`to_dict`:
    contributing event ids and trace ids (chronological), the transition
    path as the sequence of variable names bound (one per transition
    fired), wall-clock per-stage timestamps, the delivering site, and
    the delivery count (exactly-once means it ends at 1).
    """

    __slots__ = ("match_id", "pattern_id", "partition", "event_ids",
                 "trace_ids", "path", "stages", "delivered_by",
                 "delivered", "kept")

    def __init__(self, match_id: str, event_ids: Tuple[str, ...] = (),
                 trace_ids: Tuple[str, ...] = (),
                 path: Tuple[str, ...] = (), pattern_id=None,
                 partition=None, stages: Optional[Dict[str, float]] = None,
                 delivered_by: Optional[str] = None, delivered: int = 0,
                 kept: Optional[str] = None):
        self.match_id = match_id
        self.pattern_id = pattern_id
        self.partition = partition
        self.event_ids = tuple(event_ids)
        self.trace_ids = tuple(trace_ids)
        self.path = tuple(path)
        self.stages = dict(stages) if stages else {}
        self.delivered_by = delivered_by
        self.delivered = delivered
        self.kept = kept

    def latency(self) -> Optional[float]:
        """End-to-end seconds, ingest to delivery (``None`` if either
        stage has not been stamped)."""
        start = self.stages.get("ingest")
        end = self.stages.get("deliver", self.stages.get("quarantine"))
        if start is None or end is None:
            return None
        return max(end - start, 0.0)

    def stage_breakdown(self) -> List[Tuple[str, float]]:
        """Consecutive ``(stage, seconds-since-previous-stage)`` pairs in
        pipeline order, skipping stages that were never stamped."""
        stamped = [(name, self.stages[name]) for name in STAGES
                   if name in self.stages]
        stamped.sort(key=lambda pair: pair[1])
        out = []
        for (_, prev_ts), (name, ts) in zip(stamped, stamped[1:]):
            out.append((name, max(ts - prev_ts, 0.0)))
        return out

    def to_dict(self) -> dict:
        return {
            "match_id": self.match_id, "pattern_id": self.pattern_id,
            "partition": self.partition,
            "event_ids": list(self.event_ids),
            "trace_ids": list(self.trace_ids),
            "path": list(self.path), "stages": dict(self.stages),
            "delivered_by": self.delivered_by,
            "delivered": self.delivered, "kept": self.kept,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Provenance":
        return cls(record["match_id"],
                   event_ids=tuple(record.get("event_ids", ())),
                   trace_ids=tuple(record.get("trace_ids", ())),
                   path=tuple(record.get("path", ())),
                   pattern_id=record.get("pattern_id"),
                   partition=record.get("partition"),
                   stages=record.get("stages"),
                   delivered_by=record.get("delivered_by"),
                   delivered=record.get("delivered", 0),
                   kept=record.get("kept"))

    def merge(self, other: "Provenance") -> None:
        """Fold a sibling record for the same match id (e.g. the shard
        worker's detail into the parent's delivery skeleton): missing
        fields fill in, stage timestamps keep the earliest stamp, and
        delivery counts add."""
        if other.pattern_id is not None and self.pattern_id is None:
            self.pattern_id = other.pattern_id
        if other.partition is not None and self.partition is None:
            self.partition = other.partition
        if other.event_ids and not self.event_ids:
            self.event_ids = other.event_ids
        if other.trace_ids and not self.trace_ids:
            self.trace_ids = other.trace_ids
        if other.path and not self.path:
            self.path = other.path
        for name, ts in other.stages.items():
            mine = self.stages.get(name)
            self.stages[name] = ts if mine is None else min(mine, ts)
        if self.delivered_by is None:
            self.delivered_by = other.delivered_by
        self.delivered += other.delivered
        if _KEPT_PRIORITY[other.kept] > _KEPT_PRIORITY[self.kept]:
            self.kept = other.kept

    def __repr__(self) -> str:
        return (f"Provenance({self.match_id}, events={list(self.event_ids)},"
                f" path={list(self.path)}, delivered={self.delivered},"
                f" by={self.delivered_by!r}, kept={self.kept!r})")


class LineageRecorder:
    """Per-process lineage state: contexts and provenance records —
    nothing per automaton instance.

    Is told of accepted buffers by the executor (:meth:`note_accepted`),
    is stamped by delivery sites via :meth:`deliver`, and round-trips
    across process boundaries via :meth:`export_record` / :meth:`absorb`.

    ``authoritative`` marks the recorder that owns delivery accounting —
    the parent process.  Worker-side recorders (pool chunks, shard
    workers) set it ``False``: their :meth:`deliver` stamps the
    ``report`` stage instead of ``deliver``, they publish no latency
    histograms, and their exported delivery counts are zeroed so the
    parent's absorb never double-counts a delivery.
    """

    def __init__(self, config: Optional[TraceConfig] = None,
                 site: str = "main", registry=None):
        self.config = TraceConfig(sample_rate=1.0) if config is None \
            else config
        self.site = site
        self.authoritative = True
        self._registry = NULL_REGISTRY
        self._contexts: "OrderedDict[str, TraceContext]" = OrderedDict()
        self._records: "OrderedDict[str, Provenance]" = OrderedDict()
        # Match ids dropped by the sampler at delivery: a later worker
        # snapshot or duplicate delivery must not resurrect them.
        self._dropped: "OrderedDict[str, int]" = OrderedDict()
        self._counts = {"ingested": 0, "records": 0, "sampled": 0,
                        "dropped": 0, "slow": 0, "quarantined": 0,
                        "duplicates": 0}
        self.bind_metrics(registry)

    def bind_metrics(self, registry) -> None:
        """Attach (or re-attach) the metric sinks; ``None`` keeps the
        recorder silent via the shared null registry."""
        self._registry = NULL_REGISTRY if registry is None else registry
        self._hist_e2e = self._registry.histogram(
            "ses_event_latency_e2e_seconds",
            help="End-to-end latency, event ingest to match delivery.",
            buckets=E2E_BUCKETS)
        self._hist_match = self._registry.histogram(
            "ses_event_latency_stage_match_seconds",
            help="Ingest-to-accept stage latency of delivered matches.",
            buckets=E2E_BUCKETS)
        self._hist_deliver = self._registry.histogram(
            "ses_event_latency_stage_deliver_seconds",
            help="Accept-to-delivery stage latency of delivered matches.",
            buckets=E2E_BUCKETS)
        self._ctr_records = self._registry.counter(
            "ses_lineage_records_total",
            help="Provenance records created.")
        self._ctr_sampled = self._registry.counter(
            "ses_lineage_sampled_total",
            help="Provenance records kept by the sampler.")
        self._ctr_dropped = self._registry.counter(
            "ses_lineage_dropped_total",
            help="Provenance records dropped after delivery accounting.")
        self._ctr_slow = self._registry.counter(
            "ses_lineage_slow_kept_total",
            help="Unsampled traces promoted to kept for being slow.")
        self._ctr_quarantined = self._registry.counter(
            "ses_lineage_quarantined_total",
            help="Quarantined events whose trace was force-kept.")
        self._ctr_duplicates = self._registry.counter(
            "ses_lineage_duplicate_deliveries_total",
            help="Matches delivered more than once (exactly-once "
                 "violations).")

    # ------------------------------------------------------------------
    # Ingest side
    # ------------------------------------------------------------------
    def note_ingest(self, event) -> Optional[TraceContext]:
        """Stamp ``event``'s trace context at this site (idempotent per
        trace id; re-seeing an event adds a hop, not a new context)."""
        trace_id = trace_id_for(event)
        ctx = self._contexts.get(trace_id)
        if ctx is None:
            ctx = TraceContext.for_event(event, site=self.site)
            ctx.trace_id = trace_id
            self._remember_context(ctx)
            self._counts["ingested"] += 1
        else:
            ctx.hop(self.site, "recv")
        return ctx

    def adopt(self, ctx_wire) -> Optional[TraceContext]:
        """Adopt an upstream context shipped on the wire (the sharded
        path: the parent stamps ingest, the worker adopts + hops)."""
        try:
            ctx = TraceContext.from_wire(ctx_wire)
        except (TypeError, ValueError):
            return None
        existing = self._contexts.get(ctx.trace_id)
        if existing is not None:
            return existing.hop(self.site, "recv")
        ctx.hop(self.site, "recv")
        self._remember_context(ctx)
        return ctx

    def context_for(self, event) -> Optional[TraceContext]:
        return self._contexts.get(trace_id_for(event))

    def _remember_context(self, ctx: TraceContext) -> None:
        self._contexts[ctx.trace_id] = ctx
        limit = self.config.max_traces * 4
        while len(self._contexts) > limit:
            self._contexts.popitem(last=False)

    # ------------------------------------------------------------------
    # Accept side
    # ------------------------------------------------------------------
    def note_accepted(self, bindings, substitution) -> None:
        """Record an accepted buffer, its path read off its ``bindings``
        — ``(variable, event)`` in the order the transitions fired."""
        mid = match_id(substitution)
        record = self._records.get(mid)
        if record is None:
            record = self._new_record(mid, substitution)
        record.path = tuple(variable.name for variable, _ in bindings)
        record.stages.setdefault("accept", time.time())

    def _new_record(self, mid: str, substitution,
                    pattern_id=None, partition=None) -> Provenance:
        events = substitution.events()
        trace_ids = tuple(trace_id_for(e) for e in events)
        event_ids = tuple(
            e.eid if e.eid is not None else tid
            for e, tid in zip(events, trace_ids))
        stages = {}
        ingest = [self._contexts[t].ingest_ts for t in trace_ids
                  if t in self._contexts]
        if ingest:
            stages["ingest"] = min(ingest)
        kept = "sampled" if any(
            sampled(t, self.config.sample_rate) for t in trace_ids) else None
        record = Provenance(mid, event_ids=event_ids, trace_ids=trace_ids,
                            pattern_id=pattern_id, partition=partition,
                            stages=stages, kept=kept)
        self._records[mid] = record
        self._counts["records"] += 1
        self._ctr_records.inc()
        if kept is not None:
            self._counts["sampled"] += 1
            self._ctr_sampled.inc()
        while len(self._records) > self.config.max_traces:
            self._records.popitem(last=False)
        return record

    # ------------------------------------------------------------------
    # Delivery side
    # ------------------------------------------------------------------
    def deliver(self, substitution, by: Optional[str] = None,
                pattern_id=None, partition=None) -> Optional[Provenance]:
        """Stamp a delivery and return the match's provenance (``None``
        once an unsampled, non-slow trace has been dropped).

        On the authoritative recorder this is where tail-based retention
        resolves: latency histograms are observed, slow unsampled traces
        are promoted, and the rest are dropped after their delivery has
        been counted.
        """
        mid = match_id(substitution)
        record = self._records.get(mid)
        if record is None:
            if mid in self._dropped:
                # Already delivered once and dropped by the sampler —
                # this is a re-delivery, which exactly-once forbids.
                self._dropped[mid] += 1
                self._counts["duplicates"] += 1
                self._ctr_duplicates.inc()
                return None
            record = self._new_record(mid, substitution,
                                      pattern_id=pattern_id,
                                      partition=partition)
            if not record.path:
                record.path = tuple(v.name for v, _ in substitution)
        if pattern_id is not None and record.pattern_id is None:
            record.pattern_id = pattern_id
        if partition is not None and record.partition is None:
            record.partition = partition
        now = time.time()
        if not self.authoritative:
            record.stages.setdefault("report", now)
            return record if record.kept is not None else None
        record.stages.setdefault("deliver", now)
        if record.delivered_by is None:
            record.delivered_by = by if by is not None else self.site
        record.delivered += 1
        if record.delivered > 1:
            self._counts["duplicates"] += 1
            self._ctr_duplicates.inc()
        latency = record.latency()
        if latency is not None:
            self._hist_e2e.observe(latency)
            accept = record.stages.get("accept")
            if accept is not None:
                start = record.stages.get("ingest")
                if start is not None:
                    self._hist_match.observe(max(accept - start, 0.0))
                self._hist_deliver.observe(max(now - accept, 0.0))
            if record.kept is None and latency > self.config.slow_seconds:
                record.kept = "slow"
                self._counts["slow"] += 1
                self._ctr_slow.inc()
        if record.kept is None:
            self._records.pop(mid, None)
            self._dropped[mid] = 1
            while len(self._dropped) > self.config.max_traces * 4:
                self._dropped.popitem(last=False)
            self._counts["dropped"] += 1
            self._ctr_dropped.inc()
            return None
        return record

    def note_quarantined(self, event, shard=None, seq=None,
                         reason=None) -> Provenance:
        """Force-keep the trace of a quarantined event (tail-based
        sampling never drops poison)."""
        trace_id = trace_id_for(event)
        ctx = self._contexts.get(trace_id)
        mid = f"quarantine:{trace_id}"
        record = self._records.get(mid)
        if record is None:
            stages = {"quarantine": time.time()}
            if ctx is not None:
                stages["ingest"] = ctx.ingest_ts
            record = Provenance(
                mid, event_ids=(event.eid if event.eid is not None
                                else trace_id,),
                trace_ids=(trace_id,), kept="quarantined", stages=stages,
                delivered_by=(f"shard:{shard}" if shard is not None
                              else self.site),
                partition=seq, pattern_id=reason)
            self._records[mid] = record
            self._counts["quarantined"] += 1
            self._ctr_quarantined.inc()
        return record

    def note_fold(self, event, folded=None) -> None:
        """Account an aggregate fold: group-level provenance (aggregates
        materialise no matches, so lineage records the contributing
        event stream and fold count instead)."""
        mid = f"agg:{self.site}"
        record = self._records.get(mid)
        if record is None:
            record = Provenance(mid, kept="sampled",
                                stages={"accept": time.time()},
                                delivered_by=self.site)
            self._records[mid] = record
            self._counts["records"] += 1
            self._ctr_records.inc()
        trace_id = trace_id_for(event)
        if len(record.trace_ids) < 64:
            record.trace_ids += (trace_id,)
            record.event_ids += (event.eid if event.eid is not None
                                 else trace_id,)
        if folded is not None:
            record.delivered = folded
        ctx = self._contexts.get(trace_id)
        if ctx is not None:
            start = record.stages.get("ingest")
            record.stages["ingest"] = ctx.ingest_ts if start is None \
                else min(start, ctx.ingest_ts)

    def aggregate_provenance(self, folded=None) -> Optional[Provenance]:
        """The group-level aggregate record, if any folds were seen.

        ``folded`` syncs the final fold count: end-of-stream flushes
        fold after the last :meth:`note_fold` call, so the stored count
        can lag by the matches accepted at window close.
        """
        for mid, record in self._records.items():
            if mid.startswith("agg:"):
                if folded is not None:
                    record.delivered = folded
                return record
        return None

    # ------------------------------------------------------------------
    # Lookup / reconciliation
    # ------------------------------------------------------------------
    def provenance_for(self, substitution) -> Optional[Provenance]:
        return self._records.get(match_id(substitution))

    def get(self, mid: str) -> Optional[Provenance]:
        return self._records.get(mid)

    def note_push(self, mid: str, subscriber: str) -> None:
        """Stamp a push-delivery hop naming the subscriber.

        The subscription hub calls this when a retained match leaves
        through a push channel; the hop lands in the record's stage map
        as ``push:<subscriber>`` (first delivery wins), so ``repro
        trace`` and ``/debug/lineage`` show *which* subscriber a match
        reached and when.  A no-op for records the sampler dropped.
        """
        record = self._records.get(mid)
        if record is not None:
            record.stages.setdefault(f"push:{subscriber}", time.time())

    def records(self) -> List[Provenance]:
        return list(self._records.values())

    def reconcile(self, matches) -> dict:
        """Check lineage against a delivered match set.

        ``matches`` is an iterable of substitutions (or objects with a
        ``substitution`` attribute, e.g. :class:`~repro.agg.result.Match`).
        Exact reconciliation means: every delivered match has exactly one
        provenance record, delivered exactly once, whose event ids agree
        with the match's events — and no match-shaped record points at a
        match that was never delivered.
        """
        expected: Dict[str, int] = {}
        by_mid = {}
        for match in matches:
            substitution = getattr(match, "substitution", match)
            mid = match_id(substitution)
            expected[mid] = expected.get(mid, 0) + 1
            by_mid[mid] = substitution
        missing, orphans, duplicates, mismatched = [], [], [], []
        for mid, record in self._records.items():
            if ":" in mid:  # quarantine/agg pseudo-records
                continue
            want = expected.get(mid)
            if want is None:
                if record.delivered:
                    orphans.append(mid)
                continue
            if record.delivered != want:
                duplicates.append(mid)
            substitution = by_mid[mid]
            events = substitution.events()
            ids = tuple(e.eid if e.eid is not None else trace_id_for(e)
                        for e in events)
            if record.event_ids != ids:
                mismatched.append(mid)
        for mid in expected:
            if mid not in self._records:
                missing.append(mid)
        return {"matches": sum(expected.values()),
                "records": len([m for m in self._records if ":" not in m]),
                "missing": missing, "orphans": orphans,
                "duplicates": duplicates, "mismatched": mismatched,
                "ok": not (missing or orphans or duplicates or mismatched)}

    # ------------------------------------------------------------------
    # Cross-process plumbing
    # ------------------------------------------------------------------
    def export_record(self) -> dict:
        """The wire form absorbed by :meth:`absorb` — rides worker
        observability snapshots under the ``repro_lineage`` key.

        Non-authoritative recorders ship their delivery counts zeroed:
        only the parent's own :meth:`deliver` stamps count, so a worker
        report can never double a delivery.
        """
        records = []
        for record in self._records.values():
            data = record.to_dict()
            if not self.authoritative:
                data["delivered"] = 0
                data.pop("delivered_by", None)
            records.append(data)
        return {"type": "lineage", "site": self.site,
                "contexts": [ctx.to_dict()
                             for ctx in self._contexts.values()],
                "records": records,
                "counts": dict(self._counts)}

    def absorb(self, record: dict) -> None:
        """Fold an exported worker record into this recorder."""
        for ctx_data in record.get("contexts", ()):
            try:
                ctx = TraceContext(ctx_data["trace_id"],
                                   ctx_data["ingest_ts"],
                                   [tuple(h) for h in
                                    ctx_data.get("hops", ())])
            except (KeyError, TypeError):
                continue
            existing = self._contexts.get(ctx.trace_id)
            if existing is None:
                self._remember_context(ctx)
            else:
                existing.ingest_ts = min(existing.ingest_ts, ctx.ingest_ts)
                seen = set(existing.hops)
                existing.hops.extend(h for h in ctx.hops if h not in seen)
                existing.hops.sort(key=lambda h: h[2])
        for data in record.get("records", ()):
            try:
                incoming = Provenance.from_dict(data)
            except KeyError:
                continue
            if incoming.match_id in self._dropped:
                continue
            mine = self._records.get(incoming.match_id)
            if mine is None:
                self._records[incoming.match_id] = incoming
                while len(self._records) > self.config.max_traces:
                    self._records.popitem(last=False)
            else:
                mine.merge(incoming)
        for name, value in record.get("counts", {}).items():
            if name in self._counts:
                self._counts[name] += value

    # ------------------------------------------------------------------
    # Summaries / rendering
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Compact state for ``/varz`` and ``/debug/lineage``."""
        kept = {}
        for record in self._records.values():
            kept[record.kept] = kept.get(record.kept, 0) + 1
        return {"site": self.site,
                "sample_rate": self.config.sample_rate,
                "slow_seconds": self.config.slow_seconds,
                "contexts": len(self._contexts),
                "records": len(self._records),
                "kept": {str(k): v for k, v in sorted(
                    kept.items(), key=lambda kv: str(kv[0]))},
                **self._counts}

    def report(self) -> "LineageReport":
        return LineageReport(self.records(), summary=self.summary())


class LineageReport:
    """Renderable view over a set of provenance records.

    Mirrors :class:`~repro.explain.report.ExplainReport`: ``render``
    dispatches on the same ``text`` / ``json`` / ``dot`` format names so
    the ``repro trace`` CLI behaves like ``repro explain``.
    """

    def __init__(self, records: List[Provenance],
                 summary: Optional[dict] = None):
        self.records = list(records)
        self.summary = summary or {}

    def render(self, format: str = "text") -> str:
        if format == "text":
            return self.to_text()
        if format == "json":
            return self.to_json()
        if format == "dot":
            return self.to_dot()
        raise ValueError(f"unknown lineage format {format!r}; "
                         f"expected text, json or dot")

    def to_text(self) -> str:
        lines = [f"LINEAGE ({len(self.records)} record(s))"]
        for record in self.records:
            latency = record.latency()
            lines.append(f"match {record.match_id}"
                         + (f" [{record.pattern_id}]"
                            if record.pattern_id else "")
                         + (f" kept={record.kept}" if record.kept else ""))
            lines.append("  events: " + (", ".join(record.event_ids)
                                         or "(none)"))
            lines.append("  path:   " + (" -> ".join(record.path)
                                         or "(none)"))
            if record.delivered_by is not None:
                lines.append(f"  delivered: {record.delivered}x "
                             f"by {record.delivered_by}")
            if latency is not None:
                lines.append(f"  latency: {latency * 1e3:.3f} ms end-to-end")
            for stage, seconds in record.stage_breakdown():
                lines.append(f"    {stage:<10} +{seconds * 1e3:.3f} ms")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {"summary": self.summary,
             "records": [record.to_dict() for record in self.records]},
            indent=2, sort_keys=True, default=str)

    def to_dot(self) -> str:
        lines = ["digraph LINEAGE {", "  rankdir=LR;",
                 '  node [fontname="monospace"];']
        for record in self.records:
            mid = record.match_id
            lines.append(f'  "m:{mid}" [shape=doubleoctagon, '
                         f'label="match {mid}"];')
            for eid, label in zip(record.event_ids, record.path):
                lines.append(f'  "e:{eid}" [shape=box, label="{eid}"];')
                lines.append(f'  "e:{eid}" -> "m:{mid}" '
                             f'[label="{label}"];')
            for eid in record.event_ids[len(record.path):]:
                lines.append(f'  "e:{eid}" [shape=box, label="{eid}"];')
                lines.append(f'  "e:{eid}" -> "m:{mid}";')
            if record.delivered_by:
                lines.append(f'  "m:{mid}" -> "d:{record.delivered_by}" '
                             f'[style=dashed];')
                lines.append(f'  "d:{record.delivered_by}" '
                             f'[shape=ellipse, '
                             f'label="{record.delivered_by}"];')
        lines.append("}")
        return "\n".join(lines)
