"""The EXPLAIN report: one data model, three renderings (text/json/dot).

A :class:`ExplainReport` carries the *static* plan description —
automaton topology, trimmed-table sizes, prefilter predicate vectors,
complexity bounds, plan-cache provenance, persisted statistics — and,
after :func:`~repro.explain.analyze.explain_analyze`, the ``analysis``
section with the observed per-transition / per-condition counters.  The
dot rendering annotates transitions with *hotness* (share of fired
transitions) when analysis data is present.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["ExplainReport"]

#: Graphviz fill colors from cold to hot (share of transition passes).
_HEAT_COLORS = ("gray60", "#4575b4", "#fee090", "#fc8d59", "#d73027")


def _heat_color(share: float) -> str:
    index = min(len(_HEAT_COLORS) - 1, int(share * len(_HEAT_COLORS)))
    return _HEAT_COLORS[index]


def _fmt_ratio(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1%}"


@dataclass
class ExplainReport:
    """Everything EXPLAIN (and EXPLAIN ANALYZE) knows about one plan."""

    #: Canonical plan fingerprint (pattern + optimizations).
    fingerprint: str
    #: ``repr`` of the source pattern.
    pattern: str
    #: Optimizations the plan was compiled with.
    optimizations: List[str] = field(default_factory=list)
    #: The ``SELECT`` clause an aggregation plan folds, or ``None``.
    aggregate: Optional[str] = None
    #: Applied compile-time rewrites (trim reports etc.).
    rewrites: List[str] = field(default_factory=list)
    #: Automaton topology summary (states/transitions/start/accepting/tau,
    #: the ``unindexed`` resting states with the reason for each, and the
    #: event ``alphabet``: each distinct event-only predicate with the
    #: transitions reading it).
    automaton: dict = field(default_factory=dict)
    #: Static per-transition entries (source/variable/target/conditions,
    #: and the ``probe`` its source state is looked up by, or ``None``).
    transitions: List[dict] = field(default_factory=list)
    #: Per-mode prefilter predicate vectors.
    prefilter: dict = field(default_factory=dict)
    #: Section 4.4 complexity bounds (``None`` without a window size).
    complexity: Optional[dict] = None
    #: Plan-cache provenance: was this fingerprint cached, cache counters.
    cache: dict = field(default_factory=dict)
    #: Persisted statistics for the pattern (``None`` when never observed).
    statistics: Optional[dict] = None
    #: EXPLAIN ANALYZE section (``None`` for a static explain).
    analysis: Optional[dict] = None

    # ------------------------------------------------------------------
    # Renderings
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The full report as a JSON-ready dict."""
        return {
            "fingerprint": self.fingerprint,
            "pattern": self.pattern,
            "optimizations": list(self.optimizations),
            "aggregate": self.aggregate,
            "rewrites": list(self.rewrites),
            "automaton": dict(self.automaton),
            "transitions": [dict(t) for t in self.transitions],
            "prefilter": {mode: dict(entry)
                          for mode, entry in self.prefilter.items()},
            "complexity": self.complexity,
            "cache": dict(self.cache),
            "statistics": self.statistics,
            "analysis": self.analysis,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=str)

    def _analysis_by_label(self) -> dict:
        if not self.analysis:
            return {}
        return {record["label"]: record
                for record in self.analysis.get("transitions", ())}

    def to_text(self) -> str:
        """The EXPLAIN text rendering (EXPLAIN ANALYZE when analyzed)."""
        title = "EXPLAIN ANALYZE" if self.analysis else "EXPLAIN"
        lines = [
            f"{title} plan {self.fingerprint[:12]} for {self.pattern}",
            f"  optimizations: {', '.join(self.optimizations) or 'none'}",
        ]
        if self.aggregate is not None:
            lines.append(f"  aggregate: {self.aggregate} "
                         "(incremental fold, no match materialisation)")
        for rewrite in self.rewrites:
            lines.append(f"  rewrite: {rewrite}")
        automaton = self.automaton
        lines.append(
            f"  automaton: {automaton.get('states', '?')} states, "
            f"{automaton.get('transitions', '?')} transitions, "
            f"tau={automaton.get('tau', '?')}")
        lines.append(f"    start: {automaton.get('start', '?')}   "
                     f"accepting: {automaton.get('accepting', '?')}")
        unindexed = automaton.get("unindexed")
        if unindexed is not None:
            lines.append(
                "    instance lookup: "
                + ("every resting state by join value" if not unindexed else
                   f"{len(unindexed)} resting state(s) walked whole"))
            for gap in unindexed:
                lines.append(f"      {{{gap['state']}}}: {gap['reason']}")
        alphabet = automaton.get("alphabet")
        if alphabet is not None:
            lines.append(
                f"    event alphabet: {len(alphabet)} predicate(s), "
                f"each evaluated once per event")
            for letter in alphabet:
                lines.append(f"      {letter['predicate']}  read by: "
                             + "; ".join(letter["readers"]))
        for mode, entry in sorted(self.prefilter.items()):
            predicates = ", ".join(
                f"{attribute} {op} {constant!r}"
                for attribute, op, constant in entry.get("predicates", ()))
            effective = "on" if entry.get("effective") else "off"
            lines.append(
                f"  prefilter[{mode}]: {effective} "
                f"({len(entry.get('predicates', ()))} predicates"
                + (f": {predicates}" if predicates else "") + ")")
        if self.complexity:
            for line in self.complexity.get("describe", "").splitlines():
                lines.append(f"  {line}")
        cache = self.cache
        if cache:
            lines.append(
                f"  plan cache: {'hit' if cache.get('cached') else 'miss'} "
                f"({cache.get('hits', 0)} hits / "
                f"{cache.get('misses', 0)} misses, "
                f"{cache.get('size', 0)}/{cache.get('maxsize', 0)} plans)")
        analysis = self.analysis
        by_label = self._analysis_by_label()
        lines.append("  transitions:")
        for entry in self.transitions:
            label = entry["label"]
            suffix = ""
            counters = by_label.get(label)
            if counters:
                suffix = (f"  [evals={counters['evaluations']} "
                          f"passes={counters['passes']} "
                          f"sel={_fmt_ratio(counters['selectivity'])} "
                          f"t={counters['seconds'] * 1e3:.2f}ms]")
            probe = entry.get("probe")
            lines.append(f"    {label}  probe: {probe or 'none'}{suffix}")
            for index, condition in enumerate(entry.get("conditions", ())):
                detail = ""
                if counters:
                    c = counters["conditions"][index]
                    detail = (f"  [evals={c['evaluations']} "
                              f"passes={c['passes']} "
                              f"sel={_fmt_ratio(c['selectivity'])}]")
                lines.append(f"      {condition}{detail}")
        if analysis:
            reconciled = ("reconciled" if analysis.get("reconciles")
                          else "MISMATCH")
            lines.extend([
                "  analysis:",
                f"    events: {analysis['events']} read, "
                f"{analysis['events_filtered']} filtered, "
                f"{analysis['events_processed']} processed "
                f"(prefilter selectivity "
                f"{_fmt_ratio(analysis.get('prefilter_selectivity'))})",
                f"    instances: {analysis['instances_created']} created, "
                f"{analysis['instances_expired']} expired, "
                f"{analysis['branchings']} branchings, "
                f"peak |omega| {analysis['max_omega']}",
                f"    transitions: {analysis['transition_evaluations']} "
                f"evaluated, {analysis['transition_passes']} fired "
                f"({reconciled} with executor counters)",
                f"    matches: {analysis['matches']} "
                f"({analysis['accepted_buffers']} accepted buffers)",
                f"    wall time: {analysis['wall_seconds'] * 1e3:.2f} ms",
            ])
        statistics = self.statistics
        if statistics:
            lines.append(
                f"  persisted statistics: {statistics.get('runs', 0)} "
                f"run(s), {statistics.get('events', 0)} events, "
                f"{statistics.get('matches', 0)} matches")
        return "\n".join(lines)

    def to_dot(self) -> str:
        """Graphviz DOT of the automaton; with analysis data the edges
        are colored and weighted by hotness (share of fired passes)."""
        by_label = self._analysis_by_label()
        total_passes = sum(record["passes"]
                           for record in by_label.values()) or 1
        lines = ["digraph EXPLAIN {", "  rankdir=LR;",
                 f'  label="plan {self.fingerprint[:12]}";']
        states = set()
        for entry in self.transitions:
            states.add(entry["source"])
            states.add(entry["target"])
        accepting = self.automaton.get("accepting")
        start = self.automaton.get("start")
        for state in sorted(states):
            shape = "doublecircle" if state == accepting else "circle"
            lines.append(f'  "{state}" [shape={shape}];')
        if start is not None:
            lines.append("  __start [shape=point];")
            lines.append(f'  __start -> "{start}";')
        for entry in self.transitions:
            label = f"{entry['variable']}"
            attrs = []
            counters = by_label.get(entry["label"])
            if counters:
                share = counters["passes"] / total_passes
                label += (f"\\n{counters['passes']}/"
                          f"{counters['evaluations']} "
                          f"({_fmt_ratio(counters['selectivity'])})")
                attrs.append(f'color="{_heat_color(share)}"')
                attrs.append(f"penwidth={1.0 + 4.0 * share:.2f}")
            attrs.insert(0, f'label="{label}"')
            attrs.append(f'tooltip="probe: {entry.get("probe") or "none"}"')
            lines.append(f'  "{entry["source"]}" -> "{entry["target"]}" '
                         f"[{', '.join(attrs)}];")
        lines.append("}")
        return "\n".join(lines)

    def render(self, format: str = "text") -> str:
        """Render as ``text``, ``json`` or ``dot``."""
        if format == "text":
            return self.to_text()
        if format == "json":
            return self.to_json()
        if format == "dot":
            return self.to_dot()
        raise ValueError(f"unknown explain format {format!r}; "
                         "expected text, json or dot")

    def __repr__(self) -> str:
        kind = "analyzed" if self.analysis else "static"
        return f"ExplainReport({self.fingerprint[:12]}, {kind})"
