"""Query-level observability: EXPLAIN, EXPLAIN ANALYZE, statistics.

The measurement substrate for per-pattern cost accounting:

* :func:`explain` — a static report of everything derivable from the
  compiled plan: automaton topology, trimmed-table sizes, prefilter
  predicate vectors, Section 4.4 complexity bounds, plan-cache
  provenance (:mod:`repro.explain.explain`);
* :func:`explain_analyze` — the same report annotated with observed
  per-transition / per-condition counters from an instrumented run over
  a shadow *counting automaton*; the production hot path is untouched
  (:mod:`repro.explain.analyze`);
* :class:`StatsStore` — observed selectivities and cardinalities
  persisted per pattern fingerprint (JSON sidecar, process-global like
  the plan cache), merged across runs and across pool/shard workers
  (:mod:`repro.explain.stats`);
* :func:`ordered_plan` — the feedback loop: a plan whose transitions
  evaluate conditions in ascending observed pass-rate order
  (:mod:`repro.explain.order`).

Surfaced through ``repro explain [--analyze] [--format text|json|dot]``
and the ``/debug/explain`` endpoint; the store is also read by
``/varz``/``/metrics`` and :func:`ordered_plan` — see ``docs/explain.md``.
"""

from .analyze import (CountingTransition, counting_automaton,
                      explain_analyze, transition_label)
from .explain import explain
from .order import ordered_automaton, ordered_plan, rank_conditions
from .report import ExplainReport
from .stats import (StatsStore, clear_stats_store, set_stats_path,
                    stats_key, stats_store)

__all__ = [
    "ExplainReport", "explain", "explain_analyze",
    "CountingTransition", "counting_automaton", "transition_label",
    "StatsStore", "stats_store", "clear_stats_store", "set_stats_path",
    "stats_key",
    "ordered_plan", "ordered_automaton", "rank_conditions",
]
