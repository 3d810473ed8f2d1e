"""The unified query entry point: one call, one typed result.

:func:`query` is the single front door to batch evaluation.  It takes a
query in any spelling — PERMUTE query text (optionally with a ``SELECT``
aggregation clause), a :class:`~repro.core.pattern.SESPattern`, or a
compiled :class:`~repro.plan.plan.PatternPlan` — runs it over the given
events, and returns the typed :data:`~repro.agg.result.Result` union:

* an enumeration query returns a :class:`~repro.agg.result.MatchSet`
  (iteration yields unified :class:`~repro.agg.result.Match` objects);
* an aggregation query (``SELECT count(*) | sum(v.a) | min | max | avg``)
  returns an :class:`~repro.agg.result.AggregateSeries` of finalised
  values — no match is ever materialised on the way.

Dispatch on ``result.kind`` (``"matches"`` / ``"aggregates"``) or with
``isinstance``::

    import repro

    result = repro.query(
        "SELECT count(*) AS n, avg(a.x) "
        "FROM PATTERN PERMUTE(a+, b) "
        "WHERE a.L = 'A' AND b.L = 'B' WITHIN 20",
        events)
    print(result["n"], result["avg(a.x)"])

    for match in repro.query("PATTERN PERMUTE(a, b) WHERE ... WITHIN 20",
                             events):
        print(match.events())

Everything goes through :meth:`PatternPlan.match
<repro.plan.plan.PatternPlan.match>`, the one batch dispatch; call
``repro.compile(pattern).match(events)`` directly for the raw
:class:`~repro.automaton.executor.MatchResult`.
"""

from __future__ import annotations

from typing import Optional

from .agg.result import MatchSet, Result
from .core.pattern import SESPattern
from .plan.cache import compile as compile_plan
from .plan.plan import PatternPlan

__all__ = ["query"]


def query(source, events, *, use_filter: bool = True,
          filter_mode: str = "conjunctive", selection: str = "paper",
          consume: str = "greedy", workers: int = 1,
          partition_by: Optional[str] = None, observability=None,
          optimizations=None) -> Result:
    """Evaluate ``source`` over ``events`` and return a typed result.

    Parameters
    ----------
    source:
        Query text (``[SELECT ...] [FROM] PATTERN ... WHERE ... WITHIN
        ...``), a :class:`SESPattern`, or a compiled
        :class:`PatternPlan` (plans compiled with an
        :class:`~repro.agg.spec.AggregateSpec` aggregate).
    events:
        An :class:`~repro.core.relation.EventRelation` or any iterable
        of :class:`~repro.core.events.Event`.
    use_filter / filter_mode / selection / consume:
        Forwarded to :meth:`PatternPlan.match`.  Aggregation queries
        fold the raw accepted buffers, so ``selection`` only affects
        enumeration queries.
    workers:
        ``> 1`` fans partitions out over a process pool; aggregate
        partials merge back losslessly.
    partition_by:
        Evaluates per partition of the given attribute (in-process
        unless ``workers > 1``).
    observability:
        Optional :class:`~repro.obs.Observability` bundle.
    optimizations:
        Optional iterable of plan optimization names (query-text and
        pattern sources only; a compiled plan keeps its own).

    Returns
    -------
    :class:`~repro.agg.result.MatchSet` for enumeration queries,
    :class:`~repro.agg.result.AggregateSeries` for aggregation queries.
    """
    if isinstance(source, PatternPlan):
        plan = source
    elif isinstance(source, str):
        from .lang import parse_query_spec
        pattern, aggregate = parse_query_spec(source)
        plan = compile_plan(pattern, aggregate=aggregate,
                            optimizations=optimizations,
                            observability=observability)
    elif isinstance(source, SESPattern):
        plan = compile_plan(source, optimizations=optimizations,
                            observability=observability)
    else:
        raise TypeError(
            f"expected query text, SESPattern or PatternPlan, got "
            f"{type(source).__name__}")
    result = plan.match(events, use_filter=use_filter,
                        filter_mode=filter_mode, selection=selection,
                        consume=consume, workers=workers,
                        partition_by=partition_by,
                        observability=observability)
    lineage = (None if observability is None
               else getattr(observability, "lineage", None))
    if plan.aggregate is not None:
        series = result.aggregates
        if lineage is not None:
            series.provenance = lineage.aggregate_provenance(
                folded=series.matches_folded)
        return series
    matches = MatchSet.from_result(result)
    if lineage is not None:
        # Batch delivery happens here: stamp every match and attach the
        # per-match records (positionally aligned with the match list).
        by = "serial" if workers <= 1 else f"pool:{workers}"
        matches.attach_lineage([
            lineage.deliver(substitution, by=by)
            for substitution in matches.matches])
    return matches
