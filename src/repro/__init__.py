"""repro — sequenced event set (SES) pattern matching.

A complete reproduction of *Sequenced Event Set Pattern Matching*
(Cadonna, Gamper, Böhlen; EDBT 2011): the SES pattern model, the
automaton-based evaluation algorithm with event filtering, the brute-force
baseline, the declarative Definition-2 oracle, executable complexity
bounds, a PERMUTE query language, typed CSV persistence of event
relations, EXPLAIN, streaming execution, parallel partitioned execution
over process pools, and the full benchmark harness for the paper's
experiments.

Quickstart::

    import repro
    from repro import Event

    events = [
        Event(ts=1, eid="a1", kind="A"),
        Event(ts=2, eid="b1", kind="B"),
        Event(ts=3, eid="c1", kind="C"),
    ]
    result = repro.query(
        "PATTERN PERMUTE(a, b) THEN c "
        "WHERE a.kind = 'A' AND b.kind = 'B' AND c.kind = 'C' "
        "WITHIN 10", events)
    for match in result:
        print(match.events())

Aggregation queries fold matches incrementally — no match is ever
materialised::

    series = repro.query(
        "SELECT count(*) AS n, avg(c.T) "
        "FROM PATTERN PERMUTE(a, b) THEN c "
        "WHERE a.kind = 'A' AND b.kind = 'B' AND c.kind = 'C' "
        "WITHIN 10", events)
    print(series["n"])

:func:`query` returns the typed :data:`~repro.agg.result.Result` union
(:class:`MatchSet` | :class:`AggregateSeries`); dispatch on
``result.kind``.  For repeated runs compile once:
``repro.compile(pattern).match(relation)`` (process-global plan cache);
the plan's ``match`` / ``executor`` / ``stream`` are the batch,
incremental and continuous drivers.
"""

from .agg import AggregateSeries, AggregateSpec, Match, MatchSet
from .api import query

from .core.conditions import Attr, Condition, Const, attr, const
from .core.events import Attribute, Event, EventSchema, SchemaError
from .core.pattern import PatternError, SESPattern
from .core.relation import EventRelation
from .core.substitution import Substitution
from .core.variables import Variable, group, var

from .automaton.automaton import SESAutomaton
from .automaton.builder import build_automaton
from .automaton.executor import MatchResult, SESExecutor

from .explain import (ExplainReport, StatsStore, clear_stats_store, explain,
                      explain_analyze, stats_store)
from .lang import compile_query, parse_query
from .obs import (FlightRecorder, LineageRecorder, Observability, ObsServer,
                  Provenance, TraceConfig)
from .parallel import (ParallelPartitionedMatcher, ShardedStreamMatcher,
                       WorkerCrashed)
from .plan import (PatternPlan, PlanCache, clear_plan_cache, compile,
                   plan_cache, set_plan_cache_size)
from .registry import PatternRegistry, TenantQuota
from .resilience import (DeadLetterQueue, FaultPlan, GuardConfig,
                         ResourceExhausted, RestartPolicy, Supervisor)
from .stream import ContinuousMatcher

__version__ = "1.0.0"

__all__ = [
    "AggregateSeries",
    "AggregateSpec",
    "Attribute",
    "Attr",
    "Condition",
    "Const",
    "ContinuousMatcher",
    "DeadLetterQueue",
    "Event",
    "EventRelation",
    "EventSchema",
    "ExplainReport",
    "FaultPlan",
    "FlightRecorder",
    "GuardConfig",
    "LineageRecorder",
    "Match",
    "MatchResult",
    "MatchSet",
    "Observability",
    "ObsServer",
    "ParallelPartitionedMatcher",
    "PatternError",
    "PatternPlan",
    "PatternRegistry",
    "PlanCache",
    "Provenance",
    "ResourceExhausted",
    "RestartPolicy",
    "SESAutomaton",
    "SESExecutor",
    "SESPattern",
    "SchemaError",
    "ShardedStreamMatcher",
    "StatsStore",
    "Substitution",
    "Supervisor",
    "TenantQuota",
    "TraceConfig",
    "Variable",
    "WorkerCrashed",
    "attr",
    "build_automaton",
    "clear_plan_cache",
    "clear_stats_store",
    "compile",
    "compile_query",
    "const",
    "explain",
    "explain_analyze",
    "group",
    "parse_query",
    "plan_cache",
    "query",
    "set_plan_cache_size",
    "stats_store",
    "var",
    "__version__",
]
