"""Cost-informed query planning for SES patterns.

The paper's evaluation shows that the best execution configuration
depends on measurable properties of the query and the data: the event
filter pays off when many events are irrelevant (Experiment 3),
partitioned execution dominates when the pattern equi-joins all
variables on one attribute, and Theorems 1–3 predict the instance
population from the window size.  :func:`plan_query` encodes
those findings, in the spirit of cost-based CEP processors like ZStream
(related work):

1. analyse the pattern (complexity case per set, partition attribute,
   filter effectiveness);
2. sample the relation (size, window size W, filter selectivity);
3. choose a filter mode and an executor, recording the rationale;
4. return an executable, explainable :class:`QueryPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Union

from ..automaton.executor import MatchResult
from ..automaton.optimizations import partition_attribute
from ..complexity import ComplexityReport, analyze
from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.relation import EventRelation
from ..plan.prefilter import VectorizedPrefilter

__all__ = ["DataProfile", "QueryPlan", "profile_relation", "plan_query"]

#: Executor choices a plan can make.
EXECUTORS = ("plain", "partitioned")

#: Sample size used when profiling a relation.
_SAMPLE = 2000

#: Below this filter selectivity (fraction of events dropped) the filter
#: is considered not worth its per-event cost.
_MIN_FILTER_SELECTIVITY = 0.15

#: Instance populations above this trigger the partitioning preference.
_PARTITION_BOUND_THRESHOLD = 10_000


@dataclass
class DataProfile:
    """Measured properties of an event relation for one pattern."""

    #: Total number of events.
    events: int
    #: Window size W (Definition 5) for the pattern's τ.
    window: int
    #: Fraction of sampled events the pattern's filter would drop.
    filter_selectivity: float

    def describe(self) -> str:
        return (f"{self.events} events, W = {self.window}, "
                f"filter would drop {self.filter_selectivity:.0%}")


def profile_relation(pattern: SESPattern,
                     relation: EventRelation,
                     sample: int = _SAMPLE) -> DataProfile:
    """Measure the :class:`DataProfile` of ``relation`` for ``pattern``.

    The filter selectivity is estimated on the first ``sample`` events;
    the window size is computed exactly (O(n log n)).
    """
    event_filter = VectorizedPrefilter(pattern)
    sampled = relation.events[:sample]
    if sampled and event_filter.is_effective:
        dropped = sum(1 for e in sampled if not event_filter.admits(e))
        selectivity = dropped / len(sampled)
    else:
        selectivity = 0.0
    return DataProfile(
        events=len(relation),
        window=relation.window_size(pattern.tau),
        filter_selectivity=selectivity,
    )


@dataclass
class QueryPlan:
    """An executable plan for one SES pattern over profiled data."""

    pattern: SESPattern
    #: One of :data:`EXECUTORS`.
    executor: str
    #: Whether to apply the Section 4.5 pre-filter.
    use_filter: bool
    #: Partition attribute (``executor == "partitioned"`` only).
    partition_on: Optional[str]
    #: The Section 4.4 analysis underlying the choice.
    complexity: ComplexityReport
    #: The measured data profile the plan was built from.
    profile: DataProfile
    #: Human-readable decisions, in the order they were taken.
    rationale: List[str] = field(default_factory=list)
    #: Result selection forwarded to the executor.
    selection: str = "paper"
    #: Conditions ranked by observed pass rate (statistics store), or
    #: ``None`` when the pattern has never been observed.
    condition_order: Optional[List[str]] = None
    #: Aggregation spec for ``SELECT`` queries; ``None`` enumerates.
    aggregate: Optional[object] = None

    def execute(self, relation: Union[EventRelation, Iterable[Event]]
                ) -> MatchResult:
        """Run the plan over ``relation`` (compiled via the plan cache).

        ``partition_on`` is set exactly when ``executor`` is
        ``"partitioned"``, so ``plan.match`` picks the driver.
        """
        from ..plan.cache import compile as compile_plan
        plan = compile_plan(self.pattern, aggregate=self.aggregate)
        if (self.condition_order is not None and self.aggregate is None
                and self.executor == "plain"):
            from ..explain.order import ordered_plan
            plan = ordered_plan(plan)
        return plan.match(relation, use_filter=self.use_filter,
                          selection=self.selection,
                          partition_by=self.partition_on)

    def explain(self) -> str:
        """Multi-line plan description (like EXPLAIN in a database)."""
        lines = [
            f"plan for {self.pattern!r}",
            f"  data: {self.profile.describe()}",
            f"  executor: {self.executor}"
            + (f" on {self.partition_on!r}" if self.partition_on else ""),
            f"  event filter: {'on' if self.use_filter else 'off'}",
        ]
        if self.aggregate is not None:
            lines.append("  aggregation: "
                         + ", ".join(self.aggregate.labels)
                         + " (folded incrementally, no materialisation)")
        if self.condition_order is not None:
            lines.append("  condition order (by observed selectivity): "
                         + "; ".join(self.condition_order))
        for line in self.complexity.describe().splitlines():
            lines.append(f"  {line}")
        lines.append("  rationale:")
        for reason in self.rationale:
            lines.append(f"    - {reason}")
        return "\n".join(lines)


def plan_query(pattern: SESPattern,
               relation: EventRelation,
               exact: bool = True,
               selection: str = "paper",
               aggregate=None) -> QueryPlan:
    """Build a :class:`QueryPlan` for ``pattern`` over ``relation``.

    Parameters
    ----------
    pattern:
        The SES pattern to plan for.
    relation:
        The data (profiled, not yet executed).
    exact:
        Keep exactly the paper's Algorithm 1 semantics.  When ``False``
        the planner may pick partitioned execution, which accepts a
        superset of Algorithm 1's buffers (it is immune to cross-partition
        greedy hijacking; see :mod:`repro.automaton.optimizations`) but
        may select different matches from them.
    selection:
        Result selection forwarded to the chosen executor.
    aggregate:
        Optional :class:`~repro.agg.spec.AggregateSpec`; the plan folds
        matches incrementally instead of enumerating them.
    """
    profile = profile_relation(pattern, relation)
    complexity = analyze(pattern, profile.window)
    rationale: List[str] = []

    # Surface static pattern problems up front (a plan for a pattern that
    # can never match should say so).
    from ..core.diagnostics import diagnose
    for finding in diagnose(pattern):
        if finding.severity in ("error", "warning"):
            rationale.append(f"lint {finding.severity}: {finding.code} — "
                             f"{finding.message}")

    use_filter = profile.filter_selectivity >= _MIN_FILTER_SELECTIVITY
    if use_filter:
        rationale.append(
            f"filter drops {profile.filter_selectivity:.0%} of events "
            f"(>= {_MIN_FILTER_SELECTIVITY:.0%}) -> pre-filter on "
            "(Experiment 3)")
    else:
        rationale.append(
            f"filter would drop only {profile.filter_selectivity:.0%} of "
            "events -> pre-filter off")

    partition_on = partition_attribute(pattern)
    executor = "plain"
    if partition_on is not None and not exact:
        if complexity.total_bound > _PARTITION_BOUND_THRESHOLD:
            executor = "partitioned"
            rationale.append(
                f"pattern equi-joins all variables on {partition_on!r} and "
                f"the instance bound is large -> partitioned execution "
                "(superset of accepted buffers, not of the selected "
                "matches; exact=False)")
    if executor == "plain" and partition_on is not None and not exact:
        rationale.append(
            f"partitionable on {partition_on!r} but instance bound is small "
            "-> not worth the split")
    if executor == "plain" and partition_on is not None and exact:
        rationale.append(
            f"partitionable on {partition_on!r} but exact Algorithm 1 "
            "semantics requested -> partitioning skipped")

    if executor == "plain":
        rationale.append("plain Algorithm 1 is the best exact choice")

    if aggregate is not None:
        rationale.append(
            "aggregation query -> matches fold into per-instance "
            "registers, enumeration and materialisation are skipped "
            "entirely")

    from ..explain.order import condition_order_hint
    condition_order = condition_order_hint(pattern)
    if condition_order is not None:
        rationale.append(
            "statistics store has observed selectivities for this pattern "
            "-> conditions evaluate most-selective-first")

    if not complexity.mutually_exclusive:
        worst = max(complexity.set_bounds)
        if worst > _PARTITION_BOUND_THRESHOLD:
            rationale.append(
                "warning: non-exclusive variables with a large per-start "
                f"bound ({worst if worst < 10**9 else 'huge'}); expect a "
                "large instance population (Theorems 2-3)")

    return QueryPlan(
        pattern=pattern,
        executor=executor,
        use_filter=use_filter,
        partition_on=partition_on if executor == "partitioned" else None,
        complexity=complexity,
        profile=profile,
        rationale=rationale,
        selection=selection,
        condition_order=condition_order,
        aggregate=aggregate,
    )
