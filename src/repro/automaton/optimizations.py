"""Runtime optimizations beyond the paper's algorithm.

The paper's future work names "space and runtime optimizations …
including indexing techniques for automaton instances [11]".  Indexing
lives inside :class:`~repro.automaton.executor.SESExecutor` itself: Ω is
bucketed by automaton state, a transition's event-only conditions are
evaluated once per (state, event) instead of once per instance, and a
state whose transitions all carry an equality join against one bound
attribute files its instances under that value, so an event is offered
only to the instances that share it.  This module holds the other
technique, benchmarked as an ablation in
benchmarks/bench_ablation_optimizations.py.

:class:`PartitionedMatcher` splits the relation on an attribute that the
pattern equi-joins across *all* variables (e.g. the patient ``ID`` of
Query Q1) and runs one executor per partition.  Cross-partition
combinations are provably condition-violating, so pruning them is safe
and the per-partition instance populations are much smaller.  Note the
recall subtlety: under skip-till-next-match an unpartitioned run can be
*hijacked* — a greedy instance binds a cross-partition event on a
transition whose join conditions are not yet checkable and dies in a
dead end.  Partitioned execution never sees such events, so it accepts
a **superset** of the buffers Algorithm 1 accepts (closer to the
declarative Definition 2); it never loses a match.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..core.events import Event
from ..core.pattern import SESPattern
from ..core.relation import EventRelation
from ..core.semantics import select
from ..core.substitution import Substitution
from ..core.variables import Variable
from .executor import MatchResult
from .metrics import ExecutionStats

__all__ = ["PartitionedMatcher", "partition_attribute"]


def partition_attribute(pattern: SESPattern) -> Optional[str]:
    """An attribute on which the pattern equi-joins *all* its variables.

    Returns the attribute name if Θ's equality conditions over a single
    attribute connect every variable of the pattern (so events from
    different partitions can never co-occur in a match), else ``None``.
    """
    candidates: Dict[str, List[Tuple[Variable, Variable]]] = {}
    for condition in pattern.conditions:
        if condition.is_constant or condition.op != "=":
            continue
        left, right = condition.left, condition.right
        if left.attribute != right.attribute:  # type: ignore[union-attr]
            continue
        candidates.setdefault(left.attribute, []).append(
            (left.variable, right.variable))  # type: ignore[union-attr]
    variables = pattern.variables
    for attribute, edges in sorted(candidates.items()):
        # Union-find over the equality graph.
        parent = {v: v for v in variables}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for a, b in edges:
            parent[find(a)] = find(b)
        roots = {find(v) for v in variables}
        if len(roots) == 1:
            return attribute
    return None


class PartitionedMatcher:
    """Evaluate a pattern per partition of an equi-joined attribute.

    Raises :class:`ValueError` if the pattern's conditions do not connect
    all variables through equalities on a single attribute (partitioning
    would be unsound); pass ``partition_by`` explicitly to override the
    automatic detection (at your own risk; ``attribute=`` is the
    deprecated spelling).  Accepts a compiled
    :class:`~repro.plan.plan.PatternPlan` in place of the pattern.
    """

    def __init__(self, pattern, partition_by: Optional[str] = None,
                 use_filter: bool = True, selection: str = "paper",
                 consume: Optional[str] = None,
                 attribute: Optional[str] = None):
        from ..core.options import resolve_option
        from ..plan.cache import as_plan
        partition_by = resolve_option(
            "PartitionedMatcher", "partition_by", partition_by,
            "attribute", attribute)
        plan = as_plan(pattern)
        if partition_by is None:
            partition_by = partition_attribute(plan.pattern)
        if partition_by is None:
            raise ValueError(
                "pattern does not equi-join all variables on a single "
                "attribute; partitioned execution would lose matches"
            )
        self.plan = plan
        self.attribute = partition_by
        self.pattern = plan.pattern
        self.selection = selection
        self._use_filter = use_filter
        self._consume = consume

    def run(self, relation: Union[EventRelation, Iterable[Event]]) -> MatchResult:
        """Run the pattern over every partition; merge and select results."""
        if not isinstance(relation, EventRelation):
            relation = EventRelation(relation)
        accepted: List[Substitution] = []
        stats = ExecutionStats()
        for _, part in sorted(relation.partition_by(self.attribute).items(),
                              key=lambda kv: str(kv[0])):
            executor = self.plan.executor(use_filter=self._use_filter,
                                          selection="accepted",
                                          consume=self._consume)
            result = executor.run(part)
            accepted.extend(result.accepted)
            stats.merge(result.stats)
        matches = select(accepted, self.selection)
        stats.matches = len(matches)
        return MatchResult(matches=matches, accepted=accepted, stats=stats)
