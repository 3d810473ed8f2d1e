"""Runtime optimizations beyond the paper's algorithm.

The paper's future work names "space and runtime optimizations …
including indexing techniques for automaton instances [11]".  Indexing
lives inside :class:`~repro.automaton.executor.SESExecutor` itself: Ω is
bucketed by automaton state, a transition's event-only conditions are
evaluated once per (state, event) instead of once per instance, and a
state whose transitions all carry an equality join against one bound
attribute files its instances under that value, so an event is offered
only to the instances that share it.  This module holds the soundness
test of the other technique, benchmarked as an ablation in
benchmarks/bench_ablation_optimizations.py.

Partitioned execution — ``plan.match(relation, partition_by=...)``,
:class:`~repro.parallel.pool.ParallelPartitionedMatcher` — splits the
relation on an attribute that the pattern equi-joins across *all*
variables (e.g. the patient ``ID`` of Query Q1; :func:`partition_attribute`
finds it) and runs one executor per partition.  Cross-partition
combinations are provably condition-violating, so pruning them is safe
and the per-partition instance populations are much smaller.  Note the
recall subtlety: under skip-till-next-match an unpartitioned run can be
*hijacked* — a greedy instance binds a cross-partition event on a
transition whose join conditions are not yet checkable and dies in a
dead end.  Partitioned execution never sees such events, so it accepts
a **superset** of the buffers Algorithm 1 accepts (closer to the
declarative Definition 2).  That holds for accepted buffers only: the
selected answer of ``selection="paper"`` is chosen per partition from
that larger set and can drop a match the global run reports
(docs/semantics.md).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.pattern import SESPattern
from ..core.variables import Variable

__all__ = ["partition_attribute"]


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
