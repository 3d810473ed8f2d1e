"""Cost-informed planning: let the library choose how to run a query.

Different SES patterns want different execution configurations — the
event filter pays off when most events are irrelevant, and partitioned
execution when the pattern equi-joins all variables on one attribute.  ``repro.planner`` measures the data,
applies the paper's complexity analysis (Theorems 1–3), and explains its
choice like a database EXPLAIN.

Run with::

    python examples/query_planning.py
"""

from repro.data import base_dataset, pattern_p3, query_q1
from repro.planner import plan_query


def main() -> None:
    relation = base_dataset(patients=10, cycles=3)
    print(f"data: {len(relation)} events, "
          f"W = {relation.window_size(264)} at tau = 264\n")

    # A cheap, mutually exclusive pattern: Query Q1.
    plan = plan_query(query_q1(), relation)
    print(plan.explain())
    result = plan.execute(relation)
    print(f"=> {len(result)} matches, "
          f"peak {result.stats.max_simultaneous_instances} instances\n")

    # A heavy pattern (group variable, non-exclusive conditions): the
    # planner keeps Algorithm 1 semantics by default...
    plan = plan_query(pattern_p3(), relation)
    print(plan.explain())
    result = plan.execute(relation)
    print(f"=> {len(result)} matches, "
          f"peak {result.stats.max_simultaneous_instances} instances\n")

    # ...and partitions when allowed to relax to superset recall.
    plan = plan_query(pattern_p3(), relation, exact=False)
    print(plan.explain())
    result = plan.execute(relation)
    print(f"=> {len(result)} matches, "
          f"peak {result.stats.max_simultaneous_instances} instances")


if __name__ == "__main__":
    main()
