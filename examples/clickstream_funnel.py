"""Click-stream funnel analysis — purchase-intent detection.

Click-stream analysis is one of the application domains the paper's
introduction motivates.  A web shop wants to find sessions where the
user performed the full *consideration set* — add-to-cart, read reviews,
compare alternatives — in **any order** (browsing order varies wildly
between users), followed by a checkout, all within 30 minutes.  The
example also shows the pattern linter and the Ω-population sparkline.

Run with::

    python examples/clickstream_funnel.py
"""

import repro
from repro.automaton import sparkline
from repro.core.diagnostics import diagnose
from repro.data.clickstream import generate_clickstream, purchase_intent_pattern


def main() -> None:
    clicks = generate_clickstream(users=25, sessions_per_user=4,
                                  intent_fraction=0.35, seed=3)
    pattern = purchase_intent_pattern(tau=1800)
    print(f"clickstream: {len(clicks)} events from "
          f"{len(clicks.partition_by('user'))} users")

    findings = diagnose(pattern)
    print("linter:", "clean" if not findings
          else "; ".join(str(f) for f in findings))

    executor = repro.compile(pattern).executor(record_history=True)
    result = executor.run(clicks)

    converting_users = sorted({m.events()[0]["user"] for m in result})
    print(f"\n{len(result)} purchase-intent funnels, "
          f"{len(converting_users)} distinct users: {converting_users}")
    for substitution in result.matches[:5]:
        user = substitution.events()[0]["user"]
        order = " -> ".join(e["action"] for e in substitution.events())
        print(f"  user {user:>2}: {order} ({substitution.span()} s)")
    if len(result) > 5:
        print(f"  ... and {len(result) - 5} more")

    stats = result.stats
    print(f"\nfiltered {stats.events_filtered}/{stats.events_read} events, "
          f"peak {stats.max_simultaneous_instances} instances")
    print("instance population over time:")
    print(f"  {sparkline(stats.omega_history, width=66)}")


if __name__ == "__main__":
    main()
