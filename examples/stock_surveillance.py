"""Trade surveillance: detecting accumulate-then-dump behaviour.

Financial services are one of the paper's motivating domains.  A
surveillance desk wants to flag accounts that place a *basket* of buy
orders across several venues — in any order, because routing scrambles
them — followed by a burst of sells, all within a trading session.  The
order-insensitivity inside each phase is exactly what the PERMUTE /
event-set construct expresses and what sequential-only engines cannot.

Run with::

    python examples/stock_surveillance.py
"""

import random

import repro
from repro import Event, EventRelation, SESPattern

VENUES = ("NYSE", "ARCA", "BATS")


def synthesize_trades(seed: int = 42) -> EventRelation:
    """A day of order flow (timestamps in seconds since open)."""
    rng = random.Random(seed)
    events = []
    counter = 0

    def order(ts, account, side, venue, qty):
        nonlocal counter
        counter += 1
        events.append(Event(ts=ts, eid=f"o{counter}", account=account,
                            side=side, venue=venue, qty=qty))

    # Innocent background flow: small uncoordinated orders.
    for _ in range(60):
        order(rng.randint(0, 23_000), f"acct-{rng.randint(10, 30)}",
              rng.choice(["buy", "sell"]), rng.choice(VENUES),
              rng.randint(10, 200))

    # Suspicious account 7: buys on all three venues (order scrambled by
    # smart routing), then repeated sells shortly after.
    start = 9_000
    for venue, offset in zip(("BATS", "NYSE", "ARCA"), (0, 37, 61)):
        order(start + offset, "acct-7", "buy", venue, 5_000)
    for i, offset in enumerate((400, 500, 650)):
        order(start + offset, "acct-7", "sell", "NYSE", 4_000 + i)

    return EventRelation(sorted(events, key=lambda e: e.ts))


def surveillance_pattern() -> SESPattern:
    """Large buys on each venue (any order), then 1+ large sells, 30 min."""
    return SESPattern(
        sets=[["n", "a", "t"], ["s+"]],
        conditions=[
            "n.side = 'buy'", "n.venue = 'NYSE'", "n.qty >= 1000",
            "a.side = 'buy'", "a.venue = 'ARCA'", "a.qty >= 1000",
            "t.side = 'buy'", "t.venue = 'BATS'", "t.qty >= 1000",
            "s.side = 'sell'", "s.qty >= 1000",
            "n.account = a.account", "n.account = t.account",
            "n.account = s.account",
        ],
        tau=1_800,
    )


def main() -> None:
    relation = synthesize_trades()
    pattern = surveillance_pattern()
    result = repro.compile(pattern).match(relation)

    print(f"scanned {len(relation)} orders, "
          f"filtered {result.stats.events_filtered} as irrelevant")
    if not result.matches:
        print("no accumulate-and-dump behaviour found")
        return
    for substitution in result:
        account = substitution.events()[0]["account"]
        buys = [e for _, e in substitution if e["side"] == "buy"]
        sells = [e for _, e in substitution if e["side"] == "sell"]
        print(f"ALERT {account}: {len(buys)} venue buys "
              f"({', '.join(e['venue'] for e in sorted(buys, key=lambda x: x.ts))}) "
              f"then {len(sells)} sells within "
              f"{substitution.span()} s")


if __name__ == "__main__":
    main()
