"""Registry benchmark: shared admission pass vs independent matchers.

The multi-tenant workload :mod:`repro.registry` targets: many *distinct*
live patterns over one event stream.  The baseline is one independent
:class:`~repro.stream.runner.ContinuousMatcher` per pattern, each
offered every event (N filter checks per event).  The
registry instead evaluates the deduplicated predicate bank once per
event batch and fans admission out through per-pattern bitmasks, so the
per-event cost grows with the number of *distinct predicates*, not the
number of patterns.  ``python -m repro.bench`` always runs this and CI's
benchmark gate tracks the resulting ``bench_registry_*`` metrics
(``*_seconds`` lower-better, ``*_speedup`` / ``*_events_per_second``
higher-better).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence

from ..core.events import Event
from ..core.relation import EventRelation
from ..data.chemo import generate_chemo
from ..lang import parse_pattern
from ..registry import PatternRegistry
from ..stream.runner import ContinuousMatcher
from .harness import timed
from .report import print_table

__all__ = ["registry_queries", "registry_relation", "run_registry",
           "print_registry", "registry_snapshot"]

#: Event labels the generated patterns pair up — the sparse clinical
#: events (admission, completion, discharge, prednisone, leukapheresis),
#: so the stream is dominated by lab events no pattern admits: the
#: regime the shared admission pass targets (and the common monitoring
#: shape — selective alerts over a noisy feed).
LABELS = ("B", "C", "D", "P", "L")

#: Time windows the label pairs are instantiated at.
TAUS = (60, 120, 264, 480, 960)

#: Default pattern-set size: 25 ordered label pairs x 5 windows.
DEFAULT_PATTERNS = len(LABELS) ** 2 * len(TAUS)


def registry_queries(n: int = DEFAULT_PATTERNS) -> List[str]:
    """``n`` distinct two-variable queries over the chemo schema."""
    queries = []
    for (first, second), tau in itertools.product(
            itertools.product(LABELS, repeat=2), TAUS):
        queries.append(
            f"PATTERN PERMUTE(a, b) WHERE a.L = '{first}' AND "
            f"b.L = '{second}' AND a.ID = b.ID WITHIN {tau}")
        if len(queries) == n:
            return queries
    raise ValueError(f"only {len(queries)} distinct queries available, "
                     f"{n} requested")


def registry_relation(patients: int = 6, cycles: int = 3,
                      seed: int = 11) -> EventRelation:
    """The event stream both contenders replay (lab-event heavy)."""
    return generate_chemo(patients=patients, cycles=cycles, seed=seed,
                          lab_events_per_cycle=60)


def _match_keys(matches) -> List[frozenset]:
    return sorted((frozenset((v, e.eid) for v, e in sub.bindings)
                   for sub in matches),
                  key=sorted)


def run_registry(relation: Optional[EventRelation] = None,
                 queries: Optional[Sequence[str]] = None) -> Dict:
    """Replay the stream through both contenders and time them.

    Both feed the same events to the same compiled plans; the registry
    run shares one admission pass, the baseline run offers every event
    to every pattern.  The per-pattern match sets are asserted equal
    before the row is returned.
    """
    if relation is None:
        relation = registry_relation()
    if queries is None:
        queries = registry_queries()
    patterns = {f"p{i}": parse_pattern(text)
                for i, text in enumerate(queries)}
    events: List[Event] = list(relation)

    def run_shared() -> Dict[str, List]:
        registry = PatternRegistry()
        for name, pattern in patterns.items():
            registry.register(pattern, pattern_id=name)
        registry.push_many(events)
        registry.close()
        return {name: registry.matches_of(name) for name in patterns}

    def run_independent() -> Dict[str, List]:
        matchers = {name: ContinuousMatcher(pattern)
                    for name, pattern in patterns.items()}
        for event in events:
            for matcher in matchers.values():
                matcher.push(event)
        for matcher in matchers.values():
            matcher.close()
        return {name: matcher.matches for name, matcher in matchers.items()}

    independent_matches, independent_seconds = timed(run_independent)
    shared_matches, shared_seconds = timed(run_shared)
    for name in patterns:
        if _match_keys(shared_matches[name]) != _match_keys(
                independent_matches[name]):
            raise AssertionError(
                f"shared and independent runs disagree on {name}")

    registry = PatternRegistry()
    for name, pattern in patterns.items():
        registry.register(pattern, pattern_id=name)
    predicates = registry.predicate_count
    registry.close()

    return {
        "patterns": len(patterns),
        "events": len(events),
        "predicates": predicates,
        "independent_seconds": independent_seconds,
        "shared_seconds": shared_seconds,
        "speedup": (independent_seconds / shared_seconds
                    if shared_seconds else 0.0),
        "events_per_second": (len(events) / shared_seconds
                              if shared_seconds else 0.0),
        "matches": sum(len(m) for m in shared_matches.values()),
    }


def print_registry(row: Dict) -> None:
    """Render the registry comparison table."""
    print_table(
        ["patterns", "events", "preds", "independent s",
         "shared s", "speedup", "events/s", "matches"],
        [[row["patterns"], row["events"], row["predicates"],
          row["independent_seconds"],
          row["shared_seconds"], row["speedup"],
          row["events_per_second"], row["matches"]]],
        title="Pattern registry (many patterns, one admission pass)",
    )
    print()


def registry_snapshot(row: Dict) -> Dict[str, dict]:
    """The row as exportable gauges (``bench_registry_<field>``)."""
    snapshot: Dict[str, dict] = {}
    for field in ("independent_seconds", "shared_seconds", "speedup",
                  "events_per_second"):
        value = row[field]
        snapshot[f"bench_registry_{field}"] = {
            "type": "gauge", "value": value, "max": value}
    return snapshot
