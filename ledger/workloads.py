"""The four named workloads: queries, streams, sizes — and why each.

Sizes are fixed here and recorded in ``ledger/README.md``; the only
run-time knobs are the stream seed and the measuring time.  The
``smoke`` profile shrinks every size (same code paths, same checks) for
a CI job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .streams import Row, chemo_stream, cohort_stream

_JOINS = "c.ID = d.ID AND c.ID = p.ID AND c.ID = b.ID"

#: Query Q1's shape: distinct medication types (Θ1, mutually exclusive),
#: a Prednisone group variable, then a blood count, per patient.
Q1 = ("PATTERN PERMUTE(c, d, p+) THEN b WHERE c.L = 'C' AND d.L = 'D' "
      f"AND p.L = 'P' AND b.L = 'B' AND {_JOINS} WITHIN 264")

#: Experiment 2's P3 = (<{c,d,p+},{b}>, Θ2, 264): every variable of the
#: first set matches Prednisone, so instances branch (Theorem 3).
P3 = ("PATTERN PERMUTE(c, d, p+) THEN b WHERE c.L = 'P' AND d.L = 'P' "
      f"AND p.L = 'P' AND b.L = 'B' AND {_JOINS} WITHIN 264")

AGG = "SELECT count(*) AS n, avg(b.V) FROM " + Q1

_REG_LABELS = ("B", "C", "D", "P", "L")
_REG_TAUS = (60, 120, 264, 480, 960)


def _reg25() -> Tuple[Tuple[str, str], ...]:
    """25 distinct two-variable patterns: 5x5 label pairs, τ rotating.

    Variables are named ``a<i>``/``b<i>``: the hub deduplicates on a
    match id that hashes variable names and events but not the pattern
    id, so two patterns binding the same events under the same names
    would lose matches as "duplicates" (README, Findings).
    """
    queries = []
    for i, (first, second) in enumerate(
            itertools.product(_REG_LABELS, repeat=2)):
        queries.append((
            f"p{i}",
            f"PATTERN PERMUTE(a{i}, b{i}) WHERE a{i}.L = '{first}' AND "
            f"b{i}.L = '{second}' AND a{i}.ID = b{i}.ID "
            f"WITHIN {_REG_TAUS[i % len(_REG_TAUS)]}"))
    return tuple(queries)


@dataclass(frozen=True)
class Served:
    """A workload on the served path (``repro serve`` child)."""

    name: str
    why: str
    #: ``(pattern id, query)``; the first is the child's ``--query``
    #: (the registry names it ``p0``), the rest are hot-registered.
    queries: Tuple[Tuple[str, str], ...]
    stagger: int
    batch: int
    #: Paced-phase rate, events/s (40-50 % of the seed's capacity).
    rate: int
    #: Saturated bursts per second of measuring time, and their size
    #: in batches (at most the server's ingest queue of 64).
    bursts_per_second: float
    burst_batches: int
    #: Untimed lead-in batches: the longest τ's worth of stream.
    warm_batches: int
    kind = "served"


@dataclass(frozen=True)
class Batch:
    """An in-process ``repro.query`` workload (one child per unit)."""

    name: str
    why: str
    query: str
    #: ``units(seed, smoke)`` -> ``[(unit name, rows), ...]``.
    units: Callable[[int, bool], List[Tuple[str, List[Row]]]]
    kind = "batch"


def _p3_units(seed: int, smoke: bool) -> List[Tuple[str, List[Row]]]:
    dense = 10 if smoke else 24
    return [
        ("dense-a", cohort_stream(seed * 1000 + 1, dense, 24, cycles=2)),
        ("dense-b", cohort_stream(seed * 1000 + 2, dense, 24, cycles=2)),
        # The paper's D2 construction: every event twice, in place.  A
        # fixed data set, as in the paper: selection time swings +-30 %
        # with the shuffle of one small cohort, which is workload
        # variation, not noise - the dense units carry the seed.
        ("d2", cohort_stream(2011, 3 if smoke else 5, 24, cycles=3,
                             duplicate=2)),
    ]


def _agg_units(seed: int, smoke: bool) -> List[Tuple[str, List[Row]]]:
    events = 3000 if smoke else 16000
    return [(f"slice-{k}", chemo_stream(seed * 1000 + k, events, 24))
            for k in range(1, 5)]


WORKLOADS = (
    Served(
        name="serve-q1-sparse",
        why="Filter drops ~78% of events and ~2% trigger a match, so wire "
            "decode, ingest queue and admission do the work; executor, hub "
            "and WAL do little.",
        queries=(("p0", Q1),), stagger=24, batch=64, rate=4000,
        bursts_per_second=0.8, burst_batches=32, warm_batches=16),
    Served(
        name="serve-reg25-dense",
        why="25 patterns, ~0.56 matches/event: registry bank, per-match hub "
            "publish, WAL append+fsync and SSE encode dominate, ingest "
            "decode is negligible - the mirror image of serve-q1-sparse.",
        queries=_reg25(), stagger=24, batch=16, rate=350,
        bursts_per_second=0.8, burst_batches=16, warm_batches=192),
    Batch(
        name="batch-p3-exp2",
        why="No network: dense units are instance growth in _step/_consume "
            "(Theorem 3), the duplicated D2 unit is selection-bound; any "
            "net/WAL change must leave it unmoved.",
        query=P3, units=_p3_units),
    Batch(
        name="batch-agg-fold",
        why="GRETA-style fold: no match materialised, no selection, "
            "prefilter on ~78% of events - shows a change that speeds "
            "enumeration but slows folding or the cheap per-event path.",
        query=AGG, units=_agg_units),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}
