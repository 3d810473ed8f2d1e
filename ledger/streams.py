"""The ledger's own seeded event generator (Figure-1 schema).

Deliberately imports nothing from ``repro.data`` or ``repro.bench``: a
later change to the library's generators must not shift the workloads
the ledger's numbers are read against.  Events are produced as the wire
protocol's plain JSON objects (``{"ts", "eid", "attrs"}``) — the program
under test only ever receives these.

Streams have **stationary density**: one patient enrols every
``stagger`` hours and is treated for ``cycles`` 21-day cycles, with
enrolment pre-rolled by one full treatment span, so the number of
concurrently treated patients (and hence the window size W of
Definition 5) is the same at the first event as at the last.  A cycle
carries 11 clinical events (blood counts ``B``, the six medications in
a shuffled order, two further Prednisone doses) and ``labs`` background
laboratory events that satisfy no workload's constant conditions — 26
of them make ~70 % of the stream background, as in the hospital data.
"""

from __future__ import annotations

import random
from typing import Dict, List

#: τ of every pattern in the paper's evaluation (11 days, in hours).
TAU = 264

MEDICATIONS = ("C", "D", "P", "V", "R", "L")
_DOSES = {"C": (1672.5, "mg"), "D": (84.0, "mgl"), "P": (111.5, "mg"),
          "V": (2.0, "mg"), "R": (620.0, "mg"), "L": (10.0, "mg")}
_LABS = ("GLU", "CRE", "ALT", "HGB", "WBC", "PLT")
_CYCLE_HOURS = 21 * 24

Row = Dict[str, object]


def _cycle(rng: random.Random, pid: int, base: int, labs: int,
           out: List[tuple]) -> None:
    """One treatment cycle of one patient as ``(ts, ID, L, V, U)`` tuples."""
    out.append((base + 8, pid, "B", float(rng.randint(0, 2)), "WHO-Tox"))
    order = list(MEDICATIONS)
    rng.shuffle(order)
    hour = base + 9
    for med in order:
        out.append((hour, pid, med) + _DOSES[med])
        hour += rng.randint(1, 5)
    for day in (1, 2):
        out.append((base + day * 24 + 9 + rng.randint(0, 3), pid, "P")
                   + _DOSES["P"])
    out.append((base + (3 + rng.randint(2, 4)) * 24 + 9, pid, "B",
                float(rng.randint(0, 3)), "WHO-Tox"))
    out.append((base + 10 * 24 + 9 + rng.randint(0, 5), pid, "B",
                float(rng.randint(0, 3)), "WHO-Tox"))
    for _ in range(labs):
        out.append((base + rng.randint(0, 14) * 24 + rng.randint(7, 18), pid,
                    rng.choice(_LABS), round(rng.uniform(0.5, 400.0), 1),
                    "lab"))


def _rows(raw: List[tuple], prefix: str, duplicate: int = 1) -> List[Row]:
    """Wire events in time order, numbered from 1.  Ties keep generation
    order (the sort is stable), so a seed fixes the stream byte for
    byte."""
    raw.sort(key=lambda row: row[0])
    return [{"ts": ts, "eid": f"{prefix}{index}",
             "attrs": {"ID": pid, "L": label, "V": value, "U": unit}}
            for index, (ts, pid, label, value, unit) in enumerate(
                (row for row in raw for _ in range(duplicate)), 1)]


def chemo_stream(seed: int, events: int, stagger: int, *, cycles: int = 2,
                 labs: int = 26, prefix: str = "e") -> List[Row]:
    """Exactly ``events`` chronologically ordered wire events.

    Enrolment starts one treatment span before hour 0 and everything
    before hour 0 is cut, so density is stationary from the first event;
    patients keep enrolling until ``events`` events exist.
    """
    rng = random.Random(seed)
    span = cycles * _CYCLE_HOURS
    per_patient = cycles * (11 + labs)
    patients = span // stagger + events // per_patient + 2
    raw: List[tuple] = []
    for index in range(patients):
        start = index * stagger - span
        for cycle in range(cycles):
            _cycle(rng, index + 1, start + cycle * _CYCLE_HOURS, labs, raw)
    rows = _rows([row for row in raw if row[0] >= 0], prefix)
    if len(rows) < events:
        raise ValueError(f"generated {len(rows)} events, {events} requested")
    return rows[:events]


def cohort_stream(seed: int, patients: int, stagger: int, *, cycles: int,
                  labs: int = 26, duplicate: int = 1,
                  prefix: str = "e") -> List[Row]:
    """A closed cohort (no pre-roll): every patient's every cycle.

    ``duplicate`` repeats each event in place (same timestamp and
    attributes, distinct ids) — the paper's D2..D5 construction, which
    multiplies the window size W without changing the time span.
    """
    rng = random.Random(seed)
    raw: List[tuple] = []
    for index in range(patients):
        for cycle in range(cycles):
            _cycle(rng, index + 1, index * stagger + cycle * _CYCLE_HOURS,
                   labs, raw)
    return _rows(raw, prefix, duplicate)


def window_size(rows: List[Row], tau: int = TAU) -> int:
    """Definition 5's W: the most events any window of width τ holds."""
    best = left = 0
    for right, row in enumerate(rows):
        while row["ts"] - rows[left]["ts"] > tau:
            left += 1
        best = max(best, right - left + 1)
    return best
