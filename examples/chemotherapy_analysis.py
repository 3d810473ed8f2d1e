"""The paper's running example, end to end.

Stores the Event relation of Figure 1 as typed CSV and reloads it,
expresses Query Q1 in the PERMUTE query language, shows the constructed
SES automaton (Figure 5), and prints the matching substitutions — which
are exactly the results the paper reports in Example 1.

Run with::

    python examples/chemotherapy_analysis.py
"""

import tempfile
from pathlib import Path

import repro
from repro.data import figure1_relation
from repro.automaton.builder import build_automaton
from repro.lang import parse_pattern
from repro.storage import load_relation, save_relation

QUERY_Q1 = """
    -- one Ciclofosfamide, one or more Prednisone, one Doxorubicina,
    -- in any order, then a blood count; same patient; within 11 days
    PATTERN PERMUTE(c, p+, d) THEN b
    WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B'
      AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
    WITHIN 11 DAYS
"""


def main() -> None:
    # 1. Store the Figure 1 events like the paper stores them in Oracle
    #    (here: a typed CSV file) and read them back.
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "Event.csv"
        save_relation(figure1_relation(), path)
        events = load_relation(path)
    print(f"loaded {len(events)} chemotherapy events from {path.name}")

    # 2. Compile Query Q1 from the PERMUTE query language.
    pattern = parse_pattern(QUERY_Q1)
    print(f"\ncompiled pattern: {pattern!r}")

    # 3. Inspect the SES automaton the query translates to (Figure 5).
    automaton = build_automaton(pattern)
    print(f"\n{automaton.describe()}")

    # 4. Evaluate and report (Example 1's intended results).
    result = repro.query(pattern, events)
    print(f"\n{len(result)} matching substitutions:")
    for substitution in result:
        patient = substitution.events()[0]["ID"]
        bindings = ", ".join(f"{var!r}/{event.eid}"
                             for var, event in substitution)
        print(f"  patient {patient}: {{{bindings}}}")

    # 5. Show what the physicians asked: medications vs blood count times.
    for substitution in result:
        events = substitution.events()
        span_hours = events[-1].ts - events[0].ts
        print(f"  -> patient {events[0]['ID']}: therapy block spans "
              f"{span_hours} h (limit 264 h)")


if __name__ == "__main__":
    main()
