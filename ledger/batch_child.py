"""The system under test for batch workloads: one unit, one process.

``python -m ledger.batch_child QUERY ROWS.json REPEATS SPAWNED [SPANS]``

Set-up is what a fresh process pays before its first event: ``repro``
imported, the query parsed, the plan compiled cold.  The unit is then
``repro.query(QUERY, events)`` — the call users make — repeated
``REPEATS`` times on the same events (the plan cache is warm from
set-up, as it is for any second query of a process).  With ``SPANS``
the unit instead runs once through the same public pieces
``repro.query`` assembles, one span per seam, and the spans are written
there.  The last stdout line is the JSON report.
"""

from __future__ import annotations

import json
import sys
import time

from .common import calibrate, digest, peak_rss_mb


def main(argv) -> int:
    query, rows_path, repeats, spawned = argv[:4]
    spans_path = argv[4] if len(argv) > 4 else None

    import repro
    from repro.lang import parse_query_spec
    from repro.plan.cache import compile as compile_plan
    imported = time.time()
    began = time.perf_counter()
    pattern, aggregate = parse_query_spec(query)
    parsed = time.perf_counter()
    compile_plan(pattern, aggregate=aggregate)
    compiled = time.perf_counter()
    ready = time.time()
    # Calibration probes bracket set-up (the parent took the one
    # before) and every timed repeat; see ledger.common.calibrate.
    probes = [calibrate()]

    from repro.net.protocol import event_from_json
    from repro.obs.lineage import match_id

    with open(rows_path, encoding="utf-8") as handle:
        events = [event_from_json(row) for row in json.load(handle)]

    def describe(result) -> dict:
        if result.kind == "aggregates":
            return {"count": result.matches_folded,
                    "values": dict(result.values)}
        return {"count": len(result),
                "digest": digest([match_id(m.substitution) for m in result])}

    seconds, results = [], []
    if spans_path is None:
        for _ in range(int(repeats)):
            start = time.perf_counter()
            result = repro.query(query, events)
            seconds.append(time.perf_counter() - start)
            probes.append(calibrate())
            results.append(describe(result))
    else:
        from .trace import Spans, traced_query
        spans = Spans()
        start = time.perf_counter()
        result = traced_query(query, events, spans, rows_path)
        seconds.append(time.perf_counter() - start)
        probes.append(calibrate())
        results.append(describe(result))
        spans.write(spans_path)
    stats = result.stats
    print(json.dumps({
        "setup_s": ready - float(spawned),
        "import_s": imported - float(spawned),
        "parse_ms": (parsed - began) * 1e3,
        "compile_ms": (compiled - parsed) * 1e3,
        "seconds": seconds, "probes": probes, "results": results,
        "rss_mb": peak_rss_mb(),
        "stats": {name: getattr(stats, name) for name in (
            "events_read", "events_filtered", "events_processed",
            "instances_created", "max_simultaneous_instances",
            "transitions_fired", "expired_instances", "accepted_buffers",
            "matches")},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
