"""Estimators: from timed samples to the end-to-end numbers.

This VM's speed wanders with its host: the same stdlib-only kernel
reads 9 ms or 16 ms depending on the minute, and identical code follows
it (README, "Noise").  Every timed sample is therefore bracketed by two
runs of that kernel on the system under test's CPU
(:func:`ledger.common.calibrate`) and **scaled to the reference machine
speed** — the speed at which the kernel takes
:data:`ledger.common.REFERENCE_S` — before any statistic is taken.  The
kernel shares no code with ``repro``, so no change to the program can
move it; what a change does to the program's own time shows at full
size.  On the same data, scaling took the run-to-run spread of
``events_per_s`` from 17-30 % to 4-6 % (README).

On scaled samples noise is two-sided, so the estimators are medians:

* a **batch unit's** time is the median of its scaled repetitions
  (fresh children and in-child repeats alike); a workload's time is the
  sum of its units' times;
* **served throughput** is the median scaled rate of the saturated
  bursts;
* **served latency**: p50 is taken over all scaled paced latencies; p99
  is the median over the one-second paced windows of each window's p99
  (a single host hiccup owns the pooled p99 of a whole run).

Quartiles over all samples are reported beside each value.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def burst_rate(bursts: Sequence[Sequence[float]]) -> float:
    """Median events/s over ``(events, scaled seconds)`` bursts."""
    return statistics.median(events / seconds for events, seconds in bursts)


def end_to_end(samples: dict) -> Dict[str, dict]:
    """The end-to-end metrics of one workload's (pooled) samples.

    Each entry carries ``value``, ``unit``, the sample count ``n`` the
    value rests on and the quartiles of all samples of its kind.
    ``match_latency_p99_ms`` is reported but not gated (README).
    """
    out: Dict[str, dict] = {}

    def put(name, value, unit, spread):
        out[name] = {"value": value, "unit": unit, "n": len(spread),
                     "quartiles": quartiles(spread)}

    if samples["kind"] == "served":
        bursts = samples["bursts"]
        put("events_per_s", burst_rate(bursts), "events/s",
            [events / seconds for events, seconds in bursts])
        windows = [window for window in samples["windows"] if window]
        pooled = [value for window in windows for value in window]
        put("match_latency_p50_ms", percentile(pooled, 0.50), "ms", pooled)
        put("match_latency_p99_ms", statistics.median(
            percentile(window, 0.99) for window in windows), "ms", pooled)
    else:
        units = samples["units"].values()
        times = [statistics.median(unit["seconds"]) for unit in units]
        every = [s for unit in units for s in unit["seconds"]]
        put("events_per_s",
            sum(unit["events"] for unit in units) / sum(times), "events/s",
            [unit["events"] / s for unit in units for s in unit["seconds"]])
        # No match is delivered before the call returns, so a batch
        # match's latency is its unit's call-to-result time.
        millis = [s * 1e3 for s in every]
        put("match_latency_p50_ms",
            percentile([t * 1e3 for t in times], 0.50), "ms", millis)
        put("match_latency_p99_ms",
            percentile([t * 1e3 for t in times], 0.99), "ms", millis)
    put("setup_s", statistics.median(samples["setup_s"]), "s",
        samples["setup_s"])
    put("peak_rss_mb", max(samples["rss_mb"]), "MiB", samples["rss_mb"])
    return out


def merge(runs: Sequence[dict]) -> dict:
    """Pool the samples of several runs of one workload and seed."""
    first = runs[0]
    merged = {"kind": first["kind"], "setup_s": [], "rss_mb": [],
              "speed": [], "attempted": 0, "failed": 0,
              "counts": first["counts"],
              "counts_repeat": all(run["counts"] == first["counts"]
                                   for run in runs)}
    for run in runs:
        merged["setup_s"] += run["setup_s"]
        merged["rss_mb"] += run["rss_mb"]
        merged["speed"] += run["speed"]
        merged["attempted"] += run["attempted"]
        merged["failed"] += run["failed"]
    if first["kind"] == "served":
        merged["bursts"] = [b for run in runs for b in run["bursts"]]
        merged["windows"] = [w for run in runs for w in run["windows"]]
    else:
        merged["units"] = {
            name: {"events": unit["events"],
                   "seconds": [s for run in runs
                               for s in run["units"][name]["seconds"]]}
            for name, unit in first["units"].items()}
    return merged
