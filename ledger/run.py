"""One run of one workload: inputs, children, checks, raw samples.

:func:`run_workload` is the unit both front ends share — the builder's
per-workload command and the all-workloads suite of ``python -m ledger``
(which pools the samples of several runs, see :mod:`ledger.estimate`).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from . import oracle, served
from .common import (OUT, WAIT_LIMIT, calibrate, child_env, digest,
                     slowdown, split_cpus)
from .estimate import percentile
from .streams import chemo_stream
from .workloads import BY_NAME, Batch, Served

#: Server start-ups timed per served run (the measured one included).
SETUPS = 4

#: Timed repetitions of the query inside one batch child.
CHILD_REPEATS = 2

#: The share of the measuring time a served run spends paced.
PACED_SHARE = 0.8

#: A traced run measures twice (traced and not, for the overhead ratio),
#: each for this share of the measuring time.
TRACE_SHARE = 0.3


def run_workload(name: str, seed: int, seconds: float, *,
                 smoke: bool = False, trace: bool = False) -> dict:
    """Run workload ``name`` once; returns its samples (and, traced,
    its per-layer metrics under ``"layers"``)."""
    spec = BY_NAME[name]
    workdir = OUT / f"work-{os.getpid()}"
    generator_cpus = split_cpus()[0]
    if generator_cpus is not None:
        os.sched_setaffinity(0, generator_cpus)
    try:
        if isinstance(spec, Served):
            return _run_served(spec, seed, seconds, workdir, smoke, trace)
        return _run_batch(spec, seed, seconds, workdir, smoke, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
# Served
# ----------------------------------------------------------------------
def _served_pass(spec: Served, plan, workdir: Path, traced: bool) -> dict:
    """One fresh server child driven through ``plan``."""
    server = served.Server(workdir, spec.queries, traced=traced).start()
    try:
        result = served.run_pass(server, plan)
        varz, statz = server.scrape()
        result.update(server=server, varz=varz, statz=statz,
                      wal_bytes=server.wal_path.stat().st_size,
                      rss=server.stop())
    finally:
        server.kill()
    return result


def _run_served(spec: Served, seed: int, seconds: float, workdir: Path,
                smoke: bool, trace: bool) -> dict:
    prep = time.perf_counter()
    if trace:
        seconds *= TRACE_SHARE
    paced_seconds = PACED_SHARE * seconds
    bursts = max(1, round(spec.bursts_per_second * seconds))
    rows = chemo_stream(
        seed, oracle.served_events(spec, paced_seconds, bursts), spec.stagger)
    plan = oracle.plan_served(spec, rows, paced_seconds, bursts)
    prep = time.perf_counter() - prep

    child_cpus = split_cpus()[1]
    setups: List[float] = []
    probe = calibrate(child_cpus)
    for index in range(0 if trace else 1 if smoke else SETUPS - 1):
        spare = served.Server(workdir / f"setup-{index}", spec.queries)
        raw = spare.start().setup_s
        spare.kill()
        before, probe = probe, calibrate(child_cpus)
        setups.append(raw / slowdown(before, probe))
    result = _served_pass(spec, plan, workdir / "sut", traced=trace)
    server, varz, statz = result["server"], result["varz"], result["statz"]
    setups.append(server.setup_s / slowdown(probe, result["first_probe"]))
    tail = server.tail
    check = oracle.check_served(plan, tail.arrivals, tail.duplicates)

    def counter(metric: str) -> int:
        return int(varz.get(metric, {}).get("value", 0))

    batches = len(plan.frames)
    suppressed = counter("ses_push_duplicates_suppressed_total")
    within_bound = plan.omega_peak <= plan.omega_bound
    first, last = _decile_medians(result["windows"])
    samples = {
        "kind": "served", "bursts": result["bursts"],
        "windows": result["windows"], "setup_s": setups,
        "rss_mb": [result["rss"]],
        "attempted": check["expected"] + batches,
        "failed": (check["missing"] + check["unexpected"]
                   + check["duplicates"] + result["refused"]
                   + statz["ingest"]["errors"] + suppressed
                   + (not within_bound)),
        # Everything here must repeat exactly for a given seed.
        "counts": {
            "events": plan.events, "batches": batches,
            "expected_matches": check["expected"],
            "registry_events": counter("ses_registry_events_total"),
            "registry_deliveries": counter("ses_registry_deliveries_total"),
            "registry_matches": counter("ses_registry_matches_total"),
            "hub_published": counter("ses_push_published_total"),
            "omega_peak": plan.omega_peak,
            "delivered_digest": digest(
                f"{pattern_id}/{mid}" for pattern_id, mid in tail.arrivals),
        },
        "checks": {
            **check, "refused": result["refused"],
            "ingest_errors": statz["ingest"]["errors"],
            "duplicates_suppressed": suppressed,
            "omega_within_bound": within_bound,
            "lateness_p99_ms": percentile(result["lateness_ms"], 0.99),
            "period_ms": result["period_ms"],
            "queue_depth_max": max(result["queue_depth"], default=0),
            "latency_last_over_first_decile": last / first,
        },
        "harness_prep_s": prep,
        "speed": result["speed"],
    }
    if trace:
        from . import layers
        plain = _served_pass(spec, plan, workdir / "plain", traced=False)
        samples["layers"] = layers.served_layers(spec, rows, samples, result,
                                                 plain)
        OUT.mkdir(parents=True, exist_ok=True)
        shutil.copy(server.spans_path, OUT / f"trace-{spec.name}.jsonl")
    return samples


def _decile_medians(windows: List[List[float]]) -> tuple:
    """Median latency of the first and the last tenth of the matches (a
    growing backlog shows as a ratio well above 1)."""
    flat = [value for window in windows for value in window]
    tenth = max(1, len(flat) // 10)
    return (statistics.median(flat[:tenth]), statistics.median(flat[-tenth:]))


# ----------------------------------------------------------------------
# Batch
# ----------------------------------------------------------------------
def _run_batch(spec: Batch, seed: int, seconds: float, workdir: Path,
               smoke: bool, trace: bool) -> dict:
    prep = time.perf_counter()
    workdir.mkdir(parents=True, exist_ok=True)
    units = spec.units(seed, smoke)
    expected: Dict[str, dict] = {}
    for unit, rows in units:
        (workdir / f"{unit}.json").write_text(json.dumps(rows))
        expected[unit] = oracle.batch_expected(spec.query, rows)
    prep = time.perf_counter() - prep

    samples = {
        "kind": "batch", "setup_s": [], "rss_mb": [], "speed": [],
        "attempted": 0,
        "failed": 0, "harness_prep_s": prep, "checks": {},
        "units": {unit: {"events": len(rows), "seconds": []}
                  for unit, rows in units},
    }
    counts: Optional[dict] = None
    if trace:
        seconds *= TRACE_SHARE
    began = time.perf_counter()
    passes = 0
    # Whole passes only, so every unit has the same number of samples;
    # at least two (full size), so each unit meets two fresh children.
    while passes < (1 if trace or smoke else 2) or (
            (time.perf_counter() - began) * (1 + 1 / passes) < seconds):
        seen = {}
        for unit, _ in units:
            report = _batch_child(spec.query, workdir / f"{unit}.json")
            _take(samples, unit, report)
            samples["rss_mb"].append(report["rss_mb"])
            samples["attempted"] += 1
            samples["failed"] += _batch_failures(report, expected[unit])
            seen[unit] = {"stats": report["stats"],
                          "result": report["results"][0]}
        if counts is None:
            counts = seen
        elif counts != seen:
            samples["failed"] += 1
        passes += 1
    samples["counts"] = counts
    samples["checks"] = {"passes": passes,
                         "expected": {u: e["count"]
                                      for u, e in expected.items()}}
    if trace:
        from . import layers, trace as tracing
        reports, spans = {}, []
        for unit, _ in units:
            path = workdir / f"{unit}.spans.jsonl"
            reports[unit] = _batch_child(spec.query,
                                         workdir / f"{unit}.json", path)
            samples["attempted"] += 1
            samples["failed"] += _batch_failures(reports[unit],
                                                 expected[unit])
            spans += tracing.read(path)
        samples["layers"] = layers.batch_layers(spec, units, samples,
                                                reports, spans)
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{spec.name}.jsonl", "w",
                  encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    return samples


def _batch_child(query: str, rows_path: Path,
                 spans_path: Optional[Path] = None) -> dict:
    """Run one unit in a fresh child (traced when ``spans_path`` is
    given); returns its JSON report."""
    cpus = split_cpus()[1]
    before = calibrate(cpus)
    argv = [sys.executable, "-m", "ledger.batch_child", query,
            str(rows_path), str(CHILD_REPEATS), str(time.time())]
    if spans_path is not None:
        argv.append(str(spans_path))
    with subprocess.Popen(argv, env=child_env(), cwd=rows_path.parent,
                          stdout=subprocess.PIPE, text=True) as process:
        if cpus is not None:
            os.sched_setaffinity(process.pid, cpus)
        try:
            stdout, _ = process.communicate(timeout=2 * WAIT_LIMIT)
        except BaseException:
            process.kill()
            raise
    if process.returncode != 0:
        raise RuntimeError(f"batch child exited with {process.returncode}")
    report = json.loads(stdout.splitlines()[-1])
    report["probes"].insert(0, before)
    return report


def _take(samples: dict, unit: str, report: dict) -> None:
    """Add one child's timings, scaled to the reference machine speed
    by the probes around them (parent's, ready, after each repeat)."""
    probes = report["probes"]
    factors = [slowdown(a, b) for a, b in zip(probes, probes[1:])]
    samples["setup_s"].append(report["setup_s"] / factors[0])
    samples["units"][unit]["seconds"] += [
        seconds / factor
        for seconds, factor in zip(report["seconds"], factors[1:])]
    samples["speed"] += factors


def _batch_failures(report: dict, expected: dict) -> int:
    """Wrong results of one child against the oracle's answer."""
    failures = 0
    for result in report["results"]:
        if result["count"] != expected["count"]:
            failures += 1
        elif "digest" in expected and result["digest"] != expected["digest"]:
            failures += 1
        elif "values" in expected and not _close(result["values"],
                                                 expected["values"]):
            failures += 1
    if report["stats"]["max_simultaneous_instances"] > expected["omega_bound"]:
        failures += 1
    return failures


def _close(got: dict, want: dict) -> bool:
    """Aggregate values agree (the fold and the reference may add the
    same floats in a different order)."""
    return got.keys() == want.keys() and all(
        got[k] == want[k] or (
            isinstance(got[k], float) and isinstance(want[k], float)
            and math.isclose(got[k], want[k], rel_tol=1e-9))
        for k in want)
