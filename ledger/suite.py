"""The front ends: one-line result, the pooled suite, verify-repeat."""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
from typing import Dict, List

from .common import OUT, ROOT, allowed_cpus
from .estimate import end_to_end, merge
from .run import run_workload
from .workloads import WORKLOADS

BASELINE = OUT.parent / "baseline"


def contract() -> dict:
    """``BENCHMARK.json``: metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def single(name: str, seed: int, seconds: float, *, smoke: bool,
           trace: bool) -> dict:
    """One run as the builder's one-line result object."""
    samples = run_workload(name, seed, seconds, smoke=smoke, trace=trace)
    if trace:
        metrics = samples["layers"]
    else:
        measured = end_to_end(samples)
        metrics = {m["name"]: {"value": measured[m["name"]]["value"],
                               "unit": m["unit"]}
                   for m in contract()["end_to_end"]}
    return {"correct": samples["failed"] == 0,
            "attempted": samples["attempted"],
            "failed": samples["failed"], "metrics": metrics}


def fingerprint() -> dict:
    """Where the numbers were taken: machine, interpreter, work dir."""
    model = ""
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
        for line in info:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    # WAL fsync cost depends on what the work dir sits on (README).
    filesystem, longest = "", -1
    with open("/proc/mounts", encoding="ascii", errors="replace") as mounts:
        for line in mounts:
            _, point, kind = line.split()[:3]
            if str(OUT).startswith(point) and len(point) > longest:
                filesystem, longest = kind, len(point)
    return {"platform": platform.platform(), "cpu": model,
            "nproc": len(allowed_cpus()),
            "python": platform.python_version(),
            "workdir_filesystem": filesystem}


def collect(seed: int, seconds: float, reps: int, smoke: bool) -> dict:
    """Run every workload ``reps`` times, round-robin, and pool."""
    runs: Dict[str, List[dict]] = {spec.name: [] for spec in WORKLOADS}
    for rep in range(reps):
        for spec in WORKLOADS:
            began = time.perf_counter()
            runs[spec.name].append(
                run_workload(spec.name, seed, seconds, smoke=smoke))
            print(f"  rep {rep + 1}/{reps} {spec.name}: "
                  f"{time.perf_counter() - began:.1f} s", file=sys.stderr)
    out = {}
    for name, samples in runs.items():
        pooled = merge(samples)
        out[name] = {
            "metrics": end_to_end(pooled),
            "failed_ratio": pooled["failed"] / pooled["attempted"],
            "attempted": pooled["attempted"], "failed": pooled["failed"],
            "counts": pooled["counts"],
            "counts_repeat": pooled["counts_repeat"],
            "machine_slowdown": statistics.median(pooled["speed"]),
            "checks": samples[-1]["checks"],
            "harness_prep_s": samples[-1]["harness_prep_s"],
        }
    return out


def _golden(results: dict, seed: int, smoke: bool) -> List[str]:
    """Exact counts against the committed ones (default seed only)."""
    path = BASELINE / "expected.json"
    if not path.is_file():
        return []
    golden = json.loads(path.read_text())
    profile = golden.get("smoke" if smoke else "full", {})
    if golden.get("seed") != seed:
        return []
    return [name for name, result in results.items()
            if name in profile and profile[name] != result["counts"]]


def report(results: dict, layers: Dict[str, dict]) -> None:
    for name, result in results.items():
        print(f"\n{name}")
        for metric, entry in result["metrics"].items():
            q1, q2, q3 = entry["quartiles"]
            print(f"  {metric:<24}{entry['value']:>14.4f} {entry['unit']:<9}"
                  f"n={entry['n']:<6} all samples q1/q2/q3 = "
                  f"{q1:.4g} / {q2:.4g} / {q3:.4g}")
        print(f"  {'failed_ratio':<24}{result['failed_ratio']:>14.4f} "
              f"{'ratio':<9}n={result['attempted']}")
        print(f"  harness_prep_s = {result['harness_prep_s']:.2f} "
              f"(not a metric); counts repeat: {result['counts_repeat']}; "
              f"timings are at reference speed, the machine ran "
              f"{result['machine_slowdown']:.2f}x slower")
        checks = result["checks"]
        if "period_ms" in checks:
            # The paced phase is valid while the generator keeps its
            # schedule and no backlog grows.
            print(f"  paced: generator lateness p99 "
                  f"{checks['lateness_p99_ms']:.2f} ms of a "
                  f"{checks['period_ms']:.1f} ms period, deepest ingest "
                  f"queue {checks['queue_depth_max']}, last/first latency "
                  f"decile {checks['latency_last_over_first_decile']:.2f}"
                  + ("" if checks["lateness_p99_ms"] < checks["period_ms"]
                     and checks["latency_last_over_first_decile"] <= 1.5
                     else "  WARN: not a clean open loop"))
        for metric, entry in layers.get(name, {}).items():
            print(f"    {metric:<44}{entry['value']:>14.4f} {entry['unit']}")


def full(seed: int, seconds: float, reps: int, *, smoke: bool,
         trace: bool) -> int:
    results = collect(seed, seconds, reps, smoke)
    layers: Dict[str, dict] = {}
    if trace:
        for spec in WORKLOADS:
            traced = run_workload(spec.name, seed, seconds, smoke=smoke,
                                  trace=True)
            layers[spec.name] = traced["layers"]
            results[spec.name]["failed"] += traced["failed"]
    report(results, layers)
    drifted = _golden(results, seed, smoke)
    for name in drifted:
        print(f"FAIL {name}: counts differ from baseline/expected.json")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "result.json").write_text(json.dumps({
        "schema": 1, "fingerprint": fingerprint(), "seed": seed,
        "seconds": seconds, "reps": reps, "profile":
        "smoke" if smoke else "full", "workloads": results,
        "layers": layers}, indent=1) + "\n")
    bad = [name for name, result in results.items()
           if result["failed"] or not result["counts_repeat"]]
    for name in bad:
        print(f"FAIL {name}: {results[name]['failed']} failed operation(s); "
              f"counts repeat: {results[name]['counts_repeat']}")
    return 1 if bad or drifted else 0


def verify_repeat(seed: int, seconds: float, reps: int, smoke: bool) -> int:
    """Two full sets back to back: per metric and workload the two
    values, their relative gap (positive = the second is worse) and the
    bound; fails when a gap exceeds its bound."""
    bounds = {m["name"]: m for m in contract()["end_to_end"]}
    first = collect(seed, seconds, reps, smoke)
    second = collect(seed, seconds, reps, smoke)
    failures = 0
    print(f"{'workload':<20}{'metric':<24}{'first':>12}{'second':>12}"
          f"{'gap':>9}{'bound':>8}")
    for name in first:
        for metric, entry in first[name]["metrics"].items():
            if metric not in bounds:
                continue  # reported, not gated
            a, b = entry["value"], second[name]["metrics"][metric]["value"]
            gap = (b - a) / a
            if bounds[metric]["better"] == "higher":
                gap = -gap
            verdict = "" if gap <= bounds[metric]["bound"] else "  EXCEEDED"
            failures += bool(verdict)
            print(f"{name:<20}{metric:<24}{a:>12.4f}{b:>12.4f}"
                  f"{gap:>+9.1%}{bounds[metric]['bound']:>8.0%}{verdict}")
        failures += first[name]["failed"] + second[name]["failed"]
    return 1 if failures else 0
