"""Experiment 2 (Figure 12): instance growth with the window size.

Reproduces the paper's second experiment, validating Theorems 2 and 3:
on the duplicated data sets D1..D5 (window size W growing linearly),

* P4 = ``(<{c,d,p},{b}>, Θ2, 264)`` — no group variable — shows a
  *linear* trend of the maximal simultaneous instance count in W
  (Theorem 2: the per-start bound |V1|! is a constant, so only the
  number of starts per window grows);
* P3 = ``(<{c,d,p+},{b}>, Θ2, 264)`` — one group variable — shows a
  *polynomial* (superlinear) trend (Theorem 3).
"""

import pytest

import repro
from repro.bench import print_experiment2, run_experiment2
from repro.complexity import pattern_instance_bound
from repro.data import pattern_p3, pattern_p4


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("which", ["P3", "P4"])
def test_scaling_run(benchmark, exp23_datasets, factor, which):
    """Time one (pattern, dataset) cell of Figure 12."""
    if factor not in exp23_datasets:
        pytest.skip("beyond profile's duplication budget")
    relation = exp23_datasets[factor]
    pattern = pattern_p3() if which == "P3" else pattern_p4()
    executor = repro.compile(pattern).executor(selection="accepted")
    result = benchmark.pedantic(executor.run, args=(relation,),
                                rounds=1, iterations=1)
    benchmark.extra_info["window"] = relation.window_size(264)
    benchmark.extra_info["max_instances"] = (
        result.stats.max_simultaneous_instances)


def test_figure12(exp23_base, profile, capsys):
    """Run the sweep, print Figure 12's series, assert the growth classes."""
    rows = run_experiment2(exp23_base, factors=profile.factors)
    with capsys.disabled():
        print_experiment2(rows)
    windows = [r["window"] for r in rows]
    p3 = [r["p3_instances"] for r in rows]
    p4 = [r["p4_instances"] for r in rows]

    assert windows == sorted(windows)
    assert p3 == sorted(p3), "P3 instances must grow with W"
    assert p4 == sorted(p4), "P4 instances must grow with W"

    # P4 (Theorem 2): linear — the per-window-event increment stays flat.
    # Compare the growth of the last step to a linear extrapolation of the
    # first step; allow generous tolerance for workload noise.
    w_ratio = windows[-1] / windows[0]
    p4_ratio = p4[-1] / p4[0]
    assert p4_ratio <= 1.6 * w_ratio, "P4 should scale (sub-)linearly in W"

    # P3 (Theorem 3): superlinear — grows strictly faster than P4.
    p3_ratio = p3[-1] / p3[0]
    assert p3_ratio > 1.5 * p4_ratio, "P3 must grow faster than P4"

    # Theorem soundness: measured counts never exceed the theoretical bound.
    for row, window in zip(rows, windows):
        assert row["p3_instances"] <= pattern_instance_bound(pattern_p3(), window)
        assert row["p4_instances"] <= pattern_instance_bound(pattern_p4(), window)
