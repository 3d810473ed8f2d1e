"""Experiment 3 (Figure 13): effect of event filtering on runtime.

Reproduces the paper's third experiment: execution time of

* P5 = ``(<{c,d,p+},{b}>, Θ1, 264)`` — mutually exclusive conditions;
* P6 = ``(<{c,d,p+},{b}>, Θ2, 264)`` — same-type conditions;

on D1..D5, with and without the Section 4.5 pre-filter.  The paper
reports an order-of-magnitude speedup on the hospital data set (where
the vast majority of events are irrelevant to the pattern); the synthetic
relation's irrelevant-event fraction is lower, so the expected shape here
is a consistent multi-× speedup for both patterns at every window size,
growing with the irrelevant fraction (see EXPERIMENTS.md).
"""

import pytest

import repro
from repro.bench import print_experiment3, run_experiment3
from repro.data import pattern_p5, pattern_p6


@pytest.mark.parametrize("factor", [1, 2, 3])
@pytest.mark.parametrize("which", ["P5", "P6"])
@pytest.mark.parametrize("filtered", [False, True], ids=["wo-filter", "with-filter"])
def test_filtering_run(benchmark, exp23_datasets, factor, which, filtered):
    """Time one (pattern, dataset, filter) cell of Figure 13."""
    if factor not in exp23_datasets:
        pytest.skip("beyond profile's duplication budget")
    relation = exp23_datasets[factor]
    pattern = pattern_p5() if which == "P5" else pattern_p6()
    executor = repro.compile(pattern).executor(
        use_filter=filtered, filter_mode="paper", selection="accepted")
    result = benchmark.pedantic(executor.run, args=(relation,),
                                rounds=1, iterations=1)
    benchmark.extra_info["events_filtered"] = result.stats.events_filtered


def test_figure13(exp23_base, profile, capsys):
    """Run the sweep, print Figure 13's series, assert the speedups."""
    rows = run_experiment3(exp23_base, factors=profile.factors)
    with capsys.disabled():
        print_experiment3(rows)
    for row in rows:
        assert row["p5_speedup"] > 1.3, (
            f"filtering must speed up P5 on {row['dataset']}")
        assert row["p6_speedup"] > 1.3, (
            f"filtering must speed up P6 on {row['dataset']}")
        assert row["p5_filtered_events"] > 0
        assert row["p6_filtered_events"] > 0


def test_filtering_does_not_change_matches(exp23_base):
    """Section 4.5: the filter changes iteration counts, not results."""
    pattern = pattern_p6()
    plan = repro.compile(pattern)
    with_filter = plan.match(exp23_base, use_filter=True,
                             selection="accepted")
    without = plan.match(exp23_base, use_filter=False, selection="accepted")
    assert sorted(map(hash, with_filter.accepted)) == \
        sorted(map(hash, without.accepted))
    assert (with_filter.stats.max_simultaneous_instances
            == without.stats.max_simultaneous_instances)
