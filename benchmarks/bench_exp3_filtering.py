"""Experiment 3 (Figure 13): effect of event filtering on runtime.

Reproduces the paper's third experiment: execution time of

* P5 = ``(<{c,d,p+},{b}>, Θ1, 264)`` — mutually exclusive conditions;
* P6 = ``(<{c,d,p+},{b}>, Θ2, 264)`` — same-type conditions;

on D1..D5, with and without the Section 4.5 pre-filter.  The paper
reports an order-of-magnitude speedup on the hospital data set (where
the vast majority of events are irrelevant to the pattern).  What the
filter saves there is the instance loop's work on events no transition
can consume — and that is what :func:`test_figure13` asserts, as counts:
fewer events reach the loop, fewer event-only conditions are evaluated,
and nothing else changes (same transitions fired, same accepted set).
The wall-clock ratio is printed, not gated: this executor classifies an
event once and leaves every state without an enabled transition
untouched, so an irrelevant event costs it about what the filter's own
test costs, and the ratio reads ~1x on the synthetic relation
(EXPERIMENTS.md).
"""

import pytest

import repro
from repro.bench import print_experiment3, run_experiment3
from repro.data import pattern_p5, pattern_p6
from repro.explain import explain_analyze


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


def _counts(pattern, relation, filtered):
    """Deterministic work counters of one Figure-13 cell, from a
    counting shadow of the plan's automaton (EXPLAIN ANALYZE)."""
    analysis = explain_analyze(
        pattern, relation, use_filter=filtered, filter_mode="paper",
        selection="accepted", record_stats=False).analysis
    constants = {repr(c) for c in pattern.conditions if c.is_constant}
    return {
        "events": analysis["events"],
        "filtered": analysis["events_filtered"],
        "reached_step": analysis["events_processed"],
        "event_only_evaluations": sum(
            condition["evaluations"]
            for transition in analysis["transitions"]
            for condition in transition["conditions"]
            if condition["condition"] in constants),
        "transitions_fired": analysis["transitions_fired"],
        "accepted_buffers": analysis["accepted_buffers"],
    }


def test_figure13(exp23_base, exp23_datasets, profile, capsys):
    """Figure 13's shape, on counts: the filter keeps irrelevant events
    out of the instance loop and changes nothing else.  The timings are
    printed for information."""
    rows = run_experiment3(exp23_base, factors=profile.factors)
    with capsys.disabled():
        print_experiment3(rows)
    for factor, relation in exp23_datasets.items():
        for label, pattern in (("P5", pattern_p5()), ("P6", pattern_p6())):
            cell = f"{label} on D{factor}"
            without = _counts(pattern, relation, filtered=False)
            with_filter = _counts(pattern, relation, filtered=True)
            assert without["filtered"] == 0, cell
            assert without["reached_step"] == len(relation), cell
            assert with_filter["filtered"] > 0, cell
            assert (with_filter["reached_step"]
                    == len(relation) - with_filter["filtered"]), cell
            assert (with_filter["event_only_evaluations"]
                    < without["event_only_evaluations"]), cell
            # A filtered event satisfies no variable's constant
            # conditions: it could not have fired anything.
            for counter in ("transitions_fired", "accepted_buffers"):
                assert with_filter[counter] == without[counter], cell
            plan = repro.compile(pattern)
            accepted = [
                plan.match(relation, use_filter=filtered,
                           filter_mode="paper", selection="accepted").accepted
                for filtered in (False, True)]
            assert sorted(map(hash, accepted[0])) == \
                sorted(map(hash, accepted[1])), cell
            assert len(accepted[0]) == without["accepted_buffers"], cell


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
