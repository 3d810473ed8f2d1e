"""Ablation X5: greedy (Algorithm 2) vs exhaustive (Definition 2) matching.

Quantifies the price of declarative exactness: the exhaustive mode keeps
the pre-consumption instance alive at every step (skip-till-any-match),
so its instance population — and with it runtime — grows much faster
than greedy's.  Expected shape: identical match sets on patterns whose
equality joins are pairwise closed — Query Q1 after
``close_equality_joins``; as published its ``c–p, c–d, d–b`` chain lets
another patient's event hijack a greedy instance (EXPERIMENTS.md), so
greedy selects a subset there — with a multi-× instance and time
overhead that widens with the window size.
"""

import pytest

import repro
from repro.core.rewrite import close_equality_joins
from repro.data import base_dataset, query_q1


@pytest.fixture(scope="module")
def relation():
    return base_dataset(patients=6, cycles=2)


@pytest.fixture(scope="module")
def q1_runs(relation):
    """Query Q1 as published under (greedy, exhaustive); the exhaustive
    run takes tens of seconds, so the tests share it."""
    plan = repro.compile(query_q1())
    return plan.match(relation), plan.match(relation, consume="exhaustive")


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_mode_runtime(benchmark, relation, mode):
    """Time Query Q1 under each consumption mode."""
    executor = repro.compile(query_q1()).executor(selection="accepted",
                                                  consume=mode)
    result = benchmark.pedantic(executor.run, args=(relation,),
                                rounds=1, iterations=1)
    benchmark.extra_info["max_instances"] = (
        result.stats.max_simultaneous_instances)
    benchmark.extra_info["accepted"] = len(result.accepted)


def test_exactness_price(q1_runs, capsys):
    """Exhaustive explores a superset at a measurable instance cost."""
    greedy, exhaustive = q1_runs
    assert set(greedy.accepted) <= set(exhaustive.accepted)
    assert (exhaustive.stats.max_simultaneous_instances
            >= greedy.stats.max_simultaneous_instances)
    with capsys.disabled():
        print(f"\ngreedy maxΩ={greedy.stats.max_simultaneous_instances} "
              f"exhaustive maxΩ={exhaustive.stats.max_simultaneous_instances} "
              f"({exhaustive.stats.max_simultaneous_instances / max(1, greedy.stats.max_simultaneous_instances):.1f}x)")


def test_same_selected_matches_on_q1(relation, q1_runs):
    """With its joins closed, Q1 selects the same matches in both modes;
    as published, greedy selects a subset of what exhaustive does."""
    closed = repro.compile(close_equality_joins(query_q1()))
    assert (closed.match(relation).matches
            == closed.match(relation, consume="exhaustive").matches)
    greedy, exhaustive = q1_runs
    assert set(greedy.matches) <= set(exhaustive.matches)
