"""Ablation X7: C-CEP-style deadline pruning.

Compares the plain Algorithm 1 executor against
:class:`~repro.automaton.pruning.PruningExecutor`, which drops instances
that provably cannot complete before their window closes (temporal
unsatisfiability, after the C-CEP idea in the paper's related work).
Expected shape: identical accepted buffers, a measurable number of
pruned instances on multi-phase patterns, and a peak Ω never above the
plain executor's.
"""

import pytest

import repro
from repro import SESPattern
from repro.automaton.builder import build_automaton
from repro.automaton.executor import SESExecutor
from repro.automaton.pruning import PruningExecutor
from repro.data import base_dataset, query_q1

#: A three-phase pattern with a tight window: pruning-friendly.
TIGHT = SESPattern(
    sets=[["c"], ["p+"], ["b"]],
    conditions=["c.L = 'C'", "p.L = 'P'", "b.L = 'B'",
                "c.ID = p.ID", "c.ID = b.ID", "p.ID = b.ID"],
    tau=120,
)


@pytest.fixture(scope="module")
def relation():
    return base_dataset(patients=8, cycles=2)


@pytest.mark.parametrize("variant", ["plain", "pruning"])
@pytest.mark.parametrize("which", ["q1", "tight"])
def test_pruning_runtime(benchmark, relation, variant, which):
    pattern = query_q1() if which == "q1" else TIGHT
    automaton = build_automaton(pattern)
    event_filter = repro.compile(pattern).prefilter()
    if variant == "plain":
        executor = SESExecutor(automaton, event_filter=event_filter,
                               selection="accepted")
    else:
        executor = PruningExecutor(pattern, automaton,
                                   event_filter=event_filter,
                                   selection="accepted")
    result = benchmark.pedantic(executor.run, args=(relation,),
                                rounds=1, iterations=1)
    benchmark.extra_info["max_instances"] = (
        result.stats.max_simultaneous_instances)
    if variant == "pruning":
        benchmark.extra_info["pruned"] = executor.pruned_instances


def test_pruning_invariants(relation, capsys):
    """Same accepted buffers; never a larger population; prunes something."""
    automaton = build_automaton(TIGHT)
    plain = SESExecutor(automaton, selection="accepted").run(relation)
    executor = PruningExecutor(TIGHT, automaton, selection="accepted")
    pruned = executor.run(relation)
    assert sorted(map(hash, plain.accepted)) == \
        sorted(map(hash, pruned.accepted))
    assert (pruned.stats.max_simultaneous_instances
            <= plain.stats.max_simultaneous_instances)
    with capsys.disabled():
        print(f"\npruned {executor.pruned_instances} doomed instances; "
              f"peak Ω {plain.stats.max_simultaneous_instances} -> "
              f"{pruned.stats.max_simultaneous_instances}")
