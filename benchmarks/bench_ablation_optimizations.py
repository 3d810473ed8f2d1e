"""Ablation X2: partitioned execution.

The paper's future work points to runtime optimizations, including
indexing techniques for automaton instances [11].  The state-indexed
trick (event-only conditions decided once per (state, event)) is part
of the one executor, so this bench compares

* the Algorithm 1 executor and
* partitioned execution on the patient attribute,

on the group-variable pattern P3, with and without the pre-filter.
Expected shape: the pre-filter still pays (it skips the whole instance
loop for irrelevant events, where hoisting only skips their condition
checks); partitioning wins by a large margin because per-patient
instance populations are small.  Note partitioned execution accepts a
*superset* of Algorithm 1's buffers (it is immune to cross-partition
greedy hijacking; see repro.automaton.optimizations).
"""

import pytest

import repro
from repro.automaton.builder import build_automaton
from repro.automaton.executor import SESExecutor
from repro.data import pattern_p3


@pytest.mark.parametrize("filtered", [False, True], ids=["wo-filter", "with-filter"])
class TestExecutorVariants:
    def _filter(self, filtered):
        return (repro.compile(pattern_p3()).prefilter()
                if filtered else None)

    def test_plain(self, benchmark, exp23_base, filtered):
        automaton = build_automaton(pattern_p3())
        executor = SESExecutor(automaton, event_filter=self._filter(filtered),
                               selection="accepted")
        result = benchmark.pedantic(executor.run, args=(exp23_base,),
                                    rounds=1, iterations=1)
        benchmark.extra_info["max_instances"] = (
            result.stats.max_simultaneous_instances)

    def test_partitioned(self, benchmark, exp23_base, filtered):
        plan = repro.compile(pattern_p3())
        result = benchmark.pedantic(
            plan.match, args=(exp23_base,),
            kwargs={"partition_by": "ID", "use_filter": filtered,
                    "selection": "accepted"},
            rounds=1, iterations=1)
        benchmark.extra_info["max_instances"] = (
            result.stats.max_simultaneous_instances)


def test_equivalences(exp23_base):
    """Partitioned execution accepts a superset on a smaller Ω."""
    automaton = build_automaton(pattern_p3())
    plain = SESExecutor(automaton, selection="accepted").run(exp23_base)
    partitioned = repro.compile(pattern_p3()).match(
        exp23_base, partition_by="ID", selection="accepted")
    assert set(plain.accepted) <= set(partitioned.accepted)
    assert (partitioned.stats.max_simultaneous_instances
            < plain.stats.max_simultaneous_instances)
