"""Ablation X6: streaming throughput.

Measures events/second through the continuous matchers — single pattern,
several independent patterns over one pass, and per-key partitioned —
over the synthetic chemotherapy stream.  Expected shape: partitioned
streaming sustains the highest rate on join-partitionable patterns
(small per-key populations); independent matchers cost roughly the sum
of their patterns (the registry's shared admission pass is measured in
bench_registry.py).
"""

import pytest

from repro.data import base_dataset, pattern_p3, query_q1
from repro.stream import ContinuousMatcher, PartitionedContinuousMatcher


@pytest.fixture(scope="module")
def relation():
    return base_dataset(patients=8, cycles=2)


def _drain(matcher, relation):
    matcher.push_many(relation)
    matcher.close()
    return matcher


def test_single_pattern_stream(benchmark, relation):
    matcher = benchmark.pedantic(
        lambda: _drain(ContinuousMatcher(query_q1()), relation),
        rounds=1, iterations=1)
    assert len(matcher.matches) > 0
    benchmark.extra_info["events"] = len(relation)
    benchmark.extra_info["matches"] = len(matcher.matches)


def test_partitioned_stream(benchmark, relation):
    # The partitioned matcher keeps no history: the answer is what
    # push_many and close return.
    matcher = PartitionedContinuousMatcher(query_q1())
    reported = benchmark.pedantic(
        lambda: matcher.push_many(relation) + matcher.close(),
        rounds=1, iterations=1)
    assert len(reported) > 0
    benchmark.extra_info["partitions"] = len(matcher.partitions)


def test_heavy_pattern_partitioned_stream(benchmark, relation):
    """P3 (group variable, non-exclusive) is where partitioning pays."""
    matcher = benchmark.pedantic(
        lambda: _drain(PartitionedContinuousMatcher(pattern_p3()), relation),
        rounds=1, iterations=1)
    benchmark.extra_info["active_end"] = matcher.active_instances


def test_multi_pattern_stream(benchmark, relation):
    def drain_all():
        matchers = {"q1": ContinuousMatcher(query_q1()),
                    "p3": ContinuousMatcher(pattern_p3())}
        for event in relation:
            for matcher in matchers.values():
                matcher.push(event)
        for matcher in matchers.values():
            matcher.close()
        return matchers

    matchers = benchmark.pedantic(drain_all, rounds=1, iterations=1)
    assert len(matchers["q1"].matches) > 0
