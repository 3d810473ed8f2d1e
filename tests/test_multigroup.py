"""Tests for patterns with several group variables (Theorem 3, k > 1).

The evaluation never runs a multi-group pattern, but the complexity
analysis covers it (case 3 with k > 1) and the construction/execution
machinery must handle multiple loops per state.
"""

import pytest

from repro import EventRelation, SESPattern
from repro.automaton.builder import build_automaton
from repro.baseline import naive_match
from repro.complexity import (ComplexityCase, classify_set,
                              pattern_instance_bound)

from conftest import eids, ev, match


@pytest.fixture
def two_groups():
    """<{p+, q+}, {b}> with distinguishable types."""
    return SESPattern(
        sets=[["p+", "q+"], ["b"]],
        conditions=["p.kind = 'P'", "q.kind = 'Q'", "b.kind = 'B'"],
        tau=50,
    )


@pytest.fixture
def same_type_groups():
    """<{p+, q+}> where both groups match the same events (k=2 worst case)."""
    return SESPattern(
        sets=[["p+", "q+"]],
        conditions=["p.kind = 'M'", "q.kind = 'M'"],
        tau=50,
    )


class TestConstruction:
    def test_loops_for_both_groups(self, two_groups):
        automaton = build_automaton(two_groups)
        p = two_groups.variable("p")
        q = two_groups.variable("q")
        loop_vars_at_pq = {t.variable
                           for t in automaton.loops_at(frozenset({p, q}))}
        assert loop_vars_at_pq == {p, q}

    def test_classified_as_multi_group(self, same_type_groups):
        assert (classify_set(same_type_groups, 0)
                is ComplexityCase.MULTI_GROUP)

    def test_exclusive_groups_are_case1(self, two_groups):
        assert (classify_set(two_groups, 0)
                is ComplexityCase.MUTUALLY_EXCLUSIVE)


class TestMatching:
    def test_interleaved_groups(self, two_groups):
        events = [ev(1, "P"), ev(2, "Q"), ev(3, "P"), ev(4, "Q"), ev(5, "B")]
        result = match(two_groups, events)
        assert [eids(m) for m in result] == [
            frozenset({"p1", "q2", "p3", "q4", "b5"})
        ]

    def test_each_group_needs_at_least_one(self, two_groups):
        only_p = [ev(1, "P"), ev(2, "P"), ev(3, "B")]
        assert match(two_groups, only_p).matches == []

    def test_greedy_collects_both_groups(self, two_groups):
        events = [ev(1, "Q"), ev(2, "P"), ev(3, "Q"), ev(4, "B")]
        result = match(two_groups, events)
        assert len(result) == 1
        substitution = result.matches[0]
        q = two_groups.variable("q")
        assert len(substitution.events_of(q)) == 2

    def test_same_type_groups_split_events(self, same_type_groups):
        events = [ev(1, "M"), ev(2, "M")]
        result = match(same_type_groups, events, selection="all-starts")
        # Both role assignments are reported (x and y swapped).
        assert len(result) == 2
        for substitution in result:
            assert len(substitution) == 2

    def test_agrees_with_oracle(self, two_groups):
        events = [ev(1, "P"), ev(2, "Q"), ev(3, "X"), ev(4, "P"), ev(5, "B")]
        assert (match(two_groups, events).matches
                == naive_match(two_groups, events))

    def test_exhaustive_agrees_with_oracle_same_type(self, same_type_groups):
        events = [ev(1, "M"), ev(2, "M"), ev(3, "M")]
        assert (match(same_type_groups, events,
                      consume="exhaustive").matches
                == naive_match(same_type_groups, events))


class TestTheorem3K2:
    def test_bound_holds_empirically(self, same_type_groups):
        events = EventRelation([ev(t, "M") for t in range(8)])
        result = match(same_type_groups, events, use_filter=False,
                       selection="accepted")
        window = events.window_size(same_type_groups.tau)
        bound = pattern_instance_bound(same_type_groups, window)
        assert result.stats.max_simultaneous_instances <= bound

    def test_multi_group_grows_faster_than_single_group(self):
        single = SESPattern(sets=[["x", "p+"]],
                            conditions=["x.kind = 'M'", "p.kind = 'M'"],
                            tau=50)
        double = SESPattern(sets=[["q+", "p+"]],
                            conditions=["q.kind = 'M'", "p.kind = 'M'"],
                            tau=50)
        events = [ev(t, "M") for t in range(10)]
        single_result = match(single, events, use_filter=False,
                              selection="accepted")
        double_result = match(double, events, use_filter=False,
                              selection="accepted")
        assert (double_result.stats.max_simultaneous_instances
                > single_result.stats.max_simultaneous_instances)


class TestMatchResultHelpers:
    def test_to_rows(self, two_groups):
        events = [ev(1, "P"), ev(2, "Q"), ev(3, "B")]
        rows = match(two_groups, events).to_rows()
        assert rows == [{
            "start": 1, "end": 3,
            "p+": ["p1"], "q+": ["q2"], "b": ["b3"],
        }]

    def test_repr(self, two_groups):
        result = match(two_groups, [ev(1, "P"), ev(2, "Q"), ev(3, "B")])
        assert "1 matches" in repr(result)
