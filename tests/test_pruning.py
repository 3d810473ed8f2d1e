"""Tests for C-CEP-style deadline pruning."""

import pytest

from repro import SESPattern
from repro.automaton.builder import build_automaton
from repro.automaton.pruning import DeadlineTable, PruningExecutor
from repro.automaton.states import make_state
from repro.data import base_dataset, figure1_relation, query_q1

from conftest import ev, match


@pytest.fixture
def three_phase():
    return SESPattern(
        sets=[["a"], ["b"], ["c"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'"],
        tau=10,
    )


class TestDeadlineTable:
    def test_boundaries_per_state(self, three_phase):
        automaton = build_automaton(three_phase)
        table = DeadlineTable(three_phase, automaton)
        a = three_phase.variable("a")
        b = three_phase.variable("b")
        c = three_phase.variable("c")
        assert table.min_remaining_time(make_state()) == 2
        assert table.min_remaining_time(make_state([a])) == 2
        assert table.min_remaining_time(make_state([a, b])) == 1
        assert table.min_remaining_time(make_state([a, b, c])) == 0

    def test_within_set_variables_cost_nothing(self, q1):
        automaton = build_automaton(q1)
        table = DeadlineTable(q1, automaton)
        c = q1.variable("c")
        # At state {c}: d and p+ can still bind at the same timestamp;
        # only the V2 boundary remains.
        assert table.min_remaining_time(make_state([c])) == 1

    def test_tick_scaling(self, three_phase):
        automaton = build_automaton(three_phase)
        table = DeadlineTable(three_phase, automaton, tick=5)
        assert table.min_remaining_time(make_state()) == 10

    def test_zero_tick_disables_lookahead(self, three_phase):
        automaton = build_automaton(three_phase)
        table = DeadlineTable(three_phase, automaton, tick=0)
        assert table.min_remaining_time(make_state()) == 0

    def test_negative_tick_rejected(self, three_phase):
        automaton = build_automaton(three_phase)
        with pytest.raises(ValueError):
            DeadlineTable(three_phase, automaton, tick=-1)


class TestPruningExecutor:
    def run_both(self, pattern, events):
        automaton = build_automaton(pattern)
        plain = match(pattern, events, use_filter=False, selection="accepted")
        pruning = PruningExecutor(pattern, automaton,
                                  selection="accepted").run(events)
        return plain, pruning

    def test_accepted_buffers_unchanged(self, three_phase):
        events = [ev(0, "A"), ev(4, "B"), ev(8, "C"),
                  ev(20, "A"), ev(29, "B"), ev(31, "C")]
        plain, pruning = self.run_both(three_phase, events)
        assert sorted(map(hash, plain.accepted)) == \
            sorted(map(hash, pruning.accepted))

    def test_prunes_doomed_instances(self, three_phase):
        # a@0 binds; b@10 arrives at the window edge: binding b leaves the
        # c-boundary needing ts >= 11 > 0 + 10 -> the successor is doomed.
        events = [ev(0, "A"), ev(10, "B"), ev(11, "C")]
        automaton = build_automaton(three_phase)
        executor = PruningExecutor(three_phase, automaton,
                                   selection="accepted")
        result = executor.run(events)
        assert executor.pruned_instances > 0
        assert result.accepted == []

    def test_never_more_instances_than_plain(self, q1):
        relation = base_dataset(patients=4, cycles=2)
        plain = match(q1, relation, use_filter=False, selection="accepted")
        executor = PruningExecutor(q1, build_automaton(q1),
                                   selection="accepted")
        pruned = executor.run(relation)
        assert (pruned.stats.max_simultaneous_instances
                <= plain.stats.max_simultaneous_instances)
        assert sorted(map(hash, plain.accepted)) == \
            sorted(map(hash, pruned.accepted))

    def test_matches_on_paper_example(self, q1, figure1):
        executor = PruningExecutor(q1, build_automaton(q1))
        assert executor.run(figure1).matches == match(q1, figure1).matches

    def test_reset_clears_prune_counter(self, three_phase):
        automaton = build_automaton(three_phase)
        executor = PruningExecutor(three_phase, automaton)
        executor.run([ev(0, "A"), ev(10, "B"), ev(11, "C")])
        assert executor.pruned_instances > 0
        executor.reset()
        assert executor.pruned_instances == 0
