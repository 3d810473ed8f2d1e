"""Tests for the greedy vs exhaustive consumption modes."""

import pytest
from hypothesis import given, settings

from repro import EventRelation, SESPattern
from repro.automaton.builder import build_automaton
from repro.automaton.executor import SESExecutor
from repro.baseline import naive_match

from conftest import eids, ev, match
from test_property import simple_patterns, typed_relations


class TestModeSelection:
    def test_default_is_greedy(self, q1):
        assert SESExecutor(build_automaton(q1)).consume_mode == "greedy"

    def test_invalid_mode_rejected(self, q1):
        with pytest.raises(ValueError):
            SESExecutor(build_automaton(q1), consume_mode="bogus")

    def test_match_forwards_mode(self, q1, figure1):
        result = match(q1, figure1, consume="exhaustive")
        assert len(result) == 2


class TestExhaustiveClosesTheGaps:
    def test_group_loop_divergence_closed(self):
        """The greedy loop-hijack case of test_integration: exhaustive
        mode recovers the Definition 2 match."""
        pattern = SESPattern(sets=[["u+"], ["v"]],
                             conditions=["u.kind = 'A'", "v.kind = 'B'"],
                             tau=1)
        relation = EventRelation([ev(0, "A", eid="a0"),
                                  ev(1, "A", eid="a1"),
                                  ev(1, "B", eid="b1")])
        greedy = match(pattern, relation).matches
        exhaustive = match(pattern, relation, consume="exhaustive").matches
        assert greedy == []
        assert [eids(m) for m in exhaustive] == [frozenset({"a0", "b1"})]
        assert exhaustive == naive_match(pattern, relation)

    def test_join_hijack_divergence_closed(self):
        pattern = SESPattern(
            sets=[["a", "b", "m"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "m.kind = 'M'",
                        "c.kind = 'C'",
                        "a.tag = m.tag", "m.tag = b.tag", "b.tag = c.tag"],
            tau=100,
        )
        relation = EventRelation([
            ev(1, "A", eid="aX", tag="X"),
            ev(2, "B", eid="bY", tag="Y"),
            ev(3, "B", eid="bX", tag="X"),
            ev(4, "M", eid="mX", tag="X"),
            ev(5, "C", eid="cX", tag="X"),
        ])
        intended = frozenset({"aX", "bX", "mX", "cX"})
        assert intended not in [eids(m) for m in match(pattern, relation)]
        exhaustive = match(pattern, relation, consume="exhaustive")
        assert intended in [eids(m) for m in exhaustive]
        assert exhaustive.matches == naive_match(pattern, relation)

    def test_paper_example_unchanged(self, q1, figure1):
        """On the running example the modes coincide."""
        assert (match(q1, figure1).matches
                == match(q1, figure1, consume="exhaustive").matches)


class TestExhaustiveCost:
    def test_more_instances_than_greedy(self, q1):
        from repro.data import base_dataset
        relation = base_dataset(patients=3, cycles=1)
        greedy = match(q1, relation, selection="accepted")
        exhaustive = match(q1, relation, selection="accepted",
                           consume="exhaustive")
        assert (exhaustive.stats.max_simultaneous_instances
                >= greedy.stats.max_simultaneous_instances)
        assert set(greedy.accepted) <= set(exhaustive.accepted)


class TestExhaustiveEqualsOracle:
    @given(pattern=simple_patterns(), relation=typed_relations(max_events=8))
    @settings(max_examples=50, deadline=None)
    def test_property_join_free(self, pattern, relation):
        """Exhaustive mode == Definition 2 on join-free patterns,
        including group variables (which break greedy equivalence)."""
        exhaustive = match(pattern, relation, consume="exhaustive").matches
        assert exhaustive == naive_match(pattern, relation)


class TestContiguousMode:
    PATTERN = SESPattern(
        sets=[["a"], ["b"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'"],
        tau=20,
    )

    def test_adjacent_events_match(self):
        events = [ev(1, "A"), ev(2, "B")]
        result = match(self.PATTERN, events, consume="contiguous")
        assert len(result) == 1

    def test_interrupted_run_ends(self):
        """An intervening relevant event breaks the run; the later pair
        still matches (a fresh instance starts at every event)."""
        events = [ev(1, "A"), ev(2, "A", eid="a2"), ev(3, "B")]
        result = match(self.PATTERN, events, consume="contiguous")
        assert [eids(m) for m in result] == [frozenset({"a2", "b3"})]

    def test_filtered_events_do_not_break_contiguity(self):
        """Contiguity is relative to events passing the Section 4.5
        filter — irrelevant events in between are invisible."""
        events = [ev(1, "A"), ev(2, "X"), ev(3, "B")]
        with_filter = match(self.PATTERN, events, consume="contiguous")
        without = match(self.PATTERN, events, consume="contiguous",
                        use_filter=False)
        assert len(with_filter) == 1
        assert without.matches == []

    def test_accepting_run_emits_on_break(self):
        group_pattern = SESPattern(sets=[["p+"]],
                                   conditions=["p.kind = 'P'"], tau=20)
        events = [ev(1, "P"), ev(2, "P"), ev(3, "P")]
        result = match(group_pattern, events, consume="contiguous",
                       use_filter=False)
        assert [eids(m) for m in result] == [frozenset({"p1", "p2", "p3"})]

    def test_accepting_run_emitted_when_interrupted(self):
        group_pattern = SESPattern(sets=[["p+"]],
                                   conditions=["p.kind = 'P'"], tau=20)
        events = [ev(1, "P"), ev(2, "P"), ev(3, "X"), ev(4, "P")]
        result = match(group_pattern, events, consume="contiguous",
                       use_filter=False)
        # Default selection suppresses the {p2} suffix run of {p1, p2}.
        assert [eids(m) for m in result] == [
            frozenset({"p1", "p2"}), frozenset({"p4"})
        ]
        all_starts = match(group_pattern, events, consume="contiguous",
                           use_filter=False, selection="all-starts")
        assert frozenset({"p2"}) in [eids(m) for m in all_starts]

    def test_subset_of_greedy_matches(self):
        events = [ev(1, "A"), ev(2, "A", eid="a2"), ev(3, "X"), ev(4, "B")]
        greedy = match(self.PATTERN, events, selection="accepted",
                       use_filter=False)
        contiguous = match(self.PATTERN, events, selection="accepted",
                           use_filter=False, consume="contiguous")
        assert set(contiguous.accepted) <= set(greedy.accepted)
