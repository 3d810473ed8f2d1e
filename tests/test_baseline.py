"""Tests for the brute force baseline (Section 5.2) and the naive oracle."""

import math

import pytest

from repro import PatternError, SESPattern
from repro.baseline import (BruteForceMatcher, NaiveMatcher, brute_force_match,
                            enumerate_sequences, naive_match, sequence_count,
                            sequence_pattern)

from conftest import eids, ev, match


SINGLETON_Q1 = SESPattern(
    sets=[["c", "p", "d"], ["b"]],
    conditions=["c.L = 'C'", "d.L = 'D'", "p.L = 'P'", "b.L = 'B'",
                "c.ID = p.ID", "c.ID = d.ID", "d.ID = b.ID"],
    tau=264,
)


class TestSequences:
    def test_sequence_count_example11(self):
        """(<{c,p,d},{b}>) has 3!·1! = 6 sequences (paper Example 11)."""
        assert sequence_count(SINGLETON_Q1) == 6

    def test_sequence_count_multi_set(self):
        p = SESPattern(sets=[["a", "b"], ["c", "d"]], tau=1)
        assert sequence_count(p) == 4

    def test_enumerate_sequences_matches_figure10b(self):
        sequences = {tuple(v.name for v in s)
                     for s in enumerate_sequences(SINGLETON_Q1)}
        assert sequences == {
            ("c", "d", "p", "b"), ("c", "p", "d", "b"),
            ("d", "c", "p", "b"), ("d", "p", "c", "b"),
            ("p", "c", "d", "b"), ("p", "d", "c", "b"),
        }

    def test_sequences_end_with_second_set(self):
        for s in enumerate_sequences(SINGLETON_Q1):
            assert s[-1].name == "b"

    def test_sequence_pattern_all_singleton_sets(self):
        seq = next(enumerate_sequences(SINGLETON_Q1))
        p = sequence_pattern(SINGLETON_Q1, seq)
        assert len(p) == 4
        assert all(len(vs) == 1 for vs in p.sets)
        assert p.tau == 264
        assert set(p.conditions) == set(SINGLETON_Q1.conditions)

    def test_factorial_growth(self):
        for n in range(2, 7):
            names = [chr(ord("a") + i) for i in range(n)]
            p = SESPattern(sets=[names], tau=1)
            assert sequence_count(p) == math.factorial(n)


class TestBruteForce:
    def test_same_matches_as_ses(self, figure1):
        ses = match(SINGLETON_Q1, figure1)
        bf = brute_force_match(SINGLETON_Q1, figure1)
        assert ses.matches == bf.matches

    def test_automaton_count(self):
        assert BruteForceMatcher(SINGLETON_Q1).automaton_count == 6

    def test_group_variables_rejected_by_default(self, q1):
        with pytest.raises(PatternError):
            BruteForceMatcher(q1)

    def test_group_variables_opt_in(self, q1, figure1):
        bf = BruteForceMatcher(q1, allow_group=True)
        result = bf.run(figure1)
        # The consecutive-bindings approximation still finds patient 1
        # (p bindings e4, e9 are consecutive among patient-1 events it can
        # reach) — we only require the run not to crash and to return a
        # subset of the SES results or fewer.
        assert result.stats.events_read == 14

    def test_more_instances_than_ses(self, figure1):
        ses = match(SINGLETON_Q1, figure1, use_filter=False)
        bf = brute_force_match(SINGLETON_Q1, figure1)
        assert (bf.stats.max_simultaneous_instances
                > ses.stats.max_simultaneous_instances)

    def test_filter_supported(self, figure1):
        bf = BruteForceMatcher(SINGLETON_Q1, use_filter=True)
        result = bf.run(figure1)
        assert result.matches == match(SINGLETON_Q1, figure1).matches

    def test_selection_accepted(self, figure1):
        bf = BruteForceMatcher(SINGLETON_Q1, selection="accepted")
        result = bf.run(figure1)
        assert len(result.matches) == len(result.accepted)

    def test_repr(self):
        assert "6 automata" in repr(BruteForceMatcher(SINGLETON_Q1))


class TestNaive:
    def test_matches_paper_results(self, q1, figure1):
        matches = naive_match(q1, figure1)
        assert [eids(m) for m in matches] == [
            frozenset({"e1", "e3", "e4", "e9", "e12"}),
            frozenset({"e6", "e7", "e8", "e10", "e11", "e13"}),
        ]

    def test_matcher_class(self, q1, figure1):
        matcher = NaiveMatcher(q1)
        assert matcher.run(figure1) == naive_match(q1, figure1)

    def test_overlap_allow(self, q1, figure1):
        assert len(naive_match(q1, figure1, overlap="allow")) == 3

    def test_agrees_with_automaton_on_simple_inputs(self, kind_pattern):
        events = [ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "A"),
                  ev(5, "B"), ev(6, "C")]
        assert (naive_match(kind_pattern, events)
                == match(kind_pattern, events).matches)


class TestSequenceRewritingLimitations:
    """Documented limitations of the Section 5.2 rewriting."""

    def test_simultaneous_events_missed(self):
        """The sequence rewriting imposes a strict order between all
        variables, so it cannot match events of one set that share a
        timestamp — the SES automaton can (order within a set is free)."""
        from repro import EventRelation, SESPattern

        pattern = SESPattern(
            sets=[["x", "y"], ["z"]],
            conditions=["x.kind = 'A'", "y.kind = 'B'", "z.kind = 'C'"],
            tau=30,
        )
        tied = EventRelation([ev(1, "A"), ev(1, "B"), ev(2, "C")])
        ses = match(pattern, tied)
        bf = BruteForceMatcher(pattern).run(tied)
        assert len(ses.matches) == 1, "SES matches the simultaneous pair"
        assert bf.matches == [], "the rewriting cannot express the tie"
