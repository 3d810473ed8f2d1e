"""Tests for event pre-filtering (Section 4.5)."""

import json

import pytest

import repro
from repro import Event, SESPattern
from repro.explain import explain

from conftest import ev, match


def event_filter(pattern, mode="conjunctive"):
    """What an executor is handed: the plan's prefilter."""
    return repro.compile(pattern).prefilter(mode)


class TestPaperMode:
    def test_passes_events_satisfying_some_constant_condition(self, q1):
        f = event_filter(q1, mode="paper")
        assert f.is_effective
        assert f.admits(Event(ts=1, L="C", ID=1))
        assert f.admits(Event(ts=1, L="B", ID=1))

    def test_drops_irrelevant_events(self, q1):
        f = event_filter(q1, mode="paper")
        assert not f.admits(Event(ts=1, L="Z", ID=1))

    def test_disables_itself_with_unconstrained_variable(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'"], tau=10)
        f = event_filter(pattern, mode="paper")
        assert not f.is_effective
        assert f.admits(Event(ts=1, kind="ZZZ"))


class TestConjunctiveMode:
    def test_default_mode(self, q1):
        assert repro.compile(q1).prefilter().mode == "conjunctive"

    def test_passes_variable_satisfying_all_its_conditions(self, q1):
        f = event_filter(q1)
        assert f.admits(Event(ts=1, L="P", ID=1))
        assert not f.admits(Event(ts=1, L="Z", ID=1))

    def test_sound_with_unconstrained_variable(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'"], tau=10)
        f = event_filter(pattern)
        assert not f.is_effective, "it passes every event"
        assert "pass-through" in repr(f)
        assert f.admits(Event(ts=1, kind="ZZZ")), \
            "b has no constant conditions, so any event may bind to it"
        report = json.loads(explain(pattern).to_json())
        assert report["prefilter"]["conjunctive"]["effective"] is False

    def test_stronger_than_paper_mode(self):
        # Variable with two constant conditions: kind and level.
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.kind = 'A'", "a.level > 5"],
            tau=10,
        )
        conj = event_filter(pattern, mode="conjunctive")
        paper = event_filter(pattern, mode="paper")
        half_matching = Event(ts=1, kind="A", level=1)
        assert paper.admits(half_matching), "satisfies at least one condition"
        assert not conj.admits(half_matching), "fails the conjunction for a"

    def test_missing_attribute_fails_condition(self, q1):
        f = event_filter(q1)
        assert not f.admits(Event(ts=1, other="x"))


class TestFilterNeutrality:
    """Filtering must not change the match set (paper Section 4.5)."""

    @pytest.mark.parametrize("mode", ["paper", "conjunctive"])
    def test_same_matches_with_and_without_filter(self, q1, figure1, mode):
        unfiltered = match(q1, figure1, use_filter=False)
        filtered = match(q1, figure1, use_filter=True, filter_mode=mode)
        assert unfiltered.matches == filtered.matches

    def test_filter_reduces_processed_events(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=100)
        noisy = [ev(t, "X") for t in range(0, 50, 2)]
        noisy += [ev(1, "A"), ev(3, "B")]
        unfiltered = match(pattern, sorted(noisy, key=lambda e: e.ts),
                           use_filter=False)
        filtered = match(pattern, sorted(noisy, key=lambda e: e.ts))
        assert filtered.matches == unfiltered.matches
        assert filtered.stats.events_filtered == 25
        assert filtered.stats.events_processed == 2

    def test_invalid_mode(self, q1):
        with pytest.raises(ValueError):
            event_filter(q1, mode="bogus")

    def test_repr(self, q1):
        assert "conjunctive" in repr(event_filter(q1))
