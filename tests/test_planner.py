"""Tests for the cost-informed query planner."""

import pytest

from repro import SESPattern
from repro.data import base_dataset, pattern_p3
from repro.planner import plan_query, profile_relation

from conftest import match


@pytest.fixture(scope="module")
def relation():
    return base_dataset(patients=6, cycles=2)


class TestProfile:
    def test_measures_relation(self, q1, relation):
        profile = profile_relation(q1, relation)
        assert profile.events == len(relation)
        assert profile.window == relation.window_size(264)
        assert 0.0 <= profile.filter_selectivity <= 1.0
        assert profile.filter_selectivity > 0.5, \
            "lab events dominate the chemo relation"

    def test_selectivity_zero_without_constants(self, relation):
        pattern = SESPattern(sets=[["a", "b"]], tau=10)
        profile = profile_relation(pattern, relation)
        assert profile.filter_selectivity == 0.0

    def test_describe(self, q1, relation):
        text = profile_relation(q1, relation).describe()
        assert "events" in text and "W =" in text


class TestPlanDecisions:
    def test_filter_on_when_selective(self, q1, relation):
        plan = plan_query(q1, relation)
        assert plan.use_filter

    def test_filter_off_when_unselective(self, relation):
        pattern = SESPattern(sets=[["a", "b"]], tau=10)
        plan = plan_query(pattern, relation)
        assert not plan.use_filter
        assert plan.executor == "plain", \
            "the executor hoists event-only conditions itself"
        assert plan.execute(relation).matches == \
            match(pattern, relation, use_filter=False).matches

    def test_exact_mode_never_partitions(self, relation):
        plan = plan_query(pattern_p3(), relation, exact=True)
        assert plan.executor != "partitioned"
        assert any("exact" in r for r in plan.rationale)

    def test_relaxed_mode_partitions_heavy_patterns(self, relation):
        plan = plan_query(pattern_p3(), relation, exact=False)
        assert plan.executor == "partitioned"
        assert plan.partition_on == "ID"

    def test_relaxed_mode_skips_partitioning_for_light_patterns(self, q1,
                                                                relation):
        plan = plan_query(q1, relation, exact=False)
        # Q1 is mutually exclusive: tiny bound, partitioning not worth it.
        assert plan.executor == "plain"

    def test_warns_on_heavy_nonexclusive_patterns(self, relation):
        plan = plan_query(pattern_p3(), relation)
        assert any("warning" in r for r in plan.rationale)

    def test_complexity_attached(self, q1, relation):
        plan = plan_query(q1, relation)
        assert plan.complexity.window == relation.window_size(264)
        assert plan.complexity.mutually_exclusive


class TestPlanExecution:
    def test_plain_plan_matches_direct_match(self, q1, relation):
        plan = plan_query(q1, relation)
        assert plan.execute(relation).matches == match(q1, relation).matches

    def test_plan_matches_direct_match_under_its_filter_choice(self,
                                                               relation):
        pattern = SESPattern(
            sets=[["c", "d"], ["b"]],
            conditions=["c.L = 'C'", "d.L = 'D'", "b.L = 'B'"],
            tau=264,
        )
        plan = plan_query(pattern, relation)
        direct = match(pattern, relation, use_filter=plan.use_filter)
        assert plan.execute(relation).matches == direct.matches

    def test_partitioned_plan_runs(self, relation):
        plan = plan_query(pattern_p3(), relation, exact=False)
        result = plan.execute(relation)
        assert len(result) > 0
        # Superset recall: at least everything the plain engine reports.
        plain = match(pattern_p3(), relation)
        assert len(result) >= len(plain)

    def test_selection_forwarded(self, q1, relation):
        plan = plan_query(q1, relation, selection="accepted")
        result = plan.execute(relation)
        assert len(result.matches) == len(result.accepted)


class TestExplain:
    def test_explain_mentions_decisions(self, q1, relation):
        text = plan_query(q1, relation).explain()
        assert "executor: plain" in text
        assert "event filter: on" in text
        assert "rationale:" in text
        assert "Theorem 1" in text

    def test_explain_partitioned(self, relation):
        text = plan_query(pattern_p3(), relation, exact=False).explain()
        assert "partitioned on 'ID'" in text
