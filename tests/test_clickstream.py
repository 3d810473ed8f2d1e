"""Tests for the clickstream generator and the funnel pattern."""

import pytest

from repro.core.diagnostics import diagnose
from repro.data.clickstream import (ACTIONS, CLICK_SCHEMA,
                                    generate_clickstream,
                                    purchase_intent_pattern)

from conftest import match


class TestGenerator:
    def test_deterministic(self):
        a = generate_clickstream(users=3, sessions_per_user=2, seed=1)
        b = generate_clickstream(users=3, sessions_per_user=2, seed=1)
        assert a.events == b.events

    def test_schema_conforms(self):
        relation = generate_clickstream(users=2, sessions_per_user=1)
        for event in relation:
            CLICK_SCHEMA.validate(event.attributes)
            assert event["action"] in ACTIONS

    def test_time_ordered(self):
        relation = generate_clickstream(users=5, sessions_per_user=2)
        timestamps = [e.ts for e in relation]
        assert timestamps == sorted(timestamps)

    def test_user_population(self):
        relation = generate_clickstream(users=7, sessions_per_user=1,
                                        intent_fraction=1.0)
        assert sorted(relation.partition_by("user")) == list(range(1, 8))

    def test_intent_fraction_bounds(self):
        with pytest.raises(ValueError):
            generate_clickstream(intent_fraction=1.5)

    def test_zero_intent_no_checkouts_matched(self):
        relation = generate_clickstream(users=8, sessions_per_user=2,
                                        intent_fraction=0.0, seed=2)
        result = match(purchase_intent_pattern(), relation)
        assert result.matches == []

    def test_full_intent_every_user_converts(self):
        relation = generate_clickstream(users=6, sessions_per_user=1,
                                        intent_fraction=1.0, seed=4)
        result = match(purchase_intent_pattern(), relation)
        converting = {m.events()[0]["user"] for m in result}
        assert converting == set(range(1, 7))


class TestPattern:
    def test_lints_clean_of_join_warnings(self):
        findings = [d.code for d in diagnose(purchase_intent_pattern())]
        assert "open-join-graph" not in findings
        assert "unsatisfiable-variable" not in findings

    def test_matches_are_single_user(self):
        relation = generate_clickstream(users=10, sessions_per_user=3,
                                        intent_fraction=0.5, seed=9)
        for substitution in match(purchase_intent_pattern(), relation):
            users = {e["user"] for e in substitution.events()}
            assert len(users) == 1

    def test_order_within_consideration_set_is_free(self):
        relation = generate_clickstream(users=12, sessions_per_user=2,
                                        intent_fraction=1.0, seed=13)
        orders = set()
        for substitution in match(purchase_intent_pattern(), relation):
            actions = tuple(e["action"] for e in substitution.events()[:3])
            orders.add(actions)
        assert len(orders) > 1, "the generator randomises the block order"

    def test_checkout_strictly_after_consideration(self):
        relation = generate_clickstream(users=10, sessions_per_user=2,
                                        intent_fraction=0.6, seed=21)
        for substitution in match(purchase_intent_pattern(), relation):
            events = substitution.events()
            assert events[-1]["action"] == "checkout"
            assert all(e.ts < events[-1].ts for e in events[:-1])

    def test_window_enforced(self):
        relation = generate_clickstream(users=6, sessions_per_user=1,
                                        intent_fraction=1.0, seed=5)
        tight = purchase_intent_pattern(tau=1)
        assert match(tight, relation).matches == []
