"""Tests for streaming sources, windows, and the continuous matcher."""

import pytest

from repro import Event, SESPattern
from repro.stream import (ContinuousMatcher, SlidingWindow, from_relation,
                          max_window_population, merge, synthetic, take,
                          window_profile)

from conftest import ev, match


class TestSources:
    def test_from_relation(self, figure1):
        events = list(from_relation(figure1))
        assert len(events) == 14
        assert events[0].eid == "e1"

    def test_merge_preserves_order(self):
        a = [ev(1), ev(4)]
        b = [ev(2), ev(3)]
        merged = list(merge(a, b))
        assert [e.ts for e in merged] == [1, 2, 3, 4]

    def test_merge_stable_on_ties(self):
        a = [ev(1, eid="left")]
        b = [ev(1, eid="right")]
        assert [e.eid for e in merge(a, b)] == ["left", "right"]

    def test_synthetic_deterministic(self):
        first = take(synthetic(["A", "B"], seed=3), 10)
        second = take(synthetic(["A", "B"], seed=3), 10)
        assert first == second

    def test_synthetic_count(self):
        events = list(synthetic(["A"], count=5))
        assert len(events) == 5
        assert all(e["kind"] == "A" for e in events)

    def test_synthetic_monotone_timestamps(self):
        events = take(synthetic(["A", "B", "C"], seed=1), 50)
        timestamps = [e.ts for e in events]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps), \
            "inter-arrival >= 1 keeps timestamps strictly increasing"

    def test_synthetic_extra_attributes(self):
        events = take(synthetic(["A"], seed=1,
                                make_attrs=lambda rng, kind: {"v": 7}), 3)
        assert all(e["v"] == 7 for e in events)

    def test_synthetic_rate_validation(self):
        with pytest.raises(ValueError):
            take(synthetic(["A"], rate=0), 1)


class TestSlidingWindow:
    def test_eviction(self):
        window = SlidingWindow(10)
        window.push(ev(0))
        window.push(ev(5))
        evicted = window.push(ev(11))
        assert [e.ts for e in evicted] == [0]
        assert len(window) == 2

    def test_boundary_is_closed(self):
        window = SlidingWindow(10)
        window.push(ev(0))
        evicted = window.push(ev(10))
        assert evicted == ()
        assert len(window) == 2

    def test_out_of_order_rejected(self):
        window = SlidingWindow(10)
        window.push(ev(5))
        with pytest.raises(ValueError):
            window.push(ev(4))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(-1)

    def test_window_profile(self):
        events = [ev(0), ev(1), ev(2), ev(50)]
        profile = [(e.ts, n) for e, n in window_profile(events, 10)]
        assert profile == [(0, 1), (1, 2), (2, 3), (50, 1)]

    def test_max_window_population_matches_relation(self, figure1):
        assert max_window_population(figure1, 264) == \
            figure1.window_size(264) == 14


class TestContinuousMatcher:
    PATTERN = SESPattern(
        sets=[["a", "b"], ["c"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'"],
        tau=10,
    )

    def test_matches_emitted_on_expiry(self):
        matcher = ContinuousMatcher(self.PATTERN)
        seen = []
        matcher.on_match(seen.append)
        matcher.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        assert seen == [], "window still open, group-free but not expired"
        matcher.push(ev(100, "X"))
        assert len(seen) == 1

    def test_close_flushes(self):
        matcher = ContinuousMatcher(self.PATTERN)
        matcher.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        flushed = matcher.close()
        assert len(flushed) == 1
        assert len(matcher.matches) == 1

    def test_q1_stream_equals_batch(self, q1, figure1):
        matcher = ContinuousMatcher(q1)
        matcher.push_many(from_relation(figure1))
        matcher.close()
        assert ([frozenset(m.bindings) for m in matcher.matches]
                == [frozenset(m.bindings) for m in match(q1, figure1).matches])

    def test_overlap_suppression_toggle(self, q1, figure1):
        permissive = ContinuousMatcher(q1, suppress_overlaps=False)
        permissive.push_many(from_relation(figure1))
        permissive.close()
        assert len(permissive.matches) == 3  # includes the suffix match

    def test_callback_decorator_style(self):
        matcher = ContinuousMatcher(self.PATTERN)
        calls = []

        @matcher.on_match
        def record(substitution):
            calls.append(substitution)

        matcher.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        matcher.close()
        assert len(calls) == 1

    def test_stats_and_instances_exposed(self):
        matcher = ContinuousMatcher(self.PATTERN)
        matcher.push(ev(1, "A"))
        assert matcher.active_instances == 1
        assert matcher.stats.events_read == 1

    def test_repr(self):
        assert "ContinuousMatcher" in repr(ContinuousMatcher(self.PATTERN))

    def test_filter_applied(self):
        matcher = ContinuousMatcher(self.PATTERN)
        matcher.push(ev(1, "ZZZ"))
        assert matcher.stats.events_filtered == 1
