"""Tests for the synthetic stream source and the continuous matcher."""

from itertools import islice

import pytest

from repro import SESPattern
from repro.stream import ContinuousMatcher, synthetic

from conftest import ev, match


class TestSources:
    def test_synthetic_deterministic(self):
        first = list(islice(synthetic(["A", "B"], seed=3), 10))
        second = list(islice(synthetic(["A", "B"], seed=3), 10))
        assert first == second

    def test_synthetic_count(self):
        events = list(synthetic(["A"], count=5))
        assert len(events) == 5
        assert all(e["kind"] == "A" for e in events)

    def test_synthetic_monotone_timestamps(self):
        events = list(islice(synthetic(["A", "B", "C"], seed=1), 50))
        timestamps = [e.ts for e in events]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps), \
            "inter-arrival >= 1 keeps timestamps strictly increasing"

    def test_synthetic_extra_attributes(self):
        events = list(islice(synthetic(["A"], seed=1,
                                       make_attrs=lambda rng, kind: {"v": 7}),
                             3))
        assert all(e["v"] == 7 for e in events)

    def test_synthetic_rate_validation(self):
        with pytest.raises(ValueError):
            list(islice(synthetic(["A"], rate=0), 1))


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
        matcher.push_many(figure1)
        matcher.close()
        assert ([frozenset(m.bindings) for m in matcher.matches]
                == [frozenset(m.bindings) for m in match(q1, figure1).matches])

    def test_overlap_suppression_toggle(self, q1, figure1):
        permissive = ContinuousMatcher(q1, suppress_overlaps=False)
        permissive.push_many(figure1)
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
