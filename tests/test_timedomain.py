"""Tests for the time domain conversions."""

from datetime import datetime, timedelta

import pytest

from repro.core.timedomain import (DayDomain, HourDomain, MinuteDomain,
                                   SecondDomain, TimeDomain)

EPOCH = datetime(2026, 7, 1)


class TestConversions:
    def test_epoch_is_tick_zero(self):
        assert HourDomain(EPOCH).to_ticks(EPOCH) == 0

    def test_paper_running_example_timestamps(self):
        """Figure 1: 9am July 3 is hour 57 from a July 1 midnight epoch."""
        domain = HourDomain(EPOCH)
        assert domain.to_ticks(datetime(2026, 7, 3, 9)) == 57
        assert domain.to_ticks(datetime(2026, 7, 14, 9)) == 321

    def test_round_trip(self):
        domain = HourDomain(EPOCH)
        when = datetime(2026, 7, 5, 13)
        assert domain.to_datetime(domain.to_ticks(when)) == when

    def test_flooring_within_tick(self):
        domain = HourDomain(EPOCH)
        assert domain.to_ticks(datetime(2026, 7, 1, 0, 59)) == 0
        assert domain.to_ticks(datetime(2026, 7, 1, 1, 0)) == 1

    def test_before_epoch_rejected(self):
        with pytest.raises(ValueError):
            HourDomain(EPOCH).to_ticks(datetime(2026, 6, 30))

    def test_tick_sizes(self):
        when = EPOCH + timedelta(days=1)
        assert SecondDomain(EPOCH).to_ticks(when) == 86_400
        assert MinuteDomain(EPOCH).to_ticks(when) == 1_440
        assert HourDomain(EPOCH).to_ticks(when) == 24
        assert DayDomain(EPOCH).to_ticks(when) == 1


class TestDurations:
    def test_eleven_days_is_264_hours(self):
        assert HourDomain(EPOCH).duration(timedelta(days=11)) == 264

    def test_int_passthrough(self):
        assert HourDomain(EPOCH).duration(264) == 264

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            HourDomain(EPOCH).duration(timedelta(hours=-1))

    def test_invalid_tick(self):
        with pytest.raises(ValueError):
            TimeDomain(EPOCH, timedelta(0))


class TestEndToEnd:
    def test_match_with_datetime_sourced_events(self):
        from repro import Event, EventRelation, SESPattern
        from conftest import match

        domain = MinuteDomain(EPOCH)
        events = EventRelation([
            Event(ts=domain.to_ticks(EPOCH + timedelta(minutes=m)),
                  eid=f"e{m}", kind=k)
            for m, k in [(0, "A"), (3, "B"), (7, "C")]
        ])
        pattern = SESPattern(
            sets=[["a", "b"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'"],
            tau=domain.duration(timedelta(minutes=10)),
        )
        assert len(match(pattern, events)) == 1
