"""Tests for multi-pattern (registry) and partitioned continuous
matching."""

import pytest

from repro import Event, SESPattern
from repro.data import base_dataset
from repro.registry import PatternRegistry
from repro.stream import PartitionedContinuousMatcher

from conftest import eids, ev, match

AB = SESPattern(sets=[["a"], ["b"]],
                conditions=["a.kind = 'A'", "b.kind = 'B'"], tau=10)
AC = SESPattern(sets=[["a"], ["c"]],
                conditions=["a.kind = 'A'", "c.kind = 'C'"], tau=10)


def registry_of(patterns):
    registry = PatternRegistry()
    for pattern_id, pattern in patterns.items():
        registry.register(pattern, pattern_id=pattern_id)
    return registry


class TestMultiPatternMatcher:
    """Many patterns over one event pass: :class:`PatternRegistry`."""

    def test_patterns_matched_independently(self):
        multi = registry_of({"ab": AB, "ac": AC})
        multi.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        flushed = multi.close()
        assert {m.pattern_id for m in flushed} == {"ab", "ac"}
        assert len(multi.matches_of("ab")) == 1
        assert len(multi.matches_of("ac")) == 1

    def test_patterns_may_share_events(self):
        """The single A event participates in both patterns' matches."""
        multi = registry_of({"ab": AB, "ac": AC})
        multi.push_many([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        multi.close()
        ab_events = eids(multi.matches_of("ab")[0])
        ac_events = eids(multi.matches_of("ac")[0])
        assert "a1" in ab_events and "a1" in ac_events

    def test_auto_naming(self):
        multi = PatternRegistry()
        multi.register(AB)
        multi.register(AC)
        assert multi.pattern_ids == ["p0", "p1"]

    def test_callback_carries_pattern_name(self):
        multi = registry_of({"ab": AB})
        seen = []
        multi.on_match(lambda name, match: seen.append(
            (name, match.pattern_id)))
        multi.push_many([ev(1, "A"), ev(2, "B")])
        multi.close()
        assert seen == [("ab", "ab")]

    def test_same_results_as_individual_matchers(self, q1, figure1):
        singleton = SESPattern(
            sets=[["c", "p", "d"], ["b"]],
            conditions=["c.L = 'C'", "d.L = 'D'", "p.L = 'P'", "b.L = 'B'",
                        "c.ID = p.ID", "c.ID = d.ID", "d.ID = b.ID"],
            tau=264,
        )
        multi = registry_of({"q1": q1, "singleton": singleton})
        multi.push_many(figure1)
        multi.close()
        assert ([frozenset(m.bindings) for m in multi.matches_of("q1")]
                == [frozenset(m.bindings) for m in match(q1, figure1).matches])
        assert ([frozenset(m.bindings) for m in multi.matches_of("singleton")]
                == [frozenset(m.bindings)
                    for m in match(singleton, figure1).matches])

    def test_all_matches(self):
        multi = registry_of({"ab": AB, "ac": AC})
        multi.push_many([ev(1, "A"), ev(2, "B")])
        multi.close()
        assert len(multi.matches_of("ab")) == len(multi.matches) == 1
        assert multi.matches_of("ac") == []

    def test_validation(self):
        with pytest.raises(TypeError):
            PatternRegistry().register(object())

    def test_active_instances_aggregated(self):
        multi = registry_of({"ab": AB, "ac": AC})
        multi.push(ev(1, "A"))
        assert multi.active_instances == 2


class TestPartitionedContinuousMatcher:
    def test_matches_equal_unpartitioned_on_figure1(self, q1, figure1):
        partitioned = PartitionedContinuousMatcher(q1)
        reported = partitioned.push_many(figure1) + partitioned.close()
        reported.sort(key=lambda s: s.min_ts())
        assert ([eids(m) for m in reported]
                == [eids(m) for m in match(q1, figure1).matches])

    def test_partitions_created_lazily(self, q1, figure1):
        partitioned = PartitionedContinuousMatcher(q1)
        events = list(figure1)
        partitioned.push(events[0])
        assert partitioned.partitions == [1]
        partitioned.push_many(events[1:])
        assert sorted(partitioned.partitions) == [1, 2]

    def test_rejects_unpartitionable_pattern(self):
        with pytest.raises(ValueError):
            PartitionedContinuousMatcher(AB)

    def test_explicit_attribute(self, figure1):
        pattern = SESPattern(
            sets=[["c"], ["b"]],
            conditions=["c.L = 'C'", "b.L = 'B'", "c.ID = b.ID"],
            tau=264,
        )
        partitioned = PartitionedContinuousMatcher(pattern, partition_by="ID")
        reported = partitioned.push_many(figure1) + partitioned.close()
        assert len(reported) == 2

    def test_callback_carries_partition_key(self, q1, figure1):
        partitioned = PartitionedContinuousMatcher(q1)
        seen = []
        partitioned.on_match(lambda key, sub: seen.append(key))
        partitioned.push_many(figure1)
        partitioned.close()
        assert sorted(seen) == [1, 2]

    def test_collect_drops_idle_partitions(self, q1):
        partitioned = PartitionedContinuousMatcher(q1)
        partitioned.push(ev(0, "C", ID=1, L="C", V=1.0, U="mg"))
        partitioned.push(ev(1, "C", ID=2, L="C", V=1.0, U="mg"))
        assert len(partitioned.partitions) == 2
        # Nothing collectable yet (instances alive, window open).
        assert partitioned.collect(now=2) == 0
        # Far in the future: expire instances by pushing late events.
        partitioned.push(ev(1000, "X", ID=1, L="X", V=0.0, U=""))
        partitioned.push(ev(1000, "X", ID=2, L="X", V=0.0, U=""))
        dropped = partitioned.collect(now=5000)
        assert dropped == 2
        assert partitioned.partitions == []

    def test_collect_loses_no_reported_match(self, q1):
        """The partitioned matcher keeps no history: every match is in
        what ``push_many``/``close`` return, before and after ``collect``
        drops the partitions that reported them, and a partition's
        checkpoint carries no archive of reported matches."""
        relation = base_dataset(patients=8, cycles=3)
        partitioned = PartitionedContinuousMatcher(q1, partition_by="ID")
        before = partitioned.push_many(relation)
        states = partitioned.state_dict()["partitions"]
        assert len(states) == 8
        assert all("reported" not in state for state in states.values())
        before += partitioned.close()
        assert len(before) == 24
        assert not hasattr(partitioned, "matches")
        last = max(event.ts for event in relation)
        assert partitioned.collect(last + 10 * q1.tau) == 8
        assert partitioned.partitions == []
        # A second day, after the first day's partitions were collected.
        shift = last + 20 * q1.tau
        after = partitioned.push_many(
            Event(ts=event.ts + shift, attrs=event.attributes,
                  eid=f"{event.eid}'")
            for event in relation)
        after += partitioned.close()
        assert ({frozenset(eid[:-1] for eid in eids(m)) for m in after}
                == {eids(m) for m in before})
        assert len(after) == 24

    def test_superset_recall_on_synthetic(self):
        from repro.data import pattern_p3
        relation = base_dataset(patients=4, cycles=2)
        plain = match(pattern_p3(), relation, selection="accepted")
        partitioned = PartitionedContinuousMatcher(pattern_p3(),
                                                   suppress_overlaps=False)
        reported = partitioned.push_many(relation) + partitioned.close()
        # Partitioned streaming reports at least as many distinct matches.
        assert len(reported) >= len(plain.matches)
