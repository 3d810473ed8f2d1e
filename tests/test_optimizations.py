"""Tests for the runtime optimizations (hoisted event conditions,
partitioning)."""

from repro import SESPattern
from repro.automaton import SESExecutor, partition_attribute
from repro.automaton.builder import build_automaton
from repro.core.variables import var
from repro.data import base_dataset
from repro.explain import counting_automaton

from conftest import ev, match


class TestPartitionAttribute:
    def test_detects_star_join(self, q1):
        """Q1 joins c-p, c-d, d-b on ID: connected -> partitionable."""
        assert partition_attribute(q1) == "ID"

    def test_disconnected_join_graph(self):
        pattern = SESPattern(
            sets=[["a", "b", "c"]],
            conditions=["a.ID = b.ID"],  # c joins nobody
            tau=10,
        )
        assert partition_attribute(pattern) is None

    def test_no_joins(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'"], tau=10)
        assert partition_attribute(pattern) is None

    def test_inequality_joins_do_not_count(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.ID < b.ID"], tau=10)
        assert partition_attribute(pattern) is None

    def test_cross_attribute_equalities_do_not_count(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.ID = b.other"], tau=10)
        assert partition_attribute(pattern) is None

    def test_picks_a_connecting_attribute(self):
        pattern = SESPattern(
            sets=[["a", "b"]],
            conditions=["a.host = b.host", "a.ID = b.ID"],
            tau=10,
        )
        assert partition_attribute(pattern) in ("host", "ID")


class TestHoistedEventConditions:
    """The state-indexed trick inside ``SESExecutor._consume``: conditions
    on the event alone are decided once per (state, event)."""

    PATTERN = SESPattern(sets=[["a"], ["b"]],
                         conditions=["a.kind = 'A'", "b.kind = 'B'"], tau=100)

    def test_constant_condition_evaluated_once_per_state(self):
        shadow, transitions = counting_automaton(build_automaton(self.PATTERN))
        executor = SESExecutor(shadow)
        n = 5
        for ts in range(n):
            executor.feed(ev(ts, "A"))
        assert executor.active_instances == n  # all waiting in state {a}
        (to_b,) = [t for t in transitions if t.variable.name == "b"]
        before = to_b.condition_evaluations[0]
        executor.feed(ev(n, "X"))
        assert to_b.condition_evaluations[0] == before + 1
        executor.feed(ev(n + 1, "B"))
        assert to_b.condition_evaluations[0] == before + 2
        assert to_b.passes == n  # ... yet every instance fired
        assert (sum(t.passes for t in transitions)
                == executor.stats.transitions_fired)

    def test_each_half_owns_its_conditions(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["b.kind = 'B'", "a.ID = b.ID"],
                             tau=10)
        automaton = build_automaton(pattern)
        (transition,) = [t for t in automaton.transitions
                         if t.variable.name == "b" and len(t.source) == 1]
        buffer = automaton.extend(automaton.empty_buffer, var("a"),
                                  ev(1, "A", ID=1))
        wrong_kind, wrong_id = ev(2, "X", ID=1), ev(2, "B", ID=2)
        assert not transition.admits_event(wrong_kind)
        assert transition.admits_bindings(wrong_kind, buffer)
        assert transition.admits_event(wrong_id)
        assert not transition.admits_bindings(wrong_id, buffer)
        assert not transition.admits(wrong_kind, buffer)
        assert not transition.admits(wrong_id, buffer)
        assert transition.admits(ev(2, "B", ID=1), buffer)


class TestPartitionedMatcher:
    """``plan.match(relation, partition_by=...)``, one worker."""

    def test_same_matches_on_q1(self, q1, figure1):
        partitioned = match(q1, figure1, partition_by="ID")
        assert partitioned.matches == match(q1, figure1).matches

    def test_explicit_attribute_override(self, q1, figure1):
        """Any attribute is taken at the caller's word: on ``L`` no
        partition holds a whole match."""
        assert len(match(q1, figure1, partition_by="L")) == 0

    def test_lower_peak_instances(self, q1):
        relation = base_dataset(patients=6, cycles=2)
        plain = match(q1, relation, selection="accepted")
        partitioned = match(q1, relation, partition_by="ID",
                            selection="accepted")
        assert (partitioned.stats.max_simultaneous_instances
                <= plain.stats.max_simultaneous_instances)

    def test_superset_recall(self, q1):
        relation = base_dataset(patients=6, cycles=2)
        plain = match(q1, relation, selection="accepted")
        partitioned = match(q1, relation, partition_by="ID",
                            selection="accepted")
        assert set(plain.accepted) <= set(partitioned.accepted)

    def test_aggregated_stats(self, q1, figure1):
        result = match(q1, figure1, partition_by="ID")
        assert result.stats.events_read == len(figure1)
        assert result.stats.matches == len(result.matches)

    def test_accepts_plain_iterables(self, q1, figure1):
        result = match(q1, list(figure1), partition_by="ID")
        assert len(result) == 2
