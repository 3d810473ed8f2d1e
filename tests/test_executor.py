"""Tests for the execution algorithm (Section 4.3, Algorithms 1-2)."""

import pytest

from repro import SESPattern
from repro.automaton.builder import build_automaton
from repro.automaton.executor import SESExecutor

from conftest import bindings, eids, ev, match


def run(pattern, events, **kwargs):
    return SESExecutor(build_automaton(pattern), **kwargs).run(events)


class TestBasicMatching:
    def test_single_variable(self):
        pattern = SESPattern(sets=[["a"]], conditions=["a.kind = 'A'"], tau=10)
        result = run(pattern, [ev(1, "A"), ev(2, "B")])
        assert [eids(m) for m in result.matches] == [frozenset({"a1"})]

    def test_permutation_within_set(self, kind_pattern):
        forward = run(kind_pattern, [ev(1, "A"), ev(2, "B"), ev(3, "C")])
        backward = run(kind_pattern, [ev(1, "B"), ev(2, "A"), ev(3, "C")])
        assert len(forward.matches) == 1
        assert len(backward.matches) == 1

    def test_order_across_sets_enforced(self, kind_pattern):
        result = run(kind_pattern, [ev(1, "C"), ev(2, "A"), ev(3, "B")])
        assert result.matches == []

    def test_strict_order_across_sets_on_ties(self, kind_pattern):
        result = run(kind_pattern, [ev(1, "A"), ev(2, "B"), ev(2, "C")])
        assert result.matches == []

    def test_window_enforced(self, kind_pattern):
        result = run(kind_pattern, [ev(0, "A"), ev(1, "B"), ev(200, "C")])
        assert result.matches == []

    def test_window_boundary_inclusive(self, kind_pattern):
        result = run(kind_pattern, [ev(0, "A"), ev(1, "B"), ev(100, "C")])
        assert len(result.matches) == 1

    def test_skip_till_next_match_ignores_noise(self, kind_pattern):
        noisy = [ev(1, "A"), ev(2, "X"), ev(3, "B"), ev(4, "Y"), ev(5, "C")]
        result = run(kind_pattern, noisy)
        assert [eids(m) for m in result.matches] == [
            frozenset({"a1", "b3", "c5"})
        ]


class TestGroupVariables:
    PATTERN = SESPattern(
        sets=[["p+"], ["b"]],
        conditions=["p.kind = 'P'", "b.kind = 'B'"],
        tau=50,
    )

    def test_greedy_collects_all(self):
        result = run(self.PATTERN, [ev(1, "P"), ev(2, "P"), ev(3, "P"), ev(4, "B")])
        assert [eids(m) for m in result.matches] == [
            frozenset({"p1", "p2", "p3", "b4"})
        ]

    def test_one_binding_is_enough(self):
        result = run(self.PATTERN, [ev(1, "P"), ev(2, "B")])
        assert len(result.matches) == 1

    def test_zero_bindings_do_not_match(self):
        result = run(self.PATTERN, [ev(1, "B")])
        assert result.matches == []

    def test_interleaved_group_bindings(self, q1, figure1):
        """p+ bindings need not be consecutive: e4 and e9 for patient 1."""
        result = match(q1, figure1)
        assert frozenset({"e1", "e3", "e4", "e9", "e12"}) in [
            eids(m) for m in result.matches
        ]


class TestAlgorithmOneMechanics:
    def test_fresh_instance_every_event(self, kind_pattern):
        """Matches may start at any event (line 4 of Algorithm 1)."""
        events = [ev(1, "A"), ev(2, "B"), ev(3, "C"),
                  ev(11, "A"), ev(12, "B"), ev(13, "C")]
        result = run(kind_pattern, events)
        assert len(result.matches) == 2

    def test_expiry_emits_accepting_buffer(self, kind_pattern):
        """A match is reported when its window expires mid-stream."""
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.reset()
        for event in [ev(1, "A"), ev(2, "B"), ev(3, "C")]:
            assert executor.feed(event) == []
        emitted = executor.feed(ev(500, "X"))
        assert len(emitted) == 1

    def test_expired_nonaccepting_dropped_silently(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.feed(ev(1, "A"))
        assert executor.active_instances == 1
        emitted = executor.feed(ev(500, "X"))
        assert emitted == []
        assert executor.active_instances == 0
        assert executor.stats.expired_instances == 1

    def test_finish_flushes_accepting(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        for event in [ev(1, "A"), ev(2, "B"), ev(3, "C")]:
            executor.feed(event)
        flushed = executor.finish()
        assert len(flushed) == 1
        assert executor.active_instances == 0

    def test_start_state_instance_dropped_on_no_fire(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.feed(ev(1, "X"))
        assert executor.active_instances == 0

    def test_nonstart_instance_survives_no_fire(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.feed(ev(1, "A"))
        executor.feed(ev(2, "X"))
        assert executor.active_instances == 1

    def test_out_of_order_events_rejected(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.feed(ev(5, "A"))
        with pytest.raises(ValueError):
            executor.feed(ev(1, "B"))

    def test_reset_clears_state(self, kind_pattern):
        executor = SESExecutor(build_automaton(kind_pattern))
        executor.feed(ev(1, "A"))
        executor.reset()
        assert executor.active_instances == 0
        assert executor.stats.events_read == 0
        executor.feed(ev(0, "A"))  # earlier ts fine after reset


class TestNondeterminism:
    AMBIGUOUS = SESPattern(
        sets=[["x", "y"]],
        conditions=["x.kind = 'M'", "y.kind = 'M'"],
        tau=50,
    )

    def test_branching_counts(self):
        result = run(self.AMBIGUOUS, [ev(1, "M"), ev(2, "M")])
        assert result.stats.branchings >= 1

    def test_both_roles_matched(self):
        result = run(self.AMBIGUOUS, [ev(1, "M"), ev(2, "M")],
                     selection="all-starts")
        assert len(result.matches) == 2
        all_bindings = {frozenset(bindings(m)) for m in result.matches}
        assert all_bindings == {
            frozenset({"x/m1", "y/m2"}),
            frozenset({"x/m2", "y/m1"}),
        }


class TestExample8Trace:
    """The seven selected steps of Figure 6 (patient 1's instance)."""

    def test_trace(self, q1, figure1):
        from repro.automaton.states import state_label

        executor = SESExecutor(build_automaton(q1))
        events = {e.eid: e for e in figure1}

        def instance_by_first_binding(eid):
            for inst in executor.instances():
                from repro.core.variables import var
                events_c = inst.buffer.events_of(var("c"))
                if events_c and events_c[0].eid == eid:
                    return inst
            return None

        executor.feed(events["e1"])  # (b) binds c/e1
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "c"

        executor.feed(events["e2"])  # (c) ignored
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "c"

        executor.feed(events["e3"])  # (d) matched
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "cd"

        executor.feed(events["e4"])  # (e) p+ matched
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "cdp+"

        for eid in ("e5", "e6", "e7", "e8"):
            executor.feed(events[eid])  # (f) ignored (other patient)
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "cdp+"

        executor.feed(events["e9"])  # (g) repetition matched
        inst = instance_by_first_binding("e1")
        from repro.core.variables import group
        assert [e.eid for e in inst.buffer.events_of(group("p"))] == ["e4", "e9"]

        for eid in ("e10", "e11"):
            executor.feed(events[eid])
        executor.feed(events["e12"])  # (h) accepting state reached
        inst = instance_by_first_binding("e1")
        assert state_label(inst.state) == "bcdp+"


class TestSelectionModes:
    def test_accepted_mode_returns_raw(self, q1, figure1):
        result = match(q1, figure1, selection="accepted")
        assert len(result.matches) == 3  # includes the e7-start suffix

    def test_all_starts_mode(self, q1, figure1):
        result = match(q1, figure1, selection="all-starts")
        assert len(result.matches) == 3

    def test_paper_mode_suppresses_overlap(self, q1, figure1):
        result = match(q1, figure1, selection="paper")
        assert len(result.matches) == 2

    def test_invalid_selection(self, q1):
        with pytest.raises(ValueError):
            SESExecutor(build_automaton(q1), selection="bogus")


class TestStats:
    def test_event_counters(self, q1, figure1):
        result = match(q1, figure1, use_filter=False)
        assert result.stats.events_read == 14
        assert result.stats.events_processed == 14
        assert result.stats.events_filtered == 0

    def test_omega_tracking(self, kind_pattern):
        result = run(kind_pattern, [ev(1, "A"), ev(2, "B"), ev(3, "C")])
        assert result.stats.max_simultaneous_instances >= 1

    def test_matches_counter(self, q1, figure1):
        result = match(q1, figure1)
        assert result.stats.matches == len(result.matches) == 2

    def test_match_result_iterable(self, q1, figure1):
        result = match(q1, figure1)
        assert len(list(result)) == len(result) == 2
