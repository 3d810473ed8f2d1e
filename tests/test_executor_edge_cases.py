"""Edge-case tests for construction and execution."""

import repro
from repro import Event, EventRelation, SESPattern
from repro.automaton.builder import build_automaton
from repro.baseline import naive_match

from conftest import eids, ev, match


class TestGroupInLastSet:
    """A group variable in the final set loops at the accepting state."""

    PATTERN = SESPattern(
        sets=[["a"], ["b+"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'"],
        tau=20,
    )

    def test_loop_at_accepting_state(self):
        automaton = build_automaton(self.PATTERN)
        loops = automaton.loops_at(automaton.accepting)
        assert len(loops) == 1
        assert loops[0].variable.name == "b"

    def test_greedy_extends_at_accepting(self):
        result = match(self.PATTERN, [ev(1, "A"), ev(2, "B"), ev(3, "B")])
        assert [eids(m) for m in result] == [frozenset({"a1", "b2", "b3"})]

    def test_emission_waits_for_expiry(self):
        """The match is only emitted once no further b can belong to it."""
        from repro.automaton.executor import SESExecutor
        executor = SESExecutor(build_automaton(self.PATTERN))
        executor.feed(ev(1, "A"))
        executor.feed(ev(2, "B"))
        emitted = executor.feed(ev(3, "B"))
        assert emitted == [], "still extendable"
        emitted = executor.feed(ev(100, "X"))
        assert len(emitted) == 1
        assert len(emitted[0]) == 3

    def test_agrees_with_oracle(self):
        events = [ev(1, "A"), ev(2, "B"), ev(5, "B"), ev(30, "B")]
        assert (match(self.PATTERN, events).matches
                == naive_match(self.PATTERN, events))


class TestManySets:
    def test_four_phases(self):
        pattern = SESPattern(
            sets=[["a"], ["b"], ["c"], ["d"]],
            conditions=[f"{v}.kind = '{v.upper()}'" for v in "abcd"],
            tau=50,
        )
        events = [ev(1, "A"), ev(2, "B"), ev(3, "C"), ev(4, "D")]
        assert len(match(pattern, events)) == 1
        scrambled = [ev(1, "B"), ev(2, "A"), ev(3, "C"), ev(4, "D")]
        assert match(pattern, scrambled).matches == []

    def test_group_in_middle_set(self):
        pattern = SESPattern(
            sets=[["a"], ["p+"], ["z"]],
            conditions=["a.kind = 'A'", "p.kind = 'P'", "z.kind = 'Z'"],
            tau=50,
        )
        events = [ev(1, "A"), ev(2, "P"), ev(3, "P"), ev(4, "Z")]
        result = match(pattern, events)
        assert [eids(m) for m in result] == [
            frozenset({"a1", "p2", "p3", "z4"})
        ]

    def test_middle_group_cannot_extend_after_next_set(self):
        pattern = SESPattern(
            sets=[["a"], ["p+"], ["z"]],
            conditions=["a.kind = 'A'", "p.kind = 'P'", "z.kind = 'Z'"],
            tau=50,
        )
        events = [ev(1, "A"), ev(2, "P"), ev(3, "Z"), ev(4, "P"), ev(5, "Z")]
        result = match(pattern, events)
        assert [eids(m) for m in result] == [frozenset({"a1", "p2", "z3"})]


class TestDegeneratePatterns:
    def test_single_singleton(self):
        pattern = SESPattern(sets=[["a"]], conditions=["a.kind = 'A'"], tau=0)
        result = match(pattern, [ev(1, "A"), ev(2, "A")])
        assert len(result) == 2

    def test_single_group_tau_zero(self):
        pattern = SESPattern(sets=[["p+"]], conditions=["p.kind = 'P'"], tau=0)
        # tau=0: only simultaneous events share a match.
        events = [ev(1, "P"), ev(1, "P", eid="p1b"), ev(2, "P")]
        result = match(pattern, events)
        assert [eids(m) for m in result] == [
            frozenset({"p1", "p1b"}), frozenset({"p2"})
        ]

    def test_no_conditions_at_all(self):
        pattern = SESPattern(sets=[["x"], ["y"]], tau=10)
        result = match(pattern, [ev(1, "A"), ev(2, "B")])
        assert len(result) == 1

    def test_empty_relation(self, q1):
        assert match(q1, EventRelation()).matches == []

    def test_relation_shorter_than_pattern(self, q1, figure1):
        assert match(q1, figure1[:2]).matches == []


class TestTimestampDomains:
    def test_float_timestamps(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=1.5)
        events = [Event(ts=0.25, eid="a", kind="A"),
                  Event(ts=1.75, eid="b", kind="B")]
        assert len(match(pattern, events)) == 1
        too_late = [Event(ts=0.25, eid="a", kind="A"),
                    Event(ts=2.0, eid="b", kind="B")]
        assert match(pattern, too_late).matches == []

    def test_negative_timestamps(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=10)
        events = [ev(-5, "A"), ev(-1, "B")]
        assert len(match(pattern, events)) == 1


class TestConditionShapes:
    def test_user_written_time_condition(self):
        """Users may constrain T directly (e.g. minimum gaps)."""
        pattern = SESPattern(
            sets=[["a"], ["b"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "b.V > a.V"],
            tau=10,
        )
        rising = [ev(1, "A", V=1), ev(2, "B", V=5)]
        falling = [ev(1, "A", V=5), ev(2, "B", V=1)]
        assert len(match(pattern, rising)) == 1
        assert match(pattern, falling).matches == []

    def test_inequality_between_set_members(self):
        pattern = SESPattern(
            sets=[["lo", "hi"]],
            conditions=["lo.kind = 'N'", "hi.kind = 'N'", "lo.V < hi.V"],
            tau=10,
        )
        events = [ev(1, "N", V=3), ev(2, "N", V=8)]
        result = match(pattern, events, selection="all-starts")
        assert len(result) == 1
        substitution = result.matches[0]
        lo = pattern.variable("lo")
        assert substitution.events_of(lo)[0]["V"] == 3

    def test_group_self_spanning_condition(self):
        """A condition between a group variable and a singleton applies to
        every group binding."""
        pattern = SESPattern(
            sets=[["base", "p+"]],
            conditions=["base.kind = 'X'", "p.kind = 'P'",
                        "p.V >= base.V"],
            tau=10,
        )
        events = [ev(1, "X", V=5), ev(2, "P", V=7), ev(3, "P", V=3),
                  ev(4, "P", V=9)]
        result = match(pattern, events)
        assert len(result) == 1
        p = pattern.variable("p")
        values = [e["V"] for e in result.matches[0].events_of(p)]
        assert values == [7, 9], "the V=3 event fails p.V >= base.V"


class TestStreamingExpiryIsTraced:
    """A match emitted while a *filtered* event advances the clock
    (``expire_on_filtered=True``) goes through the same expiry routine
    as any other — recorders attached to the executor see it."""

    PATTERN = SESPattern(sets=[["a", "b"]],
                         conditions=["a.kind = 'A'", "b.kind = 'B'"], tau=5)

    def _kinds(self, closing_event):
        from repro.automaton import SESExecutor, Tracer
        tracer = Tracer()
        executor = SESExecutor(build_automaton(self.PATTERN),
                               event_filter=repro.compile(
                                   self.PATTERN).prefilter(),
                               expire_on_filtered=True, tracer=tracer)
        executor.feed(ev(1, "A"))
        executor.feed(ev(2, "B"))
        tracer.clear()
        emitted = executor.feed(closing_event)
        assert [eids(m) for m in emitted] == [frozenset({"a1", "b2"})]
        return [step.kind for step in tracer.steps
                if step.kind in ("expire", "accept")]

    # Ω holds the complete {a, b} instance and a lone {b}; both expire.
    def test_accept_recorded_when_a_filtered_event_expires_it(self):
        assert self._kinds(ev(20, "X")) == ["expire", "accept", "expire"]

    def test_accept_recorded_when_an_admitted_event_expires_it(self):
        assert self._kinds(ev(20, "A")) == ["expire", "accept", "expire"]

    def test_flight_dump_of_a_continuous_matcher_holds_the_accept(self):
        from repro.obs import FlightRecorder
        from repro.stream import ContinuousMatcher
        flight = FlightRecorder(capacity=64)
        matcher = ContinuousMatcher(self.PATTERN, flight=flight)
        matcher.push(ev(1, "A"))
        matcher.push(ev(2, "B"))
        assert len(matcher.push(ev(20, "X"))) == 1
        accepts = [step for step in flight.dump()["steps"]
                   if step["kind"] == "accept"]
        assert [step["ts"] for step in accepts] == [20]
