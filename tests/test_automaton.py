"""Tests for the SESAutomaton container, states and transitions."""

import pytest

from repro import Event
from repro.automaton.automaton import AutomatonError, SESAutomaton
from repro.automaton.buffer import EQUAL, LEAST, MatchBuffer
from repro.automaton.builder import build_automaton
from repro.automaton.states import make_state, state_label, state_sort_key
from repro.automaton.transitions import Transition
from repro.core.conditions import Attr, Condition, Const
from repro.core.variables import group, var

A, B = var("a"), var("b")
P = group("p")


def laid_out(transition):
    """The smallest automaton holding ``transition``: it lays out the
    summary registers the transition's binding rows read."""
    return SESAutomaton([transition.source, transition.target],
                        [transition], transition.source, transition.target,
                        tau=10)


def chain(*bindings):
    """A register-less buffer binding ``(variable, event)`` pairs in order."""
    buffer = MatchBuffer.root()
    for variable, event in bindings:
        buffer = MatchBuffer(buffer, variable, event)
    return buffer


class TestStates:
    def test_empty_state_label(self):
        assert state_label(make_state()) == "∅"

    def test_label_sorted_concatenation(self):
        assert state_label(make_state([B, A])) == "ab"
        assert state_label(make_state([P, A])) == "ap+"

    def test_sort_key_by_size_then_label(self):
        states = [make_state([A, B]), make_state(), make_state([B])]
        ordered = sorted(states, key=state_sort_key)
        assert [state_label(s) for s in ordered] == ["∅", "b", "ab"]


class TestTransitions:
    def test_target_is_union(self):
        t = Transition(make_state([A]), B)
        assert t.target == make_state([A, B])
        assert not t.is_loop

    def test_loop_for_group_variable_in_source(self):
        t = Transition(make_state([P]), P)
        assert t.is_loop

    def test_admits_constant_condition(self):
        t = Transition(make_state(), A,
                       [Condition(Attr(A, "L"), "=", Const("X"))])
        buffer = MatchBuffer.root()
        assert t.admits(Event(ts=1, L="X"), buffer)
        assert not t.admits(Event(ts=1, L="Y"), buffer)

    def test_admits_checks_against_all_partner_bindings(self):
        cond = Condition(Attr(P, "ID"), "=", Attr(A, "ID"))
        t = Transition(make_state([A, P]), P, [cond])
        automaton = laid_out(t)
        buffer = automaton.extend(automaton.empty_buffer, A,
                                  Event(ts=1, ID=1))
        assert t.admits(Event(ts=2, ID=1), buffer)
        assert not t.admits(Event(ts=2, ID=2), buffer)

    def test_admits_mirrored_condition(self):
        # Condition written as a.ID = p.ID but transition binds p.
        cond = Condition(Attr(A, "ID"), "=", Attr(P, "ID"))
        t = Transition(make_state([A]), P, [cond])
        automaton = laid_out(t)
        buffer = automaton.extend(automaton.empty_buffer, A,
                                  Event(ts=1, ID=7))
        assert t.admits(Event(ts=2, ID=7), buffer)
        assert not t.admits(Event(ts=2, ID=8), buffer)

    def test_admits_self_condition(self):
        cond = Condition(Attr(A, "V"), "<", Attr(A, "W"))
        t = Transition(make_state(), A, [cond])
        assert t.admits(Event(ts=1, V=1, W=2), MatchBuffer.root())
        assert not t.admits(Event(ts=1, V=2, W=1), MatchBuffer.root())

    def test_admits_unbound_partner_passes(self):
        cond = Condition(Attr(A, "ID"), "=", Attr(B, "ID"))
        t = Transition(make_state(), A, [cond])
        assert t.admits(Event(ts=1, ID=1), laid_out(t).empty_buffer)

    def test_equality_and_hash(self):
        t1 = Transition(make_state(), A)
        t2 = Transition(make_state(), A)
        assert t1 == t2 and hash(t1) == hash(t2)
        assert t1 != Transition(make_state(), B)


class TestMatchBuffer:
    def test_extend_immutably(self):
        b0 = MatchBuffer.root()
        b1 = MatchBuffer(b0, A, Event(ts=1, eid="x"))
        assert len(b0) == 0
        assert len(b1) == 1
        assert b1.min_ts == 1

    def test_min_ts_is_first_event(self):
        b = chain((A, Event(ts=5)), (B, Event(ts=9)))
        assert b.min_ts == 5 and b.max_ts == 9

    def test_events_of(self):
        e1, e2 = Event(ts=1, eid="1"), Event(ts=2, eid="2")
        b = chain((P, e1), (P, e2))
        assert b.events_of(P) == (e1, e2)
        assert b.events_of(A) == ()

    def test_to_substitution(self):
        e1 = Event(ts=1, eid="1")
        sub = chain((A, e1)).to_substitution()
        assert (A, e1) in sub

    def test_bool(self):
        assert not MatchBuffer.root()
        assert chain((A, Event(ts=1)))


class TestSESAutomaton:
    def test_validation_start_state(self):
        with pytest.raises(AutomatonError):
            SESAutomaton(states=[make_state([A])], transitions=[],
                         start=make_state(), accepting=make_state([A]), tau=1)

    def test_validation_accepting_state(self):
        with pytest.raises(AutomatonError):
            SESAutomaton(states=[make_state()], transitions=[],
                         start=make_state(), accepting=make_state([A]), tau=1)

    def test_a_transition_is_laid_out_by_one_automaton(self):
        """Each automaton numbers the summary registers its transitions'
        rows read; a transition another automaton numbered differently
        is refused, not left deciding against the wrong slots."""
        c = var("c")
        to_a = Transition(make_state([B]), A,
                          [Condition(Attr(A, "ID"), "=", Attr(B, "ID"))])
        to_c = Transition(make_state([A, B]), c,
                          [Condition(Attr(c, "V"), "<", Attr(P, "V")),
                           Condition(Attr(c, "ID"), "=", Attr(A, "ID"))])
        states = [make_state([B]), make_state([A, B]),
                  make_state([A, B, c])]
        first = SESAutomaton(states, [to_a, to_c], states[0], states[2], 5)
        assert first.register_slots == {(B, "ID", EQUAL): 0,
                                        (P, "V", LEAST): 1,
                                        (A, "ID", EQUAL): 2}
        with pytest.raises(AutomatonError, match="laid out by another"):
            SESAutomaton(states[1:], [to_c], states[1], states[2], 5)

    def test_validation_transition_endpoints(self):
        t = Transition(make_state(), A)
        with pytest.raises(AutomatonError):
            SESAutomaton(states=[make_state()], transitions=[t],
                         start=make_state(), accepting=make_state(), tau=1)

    def test_outgoing_index(self, q1):
        automaton = build_automaton(q1)
        start_out = automaton.outgoing(automaton.start)
        assert {repr(t.variable) for t in start_out} == {"c", "d", "p+"}

    def test_outgoing_unknown_state(self, q1):
        automaton = build_automaton(q1)
        with pytest.raises(AutomatonError):
            automaton.outgoing(make_state([var("zzz")]))

    def test_variables(self, q1):
        automaton = build_automaton(q1)
        assert {v.name for v in automaton.variables} == {"c", "d", "p", "b"}

    def test_is_accepting(self, q1):
        automaton = build_automaton(q1)
        assert automaton.is_accepting(automaton.accepting)
        assert not automaton.is_accepting(automaton.start)

    def test_describe_mentions_all_states(self, q1):
        text = build_automaton(q1).describe()
        for label in ("∅", "cdp+", "bcdp+"):
            assert label in text

    def test_to_dot(self, q1):
        dot = build_automaton(q1).to_dot()
        assert dot.startswith("digraph")
        assert "doublecircle" in dot
        assert dot.endswith("}")

    def test_repr(self, q1):
        assert "SESAutomaton" in repr(build_automaton(q1))
