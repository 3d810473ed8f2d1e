"""Tests for automaton trimming."""

import pytest

from repro import SESPattern
from repro.automaton import SESExecutor
from repro.automaton.builder import build_automaton
from repro.automaton.minimize import trim
from repro.automaton.states import state_label

from conftest import ev, match


class TestNothingToTrim:
    def test_clean_pattern_untouched(self, q1):
        automaton = build_automaton(q1)
        report = trim(automaton)
        assert not report.changed
        assert report.satisfiable
        assert report.automaton is automaton
        assert report.describe() == "nothing to trim"


class TestDeadTransitions:
    @pytest.fixture
    def conflicted(self):
        """Variable b carries conflicting constant conditions: every
        transition binding b is dead, and the accepting state (which
        requires b) becomes unreachable."""
        return SESPattern(
            sets=[["a", "b"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "b.kind = 'X'",
                        "c.kind = 'C'"],
            tau=10,
        )

    def test_unsatisfiable_pattern_reported(self, conflicted):
        report = trim(build_automaton(conflicted))
        assert not report.satisfiable
        assert len(report.dead_transitions) > 0
        assert "never match" in report.describe()

    def test_unsatisfiable_pattern_indeed_never_matches(self, conflicted):
        events = [ev(1, "A"), ev(2, "B"), ev(3, "X"), ev(4, "C")]
        assert match(conflicted, events).matches == []

    def test_partial_conflict_trims_but_stays_satisfiable(self):
        """Only one variable of a three-variable set is conflicted: the
        automaton shrinks but still accepts the other path."""
        pattern = SESPattern(
            sets=[["a", "b"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'"],
            tau=10,
        )
        # Build, then manually conflict the a->ab transition by building a
        # pattern where one *optional* variable is conflicted instead:
        pattern = SESPattern(
            sets=[["a"], ["b"], ["c"]],
            conditions=["a.kind = 'A'",
                        "b.kind = 'B'",
                        "c.kind = 'C'", "c.kind = 'X'"],
            tau=10,
        )
        report = trim(build_automaton(pattern))
        assert not report.satisfiable, "c is required, so still unmatchable"

    def test_trimmed_automaton_equivalent(self):
        """Trimming never changes accepted buffers (satisfiable case).

        Conflict one variable of a PERMUTE set that has an alternative
        route... in SES patterns every variable is mandatory, so a dead
        variable always kills the pattern; the satisfiable-trim case is
        dead *orderings*: conflicting conditions on a transition but not
        on the variable itself cannot arise from the builder (Θδ per
        variable is fixed), so for built automata trim is all-or-nothing
        per variable.  Construct a hand-made automaton to exercise the
        satisfiable path instead.
        """
        from repro.automaton.automaton import SESAutomaton
        from repro.automaton.states import make_state
        from repro.automaton.transitions import Transition
        from repro.core.conditions import Attr, Condition, Const
        from repro.core.variables import var

        a, b = var("a"), var("b")
        s0, sa, sb, sab = (make_state(), make_state([a]), make_state([b]),
                           make_state([a, b]))
        cond_a = Condition(Attr(a, "kind"), "=", Const("A"))
        cond_b = Condition(Attr(b, "kind"), "=", Const("B"))
        dead_b = Condition(Attr(b, "kind"), "=", Const("X"))
        automaton = SESAutomaton(
            states=[s0, sa, sb, sab],
            transitions=[
                Transition(s0, a, [cond_a]),
                Transition(sa, b, [cond_b]),
                # A dead alternative route through {b}:
                Transition(s0, b, [cond_b, dead_b]),
                Transition(sb, a, [cond_a]),
            ],
            start=s0, accepting=sab, tau=10,
        )
        report = trim(automaton)
        assert report.satisfiable and report.changed
        assert len(report.dead_transitions) == 1
        assert state_label(report.unreachable_states[0]) == "b"
        events = [ev(1, "A"), ev(2, "B")]
        original = SESExecutor(automaton, selection="accepted").run(events)
        trimmed = SESExecutor(report.automaton, selection="accepted").run(events)
        assert original.accepted == trimmed.accepted

    def test_describe_lists_removals(self):
        from repro.automaton.automaton import SESAutomaton
        from repro.automaton.states import make_state
        from repro.automaton.transitions import Transition
        from repro.core.conditions import Attr, Condition, Const
        from repro.core.variables import var

        a = var("a")
        s0, sa = make_state(), make_state([a])
        dead = [Condition(Attr(a, "k"), "=", Const("X")),
                Condition(Attr(a, "k"), "=", Const("Y"))]
        automaton = SESAutomaton(
            states=[s0, sa],
            transitions=[Transition(s0, a, dead)],
            start=s0, accepting=s0, tau=5,
        )
        report = trim(automaton)
        assert report.satisfiable  # accepting == start, still reachable
        assert "dead transition" in report.describe()
        assert "unreachable state" in report.describe()
