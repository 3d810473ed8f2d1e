"""Unit tests for repro.core.substitution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event, SESPattern, Substitution
from repro.automaton.buffer import MatchBuffer
from repro.core.conditions import parse_condition
from repro.core.variables import group, var
from repro.obs.lineage import match_id

C, D, B = var("c"), var("d"), var("b")
P = group("p")


def e(ts, eid, **attrs):
    return Event(ts=ts, eid=eid, **attrs)


class TestConstruction:
    def test_empty(self):
        g = Substitution()
        assert len(g) == 0
        assert not g

    def test_single_binding(self):
        g = Substitution([(C, e(1, "e1"))])
        assert len(g) == 1
        assert (C, e(1, "e1")) in g

    def test_singleton_variable_single_binding_enforced(self):
        with pytest.raises(ValueError):
            Substitution([(C, e(1, "e1")), (C, e(2, "e2"))])

    def test_group_variable_multiple_bindings(self):
        g = Substitution([(P, e(1, "e1")), (P, e(2, "e2"))])
        assert len(g) == 2
        assert [x.eid for x in g.events_of(P)] == ["e1", "e2"]

    def test_duplicate_binding_collapsed(self):
        ev = e(1, "e1")
        g = Substitution([(C, ev), (C, ev)])
        assert len(g) == 1

    def test_from_mapping(self):
        g = Substitution.from_mapping({C: e(1, "e1"), P: [e(2, "e2"), e(3, "e3")]})
        assert len(g) == 3

    def test_extend_returns_new(self):
        g = Substitution([(C, e(1, "e1"))])
        g2 = g.extend(D, e(2, "e2"))
        assert len(g) == 1
        assert len(g2) == 2


class TestAccess:
    def test_variables(self):
        g = Substitution([(C, e(1, "e1")), (P, e(2, "e2"))])
        assert g.variables == {C, P}

    def test_events_chronological(self):
        g = Substitution([(P, e(3, "x")), (C, e(1, "y")), (D, e(2, "z"))])
        assert [x.eid for x in g.events()] == ["y", "z", "x"]

    def test_events_of_missing_variable(self):
        assert Substitution().events_of(C) == ()

    def test_iteration_ordered_by_time(self):
        g = Substitution([(D, e(2, "z")), (C, e(1, "y"))])
        assert [ev.eid for _, ev in g] == ["y", "z"]


class TestTemporal:
    def test_min_max_span(self):
        g = Substitution([(C, e(5, "a")), (D, e(12, "b"))])
        assert g.min_ts() == 5
        assert g.max_ts() == 12
        assert g.span() == 7

    def test_min_binding(self):
        g = Substitution([(C, e(5, "a")), (D, e(12, "b"))])
        v, ev = g.min_binding()
        assert (v, ev.eid) == (C, "a")

    def test_empty_temporal_raises(self):
        with pytest.raises(ValueError):
            Substitution().min_ts()
        with pytest.raises(ValueError):
            Substitution().max_ts()
        with pytest.raises(ValueError):
            Substitution().min_binding()


class TestDecomposition:
    def test_example3_decomposition(self):
        """Paper Example 3: two bindings for p+ give two decompositions."""
        g = Substitution([
            (C, e(1, "e1")), (D, e(3, "e3")),
            (P, e(4, "e4")), (P, e(9, "e9")), (B, e(12, "e12")),
        ])
        decomposed = list(g.decompose())
        assert len(decomposed) == 2
        p_events = sorted(d.events_of(P)[0].eid for d in decomposed)
        assert p_events == ["e4", "e9"]
        for d in decomposed:
            assert len(d.events_of(P)) == 1
            assert d.events_of(C)[0].eid == "e1"

    def test_two_group_variables_product(self):
        q = group("q")
        g = Substitution([(P, e(1, "a")), (P, e(2, "b")),
                          (q, e(3, "x")), (q, e(4, "y"))])
        assert len(list(g.decompose())) == 4


class TestSatisfies:
    VARS = {"c": C, "d": D, "p": P, "b": B}

    def cond(self, text):
        return parse_condition(text, self.VARS)

    def test_constant_condition(self):
        g = Substitution([(C, e(1, "e1", L="C"))])
        assert g.satisfies([self.cond("c.L = 'C'")])
        assert not g.satisfies([self.cond("c.L = 'D'")])

    def test_group_condition_checks_every_binding(self):
        good = Substitution([(P, e(1, "a", L="P")), (P, e(2, "b", L="P"))])
        bad = Substitution([(P, e(1, "a", L="P")), (P, e(2, "b", L="X"))])
        cond = self.cond("p.L = 'P'")
        assert good.satisfies([cond])
        assert not bad.satisfies([cond])

    def test_cross_variable_condition_all_combinations(self):
        cond = self.cond("c.ID = p.ID")
        good = Substitution([(C, e(1, "c", ID=1)),
                             (P, e(2, "p1", ID=1)), (P, e(3, "p2", ID=1))])
        bad = Substitution([(C, e(1, "c", ID=1)),
                            (P, e(2, "p1", ID=1)), (P, e(3, "p2", ID=2))])
        assert good.satisfies([cond])
        assert not bad.satisfies([cond])

    def test_unbound_variables_skipped(self):
        g = Substitution([(C, e(1, "c", ID=1))])
        assert g.satisfies([self.cond("c.ID = p.ID")])

    def test_is_total_for(self):
        pattern = SESPattern(sets=[["c", "p+"], ["b"]], tau=10)
        partial = Substitution([(C, e(1, "c"))])
        total = Substitution([(C, e(1, "c")), (P, e(2, "p")), (B, e(3, "b"))])
        assert not partial.is_total_for(pattern)
        assert total.is_total_for(pattern)


class TestSetAlgebra:
    def test_subset(self):
        small = Substitution([(C, e(1, "a"))])
        big = Substitution([(C, e(1, "a")), (D, e(2, "b"))])
        assert small.issubset(big)
        assert small <= big
        assert small < big
        assert not big.issubset(small)

    def test_equality_and_hash(self):
        a = Substitution([(C, e(1, "a")), (D, e(2, "b"))])
        b = Substitution([(D, e(2, "b")), (C, e(1, "a"))])
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_in_sets(self):
        a = Substitution([(C, e(1, "a"))])
        b = Substitution([(C, e(1, "a"))])
        assert len({a, b}) == 1

    def test_repr(self):
        g = Substitution([(C, e(1, "e1"))])
        assert "c/e1" in repr(g)


class TestBufferHandover:
    """``MatchBuffer.to_substitution()`` collects its chain into
    per-variable tuples and hands them over instead of regrouping,
    re-validating and re-sorting them; what comes out must be the
    substitution the constructor builds from the same bindings."""

    VARIABLES = (C, D, B, P, group("q"))

    @staticmethod
    def same(fast, slow):
        assert fast == slow and slow == fast
        assert hash(fast) == hash(slow)
        assert len(fast) == len(slow)
        assert list(fast) == list(slow)  # canonical iteration order
        assert fast.variables == slow.variables
        for variable in slow.variables | {C, P}:
            assert fast.events_of(variable) == slow.events_of(variable)
        # events() breaks timestamp ties in set order: compare as sets.
        assert set(fast.events()) == set(slow.events())
        assert len(fast.events()) == len(slow.events())
        assert match_id(fast) == match_id(slow)
        if slow:
            assert fast.min_ts() == slow.min_ts()
            assert fast.max_ts() == slow.max_ts()
            assert fast.min_binding() == slow.min_binding()

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 20),
                              st.sampled_from([None, "x", "y"])),
                    max_size=9))
    @settings(max_examples=200, deadline=None)
    def test_buffers_as_an_executor_builds_them(self, steps):
        """Chronological extension, singletons bound at most once; group
        variables collect several events, tied timestamps and events
        without an id included (but no two id-less events of one
        variable at one timestamp: the canonical order does not say
        which of those comes first)."""
        buffer, pairs = MatchBuffer.root(), []
        bound, anonymous = set(), set()
        for index, (which, ts, eid) in enumerate(sorted(
                steps, key=lambda step: step[1])):
            variable = self.VARIABLES[which]
            if variable.is_singleton and variable in bound:
                continue
            if eid is None and (variable, ts) in anonymous:
                continue
            bound.add(variable)
            anonymous.add((variable, ts) if eid is None else None)
            event = Event(ts=ts, eid=eid and f"{eid}{index}", n=index)
            buffer = MatchBuffer(buffer, variable, event)
            pairs.append((variable, event))
        self.same(buffer.to_substitution(), Substitution(pairs))

    @staticmethod
    def chain(by_var):
        buffer = MatchBuffer.root()
        for variable, events in by_var.items():
            for event in events:
                buffer = MatchBuffer(buffer, variable, event)
        return buffer

    def test_tuples_the_constructor_would_change_go_through_it(self):
        twice = e(3, "e3")
        for by_var in (
                {P: (e(5, "e5"), e(2, "e2"))},          # runs backwards
                {P: (twice, e(3, "e3"), e(4, "e4"))},   # an event repeated
                {P: ()},                                # nothing bound
        ):
            pairs = [(v, x) for v, events in by_var.items() for x in events]
            self.same(self.chain(by_var).to_substitution(),
                      Substitution(pairs))
        with pytest.raises(ValueError, match="singleton variable"):
            self.chain({C: (e(1, "e1"), e(2, "e2"))}).to_substitution()
