"""Tests for semantics-preserving pattern rewrites (join closure)."""

from repro import EventRelation, SESPattern
from repro.baseline import naive_match
from repro.core.rewrite import close_equality_joins, implied_equalities

from conftest import eids, ev, match


CHAIN = SESPattern(
    sets=[["a", "b", "m"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "m.kind = 'M'",
                "c.kind = 'C'",
                "a.tag = m.tag", "m.tag = b.tag", "b.tag = c.tag"],
    tau=100,
)

HIJACK_EVENTS = EventRelation([
    ev(1, "A", eid="aX", tag="X"),
    ev(2, "B", eid="bY", tag="Y"),
    ev(3, "B", eid="bX", tag="X"),
    ev(4, "M", eid="mX", tag="X"),
    ev(5, "C", eid="cX", tag="X"),
])


class TestImpliedEqualities:
    def test_chain_closure(self):
        implied = implied_equalities(CHAIN)
        rendered = {repr(c) for c in implied}
        # a-m, m-b, b-c given; implied: a-b, a-c, m-c.
        assert rendered == {"a.tag = b.tag", "a.tag = c.tag",
                            "c.tag = m.tag"} \
            or len(implied) == 3

    def test_no_joins_nothing_implied(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'"], tau=10)
        assert implied_equalities(pattern) == []

    def test_complete_graph_nothing_implied(self):
        pattern = SESPattern(
            sets=[["a", "b", "c"]],
            conditions=["a.t = b.t", "a.t = c.t", "b.t = c.t"],
            tau=10,
        )
        assert implied_equalities(pattern) == []

    def test_cross_attribute_chains(self):
        """a.x = b.y and b.y = c.z implies a.x = c.z."""
        pattern = SESPattern(
            sets=[["a", "b", "c"]],
            conditions=["a.x = b.y", "b.y = c.z"],
            tau=10,
        )
        implied = implied_equalities(pattern)
        assert len(implied) == 1
        assert repr(implied[0]) in ("a.x = c.z", "c.z = a.x")

    def test_separate_components_not_mixed(self):
        pattern = SESPattern(
            sets=[["a", "b", "c", "d"]],
            conditions=["a.t = b.t", "c.t = d.t"],
            tau=10,
        )
        assert implied_equalities(pattern) == []


class TestCloseEqualityJoins:
    def test_identity_without_joins(self):
        pattern = SESPattern(sets=[["a"]], conditions=["a.kind = 'A'"], tau=5)
        assert close_equality_joins(pattern) is pattern

    def test_idempotent(self):
        closed = close_equality_joins(CHAIN)
        assert close_equality_joins(closed) == closed

    def test_preserves_structure(self):
        closed = close_equality_joins(CHAIN)
        assert closed.sets == CHAIN.sets
        assert closed.tau == CHAIN.tau
        assert set(CHAIN.conditions) <= set(closed.conditions)

    def test_recovers_hijacked_match(self):
        """The headline property: the chain pattern loses its match to a
        greedy hijack; the closed pattern does not."""
        intended = frozenset({"aX", "bX", "mX", "cX"})
        plain = [eids(m) for m in match(CHAIN, HIJACK_EVENTS)]
        closed = [eids(m) for m in match(close_equality_joins(CHAIN),
                                         HIJACK_EVENTS)]
        assert intended not in plain
        assert intended in closed

    def test_same_declarative_semantics(self):
        """Definition 2 results are identical for pattern and closure."""
        original = naive_match(CHAIN, HIJACK_EVENTS)
        closed = naive_match(close_equality_joins(CHAIN), HIJACK_EVENTS)
        assert [frozenset(m.bindings) for m in original] == \
            [frozenset(m.bindings) for m in closed]

    def test_greedy_closed_equals_exhaustive_original(self):
        """On this input, closing the joins recovers exactly what the
        exhaustive mode finds on the original pattern."""
        closed = match(close_equality_joins(CHAIN), HIJACK_EVENTS).matches
        exhaustive = match(CHAIN, HIJACK_EVENTS,
                           consume="exhaustive").matches
        assert [frozenset(m.bindings) for m in closed] == \
            [frozenset(m.bindings) for m in exhaustive]

    def test_q1_unaffected(self, q1, figure1):
        closed = close_equality_joins(q1)
        assert match(closed, figure1).matches == match(q1, figure1).matches
