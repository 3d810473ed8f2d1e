"""Integration tests: engines against each other, end-to-end pipelines."""

from repro import EventRelation, SESPattern
from repro.baseline import BruteForceMatcher, naive_match
from repro.data import EXPECTED_Q1_EIDS, base_dataset, query_q1
from repro.lang import parse_pattern, render_pattern
from repro.storage import load_relation, save_relation
from repro.stream import ContinuousMatcher

from conftest import bindings, eids, ev, match


class TestPaperRunningExample:
    """Example 1's intended results, through every entry point."""

    def test_direct_match(self, q1, figure1):
        result = match(q1, figure1)
        assert [eids(m) for m in result] == [frozenset(s)
                                             for s in EXPECTED_Q1_EIDS]

    def test_exact_bindings(self, q1, figure1):
        """Figure 2's substitution for patient 2, binding for binding."""
        result = match(q1, figure1)
        patient2 = result.matches[1]
        got = {f"{v!r}/{e.eid}" for v, e in patient2.bindings}
        assert got == {"p+/e6", "d/e7", "c/e8", "p+/e10", "p+/e11", "b/e13"}

    def test_through_dsl(self, figure1):
        pattern = parse_pattern(
            "PATTERN PERMUTE(c, p+, d) THEN b "
            "WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B' "
            "AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID WITHIN 11 DAYS")
        assert [eids(m) for m in match(pattern, figure1)] == [
            frozenset(s) for s in EXPECTED_Q1_EIDS]

    def test_through_store(self, q1, figure1, tmp_path):
        save_relation(figure1, tmp_path / "events.csv")
        result = match(q1, load_relation(tmp_path / "events.csv"))
        assert [eids(m) for m in result] == [frozenset(s)
                                             for s in EXPECTED_Q1_EIDS]

    def test_through_stream(self, q1, figure1):
        matcher = ContinuousMatcher(q1)
        matcher.push_many(figure1)
        matcher.close()
        assert [eids(m) for m in matcher.matches] == [
            frozenset(s) for s in EXPECTED_Q1_EIDS]

    def test_oracle_agrees(self, q1, figure1):
        assert [eids(m) for m in naive_match(q1, figure1)] == [
            frozenset(s) for s in EXPECTED_Q1_EIDS]

    def test_render_round_trip_preserves_results(self, q1, figure1):
        rendered = parse_pattern(render_pattern(q1))
        assert match(rendered, figure1).matches == match(q1, figure1).matches


class TestEngineAgreement:
    def test_all_engines_on_singleton_q1(self, figure1):
        pattern = SESPattern(
            sets=[["c", "p", "d"], ["b"]],
            conditions=["c.L = 'C'", "d.L = 'D'", "p.L = 'P'", "b.L = 'B'",
                        "c.ID = p.ID", "c.ID = d.ID", "d.ID = b.ID"],
            tau=264,
        )
        ses = match(pattern, figure1).matches
        bf = BruteForceMatcher(pattern).run(figure1).matches
        oracle = naive_match(pattern, figure1)
        assert ses == bf == oracle

    def test_partitioned_superset_on_synthetic_data(self):
        relation = base_dataset(patients=4, cycles=2)
        pattern = query_q1()
        plain = match(pattern, relation, selection="accepted")
        partitioned = match(pattern, relation, partition_by="ID",
                            selection="accepted")
        assert set(plain.accepted) <= set(partitioned.accepted)

    def test_partitioned_paper_selection_is_no_superset(self):
        """Pinned divergence: the superset above holds for accepted
        buffers only.  Under the default ``selection="paper"`` the
        partitioned answer loses two of the global matches: each
        patient's own run also accepts a buffer binding one earlier P
        event (s619, s945) that the global run never accepts, and
        selection reports it in place of the global match."""
        relation = base_dataset(patients=8, cycles=3)
        pattern = query_q1()
        plain = match(pattern, relation)
        partitioned = match(pattern, relation, partition_by="ID")
        assert (len(plain), len(partitioned)) == (16, 24)
        reported = {bindings(m) for m in partitioned}
        assert [eids(m) for m in plain if bindings(m) not in reported] == [
            frozenset({"s620", "s621", "s623", "s624", "s625"}),
            frozenset({"s948", "s949", "s951", "s952", "s953"})]
        plain_accepted = match(pattern, relation, selection="accepted")
        part_accepted = match(pattern, relation, partition_by="ID",
                              selection="accepted")
        assert set(plain_accepted.accepted) < set(part_accepted.accepted)


class TestAlgorithmVsDefinition2:
    """Regression for the greedy-hijack gap between Algorithm 1 and the
    declarative Definition 2 (documented in DESIGN.md).

    With star-shaped joins, an instance that bound only the join hub's
    *spoke* can be hijacked by an unrelated event, so the operational
    algorithm misses a match the declarative semantics admits.
    """

    PATTERN = SESPattern(
        sets=[["g", "w"], ["t"]],
        conditions=[
            "g.kind = 'G'", "w.kind = 'W'", "t.kind = 'T'",
            "w.tag = g.tag", "w.tag = t.tag",   # star around w, no g-t edge
        ],
        tau=100,
    )

    EVENTS = [
        ev(1, "G", eid="gB", tag="B"),
        ev(2, "W", eid="wA", tag="A"),   # hijacks the gB instance (g-w check
                                         # needs w bound; w-g is checkable —
                                         # wait: w.tag=g.tag routes at {g}).
        ev(3, "W", eid="wB", tag="B"),
        ev(4, "T", eid="tB", tag="B"),
    ]

    def test_join_routing_prevents_this_hijack(self):
        """Here w.tag = g.tag IS checkable when binding w after g, so the
        operational engine survives — both engines find the match."""
        relation = EventRelation(self.EVENTS)
        operational = match(self.PATTERN, relation)
        declarative = naive_match(self.PATTERN, relation)
        expected = frozenset({"gB", "wB", "tB"})
        assert expected in [eids(m) for m in operational]
        assert expected in [eids(m) for m in declarative]

    def test_unconstrained_binding_hijacks(self):
        """With the star around g (not w), binding w from state {g}... is
        still constrained; the unconstrained direction is binding g from
        state {w}: make the first event a W, then an unrelated G."""
        pattern = SESPattern(
            sets=[["g", "w"], ["t"]],
            conditions=[
                "g.kind = 'G'", "w.kind = 'W'", "t.kind = 'T'",
                "w.tag = t.tag",   # g joins nobody: any G event binds
            ],
            tau=100,
        )
        events = EventRelation([
            ev(1, "W", eid="wB", tag="B"),
            ev(2, "G", eid="gX", tag="X"),   # hijacks nothing: g is free
            ev(3, "G", eid="gB", tag="B"),
            ev(4, "T", eid="tB", tag="B"),
        ])
        operational = [eids(m) for m in match(pattern, events)]
        declarative = [eids(m) for m in naive_match(pattern, events)]
        # The greedy engine binds gX (first G) — and since g is otherwise
        # unconstrained the buffer still completes with tB.  Definition 2's
        # skip-till-next-match makes the same earliest-event choice here.
        assert operational == declarative

    def test_hijack_divergence_documented(self):
        """The genuine divergence: a greedy binding that kills completion."""
        pattern = SESPattern(
            sets=[["a", "b"], ["c"]],
            conditions=[
                "a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.tag = b.tag", "b.tag = c.tag",
            ],
            tau=100,
        )
        events = EventRelation([
            ev(1, "A", eid="a1", tag="X"),
            # From state {a} the b transition checks a.tag = b.tag, so the
            # wrong-tag B cannot hijack...
            ev(2, "B", eid="bY", tag="Y"),
            ev(3, "B", eid="bX", tag="X"),
            ev(4, "C", eid="cX", tag="X"),
        ])
        # ...and both semantics agree on this one.
        assert ([eids(m) for m in match(pattern, events)]
                == [eids(m) for m in naive_match(pattern, events)]
                == [frozenset({"a1", "bX", "cX"})])

        # Reverse the roles: start from b (no incident condition routable
        # when binding a from state {b}?  a.tag = b.tag IS routable).  The
        # unroutable case needs a three-variable chain: start at the end
        # of the chain and hijack the middle.
        chain = SESPattern(
            sets=[["a", "b", "m"], ["c"]],
            conditions=[
                "a.kind = 'A'", "b.kind = 'B'", "m.kind = 'M'",
                "c.kind = 'C'",
                "a.tag = m.tag", "m.tag = b.tag", "b.tag = c.tag",
            ],
            tau=100,
        )
        events = EventRelation([
            ev(1, "A", eid="aX", tag="X"),
            # binding b from state {a}: no a-b condition => wrong tag binds.
            ev(2, "B", eid="bY", tag="Y"),
            ev(3, "B", eid="bX", tag="X"),
            ev(4, "M", eid="mX", tag="X"),
            ev(5, "C", eid="cX", tag="X"),
        ])
        operational = [eids(m) for m in match(chain, events)]
        declarative = [eids(m) for m in naive_match(chain, events)]
        intended = frozenset({"aX", "bX", "mX", "cX"})
        assert intended in declarative, "Definition 2 admits the match"
        assert intended not in operational, (
            "Algorithm 1's greedy instance binds bY and dead-ends — the "
            "documented operational/declarative gap; if this ever starts "
            "matching, DESIGN.md's semantics notes need updating")


class TestCrossSubsystem:
    def test_store_stream_bench_pipeline(self, q1, tmp_path):
        """Generate -> store -> reload -> stream-match, end to end."""
        relation = base_dataset(patients=3, cycles=1)
        save_relation(relation, tmp_path / "pipeline.csv")

        matcher = ContinuousMatcher(q1)
        matcher.push_many(load_relation(tmp_path / "pipeline.csv"))
        matcher.close()
        batch = match(q1, relation)
        assert ([frozenset(m.bindings) for m in matcher.matches]
                == [frozenset(m.bindings) for m in batch.matches])

    def test_duplicated_data_still_matches(self, q1, figure1):
        """D2-style duplication: matches exist and satisfy the window."""
        duplicated = figure1.duplicated(2)
        result = match(q1, duplicated)
        assert len(result) >= 2
        for m in result:
            assert m.span() <= q1.tau


class TestGroupLoopDivergence:
    """Second documented operational/declarative gap: a greedy group-loop
    binding can swallow an event whose timestamp then violates the
    inter-set strict order, killing a match Definition 2 admits."""

    def test_group_loop_hijack(self):
        pattern = SESPattern(
            sets=[["u+"], ["v"]],
            conditions=["u.kind = 'A'", "v.kind = 'B'"],
            tau=1,
        )
        relation = EventRelation([
            ev(0, "A", eid="a0"),
            ev(1, "A", eid="a1"),  # greedy loop binds this ...
            ev(1, "B", eid="b1"),  # ... then u.T < v.T fails on the tie
        ])
        operational = match(pattern, relation).matches
        declarative = naive_match(pattern, relation)
        assert operational == [], "Algorithm 1 misses the match (greedy)"
        assert [eids(m) for m in declarative] == [frozenset({"a0", "b1"})], \
            "Definition 2 admits {u+/a0, v/b1}"


class TestTieDivergence:
    """Third documented operational/declarative gap: timestamp ties.

    With simultaneous events, condition 4's "strictly between" test is
    vacuous, so Definition 2 admits disjoint pairings that the greedy
    engine never forms (every instance binds the first usable event).
    """

    def test_tied_pairings(self):
        pattern = SESPattern(
            sets=[["u", "v"]],
            conditions=["u.kind = 'A'", "v.kind = 'B'"],
            tau=0,
        )
        relation = EventRelation([
            ev(0, "A", eid="a0"), ev(0, "A", eid="a1"),
            ev(0, "B", eid="b0"), ev(0, "B", eid="b1"),
        ])
        operational = [eids(m) for m in match(pattern, relation)]
        declarative = [eids(m) for m in naive_match(pattern, relation)]
        assert operational == [frozenset({"a0", "b0"})]
        assert declarative == [frozenset({"a0", "b0"}),
                               frozenset({"a1", "b1"})]
        # Exhaustive mode recovers the declarative result.
        exhaustive = [eids(m) for m in match(pattern, relation,
                                             consume="exhaustive")]
        assert exhaustive == declarative


class TestPermuteThenDivergence:
    """Fourth documented operational/declarative gap: a permutation
    whose variable shares its condition with the set that follows.

    Over A C A A A C A (ts 0-6, τ = 3) both semantics accept
    ``{u/e3, v/e5, w/e6}`` and ``{u/e4, v/e5, w/e6}``, which overlap.
    Definition 2 drops the first by skip-till-next-match: the candidate
    ``{v/e1, u/e3, w/e4}`` shows the A at 4 usable after ``u/e3``.
    Algorithm 1 never forms that witness — its instance that bound
    ``v/e1`` took the A at 2 as ``u`` — so the greedy pool keeps both
    and overlap suppression reports the earlier start.
    """

    def test_earlier_start_kept_by_greedy(self):
        pattern = SESPattern(
            sets=[["u", "v"], ["w"]],
            conditions=["u.kind = 'A'", "v.kind = 'C'", "w.kind = 'A'"],
            tau=3,
        )
        relation = EventRelation([
            ev(ts, kind, eid=f"e{ts}")
            for ts, kind in enumerate("ACAAACA")])
        operational = [bindings(m) for m in match(pattern, relation)]
        declarative = [bindings(m) for m in naive_match(pattern, relation)]
        first = frozenset({"u/e0", "v/e1", "w/e2"})
        assert operational == [first, frozenset({"u/e3", "v/e5", "w/e6"})]
        assert declarative == [first, frozenset({"u/e4", "v/e5", "w/e6"})]
        # Exhaustive mode forms the witness and recovers Definition 2.
        exhaustive = [bindings(m) for m in match(pattern, relation,
                                                 consume="exhaustive")]
        assert exhaustive == declarative


class TestStreamSelectsPerEmissionPoint:
    """A streamed result set can hold a match the batch one drops.

    ``<{u+, v}, {w, x}>`` over B A C B C B (ts 0-5, τ = 4): both paths
    accept the same two buffers, ``{v/b0, u/a1, w/c2, x/b3}`` when the
    window overruns it at ts 5 and ``{u/a1, v/b3, w/c4, x/b5}`` at the
    end of input.  Batch selection sees both in one pool and drops the
    second by skip-till-next-match: the first shares ``u/a1`` and shows
    the C at 2 usable as ``w``.  A stream must report at each emission
    point, and there the second is a pool of one.  The executor is not
    at fault; the minimised form of the rare
    ``TestStreamEqualsBatch::test_continuous_matcher_equals_batch``
    draw, listed in docs/semantics.md.
    """

    def test_the_later_buffer_is_reported_only_by_the_stream(self):
        pattern = SESPattern(
            sets=[["u+", "v"], ["w", "x"]],
            conditions=["u.kind = 'A'", "v.kind = 'B'", "w.kind = 'C'",
                        "x.kind = 'B'"],
            tau=4,
        )
        relation = EventRelation([ev(ts, kind) for ts, kind
                                  in enumerate("BACBCB")])
        first = frozenset({"v/b0", "u+/a1", "w/c2", "x/b3"})
        second = frozenset({"u+/a1", "v/b3", "w/c4", "x/b5"})
        accepted = match(pattern, relation, selection="accepted")
        assert [bindings(m) for m in accepted] == [first, second]
        batch = match(pattern, relation, selection="all-starts")
        assert [bindings(m) for m in batch] == [first]
        matcher = ContinuousMatcher(pattern, suppress_overlaps=False)
        emitted = [[bindings(m) for m in matcher.push(event)]
                   for event in relation]
        assert emitted == [[], [], [], [], [], [first]]
        assert [bindings(m) for m in matcher.close()] == [second]
