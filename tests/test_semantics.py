"""Unit tests for repro.core.semantics (Definition 2)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Event, EventRelation, SESPattern, Substitution
from repro.core.semantics import (_sort_key, enumerate_candidates,
                                  is_candidate, matching_substitutions,
                                  satisfies_conditions, satisfies_maximality,
                                  satisfies_next_match, satisfies_order,
                                  satisfies_window, select_matches)
from repro.core.variables import group, var
from repro.data import duplicated_datasets, pattern_p3
from repro.data.chemo import generate_chemo
from repro.plan import compile

from conftest import eids, ev

A, B, C = var("a"), var("b"), var("c")
P = group("p")


def sub(*pairs):
    return Substitution(pairs)


class TestConditions123:
    def test_satisfies_conditions(self, kind_pattern):
        g = sub((A, ev(1, "A")), (B, ev(2, "B")), (C, ev(3, "C")))
        assert satisfies_conditions(g, kind_pattern)
        bad = sub((A, ev(1, "X")), (B, ev(2, "B")), (C, ev(3, "C")))
        assert not satisfies_conditions(bad, kind_pattern)

    def test_order_between_adjacent_sets(self, kind_pattern):
        in_order = sub((A, ev(1, "A")), (B, ev(2, "B")), (C, ev(3, "C")))
        assert satisfies_order(in_order, kind_pattern)
        out_of_order = sub((A, ev(1, "A")), (B, ev(5, "B")), (C, ev(3, "C")))
        assert not satisfies_order(out_of_order, kind_pattern)

    def test_order_is_strict(self, kind_pattern):
        tied = sub((A, ev(1, "A")), (B, ev(3, "B")), (C, ev(3, "C")))
        assert not satisfies_order(tied, kind_pattern)

    def test_order_free_within_set(self, kind_pattern):
        swapped = sub((A, ev(2, "A")), (B, ev(1, "B")), (C, ev(3, "C")))
        assert satisfies_order(swapped, kind_pattern)

    def test_window(self, kind_pattern):
        ok = sub((A, ev(0, "A")), (C, ev(100, "C")))
        too_wide = sub((A, ev(0, "A")), (C, ev(101, "C")))
        assert satisfies_window(ok, kind_pattern)
        assert not satisfies_window(too_wide, kind_pattern)

    def test_window_empty_substitution(self, kind_pattern):
        assert satisfies_window(Substitution(), kind_pattern)

    def test_is_candidate_requires_totality(self, kind_pattern):
        partial = sub((A, ev(1, "A")))
        assert not is_candidate(partial, kind_pattern)


class TestEnumeration:
    def test_simple_enumeration(self, kind_pattern):
        relation = [ev(1, "A"), ev(2, "B"), ev(3, "C")]
        cands = enumerate_candidates(kind_pattern, relation)
        assert len(cands) == 1
        assert eids(cands[0]) == {"a1", "b2", "c3"}

    def test_permutation_within_set(self, kind_pattern):
        relation = [ev(1, "B"), ev(2, "A"), ev(3, "C")]
        cands = enumerate_candidates(kind_pattern, relation)
        assert len(cands) == 1

    def test_events_are_distinct_across_variables(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'X'", "b.kind = 'X'"],
                             tau=10)
        relation = [ev(1, "X")]
        assert enumerate_candidates(pattern, relation) == []

    def test_group_variable_combinations(self):
        pattern = SESPattern(sets=[["p+"]], conditions=["p.kind = 'P'"], tau=10)
        relation = [ev(1, "P"), ev(2, "P")]
        cands = enumerate_candidates(pattern, relation)
        # {e1}, {e2}, {e1,e2}
        assert len(cands) == 3

    def test_max_group_bindings_cap(self):
        pattern = SESPattern(sets=[["p+"]], conditions=["p.kind = 'P'"], tau=10)
        relation = [ev(t, "P") for t in range(5)]
        capped = enumerate_candidates(pattern, relation, max_group_bindings=1)
        assert all(len(c) == 1 for c in capped)

    def test_window_pruning(self, kind_pattern):
        relation = [ev(0, "A"), ev(1, "B"), ev(500, "C")]
        assert enumerate_candidates(kind_pattern, relation) == []

    def test_accepts_event_relation(self, kind_pattern):
        relation = EventRelation([ev(1, "A"), ev(2, "B"), ev(3, "C")])
        assert len(matching_substitutions(kind_pattern, relation)) == 1


class TestCondition4:
    def test_example4_next_match_violation(self, q1, figure1):
        """Paper Example 4: binding b/e14 instead of e13 violates condition 4."""
        cands = enumerate_candidates(q1, figure1.events)
        by_eids = {eids(c): c for c in cands}
        bad = by_eids[frozenset({"e6", "e7", "e8", "e10", "e11", "e14"})]
        good = by_eids[frozenset({"e6", "e7", "e8", "e10", "e11", "e13"})]
        assert not satisfies_next_match(bad, cands)
        assert satisfies_next_match(good, cands)

    def test_cross_partition_witness_ignored(self, q1, figure1):
        """The intended patient-1 match must survive despite patient-2
        candidates binding p+ to events between e4 and e9."""
        cands = enumerate_candidates(q1, figure1.events)
        by_eids = {eids(c): c for c in cands}
        intended = by_eids[frozenset({"e1", "e3", "e4", "e9", "e12"})]
        assert satisfies_next_match(intended, cands)


class TestCondition5:
    def test_example4_maximality_violation(self, q1, figure1):
        """Paper Example 4: omitting e11 violates maximality."""
        cands = enumerate_candidates(q1, figure1.events)
        by_eids = {eids(c): c for c in cands}
        smaller = by_eids[frozenset({"e6", "e7", "e8", "e10", "e13"})]
        assert not satisfies_maximality(smaller, cands)

    def test_maximal_survives(self, q1, figure1):
        cands = enumerate_candidates(q1, figure1.events)
        by_eids = {eids(c): c for c in cands}
        maximal = by_eids[frozenset({"e6", "e7", "e8", "e10", "e11", "e13"})]
        assert satisfies_maximality(maximal, cands)

    def test_different_start_not_compared(self):
        small = sub((A, ev(5, "A")))
        big = sub((A, ev(1, "A")), (P, ev(5, "P")))
        # Different minT: maximality does not compare them.
        assert satisfies_maximality(small, [small, big])


class TestSelection:
    def test_overlap_suppress_reports_paper_results(self, q1, figure1):
        matches = matching_substitutions(q1, figure1)
        assert [eids(m) for m in matches] == [
            frozenset({"e1", "e3", "e4", "e9", "e12"}),
            frozenset({"e6", "e7", "e8", "e10", "e11", "e13"}),
        ]

    def test_overlap_allow_keeps_suffix_match(self, q1, figure1):
        matches = matching_substitutions(q1, figure1, overlap="allow")
        sets = [eids(m) for m in matches]
        assert frozenset({"e7", "e8", "e10", "e11", "e13"}) in sets
        assert len(matches) == 3

    def test_invalid_overlap_policy(self):
        with pytest.raises(ValueError):
            select_matches([], overlap="bogus")

    def test_deduplication(self):
        g = sub((A, ev(1, "A")))
        assert select_matches([g, g]) == [g]

    def test_deterministic_order(self, q1, figure1):
        first = matching_substitutions(q1, figure1)
        second = matching_substitutions(q1, figure1)
        assert first == second

    def test_empty_candidates(self):
        assert select_matches([]) == []


# ----------------------------------------------------------------------
# The oracle: conditions 4-5 as literal scans over the whole pool (the
# implementation until the pool index replaced it), kept here verbatim.
# ----------------------------------------------------------------------
def scan_next_match(gamma, candidates):
    bindings = list(gamma.bindings)
    consumed = {e for _, e in bindings}
    for v, e in bindings:
        for v_prime, e_prime in bindings:
            if not e.ts < e_prime.ts:
                continue
            for witness in candidates:
                if (v, e) not in witness:
                    continue
                for e_between in witness.events_of(v_prime):
                    if (e.ts < e_between.ts < e_prime.ts
                            and e_between not in consumed):
                        return False
    return True


def scan_maximality(gamma, candidates):
    start = gamma.min_ts()
    for other in candidates:
        if other is gamma or other == gamma:
            continue
        if other.min_ts() == start and gamma < other:
            return False
    return True


def scan_select(candidates, overlap):
    unique, seen = [], set()
    for gamma in candidates:
        if gamma not in seen:
            seen.add(gamma)
            unique.append(gamma)
    survivors = [g for g in unique
                 if scan_next_match(g, unique) and scan_maximality(g, unique)]
    survivors.sort(key=_sort_key)
    if overlap == "allow":
        return survivors
    reported, used = [], set()
    for gamma in survivors:
        events = set(gamma.events())
        if events & used:
            continue
        used |= events
        reported.append(gamma)
    return reported


D = var("d")

#: Two patients, D2-style: every (patient, slot) event exists twice at
#: the same timestamp under different ids.
UNIVERSE = [Event(ts=slot, eid=f"s{slot}{copy}-{pid}", pid=pid)
            for pid in (1, 2) for slot in range(6) for copy in "xy"]


@st.composite
def pools(draw):
    """Candidate pools over {c, d, p+} then {b}: shared bindings, group
    subsets, equal timestamps, role-swapped twins, a second patient and
    repeated candidates are all likely."""
    events = st.sampled_from(UNIVERSE)
    pool = []
    for _ in range(draw(st.integers(min_value=0, max_value=7))):
        pairs = [(v, draw(events))
                 for v in draw(st.sets(st.sampled_from((C, D, B)),
                                       min_size=1))]
        pairs += [(P, e) for e in draw(st.lists(events, max_size=3))]
        gamma = Substitution(pairs)
        pool.append(gamma)
        if draw(st.booleans()) and D in gamma.variables and P in gamma.variables:
            ps = gamma.events_of(P)
            pool.append(Substitution(
                [(v, e) for v, e in gamma.bindings if v not in (D, P)]
                + [(D, ps[-1]), (P, gamma.events_of(D)[0])]
                + [(P, e) for e in ps[:-1]]))
    if pool:
        pool += draw(st.lists(st.sampled_from(pool), max_size=2))
    return draw(st.permutations(pool))


def twins():
    s3, s8, s9 = ev(3, "S"), ev(8, "S"), ev(9, "S")
    return [sub((C, s3), (D, s8), (P, s9)), sub((C, s3), (P, s8), (D, s9))]


class TestPoolIndex:
    @given(pool=pools())
    @example(pool=twins())
    @settings(max_examples=300, deadline=None)
    def test_selection_equals_the_literal_scan(self, pool):
        for overlap in ("suppress", "allow"):
            assert select_matches(pool, overlap) == scan_select(pool, overlap)
        for gamma in pool:
            rest = [g for g in pool if g != gamma]
            for candidates in (pool, rest):
                assert (satisfies_next_match(gamma, candidates)
                        == scan_next_match(gamma, candidates))
                assert (satisfies_maximality(gamma, candidates)
                        == scan_maximality(gamma, candidates))

    @given(pool=pools(), window=st.sets(st.sampled_from(UNIVERSE),
                                        max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_a_started_window_equals_the_scan_then_the_filter(self, pool,
                                                              window):
        """Started from a streaming matcher's overlap window, the walk
        reports what the literal scan followed by the old overlap loop
        reported, and leaves the window holding their events too."""
        used = set(window)
        got = select_matches(pool, used=used)
        want, seen = [], set(window)
        for gamma in scan_select(pool, "allow"):
            events = set(gamma.events())
            if events & seen:
                continue
            seen |= events
            want.append(gamma)
        assert got == want and used == seen
        untouched = set(window)
        assert select_matches(pool, "allow", used=untouched) == scan_select(
            pool, "allow")
        assert untouched == set(window)

    def test_example4_pool_equals_the_literal_scan(self, q1, figure1):
        cands = enumerate_candidates(q1, figure1.events)
        for overlap in ("suppress", "allow"):
            assert select_matches(cands, overlap) == scan_select(
                cands, overlap)

    def test_cost_is_linear_in_disjoint_cohorts(self, monkeypatch):
        """No wall clock: count Substitution comparisons.  A second,
        disjoint cohort doubles the work; a scan of every candidate for
        every pair of bindings would quadruple it."""
        calls = {"n": 0}

        def counted(name):
            plain = getattr(Substitution, name)

            def wrapper(self, other):
                calls["n"] += 1
                return plain(self, other)
            monkeypatch.setattr(Substitution, name, wrapper)

        counted("__contains__")
        counted("__lt__")

        def cohort(pid):
            es = [Event(ts=t, eid=f"e{t}-{pid}", pid=pid) for t in range(8)]
            return [sub((C, es[0]), (D, es[d]), *[(P, e) for e in ps],
                        (B, es[7]))
                    for d in (1, 2)
                    for ps in ([es[3]], [es[3], es[4]], [es[4], es[5]],
                               [es[3], es[4], es[5]])]

        def cost(select, pool):
            calls["n"] = 0
            select(pool, "suppress")
            return calls["n"]

        one, two = cohort(1), cohort(1) + cohort(2)
        assert 0 < cost(select_matches, two) <= 2 * cost(select_matches, one)
        # The counter does see a scan when there is one.
        assert cost(scan_select, two) > 3 * cost(scan_select, one)

    def test_conditions_4_5_are_asked_only_of_reportable_candidates(
            self, monkeypatch):
        """No wall clock: record whom conditions 4-5 are asked about.  On
        a D2 pool (P3 over every event twice, 144 accepted buffers for
        4 reports) under ``suppress``, only candidates sharing no event
        with an earlier report are asked — the overlap policy decides
        the rest whatever the conditions would say."""
        from repro.core import semantics
        d2 = duplicated_datasets(
            generate_chemo(patients=2, cycles=2, seed=7), (2,))[2]
        pool = compile(pattern_p3()).match(
            d2, selection="accepted").accepted
        asked = {"next_match": [], "maximal": []}
        for name in asked:
            plain = getattr(semantics._PoolIndex, name)

            def wrapper(self, gamma, plain=plain, name=name):
                asked[name].append(gamma)
                return plain(self, gamma)
            monkeypatch.setattr(semantics._PoolIndex, name, wrapper)

        reported = select_matches(pool, "suppress")
        order = {g: i for i, g in enumerate(sorted(set(pool), key=_sort_key))}
        for gamma in asked["next_match"] + asked["maximal"]:
            earlier = [m for m in reported if order[m] < order[gamma]]
            assert all(set(gamma.events()).isdisjoint(m.events())
                       for m in earlier)
        assert len(set(pool)) == 144 and len(reported) == 4
        assert len(asked["next_match"]) < len(set(pool)) // 4
        # The answer is the survivors of every candidate, filtered.
        monkeypatch.undo()
        want, used = [], set()
        for gamma in select_matches(pool, "allow"):
            if used.isdisjoint(gamma.events()):
                used.update(gamma.events())
                want.append(gamma)
        assert reported == want
