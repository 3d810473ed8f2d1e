"""Tests for the repro.plan subsystem: canonical fingerprints, the
bounded plan cache, pickled-plan round trips, the vectorized constant
prefilter (scalar-equivalent by construction, checked by property), and
cached-vs-uncached result identity."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Event, EventRelation, SESPattern
from repro.plan import (FILTER_MODES, PatternPlan, PlanCache,
                        VectorizedPrefilter, build_plan, clear_plan_cache,
                        compile, pattern_fingerprint, plan_cache)
from repro.plan.prefilter import popcount

from conftest import bindings, match, reference_admits

PATTERN = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)


def make_relation(n_keys=4, reps=2):
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return EventRelation(events)


def pattern_with(sets=None, conditions=None, tau=50):
    return SESPattern(
        sets=sets or [["a", "b"], ["c"]],
        conditions=conditions or ["a.kind = 'A'", "b.kind = 'B'",
                                  "c.kind = 'C'"],
        tau=tau,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_spelling(self):
        """Equal patterns fingerprint equally, however they are spelt."""
        reordered = SESPattern(
            sets=[["b", "a"], ["c"]],
            conditions=["b.kind = 'B'", "a.ID = c.ID", "c.kind = 'C'",
                        "a.kind = 'A'", "b.ID = c.ID", "a.ID = b.ID"],
            tau=50.0,
        )
        assert reordered == PATTERN
        assert pattern_fingerprint(reordered) == pattern_fingerprint(PATTERN)

    def test_numeric_spellings_agree(self):
        """50 vs 50.0 vs Fraction-equal floats: one fingerprint."""
        assert (pattern_fingerprint(pattern_with(tau=50))
                == pattern_fingerprint(pattern_with(tau=50.0)))

    def test_condition_change_differs(self):
        other = pattern_with(conditions=["a.kind = 'A'", "b.kind = 'B'",
                                         "c.kind = 'X'"])
        assert (pattern_fingerprint(other)
                != pattern_fingerprint(pattern_with()))

    def test_tau_change_differs(self):
        assert (pattern_fingerprint(pattern_with(tau=51))
                != pattern_fingerprint(pattern_with(tau=50)))

    def test_set_shape_change_differs(self):
        merged = pattern_with(sets=[["a", "b", "c"]])
        split = pattern_with(sets=[["a"], ["b"], ["c"]])
        assert (pattern_fingerprint(merged) != pattern_fingerprint(split)
                != pattern_fingerprint(pattern_with()))

    def test_optimizations_in_key(self):
        assert (pattern_fingerprint(PATTERN, ())
                != pattern_fingerprint(PATTERN, ("trim",)))


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_equal_patterns_hit(self):
        cache = PlanCache(maxsize=8)
        a = compile(pattern_with(tau=50), cache=cache)
        b = compile(pattern_with(tau=50.0), cache=cache)
        assert a is b
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_different_patterns_miss(self):
        cache = PlanCache(maxsize=8)
        compile(pattern_with(tau=50), cache=cache)
        compile(pattern_with(tau=51), cache=cache)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2

    def test_eviction_bound(self):
        cache = PlanCache(maxsize=3)
        plans = [compile(pattern_with(tau=t), cache=cache)
                 for t in range(1, 6)]
        assert len(cache) == 3
        assert cache.stats()["evictions"] == 2
        # LRU: the oldest plans were evicted, the newest survive.
        assert plans[0].fingerprint not in cache
        assert plans[-1].fingerprint in cache

    def test_global_cache_seed_and_clear(self):
        clear_plan_cache()
        plan = compile(PATTERN)
        assert plan.fingerprint in plan_cache()
        assert plan_cache().seed(plan) is plan
        clear_plan_cache()
        assert plan.fingerprint not in plan_cache()

    def test_cache_false_rebuilds(self):
        a = compile(PATTERN, cache=False)
        b = compile(PATTERN, cache=False)
        assert a is not b and a == b

    def test_compile_rejects_non_patterns(self):
        with pytest.raises(TypeError):
            compile("PATTERN PERMUTE(a, b) ...")

    def test_compile_passthrough_for_plans(self):
        plan = compile(PATTERN, cache=False)
        assert compile(plan) is plan

    def test_observability_counters(self):
        from repro.obs import Observability
        obs = Observability()
        cache = PlanCache(maxsize=4)
        compile(PATTERN, cache=cache, observability=obs)
        compile(PATTERN, cache=cache, observability=obs)
        snapshot = obs.snapshot()
        assert snapshot["ses_plan_cache_misses_total"]["value"] == 1
        assert snapshot["ses_plan_cache_hits_total"]["value"] == 1
        assert snapshot["ses_plan_cache_size"]["value"] == 1


# ----------------------------------------------------------------------
# Pickling (what the pools ship to workers)
# ----------------------------------------------------------------------
class TestPickle:
    def test_round_trip_equality(self):
        plan = compile(PATTERN, cache=False)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert clone.fingerprint == plan.fingerprint
        assert clone.optimizations == plan.optimizations
        assert clone.pattern == plan.pattern

    def test_round_trip_matches_identically(self):
        relation = make_relation()
        plan = compile(PATTERN, cache=False)
        clone = pickle.loads(pickle.dumps(plan))
        assert (canonical(plan.match(relation))
                == canonical(clone.match(relation)))

    def test_seeding_a_cache_returns_canonical_instance(self):
        cache = PlanCache(maxsize=4)
        plan = compile(PATTERN, cache=cache)
        shipped = pickle.loads(pickle.dumps(plan))
        assert cache.seed(shipped) is plan  # equal fingerprint already held


def canonical(result):
    return ([bindings(s) for s in result.matches],
            [bindings(s) for s in result.accepted])


# ----------------------------------------------------------------------
# Vectorized prefilter == the filter's definition (the property over
# richer patterns, the registry's spec and the event alphabet:
# tests/test_predicates.py)
# ----------------------------------------------------------------------
KINDS = ("A", "B", "C")


@st.composite
def filter_patterns(draw):
    """Patterns mixing constant and join conditions, some variables
    unconstrained (exercising the paper mode's self-disabling path)."""
    n_vars = draw(st.integers(min_value=1, max_value=3))
    names = "uvw"[:n_vars]
    sets = [[name] for name in names]
    conditions = []
    for name in names:
        if draw(st.booleans()):
            conditions.append(
                f"{name}.kind {draw(st.sampled_from(('=', '!=')))} "
                f"'{draw(st.sampled_from(KINDS))}'")
        if draw(st.booleans()):
            conditions.append(
                f"{name}.V {draw(st.sampled_from(('<', '<=', '>', '>=')))} "
                f"{draw(st.integers(min_value=0, max_value=10))}")
    if n_vars > 1 and draw(st.booleans()):
        conditions.append(f"{names[0]}.ID = {names[1]}.ID")
    return SESPattern(sets=sets, conditions=conditions, tau=20)


@st.composite
def untyped_events(draw, max_events=12):
    """Events with sometimes-missing and sometimes-mistyped attributes
    (both must be rejected exactly like the scalar filter rejects)."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=40), min_size=n, max_size=n)))
    events = []
    for i, ts in enumerate(timestamps):
        fields = {"ts": ts, "eid": f"e{i}"}
        if draw(st.booleans()):
            fields["kind"] = draw(st.sampled_from(KINDS))
        value = draw(st.one_of(
            st.none(), st.integers(min_value=-2, max_value=12),
            st.just("not-a-number")))
        if value is not None:
            fields["V"] = value
        events.append(Event(**fields))
    return events


class TestVectorizedPrefilter:
    @given(pattern=filter_patterns(), events=untyped_events())
    @settings(max_examples=150, deadline=None)
    @pytest.mark.parametrize("mode", FILTER_MODES)
    def test_equivalent_to_scalar_filter(self, pattern, events, mode):
        vectorized = VectorizedPrefilter(pattern, mode=mode)
        expected = [reference_admits(pattern, mode, e) for e in events]
        assert [vectorized.admits(e) for e in events] == expected
        mask = vectorized.admission_mask(events)
        assert [bool((mask >> i) & 1) for i in range(len(events))] == expected
        assert popcount(mask) == sum(expected)


# ----------------------------------------------------------------------
# Cached vs uncached: bit-identical results
# ----------------------------------------------------------------------
class TestCachedEqualsUncached:
    def test_serial(self):
        relation = make_relation()
        clear_plan_cache()
        fresh = compile(PATTERN, cache=False).match(relation)
        for _ in range(3):
            again = match(PATTERN, relation)
            assert canonical(again) == canonical(fresh)
            assert again.stats.events_read == fresh.stats.events_read
            assert (again.stats.transitions_fired
                    == fresh.stats.transitions_fired)

    def test_streaming(self):
        relation = make_relation()
        clear_plan_cache()
        uncached = compile(PATTERN, cache=False)
        baseline = uncached.stream()
        baseline.push_many(relation)
        baseline.close()
        cached = repro.compile(PATTERN).stream()
        cached.push_many(relation)
        cached.close()
        assert ([bindings(s) for s in cached.matches]
                == [bindings(s) for s in baseline.matches])

    def test_workers(self):
        relation = make_relation()
        fresh = compile(PATTERN, cache=False).match(relation, workers=2)
        cached = repro.compile(PATTERN).match(relation, workers=2)
        assert canonical(cached) == canonical(fresh)


# ----------------------------------------------------------------------
# Plan object behaviour
# ----------------------------------------------------------------------
class TestPatternPlan:
    def test_plan_is_immutable(self):
        plan = compile(PATTERN, cache=False)
        with pytest.raises(AttributeError):
            plan.pattern = pattern_with()

    def test_explain_mentions_rewrites(self):
        """EXPLAIN's text carries every fact of the compiled plan:
        fingerprint, optimizations, aggregate, automaton size, the
        prefilter per mode and the applied rewrites."""
        from repro.agg import Aggregate, AggregateSpec
        from repro.explain import explain
        dead = pattern_with(conditions=["a.kind = 'A'", "a.kind = 'B'",
                                        "b.kind = 'B'", "c.kind = 'C'"])
        plan = compile(dead, cache=False,
                       aggregate=AggregateSpec(aggregates=(
                           Aggregate("count", alias="n"),)))
        assert plan.rewrites
        text = explain(plan).render("text")
        assert plan.fingerprint[:12] in text
        assert "optimizations: trim" in text
        assert "aggregate: SELECT count(*) AS n" in text
        automaton = plan.automaton
        assert (f"automaton: {len(automaton.states)} states, "
                f"{len(automaton.transitions)} transitions") in text
        for mode in FILTER_MODES:
            assert f"prefilter[{mode}]: on" in text
        for rewrite in plan.rewrites:
            assert f"rewrite: {rewrite}" in text

    def test_unknown_optimization_rejected(self):
        with pytest.raises(ValueError):
            build_plan(PATTERN, optimizations=("trim", "turbo"))

    def test_invalid_workers_rejected(self):
        plan = compile(PATTERN, cache=False)
        with pytest.raises(ValueError):
            plan.match(make_relation(), workers=0)

    def test_prefilter_selectivity_gauge(self):
        from repro.obs import Observability, live_snapshot
        obs = Observability()
        relation = make_relation()
        plan = compile(PATTERN, cache=False)
        result = plan.match(relation, observability=obs)
        snapshot = live_snapshot(obs)
        assert "ses_prefilter_selectivity" in snapshot
        assert (snapshot["ses_prefilter_selectivity"]["value"]
                == result.stats.events_filtered / result.stats.events_read)

    def test_isinstance_checks(self):
        assert isinstance(repro.compile(PATTERN), PatternPlan)
