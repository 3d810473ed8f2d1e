"""The multi-tenant pattern registry: shared admission, hot churn, quotas.

The load-bearing property is **bit-identical fan-out**: for any set of
registered patterns, the registry's per-pattern match sets equal running
each pattern through its own :class:`ContinuousMatcher` (streaming) or
``plan.match`` (batch).  The suites below pin that for 100+ randomized
patterns, plus the predicate bank's interning/refcounting, the start
row's exactness, counters equal to a pattern run alone, hot
register/deregister under a live stream, tenant quotas and guards,
labeled metrics, and the HTTP/CLI surface.
"""

import json
import random
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (ContinuousMatcher, GuardConfig, Observability,
                   PatternRegistry, ResourceExhausted, SESPattern,
                   TenantQuota, compile)
from repro.cli import main as cli_main
from repro.data.chemo import generate_chemo
from repro.lang import parse_pattern
from repro.obs import ObsServer
from repro.registry import (AdmissionSpec, DuplicatePatternError,
                            OutOfOrderError, PredicateBank, QuotaExceeded,
                            RegistryError, RegistryHTTPAdapter,
                            UnknownPatternError)
from repro.registry.bank import mask_bits

from conftest import bindings, ev, rel

LABELS = ["B", "C", "D", "P", "L", "ALT", "CRE", "GLU", "HGB", "PLT"]

Q_ADMIT = ("PATTERN PERMUTE(a, b) WHERE a.L = 'B' AND b.L = 'C' "
           "AND a.ID = b.ID WITHIN 240")


def random_pattern(rng: random.Random) -> SESPattern:
    """A random 1-3 variable pattern over the chemo schema.

    Mixes constant string/float conditions, unconstrained variables
    (the ``always`` admission shortcut) and cross-variable joins, so the
    equivalence suites cover every admission shape.
    """
    n_vars = rng.choice([1, 2, 2, 2, 3])
    names = ["a", "b", "c"][:n_vars]
    if n_vars == 1:
        sets = [["a"]]
    elif n_vars == 2:
        sets = rng.choice([[["a"], ["b"]], [["a", "b"]]])
    else:
        sets = rng.choice([[["a"], ["b"], ["c"]], [["a", "b"], ["c"]],
                           [["a"], ["b", "c"]]])
    conditions = []
    for name in names:
        roll = rng.random()
        if roll < 0.55:
            conditions.append(f"{name}.L = '{rng.choice(LABELS)}'")
        elif roll < 0.75:
            op = rng.choice(["<", "<=", ">", ">="])
            conditions.append(f"{name}.V {op} {round(rng.uniform(0, 4), 2)}")
        # otherwise: unconstrained variable (admits everything)
    if n_vars >= 2 and rng.random() < 0.6:
        conditions.append("a.ID = b.ID")
    return SESPattern(sets=sets, conditions=conditions,
                      tau=rng.choice([60, 120, 264, 480]))


def reference_matches(plan, events):
    """Per-pattern ground truth: one ContinuousMatcher fed everything."""
    matcher = ContinuousMatcher(plan)
    matcher.push_many(events)
    matcher.close()
    return matcher.matches


@pytest.fixture(scope="module")
def chemo_events():
    return list(generate_chemo(patients=3, cycles=2, seed=3,
                               lab_events_per_cycle=20))


@pytest.fixture(scope="module")
def random_plans():
    rng = random.Random(42)
    return [compile(random_pattern(rng)) for _ in range(110)]


# ---------------------------------------------------------------------------
# Predicate bank
# ---------------------------------------------------------------------------
class TestPredicateBank:
    def test_interning_dedups_equal_predicates(self):
        bank = PredicateBank()
        a = bank.intern_const("L", "=", "B")
        b = bank.intern_const("L", "=", "B")
        c = bank.intern_const("L", "=", "C")
        assert a == b and a != c
        assert len(bank) == 2
        assert bank.refcount(a) == 2

    def test_unknown_operator_rejected(self):
        bank = PredicateBank()
        with pytest.raises(ValueError):
            bank.intern_const("ID", "~", 1)
        assert len(bank) == 0

    def test_release_recycles_slots(self):
        bank = PredicateBank()
        a = bank.intern_const("L", "=", "B")
        assert bank.intern_const("L", "=", "B") == a
        bank.intern_const("L", "=", "C")
        bank.release(a)
        assert bank.refcount(a) == 1  # still referenced once
        bank.release(a)
        assert len(bank) == 1
        # The freed id is recycled for the next intern.
        d = bank.intern_const("V", ">", 1.5)
        assert d == a
        assert len(bank) == 2

    def test_truth_matches_direct_evaluation(self):
        bank = PredicateBank()
        eq = bank.intern_const("L", "=", "B")
        gt = bank.intern_const("V", ">", 2.0)
        event = ev(1, L="B", V=1.0, ID=1)
        truth = bank.truth(event)
        assert truth & (1 << eq)
        assert not truth & (1 << gt)

    def test_missing_attribute_and_type_error_are_false(self):
        bank = PredicateBank()
        gt = bank.intern_const("V", ">", 2.0)
        assert bank.truth(ev(1, ID=1)) == 0               # V absent
        assert bank.truth(ev(1, V="oops", ID=1)) == 0     # incomparable
        assert bank.truth(ev(1, V=3.0, ID=1)) == 1 << gt

    def test_truth_columns_equals_scalar_truth(self, chemo_events):
        bank = PredicateBank()
        bank.intern_const("L", "=", "B")
        bank.intern_const("V", ">", 2.0)
        bank.intern_const("V", "<=", 1.0)
        from repro import Attr, Condition, var
        a = var("a")
        bank.intern_self(Condition(Attr(a, "V"), "<", Attr(a, "T")))
        events = chemo_events[:80]
        columns = bank.truth_columns(events)
        for i, event in enumerate(events):
            truth = bank.truth(event)
            for pid in range(len(columns)):
                assert bool(columns[pid] & (1 << i)) == bool(
                    truth & (1 << pid))

    def test_describe_lists_live_slots(self):
        bank = PredicateBank()
        bank.intern_const("L", "=", "B")
        rows = bank.describe()
        assert len(rows) == 1
        assert "L = 'B'" in rows[0][1]

    def test_mask_bits(self):
        assert list(mask_bits(0b101001)) == [0, 3, 5]
        assert list(mask_bits(0)) == []


# ---------------------------------------------------------------------------
# Admission specs vs the per-pattern prefilter (the exactness property)
# ---------------------------------------------------------------------------
class TestAdmissionEquivalence:
    def test_spec_matches_conjunctive_prefilter_100_random_patterns(
            self, random_plans, chemo_events):
        bank = PredicateBank()
        events = chemo_events[:120]
        full = (1 << len(events)) - 1
        specs = [AdmissionSpec(bank, plan.pattern) for plan in random_plans]
        columns = bank.truth_columns(events)
        for plan, spec in zip(random_plans, specs):
            prefilter = plan.prefilter("conjunctive")
            expected_mask = prefilter.admission_mask(events)
            assert spec.admitted_mask(columns, full) == expected_mask
            for event in events[:40]:
                truth = bank.truth(event)
                assert spec.admitted(truth) == prefilter.admits(event)

    def test_unconstrained_variable_admits_everything(self):
        bank = PredicateBank()
        pattern = parse_pattern(
            "PATTERN PERMUTE(a, b) WHERE a.L = 'B' WITHIN 10")
        spec = AdmissionSpec(bank, pattern)
        assert spec.always
        assert spec.admitted(0)

    def test_release_returns_bank_to_prior_size(self, random_plans):
        bank = PredicateBank()
        baseline = len(bank)
        specs = [AdmissionSpec(bank, plan.pattern) for plan in random_plans]
        assert len(bank) > baseline
        for spec in specs:
            spec.release(bank)
        assert len(bank) == baseline


class TestStartRow:
    def test_start_row_exists_iff_some_start_transition_admits(
            self, random_plans, chemo_events):
        """The one start decision: the step table's start row for an
        event exists iff some start transition admits it against an
        empty buffer (no partner is bound yet, so only the event-only
        checks decide)."""
        for plan in random_plans[:40]:
            automaton = plan.automaton
            start = automaton.start
            for event in chemo_events[:60]:
                expected = any(
                    t.admits(event, automaton.empty_buffer)
                    for t in automaton.outgoing(start))
                row = automaton.step_rows(event)[start]
                assert (row is not None) == expected


# ---------------------------------------------------------------------------
# Fan-out equivalence (tentpole acceptance: 100+ randomized patterns)
# ---------------------------------------------------------------------------
class TestStreamingEquivalence:
    def test_registry_bit_identical_to_per_pattern_matchers(
            self, random_plans, chemo_events):
        registry = PatternRegistry()
        for i, plan in enumerate(random_plans):
            registry.register(plan, pattern_id=f"p{i}")
        registry.push_many(chemo_events)
        registry.close()
        for i, plan in enumerate(random_plans):
            expected = reference_matches(plan, chemo_events)
            got = registry.matches_of(f"p{i}")
            assert ([bindings(s) for s in got]
                    == [bindings(s) for s in expected]), f"p{i}"

    def test_self_condition_start_gate(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.X = a.Y", "b.K = 'hit'"],
                             tau=50)
        events = [ev(t, K=("hit" if t % 3 == 0 else "miss"),
                     X=t % 2, Y=(t + 1) % 2 if t % 5 == 0 else t % 2)
                  for t in range(1, 40)]
        plan = compile(pattern)
        registry = PatternRegistry()
        registry.register(plan, pattern_id="self")
        registry.push_many(events)
        registry.close()
        expected = reference_matches(plan, events)
        assert ([bindings(s) for s in registry.matches_of("self")]
                == [bindings(s) for s in expected])
        assert expected  # the scenario actually produces matches

    def test_unfiltered_registry_matches_unfiltered_matchers(
            self, random_plans, chemo_events):
        events = chemo_events[:150]
        registry = PatternRegistry(use_filter=False)
        plans = random_plans[:10]
        for i, plan in enumerate(plans):
            registry.register(plan, pattern_id=f"p{i}")
        registry.push_many(events)
        registry.close()
        for i, plan in enumerate(plans):
            matcher = ContinuousMatcher(plan, use_filter=False)
            matcher.push_many(events)
            matcher.close()
            assert ([bindings(s) for s in registry.matches_of(f"p{i}")]
                    == [bindings(s) for s in matcher.matches])

    def test_executor_counters_without_the_inner_prefilter(
            self, random_plans, chemo_events):
        """The registry's matchers run without their own prefilter (the
        bank already decided admission); the per-pattern counters still
        read as the filtered stand-alone matcher's do: the same events
        processed, every other delivered event counted as filtered.  A
        rejected event only reaches a pattern as a tick, and only once
        it can expire something, so the registry reads at most the
        stand-alone's."""
        plans = random_plans[:40]
        registry = PatternRegistry()
        for i, plan in enumerate(plans):
            registry.register(plan, pattern_id=f"p{i}")
        registry.push_many(chemo_events)
        ticked = 0
        for i, plan in enumerate(plans):
            alone = ContinuousMatcher(plan)
            alone.push_many(chemo_events)
            got = registry._entries[f"p{i}"].matcher.stats
            want = alone.stats
            assert got.events_processed == want.events_processed, f"p{i}"
            assert (got.events_read
                    == got.events_processed + got.events_filtered), f"p{i}"
            assert got.events_filtered <= want.events_filtered, f"p{i}"
            assert (want.events_read
                    == want.events_processed + want.events_filtered)
            for name in ("transitions_fired", "branchings",
                         "expired_instances", "accepted_buffers"):
                assert getattr(got, name) == getattr(want, name), (
                    f"p{i}", name)
            ticked += got.events_filtered
        assert ticked  # ticks are still counted as filtered events

    @pytest.mark.parametrize("workload, patterns, events, batch", [
        ("serve-q1-sparse", 1, 6000, 64),
        ("serve-reg25-dense", 6, 6000, 16)])
    def test_counters_equal_the_pattern_run_alone(self, workload, patterns,
                                                  events, batch):
        """A registered pattern counts what the same pattern counts in
        its own matcher fed the same batches: one start decision (the
        automaton's start row), so no fresh instance goes uncounted."""
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        from repro.net.protocol import event_from_json
        queries = workloads.BY_NAME[workload].queries[:patterns]
        stream = [event_from_json(row)
                  for row in chemo_stream(1, events, 24)]
        registry = PatternRegistry()
        alone = {}
        for pattern_id, query in queries:
            registry.register(query, pattern_id=pattern_id)
            alone[pattern_id] = ContinuousMatcher(compile(
                parse_pattern(query)))
        for start in range(0, len(stream), batch):
            chunk = stream[start:start + batch]
            registry.push_many(chunk)
            for matcher in alone.values():
                matcher.push_many(chunk)
        accepted = 0
        for pattern_id, matcher in alone.items():
            got = registry._entries[pattern_id].matcher.stats
            want = matcher.stats
            for name in ("events_processed", "instances_created",
                         "max_simultaneous_instances", "transitions_fired",
                         "branchings", "expired_instances",
                         "accepted_buffers"):
                assert getattr(got, name) == getattr(want, name), (
                    pattern_id, name)
            accepted += want.accepted_buffers
        assert accepted > 100

    def test_single_push_equals_push_many(self, random_plans, chemo_events):
        events = chemo_events[:100]
        plans = random_plans[:8]
        one = PatternRegistry()
        many = PatternRegistry()
        for i, plan in enumerate(plans):
            one.register(plan, pattern_id=f"p{i}")
            many.register(plan, pattern_id=f"p{i}")
        for event in events:
            one.push(event)
        many.push_many(events)
        one.close()
        many.close()
        for i in range(len(plans)):
            assert ([bindings(s) for s in one.matches_of(f"p{i}")]
                    == [bindings(s) for s in many.matches_of(f"p{i}")])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_property_random_pattern_equivalence(self, seed):
        rng = random.Random(seed)
        plan = compile(random_pattern(rng))
        events = list(generate_chemo(patients=2, cycles=1, seed=5,
                                     lab_events_per_cycle=8))
        registry = PatternRegistry()
        registry.register(plan, pattern_id="q")
        registry.push_many(events)
        registry.close()
        expected = reference_matches(plan, events)
        assert ([bindings(s) for s in registry.matches_of("q")]
                == [bindings(s) for s in expected])


class TestRunBatch:
    """``run_batch`` equals ``plan.match`` per pattern, with the
    registry filtered or not."""

    def test_run_batch_bit_identical_to_plan_match(self, random_plans,
                                                   chemo_events):
        self.check(random_plans, chemo_events, use_filter=True)

    def test_unfiltered_run_batch_bit_identical_to_plan_match(
            self, random_plans, chemo_events):
        self.check(random_plans, chemo_events, use_filter=False)

    @staticmethod
    def check(random_plans, chemo_events, use_filter):
        relation = rel(*chemo_events[:200])
        registry = PatternRegistry(use_filter=use_filter)
        for i, plan in enumerate(random_plans):
            registry.register(plan, pattern_id=f"p{i}")
        results = registry.run_batch(relation)
        assert len(results) == len(random_plans)
        for i, plan in enumerate(random_plans):
            expected = plan.match(relation, use_filter=use_filter)
            got = results[f"p{i}"]
            assert ([bindings(s) for s in got.matches]
                    == [bindings(s) for s in expected.matches]), f"p{i}"
            assert got.stats.events_filtered == expected.stats.events_filtered
            assert (got.stats.transitions_fired
                    == expected.stats.transitions_fired)


# ---------------------------------------------------------------------------
# Lifecycle: register / deregister / sharing bookkeeping
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_register_accepts_text_pattern_and_plan(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="text")
        pattern = parse_pattern(Q_ADMIT)
        registry.register(pattern, pattern_id="pattern")
        registry.register(compile(pattern), pattern_id="plan")
        assert len(registry) == 3
        with pytest.raises(TypeError):
            registry.register(42)

    def test_auto_ids_skip_taken_ones(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="p0")
        auto = registry.register(Q_ADMIT)
        assert auto == "p1"

    def test_duplicate_id_raises(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="x")
        with pytest.raises(DuplicatePatternError):
            registry.register(Q_ADMIT, pattern_id="x")

    def test_deregister_unknown_raises(self):
        registry = PatternRegistry()
        with pytest.raises(UnknownPatternError):
            registry.deregister("nope")
        with pytest.raises(UnknownPatternError):
            registry.matches_of("nope")

    def test_predicates_shared_and_released(self):
        registry = PatternRegistry()
        a = registry.register(Q_ADMIT)
        before = registry.predicate_count
        b = registry.register(Q_ADMIT)  # same predicates: no new slots
        assert registry.predicate_count == before
        registry.deregister(a)
        assert registry.predicate_count == before
        registry.deregister(b)
        assert registry.predicate_count == 0

    def test_matches_survive_deregistration(self, chemo_events):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="keep")
        registry.push_many(chemo_events)
        summary = registry.deregister("keep")
        assert summary["id"] == "keep"
        assert registry.matches_of("keep")  # still queryable
        assert "keep" not in registry

    def test_closed_registry_rejects_registration(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT)
        registry.close()
        with pytest.raises(RegistryError):
            registry.register(Q_ADMIT)

    def test_describe_and_repr(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="q", tenant="acme")
        rows = registry.describe()
        assert rows[0]["id"] == "q"
        assert rows[0]["tenant"] == "acme"
        assert rows[0]["query"] == Q_ADMIT
        assert len(rows[0]["fingerprint"]) == 64
        assert "1 patterns" in repr(registry)

    def test_on_match_callback_fires_per_pattern(self, chemo_events):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="q")
        seen = []
        registry.on_match(lambda pid, sub: seen.append(pid))
        registry.push_many(chemo_events)
        registry.close()
        assert seen and set(seen) == {"q"}
        assert len(seen) == len(registry.matches_of("q"))


class TestRefusedChunk:
    """An out-of-order chunk is refused whole: the chronology check runs
    once, before any pattern's matcher sees an event of the chunk."""

    @staticmethod
    def two_patterns():
        registry = PatternRegistry()
        registry.register("PATTERN PERMUTE(a, b) WHERE a.L = 'A' AND "
                          "b.L = 'B' WITHIN 10", pattern_id="ab")
        registry.register("PATTERN PERMUTE(c, d) WHERE c.L = 'C' AND "
                          "d.L = 'D' WITHIN 10", pattern_id="cd")
        return registry

    def test_no_pattern_takes_part_of_a_refused_chunk(self):
        """The chunk's last event is late for ``cd`` only; before the
        check moved up, ``ab`` had consumed A and B by the time ``cd``'s
        matcher raised, and ``close()`` delivered ``{a/e2, b/e3}`` out of
        a batch the server had counted as failed."""
        registry = self.two_patterns()
        registry.push(ev(1, eid="e1", L="C"))
        assert registry.active_instances == 1
        with pytest.raises(OutOfOrderError):
            registry.push_many([ev(5, eid="e2", L="A"), ev(6, eid="e3", L="B"),
                                ev(0.5, eid="e4", L="D")])
        assert registry.active_instances == 1
        assert registry.close() == [] and registry.match_count == 0

    def test_refusal_is_a_value_error_and_leaves_the_clock_alone(self):
        registry = self.two_patterns()
        registry.push(ev(4, eid="e1", L="A"))
        with pytest.raises(ValueError):  # what the matchers used to raise
            registry.push(ev(3, eid="e2", L="B"))  # late against the registry
        with pytest.raises(RegistryError):
            registry.push_many([ev(9, eid="e3", L="B"),
                                ev(8, eid="e4", L="B")])  # within the chunk
        # Neither refusal advanced anything: T=5 is still in order, and
        # the match it completes binds none of the refused events.
        (match,) = registry.push(ev(5, eid="e5", L="B")) or registry.close()
        assert bindings(match.substitution) == {"a/e1", "b/e5"}


# ---------------------------------------------------------------------------
# Hot register/deregister against a live stream
# ---------------------------------------------------------------------------
class TestHotChurn:
    def test_late_registration_sees_only_the_suffix(self, chemo_events):
        split = len(chemo_events) // 2
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="early")
        registry.push_many(chemo_events[:split])
        registry.register(Q_ADMIT, pattern_id="late")
        registry.push_many(chemo_events[split:])
        registry.close()
        plan = compile(parse_pattern(Q_ADMIT))
        assert ([bindings(s) for s in registry.matches_of("early")]
                == [bindings(s) for s in
                    reference_matches(plan, chemo_events)])
        assert ([bindings(s) for s in registry.matches_of("late")]
                == [bindings(s) for s in
                    reference_matches(plan, chemo_events[split:])])

    def test_concurrent_churn_never_corrupts_the_stable_pattern(
            self, chemo_events):
        """Feeder and churn threads race; the stable pattern's matches
        must equal the single-threaded reference and nothing may
        deadlock or drop/double-deliver."""
        registry = PatternRegistry()
        registry.register(Q_ADMIT, pattern_id="stable")
        errors = []
        churn_done = threading.Event()

        def feeder():
            try:
                for start in range(0, len(chemo_events), 40):
                    registry.push_many(chemo_events[start:start + 40])
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def churner():
            try:
                for i in range(40):
                    pid = registry.register(
                        f"PATTERN PERMUTE(a, b) WHERE a.L = 'P' AND "
                        f"b.L = 'D' AND a.ID = b.ID WITHIN {60 + i}")
                    registry.deregister(pid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                churn_done.set()

        threads = [threading.Thread(target=feeder),
                   threading.Thread(target=churner)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive(), "deadlocked"
        assert not errors, errors
        assert churn_done.is_set()
        registry.close()
        plan = compile(parse_pattern(Q_ADMIT))
        assert ([bindings(s) for s in registry.matches_of("stable")]
                == [bindings(s) for s in
                    reference_matches(plan, chemo_events)])
        # Churned patterns released their predicates again.
        assert len(registry) == 1


# ---------------------------------------------------------------------------
# Tenancy: quotas and resource guards
# ---------------------------------------------------------------------------
class TestTenancy:
    def test_max_patterns_quota(self):
        registry = PatternRegistry()
        quota = TenantQuota(max_patterns=2)
        registry.register(Q_ADMIT, tenant="acme", quota=quota)
        second = registry.register(Q_ADMIT, tenant="acme")
        with pytest.raises(QuotaExceeded):
            registry.register(Q_ADMIT, tenant="acme")
        # Other tenants are unaffected; freeing a slot re-opens the quota.
        registry.register(Q_ADMIT, tenant="other")
        registry.deregister(second)
        registry.register(Q_ADMIT, tenant="acme")

    def test_conflicting_quota_rejected(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, tenant="acme",
                          quota=TenantQuota(max_patterns=2))
        with pytest.raises(ValueError):
            registry.register(Q_ADMIT, tenant="acme",
                              quota=TenantQuota(max_patterns=9))

    def test_default_quota_applies_to_new_tenants(self):
        registry = PatternRegistry(
            default_quota=TenantQuota(max_patterns=1))
        registry.register(Q_ADMIT, tenant="a")
        with pytest.raises(QuotaExceeded):
            registry.register(Q_ADMIT, tenant="a")

    def test_guard_raise_policy_surfaces_resource_exhausted(self):
        quota = TenantQuota(guard=GuardConfig(max_instances=2,
                                              policy="raise"))
        registry = PatternRegistry(default_quota=quota)
        registry.register("PATTERN PERMUTE(a, b) WITHIN 1000",
                          pattern_id="greedy")
        with pytest.raises(ResourceExhausted):
            registry.push_many(ev(t, K="x") for t in range(1, 30))

    def test_guard_shed_policy_bounds_omega(self):
        quota = TenantQuota(guard=GuardConfig(max_instances=3,
                                              policy="shed"))
        registry = PatternRegistry(default_quota=quota)
        registry.register("PATTERN PERMUTE(a, b) WITHIN 1000",
                          pattern_id="greedy")
        registry.push_many(ev(t, K="x") for t in range(1, 40))
        assert registry.active_instances <= 3
        stats = registry.tenant_stats()["default"]
        assert stats["guard_policy"] == "shed"
        assert stats["shed_instances"] > 0

    def test_tenant_stats_shape(self):
        registry = PatternRegistry()
        registry.register(Q_ADMIT, tenant="acme",
                          quota=TenantQuota(max_patterns=5))
        stats = registry.tenant_stats()
        assert stats["acme"] == {"patterns": 1, "max_patterns": 5}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_labeled_and_aggregate_series(self, chemo_events):
        obs = Observability()
        registry = PatternRegistry(observability=obs)
        registry.register(Q_ADMIT, pattern_id="q")
        registry.push_many(chemo_events)
        registry.close()
        snapshot = obs.registry.snapshot()
        labeled = snapshot["ses_pattern_matches_total[q]"]
        assert labeled["labels"] == {"pattern": "q"}
        assert labeled["value"] == len(registry.matches_of("q")) > 0
        assert snapshot["ses_pattern_events_total[q]"]["value"] > 0
        assert (snapshot["ses_registry_events_total"]["value"]
                == len(chemo_events))
        assert snapshot["ses_registry_matches_total"]["value"] == len(
            registry.matches_of("q"))
        assert snapshot["ses_registry_patterns"]["value"] == 1
        assert snapshot["ses_registry_predicates"]["value"] > 0

    def test_gauges_track_deregistration(self):
        obs = Observability()
        registry = PatternRegistry(observability=obs)
        pid = registry.register(Q_ADMIT)
        registry.deregister(pid)
        snapshot = obs.registry.snapshot()
        assert snapshot["ses_registry_patterns"]["value"] == 0
        assert snapshot["ses_registry_predicates"]["value"] == 0


# ---------------------------------------------------------------------------
# HTTP adapter + live ObsServer routes + CLI client
# ---------------------------------------------------------------------------
class TestHTTPAdapter:
    def test_add_list_remove_roundtrip(self):
        adapter = RegistryHTTPAdapter(PatternRegistry())
        status, row = adapter.add({"query": Q_ADMIT, "id": "q",
                                   "tenant": "acme"})
        assert status == 201 and row["id"] == "q"
        status, listing = adapter.list()
        assert status == 200
        assert [r["id"] for r in listing["patterns"]] == ["q"]
        assert listing["predicates"] > 0
        status, removed = adapter.remove("q")
        assert status == 200 and removed["id"] == "q"
        status, body = adapter.remove("q")
        assert status == 404 and "error" in body

    def test_error_statuses(self):
        registry = PatternRegistry(
            default_quota=TenantQuota(max_patterns=1))
        adapter = RegistryHTTPAdapter(registry)
        assert adapter.add("not a dict")[0] == 400
        assert adapter.add({})[0] == 400
        assert adapter.add({"query": "NOT A QUERY"})[0] == 400
        assert adapter.add({"query": Q_ADMIT, "id": 7})[0] == 400
        assert adapter.add({"query": Q_ADMIT, "tenant": 7})[0] == 400
        assert adapter.add({"query": Q_ADMIT, "id": "q"})[0] == 201
        assert adapter.add({"query": Q_ADMIT, "id": "q"})[0] == 409
        assert adapter.add({"query": Q_ADMIT, "id": "r"})[0] == 429


def _http(method, url, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)


class TestObsServerRoutes:
    def test_patterns_routes_end_to_end(self, chemo_events):
        obs = Observability()
        registry = PatternRegistry(observability=obs)
        adapter = RegistryHTTPAdapter(registry)
        with ObsServer(snapshot=obs.registry.snapshot,
                       patterns=adapter) as server:
            assert "/patterns" in server.routes
            status, row = _http("POST", server.url + "/patterns",
                                {"query": Q_ADMIT, "id": "q"})
            assert status == 201 and row["id"] == "q"
            registry.push_many(chemo_events)
            status, listing = _http("GET", server.url + "/patterns")
            assert status == 200
            assert listing["patterns"][0]["matches"] > 0
            with urllib.request.urlopen(server.url + "/varz",
                                        timeout=5) as response:
                varz = response.read().decode()
            assert "ses_pattern_matches_total[q]" in varz
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=5) as response:
                prom = response.read().decode()
            assert 'ses_pattern_matches_total{pattern="q"}' in prom
            status, _ = _http("DELETE", server.url + "/patterns/q")
            assert status == 200
            status, _ = _http("DELETE", server.url + "/patterns/q")
            assert status == 404
            status, body = _http("POST", server.url + "/patterns",
                                 {"query": "NOT A QUERY"})
            assert status == 400 and "error" in body

    def test_patterns_routes_absent_without_adapter(self):
        with ObsServer() as server:
            assert "/patterns" not in server.routes
            status, _ = _http("GET", server.url + "/patterns")
            assert status == 404


class TestCLIRegistry:
    def test_add_list_rm_against_live_server(self, capsys, tmp_path):
        registry = PatternRegistry()
        adapter = RegistryHTTPAdapter(registry)
        query_file = tmp_path / "q.ses"
        query_file.write_text(Q_ADMIT)
        with ObsServer(patterns=adapter) as server:
            code = cli_main(["registry", "add", "--server", server.url,
                             "--query-file", str(query_file),
                             "--id", "cli"])
            assert code == 0
            assert "registered cli" in capsys.readouterr().out
            code = cli_main(["registry", "list", "--server", server.url])
            assert code == 0
            out = capsys.readouterr().out
            assert "cli" in out and "1 pattern(s)" in out
            code = cli_main(["registry", "add", "--server", server.url,
                             "--query", Q_ADMIT, "--id", "cli"])
            assert code == 1
            assert "409" in capsys.readouterr().err
            code = cli_main(["registry", "rm", "cli",
                             "--server", server.url])
            assert code == 0
            assert "deregistered cli" in capsys.readouterr().out
            code = cli_main(["registry", "rm", "cli",
                             "--server", server.url])
            assert code == 1
            assert "404" in capsys.readouterr().err

    def test_unreachable_server(self, capsys):
        code = cli_main(["registry", "list",
                         "--server", "http://127.0.0.1:1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err
