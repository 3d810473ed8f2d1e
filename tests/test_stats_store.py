"""Tests for the persistent statistics store and the statistics-informed
condition ordering it feeds (repro.explain.stats / repro.explain.order)."""

import json
import multiprocessing

import pytest

from repro import Event, EventRelation, SESPattern
from repro.explain import (clear_stats_store, explain, explain_analyze,
                           ordered_plan, stats_store)
from repro.explain.analyze import transition_label
from repro.explain.order import rank_conditions
from repro.explain.stats import (STATS_DISABLE_ENV, STATS_FORMAT_VERSION,
                                 STATS_PATH_ENV, StatsStore, set_stats_path,
                                 stats_key)
from repro.plan.cache import as_plan

from conftest import match

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

PATTERN = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID"],
    tau=50,
)


#: Declares its rarely passing binding condition last, so observed pass
#: rates move it to the front of its transition.
MISORDERED = SESPattern(
    sets=[["a"], ["b"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "a.x <= b.x", "a.y > b.y"],
    tau=50,
)


def misordered_relation():
    return EventRelation([Event(ts=ts, eid=f"e{ts}", kind="AB"[ts % 2],
                                x=ts, y=ts % 3) for ts in range(1, 41)])


def make_relation(n_keys=4, reps=2):
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return EventRelation(events)


@pytest.fixture(autouse=True)
def fresh_stats(monkeypatch):
    monkeypatch.delenv(STATS_PATH_ENV, raising=False)
    monkeypatch.delenv(STATS_DISABLE_ENV, raising=False)
    clear_stats_store()
    yield
    clear_stats_store()


class TestObserve:
    def test_accumulates_across_runs(self):
        store = StatsStore(autosave=False)
        store.observe("fp", runs=1, events=10, matches=2,
                      filter_seen=10, filter_admitted=4)
        store.observe("fp", runs=1, events=10, matches=1,
                      filter_seen=10, filter_admitted=6)
        record = store.get("fp")
        assert record["runs"] == 2
        assert record["events"] == 20
        assert record["matches"] == 3
        assert store.prefilter_selectivity("fp") == 0.5

    def test_condition_selectivity(self):
        store = StatsStore(autosave=False)
        store.observe("fp", conditions={
            "a.kind = 'A'": {"evaluations": 100, "passes": 10}})
        assert store.condition_selectivity("fp", "a.kind = 'A'") == 0.1
        assert store.condition_selectivity("fp", "nope") is None
        assert store.condition_selectivity("other", "a.kind = 'A'") is None

    def test_transition_scoped_selectivity_falls_back(self):
        store = StatsStore(autosave=False)
        store.observe("fp", conditions={"c": {"evaluations": 10,
                                              "passes": 5}},
                      transitions={"t1": {
                          "evaluations": 4, "passes": 2, "seconds": 0.0,
                          "conditions": {"c": {"evaluations": 4,
                                               "passes": 1}}}})
        assert store.transition_condition_selectivity("fp", "t1", "c") == 0.25
        assert store.transition_condition_selectivity("fp", "t2", "c") == 0.5

    def test_get_returns_a_copy(self):
        store = StatsStore(autosave=False)
        store.observe("fp", events=5)
        store.get("fp")["events"] = 999
        assert store.get("fp")["events"] == 5

    def test_disabled_store_ignores_observe(self):
        store = StatsStore(autosave=False)
        store.disabled = True
        store.observe("fp", events=5)
        assert store.get("fp") is None


class TestPersistence:
    def test_sidecar_round_trip(self, tmp_path):
        path = tmp_path / "stats.json"
        store = StatsStore(path=path)
        store.observe("fp", runs=1, events=7)
        data = json.loads(path.read_text())
        assert data["version"] == STATS_FORMAT_VERSION
        assert data["patterns"]["fp"]["events"] == 7
        reloaded = StatsStore(path=path)
        assert reloaded.get("fp")["events"] == 7

    def test_merge_snapshot_sums(self):
        a, b = StatsStore(autosave=False), StatsStore(autosave=False)
        a.observe("fp", events=3)
        b.observe("fp", events=4)
        b.observe("other", matches=1)
        a.merge_snapshot(b.snapshot())
        assert a.get("fp")["events"] == 7
        assert a.get("other")["matches"] == 1

    def test_merge_rejects_unknown_version(self):
        store = StatsStore(autosave=False)
        with pytest.raises(ValueError):
            store.merge_snapshot({"version": 99, "patterns": {}})

    def test_env_path_binds_global_store(self, tmp_path, monkeypatch):
        path = tmp_path / "global.json"
        monkeypatch.setenv(STATS_PATH_ENV, str(path))
        clear_stats_store()
        stats_store().observe("fp", events=1)
        assert json.loads(path.read_text())["patterns"]["fp"]["events"] == 1

    def test_env_disable_knob(self, monkeypatch):
        monkeypatch.setenv(STATS_DISABLE_ENV, "1")
        clear_stats_store()
        stats_store().observe("fp", events=1)
        assert stats_store().get("fp") is None

    def test_set_stats_path_loads_existing(self, tmp_path):
        path = tmp_path / "stats.json"
        seed = StatsStore(path=path)
        seed.observe("fp", events=2)
        store = set_stats_path(path)
        assert store is stats_store()
        assert store.get("fp")["events"] == 2


class TestConditionOrdering:
    @pytest.fixture
    def observed_store(self):
        """A store that has watched PATTERN run once."""
        store = StatsStore(autosave=False)
        explain_analyze(PATTERN, make_relation(), store=store,
                        record_stats=True)
        return store

    def test_ordered_plan_ranks_selective_first(self):
        store = StatsStore(autosave=False)
        explain_analyze(MISORDERED, misordered_relation(), store=store,
                        record_stats=True)
        declared = as_plan(MISORDERED)
        ordered = ordered_plan(MISORDERED, store=store)
        first = ordered.automaton.transitions[-1].conditions[0]
        assert repr(first) == "a.y > b.y"
        fingerprint = stats_key(declared.pattern)
        for before, after in zip(declared.automaton.transitions,
                                 ordered.automaton.transitions):
            assert sorted(map(repr, after.conditions)) == \
                sorted(map(repr, before.conditions))
            label = transition_label(after)
            rates = [store.transition_condition_selectivity(
                         fingerprint, label, repr(condition))
                     for condition in after.conditions]
            ranked = [1.0 if rate is None else rate for rate in rates]
            assert ranked == sorted(ranked)

    def test_ordered_plan_identity_without_observations(self):
        plan = ordered_plan(PATTERN, store=StatsStore(autosave=False))
        assert plan is as_plan(PATTERN)

    def test_ordered_plan_same_matches(self, observed_store):
        relation = make_relation()
        declared = as_plan(PATTERN)
        ordered = ordered_plan(PATTERN, store=observed_store)
        assert ordered.fingerprint.endswith(":stats-order")
        assert any("stats-order" in rewrite for rewrite in ordered.rewrites)
        wanted = [s.bindings for s in declared.match(relation).matches]
        got = [s.bindings for s in ordered.match(relation).matches]
        assert wanted == got

    def test_rank_conditions_reports_changed_transitions(self,
                                                         observed_store):
        changed = rank_conditions(as_plan(PATTERN), store=observed_store)
        for label, conditions in changed.items():
            assert isinstance(label, str) and conditions


class TestGlobalStoreFeedback:
    """``explain_analyze`` records into the process-global store, and
    ``ordered_plan`` reads it back without being handed a store."""

    def test_ordered_plan_picks_up_global_stats(self):
        relation = misordered_relation()
        explain_analyze(MISORDERED, relation)  # records into the global store
        ordered = ordered_plan(MISORDERED)
        assert ordered.fingerprint.endswith(":stats-order")
        assert list(rank_conditions(MISORDERED)) == ["a --b--> ab"]
        assert ("rewrite: stats-order: reordered conditions on 1 "
                "transition(s)") in explain(ordered).render("text")
        # the ordered execution still finds the same matches
        baseline = match(MISORDERED, relation)
        assert baseline.matches
        planned = ordered.match(relation)
        assert ([s.bindings for s in planned.matches]
                == [s.bindings for s in baseline.matches])

    def test_ordered_plan_without_global_stats_is_the_cached_plan(self):
        assert ordered_plan(PATTERN) is as_plan(PATTERN)


class TestWorkerMerge:
    """Pool and shard workers ship their observations back to the
    parent's global store (runs counted once, in the parent)."""

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_pool_run_lands_in_global_store(self):
        from repro.obs import Observability
        from repro.parallel import ParallelPartitionedMatcher
        relation = make_relation()
        result = ParallelPartitionedMatcher(
            PATTERN, workers=2, observability=Observability()).run(relation)
        record = stats_store().get(stats_key(as_plan(PATTERN).pattern))
        assert record is not None
        assert record["runs"] == 1, "runs counted once, in the parent"
        assert record["events"] == len(relation)
        assert record["matches"] == len(result.matches)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_sharded_stream_lands_in_global_store(self):
        from repro.obs import Observability
        from repro.parallel import ShardedStreamMatcher
        events = list(make_relation())
        matcher = ShardedStreamMatcher(PATTERN, workers=2,
                                       observability=Observability())
        reported = []
        for event in events:
            reported.extend(matcher.push(event))
        reported.extend(matcher.close())
        record = stats_store().get(stats_key(as_plan(PATTERN).pattern))
        assert record is not None
        assert record["runs"] == 1
        assert record["events"] == len(events)
        assert record["matches"] == len(reported)

    def test_uninstrumented_runs_leave_no_trace(self):
        match(PATTERN, make_relation())
        assert len(stats_store()) == 0
