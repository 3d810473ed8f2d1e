"""Tests for the partitioned batch matcher: the pool against the serial
partitioned run (``plan.match(partition_by=...)``), deterministic
merging, the wire codec, and robust pool shutdown on worker crashes and
interrupts."""

import multiprocessing
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Event, EventRelation, SESPattern
from repro.parallel import (ParallelPartitionedMatcher, WorkerCrashed,
                            decode_event, decode_substitution, encode_event,
                            encode_substitution)
from repro.parallel.pool import chunk_partitions

from conftest import bindings, match

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Every variable equi-joins on ID, so partitioning on ID is sound.
JOINED = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)

#: No joins: partition_attribute() is None.
UNJOINED = SESPattern(
    sets=[["a"], ["b"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'"],
    tau=50,
)


def make_relation(n_keys=6, reps=2):
    """``reps`` A/B/C triples per key, interleaved across keys."""
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return EventRelation(events)


def serial_partitioned(pattern, relation, **options):
    """The in-process partitioned run the pool must be identical to."""
    return match(pattern, relation, partition_by="ID", **options)


def canon(result):
    """Order-preserving canonical form of a result's matches."""
    return [bindings(s) for s in result.matches]


def assert_same_result(parallel, serial):
    assert canon(parallel) == canon(serial)
    assert ([bindings(s) for s in parallel.accepted]
            == [bindings(s) for s in serial.accepted])
    for field in ("events_read", "events_filtered", "events_processed",
                  "instances_created", "transitions_fired", "matches",
                  "max_simultaneous_instances", "accepted_buffers"):
        assert getattr(parallel.stats, field) == getattr(serial.stats, field), \
            field


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_matches_serial_partitioned_matcher(self, workers):
        relation = make_relation()
        serial = serial_partitioned(JOINED, relation)
        parallel = ParallelPartitionedMatcher(JOINED, workers=workers)
        assert parallel.attribute == "ID"
        assert_same_result(parallel.run(relation), serial)

    def test_repeated_runs_are_deterministic(self):
        relation = make_relation()
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        first, second = matcher.run(relation), matcher.run(relation)
        assert canon(first) == canon(second)
        assert first.stats.transitions_fired == second.stats.transitions_fired

    def test_accepted_selection(self):
        relation = make_relation(n_keys=3, reps=1)
        serial = serial_partitioned(JOINED, relation, selection="accepted")
        parallel = ParallelPartitionedMatcher(
            JOINED, workers=2, selection="accepted").run(relation)
        assert canon(parallel) == canon(serial)

    def test_serial_fallback_without_partition_attribute(self, caplog):
        relation = make_relation(n_keys=2, reps=1)
        with caplog.at_level("WARNING", logger="repro.parallel.pool"):
            matcher = ParallelPartitionedMatcher(UNJOINED, workers=4)
        assert matcher.attribute is None
        assert "falls back" in caplog.text
        assert canon(matcher.run(relation)) == canon(match(UNJOINED, relation))

    @settings(max_examples=10, deadline=None)
    @given(
        spec=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 3),
                      st.sampled_from("ABC")),
            max_size=30),
        workers=st.sampled_from([1, 2, 4]),
    )
    def test_property_parallel_equals_serial(self, spec, workers):
        events = [Event(ts=ts, eid=f"e{i}", kind=kind, ID=key)
                  for i, (ts, key, kind) in enumerate(spec)]
        relation = EventRelation(events)
        serial = serial_partitioned(JOINED, relation)
        parallel = ParallelPartitionedMatcher(JOINED, workers=workers)
        assert_same_result(parallel.run(relation), serial)


#: The Section 4.5 filters differ on it: ``a`` has two constant
#: conditions, so an event with V = 1 but another label passes the
#: published ("paper") filter and fails the conjunctive one.
TWO_CONSTANTS = SESPattern(
    sets=[["a", "b"]],
    conditions=["a.L = 'C'", "a.V = 1", "b.L = 'P'", "a.ID = b.ID"],
    tau=50,
)


class TestFilterMode:
    """``filter_mode`` reaches every partition's executor (it used to
    be replaced by ``"conjunctive"`` off the plain path)."""

    @staticmethod
    def relation():
        events = []
        for ts in range(1, 101):
            label = ("C", "P", "X", "X")[ts % 4]
            events.append(Event(ts=ts, eid=f"e{ts}", L=label, V=ts % 2,
                                ID=ts % 5))
        return EventRelation(events)

    @pytest.mark.parametrize("filter_mode", ["conjunctive", "paper"])
    def test_same_filtering_on_every_path(self, filter_mode):
        relation = self.relation()
        plain = match(TWO_CONSTANTS, relation, filter_mode=filter_mode)
        for options in ({"partition_by": "ID"}, {"workers": 2}):
            split = match(TWO_CONSTANTS, relation, filter_mode=filter_mode,
                          **options)
            assert (split.stats.events_filtered
                    == plain.stats.events_filtered), options
            assert canon(split) == canon(plain), options

    def test_the_modes_differ_on_this_pattern(self):
        filtered = {mode: match(TWO_CONSTANTS, self.relation(),
                                partition_by="ID",
                                filter_mode=mode).stats.events_filtered
                    for mode in ("conjunctive", "paper")}
        assert filtered["paper"] < filtered["conjunctive"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown filter mode"):
            ParallelPartitionedMatcher(JOINED, filter_mode="nope")


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelPartitionedMatcher(JOINED, workers=0)

    def test_unknown_selection(self):
        with pytest.raises(ValueError):
            ParallelPartitionedMatcher(JOINED, selection="nope")

    def test_chunks_per_worker_must_be_positive(self):
        with pytest.raises(ValueError):
            ParallelPartitionedMatcher(JOINED, chunks_per_worker=0)


class TestChunking:
    def test_near_even_contiguous(self):
        chunks = chunk_partitions(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_fewer_items_than_chunks(self):
        assert chunk_partitions([1, 2], 5) == [[1], [2]]

    def test_empty(self):
        assert chunk_partitions([], 3) == [[]]


class TestCodec:
    def test_event_round_trip(self):
        event = Event(ts=7, eid="x7", kind="A", ID=3, note="hi")
        decoded = decode_event(encode_event(event))
        assert decoded == event
        assert decoded.ts == 7 and decoded.eid == "x7"
        assert decoded.get("note") == "hi"

    def test_substitution_round_trip(self):
        relation = make_relation(n_keys=1, reps=1)
        original = serial_partitioned(JOINED, relation).matches[0]
        decoded = decode_substitution(encode_substitution(original))
        assert bindings(decoded) == bindings(original)
        assert decoded.min_ts() == original.min_ts()
        assert decoded.max_ts() == original.max_ts()


class Bomb:
    """An attribute value whose comparison raises mid-condition."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        raise RuntimeError("boom condition")

    def __reduce__(self):
        return (Bomb, ())


class Exiter:
    """An attribute value that kills the worker process outright."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        os._exit(3)

    def __reduce__(self):
        return (Exiter, ())


def _relation_with(poison):
    events = list(make_relation(n_keys=4, reps=1))
    events.append(Event(ts=100, eid="poison", kind=poison, ID=9))
    events.append(Event(ts=101, eid="b101", kind="B", ID=9))
    return EventRelation(events)


def _interrupting_chunk(chunk):
    raise KeyboardInterrupt


class TestShutdown:
    """Exception paths must join every worker — no leaked children."""

    def assert_no_leaked_children(self):
        leaked = [p for p in multiprocessing.active_children()
                  if not p.name.startswith("SyncManager")]
        assert leaked == []

    def test_crashing_condition_propagates_and_joins(self):
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        with pytest.raises(RuntimeError, match="boom condition"):
            matcher.run(_relation_with(Bomb()))
        self.assert_no_leaked_children()

    def test_dead_worker_raises_worker_crashed(self):
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        with pytest.raises(WorkerCrashed):
            matcher.run(_relation_with(Exiter()))
        self.assert_no_leaked_children()

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_keyboard_interrupt_joins_workers(self, monkeypatch):
        # Fork workers inherit the patched module, so every chunk raises.
        monkeypatch.setattr("repro.parallel.pool._run_chunk",
                            _interrupting_chunk)
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        with pytest.raises(KeyboardInterrupt):
            matcher.run(make_relation())
        self.assert_no_leaked_children()


class TestObservability:
    def test_pool_metrics_published(self):
        from repro.obs import Observability
        obs = Observability()
        matcher = ParallelPartitionedMatcher(JOINED, workers=2,
                                             observability=obs)
        result = matcher.run(make_relation())
        snapshot = obs.snapshot()
        assert snapshot["ses_pool_workers"]["value"] == 2
        assert snapshot["ses_pool_partitions_total"]["value"] == 6
        worker_events = [record["value"] for name, record in snapshot.items()
                         if name.startswith("ses_pool_worker")
                         and name.endswith("_events_total")]
        assert sum(worker_events) == result.stats.events_read
        # Worker-side stage timings merged back into the parent bundle.
        assert any(name.startswith("repro_stage_") for name in snapshot)

    def test_serial_partitioned_run_publishes_what_the_pool_does(self):
        """``plan.match(partition_by=...)`` used to drop the bundle."""
        from repro.obs import Observability
        events = list(make_relation())
        events += [Event(ts=100 + i, eid=f"x{i}", kind="X", ID=i % 6)
                   for i in range(5)]
        serial, pooled = Observability(), Observability()
        match(JOINED, events, partition_by="ID", observability=serial)
        match(JOINED, events, workers=2, observability=pooled)
        serial, pooled = serial.snapshot(), pooled.snapshot()
        for name in ("ses_events_read_total", "ses_events_filtered_total",
                     "ses_transitions_fired_total",
                     "ses_instances_created_total",
                     "ses_accepted_buffers_total", "ses_matches_total",
                     "ses_pool_partitions_total"):
            assert serial[name]["value"] == pooled[name]["value"] > 0, name

    def test_serial_fallback_publishes_single_worker(self):
        from repro.obs import Observability
        obs = Observability()
        ParallelPartitionedMatcher(JOINED, workers=1, observability=obs).run(
            make_relation(n_keys=2, reps=1))
        snapshot = obs.snapshot()
        assert snapshot["ses_pool_workers"]["value"] == 1


class TestPlanShipping:
    """Workers receive the parent's pickled plan — they never rebuild."""

    def test_accepts_a_compiled_plan(self):
        import repro
        relation = make_relation()
        plan = repro.compile(JOINED)
        serial = plan.match(relation, partition_by="ID")
        parallel = ParallelPartitionedMatcher(plan, workers=2)
        assert parallel.plan is plan
        assert_same_result(parallel.run(relation), serial)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_workers_never_rebuild_the_automaton(self, monkeypatch):
        """With the automaton builder booby-trapped after the parent
        compiled, a forked worker that tried to rebuild would crash; the
        run succeeding proves every worker reused the shipped plan."""
        import repro
        from repro.plan import clear_plan_cache
        relation = make_relation()
        clear_plan_cache()
        expected = canon(serial_partitioned(JOINED, relation))
        plan = repro.compile(JOINED)

        def explode(pattern):
            raise AssertionError(
                "build_automaton called after the plan was compiled")

        monkeypatch.setattr("repro.plan.plan.build_automaton", explode)
        monkeypatch.setattr("repro.automaton.builder.build_automaton",
                            explode)
        matcher = ParallelPartitionedMatcher(plan, workers=2,
                                             start_method="fork")
        assert canon(matcher.run(relation)) == expected

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_worker_seeding_hits_the_plan_cache(self):
        """_init_worker seeds the worker-global cache with the shipped
        plan: a second compile of an equal pattern in the worker is a
        hit, not a rebuild."""
        from repro.parallel.pool import _init_worker
        from repro.plan import clear_plan_cache, compile, plan_cache
        clear_plan_cache()
        plan = compile(JOINED)
        clear_plan_cache()  # simulate a fresh worker process
        _init_worker(plan, True, "conjunctive", "greedy", False)
        assert plan.fingerprint in plan_cache()
        before = plan_cache().stats()["misses"]
        assert compile(JOINED) is plan_cache().seed(plan)
        assert plan_cache().stats()["misses"] == before


class TestFlightDumpOnCrash:
    """A soft worker crash must ship the flight-recorder tail back."""

    def test_bomb_crash_carries_flight_dump(self):
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        with pytest.raises(WorkerCrashed) as excinfo:
            matcher.run(_relation_with(Bomb()))
        dump = excinfo.value.flight_dump
        assert dump is not None
        assert dump["steps"], "flight dump must retain execution steps"
        # The dump's last record names the poisoned event.
        last = dump["steps"][-1]
        assert last["kind"] == "crash"
        assert last["event"] == "poison"
        assert "boom condition" in last["error"]

    def test_hard_crash_has_no_dump(self):
        # os._exit gives the worker no chance to capture evidence; the
        # parent must still raise WorkerCrashed, with flight_dump=None.
        matcher = ParallelPartitionedMatcher(JOINED, workers=2)
        with pytest.raises(WorkerCrashed) as excinfo:
            matcher.run(_relation_with(Exiter()))
        assert excinfo.value.flight_dump is None

    def test_flight_capacity_zero_disables_recording(self):
        matcher = ParallelPartitionedMatcher(JOINED, workers=2,
                                             flight_capacity=0)
        with pytest.raises(RuntimeError, match="boom condition"):
            matcher.run(_relation_with(Bomb()))

    def test_worker_crashed_pickles_with_dump(self):
        import pickle
        original = WorkerCrashed("it died", flight_dump={"steps": [1]})
        clone = pickle.loads(pickle.dumps(original))
        assert str(clone) == "it died"
        assert clone.flight_dump == {"steps": [1]}


class TestMergeSnapshotPartial:
    """A partial snapshot from a crashed worker must not corrupt the
    parent's aggregated histogram state."""

    def make_obs_with_history(self):
        from repro.obs import Observability
        obs = Observability()
        histogram = obs.registry.histogram("lat", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(1.5)
        return obs, histogram

    def test_partial_histogram_record_raises_without_mutation(self):
        obs, histogram = self.make_obs_with_history()
        partial = {"lat": {"type": "histogram",
                           "buckets": [[1.0, 4], [2.0, 4]]}}  # no sum/count
        before = (list(histogram.counts), histogram.sum, histogram.count)
        with pytest.raises(ValueError, match="partial histogram"):
            obs.registry.merge_snapshot(partial)
        assert (list(histogram.counts), histogram.sum,
                histogram.count) == before

    def test_truncated_buckets_raise_without_mutation(self):
        obs, histogram = self.make_obs_with_history()
        partial = {"lat": {"type": "histogram", "buckets": [[1.0, 4]],
                           "sum": 1.0, "count": 4}}
        before = (list(histogram.counts), histogram.sum, histogram.count)
        with pytest.raises(ValueError):
            obs.registry.merge_snapshot(partial)
        assert (list(histogram.counts), histogram.sum,
                histogram.count) == before

    def test_partial_counter_and_gauge_raise(self):
        from repro.obs import MetricsRegistry
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="partial counter"):
            registry.merge_snapshot({"c": {"type": "counter"}})
        with pytest.raises(ValueError, match="partial gauge"):
            registry.merge_snapshot({"g": {"type": "gauge"}})

    def test_complete_snapshot_still_merges(self):
        obs, histogram = self.make_obs_with_history()
        obs.registry.merge_snapshot(
            {"lat": {"type": "histogram",
                     "buckets": [[1.0, 3], [2.0, 2]], "overflow": 1,
                     "sum": 9.0, "count": 6}})
        assert histogram.counts == [4, 3, 1]
        assert histogram.count == 8
        assert histogram.sum == 11.0
