"""Tests for the sharded streaming front-end: equivalence with the
single-process partitioned stream matcher, flush/close semantics, crash
detection, and shard metrics."""

import multiprocessing

import pytest

from repro import Event, SESPattern
from repro.parallel import ShardedStreamMatcher, WorkerCrashed
from repro.stream import PartitionedContinuousMatcher

from conftest import bindings

#: Every variable equi-joins on ID (sound to shard on ID).
JOINED = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)

UNJOINED = SESPattern(
    sets=[["a"], ["b"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'"],
    tau=50,
)


def stream_events(n_keys=5, reps=2):
    events = []
    ts = 0
    for _ in range(reps):
        for key in range(n_keys):
            for kind in ("A", "B", "C"):
                ts += 1
                events.append(Event(ts=ts, eid=f"e{ts}", kind=kind, ID=key))
    return events


def match_set(substitutions):
    return {bindings(s) for s in substitutions}


def run_to_close(matcher, events):
    """Every match ``matcher`` returns while pushing ``events`` and
    closing (it keeps no history of its own)."""
    with matcher:
        reported = matcher.push_many(events)
        reported += matcher.close()
    return reported


def reference_matches(events):
    matcher = PartitionedContinuousMatcher(JOINED, partition_by="ID")
    reported = []
    for event in events:
        reported.extend(matcher.push(event))
    reported.extend(matcher.close())
    return reported


class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_same_matches_as_single_process(self, shards):
        events = stream_events()
        expected = match_set(reference_matches(events))
        matcher = ShardedStreamMatcher(JOINED, workers=shards)
        assert matcher.attribute == "ID"
        reported = run_to_close(matcher, events)
        assert match_set(reported) == expected
        assert len(reported) == len(expected)
        assert matcher.match_count == len(expected)


class TestFlushClose:
    def test_flush_is_a_barrier(self):
        events = stream_events()
        matcher = ShardedStreamMatcher(JOINED, workers=3)
        reported = []
        try:
            reported += matcher.push_many(events)
            reported += matcher.flush()
            # Every routed event has been processed once flush returns.
            assert sum(matcher.events_routed) == len(events)
            assert sum(matcher._events_processed) == len(events)
            # The stream is still open: more events still match.
            extra_ts = events[-1].ts
            reported += matcher.push_many([
                Event(ts=extra_ts + 1, eid="xa", kind="A", ID=77),
                Event(ts=extra_ts + 2, eid="xb", kind="B", ID=77),
                Event(ts=extra_ts + 3, eid="xc", kind="C", ID=77),
            ])
        finally:
            reported += matcher.close()
        assert len(reported) == len(reference_matches(events)) + 1

    def test_close_is_idempotent_and_seals_the_stream(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        matcher.push_many(stream_events(n_keys=2, reps=1))
        matcher.close()
        assert matcher.close() == []
        with pytest.raises(RuntimeError, match="closed"):
            matcher.push(Event(ts=1, kind="A", ID=0))
        with pytest.raises(RuntimeError, match="closed"):
            matcher.flush()

    def test_context_manager_closes(self):
        with ShardedStreamMatcher(JOINED, workers=2) as matcher:
            matcher.push_many(stream_events(n_keys=2, reps=1))
        assert matcher._closed
        assert multiprocessing.active_children() == []

    def test_on_match_callbacks(self):
        seen = []
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        matcher.on_match(seen.append)
        reported = run_to_close(matcher, stream_events(n_keys=3, reps=1))
        assert reported
        assert [m.substitution for m in seen] == reported


class TestPipePolling:
    def test_a_call_reads_the_pipes_once_not_per_event(self):
        """``push_many`` routes its events, then polls the shards' pipes
        once (a zero-timeout ``connection.wait`` builds a selector each
        time); a full queue still reads them in ``_put``."""
        events = stream_events()
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        polls = []
        receive = matcher._receive
        matcher._receive = lambda timeout=None: (polls.append(timeout),
                                                 receive(timeout))
        reported = []
        try:
            reported += matcher.push_many(events)
            assert polls == [0]
        finally:
            reported += matcher.close()
        assert match_set(reported) == match_set(reference_matches(events))


class TestValidation:
    def test_rejects_pattern_without_partition_attribute(self):
        with pytest.raises(ValueError, match="equi-join"):
            ShardedStreamMatcher(UNJOINED, workers=2)

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardedStreamMatcher(JOINED, workers=0)

    def test_rejects_bad_queue_size(self):
        with pytest.raises(ValueError):
            ShardedStreamMatcher(JOINED, workers=1, queue_size=0)


class Bomb:
    """An attribute value whose comparison raises inside a shard."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        raise RuntimeError("boom condition")

    def __reduce__(self):
        return (Bomb, ())


class TestCrashDetection:
    def test_crashed_shard_surfaces_instead_of_hanging(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        with pytest.raises(WorkerCrashed, match="boom condition"):
            # The crash is asynchronous: the push's own drain may see it
            # already, and the flush barrier must.
            matcher.push(Event(ts=1, eid="p", kind=Bomb(), ID=4))
            matcher.flush()
        assert multiprocessing.active_children() == []
        # The matcher is unusable but further calls still fail cleanly.
        with pytest.raises(RuntimeError):
            matcher.push(Event(ts=2, kind="A", ID=0))

    def test_stop_terminates_without_results(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        matcher.push_many(stream_events(n_keys=2, reps=1))
        matcher.stop()
        assert multiprocessing.active_children() == []


class TestShardMetrics:
    def test_queue_depths_and_shard_gauges(self):
        from repro.obs import Observability
        obs = Observability()
        events = stream_events(n_keys=4, reps=1)
        with ShardedStreamMatcher(JOINED, workers=2,
                                  observability=obs) as matcher:
            matcher.push_many(events)
            assert len(matcher.queue_depths) == 2
        snapshot = obs.snapshot()
        processed = [snapshot[f"ses_shard{i}_events_total"]["value"]
                     for i in range(2)]
        assert sum(processed) == len(events)
        assert all(snapshot[f"ses_shard{i}_queue_depth"]["value"] == 0
                   for i in range(2))


class TestIdlePartitionsAreCollected:
    def test_a_shard_gives_back_the_keys_that_went_quiet(self):
        """300 keys, each matched, expired by a late event of its own and
        then silent for more than τ: the shard sweeps them out on its
        own cadence, and the matches are those of a matcher nobody ever
        collected."""
        from repro.obs import Observability
        keys = 300
        events = [Event(ts=3 * key + i, eid=f"{kind}{key}", kind=kind, ID=key)
                  for key in range(keys)
                  for i, kind in enumerate(("A", "B", "C"), start=1)]
        late = 3 * keys + JOINED.tau
        events += [Event(ts=late + key, eid=f"x{key}", kind="X", ID=key)
                   for key in range(keys)]
        expected = reference_matches(events)
        assert len(expected) == keys
        obs = Observability()
        reported = run_to_close(
            ShardedStreamMatcher(JOINED, workers=1, observability=obs),
            events)
        assert match_set(reported) == match_set(expected)
        assert len(reported) == keys
        snapshot = obs.snapshot()
        assert snapshot["ses_stream_partitions_collected_total"]["value"] > 0
        assert snapshot["ses_stream_partitions"]["value"] < keys


class TestShardFlightDump:
    def test_crash_ships_flight_dump(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        matcher.push_many(stream_events(n_keys=4, reps=1))
        with pytest.raises(WorkerCrashed) as excinfo:
            matcher.push(Event(ts=90, eid="poison", kind=Bomb(), ID=4))
            matcher.flush()
        dump = excinfo.value.flight_dump
        assert dump is not None and dump["steps"]
        last = dump["steps"][-1]
        assert last["kind"] == "crash"
        assert last["event"] == "poison"

    def test_flight_capacity_zero_still_reports_crash(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2, flight_capacity=0)
        with pytest.raises(WorkerCrashed) as excinfo:
            matcher.push(Event(ts=1, eid="p", kind=Bomb(), ID=4))
            matcher.flush()
        assert excinfo.value.flight_dump is None


class TestHealth:
    def test_healthy_while_running(self):
        with ShardedStreamMatcher(JOINED, workers=2) as matcher:
            matcher.push_many(stream_events(n_keys=2, reps=1))
            matcher.flush()
            report = matcher.health()
            assert report["status"] == "ok"
            assert report["closed"] is False
            assert report["attribute"] == "ID"
            assert len(report["shards"]) == 2
            for shard in report["shards"]:
                assert shard["alive"] is True
                assert shard["events_processed"] >= 0

    def test_ok_after_clean_close(self):
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        matcher.push_many(stream_events(n_keys=2, reps=1))
        matcher.close()
        report = matcher.health()
        assert report["status"] == "ok"
        assert report["closed"] is True

    def test_failed_after_unsupervised_shard_death(self):
        # Without a supervisor nothing will restart the shard: that is a
        # hard failure, not a degraded-but-serving state.
        matcher = ShardedStreamMatcher(JOINED, workers=2)
        with pytest.raises(WorkerCrashed):
            matcher.push(Event(ts=1, eid="p", kind=Bomb(), ID=4))
            matcher.flush()
        assert matcher.health()["status"] == "failed"
