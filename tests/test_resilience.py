"""Fault-tolerance tests: supervised shard restart with checkpoint/
replay, poison-event quarantine, runtime resource guards, the chaos
harness, and checkpoint/restore determinism.

The chaos scenarios use integer partition keys: ``hash(int) == int`` is
stable across interpreters, so ``key % workers`` tells the test exactly
which shard an event lands on — fault plans can target specific
per-shard sequence numbers deterministically.
"""

import json
import multiprocessing
import pickle
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import (DeadLetterQueue, Event, FaultPlan, GuardConfig,
                   ResourceExhausted, RestartPolicy, SESPattern, Supervisor,
                   WorkerCrashed)
from repro.obs import Observability
from repro.parallel import ParallelPartitionedMatcher, ShardedStreamMatcher
from repro.resilience import EventLog
from repro.resilience.chaos import InjectedFault
from repro.stream import PartitionedContinuousMatcher

from conftest import bindings

#: Every variable equi-joins on ID (sound to shard on ID).
JOINED = SESPattern(
    sets=[["a", "b"], ["c"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                "a.ID = b.ID", "a.ID = c.ID", "b.ID = c.ID"],
    tau=50,
)

#: k = 2 group variables: the Section 4.4 exponential-instance regime.
GROUPY = SESPattern(
    sets=[["p+", "q+"]],
    conditions=["p.kind = 'M'", "q.kind = 'M'", "p.ID = q.ID"],
    tau=100,
)

def stream_events(n_keys=6, reps=1):
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


def reference_matches(events, pattern=JOINED):
    matcher = PartitionedContinuousMatcher(pattern, partition_by="ID")
    reported = matcher.push_many(events)
    reported.extend(matcher.close())
    return reported


def supervised_matcher(faults=None, workers=2, checkpoint_every=4,
                       quarantine_after=2, observability=None, guard=None,
                       max_restarts=5):
    supervisor = Supervisor(
        restart=RestartPolicy(backoff=0.01, max_backoff=0.05,
                              max_restarts=max_restarts),
        checkpoint_every=checkpoint_every,
        quarantine_after=quarantine_after, faults=faults,
        dead_letter=DeadLetterQueue())
    matcher = ShardedStreamMatcher(
        JOINED, workers=workers, partition_by="ID", supervisor=supervisor,
        observability=observability, guard=guard)
    return matcher, supervisor


# ----------------------------------------------------------------------
# Chaos: crash recovery converges to the fault-free match set
# ----------------------------------------------------------------------
class TestCrashRecovery:
    def test_kill_each_shard_once_converges(self):
        events = stream_events(n_keys=6, reps=2)
        expected = match_set(reference_matches(events))
        faults = FaultPlan().kill(0, 4).kill(1, 3)
        matcher, supervisor = supervised_matcher(faults)
        with matcher:
            matcher.push_many(events)
        assert supervisor.restarts_total == 2
        assert match_set(matcher.matches) == expected
        # Exactly-once: replay must not duplicate a delivered match.
        assert len(matcher.matches) == len(expected)

    def test_hard_kill_recovers_via_shared_seq_cell(self):
        # os._exit gives the worker no chance to report; the supervisor
        # attributes the crash via the shared in-flight sequence cell.
        events = stream_events(n_keys=6, reps=2)
        expected = match_set(reference_matches(events))
        faults = FaultPlan().kill(0, 5, mode="exit")
        matcher, supervisor = supervised_matcher(faults)
        with matcher:
            matcher.push_many(events)
        assert supervisor.restarts_total == 1
        assert match_set(matcher.matches) == expected
        assert len(matcher.matches) == len(expected)

    def test_crash_during_flush_barrier(self):
        events = stream_events(n_keys=4)
        expected = match_set(reference_matches(events))
        # Shard 0 sees keys 0 and 2 -> 6 events; die on the last one,
        # which is still in flight when flush() raises the barrier.
        faults = FaultPlan().kill(0, 6)
        matcher, supervisor = supervised_matcher(faults)
        matcher.push_many(events)
        matcher.flush()  # must recover, re-issue the barrier, and return
        assert supervisor.restarts_total == 1
        assert sum(matcher.events_routed) == len(events)
        matcher.close()
        assert match_set(matcher.matches) == expected

    def test_crash_between_checkpoints_replays_the_wal(self):
        events = stream_events(n_keys=6, reps=3)
        expected = match_set(reference_matches(events))
        # checkpoint_every=2 -> the kill at seq 7 lands one event after
        # the seq-6 checkpoint; recovery restores and replays the tail.
        faults = FaultPlan().kill(0, 7)
        matcher, supervisor = supervised_matcher(faults, checkpoint_every=2)
        with matcher:
            matcher.push_many(events)
        report = supervisor.report()
        assert report["shards"][0]["checkpoint_seq"] >= 2
        assert match_set(matcher.matches) == expected
        assert len(matcher.matches) == len(expected)

    def test_restart_budget_exhausted_fails_hard(self):
        # Two kills but a budget of one: the second crash must abort.
        faults = FaultPlan().kill(0, 2).kill(0, 3)
        matcher, supervisor = supervised_matcher(faults, max_restarts=1)
        with pytest.raises(WorkerCrashed, match="restart budget"):
            matcher.push_many(stream_events(n_keys=6, reps=2))
            matcher.close()
        assert supervisor.failed is True
        assert matcher.health()["status"] == "failed"
        assert multiprocessing.active_children() == []

    def test_restart_metrics_published(self):
        obs = Observability()
        faults = FaultPlan().kill(0, 3)
        matcher, supervisor = supervised_matcher(faults, observability=obs)
        with matcher:
            matcher.push_many(stream_events(n_keys=4))
        snapshot = obs.snapshot()
        assert snapshot["ses_restarts_total"]["value"] == 1
        assert snapshot["ses_restart_backoff_seconds"]["value"] > 0


# ----------------------------------------------------------------------
# Quarantine: poison events go to the dead-letter queue
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_double_crash_quarantines_poison_event(self, tmp_path):
        obs = Observability()
        events = stream_events(n_keys=6)
        # Corruption is deterministic in the event, so the replay crashes
        # on it again: crash -> restart -> crash -> quarantine.
        faults = FaultPlan().corrupt(0, 2)
        matcher, supervisor = supervised_matcher(faults, observability=obs)
        with matcher:
            matcher.push_many(events)
        dead_letter = supervisor.dead_letter
        assert len(dead_letter) == 1
        assert supervisor.restarts_total == 2
        entry = dead_letter.entries[0]
        assert entry.shard == 0 and entry.seq == 2
        assert entry.crashes == 2
        assert "InjectedFault" in entry.reason
        # The crash evidence rides along: a flight dump ending in the
        # crash marker for the poisoned event.
        assert entry.flight_dump is not None
        assert entry.flight_dump["steps"][-1]["kind"] == "crash"
        # The poisoned B event kills exactly one key's match; every
        # other key still matches.
        expected = match_set(reference_matches(
            [e for e in events if e.eid != entry.event.eid]))
        assert match_set(matcher.matches) == expected
        assert obs.snapshot()["ses_quarantined_events"]["value"] == 1

        path = tmp_path / "dead.jsonl"
        assert dead_letter.write_jsonl(path) == 1
        record = json.loads(path.read_text().splitlines()[0])
        assert record["shard"] == 0 and record["seq"] == 2
        assert record["crashes"] == 2
        # The parent's WAL holds the event as *ingested* — corruption
        # happened worker-side — so the dead-letter line is re-ingestable.
        assert record["event"]["attrs"]["kind"] == "B"
        assert record["event"]["eid"] == entry.event.eid

    def test_quarantined_event_skipped_on_later_replays(self):
        # After the quarantine, a *further* kill must replay the WAL
        # without tripping over the parked event again.
        events = stream_events(n_keys=6, reps=2)
        faults = FaultPlan().corrupt(0, 2).kill(0, 9)
        matcher, supervisor = supervised_matcher(faults)
        with matcher:
            matcher.push_many(events)
        assert len(supervisor.dead_letter) == 1
        assert supervisor.restarts_total == 3  # 2 for poison, 1 for kill
        assert matcher.health()["status"] == "degraded"


# ----------------------------------------------------------------------
# The supervisor's bookkeeping primitives
# ----------------------------------------------------------------------
class TestSupervisorPrimitives:
    def test_event_log_append_trim_find(self):
        log = EventLog()
        for seq in range(1, 8):
            log.append(seq, ("wire", seq))
        assert len(log) == 7
        assert log.find(3) == ("wire", 3)
        log.trim_through(4)
        assert len(log) == 3
        assert log.find(3) is None
        assert [seq for seq, _ in log.entries_after(5)] == [6, 7]

    def test_should_deliver_is_a_high_water_mark(self):
        supervisor = Supervisor()

        class FakeMatcher:
            n_shards = 1
            obs = None

        supervisor.bind(FakeMatcher())
        assert supervisor.should_deliver(0, 1) is True
        assert supervisor.should_deliver(0, 2) is True
        assert supervisor.should_deliver(0, 2) is False  # replayed
        assert supervisor.should_deliver(0, 1) is False  # replayed
        assert supervisor.should_deliver(0, 3) is True

    def test_restart_policy_delay_deterministic_and_bounded(self):
        policy = RestartPolicy(backoff=0.1, multiplier=2.0, max_backoff=0.5,
                               jitter=0.1, seed=42)
        delays = [policy.delay(0, attempt) for attempt in range(1, 6)]
        assert delays == [policy.delay(0, a) for a in range(1, 6)]
        for attempt, delay in enumerate(delays, start=1):
            base = min(0.1 * 2 ** (attempt - 1), 0.5)
            assert base * 0.9 <= delay <= base * 1.1
        # Jitter de-synchronises shards.
        assert policy.delay(0, 1) != policy.delay(1, 1)

    def test_restart_policy_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            Supervisor(checkpoint_every=0)
        with pytest.raises(ValueError):
            Supervisor(quarantine_after=0)

    def test_supervisor_binds_exactly_once(self):
        supervisor = Supervisor()

        class FakeMatcher:
            n_shards = 1
            obs = None

        supervisor.bind(FakeMatcher())
        with pytest.raises(RuntimeError, match="exactly one"):
            supervisor.bind(FakeMatcher())

    def test_fault_plan_is_immutable_and_per_shard(self):
        plan = FaultPlan().kill(0, 3).corrupt(1, 2).delay(0, 1, 0.5)
        more = plan.kill(0, 9)
        assert len(plan.for_shard(0)) == 2  # fluent API copies
        assert len(more.for_shard(0)) == 3
        kinds = [fault[1] for fault in plan.for_shard(0)]
        assert kinds == ["kill", "delay"]
        assert plan.for_shard(1) == [(2, "corrupt")]
        assert plan.for_shard(7) == []


# ----------------------------------------------------------------------
# Resource guards
# ----------------------------------------------------------------------
def feed_m_events(executor, count, key=0):
    for ts in range(1, count + 1):
        executor.feed(Event(ts=ts, eid=f"m{ts}", kind="M", ID=key))


class TestResourceGuards:
    def test_raise_policy_trips_deterministically(self):
        # k = 2 group variables blow up combinatorially (Section 4.4);
        # the ceiling must fire long before the population approaches
        # the theoretical k^(W·|V1|) bound.
        plan = repro.compile(GROUPY)

        def run_until_trip():
            executor = plan.executor(
                guard=GuardConfig(max_instances=64))
            with pytest.raises(ResourceExhausted) as excinfo:
                feed_m_events(executor, 64)
            return executor.stats.events_read, excinfo.value

        first_read, error = run_until_trip()
        second_read, _ = run_until_trip()
        assert first_read == second_read  # same input -> same trip point
        assert error.resource == "instances"
        assert error.limit == 64
        assert error.observed > 64

    def test_raise_policy_pickles(self):
        error = ResourceExhausted("instances", 10, 14)
        clone = pickle.loads(pickle.dumps(error))
        assert clone.resource == "instances"
        assert clone.limit == 10 and clone.observed == 14

    def test_shed_policy_keeps_population_bounded(self):
        executor = repro.compile(GROUPY).executor(
            guard=GuardConfig(max_instances=16, policy="shed"))
        feed_m_events(executor, 40)
        assert executor.active_instances <= 16
        stats = executor.guard.stats()
        assert stats["shed"] > 0 and stats["trips"] > 0

    def test_degrade_policy_bounds_group_arity(self):
        executor = repro.compile(GROUPY).executor(
            guard=GuardConfig(max_instances=16, policy="degrade",
                              degrade_arity=2))
        feed_m_events(executor, 40)
        assert executor.active_instances <= 16
        assert executor.guard.degraded_total > 0
        for instance in executor.instances():
            for variable in instance.state:
                if variable.is_group:
                    assert len(instance.buffer.events_of(variable)) <= 16

    def test_a_byte_ceiling_that_never_trips_lists_no_instance(
            self, monkeypatch):
        """The byte ceiling reads ``executor.buffered_events``, kept per
        run: checking it after every event materialises no instance,
        while what it reads is every instance's buffer length, summed —
        through branching, coalescing and expiries that leave part of a
        run behind."""
        from repro.automaton import SESExecutor
        plan = repro.compile(SESPattern(
            sets=[["p+", "q+"]],
            conditions=["p.kind = 'M'", "q.kind = 'M'", "p.ID = q.ID"],
            tau=4))
        guarded = plan.executor(guard=GuardConfig(max_buffer_bytes=10**12))
        unguarded = plan.executor()
        listed = []
        instances = SESExecutor.instances

        def counted(executor):
            listed.append(executor)
            return instances(executor)

        monkeypatch.setattr(SESExecutor, "instances", counted)
        for ts in range(1, 13):
            event = Event(ts=ts, eid=f"m{ts}", kind="M", ID=0)
            guarded.feed(event)
            unguarded.feed(event)
            assert unguarded.buffered_events == sum(
                len(instance.buffer) for instance in unguarded.instances())
        assert guarded.guard.trips == 0
        assert guarded not in listed
        assert guarded.buffered_events == unguarded.buffered_events > 0
        assert guarded.stats.expired_instances > 0

    def test_guard_counters_reach_the_registry(self):
        obs = Observability()
        executor = repro.compile(GROUPY).executor(
            guard=GuardConfig(max_instances=16, policy="shed"),
            observability=obs)
        feed_m_events(executor, 40)
        snapshot = obs.snapshot()
        assert snapshot["ses_shed_instances"]["value"] > 0
        assert snapshot["ses_guard_trips_total"]["value"] > 0

    def test_from_bounds_caps_at_the_rss_budget(self):
        config = GuardConfig.from_bounds(GROUPY, window=20,
                                         max_rss_bytes=512 * 1000)
        # The theoretical k>1 bound is astronomical; the RSS budget wins.
        assert config.max_instances == 1000
        assert config.max_buffer_bytes == 512 * 1000
        tight = GuardConfig.from_bounds(JOINED, window=3,
                                        max_rss_bytes=512 * 10**9)
        from repro.complexity.bounds import pattern_instance_bound
        assert tight.max_instances == pattern_instance_bound(JOINED, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="no ceiling"):
            GuardConfig()
        with pytest.raises(ValueError, match="policy"):
            GuardConfig(max_instances=10, policy="panic")
        with pytest.raises(ValueError):
            GuardConfig(max_instances=0)
        with pytest.raises(ValueError):
            GuardConfig(max_event_seconds=0.0)

    def test_guarded_stream_matcher_sheds_and_reports(self):
        obs = Observability()
        events = [Event(ts=ts, eid=f"m{ts}", kind="M", ID=ts % 2)
                  for ts in range(1, 31)]
        matcher = ShardedStreamMatcher(
            GROUPY, workers=2, partition_by="ID", observability=obs,
            guard=GuardConfig(max_instances=8, policy="shed"))
        with matcher:
            matcher.push_many(events)
            matcher.flush()
        report = matcher.health()
        assert report["guard"]["shed"] > 0
        assert obs.snapshot()["ses_shed_instances"]["value"] > 0


# ----------------------------------------------------------------------
# Chaos harness unit behaviour
# ----------------------------------------------------------------------
class TestChaosHarness:
    def test_corrupt_spares_the_partition_attribute(self):
        from repro.resilience.chaos import FaultInjector
        injector = FaultInjector([(1, "corrupt")], spare_attribute="ID")
        event = injector.before(1, Event(ts=5, eid="x", kind="A", ID=3))
        assert event.get("ID") == 3  # still routable
        with pytest.raises(InjectedFault):
            event.get("kind") == "A"

    def test_delay_fault_sleeps(self):
        from repro.resilience.chaos import FaultInjector
        injector = FaultInjector([(1, "delay", 0.05)], spare_attribute="ID")
        start = time.perf_counter()
        injector.before(1, Event(ts=1, eid="x", kind="A", ID=0))
        assert time.perf_counter() - start >= 0.05

    def test_kill_raise_fault(self):
        from repro.resilience.chaos import FaultInjector
        injector = FaultInjector([(2, "kill", "raise")], spare_attribute="ID")
        injector.before(1, Event(ts=1, eid="x", kind="A", ID=0))
        with pytest.raises(InjectedFault):
            injector.before(2, Event(ts=2, eid="y", kind="A", ID=0))


# ----------------------------------------------------------------------
# Checkpoint / restore determinism (Hypothesis)
# ----------------------------------------------------------------------
@st.composite
def event_streams(draw):
    length = draw(st.integers(min_value=3, max_value=18))
    ts = 0
    events = []
    for index in range(length):
        ts += draw(st.integers(min_value=1, max_value=5))
        kind = draw(st.sampled_from("ABC"))
        key = draw(st.integers(min_value=0, max_value=2))
        events.append(Event(ts=ts, eid=f"{kind}{index}", kind=kind, ID=key))
    return events


class TestCheckpointRestore:
    @given(events=event_streams(),
           cut=st.integers(min_value=0, max_value=18),
           selection=st.sampled_from(["paper", "accepted", "all-starts"]),
           consume=st.sampled_from(["greedy", "exhaustive", "contiguous"]))
    @settings(max_examples=60, deadline=None)
    def test_resume_is_byte_identical(self, events, cut, selection, consume):
        """checkpoint -> restore -> resume == the uninterrupted run.

        Execution is deterministic in the event sequence, so a restored
        executor must produce the same matches *and* the same serialised
        final state as one that never stopped — the invariant the
        supervisor's replay correctness rests on.
        """
        cut = min(cut, len(events))
        plan = repro.compile(JOINED)

        def fresh():
            return plan.executor(selection=selection, consume=consume)

        straight = fresh()
        expected = []
        for event in events:
            expected.extend(straight.feed(event))
        expected.extend(straight.finish())

        first = fresh()
        resumed_out = []
        for event in events[:cut]:
            resumed_out.extend(first.feed(event))
        payload = pickle.dumps(first.state_dict(),
                               protocol=pickle.HIGHEST_PROTOCOL)
        resumed = fresh()
        resumed.load_state(pickle.loads(payload))
        for event in events[cut:]:
            resumed_out.extend(resumed.feed(event))
        resumed_out.extend(resumed.finish())

        assert ([bindings(s) for s in resumed_out]
                == [bindings(s) for s in expected])
        # The surviving execution state must agree too (frozenset pickle
        # bytes are order-sensitive, so compare semantically).
        final_resumed = resumed.state_dict()
        final_straight = straight.state_dict()
        assert final_resumed["omega"] == final_straight["omega"]
        assert final_resumed["stats"] == final_straight["stats"]
        assert final_resumed["last_ts"] == final_straight["last_ts"]

    def test_a_long_group_chain_survives_the_checkpoint(self):
        """A match buffer is a chain of parent-pointer nodes; pickled as
        nested objects, one ``p+`` run of a few hundred events would
        overflow the interpreter's recursion limit.  A 5 000-event run
        goes through ``snapshot_state`` → ``restore_state`` (the format
        shard checkpoints ship), and the restored matcher continues
        exactly like the one that never stopped."""
        from repro.resilience.checkpoint import restore_state, snapshot_state
        from repro.stream import ContinuousMatcher
        plan = repro.compile(SESPattern(
            sets=[["a"], ["p+"], ["b"]],
            conditions=["a.kind = 'A'", "p.kind = 'P'", "b.kind = 'B'",
                        "a.ID = p.ID", "a.ID = b.ID"], tau=10 ** 6))
        events = ([Event(ts=0, eid="a0", kind="A", ID=1)]
                  + [Event(ts=ts, eid=f"p{ts}", kind="P", ID=1)
                     for ts in range(1, 5011)]
                  + [Event(ts=5011, eid="b", kind="B", ID=1)])
        cut = 5001
        straight = ContinuousMatcher(plan)
        expected = straight.push_many(events) + straight.close()
        first = ContinuousMatcher(plan)
        before = first.push_many(events[:cut])
        (instance,) = first._executor.instances()
        assert len(instance.buffer) == cut
        resumed = ContinuousMatcher(plan)
        restore_state(resumed, snapshot_state(first))
        (restored,) = resumed._executor.instances()
        assert restored.buffer.bindings() == instance.buffer.bindings()
        assert restored.buffer.registers == instance.buffer.registers
        out = before + resumed.push_many(events[cut:]) + resumed.close()
        assert [bindings(s) for s in out] == [bindings(s) for s in expected]
        assert len(expected) == 1 and len(expected[0]) == len(events)
        assert (resumed._executor.stats.transitions_fired
                == straight._executor.stats.transitions_fired)

    def test_continuous_matcher_roundtrip_preserves_suppression(self):
        # The used-event set must survive the trip, or a restored shard
        # would re-report matches overlapping pre-crash ones.
        events = stream_events(n_keys=3)
        plan = repro.compile(JOINED)
        source = PartitionedContinuousMatcher(plan, partition_by="ID")
        reported = source.push_many(events[:6])
        state = pickle.dumps(source.state_dict())
        clone = PartitionedContinuousMatcher(plan, partition_by="ID")
        clone.load_state(pickle.loads(state))
        out = clone.push_many(events[6:]) + clone.close()
        tail = PartitionedContinuousMatcher(plan, partition_by="ID")
        expected = tail.push_many(events) + tail.close()
        assert match_set(reported + out) == match_set(expected)
        assert len(reported) + len(out) == len(expected)

    def test_a_snapshot_holds_no_buffer_the_executor_already_returned(self):
        """A checkpoint is what the run still needs.  The buffers
        ``feed`` handed out are the caller's: an executor that kept them
        grew every shard checkpoint with the length of the stream."""
        executor = repro.compile(JOINED).executor(selection="accepted",
                                                  expire_on_filtered=True)
        returned, sizes = [], []
        for round_ in range(40):
            base = 1000 * round_
            for i, kind in enumerate("ABCX"):  # X: filtered, expires abc
                returned += executor.feed(Event(
                    ts=base + 100 * (kind == "X") + i,
                    eid=f"{kind}{round_}", kind=kind, ID=1))
            sizes.append(len(pickle.dumps(executor.state_dict())))
        assert len(returned) == 40
        one_buffer = len(pickle.dumps(returned[:1]))
        assert max(sizes) - min(sizes) < one_buffer, sizes
        # A snapshot written before this held them under "accepted";
        # restoring one reads what it needs and nothing else.
        old = dict(executor.state_dict(), accepted=list(returned))
        restored = repro.compile(JOINED).executor(selection="accepted")
        restored.load_state(old)
        assert restored.state_dict().keys() == executor.state_dict().keys()
        assert "accepted" not in restored.state_dict()


# ----------------------------------------------------------------------
# Satellite fixes
# ----------------------------------------------------------------------
class TestClosePartialResults:
    def test_close_attaches_matches_drained_before_the_crash(self):
        # Shard 0 dies on its last event after a delay, so shard 1's
        # close ack (with its matches) is drained first; the crash must
        # not discard that completed work.
        events = stream_events(n_keys=4)
        faults = FaultPlan().delay(0, 5, 0.75).kill(0, 6, mode="raise")
        matcher = ShardedStreamMatcher(JOINED, workers=2, partition_by="ID",
                                       faults=faults)
        matcher.push_many(events)
        with pytest.raises(WorkerCrashed) as excinfo:
            matcher.close()
        partial = excinfo.value.partial_matches
        assert match_set(partial) == match_set(reference_matches(
            [e for e in events if e.get("ID") % 2 == 1]))
        assert multiprocessing.active_children() == []


class SlowEq:
    """An attribute value whose comparison blocks a pool worker."""

    __hash__ = object.__hash__

    def __eq__(self, other):
        time.sleep(8)
        return False

    def __reduce__(self):
        return (SlowEq, ())


class TestPoolInterrupt:
    def test_keyboard_interrupt_terminates_busy_workers(self, monkeypatch):
        """Ctrl-C between submit and first result must not leave zombie
        pool processes behind (shutdown would block on running chunks)."""
        from concurrent.futures import Future

        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(Future, "result", interrupted)
        events = [Event(ts=ts, eid=f"s{ts}", kind=SlowEq(), ID=ts)
                  for ts in range(1, 5)]
        matcher = ParallelPartitionedMatcher(JOINED, workers=2,
                                             partition_by="ID")
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            matcher.run(events)
        elapsed = time.monotonic() - start
        assert elapsed < 6  # did not wait out the 8 s sleeps
        assert multiprocessing.active_children() == []


class TestCLI:
    Q1_TEXT = ("PATTERN PERMUTE(c, p+, d) THEN b "
               "WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B' "
               "AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID "
               "WITHIN 264")

    @pytest.fixture
    def figure1_csv(self, tmp_path, figure1):
        from repro.storage import save_relation
        path = tmp_path / "events.csv"
        save_relation(figure1, path)
        return path

    def test_match_dead_letter_clean_run(self, figure1_csv, tmp_path,
                                         capsys):
        from repro.cli import main
        dead = tmp_path / "dead.jsonl"
        code = main(["match", "--data", str(figure1_csv),
                     "--query", self.Q1_TEXT,
                     "--dead-letter", str(dead)])
        assert code == 0
        # Streaming semantics: accepted buffers with suppression.
        assert "match(es) in 14 events" in capsys.readouterr().out
        # The file is always written; empty means the run was clean.
        assert dead.read_text() == ""

    def test_guard_flags_require_single_worker_or_supervision(
            self, figure1_csv, capsys):
        from repro.cli import main
        code = main(["match", "--data", str(figure1_csv),
                     "--query", self.Q1_TEXT, "--workers", "2",
                     "--max-instances", "100"])
        assert code == 1
        assert "supervised" in capsys.readouterr().err

    def test_guard_trip_exits_4(self, figure1_csv, capsys):
        from repro.cli import main
        code = main(["match", "--data", str(figure1_csv),
                     "--query", self.Q1_TEXT, "--max-instances", "1",
                     "--guard-policy", "raise"])
        assert code == 4
        assert "resource guard" in capsys.readouterr().err

    def test_serve_once_supervised(self, figure1_csv, tmp_path, capsys):
        from repro.cli import main
        dead = tmp_path / "dead.jsonl"
        code = main(["serve", "--data", str(figure1_csv),
                     "--query", self.Q1_TEXT, "--once",
                     "--listen", "127.0.0.1:0", "--supervise",
                     "--dead-letter", str(dead)])
        out = capsys.readouterr().out
        assert code == 0
        assert "done:" in out
        assert dead.read_text() == ""


class TestDegradedHealth:
    def test_degraded_after_supervised_restart(self):
        faults = FaultPlan().kill(0, 2)
        matcher, supervisor = supervised_matcher(faults)
        with matcher:
            matcher.push_many(stream_events(n_keys=4))
            matcher.flush()
            report = matcher.health()
            assert report["status"] == "degraded"
            assert report["supervised"] is True
            assert report["supervisor"]["restarts_total"] == 1
            assert report["shards"][0]["restarts"] == 1

    def test_healthz_degraded_answers_200_failed_answers_503(self):
        import urllib.error
        import urllib.request

        from repro.obs import ObsServer

        reports = [{"status": "degraded", "detail": "restarts in budget"},
                   {"status": "failed"}]

        def health():
            report = reports.pop(0)
            return report["status"] != "failed", report

        server = ObsServer(host="127.0.0.1", port=0, snapshot=dict,
                           health=health).start()
        try:
            with urllib.request.urlopen(server.url + "/healthz",
                                        timeout=5) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "degraded"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/healthz", timeout=5)
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "failed"
        finally:
            server.stop()


class TestDeadLetterDurability:
    """Line-atomic dead-letter appends and the REPRO_DLQ_MAX_BYTES cap."""

    @staticmethod
    def _entry(i):
        from repro.resilience import QuarantinedEvent
        return QuarantinedEvent(
            shard=0, seq=i, reason="poison",
            event=Event(ts=i, attrs={"L": "X"}, eid=f"p{i}"), crashes=2)

    def test_atomic_append_accumulates_lines(self, tmp_path):
        from repro.resilience import atomic_append_jsonl
        path = tmp_path / "dlq.jsonl"
        for i in range(5):
            atomic_append_jsonl(path, {"seq": i})
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["seq"] for r in records] == [0, 1, 2, 3, 4]

    def test_append_after_a_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "dlq.jsonl"
        queue = DeadLetterQueue()
        queue.append_jsonl(path, self._entry(0))
        with open(path, "a") as handle:
            handle.write('{"shard": 0, "seq": 1, "ev')  # crash mid-write
        queue.append_jsonl(path, self._entry(2))
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert [json.loads(line)["seq"] for line in (lines[0], lines[2])] \
            == [0, 2]
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[1])

    def test_append_rotates_at_the_byte_cap(self, tmp_path):
        from repro.resilience import atomic_append_jsonl, rotated_path
        path = tmp_path / "dlq.jsonl"
        line_size = len(json.dumps({"seq": 0}) + "\n")
        cap = 3 * line_size  # room for three lines per generation
        for i in range(8):
            atomic_append_jsonl(path, {"seq": i}, max_bytes=cap)
        current = [json.loads(line)["seq"]
                   for line in path.read_text().splitlines()]
        rotated = [json.loads(line)["seq"]
                   for line in rotated_path(path).read_text().splitlines()]
        # .1 then current reads the most recent history in order, and
        # the pair never exceeds ~2x the cap
        assert rotated + current == list(range(8))[-len(rotated
                                                       + current):]
        assert path.stat().st_size <= cap
        assert rotated_path(path).stat().st_size <= cap

    def test_env_knob_enables_rotation(self, tmp_path, monkeypatch):
        from repro.resilience import (DLQ_MAX_BYTES_ENV,
                                      atomic_append_jsonl, rotated_path)
        path = tmp_path / "dlq.jsonl"
        line_size = len(json.dumps({"seq": 0}) + "\n")
        monkeypatch.setenv(DLQ_MAX_BYTES_ENV, str(2 * line_size))
        for i in range(5):
            atomic_append_jsonl(path, {"seq": i})
        assert rotated_path(path).exists()

    def test_env_knob_rejects_garbage(self, tmp_path, monkeypatch):
        from repro.resilience import DLQ_MAX_BYTES_ENV, atomic_append_jsonl
        monkeypatch.setenv(DLQ_MAX_BYTES_ENV, "lots")
        with pytest.raises(ValueError, match="integer byte count"):
            atomic_append_jsonl(tmp_path / "dlq.jsonl", {"seq": 0})

    def test_snapshot_truncates_oldest_with_marker(self, tmp_path):
        queue = DeadLetterQueue()
        for i in range(20):
            queue.add(self._entry(i))
        path = tmp_path / "dlq.jsonl"
        full_size = sum(
            len(json.dumps(e.to_json(), default=str) + "\n")
            for e in queue)
        assert queue.write_jsonl(path, max_bytes=full_size // 2) == 20
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert "truncated" in lines[0] and lines[0]["truncated"] > 0
        kept = [r["seq"] for r in lines[1:]]
        # the newest entries survive, in order
        assert kept == list(range(20))[-len(kept):]
        assert path.stat().st_size <= full_size // 2 + 200

    def test_snapshot_unbounded_keeps_everything(self, tmp_path):
        queue = DeadLetterQueue()
        for i in range(6):
            queue.add(self._entry(i))
        path = tmp_path / "dlq.jsonl"
        assert queue.write_jsonl(path) == 6
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [r["seq"] for r in lines] == list(range(6))

    def test_incremental_append_spelling(self, tmp_path):
        queue = DeadLetterQueue()
        path = tmp_path / "dlq.jsonl"
        for i in range(3):
            queue.append_jsonl(path, self._entry(i))
        lines = [json.loads(line)
                 for line in path.read_text().splitlines()]
        assert [r["seq"] for r in lines] == [0, 1, 2]
