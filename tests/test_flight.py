"""Tests for the flight recorder (repro.obs.flight)."""

import json
import os
import signal
import threading

import pytest

import repro
from repro.obs import FlightRecorder, install_flight_signal_handler

from conftest import ev, rel


class FakeInstance:
    """Minimal stand-in for an automaton instance in unit tests."""

    count = 1

    def __init__(self, state=0, min_ts=None):
        self.state = state
        self.buffer = type("B", (), {"min_ts": min_ts})()

    @property
    def born(self):
        return self.buffer.min_ts


def fill(recorder, n, kind="start"):
    instance = FakeInstance()
    for i in range(n):
        recorder.record(kind, ev(i, "A", eid=f"e{i}"), instance)


# ----------------------------------------------------------------------
# Ring-buffer mechanics
# ----------------------------------------------------------------------
class TestRing:
    def test_empty(self):
        recorder = FlightRecorder(capacity=4)
        assert len(recorder) == 0
        assert recorder.tail() == []
        assert recorder.dropped == 0

    def test_partial_fill_keeps_order(self):
        recorder = FlightRecorder(capacity=8)
        fill(recorder, 3)
        tail = recorder.tail()
        assert [r["event"] for r in tail] == ["e0", "e1", "e2"]
        assert [r["seq"] for r in tail] == [0, 1, 2]

    def test_wraps_and_keeps_newest(self):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 10)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        assert recorder.dropped == 6
        assert [r["event"] for r in recorder.tail()] == [
            "e6", "e7", "e8", "e9"]

    def test_tail_n_returns_newest(self):
        recorder = FlightRecorder(capacity=8)
        fill(recorder, 5)
        assert [r["event"] for r in recorder.tail(2)] == ["e3", "e4"]

    def test_tail_zero_is_empty(self):
        """``tail(0)`` used to slice ``[-0:]`` — the whole ring."""
        recorder = FlightRecorder(capacity=8)
        fill(recorder, 5)
        assert recorder.tail(0) == []
        assert len(recorder.tail(2)) == 2
        assert len(recorder.tail(9)) == len(recorder.tail()) == 5

    def test_capacity_one(self):
        recorder = FlightRecorder(capacity=1, omega_capacity=1)
        fill(recorder, 3)
        assert [r["event"] for r in recorder.tail()] == ["e2"]

    def test_runs_are_held_by_member_steps(self):
        """A run's record stands for its members; the ring lets a record
        go once the newer ones alone fill a tail of ``capacity`` member
        steps, and a dump slices a run's starts to the steps it shows."""
        class FakeRun(FakeInstance):
            def __init__(self, starts):
                super().__init__()
                self.count = len(starts)
                self.starts = starts

            born = property(lambda self: self.starts)

        recorder = FlightRecorder(capacity=4)
        recorder.record("transition", ev(1, "A", eid="a1"), FakeRun((1, 2, 3)))
        recorder.record("transition", ev(2, "A", eid="a2"),
                        FakeRun(tuple(range(10, 16))))
        assert len(recorder._steps) == 1  # the six alone fill a tail
        recorder.record("start", ev(3, "A", eid="a3"), FakeInstance())
        assert len(recorder._steps) == 2
        assert recorder.recorded == 10
        assert [(r["seq"], r.get("born")) for r in recorder.tail()] == [
            (6, 13), (7, 14), (8, 15), (9, None)]
        assert [r["born"] for r in recorder.tail(2)[:1]] == [15]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(omega_capacity=0)

    def test_clear(self):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 6)
        recorder.sample_omega(1, 3)
        recorder.note_plan("abc")
        recorder.clear()
        assert len(recorder) == 0
        dump = recorder.dump()
        assert dump["steps"] == []
        assert dump["omega"] == []
        assert dump["meta"]["plans"] == []

    def test_omega_ring_is_separate(self):
        recorder = FlightRecorder(capacity=2, omega_capacity=4)
        fill(recorder, 10)  # a burst of steps must not evict Ω samples
        recorder.sample_omega(1, 5)
        assert recorder.dump()["omega"] == [[1, 5]]

    def test_omega_ring_wraps(self):
        recorder = FlightRecorder(omega_capacity=3)
        for ts in range(6):
            recorder.sample_omega(ts, ts * 10)
        assert recorder.dump()["omega"] == [[3, 30], [4, 40], [5, 50]]


# ----------------------------------------------------------------------
# Dump / JSON export
# ----------------------------------------------------------------------
class TestDump:
    def test_dump_shape(self):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 2)
        recorder.sample_omega(7, 1)
        recorder.note_plan("fp1")
        recorder.note_plan("fp1")  # deduplicated
        dump = recorder.dump()
        assert dump["meta"]["capacity"] == 4
        assert dump["meta"]["recorded"] == 2
        assert dump["meta"]["plans"] == ["fp1"]
        assert dump["omega"] == [[7, 1]]
        assert len(dump["steps"]) == 2

    def test_to_json_round_trips(self):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 3)
        parsed = json.loads(recorder.to_json())
        assert [s["event"] for s in parsed["steps"]] == ["e0", "e1", "e2"]

    def test_write(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 1)
        path = tmp_path / "flight.json"
        recorder.write(path)
        assert json.loads(path.read_text())["meta"]["recorded"] == 1

    def test_transition_records_variable(self, kind_pattern):
        flight = FlightRecorder()
        repro.compile(kind_pattern).executor(flight=flight).run(
            rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        transitions = [r for r in flight.tail() if r["kind"] == "transition"]
        assert transitions and all("variable" in r for r in transitions)


class EagerFlightRecorder(FlightRecorder):
    """The recorder as it rendered a step when it happened (``record``,
    ``note_crash`` and the tuple-to-dict half of ``tail`` of commit
    d1b70df, ``record`` rendering a run's step once per member, born at
    the member's start), kept as the oracle of the by-reference ring."""

    __slots__ = ("eager",)

    def __init__(self, capacity=512):
        super().__init__(capacity)
        self.eager = []

    def record(self, kind, event, instance, transition=None,
               successor=None):
        born = instance.born
        for start in born if isinstance(born, tuple) else (born,):
            self.eager.append((
                len(self.eager), kind,
                None if event is None else event.ts,
                None if event is None else event.eid,
                instance.state,
                None if transition is None else repr(transition.variable),
                start,
            ))

    def note_crash(self, event, message):
        self.eager.append((
            len(self.eager), "crash",
            None if event is None else event.ts,
            None if event is None else event.eid,
            None, message, None))

    def tail(self, n=None):
        from repro.automaton.states import state_label
        out = []
        for seq, kind, ts, eid, state, variable, born in \
                self.eager[-self.capacity:]:
            record = {"seq": seq, "kind": kind, "ts": ts, "event": eid}
            if kind == "crash":
                record["error"] = variable
            else:
                record["state"] = state_label(state)
                if variable is not None:
                    record["variable"] = variable
                if born is not None:
                    record["born"] = born
            out.append(record)
        return out


class TestRecordedByReference:
    """The ring holds the event, state and transition of a step and
    renders them at dump time: record for record what it produced when
    it rendered them on the spot."""

    @pytest.mark.parametrize("capacity", (512, 64))
    def test_dump_equals_the_eager_tuples(self, capacity):
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        from repro.net.protocol import event_from_json
        events = [event_from_json(row) for row in chemo_stream(1, 1500, 24)]
        from repro.lang import parse_pattern
        plan = repro.compile(parse_pattern(workloads.Q1))
        dumps = []
        for recorder in (EagerFlightRecorder(capacity),
                         FlightRecorder(capacity)):
            plan.executor(flight=recorder).run(events)
            recorder.note_crash(events[-1], "boom")
            dumps.append(recorder.dump()["steps"])
        assert dumps[0] == dumps[1]
        assert len(dumps[1]) == capacity
        assert {"transition", "crash"} <= {s["kind"] for s in dumps[1]}
        assert json.dumps(dumps[1])  # rendered: nothing by reference left

    def test_a_step_is_held_as_the_executor_holds_it(self, kind_pattern):
        flight = FlightRecorder()
        executor = repro.compile(kind_pattern).executor(flight=flight)
        executor.run(rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        held = [step for step in flight._steps if step[1] == "transition"]
        assert held
        for _, _, event, state, transition, _ in held:
            assert isinstance(event, repro.Event)
            assert state in executor.automaton.states
            assert transition in executor.automaton.transitions


# ----------------------------------------------------------------------
# Executor integration
# ----------------------------------------------------------------------
class TestExecutorIntegration:
    def test_records_algorithm1_vocabulary(self, kind_pattern):
        flight = FlightRecorder()
        result = repro.compile(kind_pattern).executor(flight=flight).run(
            rel(ev(1, "A"), ev(2, "B"), ev(3, "X"), ev(4, "C")))
        assert len(result) == 1
        kinds = {r["kind"] for r in flight.tail()}
        assert "start" in kinds and "transition" in kinds

    def test_omega_samples_track_population(self, kind_pattern):
        flight = FlightRecorder()
        executor = repro.compile(kind_pattern).executor(flight=flight)
        executor.run(rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        omega = flight.dump()["omega"]
        assert [ts for ts, _ in omega] == [1, 2, 3]
        # Samples are taken after each event settles, so they are bounded
        # by the mid-event peak the stats record.
        assert 0 < max(size for _, size in omega) <= \
            executor.stats.max_simultaneous_instances

    def test_plan_fingerprint_noted(self, kind_pattern):
        from repro.plan.cache import compile as compile_plan
        flight = FlightRecorder()
        plan = compile_plan(kind_pattern)
        plan.executor(flight=flight).run(rel(ev(1, "A")))
        assert flight.dump()["meta"]["plans"] == [plan.fingerprint]

    def test_rides_alongside_a_tracer(self, kind_pattern):
        from repro.automaton.trace import Tracer
        from repro.plan.cache import compile as compile_plan
        flight = FlightRecorder()
        tracer = Tracer()
        compile_plan(kind_pattern).executor(
            tracer=tracer, flight=flight).run(
            rel(ev(1, "A"), ev(2, "B"), ev(3, "C")))
        # ``skip`` steps are Figure 6's, not the ring's: a tracer gets
        # them, the flight recorder rides along without.
        assert tracer.of_kind("skip")
        assert ([(s.kind, s.event and s.event.eid) for s in tracer.steps
                 if s.kind != "skip"]
                == [(s["kind"], s["event"]) for s in flight.tail()])

    def test_served_dump_holds_what_happened_not_what_did_not(self):
        """``repro serve`` attaches the recorder to pattern ``p0``.  With a
        ``skip`` per resting instance per admitted event in the ring, 352
        of the 512 steps of this dump were ``skip`` and the tail reached
        back 4 admitted events."""
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        from repro.net.protocol import event_from_json
        from repro.registry import PatternRegistry
        flight = FlightRecorder()
        registry = PatternRegistry(flight=flight)
        registry.register(workloads.Q1, pattern_id="p0")
        for row in chemo_stream(1, 4000, 24):
            registry.push(event_from_json(row))
            if registry.describe()[0]["events_delivered"] == 400:
                break
        steps = flight.dump()["steps"]
        assert len(steps) == flight.capacity == 512
        kinds = {step["kind"] for step in steps}
        assert "skip" not in kinds and {"start", "transition"} <= kinds
        admitted = {step["event"] for step in steps
                    if step["kind"] == "start"}
        assert len(admitted) >= 8

    def test_recorder_follows_a_re_registration(self, kind_pattern):
        """Deregistering the pattern that carried the recorder used to
        strand it: no later registration got it, and ``/debug/flight``
        served the same frozen tail for the rest of the process."""
        from repro.registry import PatternRegistry
        flight = FlightRecorder()
        registry = PatternRegistry(flight=flight)
        registry.register(kind_pattern, pattern_id="p0")
        registry.register(kind_pattern, pattern_id="other")
        registry.push(ev(1, "A"))
        before = flight.recorded
        assert before
        registry.deregister("other")  # not the carrier: nothing changes
        registry.deregister("p0")
        registry.push(ev(2, "A"))
        assert flight.recorded == before
        registry.register(kind_pattern, pattern_id="p1")
        registry.register(kind_pattern, pattern_id="p2")
        registry.push(ev(3, "A"))
        grown = flight.recorded
        assert grown > before
        registry.deregister("p2")  # p1 carries it, and only p1
        registry.push(ev(4, "A"))
        assert flight.recorded > grown
        assert {s["event"] for s in flight.tail() if s["seq"] >= before} \
            == {"a3", "a4"}

    def test_detached_executor_has_no_recorder(self, kind_pattern):
        executor = repro.compile(kind_pattern).executor()
        assert executor.flight is None

    def test_crash_in_run_attaches_dump(self, kind_pattern):
        class Boom(Exception):
            pass

        def poisoned_stream():
            yield ev(1, "A")
            yield ev(2, "B")
            raise Boom("poisoned event")

        flight = FlightRecorder()
        executor = repro.compile(kind_pattern).executor(flight=flight)
        with pytest.raises(Boom) as excinfo:
            executor.run(poisoned_stream())
        dump = excinfo.value.flight_dump
        assert dump["meta"]["recorded"] == len(flight) > 0
        assert {s["kind"] for s in dump["steps"]} >= {"start"}

    def test_crash_without_recorder_has_no_dump(self, kind_pattern):
        def poisoned_stream():
            yield ev(1, "A")
            raise RuntimeError("poisoned event")

        executor = repro.compile(kind_pattern).executor()
        with pytest.raises(RuntimeError) as excinfo:
            executor.run(poisoned_stream())
        assert not hasattr(excinfo.value, "flight_dump")


# ----------------------------------------------------------------------
# Signal handler
# ----------------------------------------------------------------------
@pytest.mark.skipif(not hasattr(signal, "SIGUSR2"),
                    reason="platform has no SIGUSR2")
class TestSignalHandler:
    @pytest.fixture(autouse=True)
    def restore_handler(self):
        previous = signal.getsignal(signal.SIGUSR2)
        yield
        signal.signal(signal.SIGUSR2, previous)

    def test_dump_to_file_on_signal(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 2)
        path = tmp_path / "flight.json"
        handler = install_flight_signal_handler(recorder, path=path)
        assert handler is not None
        os.kill(os.getpid(), signal.SIGUSR2)
        assert json.loads(path.read_text())["meta"]["recorded"] == 2

    def test_dump_to_stream_by_default(self):
        import io
        recorder = FlightRecorder(capacity=4)
        fill(recorder, 1)
        stream = io.StringIO()
        install_flight_signal_handler(recorder, stream=stream)
        os.kill(os.getpid(), signal.SIGUSR2)
        assert json.loads(stream.getvalue())["meta"]["recorded"] == 1


# ----------------------------------------------------------------------
# Concurrency: dumps from another thread while recording
# ----------------------------------------------------------------------
class TestConcurrentDump:
    def test_dump_while_appending(self):
        recorder = FlightRecorder(capacity=32)
        stop = threading.Event()
        errors = []

        def dumper():
            while not stop.is_set():
                try:
                    json.dumps(recorder.dump(), default=str)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return

        thread = threading.Thread(target=dumper)
        thread.start()
        try:
            fill(recorder, 5000)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not errors
        assert len(recorder) == 32
