"""The interpretive constant, as a count that gates every PR.

What a fired transition costs is a constant of the query (García &
Riveros' yardstick, ``tests/test_omega_index.py::
TestCostIsIndependentOfTheWindow``); this file bounds the constant
itself, in calls — every call ``sys.setprofile`` reports, Python
functions and C builtins alike (what ``cProfile`` counts) — per fired
transition, over fixed slices of the ledger's streams.  No wall clock:
the numbers repeat exactly, so the budget fails the PR that starts
re-deriving per transition what the plan already fixes, on any machine.

Reference points (seed 1): at commit d1b70df, where every partner event
cost a ``Condition.evaluate_events`` → two ``Event.get`` → a Python
``Variable.__hash__`` per dict access and a successor two more calls,
the P3 slice read 25.8 calls per fired transition (15.4 of them Python
frames) and the recorded Q1 slice 24.2 (14.8); with Θδ's binding half
bound to rows, Algorithm 2 looped per bucket, steps recorded by
reference and variables interned: 10.6 (5.2) and 12.2 (5.7); with
buffers as parent-pointer nodes whose summary registers the rows read
and `=` compared inline (what each call costs stopped growing with the
match): 9.74 (5.47) and 11.82 (5.74) — the same on Python 3.9, 3.12 and
3.13 to ±0.07; with Ω held as runs, instances agreeing on state and
registers decided and extended once for all of them: 5.35 (2.57) on the
P3 slice, whose calls per *member* transition fell, and 11.71 (5.75) on
the recorded Q1 slice, where the recorder kept every run one instance
and so measured what a run of one costs; with runs keyed by the
registers a decision can still read, members that can no longer accept
sharing one run, and the flight recorder riding runs: 4.15 (2.15) on
the P3 slice and 4.83 (2.03) on the recorded Q1 slice.  A lineage
recorder then still took every step and kept every run one instance:
20.08 (11.24) on the same Q1 slice, lineage and the observability
bundle it rides included; told of accepted buffers instead, it rides
the runs: 10.98 (5.36), against 8.02 (4.17) for the same matcher and
bundle without it — the difference is its per-event ingest stamp.
"""

import gc
import sys
from collections import Counter

import pytest

from repro.lang import parse_pattern
from repro.net.protocol import event_from_json
from repro.obs import FlightRecorder
from repro.plan.cache import compile as compile_plan
from repro.registry import PatternRegistry

workloads = pytest.importorskip("ledger.workloads")

#: Calls (Python + C) per fired transition the recorded Q1 slice may
#: cost: its measured figure plus one.  Its instances share runs with
#: the recorder on, so it fails a change that splits them again.
BUDGET = 5.83
#: The P3 slice's own ceiling, its measured figure plus one: its
#: instances share runs, so it fails a change that stops sharing them.
P3_BUDGET = 5.15
#: Of which Python frames.
FRAME_BUDGET = 7
#: The lineage-recorded slice's ceilings, calls and Python frames, each
#: its measured figure plus one: the recorder is told of accepted
#: buffers and rides the runs, so it fails a change that makes lineage
#: split them again (20.08 calls, 11.24 frames when it did).
LINEAGE_BUDGET = 11.98
LINEAGE_FRAME_BUDGET = 6.36


def count_calls(run):
    """``run()`` under a ``sys.setprofile`` counter: its result and, per
    code object, the Python frames entered (``frames``), the Python
    frames entered from it (``callees``) and the C calls made from it
    (``builtins``)."""
    frames, callees, builtins = Counter(), Counter(), Counter()

    def profiler(frame, event, arg):
        if event == "call":
            frames[frame.f_code] += 1
            if frame.f_back is not None:
                callees[frame.f_back.f_code] += 1
        elif event == "c_call":
            builtins[frame.f_code] += 1

    # A collection runs its finalisers and weak-reference callbacks in
    # whatever frame happened to allocate: not this run's calls.
    collecting = gc.isenabled()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    # The counter sees itself being switched off.
    del builtins[count_calls.__code__]
    return result, frames, callees, builtins


def assert_within_budget(frames, builtins, fired, budget=BUDGET,
                         frame_budget=FRAME_BUDGET):
    python = sum(frames.values())
    total = python + sum(builtins.values())
    assert fired > 5000
    assert total <= budget * fired, (
        f"{total / fired:.2f} calls per fired transition (budget {budget}); "
        f"most called: {frames.most_common(5)}")
    assert python <= frame_budget * fired, (
        f"{python / fired:.2f} Python frames per fired transition "
        f"(budget {frame_budget}); most called: {frames.most_common(5)}")


def test_p3_slice_stays_within_the_per_transition_budget():
    """``batch-p3-exp2``'s first smoke unit, the way the ledger runs it:
    parse, compile, match, paper selection — all of it counted."""
    _, rows = workloads._p3_units(1, True)[0]
    events = [event_from_json(row) for row in rows]

    def run():
        return compile_plan(parse_pattern(workloads.P3)).match(events)

    result, frames, _, builtins = count_calls(run)
    assert_within_budget(frames, builtins, result.stats.transitions_fired,
                         P3_BUDGET)


def q1_slice():
    """``serve-q1-sparse``'s first 3 000 events, and the transitions Q1
    fires over them — what a registered pattern fires, a matcher of its
    own fires (tests/test_registry.py), and that one shows its
    counters."""
    from ledger.streams import chemo_stream
    events = [event_from_json(row) for row in chemo_stream(1, 3000, 24)]
    fired = compile_plan(parse_pattern(workloads.Q1)).match(
        events, selection="accepted").stats.transitions_fired
    return events, fired


def test_q1_slice_through_a_recorded_registry():
    """``serve-q1-sparse``'s matcher side: 3 000 events pushed in the
    workload's 64-event batches through a registry whose one pattern
    carries the flight recorder, as under ``repro serve``.  The
    recorder rides the runs — one step recorded per run, counted once
    per member — and recording a step is one call, the recorder's
    ``record``, which calls nothing but the ring's append (the record
    the ring lets go goes by ``del``, no call)."""
    events, fired = q1_slice()
    flight = FlightRecorder()
    registry = PatternRegistry(flight=flight)
    registry.register(workloads.Q1, pattern_id="p0")

    def run():
        for at in range(0, len(events), 64):
            registry.push_many(events[at:at + 64])

    _, frames, callees, builtins = count_calls(run)
    assert_within_budget(frames, builtins, fired)

    record = FlightRecorder.record.__code__
    assert flight.recorded > fired  # and starts, drops, expiries, accepts
    assert callees[record] == 0
    assert builtins[record] == frames[record]  # the append
    assert frames[record] <= flight.recorded


def test_q1_slice_with_lineage_rides_runs():
    """The same slice through a matcher that also carries a lineage
    recorder, as ``REPRO_TRACE_SAMPLE``, ``repro trace`` and the shards
    of ``serve --workers N`` run it (the observability bundle it rides
    included).  The recorder reads only accepted buffers and is told of
    them where they are emitted, so the matcher keeps its runs and the
    budget fails a change that splits them for lineage again."""
    from repro.obs import Observability
    from repro.obs.lineage import LineageRecorder
    from repro.stream import ContinuousMatcher
    events, fired = q1_slice()
    flight = FlightRecorder()
    lineage = LineageRecorder()
    matcher = ContinuousMatcher(
        parse_pattern(workloads.Q1), flight=flight,
        observability=Observability(lineage=lineage))

    def run():
        for at in range(0, len(events), 64):
            matcher.push_many(events[at:at + 64])

    _, frames, callees, builtins = count_calls(run)
    assert_within_budget(frames, builtins, fired, LINEAGE_BUDGET,
                         LINEAGE_FRAME_BUDGET)
    assert lineage.records()
    record = FlightRecorder.record.__code__
    assert flight.recorded > fired
    assert callees[record] == 0
    assert builtins[record] == frames[record]
    assert frames[record] <= flight.recorded
