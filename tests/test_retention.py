"""What a streaming matcher retains: a window, not a history.

The overlap set of :class:`ContinuousMatcher` keeps only the events a
future match can still bind — none older than the oldest start in Ω —
and reported matches are archived only with ``keep_matches=True``.
:class:`UnboundedMatcher` keeps ``_report`` as it stood while the set
grew with every reported match; the window must report exactly what it
reports.  The served registry (``repro serve``'s spelling:
``keep_matches=False``) must hold its retained memory level as the
stream grows.
"""

import gc
import pickle
import random
import tracemalloc
from bisect import bisect_left
from dataclasses import asdict
from typing import List
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (ContinuousMatcher, Observability, PatternRegistry,
                   SESPattern, compile)
from repro.agg.result import Match
from repro.core.events import Event
from repro.core.semantics import select_matches
from repro.core.substitution import Substitution
from repro.data.chemo import generate_chemo
from repro.obs import FlightRecorder
from repro.stream import MatchHistoryDisabled
from repro.stream import runner

from conftest import bindings

MODES = ("greedy", "exhaustive", "contiguous")

#: The CI smoke's Q1: PERMUTE(a, b) THEN c over one patient's C, P, B.
JOINED = ["a.L = 'C'", "b.L = 'P'", "c.L = 'B'", "a.ID = b.ID",
          "a.ID = c.ID"]


class UnboundedMatcher(ContinuousMatcher):
    """``ContinuousMatcher._report`` before the overlap set became a
    window, verbatim: every reported match's events stay in
    ``_used_events`` for good, and every match in ``_reported``."""

    def _report(self, accepted: List[Substitution],
                ts=None) -> List[Substitution]:
        if not accepted:
            return []
        lineage = None if self.obs is None else self.obs.lineage
        batch = (accepted if len(accepted) == 1
                 else select_matches(accepted, overlap="allow"))
        reported: List[Substitution] = []
        used = self._used_events
        for substitution in batch:
            events = [event for _, event in substitution.bindings]
            if self.suppress_overlaps and not used.isdisjoint(events):
                continue
            used.update(events)
            self._reported.append(substitution)
            reported.append(substitution)
            if self._reported_counter is not None:
                self._reported_counter.inc()
            provenance = (lineage.deliver(substitution, by="stream")
                          if lineage is not None else None)
            if self._callbacks:
                delivered = Match(substitution, provenance=provenance)
                for callback in self._callbacks:
                    callback(delivered)
        return reported


def make(cls, plan, mode: str, **options):
    """A ``cls`` matcher over ``plan`` whose executor consumes in
    ``mode`` (the streaming matchers build greedy executors)."""
    matcher = cls(plan, **options)
    matcher._executor = plan.executor(
        selection="accepted", consume=mode, expire_on_filtered=True)
    return matcher


def drive(matcher, events, restore_at=None, rebuild=None):
    """Push ``events`` one at a time, then close; with ``restore_at``,
    the matcher's ``state_dict`` is pickled there and loaded into
    ``rebuild()``, which carries on.  Returns what each call reported,
    as bindings, and the final matcher."""
    out = []
    for index, event in enumerate(events):
        if index == restore_at:
            state = pickle.loads(pickle.dumps(matcher.state_dict()))
            matcher = rebuild()
            matcher.load_state(state)
        out.append([bindings(s) for s in matcher.push(event)])
    out.append([bindings(s) for s in matcher.close()])
    return out, matcher


def random_case(rng: random.Random):
    """A small pattern over labels A-C (group variables, joins and
    float windows included) and a stream dense in ties and overlaps."""
    scale = rng.choice([1, 0.1])
    sets = rng.choice([[["a"], ["b"]], [["a", "b"]], [["a", "p+"], ["b"]],
                       [["a"], ["p+"]], [["a", "b"], ["c"]]])
    conditions = []
    for group in sets:
        for variable in group:
            name = variable.rstrip("+")
            if rng.random() < 0.8:
                conditions.append(f"{name}.L = '{rng.choice('ABC')}'")
    if rng.random() < 0.5:
        conditions.append(f"a.ID = {sets[-1][-1].rstrip('+')}.ID")
    pattern = SESPattern(sets=sets, conditions=conditions,
                         tau=rng.choice([2, 3, 5, 8]) * scale)
    ts, events = 0, []
    for index in range(rng.randint(20, 70)):
        ts += rng.choice([0, 0, 1, 1, 2, 4])
        events.append(Event(ts * scale, {"L": rng.choice("ABC"),
                                         "ID": rng.randint(1, 2)},
                            eid=f"e{index}"))
    return compile(pattern, cache=False), events


class TestTheWindowGivesTheSameAnswers:
    @pytest.mark.parametrize("mode", MODES)
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), restore=st.booleans())
    def test_random_patterns_and_streams(self, mode, seed, restore):
        """With a prune at every second used event, the window reports
        what the unbounded set reports, call by call, and the executor
        counters agree — also across a pickled state_dict/load_state
        round trip mid-stream."""
        rng = random.Random(seed)
        plan, events = random_case(rng)
        with mock.patch.object(runner, "PRUNE_FLOOR", 2):
            want, oracle = drive(make(UnboundedMatcher, plan, mode), events)
            got, matcher = drive(
                make(ContinuousMatcher, plan, mode), events,
                restore_at=len(events) // 2 if restore else None,
                rebuild=lambda: make(ContinuousMatcher, plan, mode))
        assert got == want
        assert asdict(matcher.stats) == asdict(oracle.stats)
        assert matcher.match_count == len(oracle.matches)
        assert matcher._used_events <= oracle._used_events

    @pytest.mark.parametrize("mode, sets, conditions", [
        ("greedy", [["a", "b"], ["c"]], JOINED),
        ("exhaustive", [["a", "b"], ["c"]], JOINED),
        # Strict contiguity matches only neighbours: no condition.
        ("contiguous", [["a"], ["b"]], [])])
    def test_a_pruned_run_on_the_chemo_stream(self, mode, sets, conditions):
        """At the default prune threshold on a longer stream: the window
        is smaller than the unbounded set, and the answers are equal."""
        plan = compile(SESPattern(sets=sets, conditions=conditions,
                                  tau=264))
        events = list(generate_chemo(patients=150, cycles=3, seed=11,
                                     lab_events_per_cycle=4))
        want, oracle = drive(make(UnboundedMatcher, plan, mode), events)
        got, matcher = drive(make(ContinuousMatcher, plan, mode), events,
                             restore_at=len(events) // 3,
                             rebuild=lambda: make(ContinuousMatcher, plan,
                                                  mode))
        assert got == want
        assert asdict(matcher.stats) == asdict(oracle.stats)
        assert len(oracle._used_events) > runner.PRUNE_FLOOR
        assert len(matcher._used_events) < len(oracle._used_events)


class TestTheOverlapSet:
    def test_stays_empty_without_suppression(self):
        """A matcher that never reads the set does not grow it."""
        plan = compile(SESPattern(
            sets=[["a"], ["b"]], conditions=["a.L = 'P'", "b.L = 'B'"],
            tau=96))
        matcher = ContinuousMatcher(plan, suppress_overlaps=False)
        matcher.push_many(generate_chemo(patients=4, cycles=2, seed=3))
        matcher.close()
        assert matcher.match_count > 0
        assert matcher._used_events == set()
        assert matcher.state_dict()["used_events"] == set()


class TestHistoryIsOptIn:
    QUERY = ("PATTERN PERMUTE(a, b) WHERE a.L = 'P' AND b.L = 'B' "
             "AND a.ID = b.ID WITHIN 96")

    def events(self):
        return list(generate_chemo(patients=4, cycles=2, seed=3))

    def test_matcher_counts_without_keeping(self):
        from repro.lang import parse_pattern
        plan = compile(parse_pattern(self.QUERY))
        kept = ContinuousMatcher(plan)
        bare = ContinuousMatcher(plan, keep_matches=False)
        returned = kept.push_many(self.events()) + kept.close()
        assert (bare.push_many(self.events()) + bare.close()) == returned
        assert returned
        assert kept.matches == returned
        assert bare.match_count == kept.match_count == len(returned)
        with pytest.raises(MatchHistoryDisabled, match="on_match"):
            bare.matches
        assert "reported" not in bare.state_dict()
        assert kept.state_dict()["reported"] == returned
        restored = ContinuousMatcher(plan, keep_matches=False)
        restored.load_state(kept.state_dict())
        assert restored.match_count == len(returned)

    def test_registry_counts_without_keeping(self):
        bare = PatternRegistry(keep_matches=False)
        kept = PatternRegistry()
        for registry in (bare, kept):
            registry.register(self.QUERY, pattern_id="q")
        returned = bare.push_many(self.events()) + bare.close()
        kept.push_many(self.events())
        kept.close()
        assert ([m.substitution for m in returned] == kept.matches
                == kept.matches_of("q"))
        assert bare.match_count == kept.match_count == len(returned) > 0
        with pytest.raises(MatchHistoryDisabled, match="push_many"):
            bare.matches
        with pytest.raises(MatchHistoryDisabled):
            bare.matches_of("q")

    def test_registered_matchers_keep_no_history(self):
        registry = PatternRegistry()
        registry.register(self.QUERY, pattern_id="q")
        registry.push_many(self.events())
        matcher = registry._entries["q"].matcher
        assert matcher._reported is None
        assert matcher.match_count == registry.match_count > 0
        assert registry.describe()[0]["matches"] == registry.match_count


class TestServedMemoryIsBounded:
    def test_retained_memory_is_level_as_the_stream_doubles(self):
        """Q1 over the ledger's sparse serve stream, in the workload's
        64-event batches, through a registry built as ``repro serve``
        builds it.  What the registry retains (sampled after a
        collection every 1 280 events; with Ω and the overlap window,
        single samples differ by up to 40 %) averages within 10 % over
        events 20 001-40 000 of what it averaged over the first 20 000
        — an archive of reported matches doubles it.  The overlap
        window never holds more than max(1024, twice the most events
        any τ-window of the stream held)."""
        workloads = pytest.importorskip("ledger.workloads")
        from ledger.streams import chemo_stream
        from repro.net.protocol import event_from_json
        events = [event_from_json(row)
                  for row in chemo_stream(1, 40000, 24)]
        timestamps = [event.ts for event in events]
        halves = ([], [])
        gc.collect()
        tracemalloc.start()
        try:
            registry = PatternRegistry(
                use_filter=True, observability=Observability(),
                flight=FlightRecorder(), keep_matches=False)
            registry.register(workloads.Q1, pattern_id="p0")
            matcher = registry._entries["p0"].matcher
            tau = matcher.pattern.tau
            peak_window, reported = 0, 0
            for at in range(0, len(events), 64):
                reported += len(registry.push_many(events[at:at + 64]))
                end = at + 64
                peak_window = max(peak_window, end - bisect_left(
                    timestamps, timestamps[end - 1] - tau, 0, end))
                assert len(matcher._used_events) <= max(
                    runner.PRUNE_FLOOR, 2 * peak_window), end
                if end % 1280 == 0:
                    gc.collect()
                    halves[end > 20000].append(
                        tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert reported == registry.match_count > 300
        first, second = (sum(half) / len(half) for half in halves)
        assert abs(second - first) < 0.10 * first, halves
        with pytest.raises(MatchHistoryDisabled):
            registry.matches
        with pytest.raises(MatchHistoryDisabled):
            registry.matches_of("p0")
