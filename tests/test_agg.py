"""Online aggregation: the incremental fold engine and its surfaces.

The load-bearing property is **enumerate-then-fold equivalence**: for
any pattern, data set and execution settings, the incremental aggregates
computed inside the executor (no match ever materialised) equal folding
the enumerated ``selection="accepted"`` match set through
:func:`~repro.agg.engine.fold_reference`.  The suites below pin that
with Hypothesis across consume modes, filter settings and window sizes,
plus exact equality across every execution path (serial, process pool,
serial-partitioned, sharded streaming, registry), the snapshot algebra,
checkpoint/restore, plan-cache fingerprinting, and the typed result
surfaces of :func:`repro.query`.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import Event, EventRelation, Observability, SESPattern
from repro.agg import AggregateSeries, Match, MatchSet
from repro.agg.engine import (MISSING, AggregationEngine, empty_snapshot,
                              finalize_snapshot, fold_reference,
                              merge_snapshots)
from repro.agg.spec import Aggregate, AggregateSpec
from repro.automaton.metrics import ExecutionStats
from repro.core.conditions import OPERATORS
from repro.core.variables import Variable
from repro.lang import (QueryError, parse_query_spec, render_query)
from repro.plan.cache import compile as compile_plan

from conftest import ev, rel

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------

SPEC_ALL = AggregateSpec(aggregates=(
    Aggregate("count", alias="n"),
    Aggregate("count", "a", "x"),
    Aggregate("sum", "a", "x"),
    Aggregate("min", "a", "x"),
    Aggregate("max", "b", "x"),
    Aggregate("avg", "a", "x"),
))


def assert_same_values(spec, left: dict, right: dict):
    """Finalised value dicts are equal (floats approximately)."""
    assert set(left) == set(right)
    for label in left:
        a, b = left[label], right[label]
        if isinstance(a, float) or isinstance(b, float):
            assert a == pytest.approx(b), label
        else:
            assert a == b, label


def reference_values(pattern, spec, events, *, use_filter=True,
                     consume="greedy"):
    """Enumerate accepted buffers, then fold them (the ground truth)."""
    plan = compile_plan(pattern)
    result = plan.match(events, use_filter=use_filter,
                        selection="accepted", consume=consume)
    snapshot = fold_reference(spec, list(result))
    return finalize_snapshot(spec, snapshot), snapshot


def incremental_series(pattern, spec, events, *, use_filter=True,
                       consume="greedy", **match_opts):
    plan = compile_plan(pattern, aggregate=spec)
    result = plan.match(events, use_filter=use_filter, consume=consume,
                        **match_opts)
    return result.aggregates


# ----------------------------------------------------------------------
# Language: SELECT parsing, compilation, rendering
# ----------------------------------------------------------------------

class TestLang:
    def test_plain_pattern_text_has_no_spec(self):
        pattern, spec = parse_query_spec(
            "PATTERN PERMUTE(a, b) WHERE a.k = 'x' AND b.k = 'y' WITHIN 5")
        assert spec is None
        assert isinstance(pattern, SESPattern)

    def test_select_clause_parses(self):
        pattern, spec = parse_query_spec(
            "SELECT count(*) AS n, sum(a.x), avg(b.y) AS mean "
            "FROM PATTERN PERMUTE(a, b) "
            "WHERE a.k = 'x' AND b.k = 'y' WITHIN 5")
        assert spec is not None
        assert spec.labels == ("n", "sum(a.x)", "mean")
        assert spec.aggregates[0].is_star
        assert spec.aggregates[1].func == "sum"
        assert spec.aggregates[2].alias == "mean"

    def test_from_keyword_is_required(self):
        with pytest.raises(QueryError):
            parse_query_spec(
                "SELECT count(*) PATTERN PERMUTE(a) WHERE a.k = 'x' WITHIN 5")

    def test_render_round_trip(self):
        text = ("SELECT count(*) AS n, min(a.x), avg(b.y) AS mean "
                "FROM PATTERN PERMUTE(a, b) "
                "WHERE a.k = 'x' AND b.k = 'y' WITHIN 5")
        pattern, spec = parse_query_spec(text)
        rendered = render_query(pattern, spec)
        pattern2, spec2 = parse_query_spec(rendered)
        assert pattern == pattern2
        assert spec.canonical() == spec2.canonical()
        assert spec.labels == spec2.labels

    def test_unknown_function_rejected(self):
        with pytest.raises(QueryError):
            parse_query_spec("SELECT median(a.x) FROM PATTERN PERMUTE(a) "
                             "WHERE a.k = 'x' WITHIN 5")

    def test_star_only_for_count(self):
        with pytest.raises(QueryError):
            parse_query_spec("SELECT sum(*) FROM PATTERN PERMUTE(a) "
                             "WHERE a.k = 'x' WITHIN 5")

    def test_undeclared_variable_rejected_at_compile(self):
        with pytest.raises(QueryError, match="undeclared"):
            parse_query_spec("SELECT sum(z.x) FROM PATTERN PERMUTE(a) "
                             "WHERE a.k = 'x' WITHIN 5")
        # The same guard fires at plan-build time for hand-built specs.
        spec = AggregateSpec(aggregates=(Aggregate("sum", "z", "x"),))
        pattern = SESPattern(sets=[["a"]], conditions=["a.k = 'x'"], tau=5)
        with pytest.raises(ValueError, match="undeclared"):
            compile_plan(pattern, aggregate=spec)

    def test_duplicate_labels_rejected(self):
        with pytest.raises((QueryError, ValueError)):
            parse_query_spec(
                "SELECT count(*) AS n, sum(a.x) AS n "
                "FROM PATTERN PERMUTE(a) WHERE a.k = 'x' WITHIN 5")


# ----------------------------------------------------------------------
# Snapshot algebra
# ----------------------------------------------------------------------

class TestSnapshots:
    def test_empty_snapshot_finalises_to_identities(self):
        values = finalize_snapshot(SPEC_ALL, empty_snapshot(SPEC_ALL))
        assert values["n"] == 0
        assert values["count(a.x)"] == 0
        # SQL-flavoured empties: sum/min/max/avg of nothing is NULL.
        assert values["sum(a.x)"] is None
        assert values["min(a.x)"] is None
        assert values["max(b.x)"] is None
        assert values["avg(a.x)"] is None

    def test_merge_is_none_tolerant(self):
        snap = fold_reference(SPEC_ALL, [])
        assert merge_snapshots(SPEC_ALL, None, None) is None
        merged = merge_snapshots(SPEC_ALL, snap, None)
        assert merged["matches"] == 0
        assert merge_snapshots(SPEC_ALL, None, snap)["matches"] == 0

    @pytest.mark.parametrize("xs, min_a, max_b", [
        ((1.0, 2.0, 3.0, -1.0, 0.5, 9.0), 0.5, 9.0),
        # Mixed types fold under one total order: numbers before text.
        ((1.0, 2.0, "hi", -1.0, 0.5, "lo"), 0.5, "lo"),
    ])
    def test_merge_associative_on_engine_partials(self, xs, min_a, max_b):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=10)
        spec = SPEC_ALL
        plan = compile_plan(pattern, aggregate=spec)
        chunks = [
            [ev(1, "A", x=xs[0]), ev(2, "B", x=xs[1])],
            [ev(20, "A", x=xs[2]), ev(21, "B", x=xs[3])],
            [ev(40, "A", x=xs[4]), ev(41, "B", x=xs[5])],
        ]
        snaps = []
        for chunk in chunks:
            executor = plan.executor()
            executor.run(EventRelation(chunk))
            snaps.append(executor.aggregate_snapshot())
        left = merge_snapshots(
            spec, merge_snapshots(spec, snaps[0], snaps[1]), snaps[2])
        right = merge_snapshots(
            spec, snaps[0], merge_snapshots(spec, snaps[1], snaps[2]))
        swapped = merge_snapshots(
            spec, snaps[2], merge_snapshots(spec, snaps[1], snaps[0]))
        values = finalize_snapshot(spec, left)
        assert_same_values(spec, values, finalize_snapshot(spec, right))
        assert_same_values(spec, values, finalize_snapshot(spec, swapped))
        assert (values["min(a.x)"], values["max(b.x)"]) == (min_a, max_b)
        assert left["matches"] == right["matches"] == 3


# ----------------------------------------------------------------------
# Property: incremental == enumerate-then-fold
# ----------------------------------------------------------------------

KINDS = ("A", "B", "C")
CONSUME_MODES = ("greedy", "exhaustive", "contiguous")


@st.composite
def agg_relations(draw, max_events: int = 14, exact: bool = False):
    """Typed events with a numeric/missing/non-numeric ``x`` attribute and
    a small-domain (sometimes missing) join attribute ``g``.  ``exact``
    keeps floats to quarters, so sums are the same in any order."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=40), min_size=n, max_size=n)))
    events = []
    for i, ts in enumerate(timestamps):
        kind = draw(st.sampled_from(KINDS))
        shape = draw(st.sampled_from(("int", "float", "missing", "text")))
        attrs = {}
        if shape == "int":
            attrs["x"] = draw(st.integers(min_value=-5, max_value=5))
        elif shape == "float" and exact:
            attrs["x"] = draw(st.integers(min_value=-16, max_value=16)) / 4
        elif shape == "float":
            attrs["x"] = draw(st.floats(min_value=-4, max_value=4,
                                        allow_nan=False, width=32))
        elif shape == "text":
            attrs["x"] = draw(st.sampled_from(("hi", "lo")))
        g = draw(st.sampled_from((0, 1, 2, None)))
        if g is not None:
            attrs["g"] = g
        events.append(Event(ts=ts, eid=f"e{i}", kind=kind, **attrs))
    return EventRelation(events)


@st.composite
def agg_patterns(draw):
    """One- or two-set patterns, optionally with a group variable and
    an equality join between two of the variables."""
    shapes = (
        [["a"], ["b"]],
        [["a", "b"]],
        [["a+"], ["b"]],
        [["a", "b+"]],
        [["a"]],
        [["a+"]],
        [["a", "b+"], ["c"]],
    )
    sets = draw(st.sampled_from(shapes))
    conditions = []
    names = [v.rstrip("+") for vs in sets for v in vs]
    for name in names:
        kind = draw(st.sampled_from(KINDS))
        conditions.append(f"{name}.kind = '{kind}'")
    if len(names) > 1 and draw(st.booleans()):
        left, right = draw(st.permutations(names))[:2]
        conditions.append(f"{left}.g = {right}.g")
    tau = draw(st.integers(min_value=0, max_value=50))
    return SESPattern(sets=sets, conditions=conditions, tau=tau)


@st.composite
def agg_specs(draw):
    terms = [Aggregate("count", alias="n")]
    for func in draw(st.sets(st.sampled_from(("count", "sum", "min",
                                              "max", "avg")),
                             max_size=3)):
        variable = draw(st.sampled_from(("a", "b")))
        terms.append(Aggregate(func, variable, "x",
                               alias=f"{func}_{variable}"))
    return AggregateSpec(aggregates=tuple(terms))


# The falsifying case of the old "keep the first on TypeError" min/max:
# PERMUTE(a, b) over x = 0, 'hi', 1.5 folded to 0 in the engine and 1.5
# in fold_reference.
MIXED_PATTERN = SESPattern(sets=[["a", "b"]],
                           conditions=["a.kind = 'A'", "b.kind = 'A'"],
                           tau=10)
MIXED_SPEC = AggregateSpec(aggregates=(
    Aggregate("count", alias="n"),
    Aggregate("max", "a", "x", alias="max_a"),
    Aggregate("min", "a", "x", alias="min_a"),
))


def mixed_relation(*xs) -> EventRelation:
    return EventRelation([Event(ts=i, eid=f"e{i}", kind="A", x=x)
                          for i, x in enumerate(xs)])


class TestEnumerateThenFoldEquivalence:
    @given(pattern=agg_patterns(), relation=agg_relations(),
           spec=agg_specs(),
           use_filter=st.booleans(),
           consume=st.sampled_from(CONSUME_MODES))
    @example(pattern=MIXED_PATTERN, relation=mixed_relation(0, "hi", 1.5),
             spec=MIXED_SPEC, use_filter=True, consume="greedy")
    @settings(max_examples=150, deadline=None)
    def test_incremental_equals_reference(self, pattern, relation, spec,
                                          use_filter, consume):
        try:
            spec.validate(pattern)
        except ValueError:
            return  # spec references a variable this pattern lacks
        expected, ref_snapshot = reference_values(
            pattern, spec, relation, use_filter=use_filter, consume=consume)
        series = incremental_series(
            pattern, spec, relation, use_filter=use_filter, consume=consume)
        assert series.matches_folded == ref_snapshot["matches"]
        assert_same_values(spec, series.values, expected)

    @pytest.mark.parametrize(
        "xs", list(itertools.permutations((0, "hi", 1.5))))
    def test_mixed_type_extremum_is_order_independent(self, xs):
        """numbers < text: max is 'hi' and min is 0 in every arrival
        order, from the engine, the reference and any merge bracketing."""
        relation = mixed_relation(*xs)
        expected, _ = reference_values(
            MIXED_PATTERN, MIXED_SPEC, relation)
        series = incremental_series(MIXED_PATTERN, MIXED_SPEC, relation)
        assert series.values == expected
        assert (expected["max_a"], expected["min_a"]) == ("hi", 0)
        plan = compile_plan(MIXED_PATTERN)
        parts = [fold_reference(MIXED_SPEC, [m])
                 for m in plan.match(relation, selection="accepted")]
        assert len(parts) >= 3
        for order in itertools.permutations(parts, 3):
            left = merge_snapshots(
                MIXED_SPEC, merge_snapshots(MIXED_SPEC, order[0], order[1]),
                order[2])
            right = merge_snapshots(
                MIXED_SPEC, order[0],
                merge_snapshots(MIXED_SPEC, order[1], order[2]))
            assert left == right

    @given(relation=agg_relations(max_events=20))
    @settings(max_examples=60, deadline=None)
    def test_group_variables_fold_every_bound_event(self, relation):
        pattern = SESPattern(sets=[["a+"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=30)
        spec = AggregateSpec(aggregates=(
            Aggregate("count", alias="n"),
            Aggregate("count", "a", "x", alias="xs"),
            Aggregate("sum", "a", "x", alias="sx"),
        ))
        expected, _ = reference_values(pattern, spec, relation)
        series = incremental_series(pattern, spec, relation)
        assert_same_values(spec, series.values, expected)


# ----------------------------------------------------------------------
# Oracle: the flat per-group loop the state buckets replaced
# ----------------------------------------------------------------------

class FlatAggregationEngine(AggregationEngine):
    """The engine as it was before groups were bucketed by state, kept
    verbatim as the oracle: one ``(state, min_ts, projections)`` dict,
    every group visited and every event-only condition re-evaluated per
    group on every event."""

    def __init__(self, automaton, spec, consume_mode="greedy"):
        super().__init__(automaton, spec, consume_mode)
        pair_index = {pair: i for i, pair in enumerate(self._pairs)}
        self._by_state = {
            state: tuple(
                (transition,
                 [(None, anchored, None, None) if other is None else
                  (pair_index[(other, anchored.right.attribute)], anchored,
                   OPERATORS[anchored.op], anchored.left.attribute)
                  for other, anchored in transition.checks],
                 proj_updates, reg_updates)
                for transition, _, proj_updates, reg_updates in entries)
            for state, entries in self._by_state.items()}

    def reset(self) -> None:
        #: key (state, min_ts, projections) → [multiplicity, registers]
        self._groups = {}
        self._totals = empty_snapshot(self.spec)["totals"]
        self.matches_folded = 0
        self.max_groups = 0

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def next_expiry_ts(self):
        oldest = None
        for (state, min_ts, proj) in self._groups:
            if min_ts is not None and (oldest is None or min_ts < oldest):
                oldest = min_ts
        return None if oldest is None else oldest + self._tau

    def step(self, event, allow_start, stats) -> None:
        ts = event.ts
        tau = self._tau
        accepting = self._accepting
        if allow_start:
            stats.instances_created += 1
        stats.observe_event(ts)
        stats.observe_omega(len(self._groups) + (1 if allow_start else 0))
        next_groups = {}
        for key, (n, regs) in self._groups.items():
            min_ts = key[1]
            if min_ts is not None and ts - min_ts > tau:
                stats.expired_instances += 1
                if key[0] == accepting:
                    self._fold(n, regs, stats)
                continue
            self._consume(key, n, regs, event, next_groups, stats)
        if allow_start:
            self._consume((self._start, None, self._empty_proj), 1,
                          self._init_regs, event, next_groups, stats)
        self._groups = next_groups
        count = len(next_groups)
        stats.observe_omega(count)
        if count > self.max_groups:
            self.max_groups = count

    def expire_only(self, event, stats) -> None:
        ts = event.ts
        tau = self._tau
        accepting = self._accepting
        survivors = {}
        for key, (n, regs) in self._groups.items():
            min_ts = key[1]
            if min_ts is not None and ts - min_ts > tau:
                stats.expired_instances += 1
                if key[0] == accepting:
                    self._fold(n, regs, stats)
            else:
                survivors[key] = [n, regs]
        self._groups = survivors

    def _consume(self, key, n, regs, event, out, stats) -> None:
        state, min_ts, proj = key
        fired = 0
        for transition, checks, proj_updates, reg_updates in \
                self._by_state[state]:
            if not self._admits(checks, proj, event):
                continue
            fired += 1
            new_key = (transition.target,
                       event.ts if min_ts is None else min_ts,
                       self._extend_proj(proj, proj_updates, event))
            new_regs = (self._bind(regs, reg_updates, event, n)
                        if reg_updates else regs)
            self._merge_into(out, new_key, n, new_regs)
        if fired:
            stats.transitions_fired += fired
            if fired > 1:
                stats.branchings += fired - 1
                stats.instances_created += fired - 1
            if self.consume_mode == "exhaustive" and state != self._start:
                self._merge_into(out, key, n, regs)
                stats.instances_created += 1
        elif state != self._start:
            if self.consume_mode == "contiguous":
                if state == self._accepting:
                    self._fold(n, regs, stats)
                return
            self._merge_into(out, key, n, regs)

    def _admits(self, checks, proj, event) -> bool:
        for pair_idx, anchored, op, left_attr in checks:
            if pair_idx is None:
                if not anchored.evaluate_events(event, event):
                    return False
                continue
            values = proj[pair_idx]
            if not values:
                continue
            left = event.get(left_attr, MISSING)
            if left is MISSING:
                return False
            for value in values:
                if value is MISSING:
                    return False
                try:
                    if not op(left, value):
                        return False
                except TypeError:
                    return False
        return True

    def _merge_into(self, out, key, n, regs) -> None:
        existing = out.get(key)
        if existing is None:
            out[key] = [n, regs]
            return
        existing[0] += n
        existing[1] = self._merge_registers(existing[1], regs)

    def finish(self, stats) -> None:
        for key, (n, regs) in self._groups.items():
            if key[0] == self._accepting:
                self._fold(n, regs, stats)
        self._groups = {}

    def state_dict(self) -> dict:
        return {
            "groups": [(key, n, regs)
                       for key, (n, regs) in self._groups.items()],
            "snapshot": self.snapshot(),
            "max_groups": self.max_groups,
        }


def grouped(engine) -> dict:
    """``state_dict()['groups']`` as ``{key: (n, registers)}`` — the two
    engines hold the same groups, in different orders."""
    groups = engine.state_dict()["groups"]
    out = {key: (n, regs) for key, n, regs in groups}
    assert len(out) == len(groups) == engine.group_count
    return out


def assert_lockstep(automaton, spec, consume, ops):
    """Drive the flat oracle and the bucketed engine through the same
    ``(event, action)`` sequence — ``True`` is ``step`` (the oracle
    starts a fresh group every time), ``None`` is ``expire_only`` —
    comparing everything observable after *every* event."""
    flat = FlatAggregationEngine(automaton, spec, consume)
    bucketed = AggregationEngine(automaton, spec, consume)
    flat_stats, stats = ExecutionStats(), ExecutionStats()
    flat_stats.enable_history()
    stats.enable_history()
    tau = automaton.tau
    for event, action in ops:
        if action is None:
            flat.expire_only(event, flat_stats)
            bucketed.expire_only(event, stats)
        else:
            flat.step(event, True, flat_stats)
            bucketed.step(event, stats)
        assert bucketed.snapshot() == flat.snapshot()
        assert bucketed.matches_folded == flat.matches_folded
        assert bucketed.max_groups == flat.max_groups
        assert stats == flat_stats
        groups = grouped(bucketed)
        assert groups == grouped(flat)
        # The O(1) deadline is conservative: never later than the scan's,
        # and nothing older than τ outlives a step or a sweep.
        scanned = flat.next_expiry_ts
        if scanned is None:
            assert not groups
        else:
            assert bucketed.next_expiry_ts <= scanned
        assert all(event.ts - min_ts <= tau for _, min_ts, _ in groups)
    flat.finish(flat_stats)
    bucketed.finish(stats)
    assert bucketed.snapshot() == flat.snapshot()
    assert stats == flat_stats
    assert bucketed.group_count == 0 and bucketed.next_expiry_ts is None
    return bucketed


class TestBucketedEqualsFlat:
    @given(pattern=agg_patterns(),
           relation=agg_relations(max_events=18, exact=True),
           spec=agg_specs(), consume=st.sampled_from(CONSUME_MODES),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_lockstep_on_random_streams(self, pattern, relation, spec,
                                        consume, data):
        try:
            spec.validate(pattern)
        except ValueError:
            return
        actions = data.draw(st.lists(
            st.sampled_from((True, True, True, None)),
            min_size=len(relation), max_size=len(relation)))
        assert_lockstep(compile_plan(pattern).automaton, spec, consume,
                        list(zip(relation, actions)))

    @pytest.mark.parametrize("consume", CONSUME_MODES)
    @pytest.mark.parametrize("feed_every", (1, 3))
    def test_lockstep_on_the_ledger_smoke_slices(self, consume, feed_every):
        """The four ``batch-agg-fold`` smoke slices: events no variable's
        constant condition admits are expiry-only, as under the filter;
        with ``feed_every=3`` so are two in three of the admitted ones,
        a thinner stream with more sweeps between steps.  Exhaustive
        groups double with every Prednisone dose of Q1, so that mode
        stops while they still number in the thousands."""
        workloads = pytest.importorskip("ledger.workloads")
        from repro.net.protocol import event_from_json
        pattern, spec = parse_query_spec(workloads.AGG)
        automaton = compile_plan(pattern).automaton
        size = 160 if consume == "exhaustive" else None
        folded = 0
        for _, rows in workloads._agg_units(1, True):
            events = [event_from_json(row) for row in rows[:size]]
            ops = [(event,
                    True if event["L"] in "CDPB" and i % feed_every == 0
                    else None)
                   for i, event in enumerate(events)]
            folded += assert_lockstep(
                automaton, spec, consume, ops).matches_folded
        assert folded > 0 or consume != "greedy"


# ----------------------------------------------------------------------
# Path equality: every execution route produces the same aggregates
# ----------------------------------------------------------------------

JOIN_PATTERN = SESPattern(
    sets=[["a"], ["b"]],
    conditions=["a.kind = 'A'", "b.kind = 'B'", "a.pid = b.pid"],
    tau=25)

JOIN_SPEC = AggregateSpec(aggregates=(
    Aggregate("count", alias="n"),
    Aggregate("sum", "a", "x"),
    Aggregate("avg", "b", "x"),
    Aggregate("min", "a", "x"),
    Aggregate("max", "b", "x"),
))


def join_relation(seed: int = 7, n: int = 300) -> EventRelation:
    import random
    rng = random.Random(seed)
    events = []
    for i in range(n):
        events.append(Event(
            ts=i, eid=f"e{i}", kind=rng.choice(("A", "B", "C")),
            pid=rng.randrange(6), x=rng.choice(
                (rng.uniform(-3, 3), rng.randrange(-5, 6)))))
    return EventRelation(events)


class TestPathEquality:
    def test_serial_equals_serial_fold(self):
        events = join_relation()
        expected, _ = reference_values(JOIN_PATTERN, JOIN_SPEC, events)
        series = incremental_series(JOIN_PATTERN, JOIN_SPEC, events)
        assert_same_values(JOIN_SPEC, series.values, expected)

    def test_pool_equals_partitioned_equals_partitioned_fold(self):
        events = join_relation()
        # The partitioned reference: enumerate per partition, then fold.
        plan = compile_plan(JOIN_PATTERN)
        enum = plan.match(events, partition_by="pid", selection="accepted")
        ref = finalize_snapshot(JOIN_SPEC,
                                fold_reference(JOIN_SPEC, list(enum)))
        pooled = incremental_series(JOIN_PATTERN, JOIN_SPEC, events,
                                    workers=2)
        partitioned = incremental_series(JOIN_PATTERN, JOIN_SPEC, events,
                                         partition_by="pid")
        assert_same_values(JOIN_SPEC, pooled.values, ref)
        assert_same_values(JOIN_SPEC, partitioned.values, ref)
        assert pooled.matches_folded == partitioned.matches_folded

    def test_sharded_stream_equals_partitioned(self):
        from repro.parallel.sharded import ShardedStreamMatcher
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        serial = plan.match(events, partition_by="pid").aggregates
        matcher = ShardedStreamMatcher(plan, workers=2)
        with matcher:
            matcher.push_many(events)
        sharded = matcher.aggregates()
        assert sharded.matches_folded == serial.matches_folded
        assert_same_values(JOIN_SPEC, sharded.values, serial.values)

    def test_partitioned_stream_equals_batch_partitioned(self):
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        batch = plan.match(events, partition_by="pid").aggregates
        stream = plan.stream(partition_by="pid")
        for event in events:
            stream.push(event)
        stream.close()
        series = stream.aggregates()
        assert series.matches_folded == batch.matches_folded
        assert_same_values(JOIN_SPEC, series.values, batch.values)


# ----------------------------------------------------------------------
# No materialisation: the whole point
# ----------------------------------------------------------------------

class TestNoMaterialization:
    def test_agg_result_carries_no_matches(self):
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        result = plan.match(events)
        assert len(result) == 0
        assert result.accepted == []
        assert result.aggregates.matches_folded > 0

    def test_zero_ses_matches_total_on_agg_path(self):
        obs = Observability()
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC,
                            observability=obs)
        executor = plan.executor(observability=obs)
        executor.run(events)
        snapshot = obs.snapshot()
        matches = snapshot.get("ses_matches_total")
        assert matches is None or matches["value"] == 0
        folded = snapshot["ses_agg_matches_folded_total"]
        assert folded["value"] == executor.matches_folded > 0

    def test_group_count_stays_far_below_match_count(self):
        # PERMUTE(a+, b+) with constant conditions: the accepted-buffer
        # count explodes combinatorially, the coalesced group population
        # stays linear in the window.
        pattern = SESPattern(sets=[["a+", "b+"]],
                             conditions=["a.L = 'A'", "b.L = 'A'"],
                             tau=100)
        spec = AggregateSpec(aggregates=(Aggregate("count", alias="n"),))
        events = EventRelation([Event(ts=i, eid=f"e{i}", L="A")
                                for i in range(12)])
        plan = compile_plan(pattern, aggregate=spec)
        executor = plan.executor()
        result = executor.run(events)
        series = result.aggregates
        expected, _ = reference_values(pattern, spec, events)
        assert series["n"] == expected["n"]
        assert series["n"] > 1000
        assert executor._agg.max_groups < 100


# ----------------------------------------------------------------------
# Checkpoint / restore
# ----------------------------------------------------------------------

class TestStateRoundtrip:
    def test_stream_checkpoint_restore_preserves_aggregates(self):
        events = join_relation(seed=11, n=200)
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        straight = plan.stream()
        for event in events:
            straight.push(event)
        straight.close()

        first = plan.stream()
        for event in events.events[:100]:
            first.push(event)
        state = first.state_dict()
        second = plan.stream()
        second.load_state(state)
        for event in events.events[100:]:
            second.push(event)
        second.close()
        assert second.matches_folded == straight.matches_folded
        assert_same_values(JOIN_SPEC, second.aggregates().values,
                           straight.aggregates().values)

    def test_partitioned_stream_checkpoint_carries_agg_partials(self):
        events = join_relation(seed=3, n=200)
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        straight = plan.stream(partition_by="pid")
        for event in events:
            straight.push(event)
        straight.close()

        first = plan.stream(partition_by="pid")
        for event in events.events[:120]:
            first.push(event)
        first.collect(now=10**9)  # retire idle partitions into the carry
        state = first.state_dict()
        second = plan.stream(partition_by="pid")
        second.load_state(state)
        for event in events.events[120:]:
            second.push(event)
        second.close()
        assert second.matches_folded == straight.matches_folded
        assert_same_values(JOIN_SPEC, second.aggregates().values,
                           straight.aggregates().values)


    # A ``state_dict()`` written by the flat engine (before groups were
    # bucketed by state) after the first eight CHECKPOINT_ROWS: four
    # states interleaved, one match already folded, no start-state entry.
    CHECKPOINT_PATTERN = SESPattern(
        sets=[["a", "b+"], ["c"]],
        conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'",
                    "a.pid = b.pid", "a.pid = c.pid"], tau=6)
    CHECKPOINT_SPEC = AggregateSpec(aggregates=(
        Aggregate("count", alias="n"), Aggregate("sum", "b", "x"),
        Aggregate("max", "c", "x"), Aggregate("avg", "a", "x")))
    CHECKPOINT_ROWS = (
        (1, "A", 0, 2), (2, "A", 1, 3), (3, "B", 0, 5), (4, "B", 1, 7),
        (5, "C", 0, 1), (6, "B", 0, 4), (7, "C", 1, 9), (8, "A", 0, 6),
        (9, "B", 0, 1), (12, "C", 0, 2), (20, "A", 1, 1), (21, "B", 1, 2),
        (22, "C", 1, 5), (40, "A", 0, 0))
    _A, _B, _C = Variable("a"), Variable("b", True), Variable("c")
    _f = frozenset
    # Projections: (a.pid, b+.pid, a.T, b+.T) value sets.
    FLAT_CHECKPOINT = {
        "groups": [
            ((_f({_A, _B, _C}), 2, (_f({1}), _f({1}), _f({2}), _f({4}))),
             1, (None, 7, 9, (3, 1))),
            ((_f({_B}), 3, (_f(), _f({0, 1}), _f(), _f({3, 4, 6}))),
             1, (None, 16, None, (0, 0))),
            ((_f({_B}), 4, (_f(), _f({0, 1}), _f(), _f({4, 6}))),
             1, (None, 11, None, (0, 0))),
            ((_f({_A, _B}), 6, (_f({0}), _f({0}), _f({8}), _f({6}))),
             1, (None, 4, None, (6, 1))),
            ((_f({_A}), 8, (_f({0}), _f(), _f({8}), _f())),
             1, (None, 0, None, (6, 1))),
        ],
        "snapshot": {"version": 1, "matches": 1,
                     "totals": [None, 5, 1, [2, 1]]},
        "max_groups": 5,
    }

    def _checkpoint_engine(self, rows):
        engine = compile_plan(
            self.CHECKPOINT_PATTERN,
            aggregate=self.CHECKPOINT_SPEC).executor()._agg
        stats = ExecutionStats()
        for ts, kind, pid, x in rows:
            engine.step(ev(ts, kind, pid=pid, x=x), stats)
        return engine, stats

    def test_flat_checkpoint_loads_and_resumes(self):
        straight, stats = self._checkpoint_engine(self.CHECKPOINT_ROWS)
        straight.finish(stats)
        resumed, stats = self._checkpoint_engine(())
        resumed.load_state(self.FLAT_CHECKPOINT)
        assert resumed.group_count == 5
        assert resumed.next_expiry_ts == 2 + 6
        for ts, kind, pid, x in self.CHECKPOINT_ROWS[8:]:
            resumed.step(ev(ts, kind, pid=pid, x=x), stats)
        resumed.finish(stats)
        assert resumed.snapshot() == straight.snapshot()
        assert resumed.matches_folded == straight.matches_folded == 5
        assert resumed.max_groups == straight.max_groups
        assert resumed.values() == {"n": 5, "sum(b.x)": 20, "max(c.x)": 9,
                                    "avg(a.x)": 3.6}

    def test_state_dict_keeps_the_flat_layout(self):
        engine, _ = self._checkpoint_engine(self.CHECKPOINT_ROWS[:8])
        state = engine.state_dict()
        flat = self.FLAT_CHECKPOINT
        assert {k: v for k, v in state.items() if k != "groups"} == \
            {k: v for k, v in flat.items() if k != "groups"}
        # Same (key, n, registers) triples; buckets only reorder them.
        assert sorted(state["groups"], key=lambda g: g[0][1]) == flat["groups"]
        # ... deterministically, and a reload writes the same list back.
        again, _ = self._checkpoint_engine(self.CHECKPOINT_ROWS[:8])
        assert again.state_dict() == state
        again.load_state(state)
        assert again.state_dict() == state


# ----------------------------------------------------------------------
# Plan cache fingerprinting
# ----------------------------------------------------------------------

class TestFingerprints:
    def test_agg_plan_is_distinct_from_enum_plan(self):
        enum = compile_plan(JOIN_PATTERN)
        agg = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        assert enum.fingerprint != agg.fingerprint
        assert enum is not agg
        assert agg.aggregate is JOIN_SPEC

    def test_same_spec_hits_the_cache(self):
        assert (compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
                is compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC))

    def test_different_specs_differ(self):
        other = AggregateSpec(aggregates=(Aggregate("count", alias="n"),))
        assert (compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC).fingerprint
                != compile_plan(JOIN_PATTERN,
                                aggregate=other).fingerprint)


# ----------------------------------------------------------------------
# Typed results and the query façade
# ----------------------------------------------------------------------

class TestResultSurfaces:
    def test_match_delegates_to_substitution(self):
        events = rel(ev(1, "A", pid=1, x=2), ev(2, "B", pid=1, x=3))
        matches = repro.query(
            "PATTERN PERMUTE(a, b) WHERE a.kind = 'A' AND b.kind = 'B' "
            "WITHIN 10", events)
        assert isinstance(matches, MatchSet)
        (match,) = list(matches)
        assert isinstance(match, Match)
        assert match.pattern_id is None and match.partition is None
        assert match.min_ts() == 1 and match.max_ts() == 2
        assert [e.eid for e in match.events()] == ["a1", "b2"]
        assert {v.name for v in match.variables} == {"a", "b"}
        assert len(match.bindings) == 2

    def test_aggregate_series_mapping_surface(self):
        series = AggregateSeries(
            JOIN_SPEC, fold_reference(JOIN_SPEC, []))
        assert len(series) == len(JOIN_SPEC)
        assert series["n"] == 0 and series[0] == 0
        assert series.labels == JOIN_SPEC.labels
        assert dict(series)["sum(a.x)"] is None
        rows = series.to_rows()
        assert rows[0] == {"aggregate": "n", "value": 0}

    def test_series_merged_with(self):
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        whole = plan.match(events).aggregates
        half1 = plan.match(EventRelation(events.events[:150])).aggregates
        half2 = plan.match(EventRelation(events.events[150:])).aggregates
        merged = half1.merged_with(half2)
        # Halving at an event boundary may split an in-flight window,
        # so only the counting structure is asserted here.
        assert (merged.matches_folded
                <= whole.matches_folded)
        assert merged.matches_folded == (half1.matches_folded
                                         + half2.matches_folded)

    def test_query_facade_accepts_plan_and_pattern(self):
        events = join_relation()
        plan = compile_plan(JOIN_PATTERN, aggregate=JOIN_SPEC)
        from_plan = repro.query(plan, events)
        assert isinstance(from_plan, AggregateSeries)
        from_pattern = repro.query(JOIN_PATTERN, events)
        assert isinstance(from_pattern, MatchSet)
        with pytest.raises(TypeError):
            repro.query(42, events)


# ----------------------------------------------------------------------
# Registry fan-out
# ----------------------------------------------------------------------

class TestRegistryAggregation:
    QUERY = ("SELECT count(*) AS n, avg(b.x) FROM PATTERN PERMUTE(a, b) "
             "WHERE a.kind = 'A' AND b.kind = 'B' AND a.pid = b.pid "
             "WITHIN 25")

    def test_registry_aggregates_match_standalone_stream(self):
        from repro.registry import PatternRegistry, UnknownPatternError
        events = join_relation(seed=5, n=250)
        obs = Observability()
        registry = PatternRegistry(observability=obs)
        registry.register(self.QUERY, pattern_id="agg")
        registry.register(
            "PATTERN PERMUTE(a, b) WHERE a.kind = 'A' AND b.kind = 'B' "
            "WITHIN 25", pattern_id="enum")
        registry.push_many(events)
        registry.close()

        pattern, spec = parse_query_spec(self.QUERY)
        plan = compile_plan(pattern, aggregate=spec)
        standalone = plan.stream()
        for event in events:
            standalone.push(event)
        standalone.close()

        series = registry.aggregates_of("agg")
        assert series.matches_folded == standalone.matches_folded > 0
        assert_same_values(spec, series.values,
                           standalone.aggregates().values)
        # Enum siblings still enumerate; the agg entry contributes none.
        assert registry.matches_of("agg") == []
        assert len(registry.matches_of("enum")) > 0

        snapshot = obs.snapshot()
        folded = snapshot["ses_agg_matches_folded_total[agg]"]
        assert folded["value"] == series.matches_folded
        with pytest.raises(UnknownPatternError):
            registry.aggregates_of("nope")
