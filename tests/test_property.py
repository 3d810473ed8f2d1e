"""Property-based tests (hypothesis) on core data structures and engines."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import Event, EventRelation, SESPattern, Substitution
from repro.automaton import SESAutomaton, SESExecutor, Transition
from repro.automaton.builder import build_automaton
from repro.automaton.executor import CONSUME_MODES
from repro.baseline import BruteForceMatcher, naive_match
from repro.core.semantics import (satisfies_conditions, satisfies_order,
                                  satisfies_window)
from repro.core.variables import group, var
from repro.lang import parse_pattern, render_pattern

from conftest import match

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
KINDS = ("A", "B", "C")


@st.composite
def typed_relations(draw, max_events: int = 12, kinds=KINDS,
                    unique_ts: bool = False):
    """Small relations of typed events with possibly tied timestamps.

    ``unique_ts=True`` forbids ties — required when comparing against the
    brute force baseline, whose sequence rewriting imposes a strict order
    between all variables and therefore cannot match simultaneous events
    (a documented limitation; see tests/test_baseline.py).
    """
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=40),
        min_size=n, max_size=n, unique=unique_ts)))
    events = []
    for i, ts in enumerate(timestamps):
        kind = draw(st.sampled_from(kinds))
        events.append(Event(ts=ts, eid=f"e{i}", kind=kind))
    return EventRelation(events)


@st.composite
def simple_patterns(draw, allow_groups: bool = True):
    """Join-free patterns over the typed events.

    Shapes: one or two event set patterns, each variable carrying one
    constant type condition; at most one group variable (none when
    ``allow_groups=False``).  Join-free *and group-free* patterns are the
    class on which the operational Algorithm 1 provably coincides with
    the declarative Definition 2: with joins a greedy instance can bind a
    dead-end partner, and with a group loop it can greedily swallow an
    event whose timestamp then violates the inter-set order (both
    divergences are pinned in tests/test_integration.py).
    """
    n_sets = draw(st.integers(min_value=1, max_value=2))
    sets, conditions = [], []
    names = iter("uvwxyz")
    used_group = False
    for _ in range(n_sets):
        set_size = draw(st.integers(min_value=1, max_value=2))
        current = []
        for _ in range(set_size):
            name = next(names)
            is_group = (allow_groups and not used_group
                        and draw(st.booleans()))
            used_group = used_group or is_group
            current.append(name + "+" if is_group else name)
            kind = draw(st.sampled_from(KINDS))
            conditions.append(f"{name}.kind = '{kind}'")
        sets.append(current)
    tau = draw(st.integers(min_value=0, max_value=60))
    return SESPattern(sets=sets, conditions=conditions, tau=tau)


# ----------------------------------------------------------------------
# Universal match invariants (any engine, any input)
# ----------------------------------------------------------------------
class TestMatchInvariants:
    @given(pattern=simple_patterns(), relation=typed_relations())
    @settings(max_examples=120, deadline=None)
    def test_matches_satisfy_definition_conditions_1_to_3(self, pattern,
                                                          relation):
        for substitution in match(pattern, relation):
            assert substitution.is_total_for(pattern)
            assert satisfies_conditions(substitution, pattern)
            assert satisfies_order(substitution, pattern)
            assert satisfies_window(substitution, pattern)

    @given(pattern=simple_patterns(), relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_matches_use_distinct_relation_events(self, pattern, relation):
        pool = set(relation.events)
        for substitution in match(pattern, relation):
            events = [e for _, e in substitution.bindings]
            assert all(e in pool for e in events)

    @given(pattern=simple_patterns(), relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_paper_selection_is_non_overlapping(self, pattern, relation):
        used = set()
        for substitution in match(pattern, relation):
            events = set(substitution.events())
            assert not (events & used)
            used |= events

    @given(pattern=simple_patterns(), relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_filter_neutrality(self, pattern, relation):
        with_filter = match(pattern, relation, use_filter=True)
        without = match(pattern, relation, use_filter=False)
        assert with_filter.matches == without.matches

    @given(pattern=simple_patterns(), relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_determinism(self, pattern, relation):
        assert match(pattern, relation).matches == \
            match(pattern, relation).matches


# ----------------------------------------------------------------------
# Engine agreement
# ----------------------------------------------------------------------
class TestEngineAgreement:
    @given(pattern=simple_patterns(allow_groups=False),
           relation=typed_relations(max_events=9, unique_ts=True))
    @settings(max_examples=60, deadline=None)
    def test_executor_equals_oracle_on_join_and_group_free_patterns(
            self, pattern, relation):
        """Join-free, group-free patterns over tie-free relations:
        Algorithm 1 == Definition 2.  Timestamp ties break the
        equivalence even here — with simultaneous events, "an earlier
        usable event" (condition 4) degenerates and Definition 2 admits
        pairings a greedy run never forms; pinned in
        tests/test_integration.py::TestTieDivergence."""
        operational = match(pattern, relation).matches
        declarative = naive_match(pattern, relation)
        assert operational == declarative

    @given(pattern=simple_patterns(), relation=typed_relations(max_events=9))
    @settings(max_examples=60, deadline=None)
    def test_executor_results_admitted_by_conditions_1_to_3(self, pattern,
                                                            relation):
        """With group variables Algorithm 1 may *under*-report relative to
        Definition 2 (greedy loop bindings can be fatal near the window
        boundary), but what it reports is always a valid candidate."""
        from repro.core.semantics import is_candidate
        for substitution in match(pattern, relation):
            assert is_candidate(substitution, pattern)

    @given(relation=typed_relations(max_events=10, unique_ts=True))
    @settings(max_examples=60, deadline=None)
    def test_ses_matches_subset_of_bruteforce_accepted(self, relation):
        """Every buffer the SES automaton accepts, some sequence automaton
        of the brute force rewriting accepts too."""
        pattern = SESPattern(
            sets=[["x", "y"], ["z"]],
            conditions=["x.kind = 'A'", "y.kind = 'B'", "z.kind = 'C'"],
            tau=30,
        )
        ses = match(pattern, relation, selection="accepted")
        bf = BruteForceMatcher(pattern, selection="accepted").run(relation)
        assert set(ses.accepted) <= set(bf.accepted)

    @given(relation=typed_relations(max_events=10, unique_ts=True))
    @settings(max_examples=60, deadline=None)
    def test_ses_equals_bruteforce_on_exclusive_singletons(self, relation):
        pattern = SESPattern(
            sets=[["x", "y"], ["z"]],
            conditions=["x.kind = 'A'", "y.kind = 'B'", "z.kind = 'C'"],
            tau=30,
        )
        ses = match(pattern, relation).matches
        bf = BruteForceMatcher(pattern).run(relation).matches
        assert ses == bf


# ----------------------------------------------------------------------
# The no-filter cell: hoisted event-only conditions do the filter's work
# ----------------------------------------------------------------------
class _LateTransition(Transition):
    """Reference transition: the whole condition set is decided per
    instance, nothing once per (state, event)."""

    __slots__ = ()

    def admits_event(self, event):
        return True

    def admits_bindings(self, event, buffer):
        return (Transition.admits_event(self, event)
                and Transition.admits_bindings(self, event, buffer))


def _run_unfiltered(pattern, relation, mode, late=False):
    automaton = build_automaton(pattern)
    if late:
        automaton = SESAutomaton(
            automaton.states,
            [_LateTransition(t.source, t.variable, t.conditions)
             for t in automaton.transitions],
            automaton.start, automaton.accepting, automaton.tau)
    return SESExecutor(automaton, consume_mode=mode).run(relation)


@st.composite
def keyed_relations(draw, max_events: int = 9):
    """:func:`typed_relations` plus a two-valued join attribute."""
    return EventRelation([
        Event(ts=e.ts, eid=e.eid, kind=e.get("kind"),
              ID=draw(st.integers(min_value=1, max_value=2)))
        for e in draw(typed_relations(max_events=max_events))])


@st.composite
def joined_patterns(draw):
    """:func:`simple_patterns`, possibly equi-joined on ``ID`` between the
    first two variables (a binding-dependent condition next to the
    event-only ones)."""
    pattern = draw(simple_patterns())
    names = sorted(v.name for v in pattern.variables)
    if len(names) < 2 or not draw(st.booleans()):
        return pattern
    return SESPattern(
        sets=[[repr(v) for v in sorted(s, key=repr)] for s in pattern.sets],
        conditions=[repr(c) for c in pattern.conditions]
        + [f"{names[0]}.ID = {names[1]}.ID"],
        tau=pattern.tau)


# ----------------------------------------------------------------------
# The step table against per-instance evaluation, event by event
# ----------------------------------------------------------------------
#: ``1 == 1.0`` (one truth value, two spellings), text that no number
#: compares with (``TypeError`` -> ``False``), and a missing attribute.
_MIXED = (1, 1.0, 2, "x", None)

_EVENT_ONLY = ("{v}.kind = '{kind}'", "{v}.k >= 1", "{v}.k = 'x'",
               "{v}.k < {v}.j", "{v}.k = {v}.j", "{v}.j != {v}.k")


@st.composite
def mixed_relations(draw, max_events: int = 10):
    """Typed events whose ``k``/``j`` are of mixed type or missing."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    timestamps = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=30), min_size=n, max_size=n)))
    events = []
    for i, ts in enumerate(timestamps):
        attrs = {"kind": draw(st.sampled_from(KINDS))}
        for name in ("k", "j"):
            value = draw(st.sampled_from(_MIXED))
            if value is not None:
                attrs[name] = value
        events.append(Event(ts=ts, eid=f"e{i}", **attrs))
    return events


@st.composite
def tabled_patterns(draw):
    """One or two sets over ``x, y(+), z``; every variable carries one or
    two conditions on the event alone (constant and self conditions,
    several of them shared between variables), ``x`` and ``y`` possibly
    equi-joined on ``k`` (an indexed state)."""
    y = "y+" if draw(st.booleans()) else "y"
    sets = [["x", y]] + ([["z"]] if draw(st.booleans()) else [])
    conditions = []
    for name in "xyz"[:len(sets) + 1]:
        for template in draw(st.lists(st.sampled_from(_EVENT_ONLY),
                                      min_size=1, max_size=2, unique=True)):
            conditions.append(template.format(
                v=name, kind=draw(st.sampled_from(KINDS))))
    if draw(st.booleans()):
        conditions.append("x.k = y.k")
    return SESPattern(sets=sets, conditions=conditions,
                      tau=draw(st.integers(min_value=0, max_value=40)))


def _omega(executor):
    return [(instance.state, instance.buffer.to_substitution())
            for instance in executor.instances()]


class TestStepTableLockstep:
    """``SESExecutor`` reads what an event enables from the automaton's
    step table — the event classified once, one row per occupied state.
    The reference decides the whole condition set per instance
    (:class:`_LateTransition`: its rows hold every transition).  After
    every event the two must hold the same Ω, have accepted the same
    buffers and agree on every counter."""

    @given(pattern=tabled_patterns(), events=mixed_relations(),
           restore_at=st.integers(min_value=0, max_value=10))
    @settings(max_examples=120, deadline=None)
    def test_lockstep_in_every_consume_mode(self, pattern, events,
                                            restore_at):
        automaton = build_automaton(pattern)
        late = SESAutomaton(
            automaton.states,
            [_LateTransition(t.source, t.variable, t.conditions)
             for t in automaton.transitions],
            automaton.start, automaton.accepting, automaton.tau)
        for mode in CONSUME_MODES:
            tabled = SESExecutor(automaton, selection="accepted",
                                 consume_mode=mode)
            reference = SESExecutor(late, selection="accepted",
                                    consume_mode=mode)
            for index, event in enumerate(events):
                if index == restore_at:  # snapshot / restore mid-stream
                    restored = SESExecutor(automaton, selection="accepted",
                                           consume_mode=mode)
                    restored.load_state(tabled.state_dict())
                    tabled = restored
                assert tabled.feed(event) == reference.feed(event), mode
                assert _omega(tabled) == _omega(reference), (mode, index)
                assert tabled.stats == reference.stats, (mode, index)
                assert (tabled.next_expiry_ts
                        == reference.next_expiry_ts), (mode, index)
            assert tabled.finish() == reference.finish(), mode
            assert tabled.stats == reference.stats, mode

    @given(pattern=tabled_patterns(), events=mixed_relations())
    @settings(max_examples=80, deadline=None)
    def test_a_class_decides_what_admits_event_decides(self, pattern, events):
        """Events of one class enable the same transitions in every
        state, and the class is computed with ``evaluate_events``'
        semantics (missing attribute, incomparable values: false)."""
        automaton = build_automaton(pattern)
        truths = {}
        for event in events:
            rows = automaton.step_rows(event)
            for state in automaton.states:
                enabled = tuple(t for t in automaton.outgoing(state)
                                if t.admits_event(event))
                row = rows[state]
                assert (() if row is None else row.transitions) == enabled
            # Same class <=> same truth value of every event-only check.
            truth = tuple(anchored.evaluate_events(event, event)
                          for t in automaton.transitions
                          for other, anchored in t.checks if other is None)
            assert truths.setdefault(automaton.classify(event),
                                     truth) == truth
        assert len(set(truths.values())) == len(truths)
        for predicate in automaton.event_alphabet:
            assert predicate.readers
        assert len(automaton._step_table) <= min(
            len(events), 2 ** len(automaton.event_alphabet))


# ----------------------------------------------------------------------
# Θδ's binding half, bound to rows when the transition is built
# ----------------------------------------------------------------------
def _interpreted_bindings(transition, event, buffer):
    """``Transition.admits_bindings`` as it read before the rows (commit
    d1b70df): each anchored condition interpreted per partner event."""
    for other, anchored in transition.checks:
        if other is None:
            continue
        for partner in buffer.events_of(other):
            if not anchored.evaluate_events(event, partner):
                return False
    return True


#: Mixed types, values equal across types, ``nan``, ``None``; ``_GONE``
#: leaves the attribute out.
_GONE = object()
_ROW_VALUES = (1, 1.0, True, 2, -3, "s", "1", None, float("nan"), (1,), _GONE)


@st.composite
def _row_events(draw, eid):
    attrs = {}
    for name in ("x", "y"):
        value = draw(st.sampled_from(_ROW_VALUES))
        if value is not _GONE:
            attrs[name] = value
    return Event(ts=draw(st.integers(min_value=0, max_value=5)), eid=eid,
                 **attrs)


def _laid_out(transition):
    """The smallest automaton holding ``transition``: it numbers the
    summary registers the binding rows read, and extends buffers."""
    return SESAutomaton([transition.source, transition.target],
                        [transition], transition.source, transition.target,
                        tau=10)


@st.composite
def _binding_cases(draw):
    """A transition binding ``v`` whose conditions compare ``v`` with a
    singleton ``u`` and a group ``g+`` — either way round, on ``x``, ``y``
    or the time attribute ``T`` — beside a constant and a self condition
    (the event-only half, not ``admits_bindings``' business); a buffer
    that binds none, one or both partners, built as an executor builds
    it (in time order, registers and all); and an event."""
    from repro.core.conditions import OPERATORS, Attr, Condition, Const
    v, u, g = var("v"), var("u"), group("g")
    conditions = [Condition(Attr(v, "x"), "=", Const(1)),
                  Condition(Attr(v, "x"), "<=", Attr(v, "y"))]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        mine = Attr(v, draw(st.sampled_from(("x", "y", "T"))))
        theirs = Attr(draw(st.sampled_from((u, g))),
                      draw(st.sampled_from(("x", "y", "T"))))
        left, right = draw(st.permutations((mine, theirs)))
        conditions.append(Condition(
            left, draw(st.sampled_from(sorted(OPERATORS))), right))
    bindings = []
    if draw(st.booleans()):
        bindings.append((u, draw(_row_events("u0"))))
    for i in range(draw(st.integers(min_value=0, max_value=3))):
        bindings.append((g, draw(_row_events(f"g{i}"))))
    # An executor binds in time order (it refuses an event older than
    # the last): so does this buffer, ties in the order drawn.
    bindings.sort(key=lambda binding: binding[1].ts)
    transition = Transition(frozenset(v for v, _ in bindings), v, conditions)
    automaton = _laid_out(transition)
    buffer = automaton.empty_buffer
    for variable, event in bindings:
        buffer = automaton.extend(buffer, variable, event)
    return transition, draw(_row_events("new")), buffer


class TestBindingRows:
    @given(case=_binding_cases())
    @settings(max_examples=400, deadline=None)
    def test_rows_decide_what_the_conditions_decide(self, case):
        transition, event, buffer = case
        assert (transition.admits_bindings(event, buffer)
                is _interpreted_bindings(transition, event, buffer))
        assert len(transition.binding_rows) == sum(
            other is not None for other, _ in transition.checks)

    @pytest.mark.parametrize("values, summaries", [
        ((), {"=": "UNBOUND", "<": "UNBOUND", ">=": "UNBOUND"}),
        ((2, 2), {"=": 2, "<": 2, ">=": 2}),
        ((2, 1, 3), {"=": "CONFLICT", "<": 1, ">=": 3}),
        (("b", "a"), {"=": "CONFLICT", "<": "a", ">=": "b"}),
        ((1, 1.0), {"=": "WALK", "<": "WALK", ">=": "WALK"}),
        ((True, 1), {"=": "WALK", "<": "WALK", ">=": "WALK"}),
        ((1.0, float("nan")), {"=": "WALK", "<": "WALK", ">=": "WALK"}),
        ((None, None), {"=": None, "<": "WALK", ">=": "WALK"}),
        (((1,), (2,)), {"=": "CONFLICT", "<": "WALK", ">=": "WALK"}),
        ((1, _GONE, 1), {"=": "MISSING", "<": "MISSING", ">=": "MISSING"}),
        ((_GONE, 2), {"=": "MISSING", "<": "MISSING", ">=": "MISSING"}),
        ((1.0, 1, _GONE), {"=": "MISSING", "<": "MISSING", ">=": "MISSING"}),
    ])
    def test_registers_summarise_or_walk(self, values, summaries):
        """Each register kind on mixed types, ``nan``, ``None`` and a
        missing attribute: it holds what a decision needs (the one
        value, the least, the greatest) or says why it cannot — and
        every decision through it is the interpreted one."""
        from repro.automaton import buffer as registers
        from repro.core.conditions import parse_condition
        v, g = var("v"), group("g")
        names = {"v": v, "g": g}
        transition = Transition(frozenset({g}), v, [
            parse_condition(f"v.x {op} g.x", names) for op in summaries])
        automaton = _laid_out(transition)
        buffer = automaton.empty_buffer
        for i, value in enumerate(values):
            attrs = {} if value is _GONE else {"x": value}
            buffer = automaton.extend(buffer, g, Event(ts=i, **attrs))
        for key, held in zip(transition.register_keys,
                             (buffer.registers[slot] for slot, *_
                              in transition._register_rows)):
            op = {registers.EQUAL: "=", registers.LEAST: "<",
                  registers.GREATEST: ">="}[key[2]]
            expected = summaries[op]
            if isinstance(expected, str) and expected.isupper():
                assert held is getattr(registers, expected), (op, held)
            else:
                assert held == expected and type(held) is type(expected)
        for probe in (*_ROW_VALUES[:-1], 0, 5, "a", "c", (0,), _GONE):
            event = Event(ts=9, **({} if probe is _GONE else {"x": probe}))
            for row in range(len(summaries)):
                single = Transition(frozenset({g}), v,
                                    [transition.conditions[row]])
                laid = _laid_out(single)
                node = laid.empty_buffer
                for variable, bound in buffer.bindings():
                    node = laid.extend(node, variable, bound)
                assert (single.admits_bindings(event, node)
                        is _interpreted_bindings(single, event, node))
            assert (transition.admits_bindings(event, buffer)
                    is _interpreted_bindings(transition, event, buffer))

    def test_rows_are_bound_when_the_transition_is_built(self):
        import operator
        from repro.core.conditions import parse_condition
        names = {"a": var("a"), "p": group("p"), "c": var("c")}
        transition = Transition(
            frozenset({names["a"], names["p"]}), names["c"],
            [parse_condition(text, names) for text in
             ("c.L = 'C'", "a.ID = c.ID", "p.T < c.T", "c.V >= p.U")])
        assert transition.binding_rows == (
            (names["a"], "ID", operator.eq, "ID"),
            (names["p"], "T", operator.gt, "T"),
            (names["p"], "V", operator.ge, "U"))

    def test_a_group_variables_latest_timestamp(self):
        """``v.T > g.T`` reads ``g``'s greatest timestamp, which in a
        buffer built in time order is its latest: a run of ``g`` leaves
        the register alone — the run's last event holds it — and the
        binding that ends the run folds it in."""
        from repro.automaton.buffer import LATEST, UNBOUND
        from repro.core.conditions import parse_condition
        v, u, g = var("v"), var("u"), group("g")
        names = {"v": v, "u": u, "g": g}
        transition = Transition(frozenset({g, u}), v, [
            parse_condition(text, names) for text in ("v.T > g.T",
                                                      "v.T >= u.T")])
        automaton = _laid_out(transition)
        slot = automaton.register_slots[(g, "T", LATEST)]
        buffer = automaton.empty_buffer
        for ts in (1, 2, 2, 4):
            buffer = automaton.extend(buffer, g, Event(ts=ts))
            assert buffer.registers[slot] is UNBOUND
        ended = automaton.extend(buffer, u, Event(ts=4))
        assert ended.registers[slot] == 4
        resumed = automaton.extend(ended, g, Event(ts=6))
        assert resumed.registers[slot] == 4
        for node in (buffer, ended, resumed):
            for ts in range(8):
                event = Event(ts=ts)
                assert (transition.admits_bindings(event, node)
                        is _interpreted_bindings(transition, event, node))

    def test_no_interpretation_left_under_admits_bindings(self):
        """No ``Condition.evaluate_events``, no ``Event.get``, no walk of
        the partner's events: the rows are decided against the buffer's
        summary registers and the event's own dict."""
        names = Transition.admits_bindings.__code__.co_names
        assert "evaluate_events" not in names and "get" not in names
        assert "events_of" not in names and "_register_rows" in names


class TestUnfilteredExecutor:
    @given(pattern=joined_patterns(), relation=keyed_relations())
    @settings(max_examples=80, deadline=None)
    def test_hoisting_changes_nothing_in_any_consume_mode(self, pattern,
                                                          relation):
        for mode in CONSUME_MODES:
            hoisted = _run_unfiltered(pattern, relation, mode)
            late = _run_unfiltered(pattern, relation, mode, late=True)
            assert hoisted.accepted == late.accepted, mode
            assert hoisted.matches == late.matches, mode
            assert hoisted.stats == late.stats, mode

    @given(pattern=simple_patterns(), relation=typed_relations(max_events=8))
    @settings(max_examples=60, deadline=None)
    def test_exhaustive_equals_definition_2(self, pattern, relation):
        assert (_run_unfiltered(pattern, relation, "exhaustive").matches
                == naive_match(pattern, relation))

    @given(pattern=simple_patterns(allow_groups=False),
           relation=typed_relations(max_events=9, unique_ts=True))
    @settings(max_examples=60, deadline=None)
    def test_greedy_equals_definition_2_where_they_coincide(self, pattern,
                                                            relation):
        assert (_run_unfiltered(pattern, relation, "greedy").matches
                == naive_match(pattern, relation))

    @given(pattern=simple_patterns(allow_groups=False),
           relation=typed_relations(max_events=9, unique_ts=True))
    @settings(max_examples=60, deadline=None)
    def test_contiguous_is_a_subset_of_definition_2_candidates(self, pattern,
                                                               relation):
        from repro.core.semantics import is_candidate
        for substitution in _run_unfiltered(pattern, relation,
                                            "contiguous").accepted:
            assert is_candidate(substitution, pattern)


# ----------------------------------------------------------------------
# Data structure properties
# ----------------------------------------------------------------------
class TestRelationProperties:
    @given(relation=typed_relations(), factor=st.integers(1, 4),
           tau=st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_duplication_scales_window_size(self, relation, factor, tau):
        assume(len(relation) > 0)
        assert relation.duplicated(factor).window_size(tau) == \
            factor * relation.window_size(tau)

    @given(relation=typed_relations(), tau1=st.integers(0, 50),
           tau2=st.integers(0, 50))
    @settings(max_examples=80, deadline=None)
    def test_window_size_monotone_in_tau(self, relation, tau1, tau2):
        lo, hi = sorted((tau1, tau2))
        assert relation.window_size(lo) <= relation.window_size(hi)

    @given(relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_window_size_bounds(self, relation):
        assume(len(relation) > 0)
        assert 1 <= relation.window_size(0) <= len(relation)
        first, last = relation.timespan()
        assert relation.window_size(last - first) == len(relation)

    @given(relation=typed_relations())
    @settings(max_examples=60, deadline=None)
    def test_partition_by_is_a_partition(self, relation):
        parts = relation.partition_by("kind")
        total = sum(len(p) for p in parts.values())
        assert total == len(relation)
        for key, part in parts.items():
            assert all(e["kind"] == key for e in part)


class TestSubstitutionProperties:
    events = st.lists(
        st.integers(0, 30), min_size=1, max_size=5, unique=True,
    ).map(lambda tss: [Event(ts=ts, eid=f"p{ts}") for ts in sorted(tss)])

    @given(events=events)
    @settings(max_examples=80, deadline=None)
    def test_decomposition_count(self, events):
        p, q = group("p"), var("q")
        anchor = Event(ts=100, eid="anchor")
        substitution = Substitution([(p, e) for e in events] + [(q, anchor)])
        assert len(list(substitution.decompose())) == len(events)

    @given(events=events)
    @settings(max_examples=80, deadline=None)
    def test_span_and_bounds(self, events):
        p = group("p")
        substitution = Substitution([(p, e) for e in events])
        assert substitution.min_ts() == min(e.ts for e in events)
        assert substitution.max_ts() == max(e.ts for e in events)
        assert substitution.span() >= 0


class TestLanguageRoundTrip:
    @given(pattern=simple_patterns())
    @settings(max_examples=80, deadline=None)
    def test_render_parse_round_trip(self, pattern):
        assert parse_pattern(render_pattern(pattern)) == pattern


class TestTrimProperties:
    @given(pattern=simple_patterns())
    @settings(max_examples=60, deadline=None)
    def test_builder_output_needs_no_trimming(self, pattern):
        """The builder never emits dead transitions for satisfiable
        patterns (each variable's constant conditions are its own)."""
        from repro.automaton import trim
        from repro.automaton.builder import build_automaton
        report = trim(build_automaton(pattern))
        assert report.satisfiable
        assert not report.changed

    @given(pattern=simple_patterns(), relation=typed_relations(max_events=8))
    @settings(max_examples=40, deadline=None)
    def test_trimmed_automaton_equivalent(self, pattern, relation):
        from repro.automaton import SESExecutor, trim
        from repro.automaton.builder import build_automaton
        automaton = build_automaton(pattern)
        trimmed = trim(automaton).automaton
        original = SESExecutor(automaton, selection="accepted").run(relation)
        after = SESExecutor(trimmed, selection="accepted").run(relation)
        assert original.accepted == after.accepted
