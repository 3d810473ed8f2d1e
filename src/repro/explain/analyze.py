"""EXPLAIN ANALYZE: instrumented execution with per-transition counters.

The analyzed run executes a *shadow automaton* whose transitions are
:class:`CountingTransition` instances — same states, same conditions,
same semantics, but both halves of admission
(:meth:`~CountingTransition.admits_event`, asked once per (state, event),
and :meth:`~CountingTransition.admits_bindings`, asked per instance)
tally per-transition and per-condition evaluations, passes and wall
time.  A production automaton asks ``admits_event`` only when it builds
a row of its step table — once per (event class, state), then never
again; the shadow builds its rows through the same code but memoises
none (``step_table_cap = 0``), so the event-only tallies stay what they
describe: one decision per occupied state per event.  Its
``live_slots`` says every register walks, so no instances join into
runs and ``admits_bindings`` is tallied per instance.  The production
:class:`~repro.automaton.transitions.Transition` and
:class:`~repro.automaton.executor.SESExecutor` are untouched, so a plan
that was never analyzed carries no counting code at all.

Counters reconcile exactly with the executor's own accounting: the sum
of per-transition passes equals ``stats.transitions_fired`` (and hence
the ``ses_transitions_fired_total`` counter), because the executor fires
precisely the transitions whose ``admits_bindings`` returned ``True``.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from ..automaton.automaton import SESAutomaton
from ..automaton.buffer import WALK
from ..automaton.executor import SESExecutor
from ..automaton.states import state_label
from ..automaton.transitions import Transition
from ..obs import Observability
from ..plan.cache import as_plan
from .report import ExplainReport
from .stats import stats_key, stats_store

__all__ = ["CountingTransition", "counting_automaton", "transition_label",
           "explain_analyze"]


def transition_label(transition: Transition) -> str:
    """Deterministic label of a transition (no conditions): the key the
    statistics store and the explain report file counters under."""
    return (f"{state_label(transition.source)} "
            f"--{transition.variable.name}--> "
            f"{state_label(transition.target)}")


class CountingTransition(Transition):
    """A :class:`Transition` whose two admission halves tally evaluations,
    passes and wall time, per transition and per condition.

    Semantics are identical to the base class.  ``evaluations`` counts
    admission decisions: one per :meth:`admits_event` that fails (it
    rules the transition out for every instance in the state at once)
    plus one per :meth:`admits_bindings` call; ``passes`` counts the
    decisions that fired.  Per-condition tallies count actual
    evaluations, so an event-only condition is charged once per
    (state, event) however many instances sit in the state.
    """

    __slots__ = ("evaluations", "passes", "seconds",
                 "condition_evaluations", "condition_passes")

    def __init__(self, source, variable, conditions=()):
        super().__init__(source, variable, conditions)
        self.evaluations = 0
        self.passes = 0
        self.seconds = 0.0
        self.condition_evaluations: List[int] = [0] * len(self.conditions)
        self.condition_passes: List[int] = [0] * len(self.conditions)

    def admits_event(self, event) -> bool:
        started = time.perf_counter()
        admitted = True
        for index, (other, anchored) in enumerate(self._checks):
            if other is not None:
                continue  # admits_bindings' half
            self.condition_evaluations[index] += 1
            if anchored.evaluate_events(event, event):
                self.condition_passes[index] += 1
            else:
                admitted = False
                self.evaluations += 1
                break
        self.seconds += time.perf_counter() - started
        return admitted

    def admits_bindings(self, event, buffer) -> bool:
        started = time.perf_counter()
        self.evaluations += 1
        admitted = True
        for index, (other, anchored) in enumerate(self._checks):
            if other is None:
                continue  # admits_event's half
            self.condition_evaluations[index] += 1
            if all(anchored.evaluate_events(event, partner)
                   for partner in buffer.events_of(other)):
                self.condition_passes[index] += 1
            else:
                admitted = False
                break
        if admitted:
            self.passes += 1
        self.seconds += time.perf_counter() - started
        return admitted

    # ------------------------------------------------------------------
    # Counter export
    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """This transition's tallies as a plain dict (selectivity is the
        observed pass rate; ``None`` until evaluated at least once)."""
        conditions = []
        for index, condition in enumerate(self.conditions):
            evaluations = self.condition_evaluations[index]
            passes = self.condition_passes[index]
            conditions.append({
                "condition": repr(condition),
                "evaluations": evaluations,
                "passes": passes,
                "selectivity": (passes / evaluations if evaluations
                                else None),
            })
        return {
            "label": transition_label(self),
            "source": state_label(self.source),
            "variable": self.variable.name,
            "target": state_label(self.target),
            "evaluations": self.evaluations,
            "passes": self.passes,
            "selectivity": (self.passes / self.evaluations
                            if self.evaluations else None),
            "seconds": self.seconds,
            "conditions": conditions,
        }


class _ShadowAutomaton(SESAutomaton):
    """An automaton that builds the rows of every event afresh, so its
    counting transitions see each (occupied state, event) decision, and
    whose registers all walk, as a :class:`CountingTransition` reads
    them, so the executor keeps every instance a run of its own."""

    step_table_cap = 0

    def live_slots(self, state):
        return lambda registers: (WALK,)


def counting_automaton(automaton: SESAutomaton
                       ) -> Tuple[SESAutomaton, List[CountingTransition]]:
    """A shadow of ``automaton`` with every transition replaced by a
    fresh :class:`CountingTransition` (declaration order preserved)."""
    transitions = [CountingTransition(t.source, t.variable, t.conditions)
                   for t in automaton.transitions]
    shadow = _ShadowAutomaton(automaton.states, transitions, automaton.start,
                              automaton.accepting, automaton.tau)
    return shadow, transitions


def explain_analyze(pattern, relation, *, use_filter: bool = True,
                    filter_mode: str = "conjunctive",
                    selection: str = "paper", consume: str = "greedy",
                    observability: Optional[Observability] = None,
                    window: Optional[int] = None,
                    record_stats: bool = True,
                    store=None) -> ExplainReport:
    """Run ``pattern`` over ``relation`` with per-transition counters and
    return the annotated :class:`~repro.explain.report.ExplainReport`.

    Parameters
    ----------
    pattern:
        A pattern or a compiled :class:`~repro.plan.plan.PatternPlan`.
    relation:
        The events to run over (any iterable; an
        :class:`~repro.core.relation.EventRelation` also yields the
        window size for the complexity section).
    use_filter / filter_mode / selection / consume:
        Forwarded to the executor, matching :meth:`PatternPlan.match`.
    observability:
        Optional :class:`~repro.obs.Observability` bundle; a private one
        is used otherwise.  Executor counters (``ses_*``) publish into
        it either way, so analyze output reconciles with live metrics.
    record_stats:
        Feed the observed selectivities into the statistics store
        (``store``, defaulting to the process-global one), closing the
        runtime → :func:`~repro.explain.order.ordered_plan` loop.
    """
    from .explain import explain  # static section builder (cycle-free)

    plan = as_plan(pattern)
    events = list(relation)
    if window is None:
        window_size = getattr(relation, "window_size", None)
        if callable(window_size):
            window = window_size(plan.pattern.tau)
    report = explain(plan, window=window)

    obs = Observability() if observability is None else observability
    shadow, transitions = counting_automaton(plan.automaton)
    event_filter = plan.prefilter(filter_mode) if use_filter else None
    executor = SESExecutor(shadow, event_filter=event_filter,
                           selection=selection, consume_mode=consume,
                           obs=obs)
    started = time.perf_counter()
    result = executor.run(events)
    wall_seconds = time.perf_counter() - started

    stats = result.stats
    counters = [t.counters() for t in transitions]
    fired = sum(t.passes for t in transitions)
    evaluated = sum(t.evaluations for t in transitions)
    prefilter_selectivity = (1.0 - stats.events_processed / stats.events_read
                             if stats.events_read else None)
    report.analysis = {
        "events": stats.events_read,
        "events_filtered": stats.events_filtered,
        "events_processed": stats.events_processed,
        "matches": len(result.matches),
        "accepted_buffers": stats.accepted_buffers,
        "wall_seconds": wall_seconds,
        "instances_created": stats.instances_created,
        "instances_expired": stats.expired_instances,
        "branchings": stats.branchings,
        "max_omega": stats.max_simultaneous_instances,
        "transitions_fired": stats.transitions_fired,
        "transition_evaluations": evaluated,
        "transition_passes": fired,
        "reconciles": fired == stats.transitions_fired,
        "prefilter_selectivity": prefilter_selectivity,
        "selection": selection,
        "consume": consume,
        "use_filter": use_filter,
        "transitions": counters,
    }

    if record_stats:
        target = stats_store() if store is None else store
        condition_counts: dict = {}
        transition_counts: dict = {}
        for record in counters:
            per_condition = {
                entry["condition"]: {"evaluations": entry["evaluations"],
                                     "passes": entry["passes"]}
                for entry in record["conditions"]
            }
            transition_counts[record["label"]] = {
                "evaluations": record["evaluations"],
                "passes": record["passes"],
                "seconds": record["seconds"],
                "conditions": per_condition,
            }
            for text, counts in per_condition.items():
                slot = condition_counts.setdefault(
                    text, {"evaluations": 0, "passes": 0})
                slot["evaluations"] += counts["evaluations"]
                slot["passes"] += counts["passes"]
        target.observe(
            stats_key(plan.pattern),
            events=stats.events_read,
            matches=len(result.matches),
            filter_seen=stats.events_read,
            filter_admitted=stats.events_processed,
            conditions=condition_counts,
            transitions=transition_counts,
        )
    return report
