"""Static EXPLAIN: everything derivable from the compiled plan alone."""

from __future__ import annotations

from typing import Optional

from ..automaton.states import state_label
from ..complexity import analyze
from ..plan.cache import compile as compile_plan
from ..plan.cache import plan_cache
from ..plan.plan import PatternPlan
from ..plan.prefilter import FILTER_MODES
from .report import ExplainReport
from .stats import stats_key, stats_store

__all__ = ["explain"]


def _transition_entries(automaton) -> list:
    from .analyze import transition_label
    entries = []
    for transition in automaton.transitions:
        probe = automaton.probe(transition.source)
        entries.append({
            "label": transition_label(transition),
            "source": state_label(transition.source),
            "variable": transition.variable.name,
            "target": state_label(transition.target),
            "is_loop": transition.is_loop,
            "conditions": [repr(c) for c in transition.conditions],
            # The bound attribute the executor looks the source state's
            # instances up by before it tries this transition on them.
            "probe": None if probe is None else probe.label,
        })
    return entries


def _event_alphabet(automaton) -> list:
    """The distinct conditions on the event alone, each with the
    transitions reading it: an event is classified by evaluating these
    once, whatever states are occupied."""
    from .analyze import transition_label
    return [{"predicate": predicate.text,
             "readers": [transition_label(t) for t in predicate.readers]}
            for predicate in automaton.event_alphabet]


def _unindexed_states(automaton) -> list:
    """Resting states whose instances are all offered an event some
    outgoing transition admits, and why (the start state only ever holds
    the event's own fresh instance; the accepting state is left out as a
    state nothing is waiting in)."""
    gaps = []
    for state in automaton.sorted_states():
        reason = automaton.probe_gap(state)
        if reason is not None and state not in (automaton.start,
                                                automaton.accepting):
            gaps.append({"state": state_label(state), "reason": reason})
    return gaps


def explain(pattern, *, window: Optional[int] = None, relation=None,
            optimizations=None) -> ExplainReport:
    """Build the static :class:`~repro.explain.report.ExplainReport` for
    ``pattern`` (or an already compiled plan).

    Parameters
    ----------
    pattern:
        A :class:`~repro.core.pattern.SESPattern` or a compiled
        :class:`~repro.plan.plan.PatternPlan`.
    window / relation:
        The Section 4.4 complexity section needs the window size ``W``;
        pass it directly or supply a relation it is computed from.
        Omitted, the complexity section is left out.
    optimizations:
        Forwarded to :func:`repro.compile` when ``pattern`` is not
        already a plan.
    """
    cache = plan_cache()
    if isinstance(pattern, PatternPlan):
        plan = pattern
        cached = plan.fingerprint in cache
    else:
        # Provenance must be read *before* compiling: compile() inserts
        # on a miss, after which membership always reads True.
        from ..plan.fingerprint import pattern_fingerprint
        from ..plan.plan import normalise_optimizations
        fingerprint = pattern_fingerprint(
            pattern, normalise_optimizations(optimizations))
        cached = fingerprint in cache
        plan = compile_plan(pattern, optimizations=optimizations)

    automaton = plan.automaton
    if window is None and relation is not None:
        window_size = getattr(relation, "window_size", None)
        if callable(window_size):
            window = window_size(plan.pattern.tau)
    complexity = None
    if window is not None:
        report = analyze(plan.pattern, window)
        complexity = {
            "window": report.window,
            "cases": [case.name for case in report.cases],
            "set_bounds": list(report.set_bounds),
            "total_bound": report.total_bound,
            "mutually_exclusive": report.mutually_exclusive,
            "describe": report.describe(),
        }

    prefilter = {}
    for mode in FILTER_MODES:
        compiled = plan.prefilter(mode)
        prefilter[mode] = {
            "effective": compiled.is_effective,
            "predicates": [list(predicate)
                           for predicate in compiled.predicates],
        }

    return ExplainReport(
        fingerprint=plan.fingerprint,
        pattern=repr(plan.pattern),
        optimizations=list(plan.optimizations),
        aggregate=(None if plan.aggregate is None
                   else plan.aggregate.render()),
        rewrites=list(plan.rewrites),
        automaton={
            "states": len(automaton.states),
            "transitions": len(automaton.transitions),
            "start": state_label(automaton.start),
            "accepting": state_label(automaton.accepting),
            "tau": automaton.tau,
            "unindexed": _unindexed_states(automaton),
            "alphabet": _event_alphabet(automaton),
        },
        transitions=_transition_entries(automaton),
        prefilter=prefilter,
        complexity=complexity,
        cache={"cached": cached, **cache.stats()},
        statistics=stats_store().get(stats_key(plan.pattern)),
    )
