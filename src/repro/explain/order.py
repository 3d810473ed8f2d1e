"""Statistics-informed condition evaluation order.

A transition's conditions split in two halves.  The half on the new
event alone (constant and self conditions) is decided by the
automaton's event alphabet — one
:class:`~repro.core.predicates.PredicateBank` pass per event, read
through the step table — so its order costs nothing.  The binding half,
:attr:`Transition.binding_rows
<repro.automaton.transitions.Transition.binding_rows>`, is walked per
(instance, transition) in condition order with short-circuiting, so the
expected cost is minimised by evaluating the row *least likely to pass*
first.  Declaration order is whatever the query author wrote; once a
pattern has been analyzed (or simply run) and its observed pass rates
persisted in the :class:`~repro.explain.stats.StatsStore`,
:func:`ordered_plan` rebuilds the automaton with each transition's
conditions sorted by ascending observed pass rate — which changes only
the short-circuit order of ``binding_rows`` ("Lazy Chain Automata"
reorders by exactly these statistics).

Reordering is result-preserving: a transition fires iff *all* its
conditions hold, independent of evaluation order (conditions are pure
comparisons over immutable events).
"""

from __future__ import annotations

from typing import List

from ..automaton.automaton import SESAutomaton
from ..automaton.transitions import Transition
from ..plan.cache import as_plan
from ..plan.plan import PatternPlan
from ..plan.prefilter import FILTER_MODES
from .stats import stats_key, stats_store

__all__ = ["rank_conditions", "ordered_automaton", "ordered_plan"]


def _ranked_conditions(transition: Transition, fingerprint: str,
                       store) -> List:
    """The transition's conditions sorted by ascending observed pass
    rate (unknown rates sort last, original order preserved on ties)."""
    from .analyze import transition_label
    label = transition_label(transition)

    def key(indexed):
        index, condition = indexed
        rate = store.transition_condition_selectivity(
            fingerprint, label, repr(condition))
        return (rate if rate is not None else 1.0, index)

    return [condition for _, condition
            in sorted(enumerate(transition.conditions), key=key)]


def rank_conditions(pattern, store=None) -> dict:
    """``{transition label: [condition reprs in evaluation order]}`` for
    every transition whose statistics suggest an order differing from
    declaration order (empty dict when statistics are absent)."""
    from .analyze import transition_label
    store = stats_store() if store is None else store
    plan = as_plan(pattern)
    fingerprint = stats_key(plan.pattern)
    if fingerprint not in store:
        return {}
    changed = {}
    for transition in plan.automaton.transitions:
        ranked = _ranked_conditions(transition, fingerprint, store)
        if tuple(ranked) != transition.conditions:
            changed[transition_label(transition)] = [repr(c) for c in ranked]
    return changed


def ordered_automaton(automaton: SESAutomaton, pattern,
                      store=None) -> SESAutomaton:
    """A copy of ``automaton`` with each transition's conditions sorted
    by the statistics store's observed pass rates (ascending)."""
    store = stats_store() if store is None else store
    fingerprint = stats_key(pattern)
    transitions = [
        Transition(t.source, t.variable,
                   _ranked_conditions(t, fingerprint, store))
        for t in automaton.transitions
    ]
    return SESAutomaton(automaton.states, transitions, automaton.start,
                        automaton.accepting, automaton.tau)


def ordered_plan(pattern, store=None) -> PatternPlan:
    """A statistics-ordered twin of the plan for ``pattern``.

    Returns the original plan unchanged when the store has no record of
    the pattern (nothing to rank by).  The ordered plan is rebuilt — not
    cached — because its transition tables depend on mutable statistics;
    its fingerprint carries a ``:stats-order`` suffix so it never
    collides with the cached canonical plan.
    """
    store = stats_store() if store is None else store
    plan = as_plan(pattern)
    if stats_key(plan.pattern) not in store:
        return plan
    automaton = ordered_automaton(plan.automaton, plan.pattern, store)
    changed = rank_conditions(plan, store)
    rewrites = list(plan.rewrites)
    rewrites.append(
        f"stats-order: reordered conditions on {len(changed)} "
        f"transition(s) by observed selectivity")
    return PatternPlan(
        pattern=plan.pattern,
        automaton=automaton,
        fingerprint=plan.fingerprint + ":stats-order",
        optimizations=plan.optimizations,
        prefilters={mode: plan.prefilter(mode) for mode in FILTER_MODES},
        rewrites=tuple(rewrites),
    )

