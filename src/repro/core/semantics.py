"""Declarative matching semantics (Definition 2 of the paper).

This module implements the five conditions of Definition 2:

1. every condition in Θ is satisfied by every decomposed instantiation;
2. events bound to ``Vi`` occur strictly before events bound to ``Vi+1``;
3. all bound events fit within a window of width τ;
4. *skip-till-next-match*: the match never skipped an event it could have
   used (see :func:`satisfies_next_match` for the precise witness rule —
   the condition as printed in the paper is ambiguous and its literal
   reading contradicts the paper's own worked example);
5. *MAXIMAL/greedy*: a match is not strictly contained in another candidate
   starting at the same instant.

:func:`enumerate_candidates` exhaustively enumerates the set Γ of
substitutions satisfying conditions 1–3 and :func:`matching_substitutions`
filters Γ with :func:`select_matches` (conditions 4–5 plus the result
selection policy).  The enumeration is exponential by design — this is the
*reference oracle* used to validate the automaton engine on small inputs,
not a production matcher.  ``select_matches`` itself is shared with every
engine so that all engines report results under one semantics.
"""

from __future__ import annotations

import itertools
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .events import Event
from .pattern import SESPattern
from .relation import EventRelation
from .substitution import Binding, Substitution
from .variables import Variable

__all__ = [
    "satisfies_conditions",
    "satisfies_order",
    "satisfies_window",
    "is_candidate",
    "enumerate_candidates",
    "satisfies_next_match",
    "satisfies_maximality",
    "select_matches",
    "select",
    "SELECTIONS",
    "matching_substitutions",
]

#: Valid result-selection policies: ``"paper"`` applies Definition 2's
#: conditions 4–5 plus greedy non-overlap (the paper's intended results),
#: ``"all-starts"`` keeps one match per start position (overlaps allowed),
#: ``"accepted"`` returns the raw accepted buffers.
SELECTIONS = ("paper", "all-starts", "accepted")


# ----------------------------------------------------------------------
# Conditions 1–3
# ----------------------------------------------------------------------
def satisfies_conditions(gamma: Substitution, pattern: SESPattern) -> bool:
    """Condition 1: Θγ is satisfied (all decomposed instantiations hold)."""
    return gamma.satisfies(pattern.conditions)


def satisfies_order(gamma: Substitution, pattern: SESPattern) -> bool:
    """Condition 2: events of ``Vi`` strictly precede events of ``Vi+1``."""
    for i in range(len(pattern) - 1):
        earlier = [e for v in pattern.sets[i] for e in gamma.events_of(v)]
        later = [e for v in pattern.sets[i + 1] for e in gamma.events_of(v)]
        if not earlier or not later:
            continue
        if max(e.ts for e in earlier) >= min(e.ts for e in later):
            return False
    return True


def satisfies_window(gamma: Substitution, pattern: SESPattern) -> bool:
    """Condition 3: all bound events occur within a window of width τ."""
    if not gamma:
        return True
    return gamma.span() <= pattern.tau


def is_candidate(gamma: Substitution, pattern: SESPattern) -> bool:
    """True iff ``gamma`` is total for the pattern and satisfies 1–3."""
    return (gamma.is_total_for(pattern)
            and satisfies_conditions(gamma, pattern)
            and satisfies_order(gamma, pattern)
            and satisfies_window(gamma, pattern))


# ----------------------------------------------------------------------
# Enumeration of Γ
# ----------------------------------------------------------------------
def _variable_order(pattern: SESPattern) -> List[Variable]:
    """Deterministic variable order: by set index, then by name."""
    out: List[Variable] = []
    for vs in pattern.sets:
        out.extend(sorted(vs, key=lambda v: v.name))
    return out


def _candidate_events(pattern: SESPattern, variable: Variable,
                      events: Sequence[Event]) -> List[Event]:
    """Events satisfying every constant condition on ``variable``."""
    constant = pattern.constant_conditions(variable)
    return [e for e in events
            if all(c.evaluate_events(e) for c in constant)]


def enumerate_candidates(pattern: SESPattern,
                         relation: Iterable[Event],
                         max_group_bindings: int = 6) -> List[Substitution]:
    """Enumerate Γ: all total substitutions satisfying conditions 1–3.

    ``max_group_bindings`` caps how many events a single group variable may
    bind during enumeration; it bounds the (exponential) search and is far
    above anything the test relations need.
    """
    events = list(relation)
    order = _variable_order(pattern)
    pools = {v: _candidate_events(pattern, v, events) for v in order}

    results: List[Substitution] = []

    def assign(idx: int, gamma: Substitution, used: FrozenSet[Event]) -> None:
        if idx == len(order):
            if is_candidate(gamma, pattern):
                results.append(gamma)
            return
        variable = order[idx]
        pool = [e for e in pools[variable] if e not in used]
        if variable.is_singleton:
            choices: Iterable[Tuple[Event, ...]] = ((e,) for e in pool)
        else:
            choices = itertools.chain.from_iterable(
                itertools.combinations(pool, k)
                for k in range(1, min(len(pool), max_group_bindings) + 1)
            )
        for events_choice in choices:
            extended = gamma
            for e in events_choice:
                extended = extended.extend(variable, e)
            # Prune early: conditions and window can only get harder to
            # satisfy as bindings accumulate; order is checked at the end
            # because later sets are still unbound.
            if not satisfies_window(extended, pattern):
                continue
            if not satisfies_conditions(extended, pattern):
                continue
            assign(idx + 1, extended, used | set(events_choice))

    assign(0, Substitution(), frozenset())
    return results


# ----------------------------------------------------------------------
# Conditions 4–5
# ----------------------------------------------------------------------
class _PoolIndex:
    """Conditions 4–5 of Definition 2 over one candidate pool.

    ``_holders[v/e]`` lists every candidate holding the binding ``v/e``,
    built in one pass over the pool.  Condition 4's witness sets — the
    distinct events the holders of ``v/e`` bind to ``v'`` — are merged
    from those lists only when a tested candidate first asks for
    ``(v/e, v')``, so what no tested candidate asks costs nothing more.
    """

    __slots__ = ("_holders", "_witnesses")

    def __init__(self, pool: Iterable[Substitution]):
        holders: Dict[Binding, List[Substitution]] = {}
        for candidate in pool:
            for binding in candidate.bindings:
                holders.setdefault(binding, []).append(candidate)
        self._holders = holders
        self._witnesses: Dict[Tuple[Binding, Variable], Set[Event]] = {}

    def _bound(self, binding: Binding, variable: Variable) -> Set[Event]:
        """The events any holder of ``binding`` binds to ``variable``."""
        key = (binding, variable)
        events = self._witnesses.get(key)
        if events is None:
            events = self._witnesses[key] = set()
            for holder in self._holders.get(binding, ()):
                events.update(holder.events_of(variable))
        return events

    def next_match(self, gamma: Substitution) -> bool:
        """Condition 4: no holder of an earlier binding of ``gamma`` binds
        the later variable of a pair to an event ``gamma`` skipped."""
        latest = [(v, gamma.events_of(v)[-1].ts) for v in gamma.variables]
        consumed = {e for _, e in gamma.bindings}
        for binding in gamma.bindings:
            ts = binding[1].ts
            for variable, last in latest:
                if not ts < last:
                    continue
                for between in self._bound(binding, variable):
                    if ts < between.ts < last and between not in consumed:
                        return False
        return True

    def maximal(self, gamma: Substitution) -> bool:
        """Condition 5: no same-start holder of ``gamma``'s rarest binding
        strictly contains ``gamma``."""
        start = gamma.min_ts()
        rarest = min((self._holders.get(b, ()) for b in gamma.bindings),
                     key=len)
        return not any(gamma < other and other.min_ts() == start
                       for other in rarest)


def satisfies_next_match(gamma: Substitution,
                         candidates: Sequence[Substitution]) -> bool:
    """Condition 4 (skip-till-next-match) of Definition 2.

    For every ordered pair of bindings ``v/e, v'/e'`` in ``gamma`` there
    must be no candidate substitution that *shares the earlier binding
    v/e* and binds ``v'`` to an event strictly between ``e`` and ``e'``
    that ``gamma`` left *unconsumed* — i.e. the match skipped an event it
    could have used for ``v'``.

    An in-between event lies before *some* ``e'`` that ``gamma`` binds to
    ``v'`` iff it lies before the latest one, so the pairs collapse to one
    check per binding and variable against the distinct events the
    holders of ``v/e`` bind to ``v'`` (:class:`_PoolIndex`).

    .. note::
       Definition 2 as printed quantifies over *any* ``γ' ∈ Γ`` and only
       requires the in-between *binding* to be absent from γ.  Read
       literally this is inconsistent with the paper's own intended
       results for Query Q1 in two ways: (a) a completely unrelated
       candidate (e.g. one for a different patient) may act as witness,
       and (b) a candidate that binds the same events with the *roles
       swapped* (``{c/s3, d/s8, p+/s9}`` vs. ``{c/s3, p+/s8, d/s9}``)
       would disqualify its twin, mutually annihilating all matches of
       patterns whose variables are interchangeable.  Two refinements fix
       both while preserving the paper's worked examples (Example 4's
       rejected substitutions are still rejected, the intended matches
       survive): the witness must share the earlier binding of the pair,
       and the in-between event must not be bound to *any* variable of
       ``gamma`` — skip-till-next-match is about skipped events, not
       about alternative role assignments.
    """
    return _PoolIndex(candidates).next_match(gamma)


def satisfies_maximality(gamma: Substitution,
                         candidates: Sequence[Substitution]) -> bool:
    """Condition 5 (MAXIMAL/greedy) of Definition 2.

    ``gamma`` must not be a strict subset of a candidate with the same
    minimal timestamp.
    """
    return _PoolIndex(candidates).maximal(gamma)


def _sort_key(gamma: Substitution):
    """Total deterministic result order: start time, larger matches first,
    then bindings lexicographically (so different engines surviving the
    same candidate pool report the same representative)."""
    bindings = tuple(sorted(
        (e.ts, v.name, v.is_group, e.eid or "") for v, e in gamma.bindings
    ))
    return (gamma.min_ts(), -len(gamma), bindings)


def select_matches(candidates: Sequence[Substitution],
                   overlap: str = "suppress", *,
                   used: Optional[Set[Event]] = None) -> List[Substitution]:
    """Apply Definition 2's conditions 4–5 plus result-set selection.

    ``candidates`` are substitutions already known to satisfy conditions
    1–3 (the enumerated Γ, or the buffers accepted by the automaton).
    Duplicates are removed, conditions 4 (skip-till-next-match) and 5
    (maximality) are enforced, and finally overlapping matches are handled:

    * ``overlap="suppress"`` (default) — greedy leftmost selection: a match
      is reported only if it shares no event with an already reported
      (earlier-starting) match.  This yields exactly the paper's intended
      results for Query Q1, where the suffix of an already reported match
      is not reported again.
    * ``overlap="allow"`` — every surviving substitution is reported, one
      per start position (the raw skip-till-next-match reading).

    One pass in report order (:func:`_sort_key`) does both: under
    ``suppress`` a candidate sharing an event with an earlier report is
    skipped before conditions 4–5 are asked, since they cannot change
    its fate, so the work follows what is reported rather than the pool.

    ``used`` is the overlap window of a caller that selects batch after
    batch (:class:`~repro.stream.runner.ContinuousMatcher`): events of
    matches it already reported.  Under ``suppress`` they count as
    reported here too, and the events of this call's reports are added
    to it in place; ``allow`` leaves it alone.
    """
    if overlap not in ("suppress", "allow"):
        raise ValueError(f"unknown overlap policy {overlap!r}")
    unique: List[Substitution] = []
    seen = set()
    for gamma in candidates:
        if gamma not in seen:
            seen.add(gamma)
            unique.append(gamma)
    # A pool of one survives conditions 4-5 by construction: its only
    # witness is itself, whose every in-between event it consumes.
    index = None
    if len(unique) > 1:
        index = _PoolIndex(unique)
        unique.sort(key=_sort_key)
    suppress = overlap == "suppress"
    if suppress and used is None:
        used = set()
    reported: List[Substitution] = []
    for gamma in unique:
        if suppress:
            events = [e for _, e in gamma.bindings]
            if not used.isdisjoint(events):
                continue
        if index is not None and not (index.next_match(gamma)
                                      and index.maximal(gamma)):
            continue
        if suppress:
            used.update(events)
        reported.append(gamma)
    return reported


def select(accepted: Sequence[Substitution],
           selection: str = "paper") -> List[Substitution]:
    """Apply one of the :data:`SELECTIONS` policies to accepted buffers."""
    if selection not in SELECTIONS:
        raise ValueError(
            f"unknown selection {selection!r}; expected one of {SELECTIONS}")
    if selection == "accepted":
        return list(accepted)
    return select_matches(
        accepted, overlap="suppress" if selection == "paper" else "allow")


def matching_substitutions(pattern: SESPattern,
                           relation: Iterable[Event],
                           max_group_bindings: int = 6,
                           overlap: str = "suppress"
                           ) -> List[Substitution]:
    """All matching substitutions of ``pattern`` in ``relation``.

    Implements Definition 2 end-to-end: enumerate Γ (conditions 1–3), then
    apply :func:`select_matches` (conditions 4–5 and overlap policy).
    This is the reference oracle; its cost is exponential in the relation
    size.
    """
    if isinstance(relation, EventRelation):
        events: Sequence[Event] = relation.events
    else:
        events = sorted(relation, key=lambda e: e.ts)
    candidates = enumerate_candidates(pattern, events, max_group_bindings)
    return select_matches(candidates, overlap=overlap)
