"""Incremental aggregation inside the automaton — no match materialised.

The naive route to ``SELECT count(*) FROM PATTERN ...`` is
enumerate-then-fold: run the executor, materialise every accepted buffer,
then fold.  Theorem 3 makes that hopeless — the match set over group
variables grows as ``O(k^(W·|V1|))``, so enumeration is the asymptotic
bottleneck even when the caller only wants one number.

:class:`AggregationEngine` instead folds aggregates *online*, GRETA
style, by replacing the executor's instance set Ω with **coalesced
instance groups**.  Two automaton instances behave identically forever
iff they agree on

1. their automaton state (which transitions are reachable),
2. their buffer's minimum timestamp (when they expire), and
3. their *projections*: for every ``(partner variable, attribute)`` pair
   read by some two-variable transition check, the set of that
   attribute's values over the events bound to the variable (plus a
   MISSING marker for events lacking the attribute).  Each check is
   independently universally quantified over the partner's events and
   reads exactly one partner attribute, so these value sets determine
   every future ``admits`` outcome.

A group carries a multiplicity ``n`` (how many concrete instances it
stands for) and one *fold register* per aggregate:

* ``count(v.A)`` — register ``c`` = Σ over the group's buffers of the
  per-buffer count; extension by an event binding ``v`` does
  ``c' = c + n·[A present]``; merging groups adds registers.
* ``sum(v.A)``/``avg(v.A)`` — likewise linear: ``s' = s + n·value``
  (numeric values only); ``avg`` keeps a ``(sum, count)`` pair.
* ``min(v.A)``/``max(v.A)`` — a single scalar per group.  Buffers inside
  a group may hold different values, but min/max are associative,
  commutative and idempotent, and a group's buffers always accept
  together, so the scalar is exact for the *total* over all matches.
* ``count(*)`` needs no register: accepting a group adds ``n`` matches.

When a group reaches the accepting state (window expiry, contiguous
cut-off, or end-of-input flush — the same three accept points as the
executor), its registers fold into the running totals and the group is
dropped.  No buffer, substitution, or match object is ever built, and
the group count is bounded by ``|Q| × |distinct projection sets| × W`` —
polynomial where enumeration is exponential.

Groups are bucketed by automaton state, so an event costs one
classification (each distinct event-only condition once), one row lookup
per occupied state in the automaton's step table
(``SESAutomaton.step_rows`` — the table the executor reads) plus
``groups in enabled states × their enabled transitions`` projection
checks; a state the event enables no transition of keeps its bucket
untouched.  Expiry is one comparison per event against the oldest
group's window, and one pass over the groups when that window closes
(docs/aggregation.md, "Cost per event").

Counter semantics in aggregate mode: ``accepted_buffers`` and
``expired`` virtual-instance style numbers would overflow usefulness, so
``accepted_buffers`` counts *virtual* matches folded (Σn — comparable
with the enumerate-then-fold reference) while ``instances_created``,
``transitions_fired``, ``branchings``, ``expired_instances`` and the Ω
peak count *groups* — the work actually done.  ``stats.matches`` stays
zero: nothing is enumerated.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .spec import AggregateSpec

__all__ = [
    "MISSING", "AggregationEngine", "empty_snapshot", "merge_snapshots",
    "finalize_snapshot", "fold_reference",
]


class _Missing:
    """Picklable singleton marking an absent attribute in a projection."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super(_Missing, cls).__new__(cls)
        return cls._instance

    def __reduce__(self):
        return (_Missing, ())

    def __repr__(self):
        return "<missing>"


MISSING = _Missing()

#: Snapshot schema version (bumped on incompatible layout changes).
SNAPSHOT_VERSION = 1


# ----------------------------------------------------------------------
# Mergeable snapshots (the cross-process partial-aggregate wire format)
# ----------------------------------------------------------------------
def empty_snapshot(spec: AggregateSpec) -> dict:
    """The identity element for :func:`merge_snapshots`."""
    totals: List[Any] = []
    for aggregate in spec.aggregates:
        if aggregate.is_star:
            totals.append(None)
        elif aggregate.func in ("count", "sum"):
            totals.append(0)
        elif aggregate.func == "avg":
            totals.append([0, 0])
        else:  # min / max
            totals.append(None)
    return {"version": SNAPSHOT_VERSION, "matches": 0, "totals": totals}


def _extremum_key(value):
    """The one order ``min``/``max`` fold by: numbers, then text, then
    anything else (by type name, then ``repr``); natural order within
    numbers and within text.  Total, so the fold commutes and associates
    whatever mix of types an attribute carries."""
    if isinstance(value, (int, float)):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, type(value).__name__, repr(value))


def _combine_extremum(func: str, a, b):
    """min/max of two partials, either possibly absent (None)."""
    if a is None:
        return b
    if b is None:
        return a
    pick = min if func == "min" else max
    return pick(a, b, key=_extremum_key)


def merge_snapshots(spec: AggregateSpec, left: Optional[dict],
                    right: Optional[dict]) -> Optional[dict]:
    """Merge two partial-aggregate snapshots (associative, commutative)."""
    if left is None:
        return None if right is None else _copy_snapshot(right)
    if right is None:
        return _copy_snapshot(left)
    out = empty_snapshot(spec)
    out["matches"] = left["matches"] + right["matches"]
    totals = out["totals"]
    for i, aggregate in enumerate(spec.aggregates):
        a, b = left["totals"][i], right["totals"][i]
        if aggregate.is_star:
            continue
        if aggregate.func in ("count", "sum"):
            totals[i] = a + b
        elif aggregate.func == "avg":
            totals[i] = [a[0] + b[0], a[1] + b[1]]
        else:
            totals[i] = _combine_extremum(aggregate.func, a, b)
    return out


def _copy_snapshot(snapshot: dict) -> dict:
    return {
        "version": snapshot.get("version", SNAPSHOT_VERSION),
        "matches": snapshot["matches"],
        "totals": [list(t) if isinstance(t, list) else t
                   for t in snapshot["totals"]],
    }


def finalize_snapshot(spec: AggregateSpec, snapshot: Optional[dict]) -> dict:
    """Snapshot → ``{label: value}`` in declaration order.

    SQL-flavoured empties: counts finalise to 0, ``sum``/``min``/``max``
    /``avg`` to ``None`` when no value was folded.
    """
    if snapshot is None:
        snapshot = empty_snapshot(spec)
    values = {}
    for i, aggregate in enumerate(spec.aggregates):
        total = snapshot["totals"][i]
        if aggregate.is_star:
            values[aggregate.label] = snapshot["matches"]
        elif aggregate.func == "count":
            values[aggregate.label] = total
        elif aggregate.func == "sum":
            values[aggregate.label] = total if snapshot["matches"] else None
        elif aggregate.func == "avg":
            s, c = total
            values[aggregate.label] = s / c if c else None
        else:
            values[aggregate.label] = total
    return values


def fold_reference(spec: AggregateSpec, substitutions) -> dict:
    """Enumerate-then-fold reference: fold materialised matches.

    The ground truth the incremental engine must equal — used by the
    validation tests and the benchmark.  Returns a snapshot (pass it to
    :func:`finalize_snapshot` for final values).
    """
    snapshot = empty_snapshot(spec)
    snapshot["matches"] = len(substitutions)
    totals = snapshot["totals"]
    for substitution in substitutions:
        by_name = {v.name: v for v in substitution.variables}
        for i, aggregate in enumerate(spec.aggregates):
            if aggregate.is_star:
                continue
            variable = by_name.get(aggregate.variable)
            events = ([] if variable is None
                      else substitution.events_of(variable))
            values = [e.get(aggregate.attribute, MISSING) for e in events]
            present = [v for v in values if v is not MISSING]
            if aggregate.func == "count":
                totals[i] += len(present)
            elif aggregate.func in ("sum", "avg"):
                numeric = [v for v in present if isinstance(v, (int, float))]
                if aggregate.func == "sum":
                    totals[i] += sum(numeric)
                else:
                    totals[i] = [totals[i][0] + sum(numeric),
                                 totals[i][1] + len(numeric)]
            else:
                for value in present:
                    totals[i] = _combine_extremum(
                        aggregate.func, totals[i], value)
    return snapshot


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class AggregationEngine:
    """Coalesced-group fold over a SES automaton (module docstring)."""

    def __init__(self, automaton, spec: AggregateSpec,
                 consume_mode: str = "greedy"):
        self.automaton = automaton
        self.spec = spec
        self.consume_mode = consume_mode
        self._tau = automaton.tau
        self._start = automaton.start
        self._accepting = automaton.accepting

        # Projected (partner variable, attribute) pairs, harvested from
        # every transition's binding rows; a projection tuple holds one
        # value-frozenset per pair, and a row is checked against the
        # set at its pair's index.
        pairs: List[Tuple[Any, str]] = []
        pair_index: Dict[Tuple[Any, str], int] = {}
        for transition in automaton.transitions:
            for partner, _, _, partner_attribute in transition.binding_rows:
                pair = (partner, partner_attribute)
                if pair not in pair_index:
                    pair_index[pair] = len(pairs)
                    pairs.append(pair)
        self._pairs = tuple(pairs)
        self._empty_proj = tuple(frozenset() for _ in pairs)

        # Per state: (transition, projection checks, projection updates,
        # register-binding aggregate indices).
        self._by_state = {}
        for state in automaton.states:
            entries = []
            for transition in automaton.outgoing(state):
                bound = transition.variable
                proj_updates = tuple(
                    (index, attribute)
                    for index, (variable, attribute) in enumerate(pairs)
                    if variable == bound)
                reg_updates = tuple(
                    i for i, a in enumerate(spec.aggregates)
                    if a.variable == bound.name)
                checks = tuple(
                    (pair_index[(partner, partner_attribute)], op, attribute)
                    for partner, attribute, op, partner_attribute
                    in transition.binding_rows)
                entries.append((transition, checks, proj_updates,
                                reg_updates))
            self._by_state[state] = tuple(entries)

        self._init_regs = self._fresh_registers()
        self.reset()

    def _fresh_registers(self) -> tuple:
        regs: List[Any] = []
        for aggregate in self.spec.aggregates:
            if aggregate.is_star:
                regs.append(None)
            elif aggregate.func in ("count", "sum"):
                regs.append(0)
            elif aggregate.func == "avg":
                regs.append((0, 0))
            else:
                regs.append(None)
        return tuple(regs)

    def reset(self) -> None:
        """Clear groups and totals for a fresh run."""
        #: state → {(min_ts, projections): [multiplicity, registers]};
        #: only occupied states have a bucket.
        self._buckets: Dict[Any, Dict[tuple, list]] = {}
        self._count = 0
        #: Lower bound on the oldest ``min_ts`` of any group (``None``:
        #: no group).  May be stale-early after groups are dropped — that
        #: costs one no-op sweep — but never late.
        self._oldest = None
        self._totals = empty_snapshot(self.spec)["totals"]
        self.matches_folded = 0
        self.max_groups = 0

    # -- introspection -------------------------------------------------
    @property
    def group_count(self) -> int:
        """Active coalesced groups (the aggregate-mode |Ω|)."""
        return self._count

    @property
    def next_expiry_ts(self):
        """Latest timestamp the current groups survive unchanged (a
        lower bound: an event beyond it may still expire nothing)."""
        return None if self._oldest is None else self._oldest + self._tau

    # -- the per-event loop --------------------------------------------
    def step(self, event, allow_start, stats) -> None:
        """Aggregate-mode twin of the executor's ``_step``.

        The event is classified once and every occupied state reads its
        row of the automaton's step table; a state none of whose
        transitions the event enables is carried as a whole bucket, its
        groups unvisited (contiguous mode cuts them off instead).
        """
        if allow_start:
            stats.instances_created += 1
        stats.observe_event(event.ts)
        stats.observe_omega(self._count + (1 if allow_start else 0))
        self.expire_only(event, stats)
        start = self._start
        contiguous = self.consume_mode == "contiguous"
        occupied = list(self._buckets.items())
        if allow_start:
            occupied.append(
                (start, {(None, self._empty_proj): [1, self._init_regs]}))
        busy = []
        out: Dict[Any, Dict[tuple, list]] = {}
        rows = self.automaton.step_rows(event)
        by_state = self._by_state
        for state, bucket in occupied:
            row = rows[state]
            if row is not None:
                entries = by_state[state]
                busy.append((state, bucket,
                             [entries[i] for i in row.indices]))
            elif contiguous:  # contiguous cuts idle groups off
                busy.append((state, bucket, ()))
            elif state != start:
                out[state] = bucket
        # Idle buckets are in ``out`` before any group is consumed into
        # them: a carried bucket is extended in place, never copied.
        for state, bucket, enabled in busy:
            self._consume(state, bucket, enabled, event, out, stats)
        self._buckets = out
        self._count = count = sum(map(len, out.values()))
        if self._oldest is None and count:
            self._oldest = event.ts  # every group was started by this event
        stats.observe_omega(count)
        if count > self.max_groups:
            self.max_groups = count

    def expire_only(self, event, stats) -> None:
        """Expiry sweep without consumption (filtered events, ticks): a
        single comparison until ``event`` passes the oldest group's
        window, then one pass over the groups."""
        ts = event.ts
        tau = self._tau
        if self._oldest is None or not ts - self._oldest > tau:
            return
        oldest = None
        for state, bucket in list(self._buckets.items()):
            for key in list(bucket):
                min_ts = key[0]
                if min_ts is None:
                    continue
                if ts - min_ts > tau:
                    n, regs = bucket.pop(key)
                    stats.expired_instances += 1
                    if state == self._accepting:
                        self._fold(n, regs, stats)
                elif oldest is None or min_ts < oldest:
                    oldest = min_ts
            if not bucket:
                del self._buckets[state]
        self._oldest = oldest
        self._count = sum(map(len, self._buckets.values()))

    def _consume(self, state, bucket, enabled, event, out, stats) -> None:
        """Aggregate-mode twin of the executor's ``_consume`` for the
        groups of one state, ``enabled`` being its outgoing transitions
        whose event-only conditions ``event`` satisfies."""
        ts = event.ts
        rests = state != self._start  # start-state groups never rest
        exhaustive = rests and self.consume_mode == "exhaustive"
        contiguous = self.consume_mode == "contiguous"
        # ``state`` is not idle, so this is never the bucket iterated.
        keep = out.setdefault(state, {})
        for key, group in bucket.items():
            min_ts, proj = key
            n, regs = group
            fired = 0
            for transition, checks, proj_updates, reg_updates in enabled:
                if checks and not self._admits(checks, proj, event):
                    continue
                fired += 1
                target = out.get(transition.target)
                if target is None:
                    target = out[transition.target] = {}
                self._merge_into(
                    target,
                    (ts if min_ts is None else min_ts,
                     self._extend_proj(proj, proj_updates, event)),
                    [n, (self._bind(regs, reg_updates, event, n)
                         if reg_updates else regs)])
            if fired:
                stats.transitions_fired += fired
                if fired > 1:
                    stats.branchings += fired - 1
                    stats.instances_created += fired - 1
                if exhaustive:
                    self._merge_into(keep, key, group)
                    stats.instances_created += 1
            elif rests:
                if not contiguous:
                    self._merge_into(keep, key, group)
                elif state == self._accepting:
                    self._fold(n, regs, stats)
        if not keep:
            del out[state]

    def _admits(self, checks, proj, event) -> bool:
        """Value-space ``admits_bindings`` over a projection tuple.

        Mirrors ``Condition.evaluate_events`` exactly: a missing
        attribute on either side fails the check, an incomparable pair
        fails it, and a check against a variable with no bound events
        is vacuously true.
        """
        for pair_idx, op, left_attr in checks:
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

    @staticmethod
    def _extend_proj(proj, proj_updates, event):
        if not proj_updates:
            return proj
        out = list(proj)
        for index, attribute in proj_updates:
            value = event.get(attribute, MISSING)
            if value not in out[index]:
                out[index] = out[index] | frozenset((value,))
        return tuple(out)

    def _bind(self, regs, reg_updates, event, n) -> tuple:
        """Extend registers for an event binding an aggregated variable."""
        out = list(regs)
        aggregates = self.spec.aggregates
        for i in reg_updates:
            aggregate = aggregates[i]
            value = event.get(aggregate.attribute, MISSING)
            if value is MISSING:
                continue
            func = aggregate.func
            if func == "count":
                out[i] = out[i] + n
            elif func == "sum":
                if isinstance(value, (int, float)):
                    out[i] = out[i] + n * value
            elif func == "avg":
                if isinstance(value, (int, float)):
                    s, c = out[i]
                    out[i] = (s + n * value, c + n)
            else:
                out[i] = (value if out[i] is None
                          else _combine_extremum(func, out[i], value))
        return tuple(out)

    def _merge_into(self, bucket, key, group) -> None:
        """Add a ``[n, registers]`` group, coalescing with an equal key."""
        existing = bucket.setdefault(key, group)
        if existing is not group:
            existing[0] += group[0]
            existing[1] = self._merge_registers(existing[1], group[1])

    def _merge_registers(self, a, b) -> tuple:
        out = list(a)
        for i, aggregate in enumerate(self.spec.aggregates):
            if aggregate.is_star:
                continue
            func = aggregate.func
            if func in ("count", "sum"):
                out[i] = a[i] + b[i]
            elif func == "avg":
                out[i] = (a[i][0] + b[i][0], a[i][1] + b[i][1])
            else:
                out[i] = _combine_extremum(func, a[i], b[i])
        return tuple(out)

    def _fold(self, n, regs, stats) -> None:
        """Fold an accepting group's registers into the totals."""
        self.matches_folded += n
        stats.accepted_buffers += n
        totals = self._totals
        for i, aggregate in enumerate(self.spec.aggregates):
            if aggregate.is_star:
                continue
            func = aggregate.func
            if func in ("count", "sum"):
                totals[i] += regs[i]
            elif func == "avg":
                totals[i] = [totals[i][0] + regs[i][0],
                             totals[i][1] + regs[i][1]]
            else:
                totals[i] = _combine_extremum(func, totals[i], regs[i])

    def finish(self, stats) -> None:
        """End-of-input flush: fold groups resting in the accepting state."""
        for n, regs in self._buckets.get(self._accepting, {}).values():
            self._fold(n, regs, stats)
        self._buckets = {}
        self._count = 0
        self._oldest = None

    # -- results -------------------------------------------------------
    def snapshot(self) -> dict:
        """Current totals as a mergeable partial-aggregate snapshot."""
        return {"version": SNAPSHOT_VERSION, "matches": self.matches_folded,
                "totals": [list(t) if isinstance(t, (list, tuple)) else t
                           for t in self._totals]}

    def values(self) -> dict:
        """Current totals finalised to ``{label: value}``."""
        return finalize_snapshot(self.spec, self.snapshot())

    # -- checkpointing -------------------------------------------------
    def state_dict(self) -> dict:
        """Picklable snapshot of groups and totals (values only — no
        events, buffers, or compiled conditions).  ``groups`` is the flat
        ``[((state, min_ts, projections), n, registers), …]`` list, in
        bucket order."""
        return {
            "groups": [((state,) + key, n, regs)
                       for state, bucket in self._buckets.items()
                       for key, (n, regs) in bucket.items()],
            "snapshot": self.snapshot(),
            "max_groups": self.max_groups,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        self._buckets = {}
        for (q, min_ts, proj), n, regs in state["groups"]:
            self._buckets.setdefault(q, {})[(min_ts, proj)] = [n, regs]
        self._count = len(state["groups"])
        self._oldest = min((key[1] for key, n, regs in state["groups"]
                            if key[1] is not None), default=None)
        snapshot = state["snapshot"]
        self.matches_folded = snapshot["matches"]
        self._totals = [list(t) if isinstance(t, list) else t
                        for t in snapshot["totals"]]
        self.max_groups = state["max_groups"]

    def __repr__(self) -> str:
        return (f"AggregationEngine({self.spec!r}, groups={self._count}, "
                f"folded={self.matches_folded})")
