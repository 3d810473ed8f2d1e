"""Match buffers: the β of an automaton instance.

Functionally this is the substitution an instance has collected so far.
:class:`~repro.core.substitution.Substitution` is immutable and optimised
for set-algebraic queries; during execution we instead need a structure
that is cheap to *extend* — a transition fires once per successor.  A
:class:`MatchBuffer` is therefore one node of a chain, "the parent
extended by ``variable/event``" (the run nodes of García & Riveros and
CORE, PAPERS.md): extending allocates one node and copies no event, and
instances branching from one parent share its chain.  The chain is
walked only off the per-transition path — into a substitution when a
buffer is accepted, and by :attr:`MatchBuffer.by_var` /
:meth:`MatchBuffer.events_of` for the guard, ANALYZE and ``repr``.

What a transition still needs to know about the events already bound
is kept beside the chain as *summary registers*
(:attr:`MatchBuffer.registers`), one slot per ``(partner, attribute,
kind)`` the automaton's binding conditions read
(:attr:`SESAutomaton.register_slots
<repro.automaton.automaton.SESAutomaton.register_slots>`):

* ``EQUAL`` — the one value every partner event carries, or
  :data:`CONFLICT` once two differ;
* ``LEAST`` / ``GREATEST`` — the minimum / maximum (``x < every p`` iff
  ``x < min p``), kept for values of one totally ordered type only;
* ``LATEST`` — ``GREATEST`` of a group variable's timestamps, written
  only when a run of the variable ends (see :data:`LATEST`);
* ``WALK`` — a ``≠`` condition, which keeps the loop over the partner's
  events.

Any slot reads :data:`UNBOUND` until its partner binds, :data:`MISSING`
once a partner event lacks the attribute, and :data:`WALK` once its
values stop being summarisable (``nan``, a second type, a failed
comparison) — a decision then walks the chain, exactly as before.

A chain binds its events in time order — the executor refuses an event
older than the last one it saw — and ``LATEST`` relies on it.  A node
built by an executor updates only the registers some decision reachable
from its instance's state still reads; the others keep their parent's
value, which nothing reads again.

Chains become a DAG where an executor coalesces instances into runs
(:mod:`repro.automaton.executor`): successors of one event that land in
one state with the same variable and the same registers a decision
there can still read are joined under a :class:`UnionNode`, the "union
of predecessors" node of García & Riveros and CORE, which carries those
registers (the others masked).  A run's members are then the paths from
its tip down to the empty root; :func:`member_paths` walks them,
skipping members an expiry already removed, and
:meth:`MatchBuffer.from_bindings` turns one back into a chain.  A node
above a union has no single start or length: its ``min_ts`` is the
oldest start it was built from and its ``size`` the length of one of
the paths it was built from.

A :class:`MatchBuffer` never changes once built.  A union's children
do: :func:`drop_expired` removes a child once every member through it
has expired, so the paths of members long gone are not kept alive by a
run that never empties.
"""

from __future__ import annotations

from datetime import date, datetime, time, timedelta
from decimal import Decimal
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.events import Event
from ..core.substitution import Substitution
from ..core.variables import Variable

__all__ = ["MatchBuffer", "UnionNode", "member_paths", "drop_expired",
           "substitution_of",
           "UNBOUND", "CONFLICT", "MISSING", "WALK", "EQUAL", "LEAST",
           "GREATEST", "LATEST"]


class Marker:
    """A register value that is no attribute value; pickles by name, so
    a restored buffer's markers are the module's own."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __reduce__(self):
        return self.name

    def __repr__(self) -> str:
        return self.name


#: No partner event bound yet: the condition holds vacuously.
UNBOUND = Marker("UNBOUND")
#: Two partner events disagree on an ``EQUAL`` register: no value
#: equals both, so the condition fails.
CONFLICT = Marker("CONFLICT")
#: A partner event lacks the attribute: the condition fails.
MISSING = Marker("MISSING")
#: Not summarised: decide by walking the partner's events.  Also the
#: kind of a register that is never summarised (``≠``).
WALK = Marker("WALK")

#: Register kinds besides :data:`WALK`.
EQUAL = Marker("EQUAL")
LEAST = Marker("LEAST")
GREATEST = Marker("GREATEST")
#: ``GREATEST`` of a group variable's timestamps.  Bindings arrive in
#: time order, so the greatest is the latest: a run of the variable
#: keeps it in its last node's event, and only the binding that ends the
#: run folds it into the register — a loop updates nothing.
LATEST = Marker("LATEST")

#: Types a ``LEAST``/``GREATEST`` register summarises: one of them is
#: totally ordered (``nan`` aside, which the register refuses).
ORDERED_TYPES = frozenset({int, float, str, bytes, bool, Decimal, Fraction,
                           date, datetime, time, timedelta})


class MatchBuffer:
    """One node of an append-only chain of variable bindings.

    ``parent`` is the buffer this one extends by ``variable/event``
    (``None`` for the empty root an automaton starts its instances
    from).  Events are appended in consumption order, which is
    chronological.  A node never changes once built (a
    :class:`UnionNode` below it may lose children whose members all
    expired).

    ``updates`` are the register slots binding ``variable`` changes —
    ``(slot, attribute, kind)`` triples its automaton lays out
    (:meth:`SESAutomaton.extend
    <repro.automaton.automaton.SESAutomaton.extend>`); every other slot
    is the parent's own object.
    """

    __slots__ = ("parent", "variable", "event", "min_ts", "size",
                 "registers")

    def __init__(self, parent: "MatchBuffer", variable: Variable,
                 event: Event, updates: Tuple = ()):
        self.parent = parent
        self.variable = variable
        self.event = event
        ts = event.ts
        start = parent.min_ts
        self.min_ts = ts if start is None else start
        self.size = parent.size + 1
        registers = parent.registers
        if updates:
            attrs = event._attrs
            changed = None
            for slot, attribute, kind in updates:
                held = registers[slot]
                if attribute is None:
                    value = ts
                elif attribute in attrs:  # a LATEST one's is a variable
                    value = attrs[attribute]
                elif kind is LATEST:
                    if parent.variable is not attribute:
                        continue  # not the end of the variable's run
                    value = parent.event.ts
                    kind = GREATEST
                elif held is MISSING or held is CONFLICT:
                    continue
                else:
                    value = MISSING
                if value is MISSING:
                    pass
                elif value.__class__ is held.__class__:
                    # One summarised value and another of its type.
                    try:
                        if kind is EQUAL:
                            if value == held:
                                continue  # the first stays, as a walk reads it
                            value = (WALK if value != value or held != held
                                     else CONFLICT)
                        elif kind is GREATEST:
                            if not value > held:
                                if value <= held:
                                    continue
                                value = WALK  # nan: no order to keep
                        elif not value < held:
                            if value >= held:
                                continue
                            value = WALK
                    except Exception:
                        value = WALK
                elif held is UNBOUND:
                    if kind is not EQUAL:
                        try:
                            if (value.__class__ not in ORDERED_TYPES
                                    or value != value):
                                value = WALK
                        except Exception:
                            value = WALK
                elif held is MISSING or held is CONFLICT or held is WALK:
                    continue  # settled: the decision fails, or walks
                else:
                    value = WALK  # a second type: `=` may not be transitive
                if changed is None:
                    changed = [*registers]
                changed[slot] = value
            if changed is not None:
                registers = tuple(changed)
        self.registers = registers

    @classmethod
    def root(cls, registers: tuple = ()) -> "MatchBuffer":
        """The empty buffer: no binding, ``registers`` as they start."""
        root = cls.__new__(cls)
        root.parent = root.variable = root.event = root.min_ts = None
        root.size = 0
        root.registers = registers
        return root

    @classmethod
    def from_bindings(cls, bindings: List[Tuple[Variable, Event]],
                      registers: Optional[tuple]) -> "MatchBuffer":
        """A fresh chain binding ``bindings`` in order, its last node
        carrying ``registers`` and the inner ones none: only a chain's
        last node is ever extended or decided on."""
        node = cls.root()
        node.registers = None
        for variable, event in bindings:
            node = cls(node, variable, event)
        node.registers = registers
        return node

    @property
    def max_ts(self):
        """Timestamp of the latest bound event (``None`` when empty)."""
        return None if self.event is None else self.event.ts

    # ------------------------------------------------------------------
    # Walks of the chain (off the per-transition path)
    # ------------------------------------------------------------------
    def bindings(self) -> List[Tuple[Variable, Event]]:
        """The ``(variable, event)`` bindings in the order they were
        made — the transitions fired, root first."""
        chain = []
        node = self
        while node.parent is not None:
            chain.append((node.variable, node.event))
            node = node.parent
        chain.reverse()
        return chain

    @property
    def by_var(self) -> Dict[Variable, Tuple[Event, ...]]:
        """``variable → its events``, chronological, variables in the
        order they were first bound."""
        return _by_var(self.bindings())

    def events_of(self, variable: Variable) -> Tuple[Event, ...]:
        """Events bound to ``variable``, chronologically (may be empty)."""
        events = []
        node = self
        while node.parent is not None:
            if node.variable is variable:
                events.append(node.event)
            node = node.parent
        events.reverse()
        return tuple(events)

    def __len__(self) -> int:
        return self.size

    def __bool__(self) -> bool:
        return self.size > 0

    def to_substitution(self) -> Substitution:
        """Materialise as an immutable :class:`Substitution`: one walk
        of the chain, whose per-variable tuples come out in consumption
        order — already what the substitution would sort them into."""
        return substitution_of(self.bindings())

    def __reduce__(self):
        """Pickle flat — the bindings in order and this node's registers
        — so that a chain of any length survives ``pickle`` (a nested
        chain would recurse once per node).  Rebuilt nodes share no
        prefix with their siblings, and the inner ones carry no
        registers: only a chain's last node is ever extended or decided
        on."""
        return (_rebuild, (self.bindings(), self.registers))

    def __repr__(self) -> str:
        by_var = self.by_var
        parts = []
        for variable in sorted(by_var):
            for event in by_var[variable]:
                parts.append(f"{variable!r}/{event.eid or event.ts}")
        return "{" + ", ".join(parts) + "}"


def _rebuild(bindings: List[Tuple[Variable, Event]],
             registers: Optional[tuple]) -> MatchBuffer:
    """Inverse of :meth:`MatchBuffer.__reduce__`."""
    return MatchBuffer.from_bindings(bindings, registers)


def _by_var(bindings: List[Tuple[Variable, Event]]
            ) -> Dict[Variable, Tuple[Event, ...]]:
    """``bindings`` grouped by variable, each group in binding order,
    variables in the order they were first bound."""
    grouped: Dict[Variable, List[Event]] = {}
    for variable, event in bindings:
        if variable in grouped:
            grouped[variable].append(event)
        else:
            grouped[variable] = [event]
    return {variable: tuple(events) for variable, events in grouped.items()}


def substitution_of(bindings: List[Tuple[Variable, Event]]) -> Substitution:
    """The substitution of a path's ``bindings`` (root first, so each
    variable's events already chronological)."""
    return Substitution.from_chronological(_by_var(bindings))


class UnionNode:
    """The union of several runs' tips: its paths are all of theirs.

    Made by an executor when successors of one event land in one state
    agreeing on everything a decision there can still read — the
    variable they bound (``event`` is that event, the same for every
    child) and their live registers, which the union carries as its
    ``registers`` (the others masked, see :class:`SESAutomaton.live_slots
    <repro.automaton.automaton.SESAutomaton.live_slots>`) — so a
    transition decides for all of them at once and extends them with
    one node.  Each child is ``(node, dead, oldest, newest)``: the tip
    of one run, the start at or below which that run's members had
    already expired (``None``: none had), and the oldest and newest
    start it held, so :func:`member_paths` can pass a child by without
    walking it.

    The one node that changes after it is built: once every member
    through a child has expired, :func:`drop_expired` removes the child,
    so what no run can reach any more is not kept alive through it.
    """

    __slots__ = ("children", "variable", "event", "registers", "min_ts",
                 "size")

    def __init__(self, children: List[Tuple], registers: tuple):
        self.children = children
        first = children[0][0]
        self.variable = first.variable
        self.event = first.event
        self.registers = registers
        self.min_ts = min(child[2] for child in children)
        self.size = first.size

    def __repr__(self) -> str:
        return f"UnionNode({len(self.children)} children)"


def drop_expired(tips: Iterable, ts, tau) -> None:
    """Remove, from every :class:`UnionNode` reachable from ``tips``,
    the children whose newest start a window of ``tau`` ending at ``ts``
    overruns: all their members have expired, from every run sharing
    them, as expiry is by time alone.  Each node is visited once,
    however many tips share it."""
    seen = set()
    stack = list(tips)
    while stack:
        node = stack.pop()
        while id(node) not in seen:
            seen.add(id(node))
            if node.__class__ is UnionNode:
                children = node.children
                kept = [child for child in children
                        if not ts - child[3] > tau]
                if len(kept) < len(children):
                    node.children = kept
                stack += [child[0] for child in kept]
                break
            node = node.parent
            if node is None:  # past the empty root
                break


def member_paths(tip, dead, upto
                 ) -> Iterator[Tuple[object, List[Tuple[Variable, Event]]]]:
    """The paths from ``tip`` down to the empty root whose start ``s``
    (the first binding's timestamp) has ``dead < s <= upto``, each as
    ``(s, bindings root first)``.  ``dead`` ``None`` has no floor; a
    union's child also drops the paths at or below its own ``dead``.

    Iterative, so a chain of any length is walked without recursion;
    the walk shares each path's suffix between the branches above it.
    """
    stack = [(tip, dead, None)]
    while stack:
        node, cutoff, suffix = stack.pop()
        while node.__class__ is not UnionNode and node.parent is not None:
            suffix = (node.variable, node.event, suffix)
            node = node.parent
        if node.__class__ is UnionNode:
            for child, child_dead, oldest, newest in reversed(node.children):
                floor = cutoff
                if child_dead is not None and (floor is None
                                               or child_dead > floor):
                    floor = child_dead
                if ((floor is not None and not newest > floor)
                        or oldest > upto):
                    continue  # no member of the child is asked for
                stack.append((child, floor, suffix))
            continue
        start = suffix[1].ts
        if ((cutoff is not None and not start > cutoff)
                or start > upto):
            continue
        bindings = []
        while suffix is not None:
            bindings.append((suffix[0], suffix[1]))
            suffix = suffix[2]
        yield start, bindings
