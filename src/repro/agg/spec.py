"""Aggregate specifications: what ``SELECT count(*) | sum(v.A) ...`` asks for.

An :class:`AggregateSpec` is the compile-time description of an
aggregation query — a tuple of :class:`Aggregate` terms, each one of
``count(*)``, ``count(v.A)``, ``sum(v.A)``, ``min(v.A)``, ``max(v.A)``
or ``avg(v.A)``.  The spec is carried on the compiled
:class:`~repro.plan.plan.PatternPlan` (fingerprint-suffixed, so the plan
cache distinguishes aggregate plans from enumeration plans of the same
pattern) and drives the incremental fold engine
(:class:`~repro.agg.engine.AggregationEngine`) inside the executor.

Semantics (documented in ``docs/aggregation.md``):

* aggregates fold over the **accepted buffers** (``selection="accepted"``,
  GRETA's "all trends" semantics) — the global Definition-2 selection
  passes would force materialising the match set, defeating the point;
* ``count(*)`` counts accepted matches; ``count(v.A)`` counts events
  bound to ``v`` carrying attribute ``A``, summed across matches;
* ``sum``/``avg`` fold numeric values only (non-numeric and missing
  values are skipped, mirroring the permissive condition semantics);
* ``min``/``max`` fold every present value under one total order —
  numbers before text, natural order within each (anything else sorts
  last, by type name then ``repr``) — so a mixed-type attribute has the
  same extremum in any fold or merge order; ``avg`` finalises as
  sum/count over all folded values, ``None`` when no value was folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["Aggregate", "AggregateSpec", "AGGREGATE_FUNCS"]

#: Aggregate functions the SELECT clause admits.
AGGREGATE_FUNCS = ("count", "sum", "min", "max", "avg")


@dataclass(frozen=True)
class Aggregate:
    """One aggregate term, e.g. ``sum(p.dose)`` or ``count(*)``.

    ``variable``/``attribute`` are ``None`` exactly for ``count(*)``.
    ``alias`` is the optional ``AS name`` output label.
    """

    func: str
    variable: Optional[str] = None
    attribute: Optional[str] = None
    alias: Optional[str] = None

    def __post_init__(self):
        if self.func not in AGGREGATE_FUNCS:
            raise ValueError(
                f"unknown aggregate function {self.func!r}; expected one of "
                f"{AGGREGATE_FUNCS}")
        if self.variable is None or self.attribute is None:
            if self.func != "count":
                raise ValueError(
                    f"{self.func}(*) is not defined; only count(*) may "
                    f"aggregate without an attribute")
            if self.variable is not None or self.attribute is not None:
                raise ValueError(
                    "variable and attribute must both be given or both be "
                    "omitted")

    @property
    def is_star(self) -> bool:
        """True iff the term is ``count(*)``."""
        return self.variable is None

    @property
    def label(self) -> str:
        """The output label: the alias, or the canonical rendering."""
        return self.alias if self.alias is not None else self.render()

    def render(self) -> str:
        """Canonical query text of the term (without the alias)."""
        if self.is_star:
            return "count(*)"
        return f"{self.func}({self.variable}.{self.attribute})"

    def __repr__(self) -> str:
        if self.alias is not None:
            return f"{self.render()} AS {self.alias}"
        return self.render()


@dataclass(frozen=True)
class AggregateSpec:
    """The full SELECT list of an aggregation query."""

    aggregates: Tuple[Aggregate, ...]

    def __post_init__(self):
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.aggregates:
            raise ValueError("an aggregate spec needs at least one term")
        seen = set()
        for aggregate in self.aggregates:
            if aggregate.label in seen:
                raise ValueError(
                    f"duplicate aggregate output label {aggregate.label!r}; "
                    f"disambiguate with 'AS name'")
            seen.add(aggregate.label)

    def __iter__(self):
        return iter(self.aggregates)

    def __len__(self) -> int:
        return len(self.aggregates)

    @property
    def labels(self) -> Tuple[str, ...]:
        """Output labels in declaration order."""
        return tuple(a.label for a in self.aggregates)

    def canonical(self) -> str:
        """A canonical token for fingerprinting (order-preserving —
        ``SELECT a, b`` and ``SELECT b, a`` are different queries)."""
        return ",".join(
            f"{a.func}:{a.variable or '*'}:{a.attribute or '*'}"
            f":{a.alias or ''}"
            for a in self.aggregates)

    def validate(self, pattern) -> None:
        """Check every referenced variable is declared by ``pattern``.

        Raises :class:`ValueError` naming the offending term; called at
        plan-build time so a bad spec never reaches the executor.
        """
        declared = {variable.name
                    for event_set in pattern.sets for variable in event_set}
        for aggregate in self.aggregates:
            if (aggregate.variable is not None
                    and aggregate.variable not in declared):
                raise ValueError(
                    f"aggregate {aggregate.render()} references undeclared "
                    f"variable {aggregate.variable!r}")

    def render(self) -> str:
        """The SELECT clause as query text (without ``FROM``)."""
        return "SELECT " + ", ".join(
            a.render() + (f" AS {a.alias}" if a.alias is not None else "")
            for a in self.aggregates)

    def __repr__(self) -> str:
        return f"AggregateSpec({', '.join(repr(a) for a in self.aggregates)})"
