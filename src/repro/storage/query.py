"""A small query interface over event tables.

Supports conjunctive filters with equality pushdown into hash indexes and
time-range pushdown into the time index — enough to express the
"SELECT ... FROM Event WHERE ... ORDER BY T" access path the paper's
experiments use, plus a ``match()`` terminal that runs a SES pattern over
the selected events.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.events import Event
from ..core.predicates import PredicateBank
from ..core.relation import EventRelation

__all__ = ["Query"]


class Query:
    """A lazily evaluated conjunctive query over an :class:`EventTable`.

    Builder methods return ``self`` for chaining::

        events = (table.query()
                  .where("ID", "=", 1)
                  .where("V", ">", 100)
                  .between(0, 500)
                  .execute())
    """

    def __init__(self, table):
        self._table = table
        self._equalities: List[Tuple[str, Any]] = []
        # The predicates no index answers, interned; a row passes iff
        # its truth vector has them all.
        self._filters = PredicateBank()
        self._required = 0
        self._start: Any = None
        self._end: Any = None
        self._limit: Optional[int] = None

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def where(self, attribute: str, op: str, value: Any) -> "Query":
        """Add a predicate ``attribute op value``."""
        if attribute not in self._table.schema:
            raise ValueError(
                f"table {self._table.name!r} has no attribute {attribute!r}"
            )
        if op == "=" and attribute in self._table.indexed_attributes:
            self._equalities.append((attribute, value))
        else:
            self._required |= 1 << self._filters.intern_const(
                attribute, op, value)
        return self

    def between(self, start: Any = None, end: Any = None) -> "Query":
        """Restrict to events with ``start <= T <= end``."""
        self._start = start
        self._end = end
        return self

    def limit(self, n: int) -> "Query":
        """Return at most ``n`` events (in time order)."""
        if n < 0:
            raise ValueError("limit must be non-negative")
        self._limit = n
        return self

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _candidates(self) -> List[Event]:
        """Pick the cheapest access path and return ordered candidates."""
        if self._equalities:
            # Use the most selective equality index, intersect positions.
            position_sets = []
            for attribute, value in self._equalities:
                index = self._table._hash_indexes[attribute]
                position_sets.append(set(index.lookup(value)))
            positions = sorted(set.intersection(*position_sets))
            lo, hi = self._table._time_index.range(self._start, self._end)
            return [self._table.row(p) for p in positions if lo <= p < hi]
        return list(self._table.scan(self._start, self._end))

    def execute(self) -> EventRelation:
        """Run the query; the result is an ordered event relation."""
        out: List[Event] = []
        for event in self._candidates():
            if self._filters.truth(event) == self._required:
                out.append(event)
                if self._limit is not None and len(out) >= self._limit:
                    break
        relation = EventRelation(schema=self._table.schema,
                                 name=f"{self._table.name}:query")
        relation.extend(out)
        return relation

    def count(self) -> int:
        """Number of matching events."""
        return len(self.execute())

    def match(self, pattern, **kwargs):
        """Run a SES pattern over the query result.

        The pattern is compiled through the process-global plan cache;
        keyword arguments are forwarded to
        :meth:`repro.plan.plan.PatternPlan.match`.
        """
        from ..plan.cache import as_plan
        return as_plan(pattern).match(self.execute(), **kwargs)
