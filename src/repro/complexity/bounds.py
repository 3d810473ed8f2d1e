"""Executable complexity analysis (Section 4.4 of the paper).

This module turns the paper's definitions and theorems into code:

* :func:`are_mutually_exclusive` / :func:`all_pairwise_mutually_exclusive`
  — Definition 6 and the premise of Lemma 1.
* :func:`classify_set` / :func:`set_instance_bound` — Theorems 1–3: upper
  bounds on the number of simultaneous automaton instances spawned from
  *one* start instance for a single event set pattern.
* :func:`pattern_instance_bound` — the combined bound
  ``O(W · (|Ω|max)^n)`` for patterns with several event set patterns;
  ``W`` is Definition 5's window size,
  :meth:`~repro.core.relation.EventRelation.window_size`.

The mutual-exclusivity test is *conservative*: it reports two variables as
mutually exclusive only when a pair of constant conditions provably cannot
be satisfied by one event (e.g. ``v.L = 'C'`` vs ``v'.L = 'D'``).  When in
doubt it answers ``False``, which errs toward the *larger* complexity
class — the bounds remain sound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Optional, Tuple

from ..core.conditions import Condition
from ..core.pattern import SESPattern
from ..core.variables import Variable

__all__ = [
    "conditions_conflict",
    "are_mutually_exclusive",
    "all_pairwise_mutually_exclusive",
    "ComplexityCase",
    "classify_set",
    "set_instance_bound",
    "pattern_instance_bound",
    "ComplexityReport",
    "analyze",
]


# ----------------------------------------------------------------------
# Mutual exclusivity (Definition 6)
# ----------------------------------------------------------------------
def _comparable(a: Any, b: Any) -> bool:
    """True iff ``a < b`` is a meaningful comparison."""
    try:
        a < b  # noqa: B015 — probing comparability
    except TypeError:
        return False
    return True


def conditions_conflict(c1: Condition, c2: Condition) -> bool:
    """True iff no single event can satisfy both constant conditions.

    Both conditions must be constant conditions on the *same attribute*;
    otherwise they trivially coexist and the function returns ``False``.
    The test uses continuous-domain interval logic, which is conservative
    for discrete domains (it may answer ``False`` where a discrete-domain
    argument could prove a conflict, never the other way around).
    """
    if not (c1.is_constant and c2.is_constant):
        return False
    if c1.left.attribute != c2.left.attribute:
        return False
    op1, k1 = c1.op, c1.right.value  # type: ignore[union-attr]
    op2, k2 = c2.op, c2.right.value  # type: ignore[union-attr]

    # Equality vs equality: conflicting iff the constants differ.
    if op1 == "=" and op2 == "=":
        return not _values_equal(k1, k2)
    # ``!=`` excludes one point: it conflicts only with that point.
    if "!=" in (op1, op2):
        return "=" in (op1, op2) and _values_equal(k1, k2)
    # The rest is ordering, which needs comparability.
    if not _comparable(k1, k2):
        return False
    # Ranges (a point being the closed range [k, k]): conflict iff they
    # bound an empty interval.
    lower1, upper1 = _range_of(op1, k1)
    lower2, upper2 = _range_of(op2, k2)
    lower = _max_bound(lower1, lower2)
    upper = _min_bound(upper1, upper2)
    if lower is None or upper is None:
        return False
    lo_value, lo_strict = lower
    hi_value, hi_strict = upper
    if lo_value > hi_value:
        return True
    if lo_value == hi_value and (lo_strict or hi_strict):
        return True
    return False


def _values_equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:  # pragma: no cover — exotic payloads
        return False


def _range_of(op: str, k: Any) -> Tuple[Optional[Tuple[Any, bool]],
                                        Optional[Tuple[Any, bool]]]:
    """Interval ``(lower, upper)`` implied by ``A op k``; bounds are
    ``(value, strict)`` or ``None`` for unbounded; ``=`` is the point
    ``[k, k]``."""
    if op == "<":
        return None, (k, True)
    if op == "<=":
        return None, (k, False)
    if op == ">":
        return (k, True), None
    if op == ">=":
        return (k, False), None
    return (k, False), (k, False)  # "="


def _max_bound(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] > b[0] else b
    return (a[0], a[1] or b[1])


def _min_bound(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if a[0] != b[0]:
        return a if a[0] < b[0] else b
    return (a[0], a[1] or b[1])


def are_mutually_exclusive(pattern: SESPattern, v1: Variable,
                           v2: Variable) -> bool:
    """Definition 6: can no single event match both variables?

    True iff Θ contains constant conditions on ``v1`` and ``v2`` over the
    same attribute that no event satisfies simultaneously.
    """
    if v1 == v2:
        return False
    for c1 in pattern.constant_conditions(v1):
        for c2 in pattern.constant_conditions(v2):
            if conditions_conflict(c1, c2):
                return True
    return False


def all_pairwise_mutually_exclusive(pattern: SESPattern,
                                    variables: Optional[Iterable[Variable]] = None
                                    ) -> bool:
    """Premise of Lemma 1: are all given variables pairwise exclusive?

    Defaults to all variables of the pattern.  When true, nondeterminism
    cannot occur during execution and Theorem 1 applies.
    """
    vs = sorted(variables) if variables is not None else sorted(pattern.variables)
    for i, v1 in enumerate(vs):
        for v2 in vs[i + 1:]:
            if not are_mutually_exclusive(pattern, v1, v2):
                return False
    return True


# ----------------------------------------------------------------------
# Theorems 1–3
# ----------------------------------------------------------------------
class ComplexityCase(Enum):
    """The three cases of Section 4.4 for a single event set pattern."""

    #: Case 1 — pairwise mutually exclusive variables: O(1).
    MUTUALLY_EXCLUSIVE = "mutually exclusive (Theorem 1)"
    #: Case 2 — not exclusive, no group variable: O(|V1|!).
    FACTORIAL = "no group variables (Theorem 2)"
    #: Case 3, k = 1 — one group variable: O((|V1|-1)! · W^|V1|).
    SINGLE_GROUP = "one group variable (Theorem 3, k=1)"
    #: Case 3, k > 1 — k group variables: O(k · (|V1|-1)! · k^(W·|V1|)).
    MULTI_GROUP = "k>1 group variables (Theorem 3, k>1)"


def classify_set(pattern: SESPattern, set_index: int) -> ComplexityCase:
    """Classify one event set pattern into the case analysis of Section 4.4."""
    variables = pattern.sets[set_index]
    if all_pairwise_mutually_exclusive(pattern, variables):
        return ComplexityCase.MUTUALLY_EXCLUSIVE
    k = sum(1 for v in variables if v.is_group)
    if k == 0:
        return ComplexityCase.FACTORIAL
    if k == 1:
        return ComplexityCase.SINGLE_GROUP
    return ComplexityCase.MULTI_GROUP


def set_instance_bound(pattern: SESPattern, set_index: int, window: int) -> int:
    """Upper bound on instances spawned from one start instance (Theorems 1–3).

    ``window`` is the window size ``W`` of Definition 5.
    """
    if window < 0:
        raise ValueError("window size must be non-negative")
    variables = pattern.sets[set_index]
    n = len(variables)
    case = classify_set(pattern, set_index)
    if case is ComplexityCase.MUTUALLY_EXCLUSIVE:
        return 1
    if case is ComplexityCase.FACTORIAL:
        return math.factorial(n)
    k = sum(1 for v in variables if v.is_group)
    if case is ComplexityCase.SINGLE_GROUP:
        return math.factorial(n - 1) * window ** n
    return k * math.factorial(n - 1) * k ** (window * n)


def pattern_instance_bound(pattern: SESPattern, window: int) -> int:
    """Combined bound ``O(W · (|Ω|max)^n)`` for the whole pattern.

    ``|Ω|max`` is the worst per-set bound among the pattern's event set
    patterns and ``n`` the number of event set patterns (end of Section
    4.4).  The ``W`` factor accounts for the start instances created while
    sliding over one window.
    """
    worst = max(set_instance_bound(pattern, i, window)
                for i in range(len(pattern)))
    return window * worst ** len(pattern)


@dataclass
class ComplexityReport:
    """Summary of the complexity analysis for one pattern and window size."""

    window: int
    cases: Tuple[ComplexityCase, ...]
    set_bounds: Tuple[int, ...]
    total_bound: int
    mutually_exclusive: bool

    def describe(self) -> str:
        """Multi-line, human-readable report."""
        lines = [f"window size W = {self.window}"]
        for i, (case, bound) in enumerate(zip(self.cases, self.set_bounds)):
            magnitude = (f"10^{len(str(bound)) - 1}" if bound >= 10_000_000
                         else str(bound))
            lines.append(f"  V{i + 1}: {case.value}; per-start bound {magnitude}")
        total = (f"10^{len(str(self.total_bound)) - 1}"
                 if self.total_bound >= 10_000_000 else str(self.total_bound))
        lines.append(f"  total bound O(W·(|Ω|max)^n) = {total}")
        return "\n".join(lines)


def analyze(pattern: SESPattern, window: int) -> ComplexityReport:
    """Run the full Section 4.4 analysis for ``pattern`` and ``window``."""
    cases = tuple(classify_set(pattern, i) for i in range(len(pattern)))
    set_bounds = tuple(set_instance_bound(pattern, i, window)
                       for i in range(len(pattern)))
    return ComplexityReport(
        window=window,
        cases=cases,
        set_bounds=set_bounds,
        total_bound=pattern_instance_bound(pattern, window),
        mutually_exclusive=all_pairwise_mutually_exclusive(pattern),
    )
