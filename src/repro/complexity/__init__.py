"""Executable complexity analysis (Section 4.4): Theorems 1-3, Lemma 1."""

from .bounds import (
    ComplexityCase,
    ComplexityReport,
    all_pairwise_mutually_exclusive,
    analyze,
    are_mutually_exclusive,
    classify_set,
    conditions_conflict,
    pattern_instance_bound,
    set_instance_bound,
)

__all__ = [
    "ComplexityCase", "ComplexityReport", "all_pairwise_mutually_exclusive",
    "analyze", "are_mutually_exclusive", "classify_set",
    "conditions_conflict", "pattern_instance_bound", "set_instance_bound",
]
