"""Compile-once pattern plans (the ``repro.compile()`` subsystem).

The compile/run split: :func:`compile` turns a SES pattern into an
immutable, picklable :class:`PatternPlan` — built automaton, minimized
transition tables, the Section 4.5 prefilter compiled to per-attribute
predicate vectors, and the applied rewrites — cached process-globally
by the pattern's canonical fingerprint.  Every matcher in the engine
(batch, streaming, partitioned, pooled, sharded) executes plans; the
pattern-accepting entry points are thin wrappers that compile first.

Quickstart::

    import repro

    plan = repro.compile(pattern)          # cache hit after the first call
    result = plan.match(relation)          # batch
    result = plan.match(relation, workers=4)   # partition-parallel
    live = plan.stream()                   # continuous matcher

See ``docs/plans.md`` for fingerprinting, cache sizing and the
prefilter's measured cost.
"""

from .cache import (DEFAULT_CACHE_SIZE, PlanCache, as_plan, clear_plan_cache,
                    compile, plan_cache, set_plan_cache_size)
from .fingerprint import FINGERPRINT_VERSION, pattern_fingerprint
from .plan import (DEFAULT_OPTIMIZATIONS, OPTIMIZATIONS, PatternPlan,
                   build_plan)
from .prefilter import FILTER_MODES, VectorizedPrefilter

__all__ = [
    "DEFAULT_CACHE_SIZE", "DEFAULT_OPTIMIZATIONS", "FILTER_MODES",
    "FINGERPRINT_VERSION", "OPTIMIZATIONS", "PatternPlan", "PlanCache",
    "VectorizedPrefilter", "as_plan",
    "build_plan", "clear_plan_cache", "compile", "pattern_fingerprint",
    "plan_cache", "set_plan_cache_size",
]
