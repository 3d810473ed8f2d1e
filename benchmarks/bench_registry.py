"""Pattern registry: shared admission pass vs N independent matchers.

The multi-tenant regime ``repro.registry`` exists for: 100+ distinct
live patterns over one noisy event stream.  The baseline is one
independent :class:`~repro.stream.runner.ContinuousMatcher` per pattern
— every event is offered to every pattern's matcher, so the per-event
cost is N filter checks.  The registry evaluates the deduplicated predicate bank once
per batch and fans admission out through bitmasks, so cost follows the
number of *distinct predicates* instead.  The push pair carries the
≥2× claim ``python -m repro.bench`` also tracks as
``bench_registry_*``; equality of the per-pattern match sets is
asserted on every run.
"""

import pytest

from repro.bench.registry import registry_queries, registry_relation
from repro.lang import parse_pattern
from repro.registry import PatternRegistry
from repro.stream import ContinuousMatcher

N_PATTERNS = 125


@pytest.fixture(scope="module")
def patterns():
    return {f"p{i}": parse_pattern(text)
            for i, text in enumerate(registry_queries(N_PATTERNS))}


@pytest.fixture(scope="module")
def events():
    return list(registry_relation())


def _match_keys(matches):
    return sorted((frozenset((v, e.eid) for v, e in sub.bindings)
                   for sub in matches), key=sorted)


def _run_shared(patterns, events):
    registry = PatternRegistry()
    for name, pattern in patterns.items():
        registry.register(pattern, pattern_id=name)
    registry.push_many(events)
    registry.close()
    return {name: registry.matches_of(name) for name in patterns}


def _run_independent(patterns, events):
    matchers = {name: ContinuousMatcher(pattern)
                for name, pattern in patterns.items()}
    for event in events:
        for matcher in matchers.values():
            matcher.push(event)
    for matcher in matchers.values():
        matcher.close()
    return {name: matcher.matches for name, matcher in matchers.items()}


def test_register_all(benchmark, patterns):
    """Registration cost: plan reuse + predicate interning, per pattern."""

    def build():
        registry = PatternRegistry()
        for name, pattern in patterns.items():
            registry.register(pattern, pattern_id=name)
        return registry

    registry = benchmark(build)
    assert len(registry) == N_PATTERNS
    # The shared bank holds far fewer predicates than patterns.
    assert registry.predicate_count < N_PATTERNS / 10


def test_push_independent(benchmark, patterns, events):
    """Baseline: every event offered to every pattern's matcher."""
    matches = benchmark(_run_independent, patterns, events)
    assert sum(len(m) for m in matches.values()) > 0


def test_push_shared(benchmark, patterns, events):
    """One shared admission pass feeding all patterns (≥2× faster)."""
    matches = benchmark(_run_shared, patterns, events)
    assert sum(len(m) for m in matches.values()) > 0


def test_shared_matches_independent_and_speedup(patterns, events):
    """Match-set equality plus the headline ≥2× throughput claim."""
    import time

    start = time.perf_counter()
    independent = _run_independent(patterns, events)
    independent_seconds = time.perf_counter() - start
    start = time.perf_counter()
    shared = _run_shared(patterns, events)
    shared_seconds = time.perf_counter() - start

    for name in patterns:
        assert _match_keys(shared[name]) == _match_keys(independent[name]), (
            f"shared and independent runs disagree on {name}")
    speedup = independent_seconds / shared_seconds
    assert speedup >= 2.0, (
        f"shared admission pass only {speedup:.2f}x faster than "
        f"{N_PATTERNS} independent matchers")
