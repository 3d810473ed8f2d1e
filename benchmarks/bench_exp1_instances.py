"""Experiment 1 (Figure 11 and Table 1): SES automaton vs brute force.

Reproduces the paper's first experiment: the maximal number of
simultaneously active automaton instances for patterns

* P1 = ``(<{c,d,p,v,r,l},{b}>, Θ1, 264)`` — pairwise mutually exclusive;
* P2 = ``(<{c,d,p,v,r,l},{b}>, Θ2, 264)`` — all variables the same type;

with ``|V1|`` varied from 2 up to the profile's maximum, evaluated by the
single SES automaton and by the brute force set of ``|V1|!`` sequential
automata (Section 5.2).

Expected shape (paper Section 5.3): with P1 the brute force instance
count exceeds the SES count by a factor approaching ``(|V1|-1)!``
(Table 1); with P2 the SES automaton creates 9–20 % fewer instances.
The timing of each engine is captured by pytest-benchmark; the instance
counts are printed and asserted.
"""

import time

import pytest

import repro
from repro.baseline import BruteForceMatcher
from repro.bench import print_experiment1, run_experiment1
from repro.data import experiment1_pattern
from repro.obs import Observability


def _var_counts(profile):
    return list(range(2, profile.exp1_max_vars + 1))


@pytest.mark.parametrize("n_vars", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("exclusive", [True, False], ids=["P1", "P2"])
class TestEngines:
    def test_ses(self, benchmark, exp1_relation, profile, n_vars, exclusive):
        """Time the SES automaton on P1/P2 at each |V1|."""
        if n_vars > profile.exp1_max_vars:
            pytest.skip("beyond profile's variable budget")
        plan = repro.compile(experiment1_pattern(n_vars, exclusive=exclusive))
        executor = plan.executor(selection="accepted")
        result = benchmark.pedantic(executor.run, args=(exp1_relation,),
                                    rounds=1, iterations=1)
        benchmark.extra_info["max_instances"] = (
            result.stats.max_simultaneous_instances)

    def test_brute_force(self, benchmark, exp1_relation, profile, n_vars,
                         exclusive):
        """Time the brute force baseline on P1/P2 at each |V1|."""
        if n_vars > profile.exp1_max_vars:
            pytest.skip("beyond profile's variable budget")
        matcher = BruteForceMatcher(
            experiment1_pattern(n_vars, exclusive=exclusive),
            use_filter=True, selection="accepted")
        result = benchmark.pedantic(matcher.run, args=(exp1_relation,),
                                    rounds=1, iterations=1)
        benchmark.extra_info["max_instances"] = (
            result.stats.max_simultaneous_instances)
        benchmark.extra_info["automata"] = matcher.automaton_count


def test_observability_overhead(exp1_relation, capsys):
    """Measure the cost of the repro.obs layer on the Experiment 1 hot path.

    Two shapes are asserted:

    * *disabled* instrumentation (the default) must be near-free — the
      zero-cost contract behind the ≤ 2 % runtime budget of the
      observability PR;
    * *enabled* ``--profile`` instrumentation is expected to cost real
      time (spans + histograms per event); its factor is printed so the
      overhead number in docs/observability.md stays honest.
    """
    pattern = experiment1_pattern(4, exclusive=True)

    def run_once(obs):
        executor = repro.compile(pattern).executor(selection="accepted",
                                                   observability=obs)
        start = time.perf_counter()
        result = executor.run(exp1_relation)
        return result, time.perf_counter() - start

    baseline = profiled = 0.0
    rounds = 3
    for _ in range(rounds):  # interleave to cancel thermal/cache drift
        base_result, base_seconds = run_once(None)
        prof_result, prof_seconds = run_once(Observability())
        baseline += base_seconds
        profiled += prof_seconds
        assert (base_result.stats.max_simultaneous_instances
                == prof_result.stats.max_simultaneous_instances)

    factor = profiled / baseline
    with capsys.disabled():
        print(f"\nobservability overhead: baseline {baseline / rounds:.4f}s, "
              f"profiled {profiled / rounds:.4f}s ({factor:.2f}x)")
    # Enabled profiling may legitimately cost time, but an order of
    # magnitude would make --profile useless on real workloads.
    assert factor < 10


def test_flight_recorder_overhead(exp1_relation, capsys):
    """Measure the flight recorder's cost on the Experiment 1 hot path.

    The recorder rides the tracer hook (no extra branches for step
    records) plus one ``is not None`` guard per event for |Ω| sampling,
    so attached it should stay within a few percent of the bare run —
    the ≤ 5 % budget that makes it safe to leave on in production.  The
    factor is printed so the number in docs/observability.md stays
    honest; the assertion bound is looser to keep CI machines from
    flaking the build.
    """
    from repro.obs.flight import FlightRecorder

    pattern = experiment1_pattern(4, exclusive=True)

    def run_once(flight):
        executor = repro.compile(pattern).executor(selection="accepted",
                                                   flight=flight)
        start = time.perf_counter()
        result = executor.run(exp1_relation)
        return result, time.perf_counter() - start

    baseline = recorded = 0.0
    rounds = 3
    steps = 0
    for _ in range(rounds):  # interleave to cancel thermal/cache drift
        base_result, base_seconds = run_once(None)
        flight = FlightRecorder()
        rec_result, rec_seconds = run_once(flight)
        baseline += base_seconds
        recorded += rec_seconds
        steps = flight.recorded
        assert (base_result.stats.max_simultaneous_instances
                == rec_result.stats.max_simultaneous_instances)

    factor = recorded / baseline
    with capsys.disabled():
        print(f"\nflight recorder overhead: baseline "
              f"{baseline / rounds:.4f}s, recording {recorded / rounds:.4f}s "
              f"({factor:.2f}x, {steps} steps recorded)")
    assert steps > 0
    assert factor < 1.5


def test_figure11_and_table1(exp1_relation, profile, capsys):
    """Run the full sweep, print the paper-style tables, assert the shapes."""
    rows = run_experiment1(exp1_relation, max_vars=profile.exp1_max_vars)
    with capsys.disabled():
        print_experiment1(rows)

    p1 = {r["n_vars"]: r for r in rows if r["pattern"] == "P1"}
    p2 = {r["n_vars"]: r for r in rows if r["pattern"] == "P2"}

    # Figure 11: brute force dominates SES increasingly with |V1| under P1.
    top = profile.exp1_max_vars
    assert p1[top]["bf_instances"] > 10 * p1[top]["ses_instances"]
    ratios = [p1[n]["ratio"] for n in sorted(p1)]
    assert ratios == sorted(ratios), "BF/SES ratio must grow with |V1|"

    # Table 1: the ratio approaches (|V1|-1)!.
    for n, row in p1.items():
        if n >= 3:
            assert 0.5 * row["factorial"] <= row["ratio"] <= 1.5 * row["factorial"]

    # P2: SES produces fewer instances than BF, by a modest margin.
    for n, row in p2.items():
        assert row["ses_instances"] <= row["bf_instances"] * 1.05
