"""The paper's three experiments as reusable functions (Section 5).

Each ``run_experiment*`` function executes the measurements and returns
row dictionaries; each ``print_experiment*`` renders them like the
paper's figures/tables.  The benchmark scripts under ``benchmarks/`` wrap
these with pytest-benchmark timing; ``python -m repro.bench`` runs all
three and prints the full report.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from ..baseline.bruteforce import BruteForceMatcher
from ..core.relation import EventRelation
from ..data.workloads import (DEFAULT_TAU, duplicated_datasets,
                              experiment1_pattern, pattern_p3, pattern_p4,
                              pattern_p5, pattern_p6)
from .harness import timed
from .plots import series_chart
from .report import print_table

__all__ = [
    "run_experiment1", "print_experiment1",
    "run_experiment2", "print_experiment2",
    "run_experiment3", "print_experiment3",
]


class _AcceptedRunner:
    """Cached plan bound to accepted-buffer selection, as the paper's
    measurements use."""

    def __init__(self, pattern, use_filter: bool = True,
                 filter_mode: str = "conjunctive"):
        from ..plan.cache import compile as compile_plan
        self._plan = compile_plan(pattern)
        self._use_filter = use_filter
        self._filter_mode = filter_mode

    def run(self, relation):
        executor = self._plan.executor(use_filter=self._use_filter,
                                       filter_mode=self._filter_mode,
                                       selection="accepted")
        return executor.run(relation)


# ----------------------------------------------------------------------
# Experiment 1 — SES vs brute force (Figure 11, Table 1)
# ----------------------------------------------------------------------
def run_experiment1(relation: EventRelation,
                    max_vars: int = 6,
                    exclusive_only: bool = False) -> List[Dict]:
    """Max simultaneous instances, SES vs brute force, |V1| = 2..max_vars.

    One row per (|V1|, pattern): P1 (mutually exclusive conditions) and,
    unless ``exclusive_only``, P2 (same-type conditions).  Both engines
    run with the Section 4.5 filter, as in the paper's setup.
    """
    rows: List[Dict] = []
    variants = [("P1", True)] if exclusive_only else [("P1", True), ("P2", False)]
    for n in range(2, max_vars + 1):
        for label, exclusive in variants:
            pattern = experiment1_pattern(n, exclusive=exclusive)
            ses_result, ses_seconds = timed(
                _AcceptedRunner(pattern).run, relation)
            bf = BruteForceMatcher(pattern, use_filter=True,
                                   selection="accepted")
            bf_result, bf_seconds = timed(bf.run, relation)
            rows.append({
                "pattern": label,
                "n_vars": n,
                "ses_instances": ses_result.stats.max_simultaneous_instances,
                "bf_instances": bf_result.stats.max_simultaneous_instances,
                "ses_seconds": ses_seconds,
                "bf_seconds": bf_seconds,
                "ratio": (bf_result.stats.max_simultaneous_instances
                          / max(1, ses_result.stats.max_simultaneous_instances)),
                "factorial": math.factorial(n - 1),
            })
    return rows


def print_experiment1(rows: Sequence[Dict]) -> None:
    """Figure 11 (instance counts) and Table 1 (ratios for P1)."""
    print_table(
        ["pattern", "|V1|", "|Ω| SES", "|Ω| BF", "SES s", "BF s"],
        [[r["pattern"], r["n_vars"], r["ses_instances"], r["bf_instances"],
          r["ses_seconds"], r["bf_seconds"]] for r in rows],
        title="Experiment 1 (Figure 11): max simultaneous automaton instances",
    )
    p1_rows = [r for r in rows if r["pattern"] == "P1"]
    p2_rows = [r for r in rows if r["pattern"] == "P2"]
    if p1_rows:
        x = [str(r["n_vars"]) for r in p1_rows]
        series = [("SES with P1", [r["ses_instances"] for r in p1_rows]),
                  ("BF with P1", [r["bf_instances"] for r in p1_rows])]
        if p2_rows:
            series = [
                ("SES with P2", [r["ses_instances"] for r in p2_rows]),
                ("BF with P2", [r["bf_instances"] for r in p2_rows]),
            ] + series
        print(series_chart(x, series, log=True,
                           title="Figure 11 (log scale): instances vs |V1|"))
        print()
    print_table(
        ["|V1|", "|Ω| BF", "|Ω| SES", "ratio BF/SES", "(|V1|-1)!"],
        [[r["n_vars"], r["bf_instances"], r["ses_instances"], r["ratio"],
          r["factorial"]] for r in p1_rows],
        title="Table 1: ratio of instance counts (pattern P1)",
    )


# ----------------------------------------------------------------------
# Experiment 2 — instance growth with window size (Figure 12)
# ----------------------------------------------------------------------
def run_experiment2(base: EventRelation,
                    factors: Sequence[int] = (1, 2, 3, 4, 5),
                    tau: int = DEFAULT_TAU) -> List[Dict]:
    """Max simultaneous instances of P3 (group var) and P4 (no group var)
    on the duplicated data sets D1..D5."""
    rows: List[Dict] = []
    p3 = _AcceptedRunner(pattern_p3(tau))
    p4 = _AcceptedRunner(pattern_p4(tau))
    for factor, relation in duplicated_datasets(base, factors).items():
        window = relation.window_size(tau)
        r3, s3 = timed(p3.run, relation)
        r4, s4 = timed(p4.run, relation)
        rows.append({
            "dataset": f"D{factor}",
            "window": window,
            "p3_instances": r3.stats.max_simultaneous_instances,
            "p4_instances": r4.stats.max_simultaneous_instances,
            "p3_seconds": s3,
            "p4_seconds": s4,
        })
    return rows


def print_experiment2(rows: Sequence[Dict]) -> None:
    """Figure 12: instances vs window size (P3 polynomial, P4 linear)."""
    print_table(
        ["dataset", "W", "|Ω| P3 (c,d,p+)", "|Ω| P4 (c,d,p)",
         "P3 s", "P4 s"],
        [[r["dataset"], r["window"], r["p3_instances"], r["p4_instances"],
          r["p3_seconds"], r["p4_seconds"]] for r in rows],
        title="Experiment 2 (Figure 12): instances vs window size",
    )
    x = [f"W={r['window']}" for r in rows]
    print(series_chart(
        x,
        [("SES with P3 (polynomial)", [r["p3_instances"] for r in rows]),
         ("SES with P4 (linear)", [r["p4_instances"] for r in rows])],
        title="Figure 12: instances vs window size",
    ))
    print()


# ----------------------------------------------------------------------
# Experiment 3 — effect of event filtering (Figure 13)
# ----------------------------------------------------------------------
def run_experiment3(base: EventRelation,
                    factors: Sequence[int] = (1, 2, 3, 4, 5),
                    tau: int = DEFAULT_TAU) -> List[Dict]:
    """Execution time of P5/P6 with and without the Section 4.5 filter,
    plus the statistics-ordered condition evaluation of a filterless
    adversarial P6 (largest data set only)."""
    rows: List[Dict] = []
    configurations = [
        ("P5", pattern_p5(tau)),
        ("P6", pattern_p6(tau)),
    ]
    matchers = {
        (label, filtered): _AcceptedRunner(pattern, use_filter=filtered,
                                           filter_mode="paper")
        for label, pattern in configurations
        for filtered in (False, True)
    }
    largest = None
    for factor, relation in duplicated_datasets(base, factors).items():
        row: Dict = {"dataset": f"D{factor}",
                     "window": relation.window_size(tau)}
        for label, _ in configurations:
            _, seconds_without = timed(matchers[(label, False)].run, relation)
            result, seconds_with = timed(matchers[(label, True)].run, relation)
            row[f"{label.lower()}_without"] = seconds_without
            row[f"{label.lower()}_with"] = seconds_with
            row[f"{label.lower()}_speedup"] = (
                seconds_without / seconds_with if seconds_with > 0 else float("inf")
            )
            row[f"{label.lower()}_filtered_events"] = result.stats.events_filtered
        rows.append(row)
        largest = relation
    if rows and largest is not None:
        rows[-1].update(_statsorder_measurement(largest, tau))
    return rows


def _statsorder_measurement(relation: EventRelation, tau: int) -> Dict:
    """Statistics-informed condition ordering on an adversarial P6.

    The chemo patterns already declare their cheap *selective* constant
    conditions first, so reordering them is a no-op.  The adversarial
    variant models the query-author anti-pattern selectivity ordering
    exists for: per-variable range guards that nearly always pass
    (``x.T >= 0`` …) declared before the selective label constants, so
    declaration order wastes three guard evaluations on every rejected
    event.  One calibration run over a counting automaton feeds a
    private :class:`~repro.explain.stats.StatsStore`; the timed
    comparison is declaration order vs statistics order, both
    filterless, so every event exercises the condition chains.
    """
    from ..core.pattern import SESPattern
    from ..explain import explain_analyze, ordered_plan
    from ..explain.stats import StatsStore
    from ..plan.cache import as_plan
    pattern = pattern_p6(tau)
    guards = []
    for group in pattern.sets:
        for variable in sorted(group, key=lambda v: v.name):
            guards.extend([f"{variable.name}.T >= 0",
                           f"{variable.name}.T <= 1000000000",
                           f"{variable.name}.T != -1"])
    adversarial = SESPattern(sets=[list(group) for group in pattern.sets],
                             conditions=guards + list(pattern.conditions),
                             tau=pattern.tau)
    store = StatsStore(autosave=False)
    explain_analyze(adversarial, relation, use_filter=False,
                    selection="accepted", store=store)
    declared = as_plan(adversarial)
    ordered = ordered_plan(declared, store=store)
    _, seconds_declared = timed(
        lambda: declared.match(relation, use_filter=False,
                               selection="accepted"))
    _, seconds_ordered = timed(
        lambda: ordered.match(relation, use_filter=False,
                              selection="accepted"))
    return {
        "p6_statsorder_without": seconds_declared,
        "p6_statsorder_with": seconds_ordered,
        "p6_statsorder_speedup": (seconds_declared / seconds_ordered
                                  if seconds_ordered > 0 else float("inf")),
    }


def print_experiment3(rows: Sequence[Dict]) -> None:
    """Figure 13: execution time with vs without event filtering."""
    print_table(
        ["dataset", "W", "P5 wo [s]", "P5 w [s]", "P5 ×", "P6 wo [s]",
         "P6 w [s]", "P6 ×"],
        [[r["dataset"], r["window"], r["p5_without"], r["p5_with"],
          r["p5_speedup"], r["p6_without"], r["p6_with"], r["p6_speedup"]]
         for r in rows],
        title="Experiment 3 (Figure 13): execution time with/without filtering",
    )
    x = [f"W={r['window']}" for r in rows]
    print(series_chart(
        x,
        [("P6 wo filter", [r["p6_without"] for r in rows]),
         ("P6 with filter", [r["p6_with"] for r in rows]),
         ("P5 wo filter", [r["p5_without"] for r in rows]),
         ("P5 with filter", [r["p5_with"] for r in rows])],
        log=True, unit=" s",
        title="Figure 13 (log scale): execution time",
    ))
    print()
    statsorder = [r for r in rows if "p6_statsorder_speedup" in r]
    if statsorder:
        print_table(
            ["dataset", "declared order [s]", "stats order [s]", "×"],
            [[r["dataset"], r["p6_statsorder_without"],
              r["p6_statsorder_with"], r["p6_statsorder_speedup"]]
             for r in statsorder],
            title="Statistics-ordered conditions (adversarial P6, "
                  "no filter)",
        )
