"""Tests for the executable complexity analysis (Section 4.4)."""

import math

import pytest

from repro import EventRelation, SESPattern
from repro.complexity import (ComplexityCase, all_pairwise_mutually_exclusive,
                              analyze, are_mutually_exclusive, classify_set,
                              conditions_conflict, pattern_instance_bound,
                              set_instance_bound)
from repro.core.conditions import parse_condition
from repro.core.variables import group, var

from conftest import ev, match


def cond(text, **variables):
    vs = {name: (group(name[:-1]) if name.endswith("+") else var(name))
          for name in variables or {"v": None, "w": None}}
    vs = {"v": var("v"), "w": var("w")}
    return parse_condition(text, vs)


class TestConditionsConflict:
    def test_distinct_equalities_conflict(self):
        assert conditions_conflict(cond("v.L = 'C'"), cond("w.L = 'D'"))

    def test_same_equality_no_conflict(self):
        assert not conditions_conflict(cond("v.L = 'C'"), cond("w.L = 'C'"))

    def test_different_attributes_no_conflict(self):
        assert not conditions_conflict(cond("v.L = 'C'"), cond("w.ID = 1"))

    def test_equality_vs_range(self):
        assert conditions_conflict(cond("v.V = 5"), cond("w.V > 10"))
        assert not conditions_conflict(cond("v.V = 15"), cond("w.V > 10"))

    def test_equality_vs_not_equal(self):
        assert conditions_conflict(cond("v.V = 5"), cond("w.V != 5"))
        assert not conditions_conflict(cond("v.V = 5"), cond("w.V != 6"))

    def test_disjoint_ranges_conflict(self):
        assert conditions_conflict(cond("v.V < 5"), cond("w.V > 5"))
        assert conditions_conflict(cond("v.V < 5"), cond("w.V >= 5"))
        assert conditions_conflict(cond("v.V <= 5"), cond("w.V > 5"))

    def test_touching_closed_ranges_no_conflict(self):
        assert not conditions_conflict(cond("v.V <= 5"), cond("w.V >= 5"))

    def test_overlapping_ranges_no_conflict(self):
        assert not conditions_conflict(cond("v.V < 10"), cond("w.V > 5"))

    def test_same_direction_no_conflict(self):
        assert not conditions_conflict(cond("v.V < 5"), cond("w.V < 10"))

    def test_not_equal_pairs_never_conflict(self):
        assert not conditions_conflict(cond("v.V != 5"), cond("w.V != 5"))

    def test_incomparable_types_conservative(self):
        assert not conditions_conflict(cond("v.V < 5"), cond("w.V > 'text'"))

    def test_incomparable_equalities_conflict(self):
        assert conditions_conflict(cond("v.V = 5"), cond("w.V = 'five'"))

    def test_variable_conditions_never_conflict(self):
        c1 = parse_condition("v.ID = w.ID", {"v": var("v"), "w": var("w")})
        assert not conditions_conflict(c1, cond("w.L = 'C'"))


class TestMutualExclusivity:
    def test_example10(self, q1):
        """Paper Example 10: all variables of Q1 are pairwise exclusive."""
        assert all_pairwise_mutually_exclusive(q1)

    def test_pairwise_check(self, q1):
        c, d = q1.variable("c"), q1.variable("d")
        assert are_mutually_exclusive(q1, c, d)
        assert not are_mutually_exclusive(q1, c, c)

    def test_same_type_conditions_not_exclusive(self):
        pattern = SESPattern(
            sets=[["x", "y"]],
            conditions=["x.L = 'P'", "y.L = 'P'"],
            tau=10,
        )
        assert not all_pairwise_mutually_exclusive(pattern)

    def test_unconstrained_variable_not_exclusive(self):
        pattern = SESPattern(sets=[["x", "y"]],
                             conditions=["x.L = 'A'"], tau=10)
        assert not all_pairwise_mutually_exclusive(pattern)


class TestClassification:
    def make(self, specs, conditions):
        return SESPattern(sets=[specs], conditions=conditions, tau=10)

    def test_case1(self):
        p = self.make(["x", "y"], ["x.L = 'A'", "y.L = 'B'"])
        assert classify_set(p, 0) is ComplexityCase.MUTUALLY_EXCLUSIVE

    def test_case2(self):
        p = self.make(["x", "y"], ["x.L = 'A'", "y.L = 'A'"])
        assert classify_set(p, 0) is ComplexityCase.FACTORIAL

    def test_case3_single_group(self):
        p = self.make(["x", "y+"], ["x.L = 'A'", "y.L = 'A'"])
        assert classify_set(p, 0) is ComplexityCase.SINGLE_GROUP

    def test_case3_multi_group(self):
        p = self.make(["x+", "y+"], ["x.L = 'A'", "y.L = 'A'"])
        assert classify_set(p, 0) is ComplexityCase.MULTI_GROUP

    def test_exclusive_group_still_case1(self):
        """Theorem 1 has priority: exclusivity precludes nondeterminism."""
        p = self.make(["x", "y+"], ["x.L = 'A'", "y.L = 'B'"])
        assert classify_set(p, 0) is ComplexityCase.MUTUALLY_EXCLUSIVE


class TestBounds:
    def make(self, specs, conditions):
        return SESPattern(sets=[specs], conditions=conditions, tau=10)

    def test_theorem1_bound(self):
        p = self.make(["x", "y"], ["x.L = 'A'", "y.L = 'B'"])
        assert set_instance_bound(p, 0, window=100) == 1

    def test_theorem2_bound(self):
        p = self.make(["x", "y", "z"],
                      ["x.L = 'A'", "y.L = 'A'", "z.L = 'A'"])
        assert set_instance_bound(p, 0, window=100) == math.factorial(3)

    def test_theorem3_single_group(self):
        p = self.make(["x", "y", "z+"],
                      ["x.L = 'A'", "y.L = 'A'", "z.L = 'A'"])
        # (|V1|-1)! * W^|V1| = 2! * 10^3
        assert set_instance_bound(p, 0, window=10) == 2 * 10 ** 3

    def test_theorem3_multi_group(self):
        p = self.make(["x+", "y+"], ["x.L = 'A'", "y.L = 'A'"])
        # k * (|V1|-1)! * k^(W*|V1|) = 2 * 1! * 2^(3*2)
        assert set_instance_bound(p, 0, window=3) == 2 * 2 ** 6

    def test_pattern_bound(self):
        p = SESPattern(
            sets=[["x", "y"], ["z"]],
            conditions=["x.L = 'A'", "y.L = 'A'", "z.L = 'Z'"],
            tau=10,
        )
        # worst per-set bound = 2! ; total = W * 2^2
        assert pattern_instance_bound(p, window=7) == 7 * 4

    def test_negative_window_rejected(self):
        p = self.make(["x"], ["x.L = 'A'"])
        with pytest.raises(ValueError):
            set_instance_bound(p, 0, window=-1)


class TestEmpiricalSoundness:
    """Measured max |Ω| must never exceed the theoretical bounds."""

    def test_case2_bound_holds(self):
        pattern = SESPattern(
            sets=[["x", "y"], ["z"]],
            conditions=["x.kind = 'M'", "y.kind = 'M'", "z.kind = 'Z'"],
            tau=20,
        )
        events = [ev(t, "M") for t in range(10)] + [ev(11, "Z")]
        relation = EventRelation(events)
        result = match(pattern, relation, use_filter=False)
        w = relation.window_size(20)
        assert (result.stats.max_simultaneous_instances
                <= pattern_instance_bound(pattern, w))

    def test_case1_stays_flat(self, q1, figure1):
        result = match(q1, figure1, use_filter=False)
        w = figure1.window_size(264)
        assert (result.stats.max_simultaneous_instances
                <= pattern_instance_bound(q1, w))


class TestAnalyze:
    def test_report_contents(self, q1, figure1):
        report = analyze(q1, figure1.window_size(264))
        assert report.window == 14
        assert report.mutually_exclusive
        assert report.cases[0] is ComplexityCase.MUTUALLY_EXCLUSIVE
        assert report.set_bounds == (1, 1)
        assert report.total_bound == 14

    def test_describe(self, q1):
        text = analyze(q1, 100).describe()
        assert "W = 100" in text
        assert "Theorem 1" in text

    def test_describe_large_bounds_compact(self):
        p = SESPattern(sets=[["x+", "y+"]],
                       conditions=["x.L = 'A'", "y.L = 'A'"], tau=10)
        text = analyze(p, 50).describe()
        assert "10^" in text
