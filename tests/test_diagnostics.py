"""Tests for the static pattern linter."""

from repro import SESPattern
from repro.core.diagnostics import diagnose

from conftest import ev, match


def codes(pattern):
    return [d.code for d in diagnose(pattern)]


class TestUnsatisfiableVariable:
    def test_conflicting_constants(self):
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.kind = 'X'", "a.kind = 'Y'"],
            tau=10,
        )
        findings = diagnose(pattern)
        assert findings[0].code == "unsatisfiable-variable"
        assert findings[0].severity == "error"
        assert "a" in findings[0].message

    def test_error_is_truthful(self):
        """An 'error' pattern really never matches."""
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.kind = 'X'", "a.kind = 'Y'"],
            tau=10,
        )
        events = [ev(1, "X"), ev(2, "Y")]
        assert match(pattern, events).matches == []

    def test_range_conflict(self):
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.V < 5", "a.V > 10"],
            tau=10,
        )
        assert "unsatisfiable-variable" in codes(pattern)

    def test_compatible_conditions_clean(self):
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.kind = 'X'", "a.V > 5"],
            tau=10,
        )
        assert "unsatisfiable-variable" not in codes(pattern)


class TestZeroWindowMultiSet:
    def test_flagged(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=0)
        assert "zero-window-multi-set" in codes(pattern)

    def test_error_is_truthful(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=0)
        assert match(pattern, [ev(1, "A"), ev(1, "B")]).matches == []

    def test_single_set_zero_tau_fine(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'", "b.kind = 'B'"],
                             tau=0)
        assert "zero-window-multi-set" not in codes(pattern)


class TestOpenJoinGraph:
    def test_chain_flagged(self):
        pattern = SESPattern(
            sets=[["a", "b", "m"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "m.kind = 'M'",
                        "a.tag = m.tag", "m.tag = b.tag"],
            tau=10,
        )
        finding = [d for d in diagnose(pattern)
                   if d.code == "open-join-graph"][0]
        assert finding.severity == "warning"
        assert "close_equality_joins" in finding.message

    def test_closed_graph_clean(self):
        pattern = SESPattern(
            sets=[["a", "b", "m"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "m.kind = 'M'",
                        "a.tag = m.tag", "m.tag = b.tag", "a.tag = b.tag"],
            tau=10,
        )
        assert "open-join-graph" not in codes(pattern)

    def test_q1_flagged_as_open(self, q1):
        """Q1's joins are a star around c plus d-b: closure is missing
        (c-b, p-d etc.), so the linter flags it — consistent with the
        hijack analysis of the running example."""
        assert "open-join-graph" in codes(q1)


class TestUnconstrainedVariable:
    def test_flagged_as_info(self):
        pattern = SESPattern(sets=[["a", "b"]],
                             conditions=["a.kind = 'A'"], tau=10)
        finding = [d for d in diagnose(pattern)
                   if d.code == "unconstrained-variable"][0]
        assert finding.severity == "info"
        assert "b" in finding.message

    def test_fully_constrained_clean(self, q1):
        assert "unconstrained-variable" not in codes(q1)


class TestHeavySets:
    def test_single_group_flagged(self):
        from repro.data import pattern_p3
        assert "group-in-nonexclusive-set" in codes(pattern_p3())

    def test_multi_group_flagged(self):
        pattern = SESPattern(
            sets=[["p+", "q+"]],
            conditions=["p.kind = 'M'", "q.kind = 'M'"],
            tau=10,
        )
        assert "multiple-groups-in-nonexclusive-set" in codes(pattern)

    def test_exclusive_group_clean(self, q1):
        assert "group-in-nonexclusive-set" not in codes(q1)


class TestOrderingAndRendering:
    def test_errors_first(self):
        pattern = SESPattern(
            sets=[["a"], ["b"]],
            conditions=["a.kind = 'X'", "a.kind = 'Y'"],
            tau=0,
        )
        findings = diagnose(pattern)
        severities = [d.severity for d in findings]
        assert severities == sorted(
            severities, key=["error", "warning", "info"].index)

    def test_str_rendering(self):
        pattern = SESPattern(sets=[["a"], ["b"]],
                             conditions=["a.kind = 'A'"], tau=0)
        rendered = [str(d) for d in diagnose(pattern)]
        assert any(s.startswith("[error]") for s in rendered)

    def test_clean_pattern_minimal_findings(self):
        pattern = SESPattern(
            sets=[["a", "b"], ["c"]],
            conditions=["a.kind = 'A'", "b.kind = 'B'", "c.kind = 'C'"],
            tau=10,
        )
        assert diagnose(pattern) == []
