"""Tests for rendering patterns back to PERMUTE query text."""

from repro import SESPattern
from repro.lang import parse_pattern, render_pattern


def round_trips(pattern: SESPattern) -> bool:
    return parse_pattern(render_pattern(pattern)) == pattern


class TestRenderPattern:
    def test_q1(self, q1):
        text = render_pattern(q1)
        assert text.startswith("PATTERN PERMUTE(c, d, p+) THEN PERMUTE(b)")
        assert text.endswith("WITHIN 264")
        assert round_trips(q1)

    def test_no_conditions(self):
        pattern = SESPattern(sets=[["a"]], tau=5)
        assert render_pattern(pattern) == "PATTERN PERMUTE(a) WITHIN 5"
        assert round_trips(pattern)

    def test_string_with_quote_escaped(self):
        # Quote escaping is a lexer feature; build through the language.
        pattern = parse_pattern("PATTERN a WHERE a.name = 'it''s' WITHIN 5")
        assert pattern.conditions[0].right.value == "it's"
        text = render_pattern(pattern)
        assert "'it''s'" in text
        assert round_trips(pattern)

    def test_numeric_constants(self):
        pattern = SESPattern(
            sets=[["a"]],
            conditions=["a.x = 5", "a.y >= 2.5", "a.z != 0"],
            tau=7,
        )
        text = render_pattern(pattern)
        assert "a.x = 5" in text
        assert "a.y >= 2.5" in text
        assert round_trips(pattern)

    def test_all_operators_round_trip(self):
        conditions = [f"a.v {op} 1" for op in ("=", "!=", "<", "<=", ">", ">=")]
        pattern = SESPattern(sets=[["a"]], conditions=conditions, tau=1)
        assert round_trips(pattern)

    def test_two_variable_conditions(self):
        pattern = SESPattern(
            sets=[["a", "b"]],
            conditions=["a.x < b.y"],
            tau=3,
        )
        assert "a.x < b.y" in render_pattern(pattern)
        assert round_trips(pattern)

    def test_group_variables_rendered_with_plus(self):
        pattern = SESPattern(sets=[["p+", "q"]], tau=2)
        text = render_pattern(pattern)
        assert "PERMUTE(p+, q)" in text
        assert round_trips(pattern)

    def test_multi_set_order_preserved(self):
        pattern = SESPattern(sets=[["z"], ["a"]], tau=4)
        text = render_pattern(pattern)
        assert text.index("PERMUTE(z)") < text.index("PERMUTE(a)")
        assert round_trips(pattern)
