"""Tests for the PERMUTE query language (lexer, parser, compiler)."""

import pytest

from repro.core.variables import group, var
from repro.lang import (CompileError, LexError, ParseError, compile_query,
                        parse, parse_pattern, tokenize)
from repro.lang.tokens import TokenType


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("pattern Permute THEN where AND within")
        values = [t.value for t in tokens[:-1]]
        assert values == ["PATTERN", "PERMUTE", "THEN", "WHERE", "AND",
                          "WITHIN"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_case_sensitive(self):
        tokens = tokenize("Price price")
        assert [t.value for t in tokens[:-1]] == ["Price", "price"]

    def test_numbers(self):
        tokens = tokenize("264 3.5")
        assert tokens[0].value == 264 and isinstance(tokens[0].value, int)
        assert tokens[1].value == 3.5 and isinstance(tokens[1].value, float)

    def test_string_single_and_double_quotes(self):
        tokens = tokenize("'abc' \"xyz\"")
        assert tokens[0].value == "abc"
        assert tokens[1].value == "xyz"

    def test_string_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_newline_in_string(self):
        with pytest.raises(LexError):
            tokenize("'a\nb'")

    def test_operators(self):
        tokens = tokenize("= != <> < <= > >=")
        values = [t.value for t in tokens[:-1]]
        assert values == ["=", "!=", "!=", "<", "<=", ">", ">="]

    def test_punctuation(self):
        tokens = tokenize("( ) , . +")
        types = [t.type for t in tokens[:-1]]
        assert types == [TokenType.LPAREN, TokenType.RPAREN, TokenType.COMMA,
                         TokenType.DOT, TokenType.PLUS]

    def test_comments_stripped(self):
        tokens = tokenize("a -- comment here\nb")
        assert [t.value for t in tokens[:-1]] == ["a", "b"]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_unexpected_character(self):
        with pytest.raises(LexError) as info:
            tokenize("a @ b")
        assert info.value.line == 1

    def test_always_ends_with_eof(self):
        assert tokenize("").pop().type is TokenType.EOF


class TestParser:
    def test_minimal_query(self):
        query = parse("PATTERN a WITHIN 10")
        assert len(query.sets) == 1
        assert not query.sets[0].explicit_permute
        assert query.duration.magnitude == 10

    def test_permute_group(self):
        query = parse("PATTERN PERMUTE(a, b+, c) WITHIN 5")
        variables = query.sets[0].variables
        assert [v.name for v in variables] == ["a", "b", "c"]
        assert [v.quantified for v in variables] == [False, True, False]

    def test_then_sequence(self):
        query = parse("PATTERN PERMUTE(a, b) THEN c THEN PERMUTE(d) WITHIN 5")
        assert len(query.sets) == 3

    def test_where_conditions(self):
        query = parse("PATTERN a WHERE a.L = 'C' AND a.V > 3 WITHIN 5")
        assert len(query.conditions) == 2
        assert query.conditions[0].op == "="
        assert query.conditions[1].op == ">"

    def test_condition_between_attributes(self):
        query = parse("PATTERN PERMUTE(a, b) WHERE a.ID = b.ID WITHIN 5")
        cond = query.conditions[0]
        assert cond.left.variable == "a"
        assert cond.right.variable == "b"

    def test_group_variable_in_condition(self):
        query = parse("PATTERN PERMUTE(p+) WHERE p+.L = 'P' WITHIN 5")
        assert query.conditions[0].left.variable == "p"

    def test_duration_units(self):
        assert parse("PATTERN a WITHIN 2 DAYS").duration.in_hours() == 48
        assert parse("PATTERN a WITHIN 30 MINUTES").duration.in_hours() == 0.5
        assert parse("PATTERN a WITHIN 264 HOURS").duration.in_hours() == 264
        assert parse("PATTERN a WITHIN 264").duration.in_hours() == 264

    def test_missing_pattern_keyword(self):
        with pytest.raises(ParseError):
            parse("PERMUTE(a) WITHIN 5")

    def test_missing_within(self):
        with pytest.raises(ParseError):
            parse("PATTERN a")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("PATTERN a WITHIN 5 extra")

    def test_unclosed_permute(self):
        with pytest.raises(ParseError):
            parse("PATTERN PERMUTE(a, b WITHIN 5")

    def test_condition_left_literal_rejected(self):
        with pytest.raises(ParseError):
            parse("PATTERN a WHERE 5 = a.V WITHIN 5")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse("PATTERN a WHERE a.V WITHIN 5")
        assert info.value.line is not None


class TestCompiler:
    def test_q1_equivalence(self, q1):
        text = """
            PATTERN PERMUTE(c, p+, d) THEN b
            WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B'
              AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
            WITHIN 264 HOURS
        """
        assert parse_pattern(text) == q1

    def test_days_unit(self, q1):
        text = """
            PATTERN PERMUTE(c, p+, d) THEN b
            WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B'
              AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
            WITHIN 11 DAYS
        """
        assert parse_pattern(text).tau == 264

    def test_group_quantifier_preserved(self):
        pattern = parse_pattern("PATTERN PERMUTE(a, b+) WITHIN 5")
        assert pattern.variable("b") == group("b")
        assert pattern.variable("a") == var("a")

    def test_constants_typed(self):
        pattern = parse_pattern(
            "PATTERN a WHERE a.V = 3 AND a.W = 3.5 AND a.L = 'x' WITHIN 5")
        values = [c.right.value for c in pattern.conditions]
        assert values == [3, 3.5, "x"]

    def test_duplicate_variable_rejected(self):
        with pytest.raises(CompileError):
            parse_pattern("PATTERN PERMUTE(a, b) THEN a WITHIN 5")

    def test_undeclared_variable_in_condition(self):
        with pytest.raises(CompileError) as info:
            parse_pattern("PATTERN a WHERE z.L = 'C' WITHIN 5")
        assert "z" in str(info.value)

    def test_compile_error_from_pattern_validation(self):
        # Negative durations are caught at the SESPattern layer; the
        # lexer has no unary minus so craft the query via the AST.
        from repro.lang.ast import DurationNode, QueryNode, SetNode, VariableNode
        query = QueryNode(
            sets=[SetNode([VariableNode("a", False)])],
            conditions=[],
            duration=DurationNode(-5),
        )
        with pytest.raises(CompileError):
            compile_query(query)

    def test_matches_same_results_as_manual_pattern(self, figure1, q1):
        from conftest import match
        text = """
            PATTERN PERMUTE(c, p+, d) THEN b
            WHERE c.L = 'C' AND p.L = 'P' AND d.L = 'D' AND b.L = 'B'
              AND c.ID = p.ID AND c.ID = d.ID AND d.ID = b.ID
            WITHIN 264
        """
        assert (match(parse_pattern(text), figure1).matches
                == match(q1, figure1).matches)
