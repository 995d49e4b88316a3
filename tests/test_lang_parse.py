"""Unit tests for the CrowdSQL lexer and parser."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from lexer_oracle import reference_tokenize

from repro.data.expressions import (
    And,
    Comparison,
    CrowdPredicate,
    InList,
    IsCNull,
    IsNull,
    Not,
    Or,
)
from repro.data.schema import CNULL
from repro.errors import ParseError
from repro.lang.ast_nodes import CreateTable, DropTable, Insert, Select
from repro.lang.lexer import Token, TokenType, tokenize
from repro.lang.parser import parse, parse_one


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM WhErE")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("MyTable")
        assert tokens[0].type is TokenType.IDENTIFIER
        assert tokens[0].value == "MyTable"

    def test_string_with_escape(self):
        tokens = tokenize("'it''s here'")
        assert tokens[0].value == "it's here"

    def test_unterminated_string(self):
        with pytest.raises(ParseError, match="unterminated"):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert tokens[0].value == 42 and isinstance(tokens[0].value, int)
        assert tokens[1].value == pytest.approx(3.14)

    def test_qualified_name_dot_not_float(self):
        tokens = tokenize("t.col")
        values = [(t.type, t.value) for t in tokens[:-1]]
        assert values == [
            (TokenType.IDENTIFIER, "t"),
            (TokenType.PUNCT, "."),
            (TokenType.IDENTIFIER, "col"),
        ]

    def test_operators_normalized(self):
        tokens = tokenize("a <> b != c")
        ops = [t.value for t in tokens if t.type is TokenType.OPERATOR]
        assert ops == ["!=", "!="]

    def test_comments_skipped(self):
        tokens = tokenize("SELECT -- a comment\n1")
        assert [t.value for t in tokens[:-1]] == ["SELECT", 1]

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @")

    def test_line_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    @pytest.mark.parametrize(
        "text, literal",
        [("SELECT ²", "²"), ("SELECT 1.²", "1.²"), ("SELECT 12²3", "12²3")],
    )
    def test_a_digit_int_rejects_is_a_parse_error(self, text, literal):
        """``str.isdigit()`` holds for '²', but ``int()`` and ``float()``
        reject it: the literal is a ParseError at its start, not a crash."""
        with pytest.raises(ParseError) as raised:
            tokenize(text)
        assert (raised.value.line, raised.value.column) == (1, 8)
        assert str(raised.value) == f"invalid number {literal!r} at line 1, column 8"

    def test_unicode_decimal_digits_are_numbers(self):
        assert [t.value for t in tokenize("٣ 1.٣")[:-1]] == [3, 1.3]

    def test_multiline_string_moves_the_line(self):
        tokens = tokenize("x 'a\nbc'  y\n'it''s' z")
        assert [(t.value, t.line, t.column) for t in tokens] == [
            ("x", 1, 1),
            ("a\nbc", 1, 3),
            ("y", 2, 6),
            ("it's", 3, 1),
            ("z", 3, 9),
            (None, 3, 10),
        ]

    def test_multi_row_insert_tokens(self):
        rows = [(1, "ann's café", 2.5), (22, "", 0.125), (333, "''", 10.0)]
        sql = "INSERT INTO t (id, name, score) VALUES " + ", ".join(
            f"({i}, '{name.replace(chr(39), chr(39) * 2)}', {score!r})"
            for i, name, score in rows
        )
        assert sql == (
            "INSERT INTO t (id, name, score) VALUES (1, 'ann''s café', 2.5), "
            "(22, '', 0.125), (333, '''''', 10.0)"
        )
        K, I, N, S, P = (
            TokenType.KEYWORD,
            TokenType.IDENTIFIER,
            TokenType.NUMBER,
            TokenType.STRING,
            TokenType.PUNCT,
        )
        expected = [
            (K, "INSERT", 1), (K, "INTO", 8), (I, "t", 13), (P, "(", 15),
            (I, "id", 16), (P, ",", 18), (I, "name", 20), (P, ",", 24),
            (I, "score", 26), (P, ")", 31), (K, "VALUES", 33),
            (P, "(", 40), (N, 1, 41), (P, ",", 42), (S, "ann's café", 44),
            (P, ",", 57), (N, 2.5, 59), (P, ")", 62), (P, ",", 63),
            (P, "(", 65), (N, 22, 66), (P, ",", 68), (S, "", 70),
            (P, ",", 72), (N, 0.125, 74), (P, ")", 79), (P, ",", 80),
            (P, "(", 82), (N, 333, 83), (P, ",", 86), (S, "''", 88),
            (P, ",", 94), (N, 10.0, 96), (P, ")", 100),
            (TokenType.EOF, None, 101),
        ]
        tokens = tokenize(sql)
        assert [(t.type, t.value, t.column) for t in tokens] == expected
        assert {t.line for t in tokens} == {1}
        assert [type(t.value) for t in tokens if t.type is N] == [int, float] * 3
        assert tokens == [Token(kind, value, 1, column) for kind, value, column in expected]


#: Characters and fragments the scanner treats specially, plus Unicode
#: letters and digits: 'é' is a letter, '²' a digit int() rejects, '٣' a
#: decimal digit, '½' numeric but neither alpha nor a digit.
_LEXER_ALPHABET = [
    *"aZ_ 0189.'\n\t\r-<>=!+*/(),;@",
    "''", "--", "é", "²", "٣", "½", "SELECT", "Y12.34", "1.5",
]


def _lex(scan, text):
    """*scan*'s tokens as ``(type, value, line, column)``, or its error."""
    try:
        return [(t.type, t.value, t.line, t.column) for t in scan(text)]
    except ParseError as error:
        return ("ParseError", str(error), error.line, error.column)
    except ValueError:
        return ("ValueError",)


class TestLexerMatchesReferenceScanner:
    """The slice scanner gives the per-character scanner's tokens, positions
    and errors. The one difference is a fix, tested in :class:`TestLexer`:
    where ``int()``/``float()`` rejects a digit run the reference scanner
    crashes with ValueError and the slice scanner raises ParseError."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(_LEXER_ALPHABET), max_size=40).map("".join))
    @example("Y12.34")  # Y12, then .34
    @example("1.2.3 .5. t.col 7.")
    @example("'open\n-- not a comment'\n-- a comment\nx")
    @example("a<>b<=c>=d!=e!f")
    @example("é½2 ½")
    def test_same_tokens_and_errors(self, text):
        expected = _lex(reference_tokenize, text)
        if expected != ("ValueError",):
            assert _lex(tokenize, text) == expected


class TestCreateParse:
    def test_basic(self):
        stmt = parse_one(
            "CREATE TABLE t (a STRING NOT NULL, b INTEGER, PRIMARY KEY (a))"
        )
        assert isinstance(stmt, CreateTable)
        assert stmt.name == "t"
        assert stmt.columns[0].not_null
        assert stmt.primary_key == ("a",)
        assert not stmt.crowd_table

    def test_crowd_table_and_columns(self):
        stmt = parse_one(
            "CREATE CROWD TABLE t (a TEXT, b FLOAT CROWD, c INT CROWD NOT NULL)"
        )
        assert stmt.crowd_table
        assert stmt.columns[0].type_name == "STRING"
        assert stmt.columns[1].crowd
        assert stmt.columns[2].type_name == "INTEGER" and stmt.columns[2].not_null

    def test_if_not_exists(self):
        stmt = parse_one("CREATE TABLE IF NOT EXISTS t (a STRING)")
        assert stmt.if_not_exists

    def test_unknown_type_rejected(self):
        with pytest.raises(ParseError):
            parse_one("CREATE TABLE t (a BLOB)")


class TestInsertParse:
    def test_multi_row(self):
        stmt = parse_one("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, Insert)
        assert stmt.rows == ((1, "x"), (2, "y"))

    def test_literals(self):
        stmt = parse_one("INSERT INTO t VALUES (NULL, CNULL, TRUE, FALSE, -5, 2.5)")
        assert stmt.rows[0] == (None, CNULL, True, False, -5, 2.5)

    def test_without_columns(self):
        stmt = parse_one("INSERT INTO t VALUES (1)")
        assert stmt.columns == ()


class TestSelectParse:
    def test_star(self):
        stmt = parse_one("SELECT * FROM t")
        assert isinstance(stmt, Select)
        assert stmt.columns == ()

    def test_columns_and_alias(self):
        stmt = parse_one("SELECT a, b FROM t AS x")
        assert stmt.columns == ("a", "b")
        assert stmt.alias == "x"

    def test_qualified_columns_unqualified(self):
        stmt = parse_one("SELECT t.a FROM t")
        assert stmt.columns == ("a",)

    def test_where_tree(self):
        stmt = parse_one("SELECT * FROM t WHERE a > 1 AND (b = 'x' OR NOT c < 2)")
        assert isinstance(stmt.where, And)
        assert isinstance(stmt.where.right, Or)
        assert isinstance(stmt.where.right.right, Not)

    def test_is_null_and_cnull(self):
        stmt = parse_one("SELECT * FROM t WHERE a IS NULL AND b IS NOT CNULL")
        assert isinstance(stmt.where.left, IsNull)
        right = stmt.where.right
        assert isinstance(right, IsCNull) and right.negated

    def test_in_list(self):
        stmt = parse_one("SELECT * FROM t WHERE a IN (1, 2, 3)")
        assert isinstance(stmt.where, InList)
        assert stmt.where.values == (1, 2, 3)

    def test_not_in(self):
        stmt = parse_one("SELECT * FROM t WHERE a NOT IN ('x')")
        assert stmt.where.negated

    def test_crowdequal(self):
        stmt = parse_one("SELECT * FROM t WHERE CROWDEQUAL(a, b)")
        assert isinstance(stmt.where, CrowdPredicate)
        assert stmt.where.kind == "equal"

    def test_crowdfilter_question(self):
        stmt = parse_one("SELECT * FROM t WHERE CROWDFILTER(a, 'is it red?')")
        assert stmt.where.kind == "filter"
        assert stmt.where.question == "is it red?"

    def test_crowdfilter_requires_string(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM t WHERE CROWDFILTER(a, b)")

    def test_order_by(self):
        stmt = parse_one("SELECT * FROM t ORDER BY a DESC LIMIT 5")
        assert stmt.order[0].column == "a" and not stmt.order[0].ascending
        assert stmt.limit == 5

    def test_order_by_multiple_keys(self):
        stmt = parse_one("SELECT * FROM t ORDER BY a DESC, b, c ASC")
        assert [(o.column, o.ascending) for o in stmt.order] == [
            ("a", False), ("b", True), ("c", True),
        ]

    def test_crowdorder_by_defaults_best_first(self):
        stmt = parse_one("SELECT * FROM t CROWDORDER BY a")
        assert stmt.crowd_order.column == "a"
        assert not stmt.crowd_order.ascending

    def test_join(self):
        stmt = parse_one("SELECT * FROM a JOIN b ON x = y")
        assert len(stmt.joins) == 1
        assert not stmt.joins[0].crowd
        assert isinstance(stmt.joins[0].condition, Comparison)

    def test_crowdjoin(self):
        stmt = parse_one("SELECT * FROM a CROWDJOIN b ON CROWDEQUAL(x, y)")
        assert stmt.joins[0].crowd

    def test_distinct(self):
        assert parse_one("SELECT DISTINCT a FROM t").distinct

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM t LIMIT 2.5")

    def test_bare_identifier_is_alias(self):
        # SQL-style implicit alias: FROM t x.
        assert parse_one("SELECT * FROM t wat").alias == "wat"

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM t LIMIT 5 nonsense")

    def test_arithmetic_in_where(self):
        stmt = parse_one("SELECT * FROM t WHERE a + 1 > b * 2")
        row = {"a": 3, "b": 1}
        assert stmt.where.evaluate(row) is True

    def test_parenthesized_expression(self):
        stmt = parse_one("SELECT * FROM t WHERE (a + 1) * 2 = 8")
        assert stmt.where.evaluate({"a": 3}) is True

    def test_unary_minus_expression(self):
        stmt = parse_one("SELECT * FROM t WHERE a = -b")
        assert stmt.where.evaluate({"a": -2, "b": 2}) is True


class TestScript:
    def test_multi_statement(self):
        script = parse("CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x');")
        assert len(script.statements) == 2
        assert isinstance(script.statements[0], CreateTable)
        assert isinstance(script.statements[1], Insert)

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_parse_one_rejects_multi(self):
        with pytest.raises(ParseError):
            parse_one("SELECT * FROM a; SELECT * FROM b")

    def test_drop_variants(self):
        assert isinstance(parse_one("DROP TABLE t"), DropTable)
        assert parse_one("DROP TABLE IF EXISTS t").if_exists

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_one("SELECT *\nFROM")
        assert excinfo.value.line == 2
