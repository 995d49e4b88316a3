"""Tokenizer for the CrowdSQL dialect.

Hand-written scanner producing a flat token stream; it consumes each
token, whitespace run and comment as one slice (see :func:`tokenize`).
Keywords are case-insensitive; identifiers preserve case. String
literals use single quotes with ``''`` as the escape, SQL-style.
"""

from __future__ import annotations

import enum
import re
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.errors import ParseError


class TokenType(enum.Enum):
    """Lexical categories produced by the scanner."""

    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    EOF = "eof"


KEYWORDS = {
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IS", "IN", "NULL",
    "CNULL", "CREATE", "CROWD", "TABLE", "DROP", "INSERT", "INTO", "VALUES",
    "ORDER", "BY", "ASC", "DESC", "LIMIT", "JOIN", "ON", "AS", "PRIMARY",
    "KEY", "STRING", "INTEGER", "FLOAT", "BOOLEAN", "TEXT", "INT", "TRUE",
    "FALSE", "CROWDEQUAL", "CROWDORDER", "CROWDFILTER", "CROWDJOIN",
    "IF", "EXISTS", "GROUP", "COUNT", "DISTINCT", "STAR",
    "SUM", "AVG", "MIN", "MAX", "HAVING", "UPDATE", "SET", "DELETE",
    "EXPLAIN",
}

#: Operator text -> token value (``<>`` is normalized to ``!=``). The
#: scanner looks up the next two characters, then the next one.
_OPERATORS = {
    "<=": "<=", ">=": ">=", "!=": "!=", "<>": "!=",
    "=": "=", "<": "<", ">": ">", "+": "+", "-": "-", "*": "*", "/": "/",
}
_PUNCT = "(),.;"

_WHITESPACE = re.compile(r"[ \t\r\n]+").match
#: ``\w`` is exactly ``str.isalnum()`` or ``_``, the characters a word continues on.
_WORD = re.compile(r"\w*").match
_ASCII_DIGITS = re.compile(r"[0-9]*").match


@dataclass(frozen=True)
class Token:
    type: TokenType
    value: Any
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        """True if this token is one of the named keywords."""
        return self.type is TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:
        return f"Token({self.type.value}, {self.value!r}, {self.line}:{self.column})"


def _digit_run(text: str, i: int) -> int:
    """End of the ``str.isdigit()`` run that starts at *i*.

    ASCII digits go in one regex step; any other digit (``'²'``, ``'٣'``)
    is stepped over on its own, so the run is exactly what a per-character
    ``isdigit()`` scan would take.
    """
    j = _ASCII_DIGITS(text, i).end()
    n = len(text)
    while j < n and text[j].isdigit():
        j = _ASCII_DIGITS(text, j + 1).end()
    return j


def tokenize(text: str) -> list[Token]:
    """Scan *text* into tokens (always ending with an EOF token).

    Each token, whitespace run and comment is consumed as one slice: words
    and runs by compiled patterns, strings and comments by ``str.find``.
    A token's line is the number of newlines before it plus one, its column
    its distance from the last of them. Character classes are Python's: a
    word starts on ``isalpha()`` or ``_`` and continues on ``isalnum()`` or
    ``_``; a number is a run of ``isdigit()`` characters with at most one
    ``.`` that a digit follows (so ``Y12.34`` is ``Y12`` then ``.34``). A
    digit run that ``int()`` or ``float()`` rejects, such as ``'²'``,
    raises :class:`ParseError` at its start, as any other bad input does.
    """
    tokens: list[Token] = []
    append = tokens.append
    line = 1
    line_start = 0  # index just past the last newline consumed
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            j = _WHITESPACE(text, i).end()
            newlines = text.count("\n", i, j)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", i, j) + 1
            i = j
            continue
        column = i - line_start + 1
        if ch in _PUNCT:
            if ch != "." or i + 1 >= n or not text[i + 1].isdigit():
                append(Token(TokenType.PUNCT, ch, line, column))
                i += 1
                continue
        elif ch == "'":
            # SQL string literal with '' escape.
            end = i
            while True:
                end = text.find("'", end + 1)
                if end < 0:
                    raise ParseError("unterminated string literal", line, column)
                if not text.startswith("'", end + 1):
                    break
                end += 1  # an escaped quote: step over its second half
            append(Token(TokenType.STRING, text[i + 1 : end].replace("''", "'"), line, column))
            newlines = text.count("\n", i, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", i, end) + 1
            i = end + 1
            continue
        elif ch == "-" and i + 1 < n and text[i + 1] == "-":  # line comment
            end = text.find("\n", i)
            i = n if end < 0 else end
            continue
        if ch.isalpha() or ch == "_":
            j = _WORD(text, i + 1).end()
            word = text[i:j]
            upper = word.upper()
            if upper in KEYWORDS:
                append(Token(TokenType.KEYWORD, upper, line, column))
            else:
                append(Token(TokenType.IDENTIFIER, word, line, column))
            i = j
            continue
        if ch.isdigit() or ch == ".":  # a "." here has a digit after it
            j = _digit_run(text, i)
            if j + 1 < n and text[j] == "." and text[j + 1].isdigit():
                j = _digit_run(text, j + 1)
            literal = text[i:j]
            try:
                value: Any = float(literal) if "." in literal else int(literal)
            except ValueError:
                raise ParseError(f"invalid number {literal!r}", line, column) from None
            append(Token(TokenType.NUMBER, value, line, column))
            i = j
            continue
        pair = text[i : i + 2]
        if pair in _OPERATORS:
            append(Token(TokenType.OPERATOR, _OPERATORS[pair], line, column))
            i += len(pair)
        elif ch in _OPERATORS:
            append(Token(TokenType.OPERATOR, _OPERATORS[ch], line, column))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)

    append(Token(TokenType.EOF, None, line, n - line_start + 1))
    return tokens


def iter_statements(tokens: list[Token]) -> Iterator[list[Token]]:
    """Split a token stream on top-level semicolons (each chunk + EOF)."""
    current: list[Token] = []
    for token in tokens:
        if token.type is TokenType.EOF:
            break
        if token.type is TokenType.PUNCT and token.value == ";":
            if current:
                current.append(Token(TokenType.EOF, None, token.line, token.column))
                yield current
                current = []
            continue
        current.append(token)
    if current:
        last = current[-1]
        current.append(Token(TokenType.EOF, None, last.line, last.column))
        yield current
