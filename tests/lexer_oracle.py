"""The per-character CrowdSQL scanner, kept as a test oracle.

:func:`repro.lang.lexer.tokenize` consumes slices; this is the scanner it
replaced, which advanced one character per call. ``tests/test_lang_parse.py``
checks that the two agree on tokens, positions and errors, apart from digit
runs such as ``'²'`` that ``int()`` rejects: there this scanner raises
``ValueError``, the slice scanner ``ParseError``.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ParseError
from repro.lang.lexer import KEYWORDS, Token, TokenType

_OPERATORS = ("<=", ">=", "!=", "<>", "=", "<", ">", "+", "-", "*", "/")
_PUNCT = "(),.;"


def reference_tokenize(text: str) -> list[Token]:
    """Scan *text* one character at a time (the reference scanner)."""
    tokens: list[Token] = []
    line = 1
    column = 1
    i = 0
    n = len(text)

    def advance(count: int) -> None:
        nonlocal i, line, column
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "-" and i + 1 < n and text[i + 1] == "-":  # line comment
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, column
        if ch == "'":
            # SQL string literal with '' escape.
            advance(1)
            chunks: list[str] = []
            while True:
                if i >= n:
                    raise ParseError("unterminated string literal", start_line, start_col)
                if text[i] == "'":
                    if i + 1 < n and text[i + 1] == "'":
                        chunks.append("'")
                        advance(2)
                        continue
                    advance(1)
                    break
                chunks.append(text[i])
                advance(1)
            tokens.append(Token(TokenType.STRING, "".join(chunks), start_line, start_col))
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # A dot not followed by a digit is punctuation (t.col).
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            literal = text[i:j]
            value: Any = float(literal) if "." in literal else int(literal)
            advance(j - i)
            tokens.append(Token(TokenType.NUMBER, value, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            advance(j - i)
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, upper, start_line, start_col))
            else:
                tokens.append(Token(TokenType.IDENTIFIER, word, start_line, start_col))
            continue
        matched_operator = None
        for op in _OPERATORS:
            if text.startswith(op, i):
                matched_operator = op
                break
        if matched_operator:
            advance(len(matched_operator))
            normalized = "!=" if matched_operator == "<>" else matched_operator
            tokens.append(Token(TokenType.OPERATOR, normalized, start_line, start_col))
            continue
        if ch in _PUNCT:
            advance(1)
            tokens.append(Token(TokenType.PUNCT, ch, start_line, start_col))
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)

    tokens.append(Token(TokenType.EOF, None, line, column))
    return tokens
