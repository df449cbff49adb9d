"""Scanning helpers shared by the lambda and typed term grammars.

Each helper takes the text and a position and returns the position it
scanned to (with the scanned value where there is one), so a parser
keeps its position in one local variable and no lexer object stands
between it and the text.
"""

from __future__ import annotations

from .errors import ParseError


def skip_ws(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    return pos


def ident(text: str, pos: int) -> tuple[str, int]:
    """An identifier: a letter or '_', then identifier characters
    (alphanumerics, '_' and "'")."""
    n = len(text)
    if pos >= n or not (text[pos].isalpha() or text[pos] == "_"):
        raise ParseError("expected identifier", pos)
    end = pos + 1
    while end < n and (text[end].isalnum() or text[end] in "_'"):
        end += 1
    return text[pos:end], end


def expect(text: str, pos: int, token: str, message: str) -> int:
    """Skip whitespace, then require token; the position after it."""
    pos = skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ParseError(message, pos)
    return pos + len(token)


def end_of_input(text: str, pos: int) -> None:
    """Only whitespace may follow pos."""
    pos = skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input", pos)
