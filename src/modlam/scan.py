"""Scanning helpers shared by the recursive-descent term grammars.

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


def _name_end(text: str, pos: int) -> int:
    # End of the run of identifier characters (alphanumerics, '_', "'").
    n = len(text)
    while pos < n and (text[pos].isalnum() or text[pos] in "_'"):
        pos += 1
    return pos


def ident(text: str, pos: int) -> tuple[str, int]:
    """An identifier: a letter or '_', then identifier characters."""
    if pos >= len(text) or not (text[pos].isalpha() or text[pos] == "_"):
        raise ParseError("expected identifier", pos)
    end = _name_end(text, pos + 1)
    return text[pos:end], end


def word(text: str, pos: int) -> tuple[str, int]:
    """A nonempty run of identifier characters, which may start with a
    digit (the s-expression grammar's names)."""
    end = _name_end(text, pos)
    if end == pos:
        raise ParseError("expected identifier", pos)
    return text[pos:end], end


def nat(text: str, pos: int, message: str) -> tuple[int, int]:
    """A run of digits right at pos (no whitespace skipped)."""
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ParseError(message, pos)
    return int(text[pos:end]), end


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
