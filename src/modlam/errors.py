"""Exception types shared across the package."""

from __future__ import annotations


class ConfigError(Exception):
    """A descriptor or combinator was assembled from incompatible parts."""


class MalformedTermError(Exception):
    """A term does not conform to its signature."""


class ParseError(Exception):
    """A located syntax error in one of the term grammars."""

    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at {position}: {message}")
        self.message = message
        self.position = position


class TypeCheckError(Exception):
    """A typing or sorting violation, with a location where available."""
