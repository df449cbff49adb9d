"""Every ParseError site of the three term grammars and of signature
files, each pinned by one malformed input: the asserted text carries
both the message and the reported position."""

import pytest

from modlam.errors import ParseError
from modlam.lam import SIG_LC, parse
from modlam.terms import fvar, parse_sexpr, parse_signature
from modlam.typed import parse_stlc


def sexpr(text):
    return parse_sexpr(SIG_LC, text)


CASES = [
    # lambda terms
    (parse, "\\ . x", "parse error at 2: expected identifier"),
    (parse, ")", "parse error at 0: expected identifier"),
    (parse, "", "parse error at 0: expected identifier"),
    (parse, "\\x x", "parse error at 3: expected '.' after binder"),
    (parse, "x (y", "parse error at 4: expected ')'"),
    (parse, "x )", "parse error at 2: trailing input"),
    (parse, "\\λ. x", "parse error at 1: expected identifier"),
    # typed terms
    (parse_stlc, "\\:*. x", "parse error at 1: expected identifier"),
    (parse_stlc, "\\x:(* -> *. x", "parse error at 10: expected ')'"),
    (parse_stlc, "\\x:. x", "parse error at 3: expected a type"),
    (parse_stlc, "\\x:* -> . x", "parse error at 8: expected a type"),
    (parse_stlc, "\\x. x", "parse error at 2: expected ':' after binder"),
    (parse_stlc, "\\x:* x", "parse error at 5: expected '.' after binder type"),
    (parse_stlc, "(x", "parse error at 2: expected ')'"),
    (parse_stlc, "x )", "parse error at 2: trailing input"),
    # s-expressions
    (sexpr, "   ", "parse error at 3: unexpected end of input"),
    (sexpr, "#x", "parse error at 1: expected index after '#'"),
    (sexpr, "#²", "parse error at 1: expected index after '#'"),
    (sexpr, "#１２", "parse error at 1: expected index after '#'"),
    (sexpr, "#" + "1" * 4301, "parse error at 0: index too large"),
    (sexpr, "( )", "parse error at 2: expected identifier"),
    (sexpr, ")", "parse error at 0: expected identifier"),
    (sexpr, "(foo x)", "parse error at 1: unknown operator 'foo'"),
    (sexpr, "(app x y", "parse error at 8: expected ')'"),
    (sexpr, "(app x)", "parse error at 1: operator 'app' expects 2 arguments, got 1"),
    (sexpr, "x y", "parse error at 2: trailing input"),
    # signature files (the position is the line number)
    (parse_signature, "app [0, 0]", "parse error at 1: missing ':' on line 1"),
    (parse_signature, "1app: [0]", "parse error at 1: bad operator name '1app' on line 1"),
    # names that are identifiers but no single token of the s-expression grammar
    (parse_signature, "a·b: [0]", "parse error at 1: bad operator name 'a·b' on line 1"),
    (parse_signature, "app: [0, 0]\nx\u0301: [1]", "parse error at 2: bad operator name 'x\u0301' on line 2"),
    (parse_signature, "℘: []", "parse error at 1: bad operator name '℘' on line 1"),
    (parse_signature, "app: 0, 0", "parse error at 1: expected [..] arity on line 1"),
    (parse_signature, "app: [0]\nabs: [a]", "parse error at 2: bad arity on line 2"),
    # binder counts are ASCII digits: int() alone takes each of these
    (parse_signature, "a: [1_0]", "parse error at 1: bad arity on line 1"),
    (parse_signature, "a: [+1]", "parse error at 1: bad arity on line 1"),
    (parse_signature, "a: [\u0663]", "parse error at 1: bad arity on line 1"),
    (parse_signature, "app: [0, 0]\na: [-1]", "parse error at 2: bad arity on line 2"),
]


@pytest.mark.parametrize(
    "parser, text, message", CASES, ids=[f"{p.__name__}:{t!r:.40}" for p, t, _ in CASES]
)
def test_parse_error(parser, text, message):
    with pytest.raises(ParseError) as exc:
        parser(text)
    assert str(exc.value) == message


def test_grammar_differences():
    # s-expression identifiers may start with a digit; lambda ones may not.
    assert sexpr("1x") == fvar("1x")
    with pytest.raises(ParseError):
        parse("1x")


def test_the_bare_message_and_position_make_the_text():
    # A caller that relocates an error (modlam subst --map) passes
    # e.message on with its own position, taking no text apart.
    for parser, text, shown in CASES:
        with pytest.raises(ParseError) as exc:
            parser(text)
        e = exc.value
        assert (f"parse error at {e.position}: {e.message}", e.message) == (
            shown, shown.split(": ", 1)[1]
        ), text
