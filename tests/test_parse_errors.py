"""Every ParseError site of the five term grammars and of signature
files, each pinned by one malformed input: the asserted text carries
both the message and the reported position."""

import pytest

from modlam.combinators import parse_pt
from modlam.errors import ParseError
from modlam.lam import SIG_LC, parse
from modlam.terms import fvar, parse_sexpr, parse_signature
from modlam.typed import parse_stlc, parse_tlist


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
    # typed terms
    (parse_stlc, "\\:*. x", "parse error at 1: expected identifier"),
    (parse_stlc, "\\x:(* -> *. x", "parse error at 10: expected ')'"),
    (parse_stlc, "\\x:. x", "parse error at 3: expected a type"),
    (parse_stlc, "\\x:* -> . x", "parse error at 8: expected a type"),
    (parse_stlc, "\\x. x", "parse error at 2: expected ':' after binder"),
    (parse_stlc, "\\x:* x", "parse error at 5: expected '.' after binder type"),
    (parse_stlc, "(x", "parse error at 2: expected ')'"),
    (parse_stlc, "x )", "parse error at 2: trailing input"),
    # sorted lists
    (parse_tlist, "@0", "parse error at 0: expected identifier"),
    (parse_tlist, "x@ 0", "parse error at 2: expected a sort"),
    (parse_tlist, "x", "parse error at 1: expected '@sort'"),
    (parse_tlist, "cons x", "parse error at 5: expected '(' after cons"),
    (parse_tlist, "cons(x@0 nil@0)", "parse error at 9: expected ','"),
    (parse_tlist, "cons(x@0, nil@0", "parse error at 15: expected ')'"),
    (parse_tlist, "nil@0 x", "parse error at 6: trailing input"),
    # plus/times
    (parse_pt, "x+", "parse error at 2: expected identifier"),
    (parse_pt, "(x+y", "parse error at 4: expected ')'"),
    (parse_pt, "x y", "parse error at 2: trailing input"),
    # s-expressions
    (sexpr, "   ", "parse error at 3: unexpected end of input"),
    (sexpr, "#x", "parse error at 1: expected index after '#'"),
    (sexpr, "( )", "parse error at 2: expected identifier"),
    (sexpr, ")", "parse error at 0: expected identifier"),
    (sexpr, "(foo x)", "parse error at 1: unknown operator 'foo'"),
    (sexpr, "(app x y", "parse error at 8: expected ')'"),
    (sexpr, "(app x)", "parse error at 1: operator 'app' expects 2 arguments, got 1"),
    (sexpr, "x y", "parse error at 2: trailing input"),
    # signature files (the position is the line number)
    (parse_signature, "app [0, 0]", "parse error at 1: missing ':' on line 1"),
    (parse_signature, "1app: [0]", "parse error at 1: bad operator name '1app' on line 1"),
    (parse_signature, "app: 0, 0", "parse error at 1: expected [..] arity on line 1"),
    (parse_signature, "app: [0]\nabs: [a]", "parse error at 2: bad arity on line 2"),
]


@pytest.mark.parametrize(
    "parser, text, message", CASES, ids=[f"{p.__name__}:{t!r}" for p, t, _ in CASES]
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
    # A sort follows its '@' with no space; whitespace may precede the '@'.
    assert parse_tlist("nil @1") == parse_tlist("nil@1")
