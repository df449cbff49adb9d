"""The lambda and typed readers, and the printer, against the recursive,
character-by-character readers and the recursive printer they replaced
(tests/reference_terms.py), and on input nested far past the recursion
limit."""

import re
import sys
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import reference_terms as ref

from modlam.errors import ParseError
from modlam.lam import SIG_LC, Abs, App, gen_term, normalize, parse, show, show_nf, subst, to_scoped
from modlam.terms import bvar, fvar, show_sexpr
from modlam.typed import BASE, Arrow, TAbs, gen_typed_term, parse_stlc


def preorder(t):
    """The nodes of t in preorder: each App as App, each abstraction as
    its class with its binder type, each variable as itself.  A flat
    list, so == compares it without recursing once per level."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            out.append(App)
            todo += (t.arg, t.fun)
        elif isinstance(t, Abs):
            out.append((type(t), getattr(t, "binder_type", None)))
            todo.append(t.body)
        else:
            out.append(t)
    return out


def outcome(f, text):
    """A call's result in preorder, or the type and text of what it raised."""
    try:
        return preorder(f(text))
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return (type(e), str(e))


def assert_agrees(parser, reference, text):
    """parser gives what reference gives, a term or a ParseError text.
    Where the reference runs out of stack, parser returns a term.  Where
    the reference reads a binder name that starts with a lambda, parser
    raises 'expected identifier' at that lambda, as the grammar says."""
    got = outcome(parser, text)
    want = outcome(reference, text)
    if isinstance(want, tuple) and want[0] is RecursionError:
        assert isinstance(got, list), got
    elif got != want:
        assert isinstance(got, tuple) and got[0] is ParseError, (got, want)
        at = int(re.fullmatch(r"parse error at (\d+): expected identifier", got[1])[1])
        assert text[at] == "λ" and text[:at].rstrip()[-1:] in ("\\", "λ"), (got, want)


# Pieces of term text: the grammars' punctuation, names, digits, a name
# with a lambda inside, ASCII and Unicode whitespace, and characters no
# rule takes.
PIECES = (
    "\\", "λ", ".", "(", ")", ":", "*", "->", "-", ">",
    "x", "y", "f", "_", "'", "x'", "xλ", "é", "1", "²", "v0",
    " ", "\t\n", " ", " ", "#", "+",
)
texts = st.lists(st.sampled_from(PIECES) | st.characters(), max_size=24).map("".join)
WHITESPACE = ("", " ", "\t\n", " ", "  ")


@st.composite
def printed(draw, typed):
    """A printed random term, its names drawn from three so that binders
    shadow each other, with whitespace of every kind around its
    punctuation and between its tokens, and maybe a character cut out."""
    rnd = draw(st.randoms(use_true_random=False))
    text = show(gen_typed_term(rnd) if typed else gen_term(rnd, max_size=12))
    text = re.sub(r"[vxyzfghk]\d*", lambda m: rnd.choice("xyz"), text)
    out = []
    for ch in text:
        if ch == " ":
            ch = rnd.choice(WHITESPACE) or " "
        elif ch in "().:\\":
            ch = rnd.choice(WHITESPACE) + ch + rnd.choice(WHITESPACE)
        out.append(ch)
    text = "".join(out)
    if text and rnd.random() < 0.5:
        cut = rnd.randrange(len(text))
        text = text[:cut] + text[cut + 1 :]
    return text


# Nesting that runs the reference out of stack at the default limit.
deep_texts = st.integers(300, 700).flatmap(
    lambda n: st.sampled_from(
        [
            "(" * n + "x" + ")" * n,
            "f (" * n + "x" + ")" * n,
            "\\x. " * n + "x y",
            "\\x:" + "(" * n + "*" + ")" * n + ". x",
            "\\x:" + "* -> " * n + "*. x",
        ]
    )
)

# Term text whose binder names and atoms are names or tokens that are not
# names: both readers must reject the same token, at the same place.
NAME_POSITION_TOKENS = ("x", "y", "v0", "x'", "_", "1x", "'x", "λx", "->", "*")
name_position_texts = st.lists(
    st.sampled_from(("\\{}. ", "λ{}. ", "\\{}:*. ", "{} ", "({} ", ") "))
    .flatmap(lambda piece: st.sampled_from(NAME_POSITION_TOKENS).map(piece.format)),
    min_size=1,
    max_size=8,
).map("".join)


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(texts)
    def test_parse(self, text):
        assert_agrees(parse, ref.parse, text)

    @settings(max_examples=400, deadline=None)
    @given(texts)
    def test_parse_stlc(self, text):
        assert_agrees(parse_stlc, ref.parse_stlc, text)

    @settings(deadline=None)
    @given(printed(typed=False))
    def test_parse_printed(self, text):
        assert_agrees(parse, ref.parse, text)

    @settings(deadline=None)
    @given(printed(typed=True))
    def test_parse_stlc_printed(self, text):
        assert_agrees(parse_stlc, ref.parse_stlc, text)

    @settings(max_examples=20, deadline=None)
    @given(deep_texts)
    def test_past_the_reference_recursion_limit(self, text):
        assert_agrees(parse, ref.parse, text)
        assert_agrees(parse_stlc, ref.parse_stlc, text)

    @settings(max_examples=400, deadline=None)
    @given(name_position_texts)
    def test_tokens_that_are_not_names_at_name_positions(self, text):
        assert_agrees(parse, ref.parse, text)
        assert_agrees(parse_stlc, ref.parse_stlc, text)

    def test_lambda_binder_names_differ_by_design(self):
        assert ref.parse("\\λ. x") == Abs(fvar("x"))
        assert ref.parse("\\λx. y") == Abs(fvar("y"))
        for text in ("\\λ. x", "λ λx. x", "(\\ λ:*. x)"):
            assert_agrees(parse, ref.parse, text)
            assert_agrees(parse_stlc, ref.parse_stlc, text)
        assert parse("\\xλ. xλ") == Abs(bvar(0))


@st.composite
def lambda_terms(draw):
    """A random untyped or typed term, maybe with dangling indices, whose
    free names may be the names the printer gives binders."""
    rnd = draw(st.randoms(use_true_random=False))
    depth = rnd.randrange(3)
    if rnd.random() < 0.5:
        t = gen_term(rnd, max_size=30, depth=depth)
    else:
        t = gen_typed_term(rnd, max_size=30, binders=(BASE,) * depth)
    if rnd.random() < 0.5:
        t = subst({"x": fvar("v0"), "y": fvar("v2")}, t)
    return t


# Free names that the walk's own binder names v0, v1, ... can collide
# with, and indices up to 3, dangling past the binders around them.
clashing_terms = st.recursive(
    st.sampled_from(("v0", "v1", "v2", "v10", "x", "y")).map(fvar) | st.integers(0, 3).map(bvar),
    lambda sub: st.builds(App, sub, sub) | st.builds(Abs, sub) | st.builds(partial(TAbs, BASE), sub),
    max_leaves=12,
)


def show_outcome(printer, t, debruijn):
    try:
        return printer(t, debruijn)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return (type(e), str(e))


class TestShowAgainstReference:
    """The explicit-stack printer prints what the recursive one printed, in
    both modes: binder names that skip the free names, typed binder
    annotations, dangling indices as #k, and the same error."""

    @settings(max_examples=300, deadline=None)
    @given(lambda_terms(), st.booleans())
    def test_show(self, t, debruijn):
        assert show(t, debruijn) == ref.show(t, debruijn)

    @pytest.mark.parametrize("k", range(10))
    def test_church_powers_of_two(self, k):
        # 2^k = (\m. \n. n m) 2 k in normal form; 2^9 nests 514 deep.
        numeral = lambda n: f"(\\f. \\x. {'f (' * n}x{')' * n})"
        nf = normalize(parse(f"(\\m. \\n. n m) {numeral(2)} {numeral(k)}"))
        for debruijn in (False, True):
            assert show_nf(nf, debruijn) == ref.show(nf.term, debruijn)

    @settings(max_examples=500, deadline=None)
    @given(clashing_terms, st.booleans())
    def test_free_names_that_are_binder_names(self, t, debruijn):
        assert show(t, debruijn) == ref.show(t, debruijn)

    def test_only_the_second_walk_avoids_the_clash(self):
        # The first walk names the binders v0 and v1, and v1 is free.
        t = parse("\\a. \\b. v1 a b")
        assert show(t) == ref.show(t) == "\\v0. \\v2. v1 v0 v2"
        assert show(parse("\\a. \\b. v2 a b")) == "\\v0. \\v1. v2 v0 v1"

    @pytest.mark.parametrize(
        "t",
        [
            App(fvar("x"), "y"),
            Abs(None),
            App(Abs(bvar(0)), Abs("v0")),
            "x",
            Abs(App(bvar(-1), bvar(0))),
        ],
    )
    def test_malformed(self, t):
        for debruijn in (False, True):
            assert show_outcome(show, t, debruijn) == show_outcome(ref.show, t, debruijn)


class TestDeepNesting:
    """Both readers keep open binders, parentheses and types on an
    explicit stack, so nesting is bounded by memory; so do the printer
    and the conversion to signature terms."""

    DEPTH = 20_000

    def test_parentheses(self):
        assert self.DEPTH > sys.getrecursionlimit()
        text = "(" * self.DEPTH + "x y" + ")" * self.DEPTH
        assert parse(text) == App(fvar("x"), fvar("y"))
        assert parse_stlc(text) == parse_stlc("x y")

    def test_binders(self):
        text = "".join(f"\\x{k}. " for k in range(self.DEPTH)) + "x0 x1"
        t = App(bvar(self.DEPTH - 1), bvar(self.DEPTH - 2))
        for _ in range(self.DEPTH):
            t = Abs(t)
        assert preorder(parse(text)) == preorder(t)

    def test_right_nested_applications(self):
        text = "f (" * self.DEPTH + "x" + ")" * self.DEPTH
        t = fvar("x")
        for _ in range(self.DEPTH):
            t = App(fvar("f"), t)
        assert preorder(parse(text)) == preorder(t)

    def test_parenthesised_types(self):
        text = "\\x:" + "(" * self.DEPTH + "*" + " -> *)" * self.DEPTH + ". x"
        ty = BASE
        for _ in range(self.DEPTH):
            ty = Arrow(ty, BASE)
        assert parse_stlc(text) == TAbs(ty, bvar(0))

    def test_arrow_chains(self):
        text = "\\x:" + "* -> " * self.DEPTH + "*. x"
        ty = BASE
        for _ in range(self.DEPTH):
            ty = Arrow(BASE, ty)
        assert parse_stlc(text) == TAbs(ty, bvar(0))

    def test_error_position_deep_inside(self):
        text = "(" * self.DEPTH + "x ." + ")" * self.DEPTH
        with pytest.raises(ParseError, match=f"^parse error at {self.DEPTH + 2}: expected '\\)'"):
            parse(text)

    def test_show_binders(self):
        t = bvar(0)
        for _ in range(self.DEPTH):
            t = Abs(t)
        names = [f"v{k}" for k in range(self.DEPTH)]
        assert show(t) == "".join(f"\\{v}. " for v in names) + names[-1]
        assert show(t, debruijn=True) == "λ. " * self.DEPTH + "0"

    def test_show_typed_binders_and_a_dangling_index(self):
        t = App(bvar(self.DEPTH), bvar(self.DEPTH - 1))
        for _ in range(self.DEPTH):
            t = TAbs(BASE, t)
        assert show(t).endswith(". #0 v0")
        assert show(t).startswith("\\v0:*. \\v1:*. ")

    @pytest.mark.parametrize("nested", ["right", "left"])
    def test_show_applications(self, nested):
        t = fvar("x")
        for _ in range(self.DEPTH):
            t = App(fvar("f"), t) if nested == "right" else App(t, fvar("y"))
        if nested == "right":
            assert show(t) == "f (" * (self.DEPTH - 1) + "f x" + ")" * (self.DEPTH - 1)
        else:
            assert show(t) == "x" + " y" * self.DEPTH

    def test_to_scoped(self):
        t = parse("\\x. " * self.DEPTH + "f (" * self.DEPTH + "x" + ")" * self.DEPTH)
        want = "(abs " * self.DEPTH + "(app f " * self.DEPTH + "#0" + ")" * (2 * self.DEPTH)
        assert show_sexpr(SIG_LC, to_scoped(t)) == want
