import copy
import dataclasses
import pickle
import random
import re
import sys
import types
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import reference_terms as ref

from modlam.errors import ConfigError, MalformedTermError, ParseError
from modlam.terms import (
    Bound,
    Free,
    Op,
    Representation,
    Signature,
    Var,
    _shift,
    bvar,
    fold,
    fvar,
    parse_sexpr,
    parse_signature,
    rename,
    self_representation,
    show_sexpr,
    substitute,
    well_scoped,
)

SIG = Signature((("app", (0, 0)), ("abs", (1,))))
APP, ABS = 0, 1

# A signature with constants and a flat binary operator, for fold tests.
SUM = Signature((("one", ()), ("plus", (0, 0))))


def format_signature(sig: Signature) -> str:
    """The signature file text that parse_signature reads back."""
    return "".join(f"{name}: [{', '.join(map(str, arity))}]\n" for name, arity in sig.ops)


def app(f, a):
    return Op(APP, (f, a))


def abs_(b):
    return Op(ABS, (b,))


NAMES = ("x", "y", "z")


def scoped_terms(depth=0, size=3):
    leaf = st.builds(fvar, st.sampled_from(NAMES))
    if depth:
        leaf = leaf | st.builds(bvar, st.integers(0, depth - 1))
    if size <= 0:
        return leaf
    return (
        leaf
        | st.builds(app, scoped_terms(depth, size - 1), scoped_terms(depth, size - 1))
        | st.builds(abs_, scoped_terms(depth + 1, size - 1))
    )


def substs(size=2):
    return st.dictionaries(st.sampled_from(NAMES), scoped_terms(0, size), max_size=3)


class TestBoundVariables:
    def test_small_indices_share_one_object(self):
        for k in (0, 1, 2, 63):
            assert bvar(k) is bvar(k)
            assert bvar(k) == Var(Bound(k))

    def test_negative_index_is_built_not_looked_up(self):
        # Indexing a table with -1 would silently give its last entry.
        assert bvar(-1).ref.index == -1
        assert bvar(-2) == Var(Bound(-2))

    def test_index_past_the_table_is_built(self):
        assert bvar(64) == Var(Bound(64))
        assert bvar(699) == Var(Bound(699))
        assert bvar(10**6).ref.index == 10**6


class TestSignature:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            Signature((("f", ()), ("f", (0,))))

    def test_negative_arity_rejected(self):
        with pytest.raises(ConfigError):
            Signature((("f", (-1,)),))

    def test_out_of_range_operator(self):
        with pytest.raises(MalformedTermError):
            SIG.arity(5)

    def test_file_roundtrip(self):
        text = format_signature(SIG)
        assert parse_signature(text) == SIG

    def test_file_comments_and_blanks(self):
        sig = parse_signature("# the lambda signature\napp: [0, 0]\n\nabs: [1]  # one binder\n")
        assert sig == SIG

    def test_file_constants(self):
        sig = parse_signature("one: []\nplus: [0, 0]\n")
        assert sig == SUM

    def test_file_errors(self):
        with pytest.raises(ParseError):
            parse_signature("app [0, 0]")
        with pytest.raises(ParseError):
            parse_signature("app: 0, 0")


class TestSexpr:
    def test_parse(self):
        assert parse_sexpr(SIG, "(app x #0)") == app(fvar("x"), bvar(0))
        assert parse_sexpr(SIG, "(abs (app #0 y))") == abs_(app(bvar(0), fvar("y")))

    def test_show(self):
        t = abs_(app(bvar(0), fvar("y")))
        assert show_sexpr(SIG, t) == "(abs (app #0 y))"

    def test_unknown_operator(self):
        with pytest.raises(ParseError):
            parse_sexpr(SIG, "(mu x)")

    def test_wrong_argument_count(self):
        with pytest.raises(ParseError):
            parse_sexpr(SIG, "(app x)")

    def test_constant(self):
        assert parse_sexpr(SUM, "(one)") == Op(0, ())
        assert show_sexpr(SUM, Op(0, ())) == "(one)"

    @given(scoped_terms())
    def test_roundtrip(self, t):
        assert parse_sexpr(SIG, show_sexpr(SIG, t)) == t


class TestSubstitute:
    def test_under_binder(self):
        # {y -> abs #0} applied to abs (app #0 y): the closed image needs
        # no adjustment when it moves under the binder.
        s = {"y": abs_(bvar(0))}
        t = abs_(app(bvar(0), fvar("y")))
        assert substitute(SIG, s, t) == abs_(app(bvar(0), abs_(bvar(0))))

    def test_identity_default(self):
        t = app(fvar("x"), fvar("y"))
        assert substitute(SIG, {}, t) == t

    def test_shares_untouched_subterms(self):
        t = app(abs_(app(bvar(0), fvar("x"))), abs_(fvar("y")))
        assert substitute(SIG, {}, t) is t
        assert substitute(SIG, {"z": fvar("w")}, t) is t
        out = substitute(SIG, {"y": fvar("w")}, t)
        assert out == app(abs_(app(bvar(0), fvar("x"))), abs_(fvar("w")))
        assert out.args[0] is t.args[0]

    @given(substs(), scoped_terms())
    def test_shares_exactly_what_it_leaves_alone(self, s, t):
        assert (substitute(SIG, s, t) is t) == ref.free_names(t).isdisjoint(s)

    @given(scoped_terms(1))
    def test_shifted_image_shares_exactly_what_it_leaves_alone(self, img):
        # Under one binder the image is shifted: it is placed as it is
        # exactly when no index of it dangles.
        out = substitute(SIG, {"y": img}, abs_(fvar("y")))
        assert (out.args[0] is img) == well_scoped(SIG, img)

    def test_bound_variables_untouched(self):
        t = abs_(bvar(0))
        assert substitute(SIG, {"x": fvar("y")}, t) == t

    def test_surplus_arguments_rejected(self):
        # substitute raises what fold raises instead of dropping the surplus;
        # an image moved under a binder meets the malformed node in the shift.
        x, y, z = fvar("x"), fvar("y"), fvar("z")
        wide = Op(APP, (x, y, z))
        message = "operator app expects 2 arguments, got 3"
        with pytest.raises(MalformedTermError, match=message):
            fold(self_representation(SIG), wide, env={"x": x, "y": y, "z": z})
        with pytest.raises(MalformedTermError, match=message):
            substitute(SIG, {}, wide)
        with pytest.raises(MalformedTermError, match=message):
            substitute(SIG, {"y": abs_(wide)}, abs_(fvar("y")))
        with pytest.raises(MalformedTermError, match="expects 2 arguments, got 1"):
            substitute(SIG, {}, abs_(Op(APP, (x,))))

    def test_rename_and_show_reject_surplus_arguments(self):
        # Both raise what substitute raises, instead of passing the node on.
        x, y, z = fvar("x"), fvar("y"), fvar("z")
        wide = Op(APP, (x, y, z))
        message = "operator app expects 2 arguments, got 3"
        with pytest.raises(MalformedTermError, match=message):
            rename(SIG, {"x": "w"}, wide)
        with pytest.raises(MalformedTermError, match=message):
            show_sexpr(SIG, abs_(wide))
        with pytest.raises(MalformedTermError, match="expects 1 arguments, got 0"):
            show_sexpr(SIG, Op(ABS, ()))

    @given(substs(), scoped_terms())
    def test_preserves_scoping(self, s, t):
        assert well_scoped(SIG, substitute(SIG, s, t))

    @given(
        st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES), max_size=3),
        scoped_terms(),
    )
    def test_rename_is_substitution_by_variables(self, f, t):
        # renaming = bind (unit . f)
        via_subst = substitute(SIG, {k: fvar(v) for k, v in f.items()}, t)
        assert rename(SIG, f, t) == via_subst

    @given(substs(), substs(), scoped_terms())
    def test_associativity(self, f, g, t):
        # (t[f])[g] = t[x -> f(x)[g]]
        lhs = substitute(SIG, g, substitute(SIG, f, t))
        comp = {k: substitute(SIG, g, v) for k, v in f.items()}
        for k, v in g.items():
            comp.setdefault(k, v)
        assert lhs == substitute(SIG, comp, t)


class TestFold:
    def test_self_representation_is_identity_example(self):
        t = abs_(app(bvar(0), fvar("y")))
        assert fold(self_representation(SIG), t, env={"y": fvar("y")}) == t

    @given(scoped_terms())
    def test_self_representation_is_identity(self, t):
        env = {name: fvar(name) for name in ref.free_names(t)}
        assert fold(self_representation(SIG), t, env=env) == t

    def test_sum_oracle(self):
        # (plus (plus one one) one) evaluates to 3 under one=1, plus=+.
        rep = Representation(SUM, (lambda: 1, lambda a, b: a + b))
        t = Op(1, (Op(1, (Op(0, ()), Op(0, ()))), Op(0, ())))
        assert fold(rep, t, env={}) == 3

    def test_sum_with_env(self):
        rep = Representation(SUM, (lambda: 1, lambda a, b: a + b))
        t = Op(1, (fvar("x"), Op(0, ())))
        assert fold(rep, t, env={"x": 5}) == 6

    def test_env_must_be_total(self):
        rep = Representation(SUM, (lambda: 1, lambda a, b: a + b))
        with pytest.raises(ConfigError):
            fold(rep, fvar("x"), env={})

    def test_bound_needs_bound_value(self):
        rep = Representation(SIG, (lambda a, b: a, lambda b: b))
        with pytest.raises(ConfigError):
            fold(rep, abs_(bvar(0)), env={})

    def test_representation_arity_mismatch(self):
        with pytest.raises(ConfigError):
            Representation(SIG, (lambda a, b: a,))

    def test_malformed_argument_count(self):
        rep = self_representation(SIG)
        with pytest.raises(MalformedTermError):
            fold(rep, Op(APP, (fvar("x"),)), env={"x": fvar("x")})


class TestScopeCheck:
    def test_examples(self):
        assert well_scoped(SIG, abs_(bvar(0)))
        assert not well_scoped(SIG, bvar(0))
        assert well_scoped(SIG, bvar(0), depth=1)
        assert not well_scoped(SIG, Op(APP, (fvar("x"),)))

    def test_operator_out_of_range_is_not_well_scoped(self):
        # As a wrong argument count is, and a non-term: False, not an error.
        assert not well_scoped(SIG, Op(5, ()))
        assert not well_scoped(SIG, Op(-1, (fvar("x"),)))
        assert not well_scoped(SIG, abs_(Op(len(SIG), ())))
        assert not well_scoped(SIG, "x")


# The generic-subst benchmark's second signature, beside the lambda one.
RICH = Signature(
    (
        ("let", (0, 1)),
        ("letrec", (2, 2)),
        ("pair", (0, 0)),
        ("case", (0, 1, 1)),
        ("lam2", (2,)),
        ("fix", (1,)),
        ("unit", ()),
    )
)

# Pieces of s-expression text: the grammar's punctuation, ASCII and
# non-ASCII digits, ASCII and Unicode whitespace, identifier characters,
# names, the operator names of both signatures, and characters no rule takes.
PIECES = (
    "(", ")", "#", "0", "1", "7", "42", "²", "١", "１", "٣",
    " ", "\t", "\n", "\u00a0", "\u2003", "'", "_", "x", "y", "é", "x1",
    "app", "abs", "let", "letrec", "pair", "case", "lam2", "fix", "unit", "mu",
    "+", ".", "\\",
)
sexpr_texts = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
WHITESPACE = ("", " ", "\t\n", "\u00a0", "\u2003 ")
TERMS = scoped_terms(size=4)


@st.composite
def spaced_texts(draw):
    """A printed term with whitespace of every kind around its parentheses
    and between its tokens, and maybe a character cut out."""
    text = ref.show_sexpr(SIG, draw(TERMS))
    rnd = draw(st.randoms(use_true_random=False))
    out = []
    for ch in text:
        if ch == " ":
            ch = rnd.choice(WHITESPACE) or " "
        elif ch in "()":
            ch = rnd.choice(WHITESPACE) + ch + rnd.choice(WHITESPACE)
        out.append(ch)
    text = "".join(out)
    if text and rnd.random() < 0.5:
        cut = rnd.randrange(len(text))
        text = text[:cut] + text[cut + 1 :]
    return text


def reads_non_ascii_index(text):
    """Whether the reference parser would read a non-ASCII digit into an
    index: it scans the index after '#' with str.isdigit."""
    for m in re.finditer("#", text):
        j = m.end()
        while j < len(text) and text[j].isdigit():
            if not text[j].isascii():
                return True
            j += 1
    return False


def outcome(f, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return (type(e), str(e))


class TestAgainstReference:
    """The tokenizing, explicit-stack reader and printer and the
    isinstance fold give what the recursive versions in
    tests/reference_terms.py give, errors and positions included."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([SIG, RICH]), sexpr_texts)
    def test_parse(self, sig, text):
        if reads_non_ascii_index(text):
            # The grammar's index is ASCII [0-9]+: whatever the reference
            # does with such a text, the parser raises only ParseError.
            try:
                parse_sexpr(sig, text)
            except ParseError:
                pass
            return
        got = outcome(parse_sexpr, sig, text)
        assert got == outcome(ref.parse_sexpr, sig, text)
        if isinstance(got, (Op, Var)):
            assert show_sexpr(sig, got) == ref.show_sexpr(sig, got)

    @settings(deadline=None)
    @given(spaced_texts())
    def test_parse_spaced(self, text):
        got = outcome(parse_sexpr, SIG, text)
        assert got == outcome(ref.parse_sexpr, SIG, text)

    @given(TERMS)
    def test_show(self, t):
        assert show_sexpr(SIG, t) == ref.show_sexpr(SIG, t)

    @pytest.mark.parametrize(
        "t",
        [
            Op(APP, (fvar("x"),)),
            Op(ABS, (fvar("x"), fvar("y"))),
            Op(2, ()),
            Op(-1, (fvar("x"),)),
            app(fvar("x"), "y"),
            app(Op(APP, (fvar("x"),)), Op(7, ())),
            Var("x"),
            abs_(Var(None)),
        ],
    )
    def test_malformed(self, t):
        assert outcome(show_sexpr, SIG, t) == outcome(ref.show_sexpr, SIG, t)
        rep = self_representation(SIG)
        env = {"x": fvar("x"), "y": fvar("y")}
        assert outcome(fold, rep, t, env) == outcome(ref.fold, rep, t, env)

    @given(TERMS, st.data())
    def test_fold(self, t, data):
        # Two targets: the syntax itself and strings; each with an env
        # (total or not) and with a monad's unit on free names.
        shown = Representation(
            SIG,
            (lambda f, a: f"[{f} {a}]", lambda b: f"<{b}>"),
            bound_value=lambda k: f"b{k}",
            monad=SimpleNamespace(unit=str.upper),
        )
        syntax = Representation(SIG, self_representation(SIG).ops, bvar, SimpleNamespace(unit=fvar))
        env = data.draw(st.dictionaries(st.sampled_from(NAMES), st.sampled_from(NAMES)))
        for rep in (shown, syntax):
            assert outcome(fold, rep, t, env) == outcome(ref.fold, rep, t, env)
            assert outcome(fold, rep, t) == outcome(ref.fold, rep, t)
        no_bound = Representation(SIG, shown.ops)
        assert outcome(fold, no_bound, t, env) == outcome(ref.fold, no_bound, t, env)

    def test_index_is_ascii_digits(self):
        # Where the reference reads non-ASCII digits into an index, and
        # differs by design (tests/test_parse_errors.py pins the errors).
        assert outcome(ref.parse_sexpr, SIG, "#²")[0] is ValueError
        assert ref.parse_sexpr(SIG, "#１２") == bvar(12)
        # A non-ASCII digit after an index starts a name, as a letter does.
        assert outcome(ref.parse_sexpr, SIG, "(app #0²)")[0] is ValueError
        assert parse_sexpr(SIG, "(app #0²)") == app(bvar(0), fvar("²"))
        assert parse_sexpr(SIG, "(app #0x)") == app(bvar(0), fvar("x"))

    def test_regex_classes_are_the_string_predicates(self):
        # The tokenizer relies on \w being str.isalnum() or '_' and \s
        # being str.isspace(), for every code point.
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\w", chars) == [c for c in chars if c.isalnum() or c == "_"]
        assert re.findall(r"\s", chars) == [c for c in chars if c.isspace()]


class TestDeepNesting:
    """Parse and print run on an explicit stack, far past the recursion
    limit.  Terms are compared as printed strings, which a failing
    assertion can show: the dataclass repr of a term recurses."""

    DEPTH = 20_000

    @pytest.mark.parametrize(
        "text",
        [
            "(abs " * DEPTH + "#0" + ")" * DEPTH,
            "(app " * DEPTH + "x" + " y)" * DEPTH,
            "(app x " * DEPTH + "y" + ")" * DEPTH,
        ],
        ids=["binders", "left spine", "right spine"],
    )
    def test_parse_then_show(self, text):
        assert self.DEPTH > sys.getrecursionlimit()
        assert show_sexpr(SIG, parse_sexpr(SIG, text)) == text

    def test_show_built_term(self):
        t = fvar("x")
        for _ in range(self.DEPTH):
            t = app(t, bvar(0))
        assert show_sexpr(SIG, t) == "(app " * self.DEPTH + "x" + " #0)" * self.DEPTH

    def test_error_position_deep_inside(self):
        text = "(abs " * self.DEPTH + "(foo x)" + ")" * self.DEPTH
        with pytest.raises(ParseError, match=f"^parse error at {5 * self.DEPTH + 1}: unknown"):
            parse_sexpr(SIG, text)

    def nested(self, body, depth=DEPTH):
        return "(abs " * depth + body + ")" * depth

    def test_substitute(self):
        t = parse_sexpr(SIG, self.nested("(app x y)"))
        got = substitute(SIG, {"x": parse_sexpr(SIG, "(abs (app #0 z))")}, t)
        assert show_sexpr(SIG, got) == self.nested("(app (abs (app #0 z)) y)")
        assert substitute(SIG, {"z": fvar("w")}, t) is t

    def test_rename(self):
        t = parse_sexpr(SIG, "(app x " * self.DEPTH + "(abs (app #0 y))" + ")" * self.DEPTH)
        want = "(app w " * self.DEPTH + "(abs (app #0 x))" + ")" * self.DEPTH
        assert show_sexpr(SIG, rename(SIG, {"x": "w", "y": "x"}, t)) == want

    def test_fold_along_self_representation(self):
        text = self.nested("(app " * self.DEPTH + "#0" + " x)" * self.DEPTH)
        t = parse_sexpr(SIG, text)
        assert show_sexpr(SIG, fold(self_representation(SIG), t, {"x": fvar("x")})) == text

    def test_well_scoped(self):
        deepest = self.DEPTH - 1
        assert well_scoped(SIG, parse_sexpr(SIG, self.nested(f"(app #{deepest} x)")))
        assert not well_scoped(SIG, parse_sexpr(SIG, self.nested(f"(app x #{self.DEPTH})")))

    def test_shift_of_an_image_with_a_dangling_index(self):
        # The image is 20000 binders deep with an index past them all;
        # placed under 20000 more binders it is shifted by 20000.
        t = parse_sexpr(SIG, self.nested("x"))
        image = parse_sexpr(SIG, self.nested(f"(app #{self.DEPTH} z)"))
        got = substitute(SIG, {"x": image}, t)
        want = self.nested(f"(app #{2 * self.DEPTH} z)", 2 * self.DEPTH)
        assert show_sexpr(SIG, got) == want
        shifted = self.nested(f"(app #{2 * self.DEPTH} z)")
        assert show_sexpr(SIG, _shift(SIG, image, self.DEPTH, 0)) == shifted


# ---------- the walks against the recursive ones they replaced ----------


def seeded_term(rng, sig, budget, depth=0, dangling=False, malformed=0.0):
    """A random term over sig of about budget nodes.  With dangling, a
    bound index may point past the binders around it; with malformed,
    each node is, with that probability, an operator with an argument
    too few, an operator index out of range, or a leaf that is no term."""
    if malformed and rng.random() < malformed:
        kind = rng.randrange(3)
        if kind == 0:
            op = rng.randrange(len(sig))
            return Op(op, tuple(fvar("x") for _ in sig.arity(op)[1:]))
        if kind == 1:
            return Op(len(sig), (fvar("x"),))
        return rng.choice(["x", Var("x"), Var(None), None])
    if budget <= 1 or rng.random() < 0.2:
        if (depth or dangling) and rng.random() < 0.5:
            return bvar(rng.randrange(depth + 2 if dangling else depth))
        return fvar(rng.choice(NAMES + ("w",)))
    op = rng.randrange(len(sig))
    arity = sig.arity(op)
    return Op(op, tuple(
        seeded_term(rng, sig, (budget - 1) // max(len(arity), 1), depth + n, dangling, malformed)
        for n in arity
    ))


def sharing(t, u):
    """Whether each node of u is the very node of t at the same place, in
    preorder, down to the first node that is not; a flat list, so ==
    compares it without recursing."""
    out, todo = [], [(t, u)]
    while todo:
        t, u = todo.pop()
        out.append(t is u)
        if t is not u and isinstance(t, Op) and isinstance(u, Op) and len(t.args) == len(u.args):
            todo += zip(reversed(t.args), reversed(u.args))
    return out


def seeded_cases(count):
    """(signature, term, substitution, rng) over SIG and RICH; a third of
    the terms and a fifth of the images have malformed nodes."""
    for seed in range(count):
        rng = random.Random(seed)
        sig = (SIG, RICH)[seed % 2]
        malformed = 0.05 if seed % 3 == 0 else 0.0
        t = seeded_term(rng, sig, rng.randrange(1, 60), dangling=seed % 4 == 1, malformed=malformed)
        s = {
            name: seeded_term(
                rng, sig, rng.randrange(1, 8), dangling=rng.random() < 0.3,
                malformed=0.1 if rng.random() < 0.2 else 0.0,
            )
            for name in NAMES if rng.random() < 0.6
        }
        yield sig, t, s, rng


def substitute_under(sig, s, t, depth):
    """substitute as it acts under `depth` binder slots: t wrapped in that
    many nodes of sig's one-slot binder, substituted, and unwrapped."""
    binder = next(op for op in range(len(sig)) if sig.arity(op) == (1,))
    for _ in range(depth):
        t = Op(binder, (t,))
    out = substitute(sig, s, t)
    for _ in range(depth):
        out = out.args[0]
    return out


class TestWalksAgainstReference:
    """The explicit-stack walks give what the recursive ones in
    tests/reference_terms.py give: the same result, the same subterms
    shared with the input, and the same error for the first bad node."""

    CASES = 1500

    def assert_same(self, walk, reference, t, *args):
        got = outcome(walk, *args)
        want = outcome(reference, *args)
        assert got == want
        if isinstance(want, (Op, Var)):
            assert sharing(t, got) == sharing(t, want)

    def test_substitute(self):
        for sig, t, s, rng in seeded_cases(self.CASES):
            depth = rng.randrange(3)
            self.assert_same(substitute_under, ref.substitute, t, sig, s, t, depth)

    def test_rename(self):
        for sig, t, s, rng in seeded_cases(self.CASES):
            f = {name: rng.choice(NAMES) for name in s}
            want = outcome(ref.substitute, sig, {a: fvar(b) for a, b in f.items()}, t)
            got = outcome(rename, sig, f, t)
            assert got == want
            if isinstance(want, (Op, Var)):
                assert sharing(t, got) == sharing(t, want)

    def test_shift(self):
        for sig, t, s, rng in seeded_cases(self.CASES):
            by, cutoff = rng.randrange(-1, 4), rng.randrange(3)
            self.assert_same(_shift, ref._shift, t, sig, t, by, cutoff)

    def test_well_scoped(self):
        for sig, t, s, rng in seeded_cases(self.CASES):
            depth = rng.randrange(3)
            assert well_scoped(sig, t, depth) == ref.well_scoped(sig, t, depth)

    def test_nothing_mapped_shares_the_term(self):
        for sig, t, s, rng in seeded_cases(self.CASES):
            if ref.well_scoped(sig, t, 2):
                assert substitute_under(sig, {"v": fvar("u")}, t, 2) is t
                assert _shift(sig, t, 3, 2) is t

    def test_malformed_cases_occur(self):
        raised = [
            outcome(substitute, sig, s, t)
            for sig, t, s, rng in seeded_cases(self.CASES)
        ]
        messages = {r[1].split(":")[0] for r in raised if isinstance(r, tuple)}
        assert any("expects" in m for m in messages)
        assert "operator index 2 out of signature range" in messages
        assert "not a term" in messages


class TestOpNode:
    """Op is a frozen dataclass whose fields live in __slots__, with no
    __dict__ slot: building a node creates no instance dict, and
    everything else a frozen dataclass gives stays as it was."""

    T = Op(1, (fvar("x"), bvar(0)))

    def test_fields_equality_and_hash(self):
        assert (self.T.op, self.T.args) == (1, (fvar("x"), bvar(0)))
        assert self.T == Op(1, (fvar("x"), bvar(0)))
        assert self.T != Op(0, (fvar("x"), bvar(0)))
        assert hash(self.T) == hash((1, (fvar("x"), bvar(0))))
        assert Op.__eq__(self.T, (1, self.T.args)) is NotImplemented

    def test_fields_are_slots_and_there_is_no_dict(self):
        assert Op.__slots__ == ("op", "args")
        assert all(isinstance(getattr(Op, f), types.MemberDescriptorType) for f in Op.__slots__)
        with pytest.raises(TypeError):
            vars(Op(0, ()))

    def test_frozen(self):
        for name in ("op", "args"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(self.T, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(self.T, name)
        assert (self.T.op, self.T.args) == (1, (fvar("x"), bvar(0)))

    def test_repr(self):
        assert repr(self.T) == (
            "Op(op=1, args=(Var(ref=Free(name='x')), Var(ref=Bound(index=0))))"
        )

    def test_copy_and_pickle(self):
        for other in (copy.copy(self.T), copy.deepcopy(self.T), pickle.loads(pickle.dumps(self.T))):
            assert type(other) is Op and other == self.T and other is not self.T
            assert (other.op, other.args) == (1, self.T.args)

    def test_replace_and_keywords(self):
        assert dataclasses.replace(self.T, op=0) == Op(0, self.T.args)
        assert Op(args=(), op=2) == Op(2, ())
        assert [f.name for f in dataclasses.fields(Op)] == ["op", "args"]

    def test_match(self):
        match self.T:
            case Op(op, (Var(Free(name)), _)):
                assert (op, name) == (1, "x")
            case _:
                pytest.fail("Op(op, args) did not match")


def rebuilt(rng, t, keep=0.0):
    """A copy of t with fresh operator nodes, each subterm kept as the
    very object with probability keep; leaves are shared."""
    if not isinstance(t, Op) or rng.random() < keep:
        return t
    return Op(t.op, tuple(rebuilt(rng, a, keep) for a in t.args))


def changed_leaf(rng, t):
    """t with one leaf, chosen at random, replaced by another leaf."""
    if not isinstance(t, Op) or not t.args:
        return rng.choice([fvar("w"), bvar(7), None, Var("w"), fvar("x")])
    k = rng.randrange(len(t.args))
    return Op(t.op, t.args[:k] + (changed_leaf(rng, t.args[k]),) + t.args[k + 1:])


class TestOpEquality:
    """Op compares by one stack walk, terms._same_op; the recursive
    dataclass equality it had (reference_terms.op_eq) is its oracle."""

    def test_agrees_with_the_dataclass_equality(self):
        seen = set()
        for sig, t, s, rng in seeded_cases(1500):
            kind = rng.choice(("copy", "shared", "leaf", "other"))
            if kind == "copy":
                u = rebuilt(rng, t)
            elif kind == "shared":
                u = rebuilt(rng, t, keep=0.3)
            elif kind == "leaf":
                u = changed_leaf(rng, rebuilt(rng, t))
            else:
                u = s.get("x", fvar("x"))
            expected = ref.op_eq(t, u)
            assert ref.op_eq(u, t) == expected
            assert (t == u) == expected and (u == t) == expected, (kind, t, u)
            assert (t != u) == (not expected)
            if expected:
                assert hash(t) == hash(u)
            seen.add((kind, expected))
        assert seen >= {("copy", True), ("shared", True), ("leaf", True), ("leaf", False)}
        assert ("other", False) in seen

    def test_fixed_rows(self):
        x = fvar("x")
        rows = [
            (Op(0, (x, x)), Op(0, (x, Var(Free("x")))), True),
            (Op(0, (x, x)), Op(1, (x, x)), False),
            (Op(0, (x,)), Op(0, (x, x)), False),
            (Op(0, ()), Op(0, ()), True),
            (Op(0, (None, "junk")), Op(0, (None, "".join("junk"))), True),
            (Op(0, (Op(1, (x,)),)), Op(0, (x,)), False),
            (Op(0, (x,)), x, False),
        ]
        for a, b, expected in rows:
            assert ref.op_eq(a, b) == expected
            assert (a == b) == expected and (b == a) == expected, (a, b)

    def test_a_non_term_operand(self):
        for other in (None, "(abs #0)", 3, (1, ()), [Op(1, ())]):
            assert Op.__eq__(Op(1, ()), other) is NotImplemented
            assert not Op(1, ()) == other and Op(1, ()) != other

    @pytest.mark.parametrize("depth", (300, 2000, 20_000))
    @pytest.mark.parametrize(
        "nest",
        [abs_, lambda t: app(t, fvar("y")), lambda t: app(fvar("y"), t)],
        ids=["binders", "left spine", "right spine"],
    )
    def test_deep_terms(self, depth, nest):
        def build(leaf):
            t = leaf
            for _ in range(depth):
                t = nest(t)
            return t

        t, u, v = build(fvar("x")), build(fvar("x")), build(fvar("z"))
        assert t == u and u == t and not t != u
        assert t != v and v != t and not t == v
