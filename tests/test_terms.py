import random

import pytest
from hypothesis import given, strategies as st

from modlam.errors import ConfigError, MalformedTermError, ParseError
from modlam.terms import (
    Op,
    Representation,
    Signature,
    bvar,
    fold,
    free_names,
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
        assert (substitute(SIG, s, t) is t) == free_names(t).isdisjoint(s)

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
        env = {name: fvar(name) for name in free_names(t)}
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
