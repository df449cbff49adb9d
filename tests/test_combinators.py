import random

import pytest

from modlam.combinators import (
    PT,
    PT_WITNESS,
    Plus,
    PVar,
    Times,
    base_change,
    constant_module,
    derive,
    double_and_swap,
    eval_morphism,
    identity_morphism,
    product,
    pt_bind,
    second_derivative_inclusions,
    show_pt,
)
from modlam.errors import ConfigError
from modlam.harness import (
    Counterexample,
    MonadMorphism,
    check_linearity,
    check_module_laws,
    check_monad_laws,
    check_monad_morphism,
    tautological_module,
)
from modlam.lam import LC, NF, Abs, App, normalize, parse, subst
from modlam.lists import LIST
from modlam.terms import fvar

from faulty_instances import naive_prime_monad
from reference_terms import lam_free_names


def taut_lc():
    return tautological_module(LC)


def normalize_morphism(fuel=10_000):
    return MonadMorphism("normalize", LC, NF, lambda t: normalize(t, fuel))


class TestDerive:
    def test_marker_is_reserved(self):
        d = derive(taut_lc())
        assert d.fresh_markers == ("*0",)
        dd = derive(d)
        assert dd.fresh_markers == ("*0", "*1")

    def test_action_protects_marker(self):
        d = derive(taut_lc())
        v = App(fvar("*0"), fvar("y"))
        out = d.mbind({"*0": fvar("q"), "y": parse("\\z. z")}, v)
        assert out == App(fvar("*0"), parse("\\z. z"))

    def test_generator_exercises_marker(self):
        d = derive(taut_lc())
        seen = False
        for i in range(40):
            if "*0" in lam_free_names(d.gen_value(random.Random(i))):
                seen = True
                break
        assert seen

    def test_module_laws(self):
        assert check_module_laws(derive(taut_lc()), samples=200, seed=0).passed

    def test_derived_constant_is_constant(self):
        d = derive(constant_module(LC))
        assert d.mbind({"x": fvar("y")}, "point") == "point"


class TestSecondDerivative:
    def test_inclusions(self):
        inner, outer = second_derivative_inclusions(taut_lc())
        v = App(fvar("*0"), fvar("y"))
        assert inner(v) == v
        assert outer(v) == App(fvar("*1"), fvar("y"))

    def test_inclusions_are_linear(self):
        inner, outer = second_derivative_inclusions(taut_lc())
        first = derive(taut_lc())
        second = derive(first)
        for name, tau in (("inner", inner), ("outer", outer)):
            report = check_linearity(first, second, tau, samples=200, seed=0, name=name)
            assert report.passed, report.format()


class TestEval:
    def test_fills_the_fresh_slot(self):
        ev = eval_morphism(taut_lc())
        v = App(fvar("*0"), fvar("y"))
        assert ev((v, fvar("z"))) == App(fvar("z"), fvar("y"))

    def test_is_linear(self):
        base = taut_lc()
        ev = eval_morphism(base)
        src = product(derive(base), base)
        report = check_linearity(src, base, ev, samples=200, seed=0, name="eval")
        assert report.passed, report.format()


class TestProduct:
    def test_componentwise_action(self):
        p = product(taut_lc(), taut_lc())
        out = p.mbind({"x": fvar("y")}, (fvar("x"), fvar("z")))
        assert out == (fvar("y"), fvar("z"))

    def test_needs_shared_monad(self):
        with pytest.raises(ConfigError):
            product(taut_lc(), tautological_module(LIST))

    def test_module_laws(self):
        assert check_module_laws(product(taut_lc(), taut_lc()), samples=200, seed=0).passed

    def test_projections_are_linear(self):
        p = product(taut_lc(), taut_lc())
        for name, tau in (("fst", lambda v: v[0]), ("snd", lambda v: v[1])):
            report = check_linearity(p, taut_lc(), tau, samples=200, seed=0, name=name)
            assert report.passed


class TestConstant:
    def test_module_laws(self):
        assert check_module_laws(constant_module(LC), samples=50, seed=0).passed


class TestBaseChange:
    def test_identity_is_pointwise_identity(self):
        bc = base_change(identity_morphism(LC), taut_lc())
        for i in range(100):
            rng = random.Random(i)
            s = LC.gen_subst(rng)
            t = LC.gen_value(rng)
            assert bc.mbind(s, t) == subst(s, t)

    def test_dst_must_match(self):
        with pytest.raises(ConfigError):
            base_change(identity_morphism(LIST), taut_lc())

    def test_rejects_non_morphisms(self):
        # Base change is data: it builds along any map, and the morphism
        # squares are check_monad_morphism's to check.
        collapse = MonadMorphism("collapse", LC, LC, lambda t: fvar("x"))
        assert base_change(collapse, taut_lc()).monad is LC
        report = check_monad_morphism(collapse, samples=64, seed=0)
        assert not report.passed
        check = report.check("morphism-unit")
        assert check.counterexample == Counterexample("sample 0", (("name", "y"),), "x", "y")

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "morphism",
        [
            identity_morphism(LC),
            MonadMorphism("collapse", LC, LC, lambda t: fvar("x")),
            MonadMorphism("abs", naive_prime_monad(), LC, Abs),
        ],
        ids=lambda f: f.name,
    )
    def test_morphism_bind_is_linearity_into_the_pullback(self, morphism, seed):
        # morphism-bind is the linearity square of f.map from src acting on
        # itself into dst acting on itself pulled back along f.  The sweeps
        # are keyed apart, so only the verdicts can agree.
        f = morphism
        bind = check_monad_morphism(f, samples=200, seed=seed).check("morphism-bind")
        square = check_linearity(
            tautological_module(f.src),
            base_change(f, tautological_module(f.dst)),
            f.map,
            samples=200,
            seed=seed,
        ).check("linearity")
        assert (bind.counterexample is None) == (square.counterexample is None)
        assert (bind.counterexample is None) == (f.name != "abs")

    def test_normalize_is_a_monad_morphism(self):
        report = check_monad_morphism(normalize_morphism(), samples=150, seed=0)
        assert report.passed, report.format()

    def test_pulled_back_module_laws(self):
        bc = base_change(normalize_morphism(), tautological_module(NF))
        assert bc.monad.name == "lc"
        report = check_module_laws(bc, samples=150, seed=0)
        assert report.passed, report.format()

    def test_normalize_is_linear_into_the_pullback(self):
        # The induced map from the calculus acting on itself into the
        # pulled-back normal forms commutes with both actions.
        bc = base_change(normalize_morphism(), tautological_module(NF))
        report = check_linearity(
            taut_lc(), bc, lambda t: normalize(t, 10_000), samples=150, seed=0
        )
        assert report.passed, report.format()


class TestPlusTimes:
    def test_bind_is_homomorphic(self):
        s = {"x": Plus(PVar("y"), PVar("z"))}
        out = pt_bind(s, Times(PVar("x"), PVar("x")))
        assert out == Times(Plus(PVar("y"), PVar("z")), Plus(PVar("y"), PVar("z")))

    def test_monad_laws(self):
        assert check_monad_laws(PT, samples=300, seed=0).passed

    def test_double_and_swap_oracles(self):
        x, y = PVar("x"), PVar("y")
        assert double_and_swap(x) == Plus(x, x)
        assert double_and_swap(Plus(x, y)) == Times(Plus(x, x), Plus(y, y))
        assert double_and_swap(Times(x, y)) == Plus(Plus(x, x), Plus(y, y))

    def test_witness(self):
        # Substitute first: n((x*x)) = (x+x)+(x+x).  Transform first:
        # n(x)[x -> x*x] = (x*x)+(x*x).  The two sides disagree.
        s, t = PT_WITNESS
        x = PVar("x")
        lhs = double_and_swap(pt_bind(s, t))
        rhs = pt_bind(s, double_and_swap(t))
        assert lhs == Plus(Plus(x, x), Plus(x, x))
        assert rhs == Plus(Times(x, x), Times(x, x))
        assert lhs != rhs

    def test_harness_finds_the_witness(self):
        taut = tautological_module(PT)
        report = check_linearity(
            taut,
            taut,
            double_and_swap,
            samples=100,
            seed=0,
            probes=(PT_WITNESS,),
            name="double-and-swap",
        )
        ce = report.check("double-and-swap").counterexample
        assert ce is not None
        assert ce.where == "probe 0"
        assert ce.lhs == "x+x+(x+x)"
        assert ce.rhs == "x*x+x*x"

    def test_show_minimal_parens(self):
        x, y, z = PVar("x"), PVar("y"), PVar("z")
        assert show_pt(Plus(x, Times(y, z))) == "x+y*z"
        assert show_pt(Times(Plus(x, y), z)) == "(x+y)*z"
        assert show_pt(Plus(Plus(x, x), Plus(x, x))) == "x+x+(x+x)"
        assert show_pt(Times(x, Times(y, z))) == "x*(y*z)"
