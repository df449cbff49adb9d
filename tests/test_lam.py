import pytest
from hypothesis import given, strategies as st

from modlam.errors import ConfigError, MalformedTermError, ParseError
from modlam.fuel import Fuel, FuelExhausted
from modlam.harness import (
    MonadMorphism,
    check_module_laws,
    check_monad_laws,
    check_monad_morphism,
    compose_subst,
)
from modlam.lam import (
    LC,
    NF,
    SIG_LC,
    Abs,
    App,
    Equivalence,
    NfTerm,
    beta_eta_equiv,
    beta_step,
    eta_step,
    free_names,
    from_scoped,
    gen_normal,
    gen_term,
    iota_fold,
    nf_abs,
    nf_app1,
    nf_bind,
    nf_monad,
    normalize,
    parse,
    preorder_leq,
    scope_derived_lc_module,
    scope_derived_nf_module,
    shift,
    show,
    show_nf,
    step_successors,
    subst,
    subst0,
    to_scoped,
    uses_bound,
)
from modlam.terms import Op, Var, bvar, fvar, parse_sexpr, well_scoped

from faulty_instances import naive_prime_monad

NAMES = ("x", "y", "z")


def lc_terms(depth=0, size=3):
    leaf = st.builds(fvar, st.sampled_from(NAMES))
    if depth:
        leaf = leaf | st.builds(bvar, st.integers(0, depth - 1))
    if size <= 0:
        return leaf
    return (
        leaf
        | st.builds(App, lc_terms(depth, size - 1), lc_terms(depth, size - 1))
        | st.builds(Abs, lc_terms(depth + 1, size - 1))
    )


def lc_substs(size=2):
    return st.dictionaries(st.sampled_from(NAMES), lc_terms(0, size), max_size=3)


class TestShiftAndSubst:
    def test_shift_respects_binders(self):
        t = Abs(App(bvar(0), bvar(1)))
        assert shift(t) == Abs(App(bvar(0), bvar(2)))

    def test_shift_fixes_closed_terms(self):
        t = parse("\\x. x (\\y. y x)")
        assert shift(t) == t

    @given(lc_terms(1))
    def test_shift_shares_exactly_what_it_leaves_alone(self, t):
        assert (shift(t) is t) == well_scoped(SIG_LC, to_scoped(t))

    def test_shift_shares_untouched_subterms(self):
        t = Abs(App(App(bvar(0), fvar("y")), bvar(1)))
        out = shift(t)
        assert out == Abs(App(App(bvar(0), fvar("y")), bvar(2)))
        assert out.body.fun is t.body.fun

    def test_subst_closed_image_under_binder(self):
        assert subst({"y": parse("\\z. z")}, parse("\\x. x y")) == parse(
            "\\x. x (\\z. z)"
        )

    def test_subst_protects_fresh_slot(self):
        # A scope-extended image (dangling #0) is shifted past the binder
        # it moves under, so the fresh slot is never captured.
        t = Abs(App(bvar(0), fvar("y")))
        assert subst({"y": bvar(0)}, t) == Abs(App(bvar(0), bvar(1)))

    def test_subst_shares_untouched_subterms(self):
        t = parse("\\x. x y (\\z. z w)")
        assert subst({}, t) is t
        assert subst({"v": fvar("u")}, t) is t
        out = subst({"y": fvar("v")}, t)
        assert out == parse("\\x. x v (\\z. z w)")
        assert out.body.arg is t.body.arg and out.body.fun.fun is t.body.fun.fun

    @given(lc_substs(), lc_terms(1))
    def test_subst_shares_exactly_what_it_leaves_alone(self, s, t):
        out = subst(s, t)
        assert (out is t) == free_names(t).isdisjoint(s)

    @pytest.mark.parametrize("s", [{}, {"x": fvar("y")}], ids=["empty", "renaming"])
    def test_subst_rejects_a_leaf_that_is_not_a_term(self, s):
        for t in (App(fvar("x"), "junk"), Abs(App(None, fvar("x"))), Var(None)):
            with pytest.raises(MalformedTermError):
                subst(s, t)

    def test_subst0(self):
        t = App(bvar(0), Abs(App(bvar(0), bvar(1))))
        assert subst0(t, fvar("y")) == App(fvar("y"), Abs(App(bvar(0), fvar("y"))))

    def test_subst0_decrements_other_danglers(self):
        assert subst0(App(bvar(0), bvar(1)), fvar("y")) == App(fvar("y"), bvar(0))

    def test_uses_bound(self):
        assert uses_bound(App(bvar(0), fvar("y")), 0)
        assert not uses_bound(Abs(bvar(0)), 0)
        assert uses_bound(Abs(bvar(1)), 0)

    @given(lc_substs(), lc_terms())
    def test_preserves_scoping(self, s, t):
        assert well_scoped(SIG_LC, to_scoped(subst(s, t)))

    @given(lc_substs(), lc_substs(), lc_terms())
    def test_associativity(self, f, g, t):
        lhs = subst(g, subst(f, t))
        assert lhs == subst(compose_subst(LC, f, g), t)

    @given(lc_terms())
    def test_identity(self, t):
        assert subst({}, t) == t


class TestReduction:
    def test_beta_two_steps(self):
        t = parse("(\\x. \\y. x) a b")
        t1 = beta_step(t)
        assert t1 == App(Abs(fvar("a")), fvar("b"))
        assert beta_step(t1) == fvar("a")

    def test_beta_leftmost_outermost(self):
        # The root redex fires before the one inside the argument.
        t = parse("(\\x. x) ((\\x. x) y)")
        assert beta_step(t) == parse("(\\x. x) y")
        # With no root redex, the function side is searched first.
        u = parse("((\\x. x) f) ((\\x. x) a)")
        assert beta_step(u) == parse("f ((\\x. x) a)")

    def test_beta_none_on_normal(self):
        assert beta_step(parse("\\x. x y")) is None

    def test_eta(self):
        assert eta_step(parse("\\x. y x")) == fvar("y")
        assert eta_step(parse("\\x. x x")) is None

    def test_eta_not_when_bound_occurs(self):
        # \x. (y x) x: the inner function uses the binder, no contraction
        # at the root; and the whole thing has no eta redex at all.
        assert eta_step(parse("\\x. x x x")) is None

    def test_eta_under_binder(self):
        t = parse("\\x. \\y. z y")
        assert eta_step(t) == Abs(fvar("z"))
        assert eta_step(Abs(fvar("z"))) is None

    def test_nfterm_validates(self):
        with pytest.raises(ValueError):
            NfTerm(parse("(\\x. x) y"))
        with pytest.raises(ValueError):
            NfTerm(parse("\\x. y x"))
        assert NfTerm(parse("\\x. x y")).term == parse("\\x. x y")

    def test_nfterm_rejects_malformed(self):
        with pytest.raises(MalformedTermError):
            NfTerm(App(fvar("x"), "junk"))

    def test_normalize_beta_then_eta(self):
        assert normalize(parse("(\\x. x) y")) == NfTerm(fvar("y"))
        assert normalize(parse("(\\f. \\x. f x) g")) == NfTerm(fvar("g"))

    def test_normalize_spends_fuel(self):
        budget = Fuel(10)
        normalize(parse("(\\x. \\y. x) a b"), budget)
        assert budget.remaining == 8

    def test_omega_exhausts(self):
        omega = parse("(\\x. x x) (\\x. x x)")
        with pytest.raises(FuelExhausted):
            normalize(omega, 50)

    @given(st.integers(0, 10_000))
    def test_normalize_fixes_normal_forms(self, seed):
        import random

        t = gen_normal(random.Random(seed))
        assert normalize(t.term, 1) == t


class TestEquivalence:
    def test_verdicts(self):
        assert beta_eta_equiv(parse("\\x. y x"), parse("y")) is Equivalence.EQUIVALENT
        assert beta_eta_equiv(parse("\\x. x"), parse("y")) is Equivalence.INEQUIVALENT
        omega = parse("(\\x. x x) (\\x. x x)")
        assert beta_eta_equiv(omega, parse("y"), fuel=50) is Equivalence.INCONCLUSIVE

    def test_integer_fuel_is_per_side(self):
        t = parse("(\\x. x) ((\\x. x) y)")
        assert beta_eta_equiv(t, t, fuel=2) is Equivalence.EQUIVALENT

    def test_fuel_object_is_shared(self):
        t = parse("(\\x. x) ((\\x. x) y)")
        assert beta_eta_equiv(t, t, fuel=Fuel(3)) is Equivalence.INCONCLUSIVE


class TestNormalFormMonad:
    def test_nf_bind(self):
        s = {"y": NfTerm(parse("\\z. z"))}
        assert nf_bind(s, NfTerm(parse("y y"))) == NfTerm(parse("\\z. z"))

    def test_nf_bind_rejects_raw_images(self):
        with pytest.raises(ConfigError):
            nf_bind({"y": parse("\\z. z")}, NfTerm(fvar("y")))

    def test_nf_bind_can_exhaust(self):
        # Normal images can still assemble a divergent composite.
        s = {"y": NfTerm(parse("\\x. x x"))}
        with pytest.raises(FuelExhausted):
            nf_bind(s, NfTerm(parse("y y")), fuel=50)

    def test_app1_oracles(self):
        assert nf_app1(NfTerm(fvar("y"))) == NfTerm(App(fvar("y"), bvar(0)))
        assert nf_app1(NfTerm(parse("\\x. x"))) == NfTerm(bvar(0))

    def test_abs_oracles(self):
        assert nf_abs(NfTerm(App(fvar("y"), bvar(0)))) == NfTerm(fvar("y"))
        assert nf_abs(NfTerm(bvar(0))) == NfTerm(parse("\\x. x"))

    @given(st.integers(0, 10_000))
    def test_abs_app1_roundtrip(self, seed):
        import random

        t = gen_normal(random.Random(seed))
        assert nf_abs(nf_app1(t)) == t

    @given(st.integers(0, 10_000))
    def test_app1_abs_roundtrip(self, seed):
        import random

        u = gen_normal(random.Random(seed), depth=1)
        assert nf_app1(nf_abs(u)) == u

    def test_inverse_pair_at_the_depth_ceiling(self):
        # x (x (... (x y))), nested just below MAX_DEPTH: opening and closing
        # again is the identity.  Compared as text, since dataclass equality
        # recurses two frames a level.
        t = fvar("y")
        for _ in range(600):
            t = App(fvar("x"), t)
        assert show(nf_abs(nf_app1(NfTerm(t))).term) == show(t)

    def test_monad_laws(self):
        assert check_monad_laws(nf_monad(), samples=200, seed=0).passed


class TestIotaFold:
    def test_fold_normalizes(self):
        assert iota_fold(parse("(\\x. x) y")) == NfTerm(fvar("y"))
        assert iota_fold(parse("\\x. x y")) == NfTerm(parse("\\x. x y"))

    def test_fold_with_env(self):
        out = iota_fold(parse("x"), env={"x": NfTerm(fvar("y"))})
        assert out == NfTerm(fvar("y"))
        with pytest.raises(ConfigError):
            iota_fold(parse("q"), env={})

    def test_fold_deep_chain(self):
        # Each level of the fold costs one frame, so a chain this deep
        # folds below the default recursion limit.
        t = bvar(699)
        for _ in range(700):
            t = Abs(t)
        out = iota_fold(t)
        assert show_nf(out, debruijn=True) == show(t, debruijn=True)

    def test_fold_can_exhaust(self):
        omega = parse("(\\x. x x) (\\x. x x)")
        with pytest.raises(FuelExhausted):
            iota_fold(omega, fuel=50)

    def test_contraction_spends_no_fuel(self):
        # Substituting for the fresh slot is the contraction; only the
        # renormalization after it spends fuel.
        assert iota_fold(parse("(\\x. x) y"), fuel=0) == NfTerm(fvar("y"))

    def test_fold_agrees_with_normalize(self):
        import random

        agreed = 0
        for i in range(150):
            rng = random.Random(i)
            t = gen_term(rng)
            try:
                direct = normalize(t, 2000)
                folded = iota_fold(t, fuel=2000)
            except FuelExhausted:
                continue
            assert folded == direct, show(t)
            agreed += 1
        assert agreed > 100

    # (normal form, fuel spent from one shared Fuel) for every term of the
    # panel below, recorded while nf_app1 still ran the normalizer: opening
    # a normal form by its definition must not change what a fold spends.
    FUEL_DIGEST = "6f61b3a599493d51bc76f8e7d8ea79e9ad7b49da4a18b1677a9e8def15a6ac0f"

    def test_fuel_accounting_is_pinned(self):
        import hashlib
        import random

        def numeral(n):
            return "(\\f. \\x. " + "f (" * n + "x" + ")" * n + ")"

        def outcome(t, fuel):
            budget = Fuel(fuel)
            try:
                out = show(iota_fold(t, fuel=budget).term)
            except FuelExhausted as e:
                out = type(e).__name__
            return out, fuel - budget.remaining

        # Few random terms create a redex by substitution, so the Church
        # plus, mult and exp terms are the ones that spend most.
        panel = [gen_term(random.Random(i), max_size=14) for i in range(3000)]
        ops = ("(\\m. \\n. \\f. \\x. m f (n f x))", "(\\m. \\n. \\f. m (n f))",
               "(\\m. \\n. n m)")
        panel += [parse(f"{op} {numeral(a)} {numeral(b)}")
                  for op in ops for a in range(5) for b in range(5)]
        h = hashlib.sha256()
        spenders = 0
        for t in panel:
            out, spent = outcome(t, 2000)
            h.update(repr((out, spent)).encode() + b"\n")
            if spent:
                spenders += 1
                assert outcome(t, spent - 1) == ("FuelExhausted", spent - 1), show(t)
        assert spenders > 50
        assert h.hexdigest() == self.FUEL_DIGEST


class TestPreorder:
    def test_reflexive(self):
        t = parse("\\x. x x")
        assert preorder_leq(t, t, depth=0)

    def test_single_beta(self):
        assert preorder_leq(parse("(\\x. x) y"), parse("y"), depth=1)

    def test_single_eta(self):
        assert preorder_leq(parse("\\x. y x"), parse("y"), depth=1)

    def test_oriented(self):
        # Expansion is not reduction: y does not reduce to (\x. x) y.
        assert not preorder_leq(parse("y"), parse("(\\x. x) y"), depth=20)

    def test_depth_bound(self):
        t = parse("(\\x. x) ((\\x. x) y)")
        assert not preorder_leq(t, parse("y"), depth=1)
        assert preorder_leq(t, parse("y"), depth=2)

    def test_successors_cover_positions(self):
        t = parse("((\\x. x) f) ((\\x. x) a)")
        succs = step_successors(t)
        assert parse("f ((\\x. x) a)") in succs
        assert parse("((\\x. x) f) a") in succs
        assert len(succs) == 2


class TestScopedConversion:
    def test_examples(self):
        t = parse("\\x. x y")
        assert to_scoped(t) == parse_sexpr(SIG_LC, "(abs (app #0 y))")
        assert from_scoped(to_scoped(t)) == t

    def test_malformed(self):
        with pytest.raises(MalformedTermError):
            from_scoped(Op(0, (fvar("x"),)))

    @given(lc_terms())
    def test_roundtrip(self, t):
        assert from_scoped(to_scoped(t)) == t


class TestGrammar:
    def test_parse_basics(self):
        assert parse("x") == fvar("x")
        assert parse("\\x. x") == Abs(bvar(0))
        assert parse("λx. x") == Abs(bvar(0))
        assert parse("x y z") == App(App(fvar("x"), fvar("y")), fvar("z"))
        assert parse("x (y z)") == App(fvar("x"), App(fvar("y"), fvar("z")))

    def test_parse_shadowing(self):
        assert parse("\\x. \\x. x") == Abs(Abs(bvar(0)))
        assert parse("\\x. \\y. x") == Abs(Abs(bvar(1)))

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse("(x")
        with pytest.raises(ParseError):
            parse("\\x x")
        with pytest.raises(ParseError):
            parse("x)")
        with pytest.raises(ParseError):
            parse("")

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("x)")
        assert exc.value.position == 1
        assert str(exc.value) == "parse error at 1: trailing input"

    def test_show_invents_binder_names(self):
        assert show(parse("\\x. \\y. x")) == "\\v0. \\v1. v0"
        assert show(Abs(fvar("v0"))) == "\\v1. v0"

    def test_show_precedence(self):
        assert show(parse("x y z")) == "x y z"
        assert show(parse("x (y z)")) == "x (y z)"
        assert show(parse("(\\x. x) y")) == "(\\v0. v0) y"
        assert show(parse("\\x. x y")) == "\\v0. v0 y"

    def test_show_dangling_index(self):
        assert show(bvar(0)) == "#0"
        assert show(Abs(bvar(1))) == "\\v0. #0"

    def test_show_debruijn(self):
        assert show(parse("\\x. \\y. x (y z)"), debruijn=True) == "λ. λ. 1 (0 z)"
        assert show_nf(NfTerm(parse("\\x. x")), debruijn=True) == "λ. 0"

    @given(lc_terms())
    def test_roundtrip(self, t):
        assert parse(show(t)) == t


class TestInstances:
    def test_lc_monad_laws(self):
        assert check_monad_laws(LC, samples=200, seed=0).passed

    def test_scope_derived_module_laws(self):
        assert check_module_laws(scope_derived_lc_module(), samples=200, seed=0).passed

    def test_scope_derived_nf_module_laws(self):
        assert check_module_laws(scope_derived_nf_module(), samples=200, seed=0).passed

    def test_abs_is_not_a_monad_morphism(self):
        # The frozen witness: under s = {y -> #0} the fresh slot of the
        # image collides with the binder that abstraction introduces.
        x = App(bvar(0), fvar("y"))
        s = {"y": bvar(0)}
        lhs = Abs(subst(s, x))
        rhs = subst({"y": Abs(bvar(0))}, Abs(x))
        assert lhs == parse("\\a. a a")
        assert rhs == parse("\\a. a (\\b. b)")
        assert lhs != rhs

        morphism = MonadMorphism("abs", naive_prime_monad(), LC, Abs)
        report = check_monad_morphism(morphism, samples=500, seed=0)
        assert not report.passed
        assert report.check("morphism-bind").counterexample is not None

    def test_free_names(self):
        assert free_names(parse("\\x. x y z")) == {"y", "z"}
