import copy
import hashlib
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from modlam.catalog import run_suite
from modlam.errors import ParseError, TypeCheckError
from modlam.harness import check_module_laws, check_monad_laws
from modlam.lam import beta_step, eta_step, shift, show
from modlam.terms import Bound
from modlam.typed import (
    BASE,
    STLC,
    STLC_POOL,
    STLC_TYPES,
    TLIST,
    Arrow,
    BaseType,
    Cons,
    LVar,
    Nil,
    TAbs,
    TApp,
    TFree,
    TVar,
    fiber_module,
    free_types,
    gen_tlist,
    gen_typed_term,
    parse_stlc,
    parse_tlist,
    scope_extended_module,
    semantic_fiber_module,
    semantic_scope_extended_module,
    show_tlist,
    show_type,
    stlc_normalize,
    stlc_subst,
    tlist_shift,
    tlist_sort,
    tlist_sort_module,
    tlist_subst,
    type_of,
    typecheck,
)

ARR = Arrow(BASE, BASE)


def free(name, ty=BASE):
    return TVar(TFree(name, ty))


class TestTypes:
    def test_show(self):
        assert show_type(BASE) == "*"
        assert show_type(ARR) == "* -> *"
        assert show_type(Arrow(BASE, ARR)) == "* -> * -> *"
        assert show_type(Arrow(ARR, BASE)) == "(* -> *) -> *"

    def test_parse_right_associative(self):
        assert parse_stlc("\\x:* -> * -> *. x").binder_type == Arrow(BASE, ARR)
        assert parse_stlc("\\x:(* -> *) -> *. x").binder_type == Arrow(ARR, BASE)


class TestInterning:
    def test_arrow_is_canonical(self):
        assert Arrow(BASE, BASE) is Arrow(BASE, BASE)
        assert Arrow(ARR, Arrow(BASE, ARR)) is Arrow(Arrow(BASE, BASE), Arrow(BASE, ARR))
        assert Arrow(BASE, ARR) is not Arrow(ARR, BASE)

    def test_base_is_the_one_instance(self):
        assert BaseType() is BASE

    def test_parsed_types_are_canonical(self):
        t = parse_stlc("\\x:(* -> *) -> * -> *. \\y:*. x")
        assert t.binder_type is Arrow(ARR, ARR)
        assert t.body.binder_type is BASE

    @pytest.mark.parametrize("ty", [BASE, Arrow(ARR, Arrow(BASE, ARR))], ids=str)
    def test_copies_are_canonical(self, ty):
        assert copy.deepcopy(ty) is ty and pickle.loads(pickle.dumps(ty)) is ty

    # sha256 over the printed term and the next draw of each sample:
    # recorded when types were compared structurally, so generators that
    # compare them by identity make the same draws in the same order.
    DRAW_DIGEST = "a52c23af83688cf9976a9e6a192fc245128242d4068258526c4ed7644396705b"

    def test_generator_draws_are_unchanged(self):
        h = hashlib.sha256()
        for slot in STLC_TYPES:
            for ty in STLC_TYPES:
                for seed in range(500):
                    rng = random.Random(seed)
                    t = gen_typed_term(rng, ty, max_size=8, binders=(slot,))
                    h.update(f"{show(t)} {rng.random()!r}\n".encode())
        assert h.hexdigest() == self.DRAW_DIGEST


class TestTypecheck:
    def test_identity(self):
        assert type_of(parse_stlc("\\x:*. x")) == ARR

    def test_application(self):
        t = TApp(free("f", ARR), free("x"))
        assert type_of(t) == BASE

    def test_unbound_name(self):
        with pytest.raises(TypeCheckError) as exc:
            typecheck({}, free("x"))
        assert "unbound free name" in str(exc.value)

    def test_declared_type_must_match_context(self):
        with pytest.raises(TypeCheckError) as exc:
            typecheck({"x": ARR}, free("x"))
        assert "context gives" in str(exc.value)

    def test_non_function_application(self):
        with pytest.raises(TypeCheckError) as exc:
            type_of(parse_stlc("x y"))
        assert "non-function" in str(exc.value)

    def test_argument_mismatch(self):
        t = TApp(free("f", ARR), free("g", ARR))
        with pytest.raises(TypeCheckError) as exc:
            type_of(t)
        assert "does not match" in str(exc.value)

    def test_one_name_two_types(self):
        t = TApp(free("x", ARR), free("x"))
        with pytest.raises(TypeCheckError) as exc:
            type_of(t)
        assert "two types" in str(exc.value)

    def test_free_types_reads_each_declaration(self):
        t = TAbs(BASE, TApp(free("f", ARR), TApp(TVar(Bound(0)), free("x"))))
        assert free_types(t) == {"f": ARR, "x": BASE}
        with pytest.raises(TypeCheckError, match="'x' used at two types"):
            free_types(TApp(free("x", ARR), free("x")))

    def test_escaping_index(self):
        with pytest.raises(TypeCheckError) as exc:
            typecheck({}, TVar(Bound(0)))
        assert "escapes" in str(exc.value)


class TestSubstitution:
    def test_fiber_preserving(self):
        out = stlc_subst({"y": free("z")}, free("y"))
        assert out == free("z")

    def test_mismatched_image_rejected(self):
        with pytest.raises(TypeCheckError) as exc:
            stlc_subst({"y": free("f", ARR)}, free("y"))
        assert "occurrence declares" in str(exc.value)

    def test_one_name_two_types_rejected(self):
        with pytest.raises(TypeCheckError, match="two types"):
            stlc_subst({"y": free("z")}, TApp(free("x", ARR), free("x")))

    def test_unused_mismatch_is_fine(self):
        # The image is only checked against occurrences it replaces.
        assert stlc_subst({"y": free("f", ARR)}, free("x")) == free("x")

    def test_under_binder(self):
        t = TAbs(BASE, TApp(TVar(Bound(0)), free("x")))
        out = stlc_subst({"x": free("y")}, t)
        assert out == TAbs(BASE, TApp(TVar(Bound(0)), free("y")))

    def test_scope_extend(self):
        assert shift(TVar(Bound(0))) == TVar(Bound(1))
        assert shift(free("x")) == free("x")
        assert shift(TAbs(BASE, TVar(Bound(0)))) == TAbs(BASE, TVar(Bound(0)))

    @given(st.integers(0, 5_000))
    def test_preserves_types(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng)
        s = STLC.gen_subst(rng)
        assert type_of(stlc_subst(s, t)) == type_of(t)


class TestReduction:
    def test_normalize_oracle(self):
        t = parse_stlc("(\\f:* -> *. \\x:*. f (f x)) (\\y:*. y)")
        assert stlc_normalize(t) == parse_stlc("\\x:*. x")

    def test_eta_preserves_type(self):
        t = TAbs(BASE, TApp(free("f", ARR), TVar(Bound(0))))
        stepped = eta_step(t)
        assert stepped == free("f", ARR)
        assert type_of(stepped) == type_of(t)

    @given(st.integers(0, 2_000))
    def test_subject_reduction(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng)
        ty = type_of(t)
        for _ in range(2_000):
            nxt = beta_step(t)
            if nxt is None:
                break
            t = nxt
            assert type_of(t) == ty
        else:
            pytest.fail("did not normalize in 2000 steps")
        while (nxt := eta_step(t)) is not None:
            t = nxt
            assert type_of(t) == ty

    def test_termination_sample(self):
        for i in range(100):
            t = gen_typed_term(random.Random(i))
            out = stlc_normalize(t, 10_000)
            assert beta_step(out) is None
            assert eta_step(out) is None
            assert type_of(out) == type_of(t)


class TestStlcGrammar:
    def test_show(self):
        assert show(parse_stlc("\\x:*. x y")) == "\\v0:*. v0 y"
        assert show(free("x")) == "x"
        assert show(TVar(Bound(0))) == "#0"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_stlc("\\x. x")
        with pytest.raises(ParseError):
            parse_stlc("\\x:. x")
        with pytest.raises(ParseError):
            parse_stlc("\\x:*of. x")

    def test_roundtrip_when_frees_are_base(self):
        # The grammar declares parsed frees at the base type, so only
        # terms whose frees all sit in that fiber round-trip exactly.
        hits = 0
        for i in range(400):
            t = gen_typed_term(random.Random(i))
            if all(ty is BASE for ty in free_types(t).values()):
                assert parse_stlc(show(t)) == t
                hits += 1
        assert hits > 50


class TestStlcInstances:
    def test_monad_laws(self):
        assert check_monad_laws(STLC, samples=200, seed=0).passed

    def test_fiber_module_laws(self):
        for ty in (BASE, ARR):
            assert check_module_laws(fiber_module(ty), samples=150, seed=0).passed

    def test_scope_extended_module_laws(self):
        assert check_module_laws(scope_extended_module(BASE, BASE), samples=150, seed=0).passed

    def test_semantic_module_laws(self):
        report = check_module_laws(semantic_fiber_module(BASE), samples=150, seed=0)
        assert report.passed, report.format()
        report = check_module_laws(
            semantic_scope_extended_module(BASE, BASE), samples=150, seed=0
        )
        assert report.passed, report.format()

    def test_linearity_suite(self):
        report = run_suite("linearity", "stlc", 150, 0)
        assert report.passed, report.format()
        names = [c.name for c in report.checks]
        assert names == ["app@*,*", "abs@*,*", "app-nf@*,*", "abs-nf@*,*"]

    def test_pool_is_fibered(self):
        assert {tf.name for tf in STLC_POOL} == {"x", "y", "f", "g", "h", "k"}
        assert STLC.key(TFree("f", ARR)) == "f"
        assert STLC.show_name(TFree("f", ARR)) == "f:* -> *"


class TestTypedLists:
    def test_sort_oracles(self):
        assert tlist_sort(LVar("x", 0)) == 0
        assert tlist_sort(Nil(0)) == 1
        assert tlist_sort(Cons(LVar("x", 0), Nil(0))) == 1
        assert tlist_sort(Cons(Nil(0), Nil(1))) == 2

    def test_sort_violations(self):
        with pytest.raises(TypeCheckError):
            tlist_sort(Cons(LVar("x", 0), Nil(1)))
        with pytest.raises(TypeCheckError):
            tlist_sort(LVar("x", -1))

    def test_subst(self):
        t = Cons(LVar("x", 0), Nil(0))
        assert tlist_subst({"x": LVar("y", 0)}, t) == Cons(LVar("y", 0), Nil(0))

    def test_subst_checks_sorts(self):
        with pytest.raises(TypeCheckError) as exc:
            tlist_subst({"x": Nil(0)}, LVar("x", 0))
        assert "occurrence declares" in str(exc.value)

    def test_shift(self):
        t = Cons(LVar("x", 0), Nil(0))
        shifted = tlist_shift(t)
        assert shifted == Cons(LVar("x", 1), Nil(1))
        assert tlist_sort(shifted) == 2

    def test_grammar(self):
        assert parse_tlist("cons(x@0, nil@0)") == Cons(LVar("x", 0), Nil(0))
        assert parse_tlist("nil@2") == Nil(2)
        assert show_tlist(Cons(LVar("x", 0), Nil(0))) == "cons(x@0, nil@0)"

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_tlist("x")
        with pytest.raises(ParseError):
            parse_tlist("cons(x@0)")
        with pytest.raises(ParseError):
            parse_tlist("nil")

    def test_generated_terms_are_sorted(self):
        for i in range(200):
            rng = random.Random(i)
            t = gen_tlist(rng)
            tlist_sort(t)

    def test_monad_laws(self):
        assert check_monad_laws(TLIST, samples=300, seed=0).passed

    def test_sort_module_laws(self):
        for sort in (0, 1, 2):
            assert check_module_laws(tlist_sort_module(sort), samples=150, seed=0).passed

    def test_linearity_suite(self):
        report = run_suite("linearity", "tlist", 150, 0)
        assert report.passed, report.format()
        names = [c.name for c in report.checks]
        assert names == ["nil", "cons", "shift-commute"]


def tlist_terms(size=3):
    leaf = st.builds(LVar, st.sampled_from(("x", "y", "z")), st.integers(0, 3)) | st.builds(
        Nil, st.integers(0, 3)
    )
    if size <= 0:
        return leaf
    return leaf | st.builds(Cons, tlist_terms(size - 1), tlist_terms(size - 1))


class TestTlistRoundtrip:
    @given(tlist_terms())
    def test_roundtrip(self, t):
        # Printing and parsing are structural; they round-trip even for
        # terms the sort checker would reject.
        assert parse_tlist(show_tlist(t)) == t
