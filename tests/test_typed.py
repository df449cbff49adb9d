import copy
import dataclasses
import hashlib
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import reference_terms as ref

from modlam.catalog import run_suite
from modlam import catalog, lam, typed
from modlam.errors import MalformedTermError, ParseError, TypeCheckError
from modlam.harness import (
    _sample_rng,
    check_module_laws,
    check_monad_laws,
    show_subst,
    tautological_module,
)
from modlam.lam import Abs, beta_step, eta_step, shift, show, subst
from modlam.terms import Bound, Free
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
    free_types,
    gen_tlist,
    gen_typed_term,
    parse_stlc,
    shifted_tlist_module,
    show_tlist,
    show_type,
    stlc_normalize,
    stlc_subst,
    tlist_shift,
    tlist_sort,
    tlist_subst,
    type_of,
    typecheck,
)

ARR = Arrow(BASE, BASE)


def free(name, ty=BASE):
    return TFree(name, ty)


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
        t = TAbs(BASE, TApp(free("f", ARR), TApp(Bound(0), free("x"))))
        assert free_types(t) == {"f": ARR, "x": BASE}
        with pytest.raises(TypeCheckError, match="'x' used at two types"):
            free_types(TApp(free("x", ARR), free("x")))

    def test_escaping_index(self):
        with pytest.raises(TypeCheckError) as exc:
            typecheck({}, Bound(0))
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
        t = TAbs(BASE, TApp(Bound(0), free("x")))
        out = stlc_subst({"x": free("y")}, t)
        assert out == TAbs(BASE, TApp(Bound(0), free("y")))

    def test_scope_extend(self):
        assert shift(Bound(0)) == Bound(1)
        assert shift(free("x")) == free("x")
        assert shift(TAbs(BASE, Bound(0))) == TAbs(BASE, Bound(0))

    @given(st.integers(0, 5_000))
    def test_preserves_types(self, seed):
        rng = random.Random(seed)
        t = gen_typed_term(rng)
        s = STLC.gen_subst(rng)
        assert type_of(stlc_subst(s, t)) == type_of(t)


def reference_stlc_subst(s, t):
    """stlc_subst as three passes, the oracle for the one-walk version:
    type every image, read the term's declared frees, compare them by
    name, then substitute on lam's engine."""
    image_types = {name: type_of(img) for name, img in s.items()}
    declared = free_types(t)
    for name in sorted(declared.keys() & image_types.keys()):
        if image_types[name] is not declared[name]:
            raise TypeCheckError(
                f"image for {name!r} has type {show_type(image_types[name])}, "
                f"occurrence declares {show_type(declared[name])}"
            )
    return subst(s, t)


def outcome(fn, s, t):
    try:
        return repr(fn(s, t))
    except Exception as e:
        return type(e).__name__, str(e)


NON_TERMS = (None, "junk", Abs(free("x")), Free("x"))


def plant(rng, t, leaf):
    """t with one variable occurrence, reached by a random path, replaced by leaf."""
    if isinstance(t, TApp):
        if rng.random() < 0.5:
            return TApp(plant(rng, t.fun, leaf), t.arg)
        return TApp(t.fun, plant(rng, t.arg, leaf))
    if isinstance(t, TAbs):
        return TAbs(t.binder_type, plant(rng, t.body, leaf))
    return leaf


def gen_image(rng, ty, reused):
    r = rng.random()
    if r < 0.45:
        img = gen_typed_term(rng, ty, max_size=6)
    elif r < 0.6:  # wrong-typed
        img = gen_typed_term(rng, STLC_TYPES[rng.randrange(len(STLC_TYPES))], max_size=6)
    elif r < 0.68:  # ill-typed: applies a base-typed term, or mismatches an argument
        img = TApp(gen_typed_term(rng, rng.choice((BASE, ARR)), max_size=4), free("x"))
    elif r < 0.76:  # a dangling index, bare or under a generated context
        img = rng.choice((Bound(0), gen_typed_term(rng, ty, max_size=6, binders=(BASE,))))
    elif r < 0.82:  # one name at two types inside the image
        img = plant(rng, gen_typed_term(rng, ty, max_size=6), free("x", ARR))
    elif r < 0.87:
        img = rng.choice(NON_TERMS)
    else:  # an image object seen before: its type slot, or its failure, again
        return rng.choice(reused) if reused else free("y")
    reused.append(img)
    del reused[:-64]
    return img


def gen_case(rng, reused):
    s = {}
    for name in ("x", "y", "f", "g", "h", "k", "z"):
        if rng.random() < 0.4:
            tf = next((tf for tf in STLC_POOL if tf.name == name), TFree(name, BASE))
            s[name] = gen_image(rng, tf.type, reused)
    slot = STLC_TYPES[rng.randrange(len(STLC_TYPES))]
    t = gen_typed_term(rng, binders=(slot,) if rng.random() < 0.3 else ())
    # Faults of several kinds in one term, so the walk's order decides
    # which is reported.
    for _ in range(rng.choice((0, 0, 0, 0, 0, 1, 2))):  # a name at a second type
        tf = STLC_POOL[rng.randrange(len(STLC_POOL))]
        other = next(ty for ty in STLC_TYPES if ty is not tf.type)
        t = TApp(t, plant(rng, gen_typed_term(rng), TFree(tf.name, other)))
    for _ in range(rng.choice((0, 0, 0, 0, 0, 0, 1, 2))):  # a leaf that is not a term
        t = plant(rng, t, rng.choice(NON_TERMS))
    if rng.random() < 0.03:
        t = rng.choice(NON_TERMS)
    return s, t


def nodes_of(t) -> list:
    """The App and TAbs nodes of t, in pre-order."""
    out, todo = [], [t]
    while todo:
        t = todo.pop()
        if isinstance(t, (TApp, TAbs)):
            out.append(t)
            todo += (t.arg, t.fun) if isinstance(t, TApp) else (t.body,)
    return out


class TestOneWalkSubstitution:
    """stlc_subst against its three-pass reference: the same term, or the
    same exception with the same message."""

    CASES = 20_000

    FRAGMENTS = (
        "not a typed term",
        "used at two types",
        "occurrence declares",
        "escapes its scope",
        "applied a non-function",
        "does not match",
    )

    def test_matches_three_pass_reference(self):
        rng = random.Random(20061)
        reused = []
        kinds = dict.fromkeys(("ok", "several clashes") + self.FRAGMENTS, 0)
        for _ in range(self.CASES):
            s, t = gen_case(rng, reused)
            expected = outcome(reference_stlc_subst, s, t)
            assert outcome(stlc_subst, s, t) == expected, (s, t)
            if isinstance(expected, str):
                kinds["ok"] += 1
                continue
            kinds[next(f for f in self.FRAGMENTS if f in expected[1])] += 1
            if "occurrence declares" in expected[1]:
                declared = free_types(t)
                clashes = [n for n in s if n in declared and type_of(s[n]) is not declared[n]]
                kinds["several clashes"] += len(clashes) > 1
        # Every path is taken many times: success, each image error, the
        # two-type rejection, a malformed leaf and occurrence clashes.
        assert min(kinds.values()) >= 100, kinds

    TYPECHECK_FRAGMENTS = (
        "unbound free name",
        "context gives",
        "escapes its scope",
        "applied a non-function",
        "does not match",
        "not a typed term",
    )

    def test_typecheck_matches_recursive_reference(self):
        # The explicit-stack typecheck against the recursive one it
        # replaced, on these cases' terms and images: the same type, or
        # the same error, found first in the same order.  The context is
        # the pool's, sometimes missing a name or giving it another type.
        # One more term per case applies a function to an argument of a
        # drawn type, mostly the wrong one.
        rng = random.Random(20062)
        reused = []
        pool = {tf.name: tf.type for tf in STLC_POOL}
        kinds = dict.fromkeys(("ok",) + self.TYPECHECK_FRAGMENTS, 0)
        for _ in range(self.CASES // 4):
            s, t = gen_case(rng, reused)
            dom, arg = (STLC_TYPES[rng.randrange(len(STLC_TYPES))] for _ in range(2))
            app = TApp(gen_typed_term(rng, Arrow(dom, BASE), 6), gen_typed_term(rng, arg, 6))
            for term in (t, app, *s.values()):
                ctx = dict(pool)
                name = STLC_POOL[rng.randrange(len(STLC_POOL))].name
                r = rng.random()
                if r < 0.1:
                    del ctx[name]
                elif r < 0.2:
                    ctx[name] = STLC_TYPES[rng.randrange(len(STLC_TYPES))]
                expected = outcome(ref.typecheck, ctx, term)
                assert outcome(typecheck, ctx, term) == expected, (ctx, term)
                if isinstance(expected, str):
                    kinds["ok"] += 1
                else:
                    kinds[next(f for f in self.TYPECHECK_FRAGMENTS if f in expected[1])] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_matches_the_recursive_walk(self):
        # The explicit-stack walk against the recursive one it replaced:
        # the same term, sharing the same nodes with t, or the same error.
        rng = random.Random(20063)
        reused = []
        for _ in range(self.CASES // 4):
            s, t = gen_case(rng, reused)
            expected = outcome(ref.stlc_subst, s, t)
            assert outcome(stlc_subst, s, t) == expected, (s, t)
            if isinstance(expected, str):
                nodes = {id(n) for n in nodes_of(t)}
                kept = [id(n) in nodes for n in nodes_of(stlc_subst(s, t))]
                assert kept == [id(n) in nodes for n in nodes_of(ref.stlc_subst(s, t))]

    @pytest.mark.parametrize("n", [1000, 20000])
    def test_past_the_recursion_limit(self, n):
        k, m = free("k", Arrow(BASE, ARR)), free("m", Arrow(BASE, ARR))
        t = TApp(TApp(k, Bound(0)), free("y"))
        for _ in range(n):
            t = TAbs(BASE, t)
        out = stlc_subst({"y": free("z"), "k": m}, t)
        for _ in range(n):
            assert type(out) is TAbs and out.binder_type is BASE
            out = out.body
        assert out == TApp(TApp(m, Bound(0)), free("z"))

    def test_first_clash_by_name(self):
        # The walk meets y (the argument) first, but of the two clashing
        # names the report gives the first by name, f.
        s = {"y": free("g", ARR), "f": free("x"), "x": free("z")}
        t = TApp(free("f", ARR), free("y"))
        with pytest.raises(TypeCheckError, match="image for 'f' has type \\*, occurrence declares"):
            stlc_subst(s, t)

    def test_malformed_leaf_before_a_clash(self):
        with pytest.raises(MalformedTermError, match="not a typed term: None"):
            stlc_subst({"x": free("f", ARR)}, TApp(None, free("x")))

    def test_walk_order_picks_the_first_error(self):
        # Like free_types, the walk takes an application's argument first.
        t = TApp(TApp(free("x", ARR), None), free("x"))
        with pytest.raises(MalformedTermError):
            stlc_subst({}, t)
        t = TApp(None, TApp(free("x", ARR), free("x")))
        with pytest.raises(TypeCheckError, match="'x' used at two types"):
            stlc_subst({}, t)

    def test_one_walk_and_no_retyping(self, monkeypatch):
        img = TAbs(BASE, TApp(free("f", ARR), Bound(0)))
        t = TAbs(ARR, TApp(Bound(0), TApp(free("g", ARR), free("x"))))
        expected = reference_stlc_subst({"g": img}, t)
        assert stlc_subst({"g": img}, t) == expected

        def forbidden(*args):
            raise AssertionError("called")

        for owner, attr in ((typed, "type_of"), (typed, "free_types"), (typed, "typecheck"),
                            (lam, "subst"), (lam, "shift")):
            monkeypatch.setattr(owner, attr, forbidden)
        assert stlc_subst({"g": img}, t) == expected


def test_lam_subst_keeps_binder_types():
    t = TAbs(ARR, TApp(Bound(0), TAbs(BASE, free("x"))))
    assert subst({}, t) is t
    out = subst({"x": free("y")}, t)
    assert out == TAbs(ARR, TApp(Bound(0), TAbs(BASE, free("y"))))
    assert type(out) is TAbs and out.binder_type is ARR
    assert type(out.body.arg) is TAbs and out.body.arg.binder_type is BASE


class TestTypeSlot:
    """The type an image is given by stlc_subst is kept on the node, out
    of sight of equality, hashing and printing, and only once it typed."""

    def typed_image(self):
        img = TAbs(ARR, TApp(Bound(0), free("x")))
        assert stlc_subst({"h": img}, free("h", Arrow(ARR, BASE))) is img
        return img

    def test_invisible(self):
        img = self.typed_image()
        assert vars(img)["_type"] is Arrow(ARR, BASE)
        fresh = TAbs(ARR, TApp(Bound(0), free("x")))
        assert img == fresh and fresh == img
        assert hash(img) == hash(fresh) and repr(img) == repr(fresh)
        assert {img: 1}[fresh] == 1

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["deepcopy", "pickle"])
    def test_copies(self, copier):
        img = self.typed_image()
        c = copier(img)
        assert c == img and hash(c) == hash(img) and repr(c) == repr(img)
        assert c.binder_type is ARR and c.body.arg.type is BASE
        assert vars(c).get("_type", Arrow(ARR, BASE)) is Arrow(ARR, BASE)
        # A kept type is compared by identity, so a copy that kept a
        # non-canonical one would be refused here.
        assert stlc_subst({"h": c}, free("h", Arrow(ARR, BASE))) is c
        with pytest.raises(TypeCheckError, match="occurrence declares"):
            stlc_subst({"h": c}, free("h", ARR))

    @pytest.mark.parametrize(
        "img, error, message",
        [
            (TApp(free("x"), free("y")), TypeCheckError, "non-function"),
            (TApp(free("x", ARR), free("x")), TypeCheckError, "used at two types"),
            (Bound(0), TypeCheckError, "escapes its scope"),
        ]
        + [(leaf, MalformedTermError, f"not a typed term: {leaf!r}") for leaf in NON_TERMS],
        ids=["ill-typed", "two-types", "dangling", "none", "junk", "untyped-abs", "free"],
    )
    def test_failure_is_never_kept(self, img, error, message):
        for _ in range(3):
            with pytest.raises(error) as exc:
                stlc_subst({"x": img}, free("y"))
            assert message in str(exc.value)
            assert "_type" not in getattr(img, "__dict__", {})

    def test_substitution_output_keeps_no_type(self):
        # No occurrence clashes, yet the output uses f at two types: a type
        # copied from the input would let it pass as an image.
        t = TApp(free("f", ARR), free("y"))
        assert stlc_subst({"x": t}, free("x")) is t and vars(t)["_type"] is BASE
        out = stlc_subst({"y": free("f")}, t)
        assert "_type" not in vars(out)
        with pytest.raises(TypeCheckError, match="'f' used at two types"):
            stlc_subst({"x": out}, free("x"))

    def test_each_image_typed_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(typed, "type_of", lambda t: calls.append(t) or type_of(t))
        img = TApp(free("f", ARR), free("y"))
        for t in (free("x"), TAbs(BASE, free("x")), free("z")):
            stlc_subst({"x": img}, t)
        assert calls == [img]


class TestReduction:
    def test_normalize_oracle(self):
        t = parse_stlc("(\\f:* -> *. \\x:*. f (f x)) (\\y:*. y)")
        assert stlc_normalize(t) == parse_stlc("\\x:*. x")

    def test_eta_preserves_type(self):
        t = TAbs(BASE, TApp(free("f", ARR), Bound(0)))
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
        assert show(Bound(0)) == "#0"

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

    def square(self, name):
        return next(row for row in catalog.linearity_squares()["stlc"] if row[0] == name)

    def test_fiber_module_laws(self):
        _, _, fib, *_ = self.square("app@*,*")
        _, _, fib_arr, *_ = self.square("abs@*,*")
        assert (fib.name, fib_arr.name) == ("stlc@*", "stlc@* -> *")
        for mod in (fib, fib_arr):
            assert check_module_laws(mod, samples=150, seed=0).passed

    def test_scope_extended_module_laws(self):
        src = self.square("abs@*,*")[1]
        assert src.name == "stlc-d*@*"
        assert check_module_laws(src, samples=150, seed=0).passed

    def test_semantic_module_laws(self):
        _, _, sem, *_ = self.square("app-nf@*,*")
        sem_d = self.square("abs-nf@*,*")[1]
        assert (sem.name, sem_d.name) == ("stlc-nf@*", "stlc-nf-d*@*")
        for mod in (sem, sem_d):
            report = check_module_laws(mod, samples=150, seed=0)
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
        assert show_tlist(Cons(LVar("x", 0), Nil(0))) == "cons(x@0, nil@0)"

    def test_generated_terms_are_sorted(self):
        for i in range(200):
            rng = random.Random(i)
            t = gen_tlist(rng)
            tlist_sort(t)

    def test_monad_laws(self):
        assert check_monad_laws(TLIST, samples=300, seed=0).passed

    def test_sort_module_laws(self):
        # Sort 2 is a carrier no linearity square uses; the square carriers
        # are checked in test_harness.
        tl2 = dataclasses.replace(
            tautological_module(TLIST), name="tlist@2", gen_value=lambda rng: gen_tlist(rng, 2)
        )
        assert check_module_laws(tl2, samples=150, seed=0).passed

    def test_linearity_suite(self):
        report = run_suite("linearity", "tlist", 150, 0)
        assert report.passed, report.format()
        names = [c.name for c in report.checks]
        assert names == ["nil", "cons", "shift-commute"]

    def test_shifted_module_laws(self):
        report = check_module_laws(shifted_tlist_module(), samples=300, seed=0)
        assert report.passed, report.format()

    def test_shift_commute_finds_a_shift_that_skips_nil(self, monkeypatch):
        def nil_kept(t, by=1):
            match t:
                case LVar(name, sort):
                    return LVar(name, sort + by)
                case Cons(h, tl):
                    return Cons(nil_kept(h, by), nil_kept(tl, by))
            return t

        monkeypatch.setattr(catalog, "tlist_shift", nil_kept)
        report = run_suite("linearity", "tlist", 150, 0)
        assert [c.name for c in report.checks if not c.passed] == ["shift-commute"]
        assert report.check("shift-commute").format() == "\n".join([
            "law shift-commute: FAIL (counterexample at sample 15)",
            "  value: cons(cons(y@0, nil@0), xss@2)",
            "  substitution: {xs -> cons(y@0, xs@1), xss -> cons(cons(x@0, nil@0), nil@1)}",
            "  lhs: cons(cons(y@1, nil@0), cons(cons(x@1, nil@0), nil@1))",
            "  rhs: cons(cons(y@1, nil@0), cons(cons(x@1, nil@1), nil@2))",
        ])
        # The inputs are sample 15's draws under the square's key, shown by show_tlist.
        rng = _sample_rng(0, "linearity:shift-commute:15")
        s = TLIST.gen_subst(rng)
        inputs = (("value", show_tlist(gen_tlist(rng))), ("substitution", show_subst(TLIST, s)))
        assert report.check("shift-commute").counterexample.inputs == inputs


def reference_tlist_subst(s, t):
    """tlist_subst as it was before the sort slot: every image sorted on
    every call, every Cons rebuilt."""
    image_sorts = {name: tlist_sort(img) for name, img in s.items()}

    def go(t):
        match t:
            case LVar(name, sort):
                if name in s:
                    if image_sorts[name] != sort:
                        raise TypeCheckError(
                            f"image for {name!r} has sort {image_sorts[name]}, "
                            f"occurrence declares {sort}"
                        )
                    return s[name]
                return t
            case Nil(_):
                return t
            case Cons(h, tl):
                return Cons(go(h), go(tl))
        raise MalformedTermError(f"not a typed list term: {t!r}")

    return go(t)


TLIST_NON_TERMS = (None, "junk", LVar, Cons(LVar("x", 0), None))


def gen_tlist_image(rng, sort, reused):
    r = rng.random()
    if r < 0.5:
        img = gen_tlist(rng, sort, max_size=5)
    elif r < 0.65:  # wrong-sorted
        img = gen_tlist(rng, rng.randrange(3), max_size=5)
    elif r < 0.75:  # ill-sorted: a head one sort too deep, or a negative sort
        img = rng.choice((Cons(Nil(0), Nil(0)), LVar("x", -1), Nil(-1)))
    elif r < 0.8:
        img = rng.choice(TLIST_NON_TERMS)
    else:  # an image object seen before: its sort slot, or its failure, again
        return rng.choice(reused) if reused else LVar("y", sort)
    reused.append(img)
    del reused[:-64]
    return img


class TestSortSlot:
    """tlist_subst sorts each image object once, keeping the sort on the
    node out of sight of equality, hashing and printing."""

    def test_matches_reference(self):
        rng = random.Random(20062)
        reused = []
        fragments = ("occurrence declares", "sort-", "negative sort", "not a typed list term")
        kinds = dict.fromkeys(("ok",) + fragments, 0)
        for _ in range(5000):
            s = {v.name: gen_tlist_image(rng, v.sort, reused)
                 for v in TLIST.names if rng.random() < 0.5}
            t = gen_tlist(rng, max_size=8)
            if rng.random() < 0.05:
                t = Cons(t, rng.choice(TLIST_NON_TERMS))
            expected = outcome(reference_tlist_subst, s, t)
            assert outcome(tlist_subst, s, t) == expected, (s, t)
            if isinstance(expected, str):
                kinds["ok"] += 1
            else:
                kinds[next(f for f in fragments if f in expected[1])] += 1
        assert min(kinds.values()) >= 50, kinds

    def test_shares_what_it_leaves_alone(self):
        t = Cons(LVar("x", 0), Cons(LVar("y", 0), Nil(0)))
        assert tlist_subst({}, t) is t
        assert tlist_subst({"xs": Nil(0)}, t) is t
        out = tlist_subst({"x": LVar("z", 0)}, t)
        assert out == Cons(LVar("z", 0), Cons(LVar("y", 0), Nil(0)))
        assert out.tail is t.tail

    def sorted_image(self):
        img = Cons(LVar("x", 0), Nil(0))
        assert tlist_subst({"xs": img}, LVar("xs", 1)) is img
        return img

    def test_invisible(self):
        img = self.sorted_image()
        assert vars(img)["_sort"] == 1
        fresh = Cons(LVar("x", 0), Nil(0))
        assert img == fresh and fresh == img
        assert hash(img) == hash(fresh) and repr(img) == repr(fresh)
        assert {img: 1}[fresh] == 1
        assert "_sort" not in vars(dataclasses.replace(img))

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy,
                                        lambda t: pickle.loads(pickle.dumps(t))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies(self, copier):
        c = copier(self.sorted_image())
        assert c == Cons(LVar("x", 0), Nil(0)) and vars(c)["_sort"] == 1
        assert tlist_subst({"xs": c}, LVar("xs", 1)) is c
        with pytest.raises(TypeCheckError, match="occurrence declares"):
            tlist_subst({"xs": c}, LVar("xs", 2))

    @pytest.mark.parametrize("img", [Cons(LVar("x", 0), Nil(1)), Nil(-1), LVar("x", -1)],
                             ids=["cons", "nil", "var"])
    def test_failure_is_never_kept(self, img):
        for _ in range(3):
            with pytest.raises(TypeCheckError):
                tlist_subst({"xs": img}, Nil(0))
            assert "_sort" not in vars(img)

    def test_each_image_sorted_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(typed, "tlist_sort", lambda t: calls.append(t) or tlist_sort(t))
        img = Cons(LVar("x", 0), Nil(0))
        for t in (LVar("xs", 1), Nil(0), Cons(Nil(0), Nil(1))):
            tlist_subst({"xs": img}, t)
        # One top-level sort of img, with its recursion into head and tail.
        assert calls == [img, img.head, img.tail]
