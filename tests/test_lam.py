import copy
import dataclasses
import pickle
import random
import re
import sys
import time
import types
from functools import partial

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
from modlam import catalog, lam
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
    from_scoped,
    gen_normal,
    gen_term,
    iota_fold,
    nf_abs,
    nf_app1,
    nf_bind,
    normalize,
    parse,
    preorder_leq,
    shift,
    show,
    show_nf,
    step_successors,
    subst,
    subst0,
    to_scoped,
    uses_bound,
    _replace,
)
from modlam.terms import Bound, Free, Op, bvar, fvar, parse_sexpr, well_scoped
from modlam.typed import BASE, Arrow, TAbs

import reference_terms as ref
from faulty_instances import naive_prime_monad

NAMES = ("x", "y", "z")


def lc_terms(depth=0, size=3, binders=(Abs,)):
    """Terms whose dangling indices are below depth, with abstractions
    built by the constructors in binders."""
    leaf = st.builds(fvar, st.sampled_from(NAMES))
    if depth:
        leaf = leaf | st.builds(bvar, st.integers(0, depth - 1))
    if size <= 0:
        return leaf
    return (
        leaf
        | st.builds(App, lc_terms(depth, size - 1, binders), lc_terms(depth, size - 1, binders))
        | st.one_of(*(st.builds(make, lc_terms(depth + 1, size - 1, binders)) for make in binders))
    )


def lc_substs(size=2):
    return st.dictionaries(st.sampled_from(NAMES), lc_terms(0, size), max_size=3)


# Untyped and typed abstractions mixed: the engine rebuilds both through with_body.
MIXED_BINDERS = (Abs, partial(TAbs, BASE), partial(TAbs, Arrow(BASE, BASE)))


def naive_shift(t, by: int, cutoff: int = 0):
    if isinstance(t, Bound) and t.index >= cutoff:
        return Bound(t.index + by)
    if isinstance(t, (Free, Bound)):
        return dataclasses.replace(t)
    if isinstance(t, App):
        return App(naive_shift(t.fun, by, cutoff), naive_shift(t.arg, by, cutoff))
    return t.with_body(naive_shift(t.body, by, cutoff + 1))


def naive_subst0(t, u, j: int = 0):
    """The reference for subst0: rebuilds every node, shifts u afresh at
    every occurrence."""
    if isinstance(t, Bound):
        if t.index == j:
            return naive_shift(u, j)
        return Bound(t.index - 1 if t.index > j else t.index)
    if isinstance(t, Free):
        return dataclasses.replace(t)
    if isinstance(t, App):
        return App(naive_subst0(t.fun, u, j), naive_subst0(t.arg, u, j))
    return t.with_body(naive_subst0(t.body, u, j + 1))


def contract(t, *us):
    """(\\x1. ... \\xm. t) u1 ... um in one walk, the one the normalizer
    makes: us[j] for the index x(j+1) binds, the rest dropped by m."""
    return _replace(t, {}, -len(us), dict(enumerate(us)), 0)


def successive(subst_one, t, us):
    """contract(t, *us) as m = len(us) one-image substitutions: t under
    m - 1 binders, contracted one binder at a time, outermost first, as
    the m beta steps of (\\x1. ... \\xm. t) u1 ... um are."""
    for _ in us[1:]:
        t = Abs(t)
    for n, u in enumerate(us):
        t = subst_one(t, u)
        if n < len(us) - 1:
            t = t.body
    return t


def naive_subst(s, t, depth: int = 0):
    """The reference for subst: rebuilds every node, shifts each image
    afresh at every occurrence."""
    if isinstance(t, Free) and t.name in s:
        return naive_shift(s[t.name], depth)
    if isinstance(t, (Free, Bound)):
        return dataclasses.replace(t)
    if isinstance(t, App):
        return App(naive_subst(s, t.fun, depth), naive_subst(s, t.arg, depth))
    return t.with_body(naive_subst(s, t.body, depth + 1))


def subst_under(s, t, depth: int):
    """subst as it acts under `depth` binders: t wrapped in that many
    abstractions, substituted, and unwrapped."""
    for _ in range(depth):
        t = Abs(t)
    out = subst(s, t)
    for _ in range(depth):
        out = out.body
    return out


def dangling_below(t) -> int:
    """The least L such that every dangling index of t is below L."""
    if isinstance(t, Bound):
        return max(t.index + 1, 0)
    if isinstance(t, Free):
        return 0
    if isinstance(t, App):
        return max(dangling_below(t.fun), dangling_below(t.arg))
    return max(dangling_below(t.body) - 1, 0)


def marks(*roots) -> list:
    """(node, its mark) for every marked App or Abs under roots."""
    out, seen, todo = [], set(), list(roots)
    while todo:
        t = todo.pop()
        if isinstance(t, (Free, Bound)) or id(t) in seen:
            continue
        seen.add(id(t))
        if "_dangling_below" in vars(t):
            out.append((t, vars(t)["_dangling_below"]))
        todo += (t.fun, t.arg) if isinstance(t, App) else (t.body,)
    return out


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
        assert (out is t) == ref.lam_free_names(t).isdisjoint(s)

    @pytest.mark.parametrize("s", [{}, {"x": fvar("y")}], ids=["empty", "renaming"])
    def test_subst_rejects_a_leaf_that_is_not_a_term(self, s):
        for t in (App(fvar("x"), "junk"), Abs(App(None, fvar("x")))):
            with pytest.raises(MalformedTermError):
                subst(s, t)

    def test_subst0(self):
        t = App(bvar(0), Abs(App(bvar(0), bvar(1))))
        assert subst0(t, fvar("y")) == App(fvar("y"), Abs(App(bvar(0), fvar("y"))))

    def test_subst0_decrements_other_danglers(self):
        assert subst0(App(bvar(0), bvar(1)), fvar("y")) == App(fvar("y"), bvar(0))

    @given(lc_terms(2, binders=MIXED_BINDERS), lc_terms(1, binders=MIXED_BINDERS))
    def test_subst0_matches_the_naive_reference(self, t, u):
        # Dataclass equality compares classes and binder types, so a typed
        # abstraction that lost its annotation would differ here.
        assert subst0(t, u) == naive_subst0(t, u)

    @given(lc_terms(1, binders=MIXED_BINDERS), lc_terms(binders=MIXED_BINDERS))
    def test_subst0_shares_exactly_what_it_leaves_alone(self, t, u):
        assert (subst0(t, u) is t) == well_scoped(SIG_LC, to_scoped(t))

    def test_subst0_shares_untouched_subterms(self):
        t = TAbs(BASE, App(App(bvar(0), fvar("y")), Abs(App(bvar(0), bvar(2)))))
        out = subst0(t, fvar("z"))
        assert out == TAbs(BASE, App(App(bvar(0), fvar("y")), Abs(App(bvar(0), fvar("z")))))
        assert out.body.fun is t.body.fun

    def test_subst0_shifts_the_argument_once_per_depth(self):
        u = App(bvar(0), fvar("y"))
        t = App(bvar(0), Abs(App(bvar(1), Abs(App(bvar(2), bvar(2))))))
        out = subst0(t, u)
        assert out == naive_subst0(t, u)
        assert out.fun is u
        inner = out.arg.body.arg.body
        assert inner.fun is inner.arg

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


# One step on a pool of terms: (kind, two pool positions, by, cutoff).
POOL_STEPS = st.tuples(
    st.sampled_from(("subst0", "shift", "subst", "app", "abs")),
    st.integers(0, 63),
    st.integers(0, 63),
    st.sampled_from((1, -1, 2)),
    st.integers(0, 2),
)


class TestDanglingMarks:
    """The loose-bound mark _dangling_below = L says every dangling index
    of a node is below L; index rewrites read and write it on nodes that
    later calls meet again."""

    @given(
        st.lists(lc_terms(2, binders=MIXED_BINDERS), min_size=1, max_size=4),
        st.lists(POOL_STEPS, max_size=12),
    )
    def test_marks_left_by_one_call_hold_for_the_next(self, pool, steps):
        # Each result joins the pool, sharing nodes with the terms it came
        # from, so later steps meet nodes that earlier ones marked.  Bare
        # indices in the pool make images that are the very variable they
        # replace.
        pool = [bvar(0), bvar(1), *pool]
        for kind, i, j, by, cutoff in steps:
            a, b = pool[i % len(pool)], pool[j % len(pool)]
            if kind == "subst0":
                # cutoff + 1 images, from pool position j on
                us = [pool[(j + n) % len(pool)] for n in range(cutoff + 1)]
                out, expected = contract(a, *us), successive(naive_subst0, a, us)
            elif kind == "shift":
                out, expected = shift(a, by, cutoff), naive_shift(a, by, cutoff)
            elif kind == "subst":
                s = {"x": b, "y": bvar(cutoff)}
                out, expected = subst_under(s, a, cutoff), naive_subst(s, a, cutoff)
            else:
                out = expected = App(a, b) if kind == "app" else MIXED_BINDERS[cutoff](a)
            # Term equality compares classes and binder types too.
            assert out == expected
            pool.append(out)
            for node, mark in marks(*pool):
                assert dangling_below(node) <= mark, (node, mark)

    def test_parsed_roots_and_the_normalizers_marks_hold(self):
        # parse marks the root it returns 0, and the normalizer marks 0 each
        # argument it substitutes under no binder of a closed root.
        plus = parse("(\\m. \\n. \\f. \\x. m f (n f x)) (\\f. \\x. f x) (\\f. \\x. f (f x))")
        assert vars(plus)["_dangling_below"] == 0
        three = normalize(plus).term
        assert [vars(n).get("_dangling_below") for n in (plus.fun.arg, plus.arg)] == [0, 0]
        rng = random.Random(3406)
        pool = [plus, three]
        for _ in range(400):
            t, walked = gen_term(rng, 14), gen_term(rng, 14)
            assert shift(walked) is walked  # closed, so the walk marks its root 0
            # Open, closed unmarked, marked by parse and marked by a shift.
            for root in (gen_term(rng, 14, depth=1), t, parse(show(t)), walked):
                pool.append(root)
                try:
                    pool.append(normalize(root, 200).term)
                except FuelExhausted:
                    pass
        for node, mark in marks(*pool):
            assert dangling_below(node) <= mark, (node, mark)

    def test_an_image_that_is_the_variable_it_replaces(self):
        # Under the binder, #0 shifted is #1, the variable it replaces:
        # the term comes back as it was, yet it uses index 0.
        t = Abs(App(bvar(1), bvar(0)))
        assert subst0(t, bvar(0)) is t
        assert marks(t) == []
        assert shift(t, 1) == Abs(App(bvar(2), bvar(0)))
        # So with more images: #1 for index 1 and #0 for index 0, at
        # depth 0 and under a binder.
        for t in (App(bvar(0), bvar(1)), Abs(App(bvar(2), App(bvar(1), bvar(0))))):
            assert contract(t, bvar(1), bvar(0)) is t
            assert marks(t) == []
        assert contract(t, bvar(2), bvar(1), bvar(0)) is t
        assert marks(t) == []
        assert shift(t, 1) == Abs(App(bvar(3), App(bvar(2), bvar(0))))

    def test_leq_mult_reaches_its_numeral(self):
        mult = parse("(\\m. \\n. \\f. m (n f)) (\\f. \\x. f (f x)) (\\f. \\x. f (f (f x)))")
        six = parse("\\f. \\x. f (f (f (f (f (f x)))))")
        assert preorder_leq(mult, six, depth=20)

    def test_a_shift_marks_what_it_leaves_alone(self):
        closed = parse("\\x. x (\\y. y x)")
        t = App(bvar(0), closed)
        out = shift(t, 1)
        assert out.arg is closed and vars(closed)["_dangling_below"] == 0
        # Marked closed, it is shared by every later rewrite of indices.
        assert subst0(App(closed, bvar(0)), fvar("z")).fun is closed
        assert shift(closed, -1, 0) is closed and uses_bound(closed, 0) is False

    def test_a_name_substitution_ignores_the_marks(self):
        t = Abs(App(bvar(0), fvar("y")))
        assert shift(t) is t and vars(t)["_dangling_below"] == 0
        assert subst({"y": fvar("z")}, t) == Abs(App(bvar(0), fvar("z")))


def malformed(rng, t):
    """t with one leaf, reached by a random path, replaced by a non-term."""
    if isinstance(t, App):
        if rng.random() < 0.5:
            return App(malformed(rng, t.fun), t.arg)
        return App(t.fun, malformed(rng, t.arg))
    if isinstance(t, Abs):
        return t.with_body(malformed(rng, t.body))
    return rng.choice((None, "junk", Op(0, ())))


def outcome(fn, *args):
    try:
        return fn(*args)
    except MalformedTermError as e:
        return str(e)


def input_nodes_kept(out, *inputs) -> list:
    """In pre-order over out, whether each App or Abs is a node of an input."""
    ids = {id(n) for n in app_abs_nodes(*inputs)}
    return [id(n) in ids for n in app_abs_nodes(out)]


def app_abs_nodes(*roots) -> list:
    out, todo = [], list(roots)
    while todo:
        t = todo.pop()
        if isinstance(t, (App, Abs)):
            out.append(t)
            todo += (t.arg, t.fun) if isinstance(t, App) else (t.body,)
    return out


class TestWalksAgainstReference:
    """shift, subst, subst0 and uses_bound against the recursive walks
    they replaced (tests/reference_terms.py): the same result, the same
    nodes shared with the inputs, and the same first MalformedTermError,
    on a first call and again once the marks are written."""

    def test_same_results_sharing_and_first_error(self):
        rng = random.Random(2206)
        for _ in range(3000):
            t, u = gen_term(rng, 12, depth=2), gen_term(rng, 6, depth=1)
            if rng.random() < 0.15:
                t = malformed(rng, t)
            if rng.random() < 0.05:
                u = malformed(rng, u)
            s = {"x": u, "y": gen_term(rng, 4)}
            by, depth = rng.choice((1, -1, 3)), rng.randrange(3)
            for new, old, args in (
                (shift, ref.lam_shift, (t, by, depth)),
                (subst0, ref.lam_subst0, (t, u)),
                (subst_under, ref.lam_subst, (s, t, depth)),
                (uses_bound, ref.uses_bound, (t, depth)),
            ):
                expected = outcome(old, *args)
                for _ in range(2):
                    got = outcome(new, *args)
                    assert got == expected, (new.__name__, args)
                    if isinstance(got, (App, Abs)):
                        inputs = (t, u, *s.values())
                        assert input_nodes_kept(got, *inputs) == input_nodes_kept(expected, *inputs)

    def test_m_images_in_one_walk(self):
        # contract(t, *us) against m successive one-image calls.  One walk
        # shares every closed input node the m calls share, and never fewer
        # input nodes: an image with a dangling index placed at depth 0
        # goes in whole, where the calls shift it under binders and back,
        # and an image that is the very variable it replaces leaves the
        # node above it shared.  Only t is malformed: an image met at depth
        # 0 is placed unwalked, where the calls would walk it.
        rng = random.Random(2606)
        for _ in range(3000):
            m = rng.randrange(1, 4)
            t = rebound(rng, gen_term(rng, 12, depth=m + 1), 0.5)
            us = [rebound(rng, gen_term(rng, 6, depth=1), 0.5) for _ in range(m)]
            if rng.random() < 0.3:
                # Images that are nodes of t, or bare indices, or repeated.
                us[rng.randrange(m)] = rng.choice((*app_abs_nodes(t), bvar(0), bvar(1), us[0]))
            inputs = app_abs_nodes(t, *us)
            closed = {id(n) for n in inputs if dangling_below(n) == 0}
            inputs = {id(n) for n in inputs}
            broken = rng.random() < 0.15
            if broken:
                t = malformed(rng, t)
            expected = outcome(successive, ref.lam_subst0, t, us)
            if not broken:
                assert successive(naive_subst0, t, us) == expected
            for _ in range(2):  # again once the marks are written
                got = outcome(contract, t, *us)
                assert got == expected, (t, us)
                if isinstance(got, (App, Abs)):
                    pairs = list(zip(app_abs_nodes(got), app_abs_nodes(expected)))
                    assert all(id(b) not in inputs or a is b for a, b in pairs)
                    assert all(a is b for a, b in pairs if id(a) in closed or id(b) in closed)
            if not broken:
                for node, mark in marks(t, *us, got):
                    assert dangling_below(node) <= mark, (node, mark)

    def test_walks_past_the_recursion_limit(self):
        n = 20000
        t = bvar(n)  # index 0 of the scope around n binders
        for _ in range(n):
            t = Abs(t)
        assert uses_bound(t, 0) and not uses_bound(t, 1)
        out = subst0(t, App(bvar(0), fvar("y")))
        shifted = shift(t, 2)
        named = subst({"y": fvar("z")}, subst0(t, fvar("y")))
        for _ in range(n):
            out, shifted, named = out.body, shifted.body, named.body
        assert out == App(bvar(n), fvar("y"))
        assert shifted == bvar(n + 2)
        assert named == fvar("z")
        # Indices 1 and 2 of the scope around n binders, and one past them,
        # rewritten by three images in one walk.
        t = App(App(bvar(n + 1), bvar(n + 2)), bvar(n + 3))
        for _ in range(n):
            t = Abs(t)
        out = contract(t, fvar("w"), App(bvar(0), fvar("y")), fvar("u"))
        for _ in range(n):
            out = out.body
        assert out == App(App(App(bvar(n), fvar("y")), fvar("w")), bvar(n))


def rebuilt(rng, t, keep: float = 0.0):
    """A copy of t made of new nodes, variables included; each App or Abs
    is kept as it is with probability keep, so the copy shares it."""
    if isinstance(t, (App, Abs)) and rng.random() < keep:
        return t
    if isinstance(t, App):
        return App(rebuilt(rng, t.fun, keep), rebuilt(rng, t.arg, keep))
    if isinstance(t, Abs):
        return t.with_body(rebuilt(rng, t.body, keep))
    if isinstance(t, (Free, Bound)):
        return dataclasses.replace(t)
    return "".join(t) if isinstance(t, str) else t


def rebound(rng, t, p: float):
    """t with each abstraction rebuilt, with probability p, by a binder
    drawn from MIXED_BINDERS: an Abs may become a TAbs, and a TAbs may
    change its binder type."""
    if isinstance(t, App):
        return App(rebound(rng, t.fun, p), rebound(rng, t.arg, p))
    if isinstance(t, Abs):
        body = rebound(rng, t.body, p)
        return rng.choice(MIXED_BINDERS)(body) if rng.random() < p else t.with_body(body)
    return t


def with_marks(t):
    """A node equal to t that carries all three marks, each written by its
    own writer: the normal-form mark by the normalizer, the loose-bound
    mark by a shift that finds no dangling index, the height by the
    normalizer's height cache."""
    node = lam.reduce_to_normal(t)
    assert shift(node) is node
    lam._height_of(node)
    return node


class TestNodes:
    """App, Abs and TAbs are frozen dataclasses whose fields live in
    __slots__: building a node writes no instance __dict__, and the marks,
    which do live there, are invisible to everything a dataclass gives."""

    NODES = {
        App: (lambda: App(fvar("f"), Abs(bvar(0))), ["fun", "arg"]),
        Abs: (lambda: Abs(App(bvar(0), fvar("y"))), ["body"]),
        TAbs: (lambda: TAbs(Arrow(BASE, BASE), App(bvar(0), fvar("y"))), ["body", "binder_type"]),
    }
    MARKS = {"_normal": True, "_dangling_below": 0, "_height": 2}

    @pytest.fixture(params=list(NODES), ids=lambda cls: cls.__name__)
    def case(self, request):
        build, fields = self.NODES[request.param]
        return request.param, build, fields

    def test_fields_are_slots_and_a_new_node_has_no_dict_entries(self, case):
        cls, build, fields = case
        assert [f.name for f in dataclasses.fields(cls)] == fields
        assert all(isinstance(getattr(cls, name), types.MemberDescriptorType) for name in fields)
        assert vars(build()) == {}

    def test_frozen(self, case):
        cls, build, fields = case
        t = with_marks(build())
        for name in [*fields, *self.MARKS]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(t, name)
        assert vars(t) == self.MARKS

    def test_marks_are_invisible(self, case):
        cls, build, fields = case
        t, fresh = with_marks(build()), build()
        assert type(t) is cls and vars(t) == self.MARKS
        assert t == fresh and fresh == t and hash(t) == hash(fresh)
        assert repr(t) == repr(fresh)
        assert dataclasses.replace(t) == t and vars(dataclasses.replace(t)) == {}

    def test_repr_replace_and_match(self):
        t = App(fvar("f"), bvar(0))
        assert repr(t) == "App(fun=Free(name='f'), arg=Bound(index=0))"
        assert dataclasses.replace(t, arg=fvar("y")) == App(fvar("f"), fvar("y"))
        a = TAbs(BASE, t)
        assert repr(a) == f"TAbs(body={t!r}, binder_type=BaseType())"
        assert dataclasses.replace(a, binder_type=Arrow(BASE, BASE)) == TAbs(Arrow(BASE, BASE), t)
        match Abs(t):
            case Abs(App(Free(name), Bound(k))):
                assert (name, k) == ("f", 0)
            case _:
                pytest.fail("Abs(App(fun, arg)) did not match")
        match a:
            case TAbs(ty, App(f, _)):
                assert ty is BASE and f == fvar("f")
            case _:
                pytest.fail("TAbs(binder_type, body) did not match")

    def test_marks_survive_copy_and_pickle(self, case):
        cls, build, fields = case
        t = with_marks(build())
        for out in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(out) is cls and out == t and out is not t
            assert vars(out) == self.MARKS
            assert lam.reduce_to_normal(out, Fuel(0)) is out
        for out in (copy.copy(build()), pickle.loads(pickle.dumps(build()))):
            assert vars(out) == {}


class TestTermEquality:
    """App, Abs and TAbs compare by one stack walk, lam._same_term; the
    recursive dataclass equality they had (reference_terms.term_eq) is
    its oracle."""

    def test_agrees_with_the_dataclass_equality(self):
        rng = random.Random(2307)
        seen = set()
        for _ in range(3000):
            t = rebound(rng, gen_term(rng, 12, depth=2), 0.7)
            if rng.random() < 0.2:
                t = malformed(rng, t)
            kind = rng.choice(("copy", "shared", "binders", "malformed", "other"))
            if kind == "copy":
                u = rebuilt(rng, t)
            elif kind == "shared":
                u = rebuilt(rng, t, keep=0.3)
            elif kind == "binders":
                u = rebound(rng, rebuilt(rng, t), 0.3)
            elif kind == "malformed":
                u = malformed(rng, rebuilt(rng, t))
            else:
                u = rebound(rng, gen_term(rng, 12, depth=2), 0.7)
            expected = ref.term_eq(t, u)
            assert ref.term_eq(u, t) == expected
            assert (t == u) == expected and (u == t) == expected, (kind, t, u)
            assert (t != u) == (not expected)
            if expected:
                assert hash(t) == hash(u)
            seen.add((kind, expected))
        assert seen >= {("copy", True), ("shared", True), ("binders", True), ("binders", False)}
        assert seen >= {("malformed", False), ("other", False)}

    def test_fixed_rows(self):
        x = fvar("x")
        rows = [
            (Abs(x), TAbs(BASE, x), False),
            (TAbs(BASE, x), TAbs(BASE, Free("x")), True),
            (TAbs(BASE, x), TAbs(Arrow(BASE, BASE), x), False),
            (App(None, "junk"), App(None, "".join("junk")), True),
            (App(None, "junk"), App(None, "other"), False),
            (Abs(App(x, None)), Abs(App(x, x)), False),
        ]
        for a, b, expected in rows:
            assert ref.term_eq(a, b) == expected
            assert (a == b) == expected and (b == a) == expected, (a, b)
            if expected:
                assert hash(a) == hash(b)

    def test_a_non_term_operand(self):
        t = parse("\\x. x y")
        for other in (None, "\\x. x y", 3, Op(1, ()), NfTerm(t)):
            assert type(t).__eq__(t, other) is NotImplemented
            assert not t == other and t != other
            assert not ref.term_eq(t, other)

    @pytest.mark.parametrize("limit", (1000, 4000))
    def test_deep_terms_at_both_recursion_limits(self, limit):
        def exp(n):  # Church 2^n
            return f"(\\m. \\n. n m) (\\f. \\x. f (f x)) (\\f. \\x. {'f (' * n}x{')' * n})"

        succ = "(\\n. \\f. \\x. f (n f x)) "
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(limit)
        try:
            nf = normalize(parse(exp(9))).term
            assert nf == parse(show(nf))
            assert nf != normalize(parse(succ + "(" + exp(9) + ")")).term
            for shape in ("\\x. " * 20000 + "x {}", "f (" * 20000 + "{}" + ")" * 20000):
                t = parse(shape.format("y"))
                assert t == parse(shape.format("y"))
                assert t != parse(shape.format("z"))
        finally:
            sys.setrecursionlimit(saved)


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
        assert check_monad_laws(NF, samples=200, seed=0).passed


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

    def test_inequivalent_terms_are_refuted_at_once(self):
        # Sixteen independent redexes put 2^16 terms in reach, but no term
        # beta-eta equivalent to this one is g: comparing normal forms
        # answers without the search.
        t = parse("f " + " ".join(f"((\\x. x) a{i})" for i in range(1, 17)))
        start = time.perf_counter()
        assert not preorder_leq(t, parse("g"))
        assert time.perf_counter() - start < 0.05

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

    def test_roundtrip_past_the_recursion_limit(self):
        for text in ("\\x. " * 20000 + "x y", "f (" * 20000 + "\\y. y" + ")" * 20000):
            t = parse(text)
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
        assert parse("\\x. (\\x. x) x") == Abs(App(Abs(bvar(0)), bvar(0)))

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

    def square(self, instance, name):
        return next(row for row in catalog.linearity_squares()[instance] if row[0] == name)

    def test_scope_derived_module_laws(self):
        src = self.square("lc", "abs")[1]
        assert src.name == "lc-scope-derived"
        assert check_module_laws(src, samples=200, seed=0).passed

    def test_scope_derived_nf_module_laws(self):
        src = self.square("nf", "abs")[1]
        assert src.name == "nf-scope-derived"
        assert check_module_laws(src, samples=200, seed=0).passed

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
        assert ref.lam_free_names(parse("\\x. x y z")) == {"y", "z"}

    @given(lc_terms(1, binders=MIXED_BINDERS))
    def test_free_names_are_the_printed_names(self, t):
        # Named printing invents only v0, v1, ... for binders, so every
        # other name it prints is free.
        printed = re.findall(r"[^\W\d]\w*", show(t))
        assert ref.lam_free_names(t) == {w for w in printed if not w.startswith("v")}

    def test_free_names_past_the_recursion_limit(self):
        t = fvar("x")
        for k in range(5000):
            t = Abs(App(t, fvar(f"y{k % 3}")))
        assert ref.lam_free_names(t) == {"x", "y0", "y1", "y2"}

    def test_free_names_rejects_what_is_not_a_term(self):
        with pytest.raises(MalformedTermError, match="not a lambda term: 'z'"):
            ref.lam_free_names(App(Abs(fvar("x")), App("z", 3)))
