"""Simply typed lambda calculus and sort-indexed lists.

Both syntaxes live over fibered alphabets: a typed free variable pairs a
name with a declared type (or sort), and substitution is checked to
preserve the fiber.  Typed terms are terms of the untyped module whose
free variables carry types and whose abstractions record their binder
types, so checking is syntax-directed while shifting, reduction and
printing run on the untyped engine unchanged.

Simple types are interned (hash-consed): BaseType() is BASE and Arrow(d,
c) returns one canonical instance per pair, so two types are equal
exactly when they are the same object, and types compare and hash by
identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Optional

from .errors import MalformedTermError, ParseError, TypeCheckError
from .fuel import DEFAULT_FUEL, Fuel
from .harness import ModuleInstance, MonadInstance
from .lam import (
    Abs,
    App,
    parse_binding,
    reduce_to_normal,
    show,
    subst,
)
from .scan import end_of_input, expect, ident, nat, skip_ws
from .terms import Bound, Free, Var

# ---------- simple types ----------


@dataclass(frozen=True, eq=False)
class BaseType:
    """The base type *; BaseType() is the one instance BASE."""

    def __new__(cls):
        return BASE


@dataclass(frozen=True, eq=False, init=False)
class Arrow:
    """The function type dom -> cod.  Arrow(dom, cod) returns the one
    instance for that pair of (interned) types."""

    dom: "SimpleType"
    cod: "SimpleType"

    def __new__(cls, dom: "SimpleType", cod: "SimpleType"):
        # Keyed by identity: the table keeps dom and cod alive, so no id
        # in it is ever reused by another object.
        key = (id(dom), id(cod))
        arrow = _ARROWS.get(key)
        if arrow is None:
            arrow = _ARROWS[key] = object.__new__(cls)
            object.__setattr__(arrow, "dom", dom)
            object.__setattr__(arrow, "cod", cod)
        return arrow

    def __reduce__(self):
        # copy and pickle rebuild through Arrow(dom, cod): copies are canonical.
        return Arrow, (self.dom, self.cod)


SimpleType = BaseType | Arrow

BASE = object.__new__(BaseType)
_ARROWS: dict[tuple[int, int], Arrow] = {}


def show_type(t: SimpleType) -> str:
    match t:
        case BaseType():
            return "*"
        case Arrow(d, c):
            left = show_type(d)
            if isinstance(d, Arrow):
                left = f"({left})"
            return f"{left} -> {show_type(c)}"
    raise MalformedTermError(f"not a type: {t!r}")


# ---------- terms ----------


@dataclass(frozen=True)
class TFree(Free):
    """A free variable with its declared type."""

    type: SimpleType


TVar = Var
TApp = App


@dataclass(frozen=True, init=False)
class TAbs(Abs):
    """An abstraction with its binder type; built and matched as
    TAbs(binder_type, body)."""

    binder_type: SimpleType
    __match_args__ = ("binder_type", "body")

    def __init__(self, binder_type: SimpleType, body: "StlcTerm"):
        object.__setattr__(self, "binder_type", binder_type)
        object.__setattr__(self, "body", body)

    def with_body(self, body: "StlcTerm") -> "TAbs":
        return TAbs(self.binder_type, body)

    @property
    def annotation(self) -> str:
        return ":" + show_type(self.binder_type)


StlcTerm = TVar | TApp | TAbs


def free_types(t: StlcTerm) -> dict[str, SimpleType]:
    """The type each free name of a term declares, found by a loop with
    isinstance tests: stlc_subst walks its term and every image here."""
    out: dict[str, SimpleType] = {}
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.fun, t.arg)
        elif isinstance(t, TAbs):
            todo.append(t.body)
        elif isinstance(t, Var) and isinstance(t.ref, TFree):
            if out.setdefault(t.ref.name, t.ref.type) is not t.ref.type:
                raise TypeCheckError(f"free name {t.ref.name!r} used at two types")
        elif not (isinstance(t, Var) and isinstance(t.ref, Bound)):
            raise MalformedTermError(f"not a typed term: {t!r}")
    return out


def typecheck(
    ctx: Mapping[str, SimpleType], t: StlcTerm, _binders: tuple[SimpleType, ...] = ()
) -> SimpleType:
    """Synthesize the type of a term, syntax-directed.

    The context must agree with every declared free type; bound
    variables take the recorded binder types.  Errors carry the
    offending subterm.
    """
    match t:
        case TVar(TFree(name, ty)):
            if name not in ctx:
                raise TypeCheckError(f"unbound free name {name!r}")
            if ctx[name] is not ty:
                raise TypeCheckError(
                    f"free name {name!r} declared {show_type(ty)} "
                    f"but context gives {show_type(ctx[name])}"
                )
            return ty
        case TVar(Bound(k)):
            if not 0 <= k < len(_binders):
                raise TypeCheckError(f"bound index {k} escapes its scope")
            return _binders[k]
        case TApp(f, a):
            tf = typecheck(ctx, f, _binders)
            ta = typecheck(ctx, a, _binders)
            if not isinstance(tf, Arrow):
                raise TypeCheckError(
                    f"applied a non-function of type {show_type(tf)} in {show(t)}"
                )
            if tf.dom is not ta:
                raise TypeCheckError(
                    f"argument type {show_type(ta)} does not match "
                    f"{show_type(tf.dom)} in {show(t)}"
                )
            return tf.cod
        case TAbs(ty, b):
            return Arrow(ty, typecheck(ctx, b, (ty,) + _binders))
    raise MalformedTermError(f"not a typed term: {t!r}")


def type_of(t: StlcTerm) -> SimpleType:
    """Typecheck against the context read off the term's own frees."""
    return typecheck(free_types(t), t)


def stlc_subst(s: Mapping[str, StlcTerm], t: StlcTerm) -> StlcTerm:
    """Type-checked substitution of free names, on lam's engine.

    Every image is synthesized once up front; an occurrence whose
    declared type differs from its image's type is an error (of several,
    the first by name is reported), and so is a term that declares one
    free name at two types.
    """
    image_types = {name: type_of(img) for name, img in s.items()}
    declared = free_types(t)
    for name in sorted(declared.keys() & image_types.keys()):
        if image_types[name] is not declared[name]:
            raise TypeCheckError(
                f"image for {name!r} has type {show_type(image_types[name])}, "
                f"occurrence declares {show_type(declared[name])}"
            )
    return subst(s, t)


def stlc_normalize(t: StlcTerm, fuel: Fuel | int = DEFAULT_FUEL) -> StlcTerm:
    """The beta-eta normal form by lam.reduce_to_normal, on lam's engine;
    binder types survive every step.  A term nested deeper than
    lam.MAX_DEPTH raises DepthLimit, a kind of exhaustion."""
    return reduce_to_normal(t, fuel)


# ---------- printing and parsing ----------
#
#   term ::= '\' ident ':' type '.' term | app
#   app  ::= atom+
#   atom ::= ident | '(' term ')'
#   type ::= '*' | type '->' type          (right-associative)
#
# Free variables have no annotation in the grammar and are declared at
# the base type.  Parsing and printing are lam's: a typed binder reads
# its type after the name, and printing reads it off the node.


def parse_stlc(text: str) -> StlcTerm:
    return parse_binding(text, _typed_binder, lambda name: TVar(TFree(name, BASE)))


def _typed_binder(text: str, pos: int) -> tuple[Callable[[StlcTerm], TAbs], int]:
    pos = expect(text, pos, ":", "expected ':' after binder")
    ty, pos = _parse_type(text, pos)
    return partial(TAbs, ty), expect(text, pos, ".", "expected '.' after binder type")


def _parse_type(text: str, pos: int) -> tuple[SimpleType, int]:
    pos = skip_ws(text, pos)
    if text.startswith("*", pos):
        left, pos = BASE, pos + 1
    elif text.startswith("(", pos):
        left, pos = _parse_type(text, pos + 1)
        pos = expect(text, pos, ")", "expected ')'")
    else:
        raise ParseError("expected a type", pos)
    pos = skip_ws(text, pos)
    if text.startswith("->", pos):
        right, pos = _parse_type(text, pos + 2)
        return Arrow(left, right), pos
    return left, pos


# ---------- generators ----------

STLC_TYPES = (
    BASE,
    Arrow(BASE, BASE),
    Arrow(Arrow(BASE, BASE), BASE),
    Arrow(BASE, Arrow(BASE, BASE)),
)

#: A fixed fibered alphabet: one declared type per pool name.
STLC_POOL = (
    TFree("x", BASE),
    TFree("y", BASE),
    TFree("f", Arrow(BASE, BASE)),
    TFree("g", Arrow(BASE, BASE)),
    TFree("h", Arrow(Arrow(BASE, BASE), BASE)),
    TFree("k", Arrow(BASE, Arrow(BASE, BASE))),
)

# The pool's variables of each type, in STLC_POOL order.
_POOL_VARS = {
    ty: tuple(TVar(tf) for tf in STLC_POOL if tf.type is ty)
    for ty in dict.fromkeys(tf.type for tf in STLC_POOL)
}


def gen_typed_term(
    rng: random.Random,
    target: Optional[SimpleType] = None,
    max_size: int = 12,
    binders: tuple[SimpleType, ...] = (),
) -> StlcTerm:
    """A random well-typed term of the target type, built top-down."""
    if target is None:
        target = STLC_TYPES[rng.randrange(len(STLC_TYPES))]

    def candidates(ty: SimpleType, binders: tuple[SimpleType, ...]) -> list[StlcTerm]:
        out: list[StlcTerm] = [TVar(Bound(i)) for i, b in enumerate(binders) if b is ty]
        out.extend(_POOL_VARS.get(ty, ()))
        return out

    def leaf(ty: SimpleType, binders: tuple[SimpleType, ...]) -> StlcTerm:
        opts = candidates(ty, binders)
        if opts:
            return opts[rng.randrange(len(opts))]
        # No variable of this type in scope: eta-expand toward one.
        assert isinstance(ty, Arrow)
        return TAbs(ty.dom, leaf(ty.cod, (ty.dom,) + binders))

    def go(ty: SimpleType, budget: int, binders: tuple[SimpleType, ...]) -> StlcTerm:
        if budget <= 1 or rng.random() < 0.3:
            return leaf(ty, binders)
        if isinstance(ty, Arrow) and rng.random() < 0.5:
            return TAbs(ty.dom, go(ty.cod, budget - 1, (ty.dom,) + binders))
        dom = STLC_TYPES[rng.randrange(len(STLC_TYPES))]
        k = rng.randint(1, budget - 1)
        fun = go(Arrow(dom, ty), k, binders)
        arg = go(dom, budget - 1 - k, binders)
        return TApp(fun, arg)

    return go(target, rng.randint(1, max_size), binders)


def _gen_stlc_subst(rng: random.Random) -> dict:
    return {
        tf.name: gen_typed_term(rng, tf.type, max_size=6)
        for tf in STLC_POOL
        if rng.random() < 0.35
    }


def stlc_monad() -> MonadInstance:
    return MonadInstance(
        name="stlc",
        names=STLC_POOL,
        unit=TVar,
        bind=stlc_subst,
        gen_value=lambda rng: gen_typed_term(rng),
        gen_subst=_gen_stlc_subst,
        show_value=show,
        key=lambda tf: tf.name,
        show_name=lambda tf: f"{tf.name}:{show_type(tf.type)}",
    )


def fiber_module(ty: SimpleType) -> ModuleInstance:
    """Terms of one fixed type, acted on by typed substitution."""
    return ModuleInstance(
        name=f"stlc@{show_type(ty)}",
        monad=STLC,
        mbind=stlc_subst,
        gen_value=lambda rng: gen_typed_term(rng, ty, max_size=10),
        show_value=show,
    )


def scope_extended_module(slot_type: SimpleType, ty: SimpleType) -> ModuleInstance:
    """The partial derivative at slot_type of the fiber at ty: terms one
    scope deeper, the dangling index typed slot_type by convention."""
    return ModuleInstance(
        name=f"stlc-d{show_type(slot_type)}@{show_type(ty)}",
        monad=STLC,
        mbind=stlc_subst,
        gen_value=lambda rng: gen_typed_term(rng, ty, max_size=8, binders=(slot_type,)),
        show_value=show,
    )


def _normal_forms(mod: ModuleInstance, name: str) -> ModuleInstance:
    # The carrier's normal forms, acted on by substitute-then-normalize.
    return replace(
        mod,
        name=name,
        mbind=lambda s, t: stlc_normalize(stlc_subst(s, t)),
        gen_value=lambda rng: stlc_normalize(mod.gen_value(rng)),
    )


def semantic_fiber_module(ty: SimpleType) -> ModuleInstance:
    """Normal forms of one fixed type, acted on by substitute-then-normalize."""
    return _normal_forms(fiber_module(ty), f"stlc-nf@{show_type(ty)}")


def semantic_scope_extended_module(slot_type: SimpleType, ty: SimpleType) -> ModuleInstance:
    name = f"stlc-nf-d{show_type(slot_type)}@{show_type(ty)}"
    return _normal_forms(scope_extended_module(slot_type, ty), name)


STLC = stlc_monad()


# ---------- sort-indexed lists ----------
#
# Sorts are depths: a list whose elements have sort k has sort k+1.


@dataclass(frozen=True)
class LVar:
    name: str
    sort: int


@dataclass(frozen=True)
class Nil:
    element_sort: int


@dataclass(frozen=True)
class Cons:
    head: "TListTerm"
    tail: "TListTerm"


TListTerm = LVar | Nil | Cons


def tlist_sort(t: TListTerm) -> int:
    """The sort of a term; raises on a sort-discipline violation."""
    match t:
        case LVar(_, sort):
            if sort < 0:
                raise TypeCheckError(f"negative sort in {t!r}")
            return sort
        case Nil(element_sort):
            if element_sort < 0:
                raise TypeCheckError(f"negative sort in {t!r}")
            return element_sort + 1
        case Cons(h, tl):
            hs = tlist_sort(h)
            ts = tlist_sort(tl)
            if ts != hs + 1:
                raise TypeCheckError(
                    f"cons of a sort-{hs} head onto a sort-{ts} tail in {show_tlist(t)}"
                )
            return hs + 1
    raise MalformedTermError(f"not a typed list term: {t!r}")


def tlist_subst(s: Mapping[str, TListTerm], t: TListTerm) -> TListTerm:
    """Sort-checked substitution: each image's sort must equal the
    declared sort of the occurrences it replaces."""
    image_sorts = {name: tlist_sort(img) for name, img in s.items()}

    def go(t: TListTerm) -> TListTerm:
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


def tlist_shift(t: TListTerm, by: int = 1) -> TListTerm:
    """Add `by` to every sort annotation (the sort-shift functor on values)."""
    match t:
        case LVar(name, sort):
            return LVar(name, sort + by)
        case Nil(element_sort):
            return Nil(element_sort + by)
        case Cons(h, tl):
            return Cons(tlist_shift(h, by), tlist_shift(tl, by))
    raise MalformedTermError(f"not a typed list term: {t!r}")


# Grammar: t ::= ident '@' nat | 'nil' '@' nat | 'cons' '(' t ',' t ')'


def show_tlist(t: TListTerm) -> str:
    match t:
        case LVar(name, sort):
            return f"{name}@{sort}"
        case Nil(element_sort):
            return f"nil@{element_sort}"
        case Cons(h, tl):
            return f"cons({show_tlist(h)}, {show_tlist(tl)})"
    raise MalformedTermError(f"not a typed list term: {t!r}")


def parse_tlist(text: str) -> TListTerm:
    pos = 0

    def at_sort() -> int:
        nonlocal pos
        sort, pos = nat(text, expect(text, pos, "@", "expected '@sort'"), "expected a sort")
        return sort

    def term() -> TListTerm:
        nonlocal pos
        name, pos = ident(text, skip_ws(text, pos))
        if name == "nil":
            return Nil(at_sort())
        if name == "cons":
            pos = expect(text, pos, "(", "expected '(' after cons")
            h = term()
            pos = expect(text, pos, ",", "expected ','")
            tl = term()
            pos = expect(text, pos, ")", "expected ')'")
            return Cons(h, tl)
        return LVar(name, at_sort())

    out = term()
    end_of_input(text, pos)
    return out


TLIST_POOL = (
    LVar("x", 0),
    LVar("y", 0),
    LVar("xs", 1),
    LVar("ys", 1),
    LVar("xss", 2),
)


def gen_tlist(rng: random.Random, sort: Optional[int] = None, max_size: int = 8) -> TListTerm:
    if sort is None:
        sort = rng.randrange(3)

    def vars_at(sort: int) -> list[LVar]:
        return [v for v in TLIST_POOL if v.sort == sort]

    def go(sort: int, budget: int) -> TListTerm:
        opts = vars_at(sort)
        if sort == 0:
            return opts[rng.randrange(len(opts))]
        if budget <= 1 or rng.random() < 0.3:
            if opts and rng.random() < 0.6:
                return opts[rng.randrange(len(opts))]
            return Nil(sort - 1)
        k = rng.randint(1, budget - 1)
        return Cons(go(sort - 1, k), go(sort, budget - 1 - k))

    return go(sort, rng.randint(1, max_size))


def tlist_monad() -> MonadInstance:
    return MonadInstance(
        name="tlist",
        names=TLIST_POOL,
        unit=lambda v: v,
        bind=tlist_subst,
        gen_value=lambda rng: gen_tlist(rng),
        gen_subst=lambda rng: {
            v.name: gen_tlist(rng, v.sort, max_size=5)
            for v in TLIST_POOL
            if rng.random() < 0.35
        },
        show_value=show_tlist,
        key=lambda v: v.name,
        show_name=show_tlist,
    )


def tlist_sort_module(sort: int) -> ModuleInstance:
    """Terms of one fixed sort under sort-checked substitution."""
    return ModuleInstance(
        name=f"tlist@{sort}",
        monad=TLIST,
        mbind=tlist_subst,
        gen_value=lambda rng: gen_tlist(rng, sort),
        show_value=show_tlist,
    )


TLIST = tlist_monad()

