"""Simply typed lambda calculus and sort-indexed lists.

Both syntaxes live over fibered alphabets: a typed free variable is its
TFree node, a name with a declared type, as a list variable is its LVar,
a name with a sort, so both units are the identity; substitution is
checked to preserve the fiber.  Typed terms are terms of the untyped
module whose free variables carry types and whose abstractions record
their binder types, so checking is syntax-directed while shifting,
reduction and printing run on the untyped engine unchanged.

Simple types are interned (hash-consed): BaseType() is BASE and Arrow(d,
c) returns one canonical instance per pair, so two types are equal
exactly when they are the same object, and types compare and hash by
identity.

A typed term can carry its type in a slot on the node, the instance
attribute _type, and a list term its sort in _sort.  Only this module
writes them, and only with what type_of or tlist_sort would return:
stlc_subst and tlist_subst keep an image's type or sort there once it
succeeds, so an ill-typed image raises on every call; gen_typed_term
writes its target on a closed term it built, which is well typed at that
type by construction, and gen_tlist writes a nonnegative sort it built
at.  Substitution never copies a slot from its input to its output: the
output can use a free name at two types (f:* -> * applied to y:*, with
y mapped to f:*) and not type at all.  Neither slot is a dataclass
field, so equality, hashing, repr and dataclasses.replace do not see
them; copy and pickle carry them, and a copied type is the canonical
one.  Nodes are immutable, so a kept type or sort stays right.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional

from .errors import MalformedTermError, TypeCheckError
from .fuel import DEFAULT_FUEL, Fuel
from .harness import ModuleInstance, MonadInstance
from .lam import (
    _BODY,
    Abs,
    App,
    _expect,
    _set_body,
    parse_binding,
    reduce_to_normal,
    show,
)
from .terms import Bound, Free

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
    """Print a type, '->' right-associative and a domain that is an arrow
    in parentheses.  Pending types and text wait on an explicit stack of
    (is_text, item) pairs, so nesting is bounded by memory."""
    out: list[str] = []
    todo: list[tuple[bool, object]] = [(False, t)]
    while todo:
        is_text, t = todo.pop()
        if is_text:
            out.append(t)
        elif isinstance(t, BaseType):
            out.append("*")
        elif isinstance(t, Arrow):
            if isinstance(t.dom, Arrow):
                out.append("(")
                todo += ((False, t.cod), (True, ") -> "), (False, t.dom))
            else:
                todo += ((False, t.cod), (True, " -> "), (False, t.dom))
        else:
            raise MalformedTermError(f"not a type: {t!r}")
    return "".join(out)


# ---------- terms ----------


@dataclass(frozen=True)
class TFree(Free):
    """A free variable with its declared type."""

    type: SimpleType


TVar = TFree | Bound  # a type, for annotations and isinstance
TApp = App


@dataclass(frozen=True, init=False, eq=False, unsafe_hash=True)
class TAbs(Abs):
    """An abstraction with its binder type; built and matched as
    TAbs(binder_type, body)."""

    __slots__ = ("binder_type",)
    binder_type: SimpleType
    __match_args__ = ("binder_type", "body")

    def __init__(self, binder_type: SimpleType, body: "StlcTerm"):
        # As lam's nodes do: through the slot descriptors, past the frozen
        # __setattr__, so the instance __dict__ holds only marks and _type.
        _set_binder_type(self, binder_type)
        _set_body(self, body)

    def __reduce__(self):
        return TAbs, (self.binder_type, self.body), self.__dict__ or None

    def with_body(self, body: "StlcTerm") -> "TAbs":
        return TAbs(self.binder_type, body)

    @property
    def annotation(self) -> str:
        return ":" + show_type(self.binder_type)


_set_binder_type = TAbs.binder_type.__set__

StlcTerm = TVar | TApp | TAbs


def free_types(t: StlcTerm) -> dict[str, SimpleType]:
    """The type each free name of a term declares, found by a loop with
    isinstance tests: type_of reads a term's context here."""
    out: dict[str, SimpleType] = {}
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.fun, t.arg)
        elif isinstance(t, TAbs):
            todo.append(t.body)
        elif isinstance(t, TFree):
            if out.setdefault(t.name, t.type) is not t.type:
                raise TypeCheckError(f"free name {t.name!r} used at two types")
        elif not isinstance(t, Bound):
            raise MalformedTermError(f"not a typed term: {t!r}")
    return out


_PARTS_TYPED = object()  # typecheck's marker: the node below it has its parts typed


def typecheck(ctx: Mapping[str, SimpleType], t: StlcTerm) -> SimpleType:
    """Synthesize the type of a term, syntax-directed.

    The context must agree with every declared free type; bound
    variables take the recorded binder types.  Errors carry the
    offending subterm.  The walk runs on an explicit stack, so nesting is
    bounded by memory; it types a function before its argument and a
    node after its parts, so it raises the error a recursive walk meets
    first.
    """
    binders: list[SimpleType] = []  # the open binders' types, innermost last
    types: list[SimpleType] = []  # the types of typed subterms not yet used
    todo: list = [t]  # terms to type; a node under _PARTS_TYPED has its parts typed
    while todo:
        t = todo.pop()
        if t is _PARTS_TYPED:
            t = todo.pop()
            if isinstance(t, TAbs):
                binders.pop()
                types.append(Arrow(t.binder_type, types.pop()))
                continue
            ta = types.pop()
            tf = types.pop()
            if not isinstance(tf, Arrow):
                raise TypeCheckError(
                    f"applied a non-function of type {show_type(tf)} in {show(t)}"
                )
            if tf.dom is not ta:
                raise TypeCheckError(
                    f"argument type {show_type(ta)} does not match "
                    f"{show_type(tf.dom)} in {show(t)}"
                )
            types.append(tf.cod)
        elif isinstance(t, App):
            todo += (t, _PARTS_TYPED, t.arg, t.fun)
        elif isinstance(t, TAbs):
            binders.append(t.binder_type)
            todo += (t, _PARTS_TYPED, t.body)
        elif isinstance(t, TFree):
            name, ty = t.name, t.type
            if name not in ctx:
                raise TypeCheckError(f"unbound free name {name!r}")
            if ctx[name] is not ty:
                raise TypeCheckError(
                    f"free name {name!r} declared {show_type(ty)} "
                    f"but context gives {show_type(ctx[name])}"
                )
            types.append(ty)
        elif isinstance(t, Bound):
            k = t.index
            if not 0 <= k < len(binders):
                raise TypeCheckError(f"bound index {k} escapes its scope")
            types.append(binders[-1 - k])
        else:
            raise MalformedTermError(f"not a typed term: {t!r}")
    return types.pop()


def type_of(t: StlcTerm) -> SimpleType:
    """Typecheck against the context read off the term's own frees."""
    return typecheck(free_types(t), t)


def _kept(img, slot: str, compute: Callable):
    # compute(img), kept in the image's slot once it succeeds.  A slot
    # already set holds what compute would return: only this module writes
    # it, here or in the generator that built the term at that type or
    # sort.  Callers look compute up at each call, so a function that
    # replaces the module global (a monkeypatch, a profiling wrapper) is
    # the one run.
    value = getattr(img, slot, None)
    if value is None:
        value = compute(img)
        object.__setattr__(img, slot, value)
    return value


def stlc_subst(s: Mapping[str, StlcTerm], t: StlcTerm) -> StlcTerm:
    """Type-checked substitution of free names in one walk of the term.

    Every image is typed first, at most once per image object (its type
    slot, which gen_typed_term fills for the closed terms it builds); an
    image that fails to type raises.  Then one walk of t, in
    free_types' order, rejects a leaf that is not a typed term and a free
    name declared at two types, and replaces each name that s maps.  An
    occurrence whose declared type differs from its image's type is an
    error too, reported after the walk: of several, the first by name.
    An image that types is closed (typecheck rejects a dangling index),
    so shifting it under binders is the identity and the walk places the
    image itself.  Subterms with nothing replaced are shared with t.  The
    walk keeps the nodes it is inside on an explicit stack, so nesting is
    bounded by memory.
    """
    image_types = {name: _kept(img, "_type", type_of) for name, img in s.items()}
    declared: dict[str, SimpleType] = {}
    clashes: list[str] = []
    stack = []  # (node, _BODY or the new argument once walked, else None) of each enclosing one
    while True:
        if isinstance(t, TFree):
            name = t.name
            ty = declared.setdefault(name, t.type)
            if ty is not t.type:
                raise TypeCheckError(f"free name {name!r} used at two types")
            if name in s:
                if image_types[name] is not ty:
                    clashes.append(name)
                t = s[name]
        elif isinstance(t, App):
            # The argument first, as free_types pops it first.
            stack.append((t, None))
            t = t.arg
            continue
        elif isinstance(t, TAbs):
            stack.append((t, _BODY))
            t = t.body
            continue
        elif not isinstance(t, Bound):
            raise MalformedTermError(f"not a typed term: {t!r}")
        while stack:
            node, a = stack.pop()
            if a is None:
                stack.append((node, t))
                t = node.fun
                break
            if a is _BODY:
                t = node if t is node.body else TAbs(node.binder_type, t)
            else:
                t = node if t is node.fun and a is node.arg else App(t, a)
        else:
            break
    if clashes:
        name = min(clashes)
        raise TypeCheckError(
            f"image for {name!r} has type {show_type(image_types[name])}, "
            f"occurrence declares {show_type(declared[name])}"
        )
    return t


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
#   type ::= '*' | '(' type ')' | type '->' type    ('->' right-associative)
#
# Free variables have no annotation in the grammar and are declared at
# the base type.  Parsing and printing are lam's: a typed binder reads
# its type after the name, and printing reads it off the node.


def parse_stlc(text: str) -> StlcTerm:
    return parse_binding(text, _typed_binder, lambda name: TFree(name, BASE))


def _typed_binder(text: str, tokens: list[str], i: int) -> tuple[Callable[[StlcTerm], TAbs], int]:
    i = _expect(text, tokens, i, ":", "expected ':' after binder")
    ty, i = _parse_type(text, tokens, i)
    return partial(TAbs, ty), _expect(text, tokens, i, ".", "expected '.' after binder type")


def _parse_type(text: str, tokens: list[str], i: int) -> tuple[SimpleType, int]:
    # The type from token i on, with the index after it.  An arrow chain
    # is folded to the right when it ends; the chains outside each open
    # parenthesis wait on a stack.
    outer: list[list[SimpleType]] = []
    chain: list[SimpleType] = []  # the arrow chain read so far, its last type still to come
    while True:
        if tokens[i] == "(":
            outer.append(chain)
            chain = []
            i += 1
            continue
        i = _expect(text, tokens, i, "*", "expected a type")
        ty = BASE
        while tokens[i] != "->":
            for dom in reversed(chain):
                ty = Arrow(dom, ty)
            if not outer:
                return ty, i
            i = _expect(text, tokens, i, ")", "expected ')'")
            chain = outer.pop()
        chain.append(ty)
        i += 1


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
    ty: tuple(tf for tf in STLC_POOL if tf.type is ty)
    for ty in dict.fromkeys(tf.type for tf in STLC_POOL)
}

# gen_typed_term's leaf candidates for each (type, binder types): the
# bound variables of that type, innermost first, then the pool's.  Types
# are interned, so keys compare by identity; variables are immutable, so
# one tuple serves every leaf.
_LEAVES: dict[tuple[SimpleType, tuple[SimpleType, ...]], tuple[StlcTerm, ...]] = {}


def gen_typed_term(
    rng: random.Random,
    target: Optional[SimpleType] = None,
    max_size: int = 12,
    binders: tuple[SimpleType, ...] = (),
) -> StlcTerm:
    """A random well-typed term of the target type, built top-down.

    With no binders the term is closed and its frees are pool names at
    their pool types, so it types at the target: the target is written
    to its type slot, and stlc_subst does not type it again as an image.
    """
    if target is None:
        target = STLC_TYPES[rng.randrange(len(STLC_TYPES))]

    def leaf(ty: SimpleType, binders: tuple[SimpleType, ...]) -> StlcTerm:
        opts = _LEAVES.get((ty, binders))
        if opts is None:
            opts = _LEAVES[ty, binders] = (
                *(Bound(i) for i, b in enumerate(binders) if b is ty),
                *_POOL_VARS.get(ty, ()),
            )
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
        k = rng.randrange(1, budget)
        fun = go(Arrow(dom, ty), k, binders)
        arg = go(dom, budget - 1 - k, binders)
        return TApp(fun, arg)

    t = go(target, rng.randrange(1, max_size + 1), binders)
    if not binders:
        object.__setattr__(t, "_type", target)
    return t


def _gen_stlc_subst(rng: random.Random) -> dict:
    return {
        tf.name: gen_typed_term(rng, tf.type, max_size=6)
        for tf in STLC_POOL
        if rng.random() < 0.35
    }


STLC = MonadInstance(
    name="stlc",
    names=STLC_POOL,
    unit=lambda tf: tf,
    bind=stlc_subst,
    gen_value=lambda rng: gen_typed_term(rng),
    gen_subst=_gen_stlc_subst,
    show_value=show,
    key=lambda tf: tf.name,
    show_name=lambda tf: f"{tf.name}:{show_type(tf.type)}",
)


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
    declared sort of the occurrences it replaces.  Every image is sorted
    first, at most once per image object (its sort slot); then one walk
    of t replaces the names s maps.  Cons cells with nothing replaced
    are shared with t."""
    image_sorts = {name: _kept(img, "_sort", tlist_sort) for name, img in s.items()}

    def go(t: TListTerm) -> TListTerm:
        if isinstance(t, LVar):
            name = t.name
            if name in s:
                if image_sorts[name] != t.sort:
                    raise TypeCheckError(
                        f"image for {name!r} has sort {image_sorts[name]}, "
                        f"occurrence declares {t.sort}"
                    )
                return s[name]
            return t
        if isinstance(t, Cons):
            h = go(t.head)
            tl = go(t.tail)
            return t if h is t.head and tl is t.tail else Cons(h, tl)
        if isinstance(t, Nil):
            return t
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


def show_tlist(t: TListTerm) -> str:
    """Print as name@sort, nil@sort or cons(head, tail), a form for
    reports only: no reader parses it."""
    match t:
        case LVar(name, sort):
            return f"{name}@{sort}"
        case Nil(element_sort):
            return f"nil@{element_sort}"
        case Cons(h, tl):
            return f"cons({show_tlist(h)}, {show_tlist(tl)})"
    raise MalformedTermError(f"not a typed list term: {t!r}")


TLIST_POOL = (
    LVar("x", 0),
    LVar("y", 0),
    LVar("xs", 1),
    LVar("ys", 1),
    LVar("xss", 2),
)


# The pool's variables of each sort, in TLIST_POOL order.
_TLIST_VARS = {
    sort: tuple(v for v in TLIST_POOL if v.sort == sort)
    for sort in dict.fromkeys(v.sort for v in TLIST_POOL)
}


def gen_tlist(rng: random.Random, sort: Optional[int] = None, max_size: int = 8) -> TListTerm:
    """A random list term of the sort, built top-down.  A nonnegative
    sort is what tlist_sort finds, so it is written to the sort slot; a
    negative one builds an ill-sorted term, which gets no slot."""
    if sort is None:
        sort = rng.randrange(3)

    def go(sort: int, budget: int) -> TListTerm:
        opts = _TLIST_VARS.get(sort, ())
        if sort == 0:
            return opts[rng.randrange(len(opts))]
        if budget <= 1 or rng.random() < 0.3:
            if opts and rng.random() < 0.6:
                return opts[rng.randrange(len(opts))]
            return Nil(sort - 1)
        k = rng.randrange(1, budget)
        return Cons(go(sort - 1, k), go(sort, budget - 1 - k))

    t = go(sort, rng.randrange(1, max_size + 1))
    if sort >= 0:
        object.__setattr__(t, "_sort", sort)
    return t


TLIST = MonadInstance(
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


def shifted_tlist_module() -> ModuleInstance:
    """Lists with every sort one higher, acted on by substituting the
    shifted images: the target of tlist_shift as a linear map."""
    return ModuleInstance(
        name="tlist+1",
        monad=TLIST,
        mbind=lambda s, v: tlist_subst({k: tlist_shift(img) for k, img in s.items()}, v),
        gen_value=lambda rng: tlist_shift(gen_tlist(rng)),
        show_value=show_tlist,
    )
