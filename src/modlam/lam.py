"""Untyped lambda calculus: syntax, reduction, normal forms, and the
initial representation's fold into normal forms.

Terms use the same variable discipline as the generic core: bound
variables are de Bruijn indices, free variables are names, substitution
rewrites names only.  Reduction is leftmost-outermost beta to normal
form, eta-contracting each abstraction as it is closed; eta contraction
can be postponed past beta and beta-normal forms are closed under it,
so this reaches the beta-eta normal form in one pass.

Normal forms carry a monad structure of their own (substitute, then
renormalize) and support abstraction and application-to-a-fresh-variable
operations that are mutually inverse.  That pair is what makes the
initial-representation fold (iota_fold) tick.

A term that reduce_to_normal returns is marked normal at its root, in
the instance attribute _normal, which only this module writes;
gen_normal, which builds its output normal, marks it too, and so does
iota_fold's application of a neutral function once its height is
checked.  The mark means beta-eta normal and nested within MAX_DEPTH,
so reduce_to_normal hands a marked term back at once, for no fuel, with
the outcome a second pass would have.  MAX_DEPTH is part of it because
the normalizer counts nesting from where it starts: nf_abs and nf_app1
can nest a normal form one level deeper, so they do not mark.  The mark
is not a dataclass field, so equality, hashing, repr and
dataclasses.replace do not see it; copy and pickle carry it.  Nodes are
immutable, so a mark stays right.
A variable is a node too, a Free or Bound leaf, and leaves are shared
(bvar's table, the generators' pools), so the mark lands on shared
leaves; it says what is true of every variable.

App and Abs nodes carry a second mark, the loose-bound mark
_dangling_below, which only this module writes too.  _dangling_below = L
means that every dangling index of the node is below L; the class
default, sys.maxsize, says nothing.  It is written lazily, by the walk
behind shift and subst0: on a node that comes back unchanged because no
variable under it was rewritten, the walk writes the cutoff it reached
the node at.  It counts the rewrites, since an image can be the very
variable it replaces.  A later shift or subst0 returns a node marked at
or below its cutoff there as it is, without descending, and uses_bound
skips it.  A name substitution neither reads nor writes the mark; it
reaches marked nodes through the shifts of its images.  Like _normal,
the mark is not a dataclass field, and it depends only on the node's
structure, so it stays right.

Two writers mark 0 what they know to be closed without a walk.
parse_binding marks the root it returns: an unbound name becomes a free
variable, and every index is below the binders around it.  The
normalizer, given a root marked 0, marks each argument it substitutes
while it has entered no abstraction of the term: a closed term stays
closed as it reduces, and so does each subterm under no binder.  The
shift that places such an argument under the contracted body's binders
returns it at its root.

The normalizer keeps an argument of a variable head that is marked
normal as it is, without walking it, when depth + height <= MAX_DEPTH:
depth is the nesting the argument sits at, and height, the most App and
Abs nodes on a path down from it, is the nesting the normalizer would
count inside a normal form.  The height is cached in a third mark,
_height, which only this module writes, the first time it is needed.
iota_fold reads it too: a neutral function applied to a folded argument
is normal as it stands, so the fold builds that one App node and checks
its height instead of renormalizing.  A child the fold built this way
has its height cached, so a spine or a Church numeral of n applications
folds in n App nodes, n height checks that each stop at the new node's
children, and no normalizer pass; only an abstraction's application is
renormalized.

The fields of App and Abs live in __slots__ and the marks in the
instance __dict__, which no walk touches: it is created by the first
mark written, with object.__setattr__, and field reads keep the
interpreter's fast path.  Free and Bound are plain frozen dataclasses,
whose __dict__ holds their field and any mark.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from enum import Enum
from itertools import count
from typing import Callable, Iterator, Mapping, Optional

from .errors import ConfigError, MalformedTermError
from .fuel import DEFAULT_FUEL, DepthLimit, Fuel, FuelExhausted, ReductionCycle
from .harness import MonadInstance
from .terms import (
    Bound,
    Free,
    Op,
    Representation,
    ScopedTerm,
    Signature,
    Var,
    _error,
    bvar,
    fold,
    fvar,
)


def _same_term(a: LcTerm, b) -> bool:
    # The __eq__ of App and Abs, on a stack of argument pairs: nodes of one
    # class, binder data by identity (types are interned), leaves by their ==.
    if not isinstance(b, LcTerm):
        return NotImplemented
    todo = []
    while True:
        if a is not b:
            cls = type(a)
            if cls is App:
                if type(b) is not App:
                    return False
                todo.append((a.arg, b.arg))
                a, b = a.fun, b.fun
                continue
            if isinstance(a, Abs):
                if type(b) is not cls or a.binder_type is not b.binder_type:
                    return False
                a, b = a.body, b.body
                continue
            if not a == b:
                return False
        if not todo:
            return True
        a, b = todo.pop()


# The fields live in __slots__, and the constructors set them through the
# slot descriptors: a frozen dataclass's own __init__ sets each field
# through object.__setattr__, and the normalizer and the generators build
# hundreds of thousands of nodes.  The instance __dict__ holds only marks,
# each with a class default: _normal is the normal-form mark (see
# reduce_to_normal), unset by default; _dangling_below is the loose-bound
# mark (see _replace), unknown by default; _height is the height (see
# _height_of), unknown (-1) by default.  __reduce__ rebuilds a node through
# its constructor and hands over its marks: the default copy and pickle
# would set the slots through the frozen __setattr__.


@dataclass(frozen=True, init=False, eq=False, unsafe_hash=True)
class App:
    __slots__ = ("fun", "arg", "__dict__")
    fun: "LcTerm"
    arg: "LcTerm"

    _normal = False
    _dangling_below = sys.maxsize
    _height = -1
    __eq__ = _same_term

    def __init__(self, fun: "LcTerm", arg: "LcTerm"):
        _set_fun(self, fun)
        _set_arg(self, arg)

    def __reduce__(self):
        return App, (self.fun, self.arg), self.__dict__ or None


@dataclass(frozen=True, init=False, eq=False, unsafe_hash=True)
class Abs:
    __slots__ = ("body", "__dict__")
    body: "LcTerm"

    # The engine rebuilds an abstraction through the node itself, so a
    # subclass carrying binder data (the typed calculus) keeps it across
    # every shift, substitution and reduction step.
    annotation = ""  # printed after the binder name
    binder_type = None  # a subclass's binder data, compared by identity
    _normal = False
    _dangling_below = sys.maxsize
    _height = -1
    __eq__ = _same_term

    def __init__(self, body: "LcTerm"):
        _set_body(self, body)

    def __reduce__(self):
        return Abs, (self.body,), self.__dict__ or None

    def with_body(self, body: "LcTerm") -> "Abs":
        return Abs(body)


_set_fun = App.fun.__set__
_set_arg = App.arg.__set__
_set_body = Abs.body.__set__

LcTerm = Var | App | Abs


# ---------- shifting and substitution ----------
#
# shift, subst and subst0 are one walk, _replace.  It keeps the nodes it
# is inside on an explicit stack, so nesting is bounded by memory, not by
# the recursion limit.  A variable is dealt with where the walk meets it,
# with no frame of its own.  A function goes before its argument, so the
# first malformed node met is the one a recursive walk would meet.  One
# index-rewriting walk substitutes any number of images at once, so a
# head applied to m arguments is contracted in one walk, not m.

# In a walk's stack, the frame of an abstraction holds _BODY where the
# frame of an application holds its first walked child, or None.
_BODY = object()


def _replace(
    t: LcTerm, s: Mapping[str, LcTerm], by: int, images: Optional[dict], depth: int
) -> LcTerm:
    # Under d binders (depth counted in) a free name in s becomes its
    # image shifted by d.  With by nonzero, a dangling index k >= d
    # becomes k + by; but when images is given, as {0: a1, ..., m-1: am}
    # with by = -m, t is the body of (\x1. ... \xm. t) a1 ... am and
    # index d + m - 1 - j, bound by x(j+1), becomes images[j] shifted by
    # d, kept in images[d * m + j] for the next occurrence.  A node whose
    # children all come back unchanged is shared, t itself included, and
    # an abstraction is rebuilt through with_body.
    #
    # Only an index rewrite (by nonzero) reads or writes the marks: it
    # returns a node marked at or below d as it is, and marks d on a node
    # under which it rewrote no variable.  It counts the rewrites, since
    # an image can be the very variable it replaces.
    closed = None  # names whose image one shift left as it was
    rewrites = 0
    # (node, rewrites before it, _BODY or the new function once walked,
    # else None) for each node the walk is inside
    stack = []
    while True:
        cls = type(t)
        if cls is App:
            if not by or t._dangling_below > depth:
                stack.append((t, rewrites, None))
                t = t.fun
                continue
        elif cls is Bound:
            k = t.index
            if by and k >= depth:
                rewrites += 1
                if images is None or k >= depth - by:
                    t = bvar(k + by)
                else:  # by is -m
                    j = depth - by - 1 - k
                    key = j - depth * by
                    t = images.get(key)
                    if t is None:
                        t = images[key] = shift(images[j], depth)
        elif cls is Abs or isinstance(t, Abs):
            if not by or t._dangling_below > depth:
                stack.append((t, rewrites, _BODY))
                depth += 1
                t = t.body
                continue
        elif isinstance(t, Free):
            name = t.name
            if name in s:
                t = s[name]
                if depth and (closed is None or name not in closed):
                    shifted = shift(t, depth)
                    if shifted is t:
                        closed = closed or set()
                        closed.add(name)
                    t = shifted
        else:
            raise MalformedTermError(f"not a lambda term: {t!r}")
        # t is walked: hand it to the nodes it is inside, up to one with
        # a child still to walk.
        while stack:
            node, before, f = stack.pop()
            if f is None:
                stack.append((node, before, t))
                t = node.arg
                break
            if f is _BODY:
                depth -= 1
            if by and rewrites == before:
                object.__setattr__(node, "_dangling_below", depth)
                t = node
            elif f is _BODY:
                t = node if t is node.body else node.with_body(t)
            else:
                t = node if f is node.fun and t is node.arg else App(f, t)
        else:
            return t


def shift(t: LcTerm, by: int = 1, cutoff: int = 0) -> LcTerm:
    """Adjust dangling indices (>= cutoff) by `by`.

    shift(t) is the renaming of t along the one-point scope extension: a
    term moved under one extra binder.  Closed terms are fixed: subterms
    with no index at or above the cutoff are shared with t, t itself
    included, as in subst.
    """
    return _replace(t, {}, by, None, cutoff)


def subst(s: Mapping[str, LcTerm], t: LcTerm) -> LcTerm:
    """Capture-avoiding simultaneous substitution of free names.

    Images are shifted by the binder depth at their point of use; for
    closed images (the monad case) the shift is the identity, and for
    scope-extended images (the derived module case) it protects the
    dangling index that plays the role of the fresh variable.  Subterms
    with nothing replaced are shared with t, t itself included, and an
    abstraction is rebuilt (with_body, keeping its binder data) only
    when its body changed.
    """
    return _replace(t, s, 0, None, 0)


def subst0(t: LcTerm, u: LcTerm) -> LcTerm:
    """Substitute u for the innermost dangling index of t.

    t lives one scope deeper than its surroundings; occurrences of index
    0 become u (shifted under binders) and the remaining dangling indices
    are decremented.  This is the beta contraction engine, for one
    argument; the normalizer calls the walk behind it with all the
    arguments a head takes at once.  Subterms with no index at or above
    the local cutoff are shared with t, t itself included, and an
    abstraction is rebuilt (with_body) only when its body changed.  Terms
    are immutable, so u is shifted at most once per binder depth and
    every occurrence at that depth gets the same term.
    """
    return _replace(t, {}, -1, {0: u}, 0)


def uses_bound(t: LcTerm, index: int) -> bool:
    """Does t use the dangling index `index`?  On an explicit stack,
    function before argument; a node marked at or below the index the
    walk looks for there uses no index that large, and is skipped."""
    todo = [(t, index)]
    while todo:
        t, k = todo.pop()
        if isinstance(t, App):
            if t._dangling_below > k:
                todo += ((t.arg, k), (t.fun, k))
        elif isinstance(t, Abs):
            if t._dangling_below > k:
                todo.append((t.body, k + 1))
        elif isinstance(t, Bound):
            if t.index == k:
                return True
        elif not isinstance(t, Free):
            raise MalformedTermError(f"not a lambda term: {t!r}")
    return False


# ---------- reduction ----------


def _eta_contract(t: Abs) -> Optional[LcTerm]:
    # Abs(App(u, #0)) with u not using #0 contracts to u un-shifted.
    b = t.body
    if isinstance(b, App):
        a = b.arg
        if isinstance(a, Bound) and a.index == 0:
            if not uses_bound(b.fun, 0):
                return shift(b.fun, -1)
    return None


def _contractions(t: LcTerm) -> Iterator[tuple[str, LcTerm]]:
    # Every single beta or eta contraction of t as (rule, reduct), over the
    # congruence closure of the oriented rules, in leftmost-outermost order:
    # a node's own redex, then its function's (or body's), then its argument's.
    if isinstance(t, App):
        if isinstance(t.fun, Abs):
            yield "beta", subst0(t.fun.body, t.arg)
        for rule, f2 in _contractions(t.fun):
            yield rule, App(f2, t.arg)
        for rule, a2 in _contractions(t.arg):
            yield rule, App(t.fun, a2)
    elif isinstance(t, Abs):
        contracted = _eta_contract(t)
        if contracted is not None:
            yield "eta", contracted
        for rule, b2 in _contractions(t.body):
            yield rule, t.with_body(b2)
    elif not isinstance(t, Var):
        raise MalformedTermError(f"not a lambda term: {t!r}")


def beta_step(t: LcTerm) -> Optional[LcTerm]:
    """Contract the leftmost-outermost beta redex, or return None (the
    one-step reference that reduce_to_normal matches step for step)."""
    return next((u for rule, u in _contractions(t) if rule == "beta"), None)


def eta_step(t: LcTerm) -> Optional[LcTerm]:
    """Contract the leftmost-outermost eta redex, or return None."""
    return next((u for rule, u in _contractions(t) if rule == "eta"), None)


@dataclass(frozen=True)
class NfTerm:
    """A lambda term certified beta-normal and eta-reduced: NfTerm(t) runs
    reduce_to_normal on t with no fuel, so any contraction raises
    ValueError and nesting past MAX_DEPTH raises DepthLimit.  This module's
    producers, normal by construction, seal with _sealed instead."""

    term: LcTerm

    def __post_init__(self):
        try:
            reduce_to_normal(self.term, Fuel(0))
        except DepthLimit:
            raise
        except FuelExhausted:
            raise ValueError("term is not beta-eta normal") from None


def _sealed(t: LcTerm) -> NfTerm:
    # An NfTerm without the certifying pass, for a term normal by construction.
    nf = object.__new__(NfTerm)
    object.__setattr__(nf, "term", t)
    return nf


# Nesting that the normalizer allows: binders entered, plus App nodes above
# the argument being normalized, plus arguments pending on the head spine.
# Every node of a normal form it returns sat at such a depth, so the walk
# that still recurses on terms, the dataclass hash, runs on it well below
# the interpreter's recursion limit.  Church 2^9 needs 514; the law
# suites' successful reductions stay below 10.
MAX_DEPTH = 600


def _too_deep() -> DepthLimit:
    return DepthLimit(
        f"term nesting passed {MAX_DEPTH}, the depth limit set below the recursion limit"
    )


def _beta_normal(t: LcTerm, budget: Fuel) -> LcTerm:
    """Leftmost-outermost beta normal form by unwinding the head spine,
    eta-contracting each abstraction as it is closed.

    Arguments wait on a stack that survives each head contraction, so no
    step walks from the root.  A head (\\x1. ... \\xm. b) a1 ... am, m
    the number of leading binders or of pending arguments, whichever is
    smaller, is contracted in one walk over b (the walk behind subst0)
    that substitutes all m arguments at once.  That is the result of its
    m leftmost-outermost steps, which as m walks would first shift a1
    under the binders the later ones strip again.  The m fuel units are
    spent in one call before the walk, which drains a budget with fewer
    left, as m steps would.  A variable head has its arguments
    normalized left to right; an unapplied abstraction is entered.
    These are the leftmost-outermost contractions in their order, one
    fuel unit each.  frames holds the context to rebuild: an abstraction
    around a body, or a list [neutral so far, arguments still to
    normalize]; depth counts the binders and App nodes that context puts
    above the focus, and binders the abstractions alone.

    A root marked 0 (see _replace) has no dangling index, and reduction
    keeps it so: every pending argument and contraction result under no
    abstraction of the term is closed.  So while binders is 0, each App
    or Abs argument of a contraction is marked 0 before the walk, and
    the shift that places it under the body's binders returns it at its
    root instead of walking it.

    A closed abstraction is never reduced again and its body is already
    normal, so an eta contraction there (one fuel unit) gives the result
    and step count of an eta postpass over the beta-normal form.

    An argument marked normal is kept as it is when the focus moves to
    it, if depth + _height_of(argument) <= MAX_DEPTH: walking it would
    spend no fuel, raise nothing and rebuild an equal term.  Past that
    bound it is walked, and the walk raises DepthLimit where it would.

    Each run of head contractions is checked for a cycle by Brent's
    method: the state after a contraction walk is compared with a
    snapshot retaken at power-of-two counts of the checks made in the
    run.  Within a run frames only grows, so the state is the focus, the
    pending arguments and len(frames).  A walk that leaves an
    abstraction with arguments pending is not checked: the contractions
    go on from there, and a cycle cannot stay in such states, since each
    step takes an argument and none adds one.  Whether a state is
    checked thus depends on the state alone, so the states checked recur
    with the reduction's period, which is found exactly; first_repeat
    is a step at which the state repeats, possibly later than the first
    such step.  Reduction is deterministic, so a repeated state repeats
    forever: the budget is drained and ReductionCycle raised, the
    outcome and remaining fuel of stepping until the budget is gone.
    """
    frames: list = []
    depth = 0
    binders = 0  # the abstractions among frames
    args: list[LcTerm] = []
    steps = 0  # beta contractions so far
    closed = (type(t) is App or isinstance(t, Abs)) and t._dangling_below <= 0
    while True:
        # The focus moved to an argument or out of a frame: a new run, no snapshot yet.
        checks, power, snap_len = 0, 1, -1
        while True:
            if type(t) is App:
                args.append(t.arg)
                t = t.fun
                if depth + len(args) > MAX_DEPTH:
                    raise _too_deep()
            elif isinstance(t, Abs):
                if args:
                    images = {0: args.pop()}  # the arguments to substitute, first first
                    t = t.body
                    while args and isinstance(t, Abs):
                        images[len(images)] = args.pop()
                        t = t.body
                    m = len(images)
                    budget.spend(m)
                    if closed and not binders:
                        for u in images.values():
                            if (type(u) is App or isinstance(u, Abs)) and u._dangling_below > 0:
                                object.__setattr__(u, "_dangling_below", 0)
                    t = _replace(t, {}, -m, images, 0)
                    steps += m
                    if args and isinstance(t, Abs):
                        continue  # the contractions go on; not a checked state
                    if (
                        len(args) == snap_len
                        and len(frames) == snap_frames
                        and t == snap_t
                        and args == snap_args
                    ):
                        budget.remaining = 0
                        raise ReductionCycle(steps - snap_steps, steps)
                    checks += 1
                    if checks == power:
                        snap_t, snap_args, snap_len = t, args[:], len(args)
                        snap_frames, snap_steps = len(frames), steps
                        power *= 2
                    continue
                frames.append(t)
                depth += 1
                binders += 1
                if depth > MAX_DEPTH:
                    raise _too_deep()
                t = t.body
            elif isinstance(t, Var):
                break
            else:
                raise MalformedTermError(f"not a lambda term: {t!r}")
        if args:
            # The frame loop takes the arguments, the first included: the
            # focus is None while no argument is normalized yet.
            frames.append([t, args])
            depth += len(args) + 1
            t = None
            args = []
        while frames:
            frame = frames[-1]
            depth -= 1
            if type(frame) is list:
                if t is not None:
                    frame[0] = App(frame[0], t)
                if frame[1]:
                    t = frame[1].pop()
                    if (
                        (type(t) is App or isinstance(t, Abs))
                        and getattr(t, "_normal", False)
                        and depth + _height_of(t) <= MAX_DEPTH
                    ):
                        continue  # kept as it is: the frame takes it as it stands
                    break
                t = frame[0]
            else:
                binders -= 1
                t = frame.with_body(t)
                contracted = _eta_contract(t)
                if contracted is not None:
                    budget.spend()
                    t = contracted
            frames.pop()
        else:
            return t


def _height_of(t: LcTerm) -> int:
    # The most App and Abs nodes on a path down from t, cached in t's
    # _height mark.  On a normal form, where every spine has a variable
    # head, that is the nesting the normalizer counts inside t: binders,
    # plus the arguments pending on each spine.  A walk on a stack of
    # (node, nodes above it), which stops at a node with its height cached.
    if isinstance(t, Var):
        return 0
    height = t._height
    if height < 0:
        height = 0
        todo = [(t, 0)]
        while todo:
            u, above = todo.pop()
            below = 0 if isinstance(u, Var) else u._height
            if below >= 0:
                height = max(height, above + below)
            elif isinstance(u, App):
                todo += ((u.fun, above + 1), (u.arg, above + 1))
            else:
                todo.append((u.body, above + 1))
        object.__setattr__(t, "_height", height)
    return height


def reduce_to_normal(t: LcTerm, fuel: Fuel | int = DEFAULT_FUEL) -> LcTerm:
    """The beta-eta normal form: leftmost-outermost beta, each abstraction
    eta-contracted as it is closed.  Spends one fuel unit per rewrite
    step and raises FuelExhausted when the budget runs out; a reduction
    that comes back to a term it has already reached drains the budget
    and raises ReductionCycle, a kind of FuelExhausted.  This is the one
    code path that establishes or checks a normal form.

    A term nested deeper than MAX_DEPTH raises DepthLimit, a kind of
    FuelExhausted: nesting is a resource ceiling of the same kind as the
    step budget.  Every walk a reduction makes keeps its nodes on an
    explicit stack, so the outcome does not depend on the recursion limit.

    The root of every result is marked normal, and a marked term is its
    own result at once: it would spend no fuel and nest within the limit.
    """
    budget = Fuel.coerce(fuel)
    if getattr(t, "_normal", False):
        return t
    return _marked(_beta_normal(t, budget))


def _marked(t: LcTerm) -> LcTerm:
    # Only for a term that reduce_to_normal, started at its root, would
    # return unchanged: beta-eta normal and nested within MAX_DEPTH.
    object.__setattr__(t, "_normal", True)
    return t


def normalize(t: LcTerm, fuel: Fuel | int = DEFAULT_FUEL) -> NfTerm:
    """The certified beta-eta normal form (see reduce_to_normal)."""
    return _sealed(reduce_to_normal(t, fuel))


class Equivalence(Enum):
    EQUIVALENT = "equivalent"
    INEQUIVALENT = "inequivalent"
    INCONCLUSIVE = "inconclusive"


def beta_eta_equiv(t1: LcTerm, t2: LcTerm, fuel: Fuel | int = DEFAULT_FUEL) -> Equivalence:
    """Compare beta-eta normal forms; inconclusive if either side runs
    out of fuel.  An integer budget is granted to each side separately;
    passing a Fuel object shares it between the two."""
    if isinstance(fuel, Fuel):
        b1 = b2 = fuel
    else:
        b1, b2 = Fuel(fuel), Fuel(fuel)
    try:
        n1 = normalize(t1, b1)
        n2 = normalize(t2, b2)
    except FuelExhausted:
        return Equivalence.INCONCLUSIVE
    return Equivalence.EQUIVALENT if n1.term == n2.term else Equivalence.INEQUIVALENT


# ---------- normal forms as a monad ----------


def nf_bind(s: Mapping[str, NfTerm], t: NfTerm, fuel: Fuel | int = DEFAULT_FUEL) -> NfTerm:
    """Substitute normal images and renormalize."""
    images = {}
    for k, v in s.items():
        if not isinstance(v, NfTerm):
            raise ConfigError(f"nf_bind image for {k!r} is not a normal form")
        images[k] = v.term
    return normalize(subst(images, t.term), fuel)


def nf_app1(t: NfTerm) -> NfTerm:
    """Apply to a fresh variable: t becomes App(shift t, #0), one scope
    deeper, in normal form.  An abstraction's one beta step gives back
    its body; a neutral term applied to a fresh variable is normal."""
    if isinstance(t.term, Abs):
        return _sealed(t.term.body)
    return _sealed(App(shift(t.term), bvar(0)))


def nf_abs(t: NfTerm) -> NfTerm:
    """Abstract over the fresh variable of a one-scope-deeper normal
    form, contracting a root eta redex if one appears."""
    wrapped = Abs(t.term)
    contracted = _eta_contract(wrapped)
    return _sealed(wrapped if contracted is None else contracted)


# ---------- the initial-representation fold ----------


def iota_fold(
    t: LcTerm,
    env: Optional[Mapping[str, NfTerm]] = None,
    fuel: Fuel | int = DEFAULT_FUEL,
) -> NfTerm:
    """Fold a lambda term into normal forms: terms.fold along the
    representation of SIG_LC in NF.  abs is nf_abs; app is by cases on
    the folded function.  An abstraction has the folded argument
    substituted into its body, and the result is renormalized.  A
    neutral function applied to a normal argument is normal as it
    stands, so that application is the result, marked normal, when its
    height is within MAX_DEPTH; past that it goes to the normalizer,
    which raises DepthLimit there.  Variables go through env (default:
    NF's unit).

    The substitution is the contraction itself, so fuel is spent only by
    renormalizing its result, one budget shared by the whole fold: a fold
    whose applications create no new redex spends none.
    """
    budget = Fuel.coerce(fuel)

    def app(f: NfTerm, a: NfTerm) -> NfTerm:
        if isinstance(f.term, Abs):
            return normalize(subst0(f.term.body, a.term), budget)
        t = App(f.term, a.term)
        if _height_of(t) <= MAX_DEPTH:
            return _sealed(_marked(t))
        return normalize(t, budget)

    rep = Representation(
        SIG_LC, (app, nf_abs), bound_value=lambda k: _sealed(bvar(k)), monad=NF
    )
    return fold(rep, to_scoped(t), env)


# ---------- the reduction preorder ----------


def step_successors(t: LcTerm) -> list[LcTerm]:
    """All terms reachable by contracting a single beta or eta redex at
    any position (the congruence closure of the oriented rules)."""
    return [u for _, u in _contractions(t)]


def preorder_leq(t1: LcTerm, t2: LcTerm, depth: int = 20) -> bool:
    """Is t2 reachable from t1 by at most `depth` oriented beta/eta
    steps under congruence?  Reflexive at depth 0; False only means not
    related within the bound.  Reduction keeps beta-eta equivalence, so
    terms beta_eta_equiv (default fuel) finds inequivalent are refuted
    without a search."""
    frontier = {t1}
    visited = {t1}
    if t2 in visited:
        return True
    if beta_eta_equiv(t1, t2) is Equivalence.INEQUIVALENT:
        return False
    for _ in range(depth):
        nxt: set[LcTerm] = set()
        for t in frontier:
            for u in step_successors(t):
                if u not in visited:
                    visited.add(u)
                    nxt.add(u)
        if t2 in nxt:
            return True
        if not nxt:
            return False
        frontier = nxt
    return False


# ---------- conversion to signature-generic terms ----------

SIG_LC = Signature((("app", (0, 0)), ("abs", (1,))))
_APP, _ABS = 0, 1


def to_scoped(t: LcTerm) -> ScopedTerm:
    # Pre-order onto a list, then build from its far end, where each
    # node's converted children are the last values built: nesting is
    # bounded by memory, and the first malformed node met is the one a
    # recursive walk would meet.
    order = []
    todo = [t]
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            todo += (t.arg, t.fun)
        elif isinstance(t, Abs):
            todo.append(t.body)
        elif not isinstance(t, Var):
            raise MalformedTermError(f"not a lambda term: {t!r}")
        order.append(t)
    values = []
    for t in reversed(order):
        if isinstance(t, App):
            t = Op(_APP, (values.pop(), values.pop()))
        elif isinstance(t, Abs):
            t = Op(_ABS, (values.pop(),))
        values.append(t)
    return values[0]


def from_scoped(t: ScopedTerm) -> LcTerm:
    """The initial morphism from SIG_LC's generic syntax into LC."""
    return fold(_LC_SYNTAX, t)


# ---------- concrete grammar ----------
#
#   term ::= '\' ident '.' term | app
#   app  ::= atom+                 (left-associative)
#   atom ::= ident | '(' term ')'
#
# The backslash has a lambda synonym on input.  An ident is a letter or
# '_', then letters, digits, '_' and "'"; it cannot start with a lambda.
# Printing picks machine names v0, v1, ... for binders, skipping names
# that occur free.

# One token per match; the whitespace between matches is skipped.  A
# backslash or a lambda is a token of its own, so no name starts with a
# lambda, and any character no rule accepts is a token of its own.  The
# typed grammar reads the same tokens.
_TOKEN = re.compile(r"[\\λ]|->|[\w']+|\S")


def parse(text: str) -> LcTerm:
    return parse_binding(text, _bare_binder, fvar)


def _bare_binder(text: str, tokens: list[str], i: int) -> tuple[Callable[[LcTerm], Abs], int]:
    return Abs, _expect(text, tokens, i, ".", "expected '.' after binder")


def _expect(text: str, tokens: list[str], i: int, token: str, message: str) -> int:
    # Token i must be token; the index after it.
    if tokens[i] != token:
        raise _error(_TOKEN, text, i, message)
    return i + 1


def _is_name(token: str) -> bool:
    # "λ".isalpha() holds, but a lambda token starts a binder.
    return (token[:1].isalpha() or token[:1] == "_") and token != "λ"


def parse_binding(
    text: str,
    binder: Callable[[str, list[str], int], tuple[Callable[[LcTerm], Abs], int]],
    free: Callable[[str], LcTerm],
) -> LcTerm:
    """The grammar above, shared with the typed calculus: binder(text,
    tokens, i) reads what follows a binder's name from token i up to the
    body and returns the abstraction's constructor with the index of the
    body's first token; free builds a free variable from its name.

    Open binders and parentheses wait on an explicit stack, so nesting is
    bounded by memory, not by the recursion limit.  The root returned has
    no dangling index, and an App or Abs root is marked so."""
    tokens = _TOKEN.findall(text) + [""]  # "" marks the end of the input
    name_tokens = {tok for tok in set(tokens) if _is_name(tok)}  # one test per distinct token
    frames: list = []  # (constructor, name, shadowed depth) or (None, None, spine outside '(')
    scope: dict[str, int] = {}  # each bound name's innermost binder depth
    depth = 0  # open binders
    spine = None  # the application read so far in the innermost open term
    i = 0
    while True:
        tok = tokens[i]
        i += 1
        if tok in name_tokens:
            level = scope.get(tok)
            atom = free(tok) if level is None else bvar(depth - 1 - level)
            spine = atom if spine is None else App(spine, atom)
        elif tok == "(":
            frames.append((None, None, spine))
            spine = None
        elif spine is None:
            if tok != "\\" and tok != "λ":
                raise _error(_TOKEN, text, i - 1, "expected identifier")
            name = tokens[i]
            if name not in name_tokens:
                raise _error(_TOKEN, text, i, "expected identifier")
            make, i = binder(text, tokens, i + 1)
            frames.append((make, name, scope.get(name)))
            scope[name] = depth
            depth += 1
        else:  # tok ends the innermost open term: close its binders, then what it ends
            t = spine
            while frames and frames[-1][0] is not None:
                make, name, shadowed = frames.pop()
                t = make(t)
                depth -= 1
                if shadowed is None:
                    del scope[name]
                else:
                    scope[name] = shadowed
            if not frames:
                if tok:
                    raise _error(_TOKEN, text, i - 1, "trailing input")
                if type(t) is App or isinstance(t, Abs):
                    object.__setattr__(t, "_dangling_below", 0)
                return t
            if tok != ")":
                raise _error(_TOKEN, text, i - 1, "expected ')'")
            outer = frames.pop()[2]
            spine = t if outer is None else App(outer, t)


def show(t: LcTerm, debruijn: bool = False) -> str:
    """Print a term in the concrete grammar.

    Named mode invents binder names v0, v1, ... avoiding the free names
    of the whole term, which one walk collects as it prints; only if one
    is a name it invented does a second walk print again, avoiding them.
    A dangling index (possible on scope-extended carriers) prints as #k,
    outside the grammar.  De Bruijn mode prints binders as λ and bound
    variables as indices.  The walk's stack is explicit, bounded by memory.
    """
    text, free, drawn = _show(t, debruijn, ())
    if free and not free.isdisjoint(map("v{}".format, range(drawn))):
        text = _show(t, debruijn, free)[0]
    return text


def _show(t: LcTerm, debruijn: bool, taken) -> tuple[str, set[str], int]:
    # One printing walk: its text, the free names met, the names drawn from v0, v1, ...
    drawn = count()
    fresh = (name for name in map("v{}".format, drawn) if name not in taken)
    free: set[str] = set()
    names: list[str] = []  # named mode: the binder names in scope, outermost first
    out: list[str] = []
    # What is left to print, last first: text, or (term, level, binders
    # around it).  Level 1 is a function and 2 an argument: an
    # application is parenthesized at 2, an abstraction at 1 and 2.
    todo: list = [(t, 0, 0)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, level, depth = item
        cls = type(t)
        if cls is App:
            if level > 1:
                out.append("(")
                todo.append(")")
            todo += ((t.arg, 2, depth), " ", (t.fun, 1, depth))
        elif cls is Bound:
            k = t.index
            if debruijn:
                out.append(str(k))
            elif k < depth:
                del names[depth:]
                out.append(names[~k])
            else:
                out.append(f"#{k - depth}")
        elif isinstance(t, Free):
            free.add(t.name)
            out.append(t.name)
        elif isinstance(t, Abs):
            if level > 0:
                out.append("(")
                todo.append(")")
            if debruijn:
                out.append("λ. ")
            else:
                del names[depth:]
                names.append(next(fresh))
                out.append(f"\\{names[-1]}{t.annotation}. ")
            todo.append((t.body, 0, depth + 1))
        else:
            raise MalformedTermError(f"not a lambda term: {t!r}")
    return "".join(out), free, next(drawn)


def show_nf(t: NfTerm, debruijn: bool = False) -> str:
    return show(t.term, debruijn)


# ---------- generators ----------

NAME_POOL = ("x", "y", "z", "w")

# The pool's free variables, in NAME_POOL order: the generators' leaves.
_POOL_VARS = tuple(fvar(name) for name in NAME_POOL)


# The generators' recursive walks are module-level functions that take
# the generator and what they draw within as arguments: a nested def
# that calls itself is a reference cycle (function, cell, function) per
# call, freed only by the cyclic collector, so a sample would leave
# garbage behind.


def _gen_term(rng: random.Random, budget: int, depth: int) -> LcTerm:
    if budget <= 1 or rng.random() < 0.3:
        if depth > 0 and rng.random() < 0.5:
            return bvar(rng.randrange(depth))
        return _POOL_VARS[rng.randrange(len(_POOL_VARS))]
    if rng.random() < 0.45:
        return Abs(_gen_term(rng, budget - 1, depth + 1))
    k = rng.randrange(1, budget)
    return App(_gen_term(rng, k, depth), _gen_term(rng, budget - 1 - k, depth))


def gen_term(
    rng: random.Random,
    max_size: int = 8,
    depth: int = 0,
) -> LcTerm:
    """A random well-scoped term, geometrically smaller toward the leaves."""
    return _gen_term(rng, rng.randrange(1, max_size + 1), depth)


def _gen_leaf(rng: random.Random, depth: int) -> LcTerm:
    if depth > 0 and rng.random() < 0.5:
        return bvar(rng.randrange(depth))
    return _POOL_VARS[rng.randrange(len(_POOL_VARS))]


def _gen_neutral(rng: random.Random, budget: int, depth: int, contract: bool) -> LcTerm:
    if budget <= 1 or rng.random() < 0.4:
        return _gen_leaf(rng, depth)
    k = rng.randrange(1, budget)
    return App(
        _gen_neutral(rng, k, depth, contract), _gen_nf(rng, budget - 1 - k, depth, contract)
    )


def _gen_nf(rng: random.Random, budget: int, depth: int, contract: bool) -> LcTerm:
    if budget > 1 and rng.random() < 0.4:
        t = Abs(_gen_nf(rng, budget - 1, depth + 1, contract))
        contracted = _eta_contract(t) if contract else None
        return t if contracted is None else contracted
    return _gen_neutral(rng, budget, depth, contract)


def gen_normal(
    rng: random.Random,
    max_size: int = 8,
    depth: int = 0,
) -> NfTerm:
    """A random normal form, built normal: neutral terms are applications
    with a variable head, so no beta redex arises, and each abstraction is
    eta-contracted as it is built, bottom up, as reduce_to_normal does
    when it closes one.

    Nesting counts App and Abs nodes, each of which spends a unit of the
    size drawn, so a size within MAX_DEPTH gives a term the normalizer
    accepts, marked normal.  A larger size is built uncontracted and goes
    through reduce_to_normal, which checks its nesting."""
    size = rng.randrange(1, max_size + 1)
    contract = size <= MAX_DEPTH
    t = _gen_nf(rng, size, depth, contract)
    return _sealed(_marked(t) if contract else reduce_to_normal(t))


def _gen_subst(rng: random.Random) -> dict:
    return {name: gen_term(rng, max_size=5) for name in NAME_POOL if rng.random() < 0.4}


def _gen_nf_subst(rng: random.Random) -> dict:
    return {name: gen_normal(rng, max_size=5) for name in NAME_POOL if rng.random() < 0.4}


# ---------- instances ----------


LC = MonadInstance(
    name="lc",
    names=NAME_POOL,
    unit=fvar,
    bind=subst,
    gen_value=lambda rng: gen_term(rng),
    gen_subst=_gen_subst,
    show_value=show,
)

_LC_SYNTAX = Representation(SIG_LC, (App, Abs), bound_value=bvar, monad=LC)

NF = MonadInstance(
    name="nf",
    names=NAME_POOL,
    unit=lambda name: _sealed(fvar(name)),
    bind=nf_bind,
    gen_value=lambda rng: gen_normal(rng),
    gen_subst=_gen_nf_subst,
    show_value=show_nf,
)
