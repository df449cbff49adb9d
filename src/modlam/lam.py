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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Mapping, Optional

from .errors import ConfigError, MalformedTermError
from .fuel import DEFAULT_FUEL, DepthLimit, Fuel, FuelExhausted, ReductionCycle
from .harness import MonadInstance, ModuleInstance
from .scan import end_of_input, expect, ident, skip_ws
from .terms import (
    Bound,
    Free,
    Op,
    Representation,
    ScopedTerm,
    Signature,
    Var,
    bvar,
    fold,
    fvar,
)


@dataclass(frozen=True)
class App:
    fun: "LcTerm"
    arg: "LcTerm"


@dataclass(frozen=True)
class Abs:
    body: "LcTerm"

    # The engine rebuilds an abstraction through the node itself, so a
    # subclass carrying binder data (the typed calculus) keeps it across
    # every shift, substitution and reduction step.
    annotation = ""  # printed after the binder name

    def with_body(self, body: "LcTerm") -> "Abs":
        return Abs(body)


LcTerm = Var | App | Abs


def free_names(t: LcTerm) -> set[str]:
    match t:
        case Var(Free(name)):
            return {name}
        case Var(Bound(_)):
            return set()
        case App(f, a):
            return free_names(f) | free_names(a)
        case Abs(b):
            return free_names(b)
    raise MalformedTermError(f"not a lambda term: {t!r}")


# ---------- shifting and substitution ----------


def shift(t: LcTerm, by: int = 1, cutoff: int = 0) -> LcTerm:
    """Adjust dangling indices (>= cutoff) by `by`.

    shift(t) is the renaming of t along the one-point scope extension: a
    term moved under one extra binder.  Closed terms are fixed: subterms
    with no index at or above the cutoff are shared with t, t itself
    included, as in subst.
    """
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Bound):
            return bvar(ref.index + by) if ref.index >= cutoff else t
        if isinstance(ref, Free):
            return t
    elif isinstance(t, App):
        f = shift(t.fun, by, cutoff)
        a = shift(t.arg, by, cutoff)
        return t if f is t.fun and a is t.arg else App(f, a)
    elif isinstance(t, Abs):
        b = shift(t.body, by, cutoff + 1)
        return t if b is t.body else t.with_body(b)
    raise MalformedTermError(f"not a lambda term: {t!r}")


def subst(s: Mapping[str, LcTerm], t: LcTerm, depth: int = 0) -> LcTerm:
    """Capture-avoiding simultaneous substitution of free names.

    Images are shifted by the binder depth at their point of use; for
    closed images (the monad case) the shift is the identity, and for
    scope-extended images (the derived module case) it protects the
    dangling index that plays the role of the fresh variable.  Subterms
    with nothing replaced are shared with t, t itself included, and an
    abstraction is rebuilt (with_body, keeping its binder data) only
    when its body changed.
    """
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Free):
            name = ref.name
            if name in s:
                return shift(s[name], depth) if depth else s[name]
            return t
        if isinstance(ref, Bound):
            return t
    elif isinstance(t, App):
        f = subst(s, t.fun, depth)
        a = subst(s, t.arg, depth)
        return t if f is t.fun and a is t.arg else App(f, a)
    elif isinstance(t, Abs):
        b = subst(s, t.body, depth + 1)
        return t if b is t.body else t.with_body(b)
    raise MalformedTermError(f"not a lambda term: {t!r}")


def subst0(t: LcTerm, u: LcTerm) -> LcTerm:
    """Substitute u for the innermost dangling index of t.

    t lives one scope deeper than its surroundings; occurrences of index
    0 become u (shifted under binders) and the remaining dangling indices
    are decremented.  This is the beta contraction engine.
    """

    def go(t: LcTerm, j: int) -> LcTerm:
        match t:
            case Var(Bound(k)):
                if k == j:
                    return shift(u, j) if j else u
                if k > j:
                    return bvar(k - 1)
                return t
            case Var(Free(_)):
                return t
            case App(f, a):
                return App(go(f, j), go(a, j))
            case Abs(b):
                return t.with_body(go(b, j + 1))
        raise MalformedTermError(f"not a lambda term: {t!r}")

    return go(t, 0)


def uses_bound(t: LcTerm, index: int) -> bool:
    match t:
        case Var(Bound(k)):
            return k == index
        case Var(Free(_)):
            return False
        case App(f, a):
            return uses_bound(f, index) or uses_bound(a, index)
        case Abs(b):
            return uses_bound(b, index + 1)
    raise MalformedTermError(f"not a lambda term: {t!r}")


# ---------- reduction ----------


def _eta_contract(t: LcTerm) -> Optional[LcTerm]:
    # Abs(App(u, #0)) with u not using #0 contracts to u un-shifted.
    match t:
        case Abs(App(u, Var(Bound(0)))) if not uses_bound(u, 0):
            return shift(u, -1)
        case _:
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
# Every node of a normal form it returns sat at such a depth, so the
# recursive checks and printers run on it well below the interpreter's
# recursion limit.  Church 2^9 needs 514; the law suites' successful
# reductions stay below 10.
MAX_DEPTH = 600


def _too_deep() -> DepthLimit:
    return DepthLimit(
        f"term nesting passed {MAX_DEPTH}, the depth limit set below the recursion limit"
    )


def _beta_normal(t: LcTerm, budget: Fuel) -> LcTerm:
    """Leftmost-outermost beta normal form by unwinding the head spine,
    eta-contracting each abstraction as it is closed.

    Arguments wait on a stack that survives each head contraction, so a
    step costs one subst0 and never a walk from the root.  A variable
    head has its arguments normalized left to right; an unapplied
    abstraction is entered.  These are the leftmost-outermost
    contractions in their order, one fuel unit each.  frames holds the
    context to rebuild: an abstraction around a body, or a list
    [neutral so far, arguments still to normalize]; depth counts the
    binders and App nodes that context puts above the focus.

    A closed abstraction is never reduced again and its body is already
    normal, so an eta contraction there (one fuel unit) gives the result
    and step count of an eta postpass over the beta-normal form.

    Each run of head contractions is checked for a cycle by Brent's
    method: the state after a contraction is compared with a snapshot
    retaken at power-of-two contraction counts of the run.  Within a run
    frames only grows, so the state is the focus, the pending arguments
    and len(frames).  Reduction is deterministic, so a repeated state
    repeats forever: the budget is drained and ReductionCycle raised,
    the outcome and remaining fuel of stepping until the budget is gone.
    """
    frames: list = []
    depth = 0
    args: list[LcTerm] = []
    steps = 0  # beta contractions so far
    while True:
        # The focus moved to an argument or out of a frame: a new run, no snapshot yet.
        run_start, power, snap_len = steps, 1, -1
        while True:
            if type(t) is App:
                args.append(t.arg)
                t = t.fun
                if depth + len(args) > MAX_DEPTH:
                    raise _too_deep()
            elif isinstance(t, Abs):
                if args:
                    budget.spend()
                    t = subst0(t.body, args.pop())
                    steps += 1
                    if (
                        len(args) == snap_len
                        and len(frames) == snap_frames
                        and (t is snap_t or _same_term(t, snap_t))
                        and all(a is b or _same_term(a, b) for a, b in zip(args, snap_args))
                    ):
                        budget.remaining = 0
                        raise ReductionCycle(steps - snap_steps, steps)
                    if steps - run_start == power:
                        snap_t, snap_args, snap_len = t, tuple(args), len(args)
                        snap_frames, snap_steps = len(frames), steps
                        power *= 2
                    continue
                frames.append(t)
                depth += 1
                if depth > MAX_DEPTH:
                    raise _too_deep()
                t = t.body
            elif isinstance(t, Var):
                break
            else:
                raise MalformedTermError(f"not a lambda term: {t!r}")
        if args:
            frames.append([t, args])
            depth += len(args)
            t = args.pop()
            args = []
            continue
        while frames:
            frame = frames[-1]
            depth -= 1
            if type(frame) is list:
                frame[0] = App(frame[0], t)
                if frame[1]:
                    t = frame[1].pop()
                    break
                t = frame[0]
            else:
                t = frame.with_body(t)
                contracted = _eta_contract(t)
                if contracted is not None:
                    budget.spend()
                    t = contracted
            frames.pop()
        else:
            return t


def reduce_to_normal(t: LcTerm, fuel: Fuel | int = DEFAULT_FUEL) -> LcTerm:
    """The beta-eta normal form: leftmost-outermost beta, each abstraction
    eta-contracted as it is closed.  Spends one fuel unit per rewrite
    step and raises FuelExhausted when the budget runs out; a reduction
    that comes back to a term it has already reached drains the budget
    and raises ReductionCycle, a kind of FuelExhausted.  This is the one
    code path that establishes or checks a normal form.

    A term nested deeper than MAX_DEPTH raises DepthLimit, a kind of
    FuelExhausted: nesting is a resource ceiling of the same kind as the
    step budget.  A RecursionError from the recursive helpers on a term
    the limit let through (a deep argument copied by subst0) raises
    DepthLimit too.
    """
    budget = Fuel.coerce(fuel)
    try:
        return _beta_normal(t, budget)
    except RecursionError:
        raise DepthLimit(
            "a substitution outgrew the recursion limit within the depth limit"
        ) from None


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
    same = _same_term(n1.term, n2.term)
    return Equivalence.EQUIVALENT if same else Equivalence.INEQUIVALENT


def _same_term(t1: LcTerm, t2: LcTerm) -> bool:
    # Structural equality on an explicit stack: the dataclass __eq__
    # recurses about two frames per level, too many for a normal form
    # nested near MAX_DEPTH.
    todo = [(t1, t2)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, App) and isinstance(b, App):
            todo += ((a.fun, b.fun), (a.arg, b.arg))
        elif isinstance(a, Abs) and type(a) is type(b) and a.annotation == b.annotation:
            todo.append((a.body, b.body))
        elif not (isinstance(a, Var) and a == b):
            return False
    return True


# ---------- normal forms as a monad ----------


def nf_bind(s: Mapping[str, NfTerm], t: NfTerm, fuel: Fuel | int = DEFAULT_FUEL) -> NfTerm:
    """Substitute normal images and renormalize."""
    for k, v in s.items():
        if not isinstance(v, NfTerm):
            raise ConfigError(f"nf_bind image for {k!r} is not a normal form")
    return normalize(subst({k: v.term for k, v in s.items()}, t.term), fuel)


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
    representation of SIG_LC in NF.  abs is nf_abs; app opens the folded
    function with nf_app1 and substitutes the folded argument for the
    fresh slot.  Variables go through env (default: NF's unit).

    That substitution is the contraction itself, so fuel is spent only by
    renormalizing its result, one budget shared by the whole fold: a fold
    whose applications create no new redex spends none.
    """
    budget = Fuel.coerce(fuel)

    def app(f: NfTerm, a: NfTerm) -> NfTerm:
        return normalize(subst0(nf_app1(f).term, a.term), budget)

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
    related within the bound."""
    frontier = {t1}
    visited = {t1}
    if t2 in visited:
        return True
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
    match t:
        case Var(_):
            return t
        case App(f, a):
            return Op(_APP, (to_scoped(f), to_scoped(a)))
        case Abs(b):
            return Op(_ABS, (to_scoped(b),))
    raise MalformedTermError(f"not a lambda term: {t!r}")


def from_scoped(t: ScopedTerm) -> LcTerm:
    match t:
        case Var(_):
            return t
        case Op(op, args):
            if op == _APP and len(args) == 2:
                return App(from_scoped(args[0]), from_scoped(args[1]))
            if op == _ABS and len(args) == 1:
                return Abs(from_scoped(args[0]))
            raise MalformedTermError(f"not a lambda-signature term: {t!r}")
    raise MalformedTermError(f"not a term: {t!r}")


# ---------- concrete grammar ----------
#
#   term ::= '\' ident '.' term | app
#   app  ::= atom+                 (left-associative)
#   atom ::= ident | '(' term ')'
#
# The backslash has a lambda synonym on input.  Printing picks machine
# names v0, v1, ... for binders, skipping names that occur free.


def parse(text: str) -> LcTerm:
    return parse_binding(text, _bare_binder, fvar)


def _bare_binder(text: str, pos: int) -> tuple[Callable[[LcTerm], Abs], int]:
    return Abs, expect(text, pos, ".", "expected '.' after binder")


def parse_binding(
    text: str,
    binder: Callable[[str, int], tuple[Callable[[LcTerm], Abs], int]],
    free: Callable[[str], LcTerm],
) -> LcTerm:
    """The grammar above, shared with the typed calculus: binder reads
    what follows a binder's name up to its body and returns the
    abstraction's constructor with the position after it; free builds a
    free variable from its name."""
    pos = 0

    def term(binders: tuple[str, ...]) -> LcTerm:
        nonlocal pos
        pos = skip_ws(text, pos)
        if text.startswith(("\\", "λ"), pos):
            name, pos = ident(text, skip_ws(text, pos + 1))
            make, pos = binder(text, pos)
            return make(term((name,) + binders))
        return app(binders)

    def app(binders: tuple[str, ...]) -> LcTerm:
        nonlocal pos
        t = atom(binders)
        while True:
            pos = skip_ws(text, pos)
            c = text[pos : pos + 1]
            if c and c != "λ" and (c.isalpha() or c in "(_"):
                t = App(t, atom(binders))
            else:
                return t

    def atom(binders: tuple[str, ...]) -> LcTerm:
        nonlocal pos
        pos = skip_ws(text, pos)
        if text.startswith("(", pos):
            pos += 1
            t = term(binders)
            pos = expect(text, pos, ")", "expected ')'")
            return t
        name, pos = ident(text, pos)
        if name in binders:
            return bvar(binders.index(name))
        return free(name)

    out = term(())
    end_of_input(text, pos)
    return out


def show(t: LcTerm, debruijn: bool = False) -> str:
    """Print a term in the concrete grammar.

    Named mode invents binder names v0, v1, ... avoiding the free names
    of the whole term; a dangling index (possible on scope-extended
    carriers) prints as #k, a diagnostic form outside the grammar.  De
    Bruijn mode prints every binder as λ and every bound variable as
    its index.
    """
    taken = set() if debruijn else free_names(t)
    counter = [0]

    def next_name() -> str:
        while True:
            name = f"v{counter[0]}"
            counter[0] += 1
            if name not in taken:
                return name

    def go(t: LcTerm, level: int, binders: tuple[str, ...]) -> str:
        match t:
            case Var(Free(name)):
                return name
            case Var(Bound(k)):
                if debruijn:
                    return str(k)
                return binders[k] if k < len(binders) else f"#{k - len(binders)}"
            case App(f, a):
                s = f"{go(f, 1, binders)} {go(a, 2, binders)}"
                return f"({s})" if level > 1 else s
            case Abs(b):
                if debruijn:
                    s = f"λ. {go(b, 0, binders)}"
                else:
                    name = next_name()
                    s = f"\\{name}{t.annotation}. {go(b, 0, (name,) + binders)}"
                return f"({s})" if level > 0 else s
        raise MalformedTermError(f"not a lambda term: {t!r}")

    return go(t, 0, ())


def show_nf(t: NfTerm, debruijn: bool = False) -> str:
    return show(t.term, debruijn)


# ---------- generators ----------

NAME_POOL = ("x", "y", "z", "w")

# The pool's free variables, in NAME_POOL order: the generators' leaves.
_POOL_VARS = tuple(fvar(name) for name in NAME_POOL)


def gen_term(
    rng: random.Random,
    max_size: int = 8,
    depth: int = 0,
) -> LcTerm:
    """A random well-scoped term, geometrically smaller toward the leaves."""

    def go(budget: int, depth: int) -> LcTerm:
        if budget <= 1 or rng.random() < 0.3:
            if depth > 0 and rng.random() < 0.5:
                return bvar(rng.randrange(depth))
            return _POOL_VARS[rng.randrange(len(_POOL_VARS))]
        if rng.random() < 0.45:
            return Abs(go(budget - 1, depth + 1))
        k = rng.randrange(1, budget)
        return App(go(k, depth), go(budget - 1 - k, depth))

    return go(rng.randrange(1, max_size + 1), depth)


def gen_normal(
    rng: random.Random,
    max_size: int = 8,
    depth: int = 0,
) -> NfTerm:
    """A random normal form: built beta-normal by construction, then
    eta-contracted by reduce_to_normal, which finds no beta redex in it."""

    def leaf(depth: int) -> LcTerm:
        if depth > 0 and rng.random() < 0.5:
            return bvar(rng.randrange(depth))
        return _POOL_VARS[rng.randrange(len(_POOL_VARS))]

    def neutral(budget: int, depth: int) -> LcTerm:
        if budget <= 1 or rng.random() < 0.4:
            return leaf(depth)
        k = rng.randrange(1, budget)
        return App(neutral(k, depth), nf(budget - 1 - k, depth))

    def nf(budget: int, depth: int) -> LcTerm:
        if budget > 1 and rng.random() < 0.4:
            return Abs(nf(budget - 1, depth + 1))
        return neutral(budget, depth)

    return _sealed(reduce_to_normal(nf(rng.randrange(1, max_size + 1), depth)))


def _gen_subst(rng: random.Random) -> dict:
    return {
        name: gen_term(rng, max_size=5)
        for name in NAME_POOL
        if rng.random() < 0.4
    }


def _gen_nf_subst(rng: random.Random) -> dict:
    return {
        name: gen_normal(rng, max_size=5)
        for name in NAME_POOL
        if rng.random() < 0.4
    }


# ---------- instances ----------


def lc_monad() -> MonadInstance:
    return MonadInstance(
        name="lc",
        names=NAME_POOL,
        unit=fvar,
        bind=subst,
        gen_value=lambda rng: gen_term(rng),
        gen_subst=_gen_subst,
        show_value=show,
    )


def nf_monad() -> MonadInstance:
    return MonadInstance(
        name="nf",
        names=NAME_POOL,
        unit=lambda name: _sealed(fvar(name)),
        bind=nf_bind,
        gen_value=lambda rng: gen_normal(rng),
        gen_subst=_gen_nf_subst,
        show_value=show_nf,
    )


def scope_derived_lc_module() -> ModuleInstance:
    """The derived module of the calculus in scope form: carriers are
    terms one scope deeper, the dangling index 0 standing for the fresh
    variable, and the action is ordinary substitution (which shifts
    images under binders, exactly the derived action)."""
    return ModuleInstance(
        name="lc-scope-derived",
        monad=LC,
        mbind=subst,
        gen_value=lambda rng: gen_term(rng, depth=1),
        show_value=show,
    )


def scope_derived_nf_module() -> ModuleInstance:
    """Normal forms one scope deeper, acted on by substitute-and-renormalize."""
    return ModuleInstance(
        name="nf-scope-derived",
        monad=NF,
        mbind=nf_bind,
        gen_value=lambda rng: gen_normal(rng, depth=1),
        show_value=show_nf,
    )


LC = lc_monad()
NF = nf_monad()
