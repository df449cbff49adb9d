"""Module combinators: derivation, products, evaluation, base change,
and a small syntax whose plus/times swap is provably not linear.

Derivation extends the alphabet by one fresh marker drawn from a
reserved namespace; carriers keep their representation and the derived
action simply protects the marker from substitution.  Because markers
are ordinary (reserved) names, renaming and evaluation of the fresh
slot are just substitutions at that name.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Mapping

from .errors import ConfigError, MalformedTermError
from .harness import (
    ModuleInstance,
    MonadInstance,
    MonadMorphism,
    check_monad_morphism,
    fresh_name,
)
from .scan import end_of_input, expect, ident, skip_ws
from .terms import Free, Op, ScopedTerm, Signature, Var, fvar, substitute

# ---------- derivation ----------


def derive(mod: ModuleInstance) -> ModuleInstance:
    """Extend the module's alphabet by one fresh marker, the last of
    the derived module's fresh_markers.

    The derived action protects the marker (it is never substituted);
    the carrier generator seeds the marker into seven in ten sampled
    values through the base action so the fresh slot is exercised.
    """
    marker = fresh_name(len(mod.fresh_markers))
    m = mod.monad
    protected = mod.fresh_markers + (marker,)

    def mbind(s: Mapping, v: Any) -> Any:
        s2 = {k: img for k, img in s.items() if k not in protected}
        return mod.mbind(s2, v)

    def gen_value(rng: random.Random) -> Any:
        v = mod.gen_value(rng)
        if rng.random() < 0.7:
            name = m.names[rng.randrange(len(m.names))]
            v = mod.mbind({name: m.unit(marker)}, v)
        return v

    return ModuleInstance(
        name=f"{mod.name}'",
        monad=m,
        mbind=mbind,
        gen_value=gen_value,
        show_value=mod.show_value,
        fresh_markers=protected,
    )


def second_derivative_inclusions(
    mod: ModuleInstance,
) -> tuple[Callable[[Any], Any], Callable[[Any], Any]]:
    """The two inclusions of the first derivative into the second.

    The one-marker alphabet sits inside the two-marker alphabet either
    as the inner fresh slot (identity on carriers) or as the outer one
    (the marker renamed); both maps are linear.
    """
    first = derive(mod)
    second = derive(first)

    def inner(v: Any) -> Any:
        return v

    def outer(v: Any) -> Any:
        return mod.mbind({first.fresh_markers[-1]: mod.monad.unit(second.fresh_markers[-1])}, v)

    return inner, outer


def eval_morphism(mod: ModuleInstance) -> Callable[[tuple[Any, Any]], Any]:
    """Evaluation M' x R -> M: fill the fresh slot with a monad value.

    Since the fresh slot is a reserved name, this is substitution at
    that single name through the underived action.
    """
    marker = fresh_name(len(mod.fresh_markers))

    def ev(pair: tuple[Any, Any]) -> Any:
        v, r = pair
        return mod.mbind({marker: r}, v)

    return ev


# ---------- products ----------


def product(m1: ModuleInstance, m2: ModuleInstance) -> ModuleInstance:
    """The product module: pairs, acted on componentwise."""
    if m1.monad.name != m2.monad.name:
        raise ConfigError(
            f"product needs a shared base monad, got {m1.monad.name} and {m2.monad.name}"
        )

    return ModuleInstance(
        name=f"{m1.name} x {m2.name}",
        monad=m1.monad,
        mbind=lambda s, v: (m1.mbind(s, v[0]), m2.mbind(s, v[1])),
        gen_value=lambda rng: (m1.gen_value(rng), m2.gen_value(rng)),
        show_value=lambda v: f"({m1.show_value(v[0])}, {m2.show_value(v[1])})",
        fresh_markers=tuple(sorted(set(m1.fresh_markers) | set(m2.fresh_markers))),
    )


def constant_module(monad: MonadInstance) -> ModuleInstance:
    """A one-point carrier with the trivial action."""
    return ModuleInstance(
        name="constant",
        monad=monad,
        mbind=lambda s, v: v,
        gen_value=lambda rng: "point",
        show_value=str,
    )


# ---------- base change ----------


def base_change(f: MonadMorphism, mod: ModuleInstance) -> ModuleInstance:
    """Pull a module over the target monad back along a monad morphism.

    The carrier is unchanged; substitutions over the source monad act
    through their image under f.  The morphism squares are checked on
    64 samples up front; a failing morphism is a configuration error.
    """
    if f.dst.name != mod.monad.name:
        raise ConfigError(
            f"base change along {f.name} lands in {f.dst.name}, module is over {mod.monad.name}"
        )
    report = check_monad_morphism(f, samples=64, seed=0)
    for check in report.checks:
        if check.counterexample is not None:
            raise ConfigError(
                f"{f.name} is not a monad morphism ({check.name} fails):\n"
                + check.counterexample.format()
            )

    def mbind(s: Mapping, v: Any) -> Any:
        return mod.mbind({k: f.map(img) for k, img in s.items()}, v)

    return ModuleInstance(
        name=f"{f.name}*{mod.name}",
        monad=f.src,
        mbind=mbind,
        gen_value=mod.gen_value,
        show_value=mod.show_value,
        fresh_markers=mod.fresh_markers,
    )


def identity_morphism(m: MonadInstance) -> MonadMorphism:
    return MonadMorphism(name="identity", src=m, dst=m, map=lambda v: v)


# ---------- a syntax whose plus/times swap is not linear ----------
#
# Terms over a binder-free signature, so substitution is the generic one.


SIG_PT = Signature((("plus", (0, 0)), ("times", (0, 0))))
_PLUS, _TIMES = 0, 1
PtTerm = ScopedTerm
PVar = fvar


def Plus(left: PtTerm, right: PtTerm) -> PtTerm:
    return Op(_PLUS, (left, right))


def Times(left: PtTerm, right: PtTerm) -> PtTerm:
    return Op(_TIMES, (left, right))


def pt_bind(s: Mapping[str, PtTerm], t: PtTerm) -> PtTerm:
    """Homomorphic substitution: this binder-free syntax is a monad."""
    return substitute(SIG_PT, s, t)


def double_and_swap(t: PtTerm) -> PtTerm:
    """Double variables and swap the two operators.

    A natural transformation of the underlying functors that fails to
    commute with substitution; the harness finds the witness.
    """
    match t:
        case Var(Free(_)):
            return Plus(t, t)
        case Op(op, (l, r)) if op == _PLUS:
            return Times(double_and_swap(l), double_and_swap(r))
        case Op(op, (l, r)) if op == _TIMES:
            return Plus(double_and_swap(l), double_and_swap(r))
    raise MalformedTermError(f"not a plus/times term: {t!r}")


# Grammar: t ::= ident | t '+' t | t '*' t | '(' t ')', with '*' binding
# tighter than '+' and both left-associative.


def parse_pt(text: str) -> PtTerm:
    pos = 0

    def atom() -> PtTerm:
        nonlocal pos
        pos = skip_ws(text, pos)
        if text.startswith("(", pos):
            pos += 1
            t = expr()
            pos = expect(text, pos, ")", "expected ')'")
            return t
        name, pos = ident(text, pos)
        return PVar(name)

    def factor() -> PtTerm:
        nonlocal pos
        t = atom()
        while True:
            pos = skip_ws(text, pos)
            if not text.startswith("*", pos):
                return t
            pos += 1
            t = Times(t, atom())

    def expr() -> PtTerm:
        nonlocal pos
        t = factor()
        while True:
            pos = skip_ws(text, pos)
            if not text.startswith("+", pos):
                return t
            pos += 1
            t = Plus(t, factor())

    out = expr()
    end_of_input(text, pos)
    return out


def show_pt(t: PtTerm) -> str:
    def go(t: PtTerm, level: int) -> str:
        match t:
            case Var(Free(name)):
                return name
            case Op(op, (l, r)) if op == _PLUS:
                s = f"{go(l, 0)}+{go(r, 1)}"
                return f"({s})" if level > 0 else s
            case Op(op, (l, r)) if op == _TIMES:
                s = f"{go(l, 1)}*{go(r, 2)}"
                return f"({s})" if level > 1 else s
        raise MalformedTermError(f"not a plus/times term: {t!r}")

    return go(t, 0)


PT_NAMES = ("x", "y", "z")


def gen_pt(rng: random.Random, max_size: int = 6) -> PtTerm:
    def go(budget: int) -> PtTerm:
        if budget <= 1 or rng.random() < 0.35:
            return PVar(PT_NAMES[rng.randrange(len(PT_NAMES))])
        k = rng.randint(1, budget - 1)
        ctor = Plus if rng.random() < 0.5 else Times
        return ctor(go(k), go(budget - 1 - k))

    return go(rng.randint(1, max_size))


def pt_monad() -> MonadInstance:
    return MonadInstance(
        name="pt",
        names=PT_NAMES,
        unit=PVar,
        bind=pt_bind,
        gen_value=lambda rng: gen_pt(rng),
        gen_subst=lambda rng: {
            name: gen_pt(rng, max_size=4)
            for name in PT_NAMES
            if rng.random() < 0.4
        },
        show_value=show_pt,
    )


#: The canonical witness: substituting x*x into x and then transforming
#: disagrees with transforming first.
PT_WITNESS = ({"x": Times(PVar("x"), PVar("x"))}, PVar("x"))

PT = pt_monad()
