"""Reference versions of the term readers, the printers, the fold and the
other walks of a term: the recursive, character-by-character forms that
modlam.lam, modlam.typed and modlam.terms replaced, kept unchanged so
the differential tests can compare the two on any input.  Only the
scanning helpers they called are copied in beside them.  The recursive
substitute, _shift and well_scoped of modlam.terms, the recursive
lambda printer show, and modlam.lam's recursive shift, subst, subst0
and uses_bound (as lam_shift, lam_subst, lam_subst0 and uses_bound) and
modlam.typed's recursive stlc_subst are here too, and term_eq and
op_eq, the recursive equalities App, Abs and TAbs and modlam.terms' Op
had as dataclasses.  Also
free_names, the free names of a signature term, and lam_free_names, the
free names of a lambda term (the prepass modlam.lam's printer made
before it collected them as it prints), which only tests need;
beta_normal, modlam.lam's normalizer as it was when each head
contraction was a walk of its own, checked for a cycle after each; the
recursive type printer show_type and type checker typecheck; and
the generators gen_normal (build, then normalize the finished term) and
gen_typed_term (a fresh candidate list at every leaf), which must draw
and build exactly what modlam's do.

The reference s-expression parser reads an index after '#' with
str.isdigit, so it takes non-ASCII digits: '#²' raises ValueError from
int() and '#１２' is read as index 12.  The grammar's index is ASCII
[0-9]+, so there the two differ by design.

The reference lambda parser reads a binder name with str.isalpha, so
'\\λ. x' binds a name 'λ' that nothing can reference.  In the grammar a
lambda always starts a binder, so there the two differ by design too.
"""

import random
from dataclasses import fields
from functools import partial
from operator import is_
from typing import Any, Callable, Mapping, Optional

from modlam.errors import ConfigError, MalformedTermError, ParseError, TypeCheckError
from modlam.fuel import Fuel, ReductionCycle
from modlam.lam import (
    _POOL_VARS,
    MAX_DEPTH,
    Abs,
    App,
    NfTerm,
    _eta_contract,
    _sealed,
    _too_deep,
    reduce_to_normal,
    subst0,
)
from modlam.terms import (
    Bound,
    Free,
    Op,
    Representation,
    ScopedTerm,
    Signature,
    Var,
    bvar,
    fvar,
)
from modlam.typed import (
    _POOL_VARS as _TYPED_POOL_VARS,
    BASE,
    STLC_TYPES,
    Arrow,
    BaseType,
    SimpleType,
    TAbs,
    TApp,
    TFree,
    TVar,
    type_of,
)


def skip_ws(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and text[pos].isspace():
        pos += 1
    return pos


def _name_end(text: str, pos: int) -> int:
    n = len(text)
    while pos < n and (text[pos].isalnum() or text[pos] in "_'"):
        pos += 1
    return pos


def word(text: str, pos: int) -> tuple[str, int]:
    end = _name_end(text, pos)
    if end == pos:
        raise ParseError("expected identifier", pos)
    return text[pos:end], end


def nat(text: str, pos: int, message: str) -> tuple[int, int]:
    end = pos
    while end < len(text) and text[end].isdigit():
        end += 1
    if end == pos:
        raise ParseError(message, pos)
    return int(text[pos:end]), end


def ident(text: str, pos: int) -> tuple[str, int]:
    n = len(text)
    if pos >= n or not (text[pos].isalpha() or text[pos] == "_"):
        raise ParseError("expected identifier", pos)
    end = pos + 1
    while end < n and (text[end].isalnum() or text[end] in "_'"):
        end += 1
    return text[pos:end], end


def expect(text: str, pos: int, token: str, message: str) -> int:
    pos = skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ParseError(message, pos)
    return pos + len(token)


def end_of_input(text: str, pos: int) -> None:
    pos = skip_ws(text, pos)
    if pos != len(text):
        raise ParseError("trailing input", pos)


def parse_sexpr(sig: Signature, text: str) -> ScopedTerm:
    pos = 0
    n = len(text)

    def term() -> ScopedTerm:
        nonlocal pos
        pos = skip_ws(text, pos)
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        c = text[pos]
        if c == "#":
            k, pos = nat(text, pos + 1, "expected index after '#'")
            return bvar(k)
        if c == "(":
            at = skip_ws(text, pos + 1)
            name, pos = word(text, at)
            try:
                op = sig.index(name)
            except KeyError:
                raise ParseError(f"unknown operator {name!r}", at) from None
            args = []
            while True:
                pos = skip_ws(text, pos)
                if pos >= n:
                    raise ParseError("expected ')'", pos)
                if text[pos] == ")":
                    pos += 1
                    break
                args.append(term())
            if len(args) != len(sig.arity(op)):
                raise ParseError(
                    f"operator {name!r} expects {len(sig.arity(op))} arguments, got {len(args)}",
                    at,
                )
            return Op(op, tuple(args))
        name, pos = word(text, pos)
        return fvar(name)

    out = term()
    end_of_input(text, pos)
    return out


def show_sexpr(sig: Signature, t: ScopedTerm) -> str:
    match t:
        case Var(Free(name)):
            return name
        case Var(Bound(k)):
            return f"#{k}"
        case Op(op, args):
            if len(args) != len(sig.arity(op)):
                sig.checked_arity(op, args)
            name = sig.name(op)
            if not args:
                return f"({name})"
            return "(" + " ".join([name] + [show_sexpr(sig, a) for a in args]) + ")"
    raise MalformedTermError(f"not a term: {t!r}")


def fold(
    rep: Representation,
    t: ScopedTerm,
    env: Optional[Mapping[str, Any]] = None,
) -> Any:
    sig = rep.signature
    if env is None:
        if rep.monad is None:
            raise ConfigError("fold needs an env when the representation has no monad")
        unit = rep.monad.unit
        env_fn = lambda name: unit(name)
    else:
        def env_fn(name: str):
            if name not in env:
                raise ConfigError(f"fold env not total: missing {name!r}")
            return env[name]

    def go(t: ScopedTerm) -> Any:
        match t:
            case Var(Free(name)):
                return env_fn(name)
            case Var(Bound(k)):
                if rep.bound_value is None:
                    raise ConfigError("representation has no bound_value for binder slots")
                return rep.bound_value(k)
            case Op(op, args):
                sig.checked_arity(op, args)
                return rep.ops[op](*map(go, args))
        raise MalformedTermError(f"not a term: {t!r}")

    return go(t)


def free_names(t: ScopedTerm) -> set[str]:
    match t:
        case Var(Free(name)):
            return {name}
        case Var(Bound(_)):
            return set()
        case Op(_, args):
            out: set[str] = set()
            for a in args:
                out |= free_names(a)
            return out
    raise MalformedTermError(f"not a term: {t!r}")


def well_scoped(sig: Signature, t: ScopedTerm, depth: int = 0) -> bool:
    match t:
        case Var(Free(_)):
            return True
        case Var(Bound(k)):
            return 0 <= k < depth
        case Op(op, args):
            arity = sig._arities.get(op)
            if arity is None or len(args) != len(arity):
                return False
            return all(
                well_scoped(sig, a, depth + n) for a, n in zip(args, arity)
            )
    return False


def _shift(sig: Signature, t: ScopedTerm, by: int, cutoff: int) -> ScopedTerm:
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Bound):
            return bvar(ref.index + by) if ref.index >= cutoff else t
        if isinstance(ref, Free):
            return t
    elif isinstance(t, Op):
        args = t.args
        arity = sig._arities.get(t.op)
        if arity is None or len(arity) != len(args):
            sig.checked_arity(t.op, args)
        new = [_shift(sig, a, by, cutoff + n) for a, n in zip(args, arity)]
        return t if all(map(is_, new, args)) else Op(t.op, tuple(new))
    raise MalformedTermError(f"not a term: {t!r}")


def substitute(sig: Signature, s, t: ScopedTerm, depth: int = 0) -> ScopedTerm:
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Free):
            name = ref.name
            if name in s:
                return _shift(sig, s[name], depth, 0) if depth else s[name]
            return t
        if isinstance(ref, Bound):
            return t
    elif isinstance(t, Op):
        args = t.args
        arity = sig._arities.get(t.op)
        if arity is None or len(arity) != len(args):
            sig.checked_arity(t.op, args)
        new = []
        for a, n in zip(args, arity):
            new.append(substitute(sig, s, a, depth + n))
        return t if all(map(is_, new, args)) else Op(t.op, tuple(new))
    raise MalformedTermError(f"not a term: {t!r}")


def lam_shift(t, by: int = 1, cutoff: int = 0):
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Bound):
            return bvar(ref.index + by) if ref.index >= cutoff else t
        if isinstance(ref, Free):
            return t
    elif isinstance(t, App):
        f = lam_shift(t.fun, by, cutoff)
        a = lam_shift(t.arg, by, cutoff)
        return t if f is t.fun and a is t.arg else App(f, a)
    elif isinstance(t, Abs):
        b = lam_shift(t.body, by, cutoff + 1)
        return t if b is t.body else t.with_body(b)
    raise MalformedTermError(f"not a lambda term: {t!r}")


def lam_subst(s, t, depth: int = 0):
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Free):
            name = ref.name
            if name in s:
                return lam_shift(s[name], depth) if depth else s[name]
            return t
        if isinstance(ref, Bound):
            return t
    elif isinstance(t, App):
        f = lam_subst(s, t.fun, depth)
        a = lam_subst(s, t.arg, depth)
        return t if f is t.fun and a is t.arg else App(f, a)
    elif isinstance(t, Abs):
        b = lam_subst(s, t.body, depth + 1)
        return t if b is t.body else t.with_body(b)
    raise MalformedTermError(f"not a lambda term: {t!r}")


def lam_subst0(t, u):
    shifted = {0: u}

    def go(t, j: int):
        if isinstance(t, Var):
            ref = t.ref
            if isinstance(ref, Bound):
                k = ref.index
                if k == j:
                    image = shifted.get(j)
                    if image is None:
                        image = shifted[j] = lam_shift(u, j)
                    return image
                return bvar(k - 1) if k > j else t
            if isinstance(ref, Free):
                return t
        elif isinstance(t, App):
            f = go(t.fun, j)
            a = go(t.arg, j)
            return t if f is t.fun and a is t.arg else App(f, a)
        elif isinstance(t, Abs):
            b = go(t.body, j + 1)
            return t if b is t.body else t.with_body(b)
        raise MalformedTermError(f"not a lambda term: {t!r}")

    return go(t, 0)


def uses_bound(t, index: int) -> bool:
    if isinstance(t, Var):
        ref = t.ref
        if isinstance(ref, Bound):
            return ref.index == index
        if isinstance(ref, Free):
            return False
    elif isinstance(t, App):
        return uses_bound(t.fun, index) or uses_bound(t.arg, index)
    elif isinstance(t, Abs):
        return uses_bound(t.body, index + 1)
    raise MalformedTermError(f"not a lambda term: {t!r}")


def term_eq(a, b) -> bool:
    """a == b as it was when App, Abs and TAbs used the dataclass __eq__:
    a node equals a node of the same class whose fields, left to right,
    are each the same object or equal (recursively); a node equals no
    other operand, and other operands compare with their own ==."""
    if isinstance(a, (App, Abs)) or isinstance(b, (App, Abs)):
        if type(a) is not type(b):
            return False
        return all(
            x is y or term_eq(x, y)
            for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
        )
    return a == b


def op_eq(a, b) -> bool:
    """a == b as it was when Op used the dataclass __eq__: an operator
    equals an operator of the same class whose (op, args) pair is equal
    element by element, each the same object or equal (recursively); an
    operator equals no other operand, and other operands compare with
    their own ==."""
    if isinstance(a, Op) or isinstance(b, Op):
        return (
            type(a) is type(b) and (a.op is b.op or a.op == b.op)
            and len(a.args) == len(b.args)
            and all(x is y or op_eq(x, y) for x, y in zip(a.args, b.args))
        )
    return a == b


def lam_free_names(t) -> set[str]:
    # One walk on an explicit stack into one set, left to right, so the
    # first malformed node met is the one a recursive walk would meet.
    out: set[str] = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, App):
            stack.append(t.arg)
            stack.append(t.fun)
        elif isinstance(t, Abs):
            stack.append(t.body)
        elif isinstance(t, Var) and isinstance(t.ref, Free):
            out.add(t.ref.name)
        elif not (isinstance(t, Var) and isinstance(t.ref, Bound)):
            raise MalformedTermError(f"not a lambda term: {t!r}")
    return out


def show(t, debruijn: bool = False) -> str:
    taken = set() if debruijn else lam_free_names(t)
    counter = [0]

    def next_name() -> str:
        while True:
            name = f"v{counter[0]}"
            counter[0] += 1
            if name not in taken:
                return name

    def go(t, level: int, binders: tuple[str, ...]) -> str:
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


def parse(text: str):
    return parse_binding(text, _bare_binder, fvar)


def _bare_binder(text: str, pos: int):
    return Abs, expect(text, pos, ".", "expected '.' after binder")


def parse_binding(
    text: str,
    binder: Callable[[str, int], tuple[Callable, int]],
    free: Callable[[str], Any],
):
    pos = 0

    def term(binders: tuple[str, ...]):
        nonlocal pos
        pos = skip_ws(text, pos)
        if text.startswith(("\\", "λ"), pos):
            name, pos = ident(text, skip_ws(text, pos + 1))
            make, pos = binder(text, pos)
            return make(term((name,) + binders))
        return app(binders)

    def app(binders: tuple[str, ...]):
        nonlocal pos
        t = atom(binders)
        while True:
            pos = skip_ws(text, pos)
            c = text[pos : pos + 1]
            if c and c != "λ" and (c.isalpha() or c in "(_"):
                t = App(t, atom(binders))
            else:
                return t

    def atom(binders: tuple[str, ...]):
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


def parse_stlc(text: str):
    return parse_binding(text, _typed_binder, lambda name: TVar(TFree(name, BASE)))


def _typed_binder(text: str, pos: int):
    pos = expect(text, pos, ":", "expected ':' after binder")
    ty, pos = _parse_type(text, pos)
    return partial(TAbs, ty), expect(text, pos, ".", "expected '.' after binder type")


def _parse_type(text: str, pos: int):
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


def typecheck(
    ctx: Mapping[str, SimpleType], t, _binders: tuple[SimpleType, ...] = ()
) -> SimpleType:
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


def stlc_subst(s, t):
    image_types = {name: type_of(img) for name, img in s.items()}
    declared: dict = {}
    clashes: list = []

    def go(t):
        if isinstance(t, Var):
            ref = t.ref
            if isinstance(ref, TFree):
                name = ref.name
                ty = declared.setdefault(name, ref.type)
                if ty is not ref.type:
                    raise TypeCheckError(f"free name {name!r} used at two types")
                if name in s:
                    if image_types[name] is not ty:
                        clashes.append(name)
                    return s[name]
                return t
            if isinstance(ref, Bound):
                return t
        elif isinstance(t, App):
            # The argument first, as free_types pops it first.
            a = go(t.arg)
            f = go(t.fun)
            return t if f is t.fun and a is t.arg else App(f, a)
        elif isinstance(t, TAbs):
            b = go(t.body)
            return t if b is t.body else TAbs(t.binder_type, b)
        raise MalformedTermError(f"not a typed term: {t!r}")

    out = go(t)
    if clashes:
        name = min(clashes)
        raise TypeCheckError(
            f"image for {name!r} has type {show_type(image_types[name])}, "
            f"occurrence declares {show_type(declared[name])}"
        )
    return out


def gen_normal(rng: random.Random, max_size: int = 8, depth: int = 0) -> NfTerm:
    def leaf(depth: int):
        if depth > 0 and rng.random() < 0.5:
            return bvar(rng.randrange(depth))
        return _POOL_VARS[rng.randrange(len(_POOL_VARS))]

    def neutral(budget: int, depth: int):
        if budget <= 1 or rng.random() < 0.4:
            return leaf(depth)
        k = rng.randrange(1, budget)
        return App(neutral(k, depth), nf(budget - 1 - k, depth))

    def nf(budget: int, depth: int):
        if budget > 1 and rng.random() < 0.4:
            return Abs(nf(budget - 1, depth + 1))
        return neutral(budget, depth)

    return _sealed(reduce_to_normal(nf(rng.randrange(1, max_size + 1), depth)))


def gen_typed_term(
    rng: random.Random,
    target: Optional[SimpleType] = None,
    max_size: int = 12,
    binders: tuple[SimpleType, ...] = (),
):
    if target is None:
        target = STLC_TYPES[rng.randrange(len(STLC_TYPES))]

    def candidates(ty, binders):
        out = [TVar(Bound(i)) for i, b in enumerate(binders) if b is ty]
        out.extend(_TYPED_POOL_VARS.get(ty, ()))
        return out

    def leaf(ty, binders):
        opts = candidates(ty, binders)
        if opts:
            return opts[rng.randrange(len(opts))]
        assert isinstance(ty, Arrow)
        return TAbs(ty.dom, leaf(ty.cod, (ty.dom,) + binders))

    def go(ty, budget: int, binders):
        if budget <= 1 or rng.random() < 0.3:
            return leaf(ty, binders)
        if isinstance(ty, Arrow) and rng.random() < 0.5:
            return TAbs(ty.dom, go(ty.cod, budget - 1, (ty.dom,) + binders))
        dom = STLC_TYPES[rng.randrange(len(STLC_TYPES))]
        k = rng.randrange(1, budget)
        fun = go(Arrow(dom, ty), k, binders)
        arg = go(dom, budget - 1 - k, binders)
        return TApp(fun, arg)

    return go(target, rng.randrange(1, max_size + 1), binders)


def beta_normal(t, budget: Fuel):
    """modlam.lam._beta_normal as it was when every head contraction was a
    walk of its own: (\\x1. ... \\xm. b) a1 ... am took m subst0 calls, and
    Brent's cycle check compared the state after each one, with the
    snapshot retaken at power-of-two contraction counts of the run."""
    frames: list = []
    depth = 0
    args: list = []
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
                        and t == snap_t
                        and args == snap_args
                    ):
                        budget.remaining = 0
                        raise ReductionCycle(steps - snap_steps, steps)
                    if steps - run_start == power:
                        snap_t, snap_args, snap_len = t, args[:], len(args)
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
