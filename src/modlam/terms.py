"""Signature-generic terms with nameless bound variables and named frees.

A term over a signature is either a variable or an operator applied to
arguments, where each argument position may open a number of binder slots.
Bound variables are de Bruijn indices counted from the innermost slot;
free variables are names.  Substitution only ever touches free names, so
capture is impossible by construction: binders bind indices, not names.

Substitution images are expected to be closed at binder depth 0 (no
dangling indices).  The implementation nevertheless shifts images by the
binder depth at the point of replacement, which is the identity for closed
images and keeps the operation correct on scope-extended carriers where a
dangling index plays the role of a fresh variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from .errors import ConfigError, MalformedTermError, ParseError
from .scan import end_of_input, nat, skip_ws, word

# ---------- variables ----------


@dataclass(frozen=True)
class Free:
    """A free variable, identified by name."""

    name: str


@dataclass(frozen=True)
class Bound:
    """A bound variable: distance to its binder slot, innermost first."""

    index: int


@dataclass(frozen=True)
class Var:
    """A variable occurrence, free or bound."""

    ref: Free | Bound


def fvar(name: str) -> Var:
    return Var(Free(name))


def bvar(index: int) -> Var:
    return Var(Bound(index))


# ---------- signatures ----------

Arity = tuple[int, ...]  # binder slots opened by each argument position


@dataclass(frozen=True)
class Signature:
    """A list of named operators with binding arities.

    The arity (1, 0) describes a binary operator whose first argument
    opens one binder slot and whose second argument opens none.
    """

    ops: tuple[tuple[str, Arity], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate operator name in signature")
        for name, arity in self.ops:
            if any(n < 0 for n in arity):
                raise ConfigError(f"negative binder count in arity of {name}")

    def __len__(self) -> int:
        return len(self.ops)

    def name(self, op: int) -> str:
        return self.ops[op][0]

    def arity(self, op: int) -> Arity:
        if not 0 <= op < len(self.ops):
            raise MalformedTermError(f"operator index {op} out of signature range")
        return self.ops[op][1]

    def checked_arity(self, op: int, args: tuple) -> Arity:
        """The arity of op, checked against the arguments it is given."""
        arity = self.arity(op)
        if len(args) != len(arity):
            raise MalformedTermError(
                f"operator {self.name(op)} expects {len(arity)} arguments, got {len(args)}"
            )
        return arity

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.ops):
            if n == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Op:
    """An operator node: signature index plus argument terms."""

    op: int
    args: tuple["ScopedTerm", ...]


ScopedTerm = Var | Op

# Substitutions are finite maps from free names to terms; names outside the
# map are fixed (identity default).
Subst = Mapping[str, ScopedTerm]


# ---------- structural helpers ----------


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
    """Check argument counts against the signature and bound indices
    against the ambient binder depth."""
    match t:
        case Var(Free(_)):
            return True
        case Var(Bound(k)):
            return 0 <= k < depth
        case Op(op, args):
            arity = sig.arity(op)
            if len(args) != len(arity):
                return False
            return all(
                well_scoped(sig, a, depth + n) for a, n in zip(args, arity)
            )
    return False


def _shift(sig: Signature, t: ScopedTerm, by: int, cutoff: int) -> ScopedTerm:
    # Adjust dangling indices (>= cutoff) by `by`; a no-op on closed terms.
    match t:
        case Var(Bound(k)):
            return bvar(k + by) if k >= cutoff else t
        case Var(Free(_)):
            return t
        case Op(op, args):
            arity = sig.checked_arity(op, args)
            return Op(
                op,
                tuple(
                    _shift(sig, a, by, cutoff + n) for a, n in zip(args, arity)
                ),
            )
    raise MalformedTermError(f"not a term: {t!r}")


def rename(sig: Signature, f: Mapping[str, str], t: ScopedTerm) -> ScopedTerm:
    """Rename free names along a finite map (identity elsewhere) by substitution."""
    return substitute(sig, {old: fvar(new) for old, new in f.items()}, t)


def substitute(sig: Signature, s: Subst, t: ScopedTerm, depth: int = 0) -> ScopedTerm:
    """Capture-avoiding simultaneous substitution of free names.

    Under k binder slots an image is shifted by k, which leaves closed
    images untouched; bound variables are never rewritten.
    """
    match t:
        case Var(Free(name)):
            if name in s:
                return _shift(sig, s[name], depth, 0) if depth else s[name]
            return t
        case Var(Bound(_)):
            return t
        case Op(op, args):
            arity = sig.checked_arity(op, args)
            return Op(
                op,
                tuple(
                    substitute(sig, s, a, depth + n)
                    for a, n in zip(args, arity)
                ),
            )
    raise MalformedTermError(f"not a term: {t!r}")


# ---------- representations and the generic fold ----------


@dataclass(frozen=True)
class Representation:
    """A target for the generic fold: one function per operator.

    The function for an operator receives one target value per argument,
    each already folded in its (possibly scope-extended) argument scope.
    `bound_value` realizes fresh binder slots in the target; it is only
    required when the signature actually binds.  `monad` supplies the
    default environment (unit on free names) when present.
    """

    signature: Signature
    ops: tuple[Callable[..., Any], ...]
    bound_value: Optional[Callable[[int], Any]] = None
    monad: Any = None

    def __post_init__(self):
        if len(self.ops) != len(self.signature):
            raise ConfigError(
                "representation has %d operator functions for a signature of %d"
                % (len(self.ops), len(self.signature))
            )


def fold(
    rep: Representation,
    t: ScopedTerm,
    env: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Structural recursion sending operators to their representation.

    Free names go through env (default: the target monad's unit); bound
    variables go through the representation's bound_value.
    """
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


def self_representation(sig: Signature) -> Representation:
    """The syntactic representation of a signature on its own terms."""
    funs = tuple(
        (lambda op: (lambda *args: Op(op, tuple(args))))(i) for i in range(len(sig))
    )
    return Representation(sig, funs, bound_value=bvar)


# ---------- s-expression grammar ----------
#
#   term ::= ident | '#' nat | '(' opname term* ')'
#
# Operator names are resolved against the signature.


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


# ---------- signature files ----------
#
# One operator per line, `name: [n1, n2, ...]`, '#' starts a comment.


def parse_signature(text: str) -> Signature:
    ops: list[tuple[str, Arity]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(f"missing ':' on line {lineno}", lineno)
        name, rest = line.split(":", 1)
        name = name.strip()
        rest = rest.strip()
        if not name.isidentifier():
            raise ParseError(f"bad operator name {name!r} on line {lineno}", lineno)
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ParseError(f"expected [..] arity on line {lineno}", lineno)
        inner = rest[1:-1].strip()
        if inner:
            try:
                arity = tuple(int(p.strip()) for p in inner.split(","))
            except ValueError:
                raise ParseError(f"bad arity on line {lineno}", lineno) from None
        else:
            arity = ()
        ops.append((name, arity))
    return Signature(tuple(ops))


def format_signature(sig: Signature) -> str:
    lines = []
    for name, arity in sig.ops:
        lines.append(f"{name}: [{', '.join(str(n) for n in arity)}]")
    return "\n".join(lines) + "\n"
