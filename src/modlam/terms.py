"""Signature-generic terms with nameless bound variables and named frees.

A term over a signature is either a variable or an operator applied to
arguments, where each argument position may open a number of binder slots.
A variable is a leaf node of its own, Free(name) or Bound(index): the
unit of the syntax monad sends a name to the term Free(name), and Var =
Free | Bound names the two for annotations and isinstance.  Bound
variables are de Bruijn indices counted from the innermost slot; free
variables are names.  Substitution only ever touches free names, so
capture is impossible by construction: binders bind indices, not names.

Substitution images are expected to be closed at binder depth 0 (no
dangling indices).  The implementation nevertheless shifts images by the
binder depth at the point of replacement, which is the identity for closed
images and keeps the operation correct on scope-extended carriers where a
dangling index plays the role of a fresh variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_
from typing import Any, Callable, Mapping, Optional

from .errors import ConfigError, MalformedTermError, ParseError

# ---------- variables ----------


@dataclass(frozen=True)
class Free:
    """A free variable, identified by name."""

    name: str


@dataclass(frozen=True)
class Bound:
    """A bound variable: distance to its binder slot, innermost first."""

    index: int


Var = Free | Bound  # a type, for annotations and isinstance


def fvar(name: str) -> Free:
    return Free(name)


def bvar(index: int) -> Bound:
    """The bound variable of the given index.  Variables are immutable, so
    one object per small nonnegative index serves every occurrence; any
    other index (negative ones included) is built afresh."""
    if 0 <= index < _BVAR_TABLE_SIZE:
        return _BVARS[index]
    return Bound(index)


# Indices are binder distances, small in practice: reducing Church numerals
# never goes past 4.  Anything larger is merely built, so no limit elsewhere
# has to agree with this size.
_BVAR_TABLE_SIZE = 64
_BVARS = tuple(Bound(k) for k in range(_BVAR_TABLE_SIZE))


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
        index = {name: i for i, (name, _) in enumerate(self.ops)}
        if len(index) != len(self.ops):
            raise ConfigError("duplicate operator name in signature")
        for name, arity in self.ops:
            if any(n < 0 for n in arity):
                raise ConfigError(f"negative binder count in arity of {name}")
        # Tables every walk reads at each node: an operator index missing
        # from _arities is out of range.
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_arities", dict(enumerate(arity for _, arity in self.ops)))

    def __len__(self) -> int:
        return len(self.ops)

    def name(self, op: int) -> str:
        return self.ops[op][0]

    def arity(self, op: int) -> Arity:
        if not 0 <= op < len(self.ops):
            raise MalformedTermError(f"operator index {op} out of signature range")
        return self.ops[op][1]

    def checked_arity(self, op: int, args: tuple) -> Arity:
        """The arity of op, checked against the arguments it is given.
        The walks call it only to raise the error for a bad node."""
        arity = self.arity(op)
        if len(args) != len(arity):
            raise MalformedTermError(
                f"operator {self.name(op)} expects {len(arity)} arguments, got {len(args)}"
            )
        return arity

    def index(self, name: str) -> int:
        return self._index[name]


def _same_op(a: "Op", b) -> bool:
    # The __eq__ of Op, on a stack of the operator pairs still to compare:
    # at each pair the class, operator index and argument count, then the
    # arguments, each pair by identity first, then a pair of operators
    # onto the stack and a pair of leaves by their ==.
    if type(b) is not type(a):
        return False if isinstance(b, ScopedTerm) else NotImplemented
    todo = []
    while True:
        if a.op != b.op or len(a.args) != len(b.args):
            return False
        for x, y in zip(a.args, b.args):
            if x is not y:
                if isinstance(x, Op):
                    todo.append((x, y))
                elif not x == y:
                    return False
        if not todo:
            return True
        a, b = todo.pop()
        if type(b) is not type(a):
            return False


# The fields live in __slots__ and the constructor sets them through the
# slot descriptors, as lam's App and Abs do: no instance __dict__ is ever
# created, since nothing marks an operator node, and field reads keep the
# interpreter's fast path.  __reduce__ rebuilds a node through its
# constructor: the default copy and pickle would set the slots through
# the frozen __setattr__.


@dataclass(frozen=True, init=False, eq=False, unsafe_hash=True)
class Op:
    """An operator node: signature index plus argument terms."""

    __slots__ = ("op", "args")
    op: int
    args: tuple["ScopedTerm", ...]

    __eq__ = _same_op

    def __init__(self, op: int, args: tuple["ScopedTerm", ...]):
        _set_op(self, op)
        _set_args(self, args)

    def __reduce__(self):
        return Op, (self.op, self.args)


_set_op = Op.op.__set__
_set_args = Op.args.__set__


ScopedTerm = Var | Op

# Substitutions are finite maps from free names to terms; names outside the
# map are fixed (identity default).
Subst = Mapping[str, ScopedTerm]


# ---------- structural helpers ----------
#
# Every walk of a term keeps the operators it is inside on one explicit
# stack, each with an iterator over the arguments it has yet to visit, so
# nesting is bounded by memory, not by the recursion limit.  A variable is
# dealt with in its parent's argument loop; the root is the one argument
# of a frame of its own.  Arguments go left to right and an operator's
# arity is checked when it is met, so the first malformed node is the one
# a recursive walk would meet.


def well_scoped(sig: Signature, t: ScopedTerm, depth: int = 0) -> bool:
    """Check argument counts against the signature and bound indices
    against the ambient binder depth."""
    arities = sig._arities
    stack = []  # (the rest of its (argument, slots) pairs, depth) of each enclosing operator
    todo = iter(((t, 0),))
    while True:
        for a, n in todo:
            if isinstance(a, Op):
                arity = arities.get(a.op)
                if arity is None or len(arity) != len(a.args):
                    return False
                stack.append((todo, depth))
                todo = zip(a.args, arity)
                depth += n
                break
            if not (isinstance(a, Free) or isinstance(a, Bound) and 0 <= a.index < depth + n):
                return False
        else:
            if not stack:
                return True
            todo, depth = stack.pop()


def _replace(sig: Signature, s: Subst, by: int, t: ScopedTerm, depth: int) -> ScopedTerm:
    # The walk behind substitute; with s empty it shifts an image.  Under
    # d binder slots (depth counted in) a free name in s becomes its image
    # shifted by d, and a bound index k >= d becomes k + by.  Operators
    # whose arguments all come back unchanged are shared, t itself included.
    arities = sig._arities
    # Names whose image one shift left as it was: it has no dangling index,
    # so no shift changes it, and it is placed unshifted from then on.
    closed = set()
    stack = []  # (operator, its new arguments, the rest of them, depth) of each enclosing one
    node = None
    new: list[ScopedTerm] = []
    todo = iter(((t, 0),))
    while True:
        for a, n in todo:
            if isinstance(a, Op):
                args = a.args
                arity = arities.get(a.op)
                if arity is None or len(arity) != len(args):
                    sig.checked_arity(a.op, args)
                stack.append((node, new, todo, depth))
                node, new, todo = a, [], zip(args, arity)
                depth += n
                break
            if isinstance(a, Free):
                name = a.name
                if name in s:
                    a = s[name]
                    if depth + n and name not in closed:
                        shifted = _replace(sig, {}, depth + n, a, 0)
                        if shifted is a:
                            closed.add(name)
                        a = shifted
            elif isinstance(a, Bound):
                if by and a.index >= depth + n:
                    a = bvar(a.index + by)
            else:
                raise MalformedTermError(f"not a term: {a!r}")
            new.append(a)
        else:
            if not stack:
                return new[0]
            done = node if all(map(is_, new, node.args)) else Op(node.op, tuple(new))
            node, new, todo, depth = stack.pop()
            new.append(done)


def rename(sig: Signature, f: Mapping[str, str], t: ScopedTerm) -> ScopedTerm:
    """Rename free names along a finite map (identity elsewhere) by substitution."""
    return substitute(sig, {old: fvar(new) for old, new in f.items()}, t)


def substitute(sig: Signature, s: Subst, t: ScopedTerm) -> ScopedTerm:
    """Capture-avoiding simultaneous substitution of free names.

    Under k binder slots an image is shifted by k, which leaves closed
    images untouched; bound variables are never rewritten.  Subterms
    with nothing replaced are shared with t, t itself included.
    """
    return _replace(sig, s, 0, t, 0)


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
    arities = sig._arities
    ops = rep.ops
    bound_value = rep.bound_value
    if env is None:
        if rep.monad is None:
            raise ConfigError("fold needs an env when the representation has no monad")
        env_fn = rep.monad.unit
    else:
        def env_fn(name: str):
            if name not in env:
                raise ConfigError(f"fold env not total: missing {name!r}")
            return env[name]

    stack = []  # (operator, its folded arguments, the rest of its arguments) of each enclosing one
    op = None
    values: list = []
    todo = iter((t,))
    while True:
        for a in todo:
            if isinstance(a, Op):
                args = a.args
                arity = arities.get(a.op)
                if arity is None or len(arity) != len(args):
                    sig.checked_arity(a.op, args)
                stack.append((op, values, todo))
                op, values, todo = a.op, [], iter(args)
                break
            if isinstance(a, Free):
                values.append(env_fn(a.name))
            elif isinstance(a, Bound):
                if bound_value is None:
                    raise ConfigError("representation has no bound_value for binder slots")
                values.append(bound_value(a.index))
            else:
                raise MalformedTermError(f"not a term: {a!r}")
        else:
            if not stack:
                return values[0]
            value = ops[op](*values)
            op, values, todo = stack.pop()
            values.append(value)


def self_representation(sig: Signature) -> Representation:
    """The syntactic representation of a signature on its own terms."""
    funs = tuple((lambda op: (lambda *args: Op(op, args)))(i) for i in range(len(sig)))
    return Representation(sig, funs, bound_value=bvar)


# ---------- s-expression grammar ----------
#
#   term ::= ident | '#' [0-9]+ | '(' opname term* ')'
#
# An ident (or opname) is a nonempty run of alphanumerics, '_' and "'";
# it may start with a digit.  Operator names are resolved against the
# signature.  Parser and printer keep open operators on an explicit
# stack, so nesting is bounded by memory, not by the recursion limit.

# One token per match; the whitespace between matches is skipped.  An
# opening parenthesis takes the operator name right after it into its
# token, and any other character no rule accepts is a token of its own.
# \w and \s are exactly str.isalnum() or '_' and str.isspace().
_TOKEN = re.compile(r"\([\w']+|[()]|#[0-9]*|[\w']+|\S")
_WORD = re.compile(r"[\w']+")


def _error(token: re.Pattern, text: str, i: int, message: str, offset: int = 0) -> ParseError:
    # The error at the i-th match of token in text (past the last match:
    # the end of the text), offset characters into it.  Every grammar
    # that reads a token list computes its positions only here.
    starts = [m.start() for m in token.finditer(text)]
    return ParseError(message, starts[i] + offset if i < len(starts) else len(text))


def parse_sexpr(sig: Signature, text: str) -> ScopedTerm:
    tokens = _TOKEN.findall(text)
    n = len(tokens)
    index = sig._index
    arities = sig._arities
    leaves: dict[str, Var] = {}  # one variable per token text
    root: list[ScopedTerm] = []
    open_ops = []  # (op, token index of its name, args) of each enclosing operator
    op = at = None  # the innermost open operator and the token index of its name
    args = root  # its arguments so far
    i = 0
    while True:
        if i == n:
            message = "unexpected end of input" if args is root else "expected ')'"
            raise _error(_TOKEN, text, i, message)
        tok = tokens[i]
        c = tok[0]
        if c == "(":
            if len(tok) > 1:
                name = tok[1:]
            else:  # whitespace, or no name, follows the parenthesis
                i += 1
                name = tokens[i] if i < n else ""
                if not _WORD.fullmatch(name):
                    raise _error(_TOKEN, text, i, "expected identifier")
            found = index.get(name)
            if found is None:
                message = f"unknown operator {name!r}"
                raise _error(_TOKEN, text, i, message, len(tokens[i]) - len(name))
            open_ops.append((op, at, args))
            op, at, args = found, i, []
            i += 1
            continue
        if c == ")":
            if args is root:
                raise _error(_TOKEN, text, i, "expected identifier")
            if len(args) != len(arities[op]):
                name = tokens[at].lstrip("(")
                message = f"operator {name!r} expects {len(arities[op])} arguments, got {len(args)}"
                raise _error(_TOKEN, text, at, message, len(tokens[at]) - len(name))
            value = Op(op, tuple(args))
            op, at, args = open_ops.pop()
        else:
            value = leaves.get(tok)
            if value is None:
                if c == "#":
                    if len(tok) == 1:
                        raise _error(_TOKEN, text, i, "expected index after '#'", 1)
                    try:
                        value = bvar(int(tok[1:]))
                    except ValueError:  # more digits than int() converts
                        raise _error(_TOKEN, text, i, "index too large") from None
                elif _WORD.fullmatch(tok):
                    value = fvar(tok)
                else:
                    raise _error(_TOKEN, text, i, "expected identifier")
                leaves[tok] = value
        i += 1
        args.append(value)
        if args is root:
            if i != n:
                raise _error(_TOKEN, text, i, "trailing input")
            return value


def show_sexpr(sig: Signature, t: ScopedTerm) -> str:
    arities = sig._arities
    opens = [f" ({name}" for name, _ in sig.ops]
    out: list[str] = []  # every term's text starts with a space
    append = out.append
    stack = []  # the rest of the arguments of each enclosing operator
    todo = iter((t,))
    while True:
        for a in todo:
            if isinstance(a, Op):
                args = a.args
                arity = arities.get(a.op)
                if arity is None or len(arity) != len(args):
                    sig.checked_arity(a.op, args)
                append(opens[a.op])
                stack.append(todo)
                todo = iter(args)
                break
            if isinstance(a, Free):
                append(" " + a.name)
            elif isinstance(a, Bound):
                append(f" #{a.index}")
            else:
                raise MalformedTermError(f"not a term: {a!r}")
        else:
            if not stack:
                return "".join(out)[1:]
            append(")")
            todo = stack.pop()


# ---------- signature files ----------
#
# One operator per line, `name: [n1, n2, ...]`, each nk ASCII digits;
# '#' starts a comment.


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
        if not (name.isidentifier() and _WORD.fullmatch(name)):
            raise ParseError(f"bad operator name {name!r} on line {lineno}", lineno)
        if not (rest.startswith("[") and rest.endswith("]")):
            raise ParseError(f"expected [..] arity on line {lineno}", lineno)
        inner = rest[1:-1].strip()
        # Binder counts are ASCII digits only; int() would also take
        # `1_0`, `+1`, `-1` and non-ASCII digits.
        counts = [p.strip() for p in inner.split(",")] if inner else []
        if not all(c.isascii() and c.isdigit() for c in counts):
            raise ParseError(f"bad arity on line {lineno}", lineno)
        ops.append((name, tuple(map(int, counts))))
    return Signature(tuple(ops))
