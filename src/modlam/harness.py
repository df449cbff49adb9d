"""Runtime descriptors for monads, modules and algebras, plus the
randomized harness that checks their laws on seeded samples.

A descriptor bundles the operations of an instance with a generator and
a printer, so every commuting diagram in the development can be run
rather than assumed.  A law is its two sides: the one sampling loop
computes both on each sample, compares them with == (componentwise on
the pairs of a product module) and renders the inputs only on failure.
Each law has one definition: the monad laws are the action axioms of
the tautological module plus bind-unit, and morphism-bind is the
linearity square into the target pulled back along the morphism.
Reports are deterministic for a fixed seed: each sample draws from a
sub-generator keyed by (seed, index), so the outcome does not
depend on evaluation order.  That generator is random.Random seeded with
the string "{seed}:{key}:{i}", in a subclass that overrides only
randrange, drawing the same getrandbits bits as the library's on one
straight-line path for randrange(n) and one for randrange(a, b): every
stream, and so every report, is the library's.  A sweep builds one such
generator and reseeds it for each sample, which resets its whole state,
so each sample draws the stream a new generator with its key would.  The
generators draw through randrange alone (randint(a, b) is randrange(a,
b + 1), and seq[randrange(len(seq))] is what choice(seq) draws).

Samples that run out of fuel (possible for normalization-backed
instances) are counted as skipped rather than failed, and a sample
whose terms pass the normalizer's explicit depth limit (DepthLimit, a
kind of FuelExhausted) is the same kind of resource miss; a law with no
evaluated samples at all is reported inconclusive.  Any other exception,
a RecursionError included, propagates out of the checker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Any, Callable, Iterable, Mapping, Optional

from .errors import ConfigError
from .fuel import FuelExhausted

# ---------- fresh markers ----------
#
# Scope extension ("adding one point" to the alphabet) is realized by a
# reserved family of names that no grammar can produce.  The k-th marker
# introduced by deriving a module is fresh_name(k).


def fresh_name(i: int) -> str:
    return f"*{i}"


# ---------- descriptors ----------


@dataclass(frozen=True)
class MonadInstance:
    """A monad given by unit and bind over finite-map substitutions.

    Substitutions are dicts from alphabet elements to values, identity
    outside their domain.  `names` is the finite alphabet pool that the
    generators draw from.
    """

    name: str
    names: tuple
    unit: Callable[[Any], Any]
    bind: Callable[[Mapping, Any], Any]
    gen_value: Callable[[random.Random], Any]
    gen_subst: Callable[[random.Random], dict]
    show_value: Callable[[Any], str] = repr
    # Fibered alphabets carry structured elements; `key` projects an
    # element to the substitution-map key it is addressed by.
    key: Callable[[Any], Any] = staticmethod(lambda a: a)
    show_name: Callable[[Any], str] = str


@dataclass(frozen=True)
class ModuleInstance:
    """A left module over a monad: a carrier acted on by substitutions."""

    name: str
    monad: MonadInstance
    mbind: Callable[[Mapping, Any], Any]
    gen_value: Callable[[random.Random], Any]
    show_value: Callable[[Any], str] = repr
    fresh_markers: tuple[str, ...] = ()


@dataclass(frozen=True)
class MonadMorphism:
    """A carrier map between monads, expected to commute with unit/bind."""

    name: str
    src: MonadInstance
    dst: MonadInstance
    map: Callable[[Any], Any]


@dataclass(frozen=True)
class MonoidAlgebra:
    """A monoid seen as an algebra of the lists monad.

    The action folds a list to its product; algebra_check runs the two
    algebra diagrams against it.
    """

    name: str
    unit: Any
    product: Callable[[Any, Any], Any]
    gen_element: Callable[[random.Random], Any]
    show_value: Callable[[Any], str] = repr

    def action(self, xs: Iterable[Any]) -> Any:
        return reduce(self.product, xs, self.unit)


def tautological_module(m: MonadInstance) -> ModuleInstance:
    """A monad acting on itself by bind."""
    return ModuleInstance(
        name=m.name,
        monad=m,
        mbind=m.bind,
        gen_value=m.gen_value,
        show_value=m.show_value,
    )


def subst_total(m: MonadInstance, s: Mapping, a: Any) -> Any:
    """Apply a finite-map substitution as a total function on the alphabet."""
    k = m.key(a)
    return s[k] if k in s else m.unit(a)


def compose_subst(m: MonadInstance, f: Mapping, g: Mapping) -> dict:
    """The Kleisli composite: first f, then bind g inside each image."""
    out = {k: m.bind(g, v) for k, v in f.items()}
    for k, v in g.items():
        if k not in out:
            out[k] = v
    return out


def show_subst(m: MonadInstance, s: Mapping) -> str:
    items = sorted(s.items(), key=lambda kv: str(kv[0]))
    return "{" + ", ".join(f"{k} -> {m.show_value(v)}" for k, v in items) + "}"


# ---------- reports ----------


@dataclass(frozen=True)
class Counterexample:
    where: str  # "sample 17" or "probe 0"
    inputs: tuple[tuple[str, str], ...]
    lhs: str
    rhs: str

    def format(self) -> str:
        lines = [f"  {label}: {shown}" for label, shown in self.inputs]
        lines.append(f"  lhs: {self.lhs}")
        lines.append(f"  rhs: {self.rhs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LawCheck:
    name: str
    checked: int
    skipped: int
    counterexample: Optional[Counterexample]

    @property
    def passed(self) -> bool:
        return self.counterexample is None and self.checked > 0

    @property
    def inconclusive(self) -> bool:
        return self.counterexample is None and self.checked == 0

    def format(self) -> str:
        if self.counterexample is not None:
            head = f"law {self.name}: FAIL (counterexample at {self.counterexample.where})"
            return head + "\n" + self.counterexample.format()
        tail = f"({self.checked} checked"
        if self.skipped:
            tail += f", {self.skipped} skipped"
        tail += ")"
        if self.inconclusive:
            return f"law {self.name}: INCONCLUSIVE {tail}"
        return f"law {self.name}: PASS {tail}"


@dataclass(frozen=True)
class LawReport:
    suite: str
    instance: str
    samples: int
    seed: int
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> LawCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def format(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"instance: {self.instance}",
            f"samples: {self.samples}",
            f"seed: {self.seed}",
        ]
        for c in self.checks:
            lines.append(c.format())
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


# ---------- the sampling engine ----------
#
# Every checker is a generator of input tuples plus a list of laws.  A
# law is (name, sides, inputs): sides computes the two values the law
# equates, inputs renders the input tuple as (label, text) pairs.  The
# loop compares the sides with == and renders a failure with the
# checker's printer; inputs are rendered only after a comparison fails.


_ONE = 1  # randrange's default step, told apart by identity as the library does


class _SampleRandom(random.Random):
    # The library's randrange(n) and randrange(a, b) on int bounds, each
    # one straight-line path that rejection-samples getrandbits(n.bit_length())
    # below the span n, as _randbelow does, so the stream is the library's.
    # A step, a non-int bound or an empty range goes to the library, which
    # raises what it raises.  A sweep builds one and reseeds it for each
    # sample: the seed resets the whole state, so every sample draws the
    # stream a new generator with its key would.

    def randrange(self, start, stop=None, step=_ONE):
        if step is _ONE and start.__class__ is int:
            if stop is None:
                if start > 0:
                    k = start.bit_length()
                    r = self.getrandbits(k)
                    while r >= start:
                        r = self.getrandbits(k)
                    return r
            elif stop.__class__ is int and stop > start:
                n = stop - start
                k = n.bit_length()
                r = self.getrandbits(k)
                while r >= n:
                    r = self.getrandbits(k)
                return start + r
        return super().randrange(start, stop, step)


def _sample_rng(seed: int, index: Any) -> random.Random:
    # The generator of sample `index`, keyed "{seed}:{index}": deterministic
    # and order-independent.  _sweep reseeds it with each later sample's key.
    return _SampleRandom(f"{seed}:{index}")


def _sweep(
    key: str,
    samples: int,
    seed: int,
    gen: Callable[[random.Random], tuple],
    laws: list[tuple],
    show: Callable[[Any], str],
    probes: tuple = (),
) -> tuple[LawCheck, ...]:
    """The one sampling loop.  Probes run first; then sample i draws its
    inputs from the sub-generator keyed "{key}:{i}" and every law runs on
    them.  The sweep builds one generator, for its first sample, and
    reseeds it with each later sample's key.  A draw that runs out of fuel
    skips the sample for every law; a law stops at its first
    counterexample, and the loop stops, drawing no more samples, once
    every law has one."""
    checked = [0] * len(laws)
    skipped = [0] * len(laws)
    found: list[Optional[Counterexample]] = [None] * len(laws)
    rng = None
    prefix = f"{seed}:{key}:"
    for i in range(-len(probes), samples):
        if i < 0:
            inp = probes[i]
        else:
            if rng is None:
                rng = _sample_rng(seed, f"{key}:{i}")
            else:
                rng.seed(f"{prefix}{i}")
            try:
                inp = gen(rng)
            except FuelExhausted:
                inp = None
        for k, (_, sides, inputs) in enumerate(laws):
            if found[k] is not None:
                continue
            if inp is None:
                skipped[k] += 1
                continue
            try:
                lhs, rhs = sides(*inp)
            except FuelExhausted:
                skipped[k] += 1
                continue
            if lhs == rhs:
                checked[k] += 1
            else:
                where = f"probe {i + len(probes)}" if i < 0 else f"sample {i}"
                found[k] = Counterexample(where, inputs(*inp), show(lhs), show(rhs))
        if None not in found:
            break
    return tuple(
        LawCheck(name, checked[k], skipped[k], found[k]) for k, (name, _, _) in enumerate(laws)
    )


def _action_laws(mod: ModuleInstance, op: str) -> list[tuple]:
    """The two axioms of a left action, on inputs (x, f, g, ...):

    {op}-{op}:  act g . act f  =  act (bind g . f)
    unit-{op}:  act unit       =  id
    """
    m, act, show = mod.monad, mod.mbind, mod.show_value
    return [
        (
            f"{op}-{op}",
            lambda x, f, g, *_: (act(g, act(f, x)), act(compose_subst(m, f, g), x)),
            lambda x, f, g, *_: (
                ("value", show(x)),
                ("subst f", show_subst(m, f)),
                ("subst g", show_subst(m, g)),
            ),
        ),
        (f"unit-{op}", lambda x, *_: (act({}, x), x), lambda x, *_: (("value", show(x)),)),
    ]


def _square(name: str, src: ModuleInstance, act_dst: Callable, tau: Callable) -> tuple:
    """The linearity square on inputs (s, x, ...):

    tau (act_src s x)  =  act_dst s (tau x)
    """
    m, act, show = src.monad, src.mbind, src.show_value
    return (
        name,
        lambda s, x, *_: (tau(act(s, x)), act_dst(s, tau(x))),
        lambda s, x, *_: (("value", show(x)), ("substitution", show_subst(m, s))),
    )


def check_monad_laws(m: MonadInstance, samples: int = 1000, seed: int = 0) -> LawReport:
    """Run the three monad laws on seeded samples: bind-bind and
    unit-bind are the action axioms of the tautological module, and

    bind-unit:  bind f . unit  =  f
    """

    def gen(rng):
        x = m.gen_value(rng)
        f = m.gen_subst(rng)
        g = m.gen_subst(rng)
        return x, f, g, m.names[rng.randrange(len(m.names))]

    bind_bind, unit_bind = _action_laws(tautological_module(m), "bind")
    bind_unit = (
        "bind-unit",
        lambda x, f, g, a: (m.bind(f, m.unit(a)), subst_total(m, f, a)),
        lambda x, f, g, a: (("name", m.show_name(a)), ("subst f", show_subst(m, f))),
    )
    checks = _sweep("monad", samples, seed, gen, [bind_bind, bind_unit, unit_bind], m.show_value)
    return LawReport("monad", m.name, samples, seed, checks)


def check_module_laws(mod: ModuleInstance, samples: int = 1000, seed: int = 0) -> LawReport:
    """Run the two action axioms, mbind-mbind and unit-mbind, on seeded samples."""
    m = mod.monad

    def gen(rng):
        x = mod.gen_value(rng)
        return x, m.gen_subst(rng), m.gen_subst(rng)

    checks = _sweep("module", samples, seed, gen, _action_laws(mod, "mbind"), mod.show_value)
    return LawReport("module", mod.name, samples, seed, checks)


def check_linearity(
    src: ModuleInstance,
    dst: ModuleInstance,
    tau: Callable[[Any], Any],
    samples: int = 1000,
    seed: int = 0,
    probes: tuple = (),
    name: str = "linearity",
) -> LawReport:
    """Check the linearity square of tau, with act_dst = mbind_dst.

    Probes are (subst, value) pairs checked before any random samples, so
    a known witness appears first in the report.
    """
    if src.monad.name != dst.monad.name:
        raise ConfigError(
            f"linearity needs a shared base monad, got {src.monad.name} and {dst.monad.name}"
        )
    m = src.monad

    def gen(rng):
        s = m.gen_subst(rng)
        return s, src.gen_value(rng)

    square = _square(name, src, dst.mbind, tau)
    checks = _sweep(f"linearity:{name}", samples, seed, gen, [square], dst.show_value, probes)
    return LawReport("linearity", f"{src.name} -> {dst.name}", samples, seed, checks)


def check_monad_morphism(f: MonadMorphism, samples: int = 1000, seed: int = 0) -> LawReport:
    """Check the two monad morphism squares on seeded samples.

    morphism-unit:  f . unit_src  =  unit_dst

    morphism-bind is the linearity square of f.map from src acting on
    itself into dst acting on itself pulled back along f (base change).
    """
    src, dst = f.src, f.dst

    def gen(rng):
        x = src.gen_value(rng)
        s = src.gen_subst(rng)
        return s, x, src.names[rng.randrange(len(src.names))]

    laws = [
        (
            "morphism-unit",
            lambda s, x, a: (f.map(src.unit(a)), dst.unit(a)),
            lambda s, x, a: (("name", src.show_name(a)),),
        ),
        _square(
            "morphism-bind",
            tautological_module(src),
            lambda s, y: dst.bind({k: f.map(v) for k, v in s.items()}, y),
            f.map,
        ),
    ]
    checks = _sweep(f"morphism:{f.name}", samples, seed, gen, laws, dst.show_value)
    return LawReport("morphism", f.name, samples, seed, checks)


def algebra_check(alg: MonoidAlgebra, samples: int = 1000, seed: int = 0) -> LawReport:
    """Run the two algebra diagrams for a monoid under the lists monad.

    algebra-unit:    action [x]            =  x
    algebra-square:  action (concat xss)   =  action (map action xss)
    """

    def show_list(xs):
        return "[" + ", ".join(alg.show_value(x) for x in xs) + "]"

    def gen(rng):
        x = alg.gen_element(rng)
        xss = [
            [alg.gen_element(rng) for _ in range(rng.randrange(4))]
            for _ in range(rng.randrange(4))
        ]
        return x, xss

    laws = [
        (
            "algebra-unit",
            lambda x, xss: (alg.action([x]), x),
            lambda x, xss: (("element", alg.show_value(x)),),
        ),
        (
            "algebra-square",
            lambda x, xss: (
                alg.action([y for xs in xss for y in xs]),
                alg.action([alg.action(xs) for xs in xss]),
            ),
            lambda x, xss: (("lists", "[" + ", ".join(show_list(xs) for xs in xss) + "]"),),
        ),
    ]
    checks = _sweep("algebra", samples, seed, gen, laws, alg.show_value)
    return LawReport("algebra", alg.name, samples, seed, checks)
