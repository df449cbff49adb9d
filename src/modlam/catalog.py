"""The named law suites exposed by the command line.

PAIRS lists every (suite, instance) pair there is, each with whether it
passes by finding a counterexample.  Only the plus/times linearity
suite does: its point is the counterexample, so the CLI treats a found
counterexample as success.  A linearity suite is the instance's list
of squares in linearity_squares and nothing else: each square is one
check_linearity run, its samples keyed "linearity:{square}:{i}".

Every square's carriers are built in linearity_squares: most are a
monad's tautological module drawing from one generator call, the rest
derive, product, constant_module, normal_forms or shifted_tlist_module.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .combinators import (
    PT,
    PT_WITNESS,
    constant_module,
    derive,
    double_and_swap,
    eval_morphism,
    product,
    second_derivative_inclusions,
)
from .errors import ConfigError
from .harness import (
    LawReport,
    ModuleInstance,
    algebra_check,
    check_linearity,
    check_module_laws,
    check_monad_laws,
    tautological_module,
)
from .lam import LC, NF, Abs, App, gen_normal, gen_term, nf_abs, nf_app1
from .lists import LIST, concat, int_add_algebra
from .typed import (
    BASE,
    STLC,
    TLIST,
    Arrow,
    Cons,
    Nil,
    TAbs,
    TApp,
    gen_tlist,
    gen_typed_term,
    shifted_tlist_module,
    stlc_normalize,
    tlist_shift,
)

MONADS = {
    "lc": LC,
    "nf": NF,
    "list": LIST,
    "pt": PT,
    "stlc": STLC,
    "tlist": TLIST,
}

INSTANCES = (*MONADS, "derived-lc", "product-lc")

#: Every (suite, instance) pair, in the order the digest tests run them,
#: to whether it passes by finding a counterexample.  It holds names only,
#: so a suite looks its descriptors up when it runs: the tracer swaps them.
PAIRS = {
    **{("monad", i): False for i in MONADS},
    **{("module", i): False for i in INSTANCES},
    **{("linearity", i): i == "pt" for i in INSTANCES},
    ("algebra", "list"): False,
}
SUITES = tuple(dict.fromkeys(suite for suite, _ in PAIRS))


def module_instance(name: str) -> ModuleInstance:
    if name in MONADS:
        return tautological_module(MONADS[name])
    if name == "derived-lc":
        return derive(tautological_module(LC))
    if name == "product-lc":
        taut = tautological_module(LC)
        return product(taut, taut)
    raise ConfigError(f"no module instance named {name!r}")


def linearity_squares() -> dict[str, list[tuple]]:
    """Each instance's linearity suite as (name, src, dst, tau, probes)
    squares: tau is a module morphism src -> dst when it commutes with
    substitution, tau (mbind_src s x) = mbind_dst s (tau x).  Probes are
    (substitution, value) pairs checked before the samples.

    Built on each call, so every operation is looked up when a suite runs.
    """
    lc, nf, lst, pt, stlc, tlist = (tautological_module(m) for m in MONADS.values())
    lc_pair = product(lc, lc)
    lc1 = derive(lc)
    lc2 = derive(lc1)
    inner, outer = second_derivative_inclusions(lc)
    # Terms one scope deeper, index 0 the fresh variable: substitution shifts
    # images under binders, which is the derived action.
    lc_scope = replace(lc, name="lc-scope-derived", gen_value=partial(gen_term, depth=1))
    nf1 = replace(nf, name="nf-scope-derived", gen_value=partial(gen_normal, depth=1))
    fib, fib_arr = (
        replace(stlc, name=f"stlc@{n}", gen_value=partial(gen_typed_term, target=t, max_size=10))
        for n, t in (("*", BASE), ("* -> *", Arrow(BASE, BASE)))
    )
    # The partial derivative at * of the fiber at *: the dangling index is typed *.
    scoped = partial(gen_typed_term, target=BASE, max_size=8, binders=(BASE,))
    fib_d = replace(stlc, name="stlc-d*@*", gen_value=scoped)

    def normal_forms(mod: ModuleInstance) -> ModuleInstance:
        # The carrier's normal forms, acted on by substitute-then-normalize.
        return replace(
            mod,
            name=mod.name.replace("stlc", "stlc-nf", 1),
            mbind=lambda s, t: stlc_normalize(mod.mbind(s, t)),
            gen_value=lambda rng: stlc_normalize(mod.gen_value(rng)),
        )

    sem, sem_arr, sem_d = (normal_forms(mod) for mod in (fib, fib_arr, fib_d))
    tl0, tl1 = (
        replace(tlist, name=f"tlist@{k}", gen_value=partial(gen_tlist, sort=k)) for k in (0, 1)
    )
    return {
        "lc": [
            ("app", lc_pair, lc, lambda p: App(p[0], p[1]), ()),
            ("abs", lc_scope, lc, Abs, ()),
        ],
        "nf": [("abs", nf1, nf, nf_abs, ()), ("app1", nf, nf1, nf_app1, ())],
        "list": [("concat", product(lst, lst), lst, concat, ())],
        "pt": [("double-and-swap", pt, pt, double_and_swap, (PT_WITNESS,))],
        "stlc": [
            ("app@*,*", product(fib_arr, fib), fib, lambda p: TApp(*p), ()),
            ("abs@*,*", fib_d, fib_arr, partial(TAbs, BASE), ()),
            ("app-nf@*,*", product(sem_arr, sem), sem, lambda p: stlc_normalize(TApp(*p)), ()),
            ("abs-nf@*,*", sem_d, sem_arr, lambda b: stlc_normalize(TAbs(BASE, b)), ()),
        ],
        "tlist": [
            ("nil", constant_module(TLIST), tl1, lambda _: Nil(0), ()),
            ("cons", product(tl0, tl1), tl1, lambda p: Cons(p[0], p[1]), ()),
            ("shift-commute", tlist, shifted_tlist_module(), tlist_shift, ()),
        ],
        "derived-lc": [
            ("inner-inclusion", lc1, lc2, inner, ()),
            ("outer-inclusion", lc1, lc2, outer, ()),
            ("eval", product(lc1, lc), lc, eval_morphism(lc), ()),
        ],
        "product-lc": [
            ("fst", lc_pair, lc, lambda p: p[0], ()),
            ("snd", lc_pair, lc, lambda p: p[1], ()),
        ],
    }


def _linearity(instance: str, samples: int, seed: int) -> LawReport:
    checks = [
        check_linearity(src, dst, tau, samples, seed, probes, name).checks[0]
        for name, src, dst, tau, probes in linearity_squares()[instance]
    ]
    return LawReport("linearity", instance, samples, seed, tuple(checks))


def run_suite(suite: str, instance: str, samples: int = 1000, seed: int = 0) -> LawReport:
    if (suite, instance) not in PAIRS:
        raise ConfigError(f"no {suite!r} suite for the {instance!r} instance")
    if suite == "monad":
        return check_monad_laws(MONADS[instance], samples, seed)
    if suite == "module":
        return check_module_laws(module_instance(instance), samples, seed)
    if suite == "linearity":
        return _linearity(instance, samples, seed)
    return algebra_check(int_add_algebra(), samples, seed)


def expects_counterexample(suite: str, instance: str) -> bool:
    """Whether the pair passes by finding a counterexample, as PAIRS says."""
    return PAIRS[suite, instance]
