"""The named law suites exposed by the command line.

PAIRS lists every (suite, instance) pair there is, each with whether it
passes by finding a counterexample.  Only the plus/times linearity
suite does: its point is the counterexample, so the CLI treats a found
counterexample as success.  A linearity suite is the instance's list
of squares in linearity_squares and nothing else: each square is one
check_linearity run, its samples keyed "linearity:{square}:{i}".
"""

from __future__ import annotations

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
from .lam import (
    LC,
    NF,
    Abs,
    App,
    nf_abs,
    nf_app1,
    scope_derived_lc_module,
    scope_derived_nf_module,
)
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
    fiber_module,
    scope_extended_module,
    semantic_fiber_module,
    semantic_scope_extended_module,
    shifted_tlist_module,
    stlc_normalize,
    tlist_shift,
    tlist_sort_module,
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
    lc, nf, lst, pt = (tautological_module(MONADS[n]) for n in ("lc", "nf", "list", "pt"))
    lc_pair = product(lc, lc)
    lc1 = derive(lc)
    lc2 = derive(lc1)
    inner, outer = second_derivative_inclusions(lc)
    nf1 = scope_derived_nf_module()
    arr = Arrow(BASE, BASE)
    fib, fib_arr = fiber_module(BASE), fiber_module(arr)
    sem, sem_arr = semantic_fiber_module(BASE), semantic_fiber_module(arr)
    tl0, tl1 = tlist_sort_module(0), tlist_sort_module(1)
    return {
        "lc": [
            ("app", lc_pair, lc, lambda p: App(p[0], p[1]), ()),
            ("abs", scope_derived_lc_module(), lc, Abs, ()),
        ],
        "nf": [("abs", nf1, nf, nf_abs, ()), ("app1", nf, nf1, nf_app1, ())],
        "list": [("concat", product(lst, lst), lst, concat, ())],
        "pt": [("double-and-swap", pt, pt, double_and_swap, (PT_WITNESS,))],
        "stlc": [
            ("app@*,*", product(fib_arr, fib), fib, lambda p: TApp(*p), ()),
            ("abs@*,*", scope_extended_module(BASE, BASE), fib_arr, partial(TAbs, BASE), ()),
            ("app-nf@*,*", product(sem_arr, sem), sem, lambda p: stlc_normalize(TApp(*p)), ()),
            (
                "abs-nf@*,*",
                semantic_scope_extended_module(BASE, BASE),
                sem_arr,
                lambda b: stlc_normalize(TAbs(BASE, b)),
                (),
            ),
        ],
        "tlist": [
            ("nil", constant_module(TLIST), tl1, lambda _: Nil(0), ()),
            ("cons", product(tl0, tl1), tl1, lambda p: Cons(p[0], p[1]), ()),
            ("shift-commute", tautological_module(TLIST), shifted_tlist_module(), tlist_shift, ()),
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
