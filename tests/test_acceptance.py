"""The acceptance suite: one test and one printed verdict per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines;
each prints exactly one `ACCEPTANCE <criterion>: PASS` (or FAIL) before
asserting.  Sample counts and tolerances are fixed here on purpose: the
suite is the contract, not a tunable benchmark.
"""

import random
import subprocess
import sys

from modlam.combinators import (
    PT_WITNESS,
    Plus,
    PVar,
    Times,
    base_change,
    constant_module,
    derive,
    double_and_swap,
    identity_morphism,
    product,
    pt_bind,
)
from modlam.fuel import Fuel, FuelExhausted
from modlam.harness import (
    MonadMorphism,
    check_module_laws,
    check_monad_laws,
    tautological_module,
)
from modlam.lam import (
    LC,
    NF,
    SIG_LC,
    Abs,
    App,
    beta_step,
    eta_step,
    gen_normal,
    gen_term,
    iota_fold,
    from_scoped,
    nf_abs,
    nf_app1,
    nf_bind,
    normalize,
    parse,
    preorder_leq,
    step_successors,
    subst,
    subst0,
    to_scoped,
)
from modlam.terms import fold, fvar, self_representation
from modlam.typed import gen_typed_term, stlc_normalize, type_of
from modlam import catalog

from faulty_instances import broken_list_monad
from reference_terms import free_names

SAMPLES = 1000
FUEL = 10_000


def verdict(label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {label}"


def node_count(t) -> int:
    """Variables, applications and abstractions in a lambda term."""
    count, todo = 0, [t]
    while todo:
        t = todo.pop()
        count += 1
        if isinstance(t, App):
            todo += (t.fun, t.arg)
        elif isinstance(t, Abs):
            todo.append(t.body)
    return count


def rng_for(tag: str, i: int) -> random.Random:
    return random.Random(f"{tag}:{i}")


def normalize_morphism() -> MonadMorphism:
    return MonadMorphism("normalize", LC, NF, lambda t: normalize(t, FUEL))


def test_c01_monad_laws():
    ok = all(
        check_monad_laws(m, samples=SAMPLES, seed=0).passed
        for m in catalog.MONADS.values()
    )
    mutation_caught = not check_monad_laws(
        broken_list_monad(), samples=SAMPLES, seed=0
    ).passed
    verdict("01 monad laws on all six instances, mutation caught", ok and mutation_caught)


def test_c02_module_laws():
    modules = [
        catalog.module_instance("lc"),
        catalog.module_instance("derived-lc"),
        catalog.module_instance("product-lc"),
        base_change(normalize_morphism(), tautological_module(NF)),
        next(src for name, src, *_ in catalog.linearity_squares()["stlc"] if name == "abs@*,*"),
        constant_module(LC),
    ]
    ok = True
    for mod in modules:
        report = check_module_laws(mod, samples=SAMPLES, seed=0)
        ok = ok and report.passed
    verdict("02 module laws on six carriers", ok)


def test_c03_linearity():
    passing = [
        instance
        for (suite, instance), fails in catalog.PAIRS.items()
        if suite == "linearity" and not fails
    ]
    ok = all(
        catalog.run_suite("linearity", name, SAMPLES, 0).passed for name in passing
    )

    pt_report = catalog.run_suite("linearity", "pt", SAMPLES, 0)
    ce = pt_report.check("double-and-swap").counterexample
    found = not pt_report.passed and ce is not None and ce.where == "probe 0"

    s, t = PT_WITNESS
    x = PVar("x")
    lhs = double_and_swap(pt_bind(s, t))
    rhs = pt_bind(s, double_and_swap(t))
    witness = lhs == Plus(Plus(x, x), Plus(x, x)) and rhs == Plus(
        Times(x, x), Times(x, x)
    )
    verdict(
        "03 linearity suites pass, plus/times counterexample found", ok and found and witness
    )


def test_c04_abs_app1_inverse():
    ok = True
    for i in range(SAMPLES):
        t = gen_normal(rng_for("c4a", i))
        ok = ok and nf_abs(nf_app1(t)) == t
        u = gen_normal(rng_for("c4b", i), depth=1)
        ok = ok and nf_app1(nf_abs(u)) == u
    verdict("04 abs and app1 are mutually inverse on 1000 normal forms", ok)


def test_c05_beta_square():
    evaluated = 0
    agreed = 0
    for i in range(SAMPLES):
        rng = rng_for("c5", i)
        u = gen_term(rng, depth=1)
        v = gen_term(rng)
        try:
            direct = normalize(App(Abs(u), v), Fuel(FUEL))
            contracted = normalize(subst0(u, v), Fuel(FUEL))
        except FuelExhausted:
            continue
        evaluated += 1
        if direct == contracted:
            agreed += 1
    verdict(
        "05 beta redex and its contraction normalize alike (>=95% in fuel)",
        agreed == evaluated and evaluated >= int(0.95 * SAMPLES),
    )


def test_c06_initial_fold():
    evaluated = 0
    agreed = 0
    for i in range(SAMPLES):
        t = gen_term(rng_for("c6a", i))
        try:
            direct = normalize(t, Fuel(FUEL))
            folded = iota_fold(t, fuel=FUEL)
        except FuelExhausted:
            continue
        evaluated += 1
        if folded == direct:
            agreed += 1
    first = agreed == evaluated and evaluated >= int(0.95 * SAMPLES)

    square_evaluated = 0
    square_agreed = 0
    for i in range(SAMPLES):
        rng = rng_for("c6b", i)
        t = gen_term(rng)
        s = LC.gen_subst(rng)
        try:
            lhs = iota_fold(subst(s, t), fuel=FUEL)
            folded_s = {k: iota_fold(v, fuel=FUEL) for k, v in s.items()}
            rhs = nf_bind(folded_s, iota_fold(t, fuel=FUEL), FUEL)
        except FuelExhausted:
            continue
        square_evaluated += 1
        if lhs == rhs:
            square_agreed += 1
    second = (
        square_agreed == square_evaluated
        and square_evaluated >= int(0.95 * SAMPLES)
    )
    verdict("06 fold into normal forms agrees with normalization", first and second)


def test_c07_scoped_conversion():
    rep = self_representation(SIG_LC)
    ok = True
    for i in range(SAMPLES):
        t = gen_term(rng_for("c7", i))
        scoped = to_scoped(t)
        ok = ok and from_scoped(scoped) == t
        ok = ok and to_scoped(from_scoped(scoped)) == scoped
        env = {name: fvar(name) for name in free_names(scoped)}
        ok = ok and fold(rep, scoped, env=env) == scoped
    verdict("07 scoped conversion round-trips and the self-fold is the identity", ok)


def test_c08_typed_discipline():
    ok = True
    exhausted = 0
    small = 0
    for i in range(SAMPLES):
        t = gen_typed_term(rng_for("c8", i))
        ty = type_of(t)
        walker = t
        for _ in range(FUEL):
            nxt = beta_step(walker)
            if nxt is None:
                break
            walker = nxt
            if type_of(walker) != ty:
                ok = False
                break
        while ok and (nxt := eta_step(walker)) is not None:
            walker = nxt
            if type_of(walker) != ty:
                ok = False
        if node_count(t) <= 30:
            small += 1
            try:
                stlc_normalize(t, FUEL)
            except FuelExhausted:
                exhausted += 1
    verdict(
        "08 subject reduction holds, small terms normalize without exhaustion",
        ok and exhausted == 0 and small >= 900,
    )


def test_c09_preorder():
    ok = all(
        preorder_leq((t := gen_term(rng_for("c9a", i))), t, depth=0) for i in range(200)
    )
    ok = ok and preorder_leq(parse("(\\x. x) y"), parse("y"), depth=1)
    ok = ok and not preorder_leq(parse("y"), parse("(\\x. x) y"), depth=20)

    chains = 0
    i = 0
    while chains < 200 and i < 6000:
        t = gen_term(rng_for("c9b", i), max_size=20)
        i += 1
        succ_a = step_successors(t)
        if not succ_a:
            continue
        b = succ_a[0]
        succ_b = step_successors(b)
        if not succ_b:
            continue
        c = succ_b[0]
        chains += 1
        ok = ok and preorder_leq(t, c, depth=2)
    verdict("09 reduction preorder: reflexive, oriented, transitive", ok and chains == 200)


def test_c10_base_change():
    taut_lc = tautological_module(LC)
    bc_id = base_change(identity_morphism(LC), taut_lc)
    ok = True
    for i in range(SAMPLES):
        rng = rng_for("c10a", i)
        s = LC.gen_subst(rng)
        t = LC.gen_value(rng)
        ok = ok and bc_id.mbind(s, t) == subst(s, t)

    taut_nf = tautological_module(NF)
    path1 = derive(base_change(normalize_morphism(), taut_nf))
    path2 = base_change(normalize_morphism(), derive(taut_nf))
    evaluated = 0
    for i in range(SAMPLES):
        rng = rng_for("c10b", i)
        try:
            v = path1.gen_value(rng)
            s = LC.gen_subst(rng)
            lhs = path1.mbind(s, v)
            rhs = path2.mbind(s, v)
        except FuelExhausted:
            continue
        evaluated += 1
        ok = ok and lhs == rhs
    derive_commutes = evaluated >= 900

    bc = base_change(normalize_morphism(), taut_nf)
    prod1 = product(bc, bc)
    prod2 = base_change(normalize_morphism(), product(taut_nf, taut_nf))
    evaluated = 0
    for i in range(SAMPLES):
        rng = rng_for("c10c", i)
        try:
            v = prod1.gen_value(rng)
            s = LC.gen_subst(rng)
            lhs = prod1.mbind(s, v)
            rhs = prod2.mbind(s, v)
        except FuelExhausted:
            continue
        evaluated += 1
        ok = ok and lhs == rhs
    product_commutes = evaluated >= 900

    verdict(
        "10 base change: identity is trivial, commutes with derive and product",
        ok and derive_commutes and product_commutes,
    )


def test_c11_cli_golden():
    def invoke(*argv):
        return subprocess.run(
            [sys.executable, "-m", "modlam", *argv], capture_output=True
        )

    ok = True
    proc = invoke("normalize", "(\\x. x) y")
    ok = ok and proc.returncode == 0 and proc.stdout == b"y\n"

    proc = invoke("equiv", "\\x. y x", "y")
    ok = ok and proc.returncode == 0 and proc.stdout == b"equivalent\n"

    expected = (
        b"suite: linearity\n"
        b"instance: pt\n"
        b"samples: 1000\n"
        b"seed: 0\n"
        b"law double-and-swap: FAIL (counterexample at probe 0)\n"
        b"  value: x\n"
        b"  substitution: {x -> x*x}\n"
        b"  lhs: x+x+(x+x)\n"
        b"  rhs: x*x+x*x\n"
        b"result: FAIL\n"
        b"expected failure: counterexample found\n"
    )
    proc = invoke(
        "laws", "--suite", "linearity", "--instance", "pt", "--samples", "1000", "--seed", "0"
    )
    ok = ok and proc.returncode == 0 and proc.stdout == expected

    verdict("11 command line golden transcripts", ok)
