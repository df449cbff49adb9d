"""The single-pass normalizer against the one-step reference stepper, the
NfTerm certificate it checks, its cycle detection and its depth limit."""

import hashlib
import random
import time

import pytest

from modlam.cli import EXIT_FUEL, run
from modlam.errors import MalformedTermError
from modlam.fuel import DepthLimit, Fuel, FuelExhausted, ReductionCycle
from modlam.harness import sampled_law
from modlam.lam import (
    MAX_DEPTH,
    Abs,
    App,
    Equivalence,
    LcTerm,
    NfTerm,
    _same_term,
    beta_eta_equiv,
    beta_step,
    eta_step,
    gen_normal,
    gen_term,
    iota_fold,
    nf_abs,
    nf_app1,
    normalize,
    parse,
    show,
    step_successors,
)
from modlam.terms import bvar, fvar
from modlam.typed import BASE, TAbs, gen_typed_term, parse_stlc, stlc_normalize


def reference_normalize(t, budget: Fuel):
    """Leftmost-outermost beta from the root until normal, then eta from
    the root to a fixed point: one beta_step or eta_step per fuel unit."""
    while (t2 := beta_step(t)) is not None:
        budget.spend()
        t = t2
    while (t2 := eta_step(t)) is not None:
        budget.spend()
        t = t2
    return t


def single_pass(t, budget: Fuel):
    return normalize(t, budget).term


def outcome(normalizer, t, fuel: int):
    """(normal form or None if fuel ran out, fuel remaining)."""
    budget = Fuel(fuel)
    try:
        out = normalizer(t, budget)
    except FuelExhausted:
        out = None
    return out, budget.remaining


def stepper_finds_no_redex(t) -> bool:
    return beta_step(t) is None and eta_step(t) is None


OMEGA = "(\\x. x x) (\\x. x x)"
W = "(\\a. \\b. a a)"  # W W gains a binder per step
CHURCH_2 = "(\\f. \\x. f (f x))"


def church(n: int) -> LcTerm:
    body = bvar(0)
    for _ in range(n):
        body = App(bvar(1), body)
    return Abs(Abs(body))


def power_of_two(k: int) -> str:
    """2^k as text: the exponent is applied to the base."""
    return f"(\\m. \\n. n m) {CHURCH_2} (\\f. \\x. {'f (' * k}x{')' * k})"


class TestDifferentialOracle:
    def test_untyped_terms(self):
        stepped = 0
        for i in range(3000):
            t = gen_term(random.Random(i), max_size=14)
            expected = outcome(reference_normalize, t, 300)
            got = outcome(single_pass, t, 300)
            assert got == expected, i
            assert got[0] is None or stepper_finds_no_redex(got[0]), i
            # One unit short of the steps needed: both run out at once.
            short = 300 - expected[1] - 1
            if short >= 0:
                stepped += 1
                assert outcome(reference_normalize, t, short) == (None, 0), i
                assert outcome(single_pass, t, short) == (None, 0), i
        assert stepped > 500

    @pytest.mark.parametrize("text", [OMEGA, f"{W} {W}", f"{W} {W} y", "(\\x. x x x) (\\x. x x x)"])
    def test_divergent_terms(self, text):
        t = parse(text)
        assert outcome(reference_normalize, t, 300) == (None, 0)
        assert outcome(single_pass, t, 300) == (None, 0)

    def test_typed_terms(self):
        for i in range(500):
            t = gen_typed_term(random.Random(i), max_size=16)
            expected = outcome(reference_normalize, t, 10_000)
            assert expected[0] is not None
            got = outcome(stlc_normalize, t, 10_000)
            assert got == expected and stepper_finds_no_redex(got[0]), i

    @pytest.mark.parametrize("normalizer", [normalize, stlc_normalize], ids=["lam", "typed"])
    def test_non_term_leaf_is_rejected(self, normalizer):
        with pytest.raises(MalformedTermError, match="not a lambda term"):
            normalizer(App(fvar("x"), "junk"))


class TestSeal:
    def test_sealed_producers_pass_the_stepper_check(self):
        # gen_normal, nf_abs and nf_app1 seal without the stepper walk;
        # certifying their output from outside must agree.
        for i in range(2000):
            x = gen_normal(random.Random(i), depth=i % 2)
            opened, closed = nf_app1(x), nf_abs(x)
            back = nf_abs(opened), nf_app1(closed)
            for nf in (x, opened, closed, *back):
                NfTerm(nf.term)
            assert back == (x, x), i


def nf_verdict(t) -> str:
    try:
        NfTerm(t)
    except Exception as e:
        return type(e).__name__
    return "normal"


class TestStepper:
    # sha256 of one repr line per panel term: beta_step, eta_step,
    # step_successors (in order) and the NfTerm verdict.  Recorded when each
    # of the three stepper functions was its own recursive walk and NfTerm
    # certified through beta_step and eta_step.
    PANEL_DIGEST = "32ccc6e3589850297db8ba52b3070773ca4be3fd412acbc212b113ad5bfeba0c"

    def test_panel_digest(self):
        panel = [gen_term(random.Random(i), max_size=14) for i in range(4000)]
        panel += [gen_typed_term(random.Random(i), max_size=16) for i in range(1000)]
        panel += [parse(OMEGA), parse(f"{W} {W} y"), parse("\\x. \\y. f x y"),
                  parse("\\x. (\\y. g y) x")]
        h = hashlib.sha256()
        for t in panel:
            line = repr((beta_step(t), eta_step(t), step_successors(t), nf_verdict(t)))
            h.update(line.encode() + b"\n")
        assert h.hexdigest() == self.PANEL_DIGEST

    def test_non_term_leaf_is_rejected(self):
        with pytest.raises(MalformedTermError, match="not a lambda term"):
            step_successors(App(fvar("x"), "junk"))


class TestCertificate:
    def test_deep_spine_hits_the_depth_limit(self):
        # Certified by the normalizer, which runs on explicit stacks.
        with pytest.raises(DepthLimit, match="depth limit"):
            NfTerm(church(1500))

    def test_spine_within_the_limit_certifies(self):
        NfTerm(church(590))

    def test_typed_normal_form_certifies(self):
        t = parse_stlc("\\x:*. \\y:* -> *. y x")
        assert isinstance(NfTerm(t).term, TAbs)
        assert nf_verdict(TAbs(BASE, App(fvar("f"), bvar(0)))) == "ValueError"

    def test_any_redex_is_refused(self):
        for text in ("(\\x. x) y", "\\x. y x", "g (\\x. y x) ((\\x. x) z)"):
            with pytest.raises(ValueError, match="not beta-eta normal"):
                NfTerm(parse(text))


# The 12 reductions that ran out of steps in the four laws-nf suite pairs
# (monad nf, module nf, linearity nf, linearity stlc) at law seeds 0 and 1,
# before cycle detection: each burnt the whole default budget.
LAWS_NF_CYCLES = (
    "(\\v0. v0 v0) (\\v1. v1 v1)",
    "(\\v0. v0 v0) (\\v1. v1 v1)",
    "z ((\\v0. v0 v0) (\\v1. v1 v1) z)",
    "\\v0. \\v1. (\\v2. v2 v2) (\\v3. v3 v3)",
    "(\\v0. v0) (\\v1. v1 v1) (\\v2. v2 v2)",
    "(\\v0. v0 v0) (\\v1. v1 v1)",
    "(\\v0. \\v1. v1 v1) (w (\\v2. \\v3. v3 v3)) ((\\v4. \\v5. v5 v5) (w (\\v6. \\v7. v7 v7)))"
    " (x (\\v8. \\v9. v9 v9) (\\v10. \\v11. v11 v11))",
    "(\\v0. \\v1. v1 v1) ((\\v2. \\v3. v3 v3) (\\v4. \\v5. v5 v5) (\\v6. \\v7. v7 v7))"
    " ((\\v8. \\v9. v9 v9) ((\\v10. \\v11. v11 v11) (\\v12. \\v13. v13 v13) (\\v14. \\v15. v15 v15)))"
    " (\\v16. v16)",
    "(\\v0. v0 v0) (\\v1. v1 v1)",
    "(\\v0. v0 v0) (\\v1. v1 v1) (\\v2. v2) (\\v3. v3 v3)",
    "\\v0. (\\v1. v1 v1) (\\v2. v2 v2) (\\v3. v3) v0 v0 z ((\\v4. v4 v4) (\\v5. v5 v5) (\\v6. v6))",
    "(\\v0. v0 v0) (\\v1. v1 v1) (\\v2. v2)",
)


def beta_steps(t, n: int):
    for _ in range(n):
        t = beta_step(t)
        assert t is not None
    return t


class TestCycles:
    def test_omega_is_caught_at_once(self):
        budget = Fuel(10**7)
        t0 = time.perf_counter()
        with pytest.raises(ReductionCycle) as caught:
            normalize(parse(OMEGA), budget)
        assert time.perf_counter() - t0 < 0.01
        assert budget.remaining == 0
        assert caught.value.period == 1
        # Tracing tells a step miss from a depth miss by this word.
        assert "recursion" not in str(caught.value)

    def test_reported_cycle_is_a_cycle_of_the_stepper(self):
        panel = [parse(OMEGA), parse("(\\x. \\y. x x y) (\\x. \\y. x x y)")]
        panel += [parse(text) for text in LAWS_NF_CYCLES]
        samples = [gen_term(random.Random(i), max_size=40) for i in range(10_000)]
        found = 0
        for t in panel + samples:
            budget = Fuel(10**7)
            try:
                normalize(t, budget)
            except ReductionCycle as e:
                found += 1
                assert budget.remaining == 0
                assert 1 <= e.period <= e.first_repeat
                at = beta_steps(t, e.first_repeat)
                assert _same_term(beta_steps(t, e.first_repeat - e.period), at)
                assert _same_term(beta_steps(at, e.period), at)
            except FuelExhausted:
                pass
        # Every panel term cycles, and four of the samples, with periods 1 and 2.
        assert found == len(panel) + 4

    def test_shared_budget_is_drained(self):
        budget = Fuel(500)
        assert beta_eta_equiv(parse(OMEGA), fvar("y"), budget) is Equivalence.INCONCLUSIVE
        assert budget.remaining == 0
        budget = Fuel(500)
        with pytest.raises(ReductionCycle):
            iota_fold(parse(f"(\\x. x) ({OMEGA})"), fuel=budget)
        assert budget.remaining == 0

    def test_growing_self_application_is_not_a_cycle(self):
        with pytest.raises(DepthLimit):
            normalize(parse("(\\x. x x x) (\\x. x x x)"), 10**7)

    def test_cli_outcome_is_unchanged(self, capsys):
        assert run(["normalize", OMEGA, "--fuel", "50"]) == EXIT_FUEL
        assert capsys.readouterr().err == "fuel exhausted\n"
        assert run(["equiv", OMEGA, "y"]) == EXIT_FUEL
        assert capsys.readouterr().out == "inconclusive\n"


class TestDepthLimit:
    def test_binder_growth_hits_the_limit_fast(self):
        t0 = time.perf_counter()
        budget = Fuel(10**7)
        with pytest.raises(DepthLimit, match="depth limit"):
            normalize(parse(f"{W} {W}"), budget)
        assert time.perf_counter() - t0 < 1.0
        assert 10**7 - budget.remaining <= MAX_DEPTH + 1

    def test_church_two_to_the_ninth_normalizes(self):
        # Compared as text: dataclass equality recurses two frames a level.
        assert show(normalize(parse(power_of_two(9)), 10**7).term) == show(church(512))

    def test_cli_reports_the_depth_limit(self, capsys):
        assert run(["normalize", power_of_two(10), "--fuel", "10000000"]) == EXIT_FUEL
        err = capsys.readouterr().err
        assert err.startswith("depth limit exceeded") and err.count("\n") == 1

    def test_recursion_backstop(self):
        # The spine is shallow, but subst0 shifts a 1500-deep argument.
        deep = fvar("y")
        for _ in range(1500):
            deep = Abs(deep)
        with pytest.raises(DepthLimit, match="recursion"):
            normalize(App(Abs(Abs(bvar(1))), deep))

    def test_message_names_recursion(self):
        # Tracing tells a depth miss from a step-budget miss by this word.
        with pytest.raises(DepthLimit, match="recursion"):
            normalize(parse(power_of_two(10)), 10**7)

    def test_harness_counts_a_depth_miss_as_skipped(self):
        deep, shallow = parse(f"{W} {W}"), parse(f"{W} y")

        def sides(n):
            nf = normalize(deep if n % 2 else shallow, 10**7)
            return nf, nf

        check = sampled_law(
            "deep",
            samples=30,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=sides,
            inputs=lambda n: (("n", str(n)),),
            show=str,
        )
        assert check.passed and check.counterexample is None
        assert check.skipped > 0 and check.checked > 0
        assert check.checked + check.skipped == 30
