"""The single-pass normalizer against the one-step reference stepper, the
NfTerm certificate it checks, its cycle detection, its depth limit and
the sharing of its beta contraction."""

import copy
import dataclasses
import hashlib
import pickle
import random
import time

import pytest

from modlam import lam
from modlam.cli import EXIT_FUEL, run
from modlam.errors import MalformedTermError
from modlam.fuel import DepthLimit, Fuel, FuelExhausted, ReductionCycle
from modlam.harness import sampled_law
from modlam.lam import (
    MAX_DEPTH,
    NF,
    Abs,
    App,
    Equivalence,
    LcTerm,
    NfTerm,
    beta_eta_equiv,
    beta_step,
    eta_step,
    gen_normal,
    gen_term,
    iota_fold,
    nf_abs,
    nf_app1,
    nf_bind,
    normalize,
    parse,
    show,
    step_successors,
)
from modlam.terms import Bound, Free, bvar, fvar
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


def church_text(n: int) -> str:
    return f"(\\f. \\x. {'f (' * n}x{')' * n})"


def power_of_two(k: int) -> str:
    """2^k as text: the exponent is applied to the base."""
    return f"(\\m. \\n. n m) {CHURCH_2} {church_text(k)}"


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
    # certified through beta_step and eta_step, and re-pinned when variables
    # became leaf nodes: the old lines with every Var(ref=...) box stripped
    # hash to this value.
    PANEL_DIGEST = "447d0ec3bee06a285be9ea145325da024c924ccd9b3d342acb112982dc6dfbcc"

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


def marked(t) -> bool:
    return getattr(t, "_normal", False) is True


class TestNormalMark:
    # reduce_to_normal marks the root of each result it returns, and a
    # marked term given back to it is its own result, for no fuel.

    def test_a_normal_form_renormalizes_to_itself_for_no_fuel(self):
        for text in ("(\\x. x) y z", "\\x. \\y. y x", "(\\f. \\x. f (f x)) (\\y. g y)", "x"):
            nf = normalize(parse(text))
            assert marked(nf.term)
            for budget in (Fuel(0), Fuel(5)):
                before = budget.remaining
                assert normalize(nf.term, budget).term is nf.term
                assert budget.remaining == before
            assert NfTerm(nf.term).term is nf.term

    def test_typed_normal_form_renormalizes_to_itself(self):
        t = stlc_normalize(parse_stlc("(\\f:* -> *. \\x:*. f x) (\\y:*. y)"))
        assert marked(t)
        assert stlc_normalize(t, Fuel(0)) is t

    def test_negative_fuel_is_refused_before_the_mark_is_read(self):
        nf = normalize(parse("f x"))
        with pytest.raises(ValueError, match="nonnegative"):
            normalize(nf.term, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            stlc_normalize(stlc_normalize(parse_stlc("\\x:*. x")), -1)

    def test_wrapping_a_normal_form_is_not_marked_and_is_checked_again(self):
        # nf_abs nests one level deeper, so 700 of them pass MAX_DEPTH: the
        # renormalizing bind and the certificate must both see that.
        t = NF.unit("x")
        for _ in range(700):
            t = nf_abs(t)
        assert not marked(t.term)
        with pytest.raises(DepthLimit):
            nf_bind({}, t)
        with pytest.raises(DepthLimit):
            NfTerm(t.term)

    def test_nf_abs_and_nf_app1_do_not_mark(self):
        for text in ("f x", "\\x. f x y", "\\x. \\y. y x", "g (\\x. x)"):
            nf = normalize(parse(text))
            for out in (nf_abs(nf), nf_app1(nf)):
                assert out.term is nf.term or not marked(out.term), text

    @pytest.mark.parametrize("text", ["\\x. y x z", "f (\\x. x) y"])
    def test_the_mark_is_invisible_to_equality_hash_repr_and_replace(self, text):
        nf, fresh = normalize(parse(text)).term, parse(text)
        assert marked(nf) and not marked(fresh)
        assert nf == fresh and fresh == nf
        assert hash(nf) == hash(fresh)
        assert repr(nf) == repr(fresh)
        assert not marked(dataclasses.replace(nf))
        assert dataclasses.replace(nf) == nf

    def test_the_mark_survives_copy_and_pickle(self):
        for nf in (normalize(parse("\\x. y x z")).term, stlc_normalize(parse_stlc("\\x:*. x"))):
            for out in (copy.copy(nf), copy.deepcopy(nf), pickle.loads(pickle.dumps(nf))):
                assert out == nf and out is not nf
                assert marked(out)
                assert normalize(out, Fuel(0)).term is out

    def test_marked_outputs_are_what_the_pass_returns(self):
        # The mark claims no contraction is left and the nesting is within
        # MAX_DEPTH: rerun the pass itself, which does not read the mark.
        for i in range(1000):
            t = gen_term(random.Random(i), max_size=12)
            try:
                nf = normalize(t, 500)
            except FuelExhausted:
                continue
            assert marked(nf.term)
            assert lam._beta_normal(nf.term, Fuel(0)) == nf.term


def chain(height: int) -> LcTerm:
    """f (f (... (f y))): a normal form with `height` App nodes on its spine."""
    t = fvar("y")
    for _ in range(height):
        t = App(fvar("f"), t)
    return t


def try_normalize(t, fuel: int) -> tuple:
    """(result or exception class, fuel left)."""
    budget = Fuel(fuel)
    try:
        return lam.reduce_to_normal(t, budget), budget.remaining
    except FuelExhausted as e:
        return type(e), budget.remaining


class TestMarkedArguments:
    """An argument of a variable head that is marked normal is kept as it
    is when the depth it sits at plus its height is within MAX_DEPTH; past
    that it is walked, and the walk raises DepthLimit.  Either way the
    outcome is that of an unmarked copy."""

    # (context, the depth its hole sits at): the hole is a first argument,
    # a later argument (the argument frame's second pop), an argument
    # under a binder, and the argument left by a head contraction.
    CONTEXTS = {
        "x a": (lambda a: App(fvar("x"), a), 1),
        "x a z": (lambda a: App(App(fvar("x"), a), fvar("z")), 2),
        "x z a": (lambda a: App(App(fvar("x"), fvar("z")), a), 1),
        "\\w. w a z": (lambda a: Abs(App(App(bvar(0), a), fvar("z"))), 3),
        "(\\v. x v) a": (lambda a: App(Abs(App(fvar("x"), bvar(0))), a), 1),
    }

    @pytest.mark.parametrize("context, depth", CONTEXTS.values(), ids=CONTEXTS)
    def test_at_the_limit_and_one_past(self, context, depth):
        for height in (MAX_DEPTH - depth, MAX_DEPTH - depth + 1):
            arg = lam.reduce_to_normal(chain(height))
            assert marked(arg) and lam._height_of(arg) == height
            kept, unmarked = try_normalize(context(arg), 10), try_normalize(context(chain(height)), 10)
            assert kept == unmarked
            if height + depth <= MAX_DEPTH:
                assert kept[0] != DepthLimit
                assert id(arg) in node_ids(kept[0])  # kept, not rebuilt
            else:
                assert kept[0] is DepthLimit

    def test_height_is_the_most_nodes_on_a_path(self):
        for i in range(300):
            nf = gen_normal(random.Random(i), max_size=30)
            assert lam._height_of(nf.term) == height(nf.term)

    def test_fold_builds_linearly_many_nodes(self, monkeypatch):
        # Each application of the fold keeps its folded argument: the App
        # nodes built grow linearly with the numeral, not quadratically.
        built = []
        init = App.__init__
        monkeypatch.setattr(App, "__init__", lambda self, f, a: built.append(1) or init(self, f, a))

        def count(n: int) -> int:
            t = parse(church_text(n))
            built.clear()
            out = iota_fold(t)
            assert out.term == church(n)
            return len(built)

        assert count(80) <= 2.2 * count(40)


def height(t) -> int:
    if isinstance(t, App):
        return 1 + max(height(t.fun), height(t.arg))
    if isinstance(t, Abs):
        return 1 + height(t.body)
    return 0


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
                assert beta_steps(t, e.first_repeat - e.period) == at
                assert beta_steps(at, e.period) == at
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
        # The spine is shallow, but the argument is 1500 deep: subst0 shifts
        # it on an explicit stack, and the normalizer then stops at the
        # depth limit, whose message names the recursion limit it sits below.
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


def untouched_nodes(t) -> list:
    """The App/Abs nodes of t under which no index reaches the local
    cutoff: the ones subst0 has no reason to rebuild."""
    out = []

    def go(t, j: int) -> bool:  # does an index at or above j occur?
        if isinstance(t, (Free, Bound)):
            return isinstance(t, Bound) and t.index >= j
        if isinstance(t, App):
            dangles = go(t.fun, j) | go(t.arg, j)
        else:
            dangles = go(t.body, j + 1)
        if not dangles:
            out.append(t)
        return dangles

    go(t, 0)
    return out


def node_ids(t) -> set[int]:
    out, todo = set(), [t]
    while todo:
        t = todo.pop()
        if not isinstance(t, (Free, Bound)):
            out.add(id(t))
            todo += (t.fun, t.arg) if isinstance(t, App) else (t.body,)
    return out


class TestSharing:
    def test_beta_contraction_rebuilds_no_untouched_node(self, monkeypatch):
        # Normalizing Church 2^9 and 20*20 takes 535 contraction walks, and
        # their bodies hold no untouched App/Abs node: a run of head
        # contractions is one walk, so no walk goes back into the images an
        # earlier contraction placed (one walk per contraction met 3979
        # untouched nodes in 1067 walks there).  The seeded samples and the
        # three-binder head walk bodies that do hold them: 386 walks, 30 of
        # them with more than one image, hold 366 untouched nodes.
        calls, multi, untouched, rebuilt = 0, 0, 0, 0
        replace = lam._replace

        def counting(t, s, by, images, depth):
            # Only contraction walks: the shifts of their images are not.
            nonlocal calls, multi, untouched, rebuilt
            if not images:
                return replace(t, s, by, images, depth)
            keep = untouched_nodes(t)
            multi += len(images) > 1
            out = replace(t, s, by, images, depth)
            ids = node_ids(out)
            calls += 1
            untouched += len(keep)
            rebuilt += sum(id(n) not in ids for n in keep)
            return out

        monkeypatch.setattr(lam, "_replace", counting)
        mult = f"(\\m. \\n. \\f. m (n f)) {church_text(20)} {church_text(20)}"
        for text, n in ((power_of_two(9), 512), (mult, 400)):
            assert show(normalize(parse(text), 10**7).term) == show(church(n))
        assert (calls, untouched, rebuilt) == (535, 0, 0)
        calls = multi = 0
        for i in range(1000):
            try:
                normalize(gen_term(random.Random(i), max_size=40), 10_000)
            except FuelExhausted:
                pass
        text = "(\\a. \\b. \\c. a (\\z. z) (b c (\\w. w w))) f g h"
        assert show(normalize(parse(text)).term) == "f (\\v0. v0) (g h (\\v1. v1 v1))"
        assert (calls, multi, untouched, rebuilt) == (386, 30, 366, 0)
