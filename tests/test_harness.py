import dataclasses

import pytest

from modlam.errors import ConfigError
from modlam.fuel import FuelExhausted
from modlam.harness import (
    Counterexample,
    LawCheck,
    LawReport,
    check_linearity,
    check_monad_laws,
    compose_subst,
    fresh_name,
    sampled_law,
    show_subst,
    subst_total,
    tautological_module,
)
from modlam.lists import LIST, bind, list_monad


class TestFreshMarkers:
    def test_fresh_name_family(self):
        assert fresh_name(0) == "*0"
        assert fresh_name(3) == "*3"


class TestSubstHelpers:
    def test_subst_total(self):
        assert subst_total(LIST, {3: (1, 2)}, 3) == (1, 2)
        assert subst_total(LIST, {}, 3) == (3,)

    def test_compose_subst_oracle(self):
        f = {1: (2, 3)}
        g = {2: (4,)}
        comp = compose_subst(LIST, f, g)
        assert comp == {1: (4, 3), 2: (4,)}

    def test_compose_subst_is_kleisli_composition(self):
        f = {1: (2, 3), 5: ()}
        g = {2: (4,), 3: (3, 3)}
        comp = compose_subst(LIST, f, g)
        for x in [(1, 2, 3), (5, 5), (), (7,)]:
            assert LIST.bind(comp, x) == LIST.bind(g, LIST.bind(f, x))

    def test_show_subst_sorted(self):
        assert show_subst(LIST, {2: (1,), 1: ()}) == "{1 -> [], 2 -> [1]}"


class TestReportFormatting:
    def test_pass_line(self):
        check = LawCheck("demo", 10, 0, None)
        assert check.format() == "law demo: PASS (10 checked)"

    def test_pass_with_skips(self):
        check = LawCheck("demo", 8, 2, None)
        assert check.format() == "law demo: PASS (8 checked, 2 skipped)"

    def test_inconclusive(self):
        check = LawCheck("demo", 0, 5, None)
        assert check.inconclusive
        assert not check.passed
        assert check.format() == "law demo: INCONCLUSIVE (0 checked, 5 skipped)"

    def test_fail_block(self):
        ce = Counterexample("sample 3", (("value", "[1]"),), "[1, 1]", "[1]")
        check = LawCheck("demo", 3, 0, ce)
        assert check.format() == (
            "law demo: FAIL (counterexample at sample 3)\n"
            "  value: [1]\n"
            "  lhs: [1, 1]\n"
            "  rhs: [1]"
        )

    def test_report_tail(self):
        report = LawReport("monad", "list", 5, 0, (LawCheck("demo", 5, 0, None),))
        assert report.format().endswith("result: PASS")
        assert report.check("demo").passed
        with pytest.raises(KeyError):
            report.check("absent")


class TestSamplingEngine:
    def test_determinism(self):
        one = check_monad_laws(list_monad(), samples=100, seed=7)
        two = check_monad_laws(list_monad(), samples=100, seed=7)
        assert one.format() == two.format()

    def test_sampled_law_pass(self):
        check = sampled_law(
            "tautology",
            samples=20,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=lambda n: (n, n),
            inputs=lambda n: (("n", str(n)),),
            show=str,
        )
        assert check.passed
        assert check.checked == 20

    def test_sampled_law_failure_stops(self):
        check = sampled_law(
            "always-wrong",
            samples=20,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=lambda n: ("left", "right"),
            inputs=lambda n: (("n", str(n)),),
            show=str,
        )
        assert not check.passed
        assert check.checked == 0
        assert check.counterexample.where == "sample 0"

    def test_sampled_law_renders_with_show(self):
        check = sampled_law(
            "off-by-one",
            samples=20,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=lambda n: ([n], [n + 1]),
            inputs=lambda n: (("n", str(n)),),
            show=lambda xs: "<" + ",".join(map(str, xs)) + ">",
        )
        n = check.counterexample.inputs[0][1]
        assert check.counterexample == Counterexample(
            "sample 0", (("n", n),), f"<{n}>", f"<{int(n) + 1}>"
        )

    def test_sampled_law_renders_inputs_only_on_failure(self):
        rendered = []

        def inputs(n):
            rendered.append(n)
            return (("n", str(n)),)

        check = sampled_law(
            "fails-late",
            samples=20,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=lambda n: (n, n if n != 7 else -1),
            inputs=inputs,
            show=str,
        )
        assert check.checked > 0
        assert check.counterexample.inputs == (("n", "7"),)
        assert rendered == [7]

    def test_sampled_law_probes_run_first(self):
        check = sampled_law(
            "probed",
            samples=20,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=lambda n: (n, n if n != 99 else 0),
            inputs=lambda n: (("n", str(n)),),
            show=str,
            probes=((99,),),
        )
        assert check.counterexample.where == "probe 0"

    def test_generator_exhaustion_is_skip(self):
        def gen(rng):
            raise FuelExhausted("out of fuel")

        check = sampled_law(
            "starved",
            samples=15,
            seed=0,
            gen=gen,
            sides=lambda: (0, 0),
            inputs=lambda: (),
            show=str,
        )
        assert check.inconclusive
        assert check.skipped == 15

    def test_property_exhaustion_is_skip(self):
        def sides(n):
            if n % 2:
                raise FuelExhausted("out of fuel")
            return n, n

        check = sampled_law(
            "flaky",
            samples=30,
            seed=0,
            gen=lambda rng: (rng.randrange(10),),
            sides=sides,
            inputs=lambda n: (("n", str(n)),),
            show=str,
        )
        assert check.passed
        assert check.checked + check.skipped == 30
        assert check.skipped > 0

    def test_recursion_error_is_not_a_skip(self):
        # Only running out of fuel is a skip: a bind that never returns
        # is a fault of the instance, not a resource miss.
        def bind(s, v):
            return bind(s, v)

        looping = dataclasses.replace(LIST, name="looping", bind=bind)
        with pytest.raises(RecursionError):
            check_monad_laws(looping, samples=5, seed=0)

    def test_linearity_requires_shared_monad(self):
        from modlam.lam import LC

        with pytest.raises(ConfigError):
            check_linearity(
                tautological_module(LIST),
                tautological_module(LC),
                lambda x: x,
                samples=1,
            )

    def test_linearity_identity_passes(self):
        taut = tautological_module(LIST)
        report = check_linearity(taut, taut, lambda x: x, samples=50, seed=0)
        assert report.passed

    def test_linearity_suites_check_their_squares(self):
        from modlam.catalog import run_suite

        squares = {
            "lc": ["app", "abs"],
            "nf": ["abs", "app1"],
            "list": ["concat"],
            "pt": ["double-and-swap"],
            "stlc": ["app@*,*", "abs@*,*", "app-nf@*,*", "abs-nf@*,*"],
            "tlist": ["nil", "cons", "shift-commute"],
            "derived-lc": ["inner-inclusion", "outer-inclusion", "eval"],
            "product-lc": ["fst", "snd"],
        }
        for instance, names in squares.items():
            report = run_suite("linearity", instance, 20, 0)
            assert [c.name for c in report.checks] == names
