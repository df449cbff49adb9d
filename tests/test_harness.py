import dataclasses
import random

import pytest

from modlam.errors import ConfigError
from modlam.fuel import FuelExhausted
from modlam.harness import (
    Counterexample,
    LawCheck,
    LawReport,
    _sample_rng,
    _sweep,
    check_linearity,
    check_module_laws,
    check_monad_laws,
    compose_subst,
    fresh_name,
    sampled_law,
    show_subst,
    subst_total,
    tautological_module,
)
from modlam.lists import LIST


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
        one = check_monad_laws(LIST, samples=100, seed=7)
        two = check_monad_laws(LIST, samples=100, seed=7)
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
        from modlam.catalog import linearity_squares, run_suite

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
        assert set(squares) == set(linearity_squares())
        for instance, names in squares.items():
            report = run_suite("linearity", instance, 20, 0)
            assert [c.name for c in report.checks] == names
            assert names == [row[0] for row in linearity_squares()[instance]]

    def test_every_square_carrier_obeys_the_module_laws(self):
        from modlam.catalog import linearity_squares

        carriers = {
            id(mod): mod
            for rows in linearity_squares().values()
            for _, src, dst, _, _ in rows
            for mod in (src, dst)
        }
        assert len(carriers) == 24
        for mod in carriers.values():
            report = check_module_laws(mod, samples=300, seed=0)
            assert report.passed, report.format()
            assert sum(c.skipped for c in report.checks) == 0, mod.name

    def counting(self, calls):
        def gen(rng):
            calls.append(None)
            return (rng.randrange(10),)

        return gen

    def test_sweep_stops_when_every_law_has_failed(self):
        calls = []
        laws = [
            (name, lambda n: (n, -1), lambda n: (("n", str(n)),)) for name in ("one", "two")
        ]
        checks = _sweep("stops", 50, 0, self.counting(calls), laws, str, probes=((3,),))
        assert calls == []
        assert [c.counterexample.where for c in checks] == ["probe 0", "probe 0"]
        assert [c.checked + c.skipped for c in checks] == [0, 0]

    def test_sweep_runs_on_while_a_law_passes(self):
        calls = []
        laws = [
            ("fails", lambda n: (n, -1), lambda n: (("n", str(n)),)),
            ("holds", lambda n: (n, n), lambda n: (("n", str(n)),)),
        ]
        checks = _sweep("runs-on", 50, 0, self.counting(calls), laws, str, probes=((3,),))
        assert len(calls) == 50
        assert checks[0].counterexample.where == "probe 0"
        assert checks[1].passed and checks[1].checked == 51


# Range sizes at the edges of getrandbits(n.bit_length()): one, powers of
# two and one past them (where rejection is likeliest), and sizes above
# 2**64 that take more than two 32-bit words.
SIZES = (1, 3, 5, 6, 7, 10, 100, 2**64 + 1, 3 * 2**70 + 7, 2**200 - 1) + tuple(
    n for k in (1, 2, 5, 8, 31, 32, 33, 63, 64, 65, 100) for n in (2**k, 2**k + 1)
)


def draws(rng, n, i):
    """One of each draw, with bounds that vary with the key's index i."""
    lo = i - 500
    out = [
        rng.randrange(n),
        rng.randrange(lo, lo + n),
        rng.randint(lo, lo + n - 1),
        rng.randrange(lo, lo + 5 * n, 5),
        rng.random(),
    ]
    if n < 2**62:  # len() of a longer sequence overflows
        out.append(rng.choice(range(lo, lo + n) if n > 1000 else tuple(range(n))))
    return out


class TestSampleRandom:
    """The sweep's per-sample generator draws exactly what random.Random,
    seeded with the same key, draws."""

    def test_is_the_fast_subclass(self):
        rng = _sample_rng(0, "monad:0")
        assert isinstance(rng, random.Random) and type(rng) is not random.Random
        assert type(rng).randrange is not random.Random.randrange

    def test_streams_match(self):
        for i in range(2000):
            key = f"monad:{i}"
            ours, lib = _sample_rng(7, key), random.Random(f"7:{key}")
            for n in SIZES:
                assert draws(ours, n, i) == draws(lib, n, i), (key, n)
            assert ours.getstate() == lib.getstate()

    @pytest.mark.parametrize(
        "draw",
        [
            lambda r: r.randrange(0),
            lambda r: r.randrange(-3),
            lambda r: r.randrange(5, 5),
            lambda r: r.randrange(5, 2),
            lambda r: r.randrange(0, 10, 0),
            lambda r: r.randrange(10, 0, 1),
            lambda r: r.randrange(3, step=2),
            lambda r: r.randint(3, 2),
            lambda r: r.choice([]),
            lambda r: r.choice(()),
            lambda r: r.randrange("4"),
            lambda r: r.randint(1, None),
        ],
    )
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_raises_what_the_library_raises(self, draw):
        with pytest.raises(Exception) as ours:
            draw(_sample_rng(0, "x"))
        with pytest.raises(Exception) as lib:
            draw(random.Random("0:x"))
        assert type(ours.value) is type(lib.value)
        assert str(ours.value) == str(lib.value)

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_non_int_bounds_go_to_the_library(self):
        ours, lib = _sample_rng(0, "x"), random.Random("0:x")
        for draw in (lambda r: r.randrange(4.0), lambda r: r.randrange(1, 9.0),
                     lambda r: r.randint(True, 6), lambda r: r.randrange(2, 9, True)):
            assert draw(ours) == draw(lib)
        assert ours.getstate() == lib.getstate()
