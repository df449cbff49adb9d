"""The normalizer contracts a run of head contractions (\\x1. ... \\xm. b)
a1 ... am in one substitution walk; reference_terms.beta_normal is the
normalizer as it was when each contraction was a walk of its own, with
Brent's cycle check after every contraction.  Both must reach the same
outcome on every term: the same normal form (by ==, which compares binder
types), the same Fuel.remaining, the same exception class and the same
cycle period.  The cycle checks sample different steps, so first_repeat
may differ; the normalizer's must still be a step at which the stepper's
term repeats.  One difference is allowed: a budget that runs out between
the two sides' detection steps ends one side in ReductionCycle and the
other in a plain FuelExhausted, both with no fuel left.  Such cases are
counted.

The panel is run a second time with every argument normalized and marked
beforehand, so that the normalizer keeps the marked arguments it meets
as they are, where their height allows, and the reference walks them.

The comparison runs in two interpreters, at recursion limits 1000 and
4000, as tests/test_recursion_limit.py does."""

import json
import os
import pathlib
import random
import subprocess
import sys

from modlam import lam
from modlam.errors import MalformedTermError
from modlam.fuel import Fuel, FuelExhausted, ReductionCycle
from modlam.lam import Abs, App, gen_term, parse, reduce_to_normal
from modlam.typed import gen_typed_term

import reference_terms as ref
from test_normalizer import LAWS_NF_CYCLES, OMEGA, beta_steps, church_text, power_of_two

TESTS = pathlib.Path(__file__).resolve().parent
SRC = str(TESTS.parent / "src")

# The cycle of this term goes through a two-argument head.
TWO_ARGUMENT_CYCLE = "(\\x. \\y. x x y) (\\x. \\y. x x y)"


def church_panel() -> list[str]:
    plus = "(\\m. \\n. \\f. \\x. m f (n f x))"
    mult = "(\\m. \\n. \\f. m (n f))"
    out = [power_of_two(k) for k in range(10)]
    for a, b in ((0, 0), (1, 7), (20, 20), (60, 60)):
        out.append(f"{plus} {church_text(a)} {church_text(b)}")
        out.append(f"{mult} {church_text(a)} {church_text(b)}")
    return out


def outcome(normalizer, t, fuel: int) -> tuple:
    """(outcome class, normal form or None, fuel left, period, first_repeat)."""
    budget = Fuel(fuel)
    try:
        return "ok", normalizer(t, budget), budget.remaining, None, None
    except ReductionCycle as e:
        return "ReductionCycle", None, budget.remaining, e.period, e.first_repeat
    except (FuelExhausted, MalformedTermError) as e:
        return type(e).__name__, None, budget.remaining, None, None


def premarked(t):
    """t with the argument of every App node replaced by its normal form,
    which the normalizer marks, wherever that takes at most 10000 steps."""
    if isinstance(t, App):
        arg = premarked(t.arg)
        try:
            arg = reduce_to_normal(arg, 10_000)
        except FuelExhausted:
            pass
        return App(premarked(t.fun), arg)
    if isinstance(t, Abs):
        return t.with_body(premarked(t.body))
    return t


def compare(premark: bool = False) -> dict:
    """Run both normalizers over the panel, with its arguments marked if
    premark; assert they agree and count what the differential saw,
    including how often the normalizer took a marked argument's height."""
    seen = {"runs": 0, "cycles": 0, "later_repeat": 0, "cycle_vs_budget": 0, "heights": 0}
    height_of = lam._height_of

    def counted_height_of(t):
        seen["heights"] += 1
        return height_of(t)

    lam._height_of = counted_height_of
    try:
        run_panel(seen, premarked if premark else lambda t: t)
    finally:
        lam._height_of = height_of
    return seen


def run_panel(seen: dict, prepare) -> None:
    def check(t, fuel: int) -> tuple:
        t = prepare(t)
        expected = outcome(ref.beta_normal, t, fuel)
        got = outcome(reduce_to_normal, t, fuel)
        seen["runs"] += 1
        kinds = {got[0], expected[0]}
        if kinds == {"ReductionCycle", "FuelExhausted"} and got[2] == expected[2] == 0:
            seen["cycle_vs_budget"] += 1
            return got
        assert got[0] == expected[0] and got[2] == expected[2], (t, fuel, got, expected)
        assert got[1] == expected[1] and got[3] == expected[3], (t, fuel, got, expected)
        if got[0] == "ReductionCycle":
            seen["cycles"] += 1
            seen["later_repeat"] += got[4] != expected[4]
            period, first_repeat = got[3], got[4]
            at = beta_steps(t, first_repeat)
            assert beta_steps(t, first_repeat - period) == at
            assert beta_steps(at, period) == at
        return got

    def check_at_the_last_unit(t, fuel: int) -> None:
        # A term that normalizes is run again one fuel unit short: both
        # sides must run out at the same unit.
        got = check(t, fuel)
        if got[0] == "ok" and fuel > got[2]:
            check(t, fuel - got[2] - 1)

    for i in range(20_000):
        t = gen_term(random.Random(i), max_size=40)
        for fuel in (10_000, 37):
            check_at_the_last_unit(t, fuel)
    for i in range(3000):
        t = gen_typed_term(random.Random(i), max_size=24)
        for fuel in (10_000, 37):
            check_at_the_last_unit(t, fuel)
    for text in (*LAWS_NF_CYCLES, OMEGA, TWO_ARGUMENT_CYCLE):
        for fuel in (10_000, 37, 1):
            check(parse(text), fuel)
    for text in church_panel():
        check_at_the_last_unit(parse(text), 10**7)


RUNNER = """
import json, sys
sys.setrecursionlimit(int(sys.argv[1]))
import test_contraction_walks
print(json.dumps([test_contraction_walks.compare(p) for p in (False, True)]))
"""


def test_one_walk_per_run_matches_one_walk_per_contraction():
    path = os.pathsep.join([SRC, str(TESTS), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    for limit in (1000, 4000):
        proc = subprocess.run(
            [sys.executable, "-c", RUNNER, str(limit)],
            capture_output=True,
            text=True,
            env=env,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-3000:]
        plain, marked = json.loads(proc.stdout)
        # 38 cycles found, 6 of them at a later step than the reference's;
        # no budget ran out between the two sides' detection steps.
        assert plain == {
            "runs": 61063, "cycles": 38, "later_repeat": 6, "cycle_vs_budget": 0, "heights": 0,
        }, limit
        # With the arguments marked, 23484 heights were taken.
        assert marked == {
            "runs": 58159, "cycles": 38, "later_repeat": 4, "cycle_vs_budget": 0, "heights": 23484,
        }, limit
