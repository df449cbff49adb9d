"""Pins of the work the four normalizing law suites do.

Over (monad, nf), (module, nf), (linearity, nf) and (linearity, stlc) at
1000 samples and law seeds 0 and 1, lam.normalize and typed.stlc_normalize
are wrapped wherever a modlam module holds them, each call given a Fuel
object so the fuel it spent can be read back.  The number of calls, the
fuel spent, the exhaustions by kind and the skips are pinned: fuel is one
unit per leftmost-outermost rewrite step, so a change that saves work
without changing the reduction leaves every count where it is.

typed.type_of and typed.tlist_sort are counted the same way, here and over
the monad, module and linearity suites of stlc and tlist: every image the
law suites draw is built at a known type or sort and carries it, so only
the images that substitution itself computes are typed or sorted.
tlist_sort recurses through its module global, so its count is of nodes
visited.
"""

import importlib.util
import pathlib
import sys
from collections import Counter

import pytest

from modlam import catalog, lam, typed
from modlam.fuel import DEFAULT_FUEL, DepthLimit, Fuel, FuelExhausted, ReductionCycle

NF_PAIRS = (("monad", "nf"), ("module", "nf"), ("linearity", "nf"), ("linearity", "stlc"))
SAMPLES = 1000
SEEDS = (0, 1)


def _kind(e: FuelExhausted) -> str:
    if isinstance(e, ReductionCycle):
        return "cycle"
    if isinstance(e, DepthLimit):
        return "depth"
    return "steps"


def _counting(prefix: str, fn, counts: Counter):
    def wrapper(t, fuel=DEFAULT_FUEL):
        budget = Fuel.coerce(fuel)
        before = budget.remaining
        counts[f"{prefix}.calls"] += 1
        try:
            return fn(t, budget)
        except FuelExhausted as e:
            counts[f"{prefix}.exhausted.{_kind(e)}"] += 1
            raise
        finally:
            counts[f"{prefix}.steps"] += before - budget.remaining

    return wrapper


def _calls(key: str, fn, counts: Counter):
    def wrapper(*args):
        counts[key] += 1
        return fn(*args)

    return wrapper


def _wrap_everywhere(monkeypatch, original, wrapper) -> None:
    for name, mod in sorted(sys.modules.items()):
        if name == "modlam" or name.startswith("modlam."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


def _count_typing(monkeypatch, counts: Counter) -> None:
    for key, original in (("type_of.calls", typed.type_of), ("tlist_sort.calls", typed.tlist_sort)):
        _wrap_everywhere(monkeypatch, original, _calls(key, original, counts))


@pytest.mark.parametrize("seed", SEEDS)
def test_nf_suites_work_counts(monkeypatch, seed):
    counts: Counter = Counter()
    for prefix, original in (("lam", lam.normalize), ("typed", typed.stlc_normalize)):
        _wrap_everywhere(monkeypatch, original, _counting(prefix, original, counts))
    _count_typing(monkeypatch, counts)
    for suite, instance in NF_PAIRS:
        report = catalog.run_suite(suite, instance, SAMPLES, seed)
        assert report.passed
        for c in report.checks:
            counts["samples"] += c.checked + c.skipped
            counts["skipped"] += c.skipped
    assert set(counts) <= set(KEYS)
    assert {k: counts[k] for k in KEYS} == EXPECTED[seed]


KEYS = (
    "lam.calls",
    "lam.steps",
    "lam.exhausted.steps",
    "lam.exhausted.cycle",
    "lam.exhausted.depth",
    "typed.calls",
    "typed.steps",
    "typed.exhausted.steps",
    "typed.exhausted.cycle",
    "typed.exhausted.depth",
    "samples",
    "skipped",
    "type_of.calls",
    "tlist_sort.calls",
)

# Recorded on the normalizer that re-reduces every normal form it is
# given.  Summed over both seeds, one round of the laws-nf benchmark, whose
# traced run reports them too (a cycle as a step-budget exhaustion): 32404
# lam calls, 127273 lam steps, 12 cycles, 8 depth limits, 8008 typed
# steps, 22000 samples and 20 skips.  No image is typed or sorted again:
# every one is drawn by a generator that keeps the type it built at.
EXPECTED = {
    0: dict(zip(KEYS, (16224, 52678, 0, 5, 3, 12000, 4017, 0, 0, 0, 11000, 8, 0, 0))),
    1: dict(zip(KEYS, (16180, 74595, 0, 7, 5, 12000, 3991, 0, 0, 0, 11000, 12, 0, 0))),
}


STLC_POOL_VARS = tuple(v for vs in typed._POOL_VARS.values() for v in vs)

TYPED_PAIRS = tuple(
    (suite, instance)
    for instance in ("stlc", "tlist")
    for suite in ("monad", "module", "linearity")
)


@pytest.mark.parametrize("seed", SEEDS)
def test_typed_suites_typing_counts(monkeypatch, seed):
    counts: Counter = Counter()
    _count_typing(monkeypatch, counts)
    got = {}
    for suite, instance in TYPED_PAIRS:
        # Pool variables are shared leaves whose slots outlive a run: clear
        # them, so each count is the one a fresh process makes.
        for v in (*STLC_POOL_VARS, *typed.TLIST_POOL):
            vars(v).pop("_type", None)
            vars(v).pop("_sort", None)
        counts.clear()
        assert catalog.run_suite(suite, instance, SAMPLES, seed).passed
        got[suite, instance] = (counts["type_of.calls"], counts["tlist_sort.calls"])
    assert got == TYPING_COUNTS[seed]


# (type_of calls, tlist_sort node visits) per pair: the images these
# suites compute by substituting or shifting, which must be typed or
# sorted, since substitution does not carry a slot to its output.
TYPING_COUNTS = {
    0: {
        ("monad", "stlc"): (491, 0),
        ("module", "stlc"): (471, 0),
        ("linearity", "stlc"): (0, 0),
        ("monad", "tlist"): (0, 1002),
        ("module", "tlist"): (0, 917),
        ("linearity", "tlist"): (0, 3292),
    },
    1: {
        ("monad", "stlc"): (514, 0),
        ("module", "stlc"): (539, 0),
        ("linearity", "stlc"): (0, 0),
        ("monad", "tlist"): (0, 907),
        ("module", "tlist"): (0, 904),
        ("linearity", "tlist"): (0, 3240),
    },
}


def _perfbench_tracing():
    """perfbench/tracing.py, the benchmark's tracer, loaded from its file."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The traced laws-nf counts split lam.exhausted into depth and steps by
# the word "recursion" in the exception's message, which only DepthLimit's
# text holds today: a restated message would move a round's 8 depth
# exhaustions into lam.exhausted.steps without a test failing.  A
# reduction cycle counts as steps.
EXHAUSTIONS = (
    ("depth", "\\x. " * 700 + "x", DEFAULT_FUEL),
    ("depth", "(\\x. x x x) (\\x. x x x)", DEFAULT_FUEL),
    ("steps", "(\\x. x x) (\\x. x x)", DEFAULT_FUEL),
    ("steps", "(\\x. x x x) (\\x. x x x)", 20),
)


def test_perfbench_tells_depth_limits_from_step_budgets():
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    traced = tracing._normalizing("lam")(tracer, "lam.normalize", lam.normalize, None, None)
    counts = tracer.counts
    for kind, text, fuel in EXHAUSTIONS:
        before = counts[f"lam.exhausted.{kind}"]
        with pytest.raises(FuelExhausted) as exc:
            traced(lam.parse(text), fuel)
        assert isinstance(exc.value, DepthLimit) == (kind == "depth")
        assert counts[f"lam.exhausted.{kind}"] == before + 1, (kind, text, fuel)
    assert (counts["lam.exhausted.depth"], counts["lam.exhausted.steps"]) == (2, 2)
