"""Pins of the work the four normalizing law suites do.

Over (monad, nf), (module, nf), (linearity, nf) and (linearity, stlc) at
1000 samples and law seeds 0 and 1, lam.normalize and typed.stlc_normalize
are wrapped wherever a modlam module holds them, each call given a Fuel
object so the fuel it spent can be read back.  The number of calls, the
fuel spent, the exhaustions by kind and the skips are pinned: fuel is one
unit per leftmost-outermost rewrite step, so a change that saves work
without changing the reduction leaves every count where it is.
"""

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


def _wrap_everywhere(monkeypatch, original, wrapper) -> None:
    for name, mod in sorted(sys.modules.items()):
        if name == "modlam" or name.startswith("modlam."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)


@pytest.mark.parametrize("seed", SEEDS)
def test_nf_suites_work_counts(monkeypatch, seed):
    counts: Counter = Counter()
    for prefix, original in (("lam", lam.normalize), ("typed", typed.stlc_normalize)):
        _wrap_everywhere(monkeypatch, original, _counting(prefix, original, counts))
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
)

# Recorded on the normalizer that re-reduces every normal form it is
# given.  Summed over both seeds, one round of the laws-nf benchmark, whose
# traced run reports them too (a cycle as a step-budget exhaustion): 32404
# lam calls, 127273 lam steps, 12 cycles, 8 depth limits, 8008 typed
# steps, 22000 samples and 20 skips.
EXPECTED = {
    0: dict(zip(KEYS, (16224, 52678, 0, 5, 3, 12000, 4017, 0, 0, 0, 11000, 8))),
    1: dict(zip(KEYS, (16180, 74595, 0, 7, 5, 12000, 3991, 0, 0, 0, 11000, 12))),
}
