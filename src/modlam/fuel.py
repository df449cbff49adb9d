"""Step budgets for reduction.

Normalization is not total, so every reducing operation takes an explicit
budget and spends one unit per rewrite step.  Running out raises
FuelExhausted; it is never silently swallowed by the library.
"""

from __future__ import annotations

DEFAULT_FUEL = 10000


class FuelExhausted(Exception):
    """Raised when a reduction needs more steps than its budget allows."""


class DepthLimit(FuelExhausted):
    """Raised when a term under reduction nests deeper than the
    normalizer's depth limit (lam.MAX_DEPTH)."""


class ReductionCycle(FuelExhausted):
    """Raised when leftmost-outermost reduction comes back to a term it
    has already reached: it would go round forever, so the budget is
    drained to 0 first, the outcome of stepping until it runs out.

    period counts the beta steps of one round of the cycle; first_repeat
    is the beta step, counted from the term given to the normalizer,
    at which the repeat was found (the term there is the one period
    steps earlier)."""

    def __init__(self, period: int, first_repeat: int):
        super().__init__(
            f"step budget exhausted: the reduction cycles with period {period} "
            f"(repeat found at beta step {first_repeat})"
        )
        self.period = period
        self.first_repeat = first_repeat


class Fuel:
    """A caller-local, mutable step budget."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: int):
        if remaining < 0:
            raise ValueError("fuel must be nonnegative")
        self.remaining = remaining

    @classmethod
    def coerce(cls, fuel: "Fuel | int") -> "Fuel":
        return fuel if isinstance(fuel, Fuel) else cls(fuel)

    def spend(self) -> None:
        if self.remaining == 0:
            raise FuelExhausted("step budget exhausted")
        self.remaining -= 1

    def __repr__(self) -> str:
        return f"Fuel({self.remaining})"
