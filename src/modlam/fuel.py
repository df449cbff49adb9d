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

    period counts the beta steps of one round of the cycle, exactly;
    first_repeat is the beta step, counted from the term given to the
    normalizer, at which the repeat was found (the term there is the one
    period steps earlier).  The normalizer checks for a repeat after a
    walk that may contract several steps at once, so first_repeat need
    not be the first step at which the term repeats."""

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

    def spend(self, n: int = 1) -> None:
        """Spend n units.  With fewer left, the budget runs out as it would
        unit by unit: it is drained to 0 and FuelExhausted raised."""
        if self.remaining < n:
            self.remaining = 0
            raise FuelExhausted("step budget exhausted")
        self.remaining -= n

    def __repr__(self) -> str:
        return f"Fuel({self.remaining})"
