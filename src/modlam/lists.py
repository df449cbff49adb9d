"""The lists monad and monoid algebras over it.

Values are tuples over a ground set (integers in the shipped instance);
unit is the singleton and join is flattening.  Monoids are exactly the
algebras of this monad, with the action folding a list to its product.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from .harness import MonadInstance, MonoidAlgebra

ListVal = tuple


def unit(x: Any) -> ListVal:
    return (x,)


def join(xss: Iterable[ListVal]) -> ListVal:
    out: list = []
    for xs in xss:
        out.extend(xs)
    return tuple(out)


def _show(xs: ListVal) -> str:
    return "[" + ", ".join(str(x) for x in xs) + "]"


_POOL = tuple(range(8))


def _gen_value(rng: random.Random) -> ListVal:
    return tuple(_POOL[rng.randrange(len(_POOL))] for _ in range(rng.randrange(5)))


def _gen_subst(rng: random.Random) -> dict:
    ks = [k for k in _POOL if rng.random() < 0.4]
    return {k: _gen_value(rng) for k in ks}


LIST = MonadInstance(
    name="list",
    names=_POOL,
    unit=unit,
    bind=lambda s, xs: join(s.get(x, (x,)) for x in xs),
    gen_value=_gen_value,
    gen_subst=_gen_subst,
    show_value=_show,
)


def concat(pair: tuple[ListVal, ListVal]) -> ListVal:
    """Concatenation, a linear map from the product module to the monad."""
    xs, ys = pair
    return xs + ys


def int_add_algebra() -> MonoidAlgebra:
    return MonoidAlgebra(
        name="int-add",
        unit=0,
        product=lambda a, b: a + b,
        gen_element=lambda rng: rng.randrange(-5, 6),
        show_value=str,
    )
