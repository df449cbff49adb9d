"""Deliberately wrong instances: structures that fail the laws their
descriptors claim, so the tests can check that the harness finds and
reports each failure."""

from modlam.harness import MonadInstance, MonoidAlgebra
from modlam.lam import NAME_POOL, gen_term, show, subst
from modlam.lists import LIST
from modlam.terms import fvar


def broken_list_monad() -> MonadInstance:
    """The lists monad with a bind that drops the last element.

    Used to demonstrate that the harness actually catches broken
    instances; unit-bind fails almost immediately.
    """

    def bad_bind(s, xs):
        out = LIST.bind(s, xs)
        return out[:-1]

    return MonadInstance(
        name="broken-list",
        names=LIST.names,
        unit=LIST.unit,
        bind=bad_bind,
        gen_value=LIST.gen_value,
        gen_subst=LIST.gen_subst,
        show_value=LIST.show_value,
    )


def int_sub_algebra() -> MonoidAlgebra:
    """Integers with subtraction: not a monoid, so the algebra square
    fails and the harness must find a counterexample."""
    return MonoidAlgebra(
        name="int-sub",
        unit=0,
        product=lambda a, b: a - b,
        gen_element=lambda rng: rng.randrange(-5, 6),
        show_value=str,
    )


def naive_prime_monad() -> MonadInstance:
    """Scope-extended terms given the evident unit and the derived
    action as if it were a monad bind.  This is the structure against
    which abstraction famously fails to be a monad morphism; the harness
    exhibits the failure rather than assuming it."""
    return MonadInstance(
        name="lc-prime-naive",
        names=NAME_POOL,
        unit=fvar,
        bind=subst,
        gen_value=lambda rng: gen_term(rng, depth=1),
        gen_subst=lambda rng: {
            name: gen_term(rng, max_size=5, depth=1)
            for name in NAME_POOL
            if rng.random() < 0.4
        },
        show_value=show,
    )
