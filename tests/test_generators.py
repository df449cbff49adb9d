"""The generators against their reference forms in reference_terms.

lam.gen_normal builds its normal form directly, eta-contracting each
abstraction as it builds it, where the reference builds a beta-normal
term and runs reduce_to_normal on it; typed.gen_typed_term reads its
leaf candidates from a table, where the reference builds a list at every
leaf.  On each keyed sample both must return the same term and leave the
generator in the same state, so every law sample draws what it drew.
"""

import pytest

from modlam.fuel import Fuel, FuelExhausted
from modlam.harness import _sample_rng
from modlam.lam import MAX_DEPTH, _beta_normal, _same_term, gen_normal
from modlam.typed import BASE, STLC_TYPES, gen_typed_term

import reference_terms as ref

SIZES = (5, 8, 30, 3000)
DEPTHS = (0, 1, 2)
PER_CASE = 500  # 12 cases: 6000 samples


def _run(gen, rng, *args):
    # (term or exception type, generator state after the draw)
    try:
        out = gen(rng, *args)
    except FuelExhausted as e:
        out = type(e)
    return out, rng.getstate()


@pytest.mark.parametrize("max_size", SIZES)
@pytest.mark.parametrize("depth", DEPTHS)
def test_gen_normal_matches_reference(max_size, depth):
    for i in range(PER_CASE):
        key = f"gen-normal:{max_size}:{depth}:{i}"
        new, new_state = _run(gen_normal, _sample_rng(0, key), max_size, depth)
        old, old_state = _run(ref.gen_normal, _sample_rng(0, key), max_size, depth)
        assert new_state == old_state, key
        if isinstance(old, type):
            assert new is old, key
        else:
            assert _same_term(new.term, old.term), key


def test_gen_normal_output_is_marked_and_normal():
    # The mark claims what reduce_to_normal would find: nothing to
    # contract and nesting within MAX_DEPTH.  Rerun the normalizer's own
    # pass, which does not read the mark, with no fuel.
    for max_size in (8, 30, MAX_DEPTH):
        for i in range(300):
            nf = gen_normal(_sample_rng(1, f"mark:{max_size}:{i}"), max_size, i % 3)
            assert nf.term._normal is True
            assert _same_term(_beta_normal(nf.term, Fuel(0)), nf.term)


@pytest.mark.parametrize("target", STLC_TYPES)
@pytest.mark.parametrize("binders", [(), (BASE,)])
@pytest.mark.parametrize("max_size", (6, 12, 40))
def test_gen_typed_term_matches_reference(target, binders, max_size):
    for i in range(250):  # 24 cases: 6000 samples
        key = f"gen-typed:{i}"
        new, new_state = _run(gen_typed_term, _sample_rng(0, key), target, max_size, binders)
        old, old_state = _run(ref.gen_typed_term, _sample_rng(0, key), target, max_size, binders)
        assert new_state == old_state, key
        assert _same_term(new, old), key


def test_gen_typed_term_draws_its_target_like_the_reference():
    for i in range(500):
        key = f"gen-typed-any:{i}"
        new, new_state = _run(gen_typed_term, _sample_rng(0, key))
        old, old_state = _run(ref.gen_typed_term, _sample_rng(0, key))
        assert new_state == old_state, key
        assert _same_term(new, old), key
