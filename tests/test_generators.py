"""The generators against their reference forms in reference_terms.

lam.gen_normal builds its normal form directly, eta-contracting each
abstraction as it builds it, where the reference builds a beta-normal
term and runs reduce_to_normal on it; typed.gen_typed_term reads its
leaf candidates from a table, where the reference builds a list at every
leaf.  On each keyed sample both must return the same term and leave the
generator in the same state, so every law sample draws what it drew.

gen_typed_term writes the target of a closed term into its type slot, and
gen_tlist a nonnegative sort into its sort slot; stlc_subst and
tlist_subst trust those slots, so they must hold what type_of and
tlist_sort compute.
"""

import pytest

from modlam.errors import TypeCheckError
from modlam.fuel import Fuel, FuelExhausted
from modlam.harness import _sample_rng
from modlam.lam import MAX_DEPTH, _beta_normal, _same_term, gen_normal
from modlam.typed import (
    _POOL_VARS,
    _TLIST_VARS,
    BASE,
    STLC_TYPES,
    gen_tlist,
    gen_typed_term,
    tlist_sort,
    type_of,
)

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


def _clear_slots(pools, slot):
    # Pool variables are shared leaves, so an earlier closed term may have
    # left its slot on one; clear them to see what the next calls write.
    for v in (v for vs in pools.values() for v in vs):
        vars(v).pop(slot, None)


@pytest.mark.parametrize("target", (*STLC_TYPES, None), ids=str)
def test_closed_typed_term_keeps_its_type(target):
    for max_size in (6, 12, 40):
        for i in range(400):  # 5 cases: 6000 samples
            t = gen_typed_term(_sample_rng(0, f"typed-slot:{max_size}:{i}"), target, max_size)
            assert vars(t)["_type"] is type_of(t)
            assert target is None or type_of(t) is target


def test_open_typed_term_gets_no_type():
    _clear_slots(_POOL_VARS, "_type")
    for slot in STLC_TYPES:
        for i in range(500):
            t = gen_typed_term(_sample_rng(0, f"typed-open:{i}"), None, 12, (slot,))
            assert "_type" not in vars(t)


@pytest.mark.parametrize("sort", (0, 1, 2, 3, None))
def test_tlist_keeps_its_sort(sort):
    for i in range(1000):
        t = gen_tlist(_sample_rng(0, f"tlist-slot:{i}"), sort)
        assert vars(t)["_sort"] == tlist_sort(t)
        assert sort is None or tlist_sort(t) == sort


def test_ill_sorted_tlist_gets_no_sort():
    _clear_slots(_TLIST_VARS, "_sort")
    for i in range(1000):
        t = gen_tlist(_sample_rng(0, f"tlist-negative:{i}"), -1)
        assert "_sort" not in vars(t)
        with pytest.raises(TypeCheckError, match="negative sort"):
            tlist_sort(t)
