from hypothesis import given, strategies as st

from modlam.combinators import product
from modlam.harness import (
    algebra_check,
    check_linearity,
    check_monad_laws,
    compose_subst,
    tautological_module,
)
from modlam.lists import (
    LIST,
    concat,
    int_add_algebra,
    join,
    list_monad,
    unit,
)

from faulty_instances import broken_list_monad, int_sub_algebra

values = st.lists(st.integers(0, 7), max_size=5).map(tuple)
substs = st.dictionaries(st.integers(0, 7), values, max_size=4)


class TestOperations:
    def test_unit(self):
        assert unit(3) == (3,)

    def test_join(self):
        assert join([(1, 2), (), (3,)]) == (1, 2, 3)

    def test_bind_subst(self):
        assert LIST.bind({1: (9, 9)}, (1, 2, 1)) == (9, 9, 2, 9, 9)

    @given(substs, substs, values)
    def test_associativity(self, f, g, xs):
        lhs = LIST.bind(g, LIST.bind(f, xs))
        rhs = LIST.bind(compose_subst(LIST, f, g), xs)
        assert lhs == rhs

    @given(values)
    def test_identity(self, xs):
        assert LIST.bind({}, xs) == xs


class TestLawReports:
    def test_monad_laws_pass(self):
        report = check_monad_laws(list_monad(), samples=300, seed=0)
        assert report.passed

    def test_broken_bind_is_caught(self):
        # The mutated instance drops the last element of every bind; the
        # harness must find this within the standard sample budget.
        report = check_monad_laws(broken_list_monad(), samples=1000, seed=0)
        assert not report.passed
        ce = report.check("unit-bind").counterexample
        assert ce is not None
        assert ce.where.startswith("sample ")
        assert int(ce.where.split()[1]) < 1000

    def test_concat_is_linear(self):
        taut = tautological_module(LIST)
        report = check_linearity(
            product(taut, taut), taut, concat, samples=300, seed=0, name="concat"
        )
        assert report.passed


class TestAlgebras:
    def test_addition_is_an_algebra(self):
        report = algebra_check(int_add_algebra(), samples=300, seed=0)
        assert report.passed

    def test_subtraction_square_oracle(self):
        # Flattening [[1, 2], [3]] then folding gives ((0-1)-2)-3 = -6;
        # folding inner lists first gives (0-(-3))-(-3) = 6.
        alg = int_sub_algebra()
        assert alg.action([1, 2, 3]) == -6
        assert alg.action([alg.action([1, 2]), alg.action([3])]) == 6

    def test_subtraction_is_caught(self):
        report = algebra_check(int_sub_algebra(), samples=300, seed=0)
        assert not report.passed
        assert report.check("algebra-square").counterexample is not None
