"""Sparse polynomials, leaders, ranks, Poisson brackets, D-operators."""

import random
from fractions import Fraction

import pytest

from gradedlie import (
    MINUS,
    PLUS,
    AlgebraMismatch,
    ConstantPolynomial,
    DTuple,
    Polynomial,
    bracket_basis,
    compare_rank,
    d_leader,
    d_op,
    poisson_bracket,
)
from gradedlie.algebras import dh, e
from helpers import ALL_ALGEBRAS, H2, P, WITT, WITT_POS, random_poly


@pytest.fixture
def f():
    return P(WITT_POS, "e[1]^2*e[3] + e[2]")


class TestArithmetic:
    def test_construction_and_equality(self, f):
        built = (
            Polynomial.var(WITT_POS, e(1), exp=2) * Polynomial.var(WITT_POS, e(3))
            + Polynomial.var(WITT_POS, e(2))
        )
        assert built == f

    def test_ring_identities(self):
        rng = random.Random(5)
        for _ in range(40):
            a = random_poly(WITT_POS, rng)
            b = random_poly(WITT_POS, rng)
            c = random_poly(WITT_POS, rng)
            assert a * (b + c) == a * b + a * c
            assert a - a == Polynomial.zero(WITT_POS)
            assert a * Polynomial.const(WITT_POS, Fraction(0)) == Polynomial.zero(WITT_POS)

    def test_algebra_mismatch(self):
        with pytest.raises(AlgebraMismatch):
            P(WITT_POS, "e[1]") + P(WITT, "e[1]")

    def test_constants(self):
        five = Polynomial.const(WITT_POS, Fraction(5))
        assert five.is_constant() and not five.is_zero()
        assert five.constant_value() == 5
        assert Polynomial.zero(WITT_POS).is_zero()


class TestLeaders:
    def test_upper_leader(self, f):
        assert f.leader(PLUS) == e(3)

    def test_lower_leader(self, f):
        assert f.leader(MINUS) == e(1)

    def test_constant_has_no_leader(self):
        with pytest.raises(ConstantPolynomial):
            Polynomial.const(WITT_POS, Fraction(5)).leader(PLUS)

    def test_leader_degrees(self, f):
        assert f.leader_degree(PLUS) == 1
        assert f.leader_degree(MINUS) == 2
        assert P(WITT_POS, "e[7]^3").leader_degree(PLUS) == 3

    def test_initials(self, f):
        assert f.initial(PLUS) == P(WITT_POS, "e[1]^2")
        assert f.initial(MINUS) == P(WITT_POS, "e[3]")
        assert P(WITT_POS, "e[4]").initial(PLUS) == Polynomial.const(WITT_POS, Fraction(1))

    def test_separants(self, f):
        assert f.separant(PLUS) == P(WITT_POS, "e[1]^2")
        assert f.separant(MINUS) == P(WITT_POS, "2*e[1]*e[3]")
        assert P(WITT_POS, "e[4]").separant(PLUS) == Polynomial.const(WITT_POS, Fraction(1))

    def test_expand_in_reconstructs(self, f):
        parts = f.expand_in(e(1))
        total = Polynomial.zero(WITT_POS)
        for j, cj in parts.items():
            assert cj.degree_in(e(1)) == 0
            total = total + cj * Polynomial.var(WITT_POS, e(1), exp=j) if j else total + cj
        assert total == f

    def test_derivative(self, f):
        assert f.derivative(e(1)) == P(WITT_POS, "2*e[1]*e[3]")
        assert f.derivative(e(2)) == Polynomial.const(WITT_POS, Fraction(1))
        assert f.derivative(e(5)).is_zero()


class TestCompareRank:
    def test_same_leader_lower_degree(self):
        assert compare_rank(P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[1]^3"), PLUS) == -1

    def test_leader_dominates_degree(self):
        assert compare_rank(P(WITT_POS, "e[1]^9"), P(WITT_POS, "e[2]"), PLUS) == -1

    def test_equal(self):
        assert compare_rank(P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[1]^2"), PLUS) == 0


class TestPoissonBracket:
    def test_basis_bracket(self):
        assert poisson_bracket(P(WITT, "e[1]"), P(WITT, "e[2]")) == P(WITT, "e[3]")

    def test_alternating(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_poly(WITT, rng)
            assert poisson_bracket(g, g).is_zero()

    def test_leibniz_example(self):
        assert poisson_bracket(P(WITT, "e[1]*e[2]"), P(WITT, "e[3]")) == P(
            WITT, "2*e[2]*e[4] + e[1]*e[5]"
        )

    def test_leibniz_random(self):
        rng = random.Random(17)
        for _ in range(25):
            a = random_poly(WITT, rng, max_support=3)
            b = random_poly(WITT, rng, max_support=3)
            c = random_poly(WITT, rng, max_support=3)
            assert poisson_bracket(a * b, c) == a * poisson_bracket(b, c) + poisson_bracket(
                a, c
            ) * b

    def test_jacobi_random(self):
        rng = random.Random(19)
        for _ in range(15):
            a = random_poly(WITT, rng, max_support=2, max_exp=2)
            b = random_poly(WITT, rng, max_support=2, max_exp=2)
            c = random_poly(WITT, rng, max_support=2, max_exp=2)
            total = (
                poisson_bracket(poisson_bracket(a, b), c)
                + poisson_bracket(poisson_bracket(b, c), a)
                + poisson_bracket(poisson_bracket(c, a), b)
            )
            assert total.is_zero()

    def test_kills_constants(self):
        five = Polynomial.const(WITT, Fraction(5))
        assert poisson_bracket(five, P(WITT, "e[2]")).is_zero()

    def test_double_sum_definition(self):
        # {f, g} = sum over variables a of f and b of g of df/da * dg/db * [a, b]
        rng = random.Random(29)
        for alg in ALL_ALGEBRAS:
            for _ in range(5):
                f = random_poly(alg, rng, max_support=3)
                g = random_poly(alg, rng, max_support=3)
                want = Polynomial.zero(alg)
                for a in f.variables():
                    for b in g.variables():
                        br = Polynomial.from_lie(alg, bracket_basis(alg, a, b))
                        want = want + f.derivative(a) * g.derivative(b) * br
                assert poisson_bracket(f, g) == want


class TestDTuple:
    def test_sign_validation(self):
        DTuple((e(1), e(2)), PLUS).validate(WITT)
        with pytest.raises(ValueError):
            DTuple((e(-1),), PLUS).validate(WITT)
        with pytest.raises(ValueError):
            DTuple((e(1),), MINUS).validate(WITT)

    def test_nonempty(self):
        with pytest.raises(ValueError):
            DTuple((), PLUS)

    def test_bad_sign(self):
        with pytest.raises(ValueError):
            DTuple((e(1),), "*")


class TestDOperator:
    def test_single_step(self):
        got = d_op(P(WITT_POS, "e[1]^2"), DTuple((e(3),), PLUS))
        assert got == P(WITT_POS, "4*e[1]*e[4]")

    def test_kills_constants(self):
        five = Polynomial.const(WITT, Fraction(5))
        assert d_op(five, DTuple((e(2), e(1)), PLUS)).is_zero()

    def test_two_steps(self):
        got = d_op(P(WITT, "e[1]"), DTuple((e(2), e(2)), PLUS))
        assert got == P(WITT, "-e[5]")

    def test_folds_brackets(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_poly(WITT, rng, max_support=3)
            t = DTuple((e(1), e(2)), PLUS)
            step = poisson_bracket(poisson_bracket(g, P(WITT, "e[1]")), P(WITT, "e[2]"))
            assert d_op(g, t) == step


class TestDLeader:
    def test_nonzero(self):
        assert d_leader(WITT, e(1), DTuple((e(2),), PLUS)) == e(3)

    def test_zero_bracket(self):
        assert d_leader(WITT, e(1), DTuple((e(1),), PLUS)) is None

    def test_hamiltonian_constant_kernel(self):
        t = DTuple((dh((0, 1)),), MINUS)
        assert d_leader(H2, dh((1, 0)), t) is None
