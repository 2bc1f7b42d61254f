"""Sparse polynomials, leaders, ranks, Poisson brackets, D-operators."""

import copy
import math
import operator
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gradedlie.poly
from gradedlie import (
    MINUS,
    PLUS,
    AlgebraMismatch,
    ConstantPolynomial,
    DTuple,
    InvalidElement,
    Polynomial,
    bracket_basis,
    d_leader,
    d_op,
    poisson_bracket,
)
from gradedlie.algebras import Z, algebra_to_str, dh, e, lie_extreme, sa, sb
from gradedlie.poly import _trusted_dtuple, d_bracket, mono, pb_with_var
from gradedlie.textio import print_poly
from helpers import (
    ALL_ALGEBRAS, H2, H4, P, S2, S3, VIR, W2, WITT, WITT_POS, random_poly, window_basis,
)
from poly_reference import (
    reference_add,
    reference_derivative,
    reference_expand_in,
    reference_mul,
    reference_pb_with_var,
    reference_poisson_bracket,
    reference_power,
)


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


@st.composite
def poly_pairs(draw):
    """Two polynomials over one algebra, from a window of its basis."""
    alg = draw(st.sampled_from([WITT, VIR, W2, S3]))
    pool = window_basis(alg)

    def poly():
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)),
                                  max_size=3))
            c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
            terms[mono(pairs)] = c
        return Polynomial(alg, terms)

    return poly(), poly()


class TestMultiplication:
    @pytest.mark.parametrize("alg", [WITT, W2, S3])
    def test_power_is_repeated_product(self, alg):
        rng = random.Random(7)
        f = random_poly(alg, rng, max_support=3, max_exp=2)
        while len(f.terms) < 2:
            f = random_poly(alg, rng, max_support=3, max_exp=2)
        want = Polynomial.const(alg, 1)
        for k in range(7):
            assert f**k == want, k
            want = want * f

    def test_negative_power_raises(self):
        with pytest.raises(ValueError):
            P(WITT, "e[1] + e[2]") ** -1

    def test_negative_exponent_in_a_monomial_raises(self):
        with pytest.raises(ValueError, match="^negative exponent in monomial$"):
            Polynomial.var(WITT, e(1), exp=-1)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(poly_pairs())
    def test_product_matches_reference(self, pair):
        f, g = pair
        assert f * g == reference_mul(f, g)
        assert g * f == reference_mul(f, g)


class TestOperands:
    @pytest.mark.parametrize("bad", [0.5, None])
    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_other_operands_are_type_errors(self, f, op, bad):
        for args in ((f, bad), (bad, f)):
            with pytest.raises(TypeError, match="^unsupported operand type"):
                op(*args)

    def test_scalars_are_operands(self, f):
        assert f * 2 == f + f
        assert f * Fraction(1, 2) + f * Fraction(1, 2) == f
        assert 3 + f - 3 == f
        assert 3 - f == -(f - 3)
        assert Fraction(1, 2) - f + f == Polynomial.const(WITT_POS, Fraction(1, 2))

    @pytest.mark.parametrize("k", [2.0, True, Fraction(2), "2", None])
    def test_power_takes_an_int_exponent(self, f, k):
        with pytest.raises(TypeError, match="^polynomial exponent must be an int, not "):
            f**k


def coefficient_types(f):
    return {type(c) for c in f.terms.values()}


class TestCoefficientTypes:
    def test_integral_values_are_ints(self):
        a = P(WITT, "1/2*e[1] + 3*e[2]")
        b = P(WITT, "1/2*e[1] - e[2]^2")
        assert coefficient_types(P(WITT, "4/2*e[1] + 3*e[2]*e[1] - 5")) == {int}
        assert coefficient_types(a + b) == {int}
        assert coefficient_types(a - b) == {int}
        assert coefficient_types(P(WITT, "1/2*e[1] + 1/2") * P(WITT, "2*e[1] - 2")) == {int}
        assert coefficient_types(a * Fraction(2)) == {int}

    def test_other_values_are_fractions(self):
        a = P(WITT, "1/2*e[1] + 1/3*e[2]")
        assert coefficient_types(a) == {Fraction}
        assert coefficient_types(a + P(WITT, "1/3*e[1]")) == {Fraction}
        assert coefficient_types(a - P(WITT, "e[2]")) == {Fraction}
        assert coefficient_types(a * P(WITT, "e[1] - 1")) == {Fraction}
        assert coefficient_types(P(WITT, "e[1] + 3*e[2]") * Fraction(1, 2)) == {Fraction}

    def test_fraction_and_int_values_agree(self):
        m = mono([(e(1), 2)])
        two = Polynomial(WITT, {m: Fraction(2)})
        assert two == Polynomial(WITT, {m: 2})
        assert coefficient_types(two) == {int}


# The algebras the kernels are checked on: Virasoro's central term has a
# Fraction structure constant, cartan-w:2 has brackets of several terms,
# and hamiltonian:4 has elements with four indices.
KERNEL_ALGEBRAS = [WITT, WITT_POS, VIR, W2, H4]
COEFFICIENTS = ["int", "fraction", "mixed"]


def kernel_operands(alg, rng, kind):
    """Two random polynomials over alg: with int coefficients, Fraction
    coefficients, or one of each, constant terms included."""
    pool = window_basis(alg)

    def poly(integral):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            pairs = [(b, rng.randint(1, 3)) for b in rng.sample(pool, rng.randint(0, 3))]
            if integral:
                c = rng.choice([n for n in range(-9, 10) if n])
            else:
                c = Fraction(rng.randint(-9, 9), rng.randint(2, 12))
            terms[mono(pairs)] = c
        return Polynomial(alg, terms)

    return poly(kind == "int"), poly(kind != "fraction")


def assert_canonical(p):
    """No zero coefficient, and a coefficient is an int when integral, else
    a Fraction."""
    for c in p.terms.values():
        assert type(c) in (int, Fraction), c
        assert c != 0
        assert type(c) is int or c.denominator != 1, c


@pytest.mark.parametrize("kind", COEFFICIENTS)
@pytest.mark.parametrize("alg", KERNEL_ALGEBRAS, ids=algebra_to_str)
class TestKernelsMatchReference:
    def test_product(self, alg, kind):
        rng = random.Random(101)
        for _ in range(30):
            f, g = kernel_operands(alg, rng, kind)
            got = f * g
            assert got == reference_mul(f, g)
            assert_canonical(got)

    def test_pb_with_var(self, alg, kind):
        rng = random.Random(103)
        pool = window_basis(alg)
        for _ in range(15):
            f, _ = kernel_operands(alg, rng, kind)
            for b in rng.sample(pool, 4):
                got = pb_with_var(f, b)
                assert got == reference_pb_with_var(f, b), (f, b)
                assert_canonical(got)

    def test_poisson_bracket(self, alg, kind):
        rng = random.Random(107)
        for _ in range(20):
            f, g = kernel_operands(alg, rng, kind)
            got = poisson_bracket(f, g)
            assert got == reference_poisson_bracket(f, g), (f, g)
            assert_canonical(got)


def assert_stored(p):
    """The stored form: a positive content (an int when integral) and a
    primitive int part, with no zero value and gcd 1; or, for the zero
    polynomial, content 0 and an empty part."""
    if not p.prim:
        assert p.content == 0 and type(p.content) is int
        return
    assert p.content > 0, p.content
    assert type(p.content) is int or p.content.denominator != 1, p.content
    assert all(type(c) is int and c for c in p.prim.values()), p.prim
    assert math.gcd(*p.prim.values()) == 1, p.prim


# Coefficients drawn for the property tests below: nonzero ints, Fractions
# (zero and integral ones included), or one operand of each; every
# coefficient of an operand is then scaled by one common factor, so that
# contents other than 1 and integral sums of Fractions come up.
SCALES = [1, 6, -4, Fraction(1, 3), Fraction(-5, 12)]


@st.composite
def kernel_cases(draw):
    """(f, g, b, c): two polynomials over one algebra of KERNEL_ALGEBRAS,
    with int, Fraction or mixed coefficients; a basis element b of the
    algebra's window, often one of f's variables; and a scalar c."""
    alg = draw(st.sampled_from(KERNEL_ALGEBRAS))
    kind = draw(st.sampled_from(COEFFICIENTS))
    pool = window_basis(alg)

    def poly(integral):
        terms = {}
        scale = draw(st.sampled_from(SCALES))
        for _ in range(draw(st.integers(0, 5))):
            pairs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)),
                                  max_size=3))
            if integral:
                c = draw(st.integers(-9, 9).filter(bool))
            else:
                c = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))
            terms[mono(pairs)] = c * scale
        return Polynomial(alg, terms)

    f, g = poly(kind == "int"), poly(kind != "fraction")
    b = draw(st.sampled_from(sorted(f.variables()) or pool) if draw(st.booleans())
             else st.sampled_from(pool))
    c = draw(st.sampled_from([0, 1, -1, 3, -6, Fraction(2, 3), Fraction(-7, 4)]))
    return f, g, b, c


PROPERTY_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


class TestStoredForm:
    """Every operation agrees with the reference formulas, and leaves its
    result in the stored form."""

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_sums_and_scalar_multiples(self, case):
        f, g, _, c = case
        for got, want in [(f + g, reference_add(f, g)), (f - g, reference_add(f, g, -1)),
                          (g - f, reference_add(g, f, -1)), (f - f, Polynomial.zero(f.alg)),
                          (-f, reference_add(Polynomial.zero(f.alg), f, -1)),
                          (f * c, reference_add(Polynomial.zero(f.alg), f, c)),
                          (c * f, reference_add(Polynomial.zero(f.alg), f, c)),
                          (f + c, reference_add(f, Polynomial.const(f.alg, c))),
                          (c - f, reference_add(Polynomial.const(f.alg, c), f, -1))]:
            assert got == want, (f, g, c)
            assert_stored(got)
            assert_canonical(got)

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_products_and_powers(self, case):
        f, g, _, _ = case
        assert_stored(f)
        for got, want in [(f * g, reference_mul(f, g)), (g * f, reference_mul(f, g))] + [
                (f**k, reference_power(f, k)) for k in range(4)]:
            assert got == want, (f, g)
            assert_stored(got)
            assert_canonical(got)

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_derivatives_and_expansions(self, case):
        f, _, b, _ = case
        got = f.derivative(b)
        assert got == reference_derivative(f, b), (f, b)
        assert_stored(got)
        parts = f.expand_in(b)
        assert parts == reference_expand_in(f, b), (f, b)
        for part in parts.values():
            assert_stored(part)
            assert_canonical(part)

    @PROPERTY_SETTINGS
    @given(kernel_cases())
    def test_brackets(self, case):
        f, g, b, _ = case
        for got, want in [(pb_with_var(f, b), reference_pb_with_var(f, b)),
                          (poisson_bracket(f, g), reference_poisson_bracket(f, g))]:
            assert got == want, (f, g, b)
            assert_stored(got)
            assert_canonical(got)


class TestCanonicalForm:
    """One polynomial has one stored form, whichever way it is made."""

    TEXT = "-3/2*e[2]*e[1] + 1/2*e[2]*e[-1] + 9/4*e[1] - 3/4*e[-1]"
    NEGATED = "3/2*e[2]*e[1] - 1/2*e[2]*e[-1] - 9/4*e[1] + 3/4*e[-1]"

    def test_every_build_is_equal_and_prints_alike(self):
        want = P(WITT, self.TEXT)
        assert want.content == Fraction(1, 4)
        assert want.prim == {mono([(e(2), 1), (e(1), 1)]): -6, mono([(e(2), 1), (e(-1), 1)]): 2,
                             mono([(e(1), 1)]): 9, mono([(e(-1), 1)]): -3}
        built = {
            "packed product": P(WITT, "1/2*e[2] - 3/4") * P(WITT, "-3*e[1] + e[-1]"),
            "one-term product": P(WITT, "-1/4") * P(WITT, "6*e[2]*e[1] - 2*e[2]*e[-1] - 9*e[1]"
                                                          " + 3*e[-1]"),
            "cancelling sum": P(WITT, "-3/2*e[2]*e[1] + 1/2*e[2]*e[-1] + 7*e[3]^2 + 1/5")
            + P(WITT, "9/4*e[1] - 3/4*e[-1] - 7*e[3]^2 - 1/5"),
            "negative multiple": P(WITT, "12*e[2]*e[1] - 4*e[2]*e[-1] - 18*e[1] + 6*e[-1]")
            * Fraction(-1, 8),
        }
        for how, f in built.items():
            assert f == want, how
            assert (f.content, f.prim) == (want.content, want.prim), how
            assert print_poly(f) == self.TEXT, how
            assert_stored(f)

    def test_negation_keeps_the_content_positive(self):
        f = P(WITT, self.TEXT)
        for g in (-f, f * -1, -1 * f, Polynomial.zero(WITT) - f, 0 - f):
            assert g.content == f.content and g == P(WITT, self.NEGATED)
            assert print_poly(g) == self.NEGATED

    def test_zero_has_one_form(self):
        f = P(WITT, self.TEXT)
        for z in (f - f, f * 0, f * Polynomial.zero(WITT), P(WITT, "0"),
                  Polynomial(WITT, {mono([(e(1), 1)]): Fraction(0)})):
            assert (z.content, z.prim) == (0, {})
            assert z == Polynomial.zero(WITT) and print_poly(z) == "0"


def power_sum(alg, elements, exp):
    """The sum of b^exp over the basis elements b, each with coefficient 1."""
    return Polynomial(alg, {mono([(b, exp)]): 1 for b in elements})


# Products at the edges of the packed kernel, each checked against the
# reference.  Each variable's bit field is as wide as the largest exponent
# sum of the operands needs: 3 + 4 = 7 fills three bits, 4 + 4 = 8 needs a
# fourth, and the neighbouring fields must take no carry.
EDGE_PRODUCTS = {
    "field-full": (WITT, "e[1]^3 + 2*e[2]*e[1] - e[3]^3", "e[1]^4 - e[2]^4 + e[3]"),
    "field-one-past": (WITT, "e[1]^4 + 2*e[2]*e[1] - e[3]^4", "e[1]^4 - e[2]^4 + e[3]"),
    "byte-full": (WITT, "e[1]^127 + e[2]^255", "e[1]^128 + e[3]"),
    "byte-one-past": (WITT, "e[1]^128 + e[2]^255", "e[1]^128 + e[2]"),
    "word-one-past": (WITT, "e[1]^%d + e[2]" % 2**63, "e[1]^%d - e[2]^3" % 2**63),
    "zero-left": (WITT, "0", "e[1] + e[2]^2"),
    "zero-right": (WITT, "e[1] + e[2]^2", "0"),
    "constant-left": (WITT, "-3/4", "e[1] + 2/3*e[2]^2"),
    "constant-right": (WITT, "e[1] + 2/3*e[2]^2", "5"),
    "constants": (WITT, "1/2", "4"),
    "one-term-left": (WITT, "3/2*e[2]^2*e[-1]", "e[1] + 2/3*e[2]^2 - 1"),
    "one-term-right": (WITT, "e[1] + 2/3*e[2]^2 - 1", "e[-1]*e[2]"),
    "constant-term-each": (WITT, "e[1] - 1", "e[1] + 1"),
    "int-from-fractions": (WITT, "1/2*e[1] + 1/2", "2*e[1] - 2*e[3]"),
    "fractions-lowest-terms": (WITT, "1/6*e[1] + 1/4*e[2]", "3/5*e[1] - 2/9*e[2]"),
    "cancelling": (WITT, "e[1] + e[2]", "e[1] - e[2]"),
    "virasoro-z": (VIR, "z^2 + 1/2*z*e[1] - e[-1]", "z - e[0]*z^3 + 2*e[1]"),
    "cartan-w-2": (W2, "x[1,0]d[2]^2 + 1/3*x[0,1]d[1] - x[2,0]d[1]*x[0,0]d[1]",
                   "x[0,1]d[1]^3 - x[1,1]d[2] + 2"),
    "hamiltonian-4": (H4, "DH[1,0,0,1]^2 - 1/2*DH[0,1,1,0] + DH[2,0,0,0]*DH[0,0,0,1]",
                      "DH[1,0,0,1] + 3*DH[0,0,2,0]^2*DH[0,1,1,0]"),
}


class TestPackedProduct:
    @pytest.mark.parametrize("case", sorted(EDGE_PRODUCTS))
    def test_edge_products(self, case):
        alg, a, b = EDGE_PRODUCTS[case]
        f, g = P(alg, a), P(alg, b)
        for got in (f * g, g * f):
            assert got == reference_mul(f, g)
            assert_canonical(got)

    @pytest.mark.parametrize("n", [40, 65])
    def test_codes_wider_than_a_machine_word(self, n):
        # The largest exponent sum is 2 + 7 = 9, so each of the n variables
        # has a four-bit field: codes of 160 and 260 bits.
        elements = [e(i) for i in range(-(n // 2), n - n // 2)]
        f = power_sum(WITT, elements, 2) + Polynomial.var(WITT, elements[0])
        g = power_sum(WITT, elements[::3], 3) - Polynomial.var(WITT, elements[-1], exp=7)
        got = f * g
        assert got == reference_mul(f, g)
        assert got.terms[mono([(elements[0], 2), (elements[-1], 7)])] == -1
        assert_canonical(got)

    @pytest.mark.parametrize("alg, text", [
        (VIR, "z + 1/2*e[1]*z - e[-1]"),
        (W2, "x[1,0]d[2] - 1/3*x[0,1]d[1]^2 + 1"),
        (H4, "DH[1,0,0,1] + 2/5*DH[0,1,1,0]*DH[1,0,0,0]"),
    ], ids=["virasoro", "cartan-w:2", "hamiltonian:4"])
    def test_power_matches_reference(self, alg, text):
        f = P(alg, text)
        want = Polynomial.const(alg, 1)
        for k in range(6):
            assert f**k == want, k
            assert_canonical(f**k)
            want = reference_mul(want, f)

    def test_multi_term_product_merges_no_monomial(self, monkeypatch):
        calls = []
        merge = gradedlie.poly._merge
        monkeypatch.setattr(gradedlie.poly, "_merge",
                            lambda *args: calls.append(args) or merge(*args))
        f, g = P(VIR, "z^2 + 1/2*e[1] - 3"), P(VIR, "e[1]^2 - z*e[-1]")
        assert f * g == reference_mul(f, g)
        assert calls == []
        assert f * P(VIR, "2*z") == reference_mul(f, P(VIR, "2*z"))
        assert calls


class TestKernels:
    def test_fraction_structure_constant(self):
        # [e_2, e_-2] has the central term (2^3 - 2)/12 * z = 1/2 * z.
        f = P(VIR, "3*e[2]^2 + e[1]")
        got = pb_with_var(f, e(-2))
        assert got == reference_pb_with_var(f, e(-2))
        assert got.terms[mono([(e(2), 1), (Z, 1)])] == 3
        assert poisson_bracket(P(VIR, "e[2]"), P(VIR, "e[-2]")).terms[mono([(Z, 1)])] == (
            Fraction(1, 2)
        )

    def test_integral_results_are_ints(self):
        got = poisson_bracket(P(VIR, "2*e[2]"), P(VIR, "e[-2]"))
        assert_canonical(got)
        assert got.terms[mono([(Z, 1)])] == 1

    def test_brackets_make_no_derivative_and_no_product(self, monkeypatch):
        f = P(VIR, "1/2*e[2]*e[1]^2 + 3*z*e[-2] - 7")
        g = P(VIR, "2/3*e[-2]*e[3] - e[1]")
        calls = []
        for name in ("derivative", "__mul__"):
            orig = getattr(Polynomial, name)
            monkeypatch.setattr(Polynomial, name,
                                lambda self, x, _orig=orig, _name=name:
                                calls.append(_name) or _orig(self, x))
        assert not poisson_bracket(f, g).is_zero()
        assert not pb_with_var(f, e(-2)).is_zero()
        assert not d_op(f, DTuple(VIR, (e(-1), e(-2)))).is_zero()
        assert calls == []


def spy_on_order_key(monkeypatch):
    """The calls of algebras.order_key, through it or through any module
    name bound to it."""
    calls = []
    original = gradedlie.algebras.order_key

    def spy(alg, b):
        calls.append(b)
        return original(alg, b)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gradedlie" and getattr(module, "order_key", None) is original:
            monkeypatch.setattr(module, "order_key", spy)
    return calls


ORDERLESS_OPERATIONS = {
    "multi-term product": lambda f, g, t, text: f * g,
    "one-term product": lambda f, g, t, text: f * Polynomial.var(f.alg, t.entries[0], 3, 2),
    "poisson_bracket": lambda f, g, t, text: poisson_bracket(f, g),
    "pb_with_var": lambda f, g, t, text: pb_with_var(f, t.entries[0]),
    "d_op": lambda f, g, t, text: d_op(f, t),
    "parse_poly": lambda f, g, t, text: P(f.alg, text),
}


@pytest.mark.parametrize("operation", ORDERLESS_OPERATIONS)
@pytest.mark.parametrize("alg, text, g, t", [
    (VIR, "1/2*e[2]*e[1]^2 + 3*z*e[-2] - 7", "2/3*e[-2]*z + z^2 - e[1]", (e(-1), e(-2))),
    (S2, "SA[0,2]*SB[1,1;2] + SB[2,0;2]^2*SA[0,1] - 3", "SB[1,0;2]*SA[0,1] - SA[0,0]",
     (sa((0, 2)), sb((2, 1), 2))),
], ids=["virasoro", "special-s:2"])
def test_no_kernel_reads_the_basis_order(monkeypatch, operation, alg, text, g, t):
    # A monomial sorts its factors by the elements' own tuple order, so
    # multiplying, bracketing and parsing never ask for the basis order.
    f, g, t = P(alg, text), P(alg, g), DTuple(alg, t)
    run = ORDERLESS_OPERATIONS[operation]
    want = run(f, g, t, text)
    calls = spy_on_order_key(monkeypatch)
    assert run(f, g, t, text) == want and not want.is_zero()
    assert calls == []


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
        assert P(WITT_POS, "e[1]^2").rank(PLUS) < P(WITT_POS, "e[1]^3").rank(PLUS)

    def test_leader_dominates_degree(self):
        assert P(WITT_POS, "e[1]^9").rank(PLUS) < P(WITT_POS, "e[2]").rank(PLUS)

    def test_equal(self):
        assert P(WITT_POS, "e[1]^2").rank(PLUS) == P(WITT_POS, "e[1]^2").rank(PLUS)


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
        assert DTuple(WITT, (e(1), e(2))).sign == PLUS
        assert DTuple(WITT, (e(-2), e(-1))).sign == MINUS
        assert DTuple(H2, (dh((0, 1)),)).sign == MINUS
        with pytest.raises(ValueError, match="^'\\+' tuple entry of degree -1$"):
            DTuple(WITT, (e(1), e(-1)))
        with pytest.raises(ValueError, match="^'-' tuple entry of degree 2$"):
            DTuple(WITT, (e(-1), e(2)))

    def test_nonempty(self):
        with pytest.raises(ValueError, match="^empty tuple$"):
            DTuple(WITT, ())

    def test_bad_sign(self):
        with pytest.raises(ValueError, match="^'-' tuple entry of degree 0$"):
            DTuple(WITT, (e(0),))
        with pytest.raises(ValueError, match="^'\\+' tuple entry of degree 0$"):
            DTuple(WITT, (e(1), e(0)))
        with pytest.raises(InvalidElement):
            DTuple(WITT_POS, (e(-1),))
        with pytest.raises(InvalidElement):
            DTuple(WITT, (e(1), ("z",)))

    def test_each_entry_checked_once(self, monkeypatch):
        seen = []
        check = gradedlie.poly.validate_element
        monkeypatch.setattr(gradedlie.poly, "validate_element",
                            lambda alg, b: seen.append(b) or check(alg, b))
        DTuple(WITT, (e(1), e(2), e(1)))
        assert seen == [e(1), e(2), e(1)]

    def test_trusted_tuple_equals_the_checked_one(self):
        for alg, entries in [(WITT, (e(1), e(2), e(1))), (WITT, (e(-3),)),
                             (H2, (dh((0, 1)), dh((1, 0))))]:
            t = DTuple(alg, entries)
            trusted = _trusted_dtuple(alg, t.entries, t.sign)
            assert type(trusted) is DTuple
            assert trusted == t and hash(trusted) == hash(t) and repr(trusted) == repr(t)

    def test_copies_are_made_through_the_check(self, monkeypatch):
        t = DTuple(WITT, (e(1), e(2)))
        assert repr(t) == ("DTuple(alg=AlgebraSpec(family='Witt', n=None), "
                           "entries=(('e', 1), ('e', 2)), sign='+')")
        assert copy.copy(t) == t and pickle.loads(pickle.dumps(t)) == t
        seen = []
        check = gradedlie.poly.validate_element
        monkeypatch.setattr(gradedlie.poly, "validate_element",
                            lambda alg, b: seen.append(b) or check(alg, b))
        assert copy.deepcopy(t) == t
        assert seen == [e(1), e(2)]

    def test_other_algebra_refused(self):
        t = DTuple(WITT_POS, (e(2),))
        with pytest.raises(AlgebraMismatch):
            d_op(P(WITT, "e[1]"), t)
        with pytest.raises(AlgebraMismatch):
            d_leader(WITT, e(1), t)
        assert d_leader(WITT_POS, e(1), t) == e(3)

    def test_d_leader_refuses_an_invalid_element(self):
        t = DTuple(WITT_POS, (e(2),))
        with pytest.raises(InvalidElement):
            d_leader(WITT_POS, e(0), t)
        with pytest.raises(InvalidElement):
            d_leader(WITT_POS, ("z",), t)


class TestDOperator:
    def test_single_step(self):
        got = d_op(P(WITT_POS, "e[1]^2"), DTuple(WITT_POS, (e(3),)))
        assert got == P(WITT_POS, "4*e[1]*e[4]")

    def test_kills_constants(self):
        five = Polynomial.const(WITT, Fraction(5))
        assert d_op(five, DTuple(WITT, (e(2), e(1)))).is_zero()

    def test_two_steps(self):
        got = d_op(P(WITT, "e[1]"), DTuple(WITT, (e(2), e(2))))
        assert got == P(WITT, "-e[5]")

    def test_folds_brackets(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_poly(WITT, rng, max_support=3)
            t = DTuple(WITT, (e(1), e(2)))
            step = poisson_bracket(poisson_bracket(g, P(WITT, "e[1]")), P(WITT, "e[2]"))
            assert d_op(g, t) == step


class TestDLeader:
    def test_nonzero(self):
        assert d_leader(WITT, e(1), DTuple(WITT, (e(2),))) == e(3)

    def test_zero_bracket(self):
        assert d_leader(WITT, e(1), DTuple(WITT, (e(1),))) is None

    def test_hamiltonian_constant_kernel(self):
        t = DTuple(H2, (dh((0, 1)),))
        assert d_leader(H2, dh((1, 0)), t) is None

    def test_a_one_term_leader_needs_no_order_key(self, monkeypatch):
        calls = spy_on_order_key(monkeypatch)
        assert d_leader(WITT, e(1), DTuple(WITT, (e(2),))) == e(3)
        for sign in (PLUS, MINUS):
            assert lie_extreme(S2, {sa((0, 2)): Fraction(-1, 2)}, sign) == sa((0, 2))
            assert lie_extreme(S2, {sa((0, 2))}, sign) == sa((0, 2))
        assert calls == []
        assert lie_extreme(WITT, {e(1): 1, e(2): 1}, PLUS) == e(2)
        assert sorted(calls) == [e(1), e(2)]

    def test_a_zero_first_bracket_ends_the_walk(self, monkeypatch):
        # [e_1, e_1] = 0: d_bracket returns {} at once, with no bracket_lie
        # call and without slicing the entries.
        class Unsliceable(tuple):
            def __getitem__(self, k):
                assert not isinstance(k, slice), "entries sliced"
                return tuple.__getitem__(self, k)

        calls = []
        monkeypatch.setattr(gradedlie.poly, "bracket_lie", lambda *args: calls.append(args))
        entries = (e(1), e(2), e(3))
        t = DTuple(WITT, entries)._replace(entries=Unsliceable(entries))
        assert d_bracket(WITT, e(1), t) == {}
        assert calls == []
