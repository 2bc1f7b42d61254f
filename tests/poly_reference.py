"""Reference formulas for the product and the Poisson bracket.

These are the plain textbook formulas the kernels of gradedlie.poly
replace: a product made one term pair at a time in Fraction arithmetic,
and brackets made through partial-derivative polynomials.  They use
neither Polynomial.__mul__ nor poly.pb_with_var, so the tests can compare
the kernels against code that shares none of their arithmetic.
"""

from fractions import Fraction

from gradedlie import Polynomial, bracket_basis
from gradedlie.poly import mono


def reference_mul(f, g):
    """f * g: each term pair adds one Fraction product to its monomial."""
    t = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = mono(f.alg, m1 + m2)
            t[m] = t.get(m, 0) + Fraction(c1) * Fraction(c2)
    return Polynomial(f.alg, t)


def reference_pb_with_var(f, b):
    """{f, b} as the sum over the variables a of f of df/da * [a, b]."""
    alg = f.alg
    out = Polynomial.zero(alg)
    for a in f.variables():
        br = bracket_basis(alg, a, b)
        if br:
            out = out + reference_mul(f.derivative(a), Polynomial.from_lie(alg, br))
    return out


def reference_poisson_bracket(f, g):
    """{f, g} as the sum over the variables b of g of dg/db * {f, b}."""
    out = Polynomial.zero(f.alg)
    for b in g.variables():
        out = out + reference_mul(g.derivative(b), reference_pb_with_var(f, b))
    return out
