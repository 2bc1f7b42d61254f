"""Reference formulas for the product, the Poisson bracket and the
separant substitution.

These are the plain textbook formulas the kernels of gradedlie.poly and
the elimination step of gradedlie.elim replace: a product made one term
pair at a time in Fraction arithmetic, brackets made through
partial-derivative polynomials, and the substitution as its two sums of
powers.  They use neither Polynomial.__mul__ nor poly.pb_with_var, so the
tests can compare the kernels against code that shares none of their
arithmetic.
"""

from fractions import Fraction

from gradedlie import Polynomial, bracket_basis
from gradedlie.poly import mono


def reference_mul(f, g):
    """f * g: each term pair adds one Fraction product to its monomial."""
    t = {}
    for m1, c1 in f.terms.items():
        for m2, c2 in g.terms.items():
            m = mono(m1 + m2)
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


def reference_power(f, k):
    """f^k as k products by f, from the constant 1."""
    out = Polynomial.const(f.alg, 1)
    for _ in range(k):
        out = reference_mul(out, f)
    return out


def reference_substitution(parts, s, b):
    """sum_j h_j s^(r-j) b^j for parts {j: h_j} of top degree r: the
    polynomial s^r * sum_j h_j v^j with each s*v replaced by b."""
    r = max(parts)
    out = Polynomial.zero(s.alg)
    for j, hj in parts.items():
        out = out + reference_mul(reference_mul(hj, reference_power(s, r - j)),
                                  reference_power(b, j))
    return out


def reference_quotient(parts, s, sv, b):
    """sum_(j>=1) h_j s^(r-j) sum_(u<j) sv^u b^(j-1-u): the quotient of
    s^r * sum_j h_j v^j minus reference_substitution by sv - b."""
    r = max(parts)
    out = Polynomial.zero(s.alg)
    for j, hj in parts.items():
        inner = Polynomial.zero(s.alg)
        for u in range(j):
            inner = inner + reference_mul(reference_power(sv, u), reference_power(b, j - 1 - u))
        out = out + reference_mul(reference_mul(hj, reference_power(s, r - j)), inner)
    return out
