"""Sparse polynomials over Q in the basis elements of a graded Lie algebra.

A monomial is a tuple of (basis element, positive exponent) pairs sorted
ascending by the algebra's basis order; the empty tuple is the constant
monomial.  A polynomial stores {monomial: Fraction} with no zero values
plus the algebra it lives over.  The Poisson bracket extends the Lie
bracket to this symmetric algebra as a biderivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebras import (
    bracket_basis,
    bracket_lie,
    degree,
    lie_extreme,
    order_key,
    validate_element,
)

PLUS = "+"
MINUS = "-"


class AlgebraMismatch(ValueError):
    """Operands live over different algebras."""


class ConstantPolynomial(ValueError):
    """Leader data requested from a polynomial with no variables."""


def _check_same(f, g):
    if f.alg != g.alg:
        raise AlgebraMismatch("mixed algebras: %r vs %r" % (f.alg, g.alg))


def mono(alg, pairs):
    """Canonical monomial from (element, exponent) pairs."""
    merged = {}
    for b, x in pairs:
        if x:
            merged[b] = merged.get(b, 0) + x
    if any(x < 0 for x in merged.values()):
        raise ValueError("negative exponent in monomial")
    return tuple(sorted(merged.items(), key=lambda p: order_key(alg, p[0])))


def mono_mul(alg, m1, m2):
    return mono(alg, list(m1) + list(m2))


def mono_sort_key(alg, m):
    """Key for the leader-major canonical order on monomials."""
    return tuple((order_key(alg, b), x) for b, x in reversed(m))


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=()):
        t = {}
        for m, c in dict(terms).items():
            c = Fraction(c)
            if c:
                t[m] = c
        self.alg = alg
        self.terms = t

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def const(cls, alg, c):
        return cls(alg, {(): Fraction(c)})

    @classmethod
    def var(cls, alg, b, c=1, exp=1):
        validate_element(alg, b)
        return cls(alg, {mono(alg, [(b, exp)]): Fraction(c)})

    @classmethod
    def from_lie(cls, alg, v):
        """Degree-one polynomial from a Lie element."""
        return cls(alg, {mono(alg, [(b, 1)]): c for b, c in v.items()})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not m for m in self.terms)

    def constant_value(self):
        return self.terms.get((), Fraction(0))

    def variables(self):
        """Set of basis elements occurring in some monomial."""
        out = set()
        for m in self.terms:
            for b, _ in m:
                out.add(b)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.alg == other.alg
            and self.terms == other.terms
        )

    __hash__ = None

    def __neg__(self):
        return Polynomial(self.alg, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.alg, other)
        _check_same(self, other)
        t = dict(self.terms)
        for m, c in other.terms.items():
            nc = t.get(m, Fraction(0)) + c
            if nc:
                t[m] = nc
            else:
                t.pop(m, None)
        out = Polynomial(self.alg)
        out.terms = t
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.alg, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return Polynomial(self.alg, {m: c * v for m, v in self.terms.items()})
        _check_same(self, other)
        t = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(self.alg, m1, m2)
                nc = t.get(m, Fraction(0)) + c1 * c2
                if nc:
                    t[m] = nc
                else:
                    t.pop(m, None)
        out = Polynomial(self.alg)
        out.terms = t
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.const(self.alg, 1)
        for _ in range(k):
            out = out * self
        return out

    def __repr__(self):
        return "Polynomial(%r, %r)" % (self.alg, self.terms)

    # -- leaders ----------------------------------------------------------

    def leader(self, sign):
        """Largest ("+") or smallest ("-") variable of the polynomial."""
        vs = self.variables()
        if not vs:
            raise ConstantPolynomial("constant polynomial has no leader")
        pick = max if sign == PLUS else min
        return pick(vs, key=lambda b: order_key(self.alg, b))

    def degree_in(self, b):
        """Largest exponent of basis element b in any monomial."""
        out = 0
        for m in self.terms:
            for bb, x in m:
                if bb == b:
                    out = max(out, x)
        return out

    def leader_degree(self, sign):
        return self.degree_in(self.leader(sign))

    def expand_in(self, b):
        """L-adic expansion {j: coefficient polynomial} in the variable b."""
        out = {}
        for m, c in self.terms.items():
            j = 0
            rest = []
            for bb, xx in m:
                if bb == b:
                    j = xx
                else:
                    rest.append((bb, xx))
            out.setdefault(j, {})[tuple(rest)] = c
        return {j: Polynomial(self.alg, t) for j, t in out.items()}

    def coefficient_of(self, b, j):
        """Coefficient polynomial of b**j (monomials free of b)."""
        return self.expand_in(b).get(j, Polynomial.zero(self.alg))

    def derivative(self, b):
        """Formal partial derivative with respect to basis element b."""
        t = {}
        for m, c in self.terms.items():
            for pos, (bb, xx) in enumerate(m):
                if bb == b:
                    rest = m[:pos] + ((bb, xx - 1),) + m[pos + 1 :]
                    rest = tuple(p for p in rest if p[1])
                    t[rest] = t.get(rest, Fraction(0)) + c * xx
        return Polynomial(self.alg, t)

    def initial(self, sign):
        """Coefficient of the highest power of the leader."""
        l = self.leader(sign)
        return self.coefficient_of(l, self.degree_in(l))

    def separant(self, sign):
        """Partial derivative with respect to the leader."""
        return self.derivative(self.leader(sign))

    def rank(self, sign):
        """(leader key, leader degree); compared lexicographically."""
        l = self.leader(sign)
        return (order_key(self.alg, l), self.degree_in(l))


def compare_rank(f, g, sign):
    """-1, 0 or 1 comparing ranks of two nonconstant polynomials."""
    rf, rg = f.rank(sign), g.rank(sign)
    return (rf > rg) - (rf < rg)


def poisson_bracket(f, g):
    """{f, g}: the biderivation extending the Lie bracket, as the sum over
    the variables b of g of dg/db * {f, b}."""
    _check_same(f, g)
    out = Polynomial.zero(f.alg)
    for b in g.variables():
        out = out + g.derivative(b) * pb_with_var(f, b)
    return out


@dataclass(frozen=True)
class DTuple:
    """Finite tuple of basis elements with uniform degree sign.

    Entries of a "+" tuple have positive degree, entries of a "-" tuple
    negative degree; the tuple is nonempty.
    """

    entries: tuple
    sign: str

    def __post_init__(self):
        if self.sign not in (PLUS, MINUS):
            raise ValueError("sign must be '+' or '-'")
        if not self.entries:
            raise ValueError("empty tuple")

    def validate(self, alg):
        for b in self.entries:
            validate_element(alg, b)
            d = degree(alg, b)
            if self.sign == PLUS and d <= 0:
                raise ValueError("'+' tuple entry of degree %d" % d)
            if self.sign == MINUS and d >= 0:
                raise ValueError("'-' tuple entry of degree %d" % d)
        return self


def pb_with_var(f, b):
    """{f, b} for a single basis element b."""
    alg = f.alg
    out = Polynomial.zero(alg)
    for a in f.variables():
        br = bracket_basis(alg, a, b)
        if br:
            out = out + f.derivative(a) * Polynomial.from_lie(alg, br)
    return out


def d_op(f, t):
    """Iterated Poisson bracket of f with the entries of t, left to right."""
    t.validate(f.alg)
    out = f
    for b in t.entries:
        out = pb_with_var(out, b)
    return out


def d_bracket(alg, b, t):
    """Iterated Lie bracket [[b, t1], t2, ...] as a Lie element."""
    v = {b: Fraction(1)}
    for m in t.entries:
        v = bracket_lie(alg, v, {m: Fraction(1)})
        if not v:
            return {}
    return v


def d_leader(alg, b, t):
    """Extreme element of the iterated bracket of b along t, None if zero."""
    validate_element(alg, b)
    t.validate(alg)
    v = d_bracket(alg, b, t)
    return lie_extreme(alg, v, t.sign) if v else None
