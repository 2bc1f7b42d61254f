"""Sparse polynomials over Q in the basis elements of a graded Lie algebra.

A monomial is a tuple of (basis element, positive exponent) pairs sorted
ascending by the elements' own tuple order, which is total on each family
(the kind tag comes first, and the fields of one kind have one type); the
empty tuple is the constant monomial.  No product or bracket reads the
algebra's basis order: only leaders read it (Polynomial.leader and rank
here, the decisions in leaders.py and the reducer in elim.py), and
textio.print_poly, which prints each monomial's factors in basis order.

A polynomial stores {monomial: coefficient} with no zero values plus the
algebra it lives over; a coefficient is an int while it is integral, else
a Fraction in lowest terms.  Sums and scalar multiples
accumulate through algebras.lie_add.  Products and Poisson brackets are
accumulated in plain ints: each operand's coefficients (and each
structure constant used) are first cleared to integer numerators over one
common denominator, every term pair then adds an int product into one
int-valued accumulator, and each output term is divided by the common
denominator once, at the end.  A product of two operands of several
terms each packs every monomial into one int, one bit field per
variable (Monagan & Pearce's packed exponent vectors), so a product of
monomials is one int sum; each output code is decoded back to its
monomial as it is divided.  The stored form stays the monomial tuple.
A product with a one-term operand merges the sorted tuples instead,
since its pairs never meet on a monomial.  The Poisson bracket extends
the Lie bracket to this symmetric algebra as a biderivation, and one loop
makes it: _bracket_into adds cofactor * {f, b} into the accumulator, for a
basis element b and a monomial cofactor.  pb_with_var calls it once, with
the empty cofactor.  poisson_bracket calls it once for each term d*n of g
and each factor b^y of n, with cofactor n/b and f's terms scaled by d*y.
Neither builds a partial-derivative polynomial.  The operator D_t
iterates the bracket along a DTuple t: d_op on polynomials, d_bracket and
d_leader on basis elements.  A DTuple made by its constructor checks its
entries; leaders.iter_tuples makes its tuples through _trusted_dtuple,
without checking them again: each entry comes from an enumerated
component, whole or grouped by multidegree.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .algebras import (
    MINUS,
    PLUS,
    bracket_basis,
    bracket_lie,
    degree,
    lie_add,
    lie_extreme,
    order_key,
    validate_element,
)


class AlgebraMismatch(ValueError):
    """Operands live over different algebras."""


class ConstantPolynomial(ValueError):
    """Leader data requested from a polynomial with no variables."""


def _check_same(alg, x):
    """Raise AlgebraMismatch unless x (a polynomial or DTuple) is over alg."""
    if x.alg is not alg and x.alg != alg:
        raise AlgebraMismatch("mixed algebras: %r vs %r" % (alg, x.alg))


def mono(pairs):
    """Canonical monomial from (element, exponent) pairs."""
    merged = {}
    for b, x in pairs:
        if x:
            merged[b] = merged.get(b, 0) + x
    if any(x < 0 for x in merged.values()):
        raise ValueError("negative exponent in monomial")
    return tuple(sorted(merged.items()))


def _merge(m1, m2):
    """The product of two monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        b1, b2 = p1[0], p2[0]
        if b1 == b2:
            out.append((b1, p1[1] + p2[1]))
            i += 1
            j += 1
        elif b1 < b2:
            out.append(p1)
            i += 1
        else:
            out.append(p2)
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def _common_den(values):
    """The least common multiple of the denominators of int or Fraction
    values."""
    den = 1
    for c in values:
        if type(c) is not int:
            den = lcm(den, c.denominator)
    return den


def _numerators(terms, den):
    """{k: c * den} as ints, for den a multiple of every denominator of the
    values of terms."""
    if den == 1:
        return terms
    return {
        k: c * den if type(c) is int else c.numerator * (den // c.denominator)
        for k, c in terms.items()
    }


def _over(acc, den):
    """{k: c / den} for the nonzero int values c of acc: an int when it is
    integral, else a Fraction in lowest terms."""
    if den == 1:
        return {k: c for k, c in acc.items() if c}
    return {k: Fraction(c, den) if c % den else c // den for k, c in acc.items() if c}


def _packed_product(t1, t2, den):
    """{monomial: coefficient} of the product of the int-coefficient terms
    t1 and t2, divided by den.  Each monomial is packed into one int, with
    one bit field per variable of either operand, in monomial order from
    the lowest bits up, each field wide enough for the largest exponent sum,
    so a product of monomials is an int sum with no carry between fields.
    Each output code is decoded back to its monomial in the same pass that
    divides its coefficient by den."""
    variables = sorted({b for t in (t1, t2) for m in t for b, _ in m})
    top = (max(x for m in t1 for _, x in m)
           + max(x for m in t2 for _, x in m))
    width = top.bit_length()
    shift = {b: i * width for i, b in enumerate(variables)}
    p2 = [(sum(x << shift[b] for b, x in m), c) for m, c in t2.items()]
    acc = {}
    get = acc.get
    for m1, c1 in t1.items():
        k1 = sum(x << shift[b] for b, x in m1)
        for k2, c2 in p2:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    mask = (1 << width) - 1
    out = {}
    for k, c in acc.items():
        if c:
            m = []
            for b in variables:
                if not k:
                    break
                if k & mask:
                    m.append((b, k & mask))
                k >>= width
            out[tuple(m)] = Fraction(c, den) if c % den else c // den
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q, with int or
    Fraction coefficients."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms=()):
        self.alg = alg
        self.terms = lie_add({}, dict(terms))

    @classmethod
    def zero(cls, alg):
        return cls(alg)

    @classmethod
    def const(cls, alg, c):
        return cls(alg, {(): c})

    @classmethod
    def var(cls, alg, b, c=1, exp=1):
        validate_element(alg, b)
        return cls(alg, {mono([(b, exp)]): c})

    @classmethod
    def from_lie(cls, alg, v):
        """Degree-one polynomial from a Lie element."""
        return cls(alg, {mono([(b, 1)]): c for b, c in v.items()})

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(not m for m in self.terms)

    def constant_value(self):
        return self.terms.get((), 0)

    def variables(self):
        """Set of basis elements occurring in some monomial."""
        return {b for m in self.terms for b, _ in m}

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.alg == other.alg
            and self.terms == other.terms
        )

    __hash__ = None

    def _with_terms(self, t):
        out = Polynomial(self.alg)
        out.terms = t
        return out

    def __neg__(self):
        return self._with_terms({m: -c for m, c in self.terms.items()})

    def _plus(self, other, c):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.alg, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self.alg, other)
        return self._with_terms(lie_add(dict(self.terms), other.terms, c))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._with_terms(lie_add({}, self.terms, other))
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self.alg, other)
        d1 = _common_den(self.terms.values())
        d2 = _common_den(other.terms.values())
        t1 = _numerators(self.terms, d1)
        t2 = _numerators(other.terms, d2)
        if len(t1) > 1 and len(t2) > 1:
            return self._with_terms(_packed_product(t1, t2, d1 * d2))
        # One operand has at most one term, so distinct term pairs give
        # distinct monomials: no pair adds into another's.
        acc = {_merge(m1, m2): c1 * c2
               for m1, c1 in t1.items() for m2, c2 in t2.items()}
        return self._with_terms(_over(acc, d1 * d2))

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k by repeated squaring, for an int k >= 0."""
        if type(k) is not int:
            raise TypeError("polynomial exponent must be an int, not %r" % (k,))
        if k < 0:
            raise ValueError("negative power")
        out, base = None, self
        while k:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if k:
                base = base * base
        return Polynomial.const(self.alg, 1) if out is None else out

    def __repr__(self):
        return "Polynomial(%r, %r)" % (self.alg, self.terms)

    # -- leaders ----------------------------------------------------------

    def leader(self, sign):
        """Largest ("+") or smallest ("-") variable of the polynomial."""
        vs = self.variables()
        if not vs:
            raise ConstantPolynomial("constant polynomial has no leader")
        return lie_extreme(self.alg, vs, sign)

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
        return {j: self._with_terms(t) for j, t in out.items()}

    def derivative(self, b):
        """Formal partial derivative with respect to basis element b."""
        t = {}
        for m, c in self.terms.items():
            for pos, (bb, xx) in enumerate(m):
                if bb == b:
                    rest = m[:pos] + ((bb, xx - 1),) + m[pos + 1 :]
                    rest = tuple(p for p in rest if p[1])
                    t[rest] = t.get(rest, 0) + c * xx
        return Polynomial(self.alg, t)

    def initial(self, sign):
        """Coefficient of the highest power of the leader."""
        expansion = self.expand_in(self.leader(sign))
        return expansion[max(expansion)]

    def separant(self, sign):
        """Partial derivative with respect to the leader."""
        return self.derivative(self.leader(sign))

    def rank(self, sign):
        """(leader key, leader degree); compared lexicographically."""
        l = self.leader(sign)
        return (order_key(self.alg, l), self.degree_in(l))


def _bracket_table(alg, variables, others):
    """(table, den) for the brackets [a, b], a in variables and b in others.
    table maps each (a, b) with a nonzero bracket to {((e, 1),): n}: [a, b]
    is the sum of n * e / den, with int numerators n over one common
    denominator den, each element e stored as its one-factor monomial."""
    table = {}
    den = 1
    for a in variables:
        for b in others:
            br = bracket_basis(alg, a, b)
            if br:
                table[a, b] = {((e, 1),): n for e, n in br.items()}
                den = lcm(den, _common_den(br.values()))
    if den != 1:
        table = {ab: _numerators(br, den) for ab, br in table.items()}
    return table, den


def _bracket_into(acc, terms, b, cofactor, table):
    """Add cofactor * {f, b} into the int accumulator acc, for terms the
    (monomial, int coefficient) pairs of f: each term c*m of f and each
    factor a^x of m add x*c * (m/a) * cofactor * [a, b].  table comes from
    _bracket_table, and cofactor is a monomial."""
    get = acc.get
    for m, c in terms:
        for i, (a, x) in enumerate(m):
            br = table.get((a, b))
            if br is not None:
                r = m[:i] + ((a, x - 1),) + m[i + 1 :] if x > 1 else m[:i] + m[i + 1 :]
                r = _merge(r, cofactor)
                cx = c * x
                for e, n in br.items():
                    mm = _merge(r, e)
                    acc[mm] = get(mm, 0) + cx * n


def poisson_bracket(f, g):
    """{f, g}: the biderivation extending the Lie bracket.  Each term d*n of
    g and each factor b^y of n add d*y * (n/b) * {f, b}."""
    _check_same(f.alg, g)
    table, den = _bracket_table(f.alg, f.variables(), g.variables())
    df = _common_den(f.terms.values())
    dg = _common_den(g.terms.values())
    tf = _numerators(f.terms, df).items()
    acc = {}
    for n, d in _numerators(g.terms, dg).items():
        for i, (b, y) in enumerate(n):
            cofactor = n[:i] + ((b, y - 1),) + n[i + 1 :] if y > 1 else n[:i] + n[i + 1 :]
            dy = d * y
            _bracket_into(acc, [(m, c * dy) for m, c in tf], b, cofactor, table)
    return f._with_terms(_over(acc, df * dg * den))


class _DTupleFields(NamedTuple):
    alg: object
    entries: tuple
    sign: str


class DTuple(_DTupleFields):
    """The tuple t of the operator D_t over the algebra alg: a nonempty
    tuple of basis elements of alg, all of positive degree (sign "+") or
    all of negative degree (sign "-").

    Making one, DTuple(alg, entries), checks each entry once and reads the
    sign from the first entry's degree; d_op and d_leader then only check
    that t.alg is theirs.  leaders.iter_tuples makes its tuples through
    _trusted_dtuple instead, without checking them again: it draws each
    entry, at a degree of the tuple's sign, from an enumerate_component
    list of its table, whole or grouped by multidegree.  _replace and
    _make check nothing either.
    """

    __slots__ = ()

    def __new__(cls, alg, entries):
        if not entries:
            raise ValueError("empty tuple")
        sign = None
        for b in entries:
            validate_element(alg, b)
            d = degree(alg, b)
            if sign is None:
                sign = PLUS if d > 0 else MINUS
            if d == 0 or (d > 0) != (sign == PLUS):
                raise ValueError("%r tuple entry of degree %d" % (sign, d))
        return tuple.__new__(cls, (alg, entries, sign))

    def __getnewargs__(self):
        # copy and pickle make the tuple again from its two arguments.
        return self.alg, self.entries


def _trusted_dtuple(alg, entries, sign):
    """The DTuple of entries and sign over alg, made without a check: each
    entry must be a basis element of alg whose degree has that sign."""
    return tuple.__new__(DTuple, (alg, entries, sign))


def pb_with_var(f, b):
    """{f, b} for a single basis element b."""
    table, den = _bracket_table(f.alg, f.variables(), (b,))
    df = _common_den(f.terms.values())
    acc = {}
    _bracket_into(acc, _numerators(f.terms, df).items(), b, (), table)
    return f._with_terms(_over(acc, df * den))


def d_op(f, t):
    """Iterated Poisson bracket of f with the entries of t, left to right."""
    _check_same(f.alg, t)
    out = f
    for b in t.entries:
        out = pb_with_var(out, b)
    return out


def d_bracket(alg, b, t):
    """Iterated Lie bracket [[b, t1], t2, ...] as a Lie element.  The first
    step is the bracket of two basis elements; a zero one ends the walk."""
    v = bracket_basis(alg, b, t.entries[0])
    for m in t.entries[1:] if v else ():
        v = bracket_lie(alg, v, {m: 1})
        if not v:
            break
    return v


def d_leader(alg, b, t):
    """Extreme element of the iterated bracket of b along t, None if zero."""
    validate_element(alg, b)
    _check_same(alg, t)
    return _d_leader(alg, b, t)


def _d_leader(alg, b, t):
    """d_leader without its checks, for b and t known to be over alg."""
    v = d_bracket(alg, b, t)
    return lie_extreme(alg, v, t.sign) if v else None
