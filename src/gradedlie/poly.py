"""Sparse polynomials over Q in the basis elements of a graded Lie algebra.

A monomial is a tuple of (basis element, positive exponent) pairs sorted
ascending by the elements' own tuple order, which is total on each family
(the kind tag comes first, and the fields of one kind have one type); the
empty tuple is the constant monomial.  No product or bracket reads the
algebra's basis order: only leaders read it (Polynomial.leader and rank
here, the decisions in leaders.py and the reducer in elim.py), and
textio.print_poly, which prints each monomial's factors in basis order.

A polynomial stores its algebra, a content and a primitive part: a
positive rational (an int when integral) times {monomial: int} with no
zero value and gcd 1, so the signs live in the part and each polynomial
has one stored form (zero: content 0, empty part).  By Gauss's lemma
(Knuth, TAOCP vol. 2, 4.6.1) a product of primitive parts is primitive,
so products, scalar multiples, negation and powers multiply the contents
and run an int kernel that divides nothing.  Sums, brackets (over one
common denominator of their structure constants), derivatives and the
parts of expand_in take one gcd pass, _split, over an int accumulator.
A product of two operands of several terms each packs every monomial
into one int, one bit field per variable (Monagan & Pearce's packed
exponent vectors), so a product of monomials is one int sum; one with a
one-term operand merges the sorted tuples, as its pairs never meet on a
monomial.  The Poisson bracket extends the Lie bracket to this symmetric
algebra as a biderivation, and one loop makes it: _bracket_into adds
cofactor * {f, b} into the accumulator, for a basis element b and a
monomial cofactor.  pb_with_var calls it once, with the empty cofactor.
poisson_bracket calls it once for each term d*n of g and each factor
b^y of n, with cofactor n/b and f's terms scaled by d*y.  Neither builds
a partial-derivative polynomial.  The operator D_t iterates the bracket
along a DTuple t: d_op on polynomials, d_bracket and d_leader on basis
elements.  A DTuple made by its constructor checks its entries;
leaders.iter_tuples makes its tuples through _trusted_dtuple, without
checking them again: each entry comes from an enumerated component,
whole or grouped by multidegree.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .algebras import (
    MINUS,
    PLUS,
    bracket_basis,
    bracket_lie,
    degree,
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


def _ratio(n, d):
    """n / d for ints n and d > 0: an int when integral, else a Fraction."""
    return Fraction(n, d) if n % d else n // d


def _split(n, d, acc):
    """(content, part) of n/d * acc, for a fresh int accumulator acc: one gcd pass."""
    g = 0
    for c in acc.values():
        g = gcd(g, c)
        if g == 1:
            return _ratio(n, d), acc if 0 not in acc.values() else {
                k: c for k, c in acc.items() if c}
    return _ratio(n * g, d), {k: c // g for k, c in acc.items() if c}


def _poly(alg, content, prim):
    """The polynomial content * prim, both already in stored form."""
    out = Polynomial.__new__(Polynomial)
    out.alg, out.content, out.prim = alg, content, prim
    return out


def _packed_product(t1, t2):
    """{monomial: int} of the product of the int-coefficient terms t1 and t2,
    each monomial packed into one int: one bit field per variable of either
    operand, lowest bits first in monomial order, each wide enough for the
    largest exponent sum, so a product of monomials is a carry-free int sum."""
    variables = sorted({b for t in (t1, t2) for m in t for b, _ in m})
    top = (max([x for m in t1 for _, x in m])
           + max([x for m in t2 for _, x in m]))
    width = top.bit_length()
    shift = {b: i * width for i, b in enumerate(variables)}
    codes = ([], [])
    for t, coded in zip((t1, t2), codes):
        for m, c in t.items():
            k = 0
            for b, x in m:
                k += x << shift[b]
            coded.append((k, c))
    acc = {}
    get = acc.get
    for k1, c1 in codes[0]:
        for k2, c2 in codes[1]:
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
            out[tuple(m)] = c
    return out


class Polynomial:
    """Immutable-by-convention sparse polynomial over Q: content * prim."""

    __slots__ = ("alg", "content", "prim")

    def __init__(self, alg, terms=()):
        terms = dict(terms)
        den = lcm(*[c.denominator for c in terms.values()])
        self.alg = alg
        self.content, self.prim = _split(1, den, {
            m: c.numerator * (den // c.denominator) for m, c in terms.items()})

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

    @property
    def terms(self):
        """{monomial: coefficient}, built on each read: no zero value, an int
        when integral, else a Fraction in lowest terms."""
        n, d = self.content.numerator, self.content.denominator
        return {m: _ratio(n * k, d) for m, k in self.prim.items()}

    def is_zero(self):
        return not self.prim

    def is_constant(self):
        return all(not m for m in self.prim)

    def constant_value(self):
        return self.terms.get((), 0)

    def variables(self):
        """Set of basis elements occurring in some monomial."""
        return {b for m in self.prim for b, _ in m}

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.alg == other.alg
                and self.content == other.content and self.prim == other.prim)

    __hash__ = None

    def __neg__(self):
        return _poly(self.alg, self.content, {m: -c for m, c in self.prim.items()})

    def _plus(self, other, c):
        """self + c * other, for c 1 or -1, over one common denominator."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.alg, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self.alg, other)
        p, q = self.content, other.content
        if not q:
            return self
        den = lcm(p.denominator, q.denominator)
        a = p.numerator * (den // p.denominator)
        b = c * q.numerator * (den // q.denominator)
        g = gcd(a, b)
        a, b = a // g, b // g
        acc = dict(self.prim) if a == 1 else {m: a * k for m, k in self.prim.items()}
        get = acc.get
        for m, k in other.prim.items():
            acc[m] = get(m, 0) + b * k
        return _poly(self.alg, *_split(g, den, acc))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.const(self.alg, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        _check_same(self.alg, other)
        t1, t2 = self.prim, other.prim
        if len(t1) > 1 and len(t2) > 1:
            prim = _packed_product(t1, t2)
        else:
            # One operand has at most one term, so distinct term pairs give
            # distinct monomials: no pair adds into another's.
            prim = {_merge(m1, m2): c1 * c2 for m1, c1 in t1.items() for m2, c2 in t2.items()}
        p, q = self.content, other.content
        return _poly(self.alg, _ratio(p.numerator * q.numerator, p.denominator * q.denominator),
                     prim)

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
        for m in self.prim:
            for bb, x in m:
                if bb == b:
                    out = max(out, x)
        return out

    def leader_degree(self, sign):
        return self.degree_in(self.leader(sign))

    def expand_in(self, b):
        """L-adic expansion {j: coefficient polynomial} in the variable b."""
        out = {}
        for m, c in self.prim.items():
            j = 0
            rest = []
            for bb, xx in m:
                if bb == b:
                    j = xx
                else:
                    rest.append((bb, xx))
            out.setdefault(j, {})[tuple(rest)] = c
        n, d = self.content.numerator, self.content.denominator
        return {j: _poly(self.alg, *_split(n, d, t)) for j, t in out.items()}

    def derivative(self, b):
        """Formal partial derivative with respect to basis element b."""
        t = {}
        for m, c in self.prim.items():
            for pos, (bb, xx) in enumerate(m):
                if bb == b:
                    rest = m[:pos] + ((bb, xx - 1),) + m[pos + 1 :]
                    rest = tuple(p for p in rest if p[1])
                    t[rest] = t.get(rest, 0) + c * xx
        return _poly(self.alg, *_split(self.content.numerator, self.content.denominator, t))

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
                table[a, b] = br
                den = lcm(den, *[n.denominator for n in br.values()])
    for ab, br in table.items():
        table[ab] = {((e, 1),): n.numerator * (den // n.denominator) for e, n in br.items()}
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
    acc = {}
    for n, d in g.prim.items():
        for i, (b, y) in enumerate(n):
            cofactor = n[:i] + ((b, y - 1),) + n[i + 1 :] if y > 1 else n[:i] + n[i + 1 :]
            dy = d * y
            _bracket_into(acc, [(m, c * dy) for m, c in f.prim.items()], b, cofactor, table)
    p, q = f.content, g.content
    return _poly(f.alg, *_split(p.numerator * q.numerator,
                                p.denominator * q.denominator * den, acc))


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
    acc = {}
    _bracket_into(acc, f.prim.items(), b, (), table)
    return _poly(f.alg, *_split(f.content.numerator, f.content.denominator * den, acc))


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
