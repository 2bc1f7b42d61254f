"""Built-in graded Lie algebras: bases, gradings, total orders, brackets.

Basis elements are plain tuples tagged by kind so they stay hashable and
cheap to compare:

    ("e", n)            Witt-type generator e_n (Witt, WittPositive, CartanW1,
                        Virasoro)
    ("z",)              Virasoro central element
    ("w", i, k)         x^i d_k in W_n, i a length-n tuple of naturals, 1<=k<=n
    ("sa", i)           x^i d_1 in S_n with i_1 = 0
    ("sb", i, k)        i_k x^(i-1_k) d_1 - i_1 x^(i-1_1) d_k in S_n, i_1 >= 1
    ("dh", i)           D_H(x^i) in H_n, i != 0
    ("dk", i)           D_K(x^i) in K_n
    ("E"|"F"|"H", p)    sl2 loop elements e t^p, f t^p, h t^p
    ("x", n), ("y",)    the rank-one example: x_n of degree n, y of degree 1

A Lie element (finite linear combination of basis elements) is a dict
mapping basis element to its coefficient, with no zero values: an int
while integral, else a Fraction.  Only two steps divide: Virasoro's
central term (n^3 - n)/12 and sn_project, which divides by i_1; every
other structure constant is an integer, so most brackets build no
Fraction.

Each family is one Family entry of the table _FAMILIES: its command-line
name, rank rule, element kinds with their validity predicates, grading
(the degree, and for the Cartan types a multidegree in Z^n), total order,
least degree, graded components and bracket.  The public
functions below look the family up there and do nothing family-specific
themselves.  Each element kind has one token grammar in ELEMENT_GRAMMAR,
from which element_to_str prints a name and textio parses it back.

Each algebra's total basis order (see order_key) sorts by degree first.
Within a degree of S_n every ShapeA element lies above every ShapeB
element, matching H_2's order under S_2 = H_2.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Callable, NamedTuple

WITT = "Witt"
WITT_POS = "WittPositive"
CARTAN_W1 = "CartanW1"
VIRASORO = "Virasoro"
CARTAN_W = "CartanW"
SPECIAL_S = "SpecialS"
HAMILTONIAN_H = "HamiltonianH"
CONTACT_K = "ContactK"
LOOP_SL2 = "LoopSl2"
EXAMPLE_D = "ExampleD"

# The two signs: PLUS picks positive degrees and largest elements, MINUS
# negative degrees and smallest elements.
PLUS = "+"
MINUS = "-"


class InvalidElement(ValueError):
    """Basis element does not belong to the algebra."""


class NotInSn(ValueError):
    """W_n element is not in the span of the S_n basis."""


class _AlgebraFields(NamedTuple):
    family: str
    n: int | None = None


class AlgebraSpec(_AlgebraFields):
    """One of the built-in graded Lie algebras, with rank where applicable."""

    __slots__ = ()

    def __new__(cls, family, n=None):
        fam = _FAMILIES.get(family)
        if fam is None:
            raise ValueError("unknown algebra family: %r" % (family,))
        if fam.rank is None:
            if n is not None:
                raise ValueError("%s takes no rank parameter" % family)
        elif n is None or not fam.rank[0](n):
            raise ValueError("%s requires %s" % (family, fam.rank[1]))
        return tuple.__new__(cls, (family, n))


class Family(NamedTuple):
    """One family of built-in algebras, as data.

    Every callable but the rank predicate takes the AlgebraSpec first.
    `kinds` maps each element kind of the family to its validity predicate
    (alg, b), which is only asked about tuples headed by that kind.
    order_key(alg, b) is (degree(alg, b),) + tail(alg, b).  `grading`
    (alg, b) -> tuple is the family's Z^n-grading finer than the degree,
    for which every bracket term's multidegree is the sum of its operands'
    (Kac 1968): the Cartan types carry one, and it is None for a family
    graded by the degree alone.
    """

    cli: str                    # command-line name; ranked ones add ":n"
    kinds: dict
    degree: Callable
    component: Callable         # (alg, d) -> basis elements of degree d
    bracket: Callable           # (alg, a, b) -> Lie element
    rank: tuple | None = None   # (predicate on n, its wording), None if unranked
    tail: Callable = lambda alg, b: ()
    min_degree: int | None = None  # None if unbounded below
    grading: Callable | None = None


def e(n):
    return ("e", int(n))


Z = ("z",)


def w(i, k):
    return ("w", tuple(int(a) for a in i), int(k))


def sa(i):
    return ("sa", tuple(int(a) for a in i))


def sb(i, k):
    return ("sb", tuple(int(a) for a in i), int(k))


def dh(i):
    return ("dh", tuple(int(a) for a in i))


def dk(i):
    return ("dk", tuple(int(a) for a in i))


def loop(root, p):
    return (root, int(p))


def x(n):
    return ("x", int(n))


Y = ("y",)


def _is_index(i, n):
    return (
        isinstance(i, tuple)
        and len(i) == n
        and all(isinstance(a, int) and a >= 0 for a in i)
    )


def _int_field(b):
    """b is (kind, integer)."""
    return len(b) == 2 and isinstance(b[1], int)


def _index_field(alg, b):
    """b is (kind, multi-index of length alg.n)."""
    return len(b) == 2 and _is_index(b[1], alg.n)


def _index_and_k(alg, b, lo):
    """b is (kind, multi-index of length alg.n, k) with lo <= k <= alg.n."""
    return len(b) == 3 and _is_index(b[1], alg.n) and isinstance(b[2], int) and lo <= b[2] <= alg.n


def validate_element(alg, b):
    """Raise InvalidElement unless b is a basis element of alg."""
    kinds = _FAMILIES[alg.family].kinds
    valid = isinstance(b, tuple) and b and isinstance(b[0], str) and kinds.get(b[0])
    if not (valid and valid(alg, b)):
        raise InvalidElement("not a basis element of %s: %r" % (alg, b))
    return b


def degree(alg, b):
    """Integer degree of a basis element under the algebra's grading."""
    return _FAMILIES[alg.family].degree(alg, b)


def order_key(alg, b):
    """Sort key realizing the algebra's total order on its basis.

    The first entry is the degree, so the order is grading-compatible,
    and keys of equal-degree elements differ in the tail.

    In S_n every ShapeA element sits above every ShapeB element of its
    degree.  For n = 2 this is the order transported from H_2 along the
    isomorphism SA[0,j] -> DH[0,j+1], SB[i;2] -> DH[i] (it preserves
    bracket supports), and with it S_2 satisfies (†)(b) as H_2 does.
    """
    fam = _FAMILIES[alg.family]
    return (fam.degree(alg, b),) + fam.tail(alg, b)


def compare_basis(alg, a, b):
    """-1, 0 or 1 according to the algebra's total basis order."""
    ka, kb = order_key(alg, a), order_key(alg, b)
    return (ka > kb) - (ka < kb)


def min_degree(alg):
    """Least degree of any basis element, or None if unbounded below."""
    return _FAMILIES[alg.family].min_degree


def multigrading(alg):
    """The family's grading finer than the degree, (alg, b) -> tuple, or
    None if the degree is its only grading."""
    return _FAMILIES[alg.family].grading


# ---------------------------------------------------------------------------
# Lie element helpers


def lie_add(dst, src, c=1):
    """dst += c * src in place; dst keeps no zero values, and an integral
    value is kept as an int.

    The values are ints or Fractions; the keys are basis elements here and
    monomials in poly.py, whose sums and products accumulate through this
    function too.
    """
    scale = c != 1
    for b, v in src.items():
        if scale:
            v = c * v
        old = dst.get(b)
        nv = v if old is None else old + v
        if not nv:
            dst.pop(b, None)
        elif type(nv) is Fraction and nv.denominator == 1:
            dst[b] = nv.numerator
        else:
            dst[b] = nv
    return dst


def _one_term(b, c):
    return {b: c} if c else {}


def _quotient(a, n):
    """a / n exactly, for an int or Fraction a and a nonzero int n: an int
    when it is integral, else a Fraction."""
    if type(a) is int and not a % n:
        return a // n
    q = Fraction(a, n)
    return q.numerator if q.denominator == 1 else q


def _minus_unit(i, k):
    """i - 1_k in Z^n."""
    return i[: k - 1] + (i[k - 1] - 1,) + i[k:]


def _symplectic_grading(alg, b):
    """The grading of H_n and K_n: (i_l - i_(m+l) for l <= m, m = n // 2)
    and the degree."""
    i, m = b[1], alg.n // 2
    return tuple(i[l] - i[m + l] for l in range(m)) + (degree(alg, b),)


def _w_bracket(alg, a, b):
    """Structure constants of W_n on x^i d_k, x^j d_m: j_k x^(i+j-1_k) d_m
    - i_m x^(i+j-1_m) d_k, one term when k = m, each index made once."""
    (_, i, k), (_, j, m) = a, b
    ck, cm = (j[k - 1] - i[k - 1], 0) if k == m else (j[k - 1], i[m - 1])
    if not (ck or cm):
        return {}
    s = list(map(add, i, j))
    out = {}
    if ck:
        s[k - 1] -= 1
        out[("w", tuple(s), m)] = ck
        s[k - 1] += 1
    if cm:
        s[m - 1] -= 1
        out[("w", tuple(s), k)] = -cm
    return out


def sb_expand(alg, i, k):
    """ShapeB element of S_n written in W_n coordinates."""
    out = {}
    if i[k - 1]:
        out[("w", _minus_unit(i, k), 1)] = i[k - 1]
    if i[0]:
        out[("w", _minus_unit(i, 1), k)] = -i[0]
    return out


def sn_expand(alg, b):
    """S_n basis element written in W_n coordinates."""
    if b[0] == "sa":
        return {("w", b[1], 1): 1}
    return sb_expand(alg, b[1], b[2])


def sn_project(alg, v):
    """Rewrite a W_n Lie element in the S_n basis, in one pass: a term c
    x^u d_k, k >= 2, is that of SB[u + 1_1; k] times -c / (u_1 + 1), whose
    d_1 term leaves the d_1 part.  Raises NotInSn unless what is left is
    ShapeA terms x^u d_1 with u_1 = 0, i.e. unless the divergence is 0."""
    out, d1 = {}, {}
    for (_, u, k), c in v.items():
        if k == 1:
            d1[u] = d1.get(u, 0) + c
        elif c:
            i = (u[0] + 1,) + u[1:]
            q = out[("sb", i, k)] = _quotient(-c, i[0])
            if i[k - 1]:
                t = _minus_unit(i, k)
                d1[t] = d1.get(t, 0) - q * i[k - 1]
    for u, c in lie_add({}, d1).items():
        if u[0]:
            raise NotInSn("element is not in S_n: residue %r" % (("w", u, 1),))
        out[("sa", u)] = c
    return out


def _s_bracket(alg, a, b):
    """Bracket of S_n, computed in W_n and projected back."""
    out = {}
    for wa, ca in sn_expand(alg, a).items():
        for wb, cb in sn_expand(alg, b).items():
            lie_add(out, _w_bracket(alg, wa, wb), ca * cb)
    return sn_project(alg, out)


def _symplectic(kind, i, j, m):
    """Poisson bracket of x^i and x^j in the pairs (x_l, x_{m+l}), l <= m,
    as {(kind, exponent): coefficient}; each pair gives its own exponent."""
    out = {}
    for l in range(m):
        c = i[m + l] * j[l] - i[l] * j[m + l]
        if c:
            u = list(map(add, i, j))
            u[l] -= 1
            u[m + l] -= 1
            out[(kind, tuple(u))] = c
    return out


def _h_bracket(alg, a, b):
    # Every term's exponent has degree |i| + |j| - 2, and D_H(1) = 0.
    return _symplectic("dh", a[1], b[1], alg.n // 2) if sum(a[1]) + sum(b[1]) > 2 else {}


def _k_bracket(alg, a, b):
    """The terms of _symplectic, and one that lowers the last entry."""
    i, j = a[1], b[1]
    out = _symplectic("dk", i, j, (alg.n - 1) // 2)
    c = i[-1] * sum(j[:-1]) - j[-1] * sum(i[:-1]) + 2 * (j[-1] - i[-1])
    if c:
        out[("dk", tuple(map(add, i[:-1], j[:-1])) + (i[-1] + j[-1] - 1,))] = c
    return out


def _witt_bracket(alg, a, b):
    n, m = a[1], b[1]
    return _one_term(e(n + m), m - n)


def _virasoro_bracket(alg, a, b):
    if a == Z or b == Z:
        return {}
    out = _witt_bracket(alg, a, b)
    n = a[1]
    if n + b[1] == 0:
        lie_add(out, _one_term(Z, _quotient(n**3 - n, 12)))
    return out


_SL2 = {
    ("E", "F"): ("H", 1), ("F", "E"): ("H", -1), ("H", "E"): ("E", 2),
    ("E", "H"): ("E", -2), ("H", "F"): ("F", -2), ("F", "H"): ("F", 2),
}


def _sl2_bracket(alg, a, b):
    root, c = _SL2.get((a[0], b[0]), (None, 0))
    return _one_term((root, a[1] + b[1]), c)


def _example_d_bracket(alg, a, b):
    if a == Y and b != Y:
        return _one_term(x(b[1] + 1), 1)
    if b == Y and a != Y:
        return _one_term(x(a[1] + 1), -1)
    return {}


def bracket_basis(alg, a, b):
    """Lie bracket [a, b] of two basis elements as a Lie element."""
    return _FAMILIES[alg.family].bracket(alg, a, b)


def bracket_lie(alg, u, v):
    """Bilinear extension of the bracket to Lie elements."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            lie_add(out, bracket_basis(alg, a, b), ca * cb)
    return out


def lie_extreme(alg, v, sign):
    """Largest (PLUS) or smallest (MINUS) basis element of a Lie element or set."""
    if len(v) == 1:
        return next(iter(v))
    return (max if sign == PLUS else min)(v, key=lambda b: order_key(alg, b))


def jacobi_residual(alg, a, b, c):
    """[[a,b],c] + [[b,c],a] + [[c,a],b]; zero iff Jacobi holds on a,b,c."""
    out = bracket_lie(alg, bracket_basis(alg, a, b), _one_term(c, 1))
    lie_add(out, bracket_lie(alg, bracket_basis(alg, b, c), _one_term(a, 1)))
    lie_add(out, bracket_lie(alg, bracket_basis(alg, c, a), _one_term(b, 1)))
    return out


# ---------------------------------------------------------------------------
# Component enumeration


def _compositions(total, n):
    """All length-n tuples of naturals summing to total, lexicographically.
    Stars and bars: each choice of n - 1 bar places among total + n - 1,
    in lex order, gives part j as the stars between bars j - 1 and j."""
    if total < 0:
        return
    end = total + n - 1
    for bars in combinations(range(end), n - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (end,)))


def _s_component(alg, d):
    n = alg.n
    out = [("sa", (0,) + r) for r in _compositions(d + 1, n - 1)]
    return out + [
        ("sb", i, k) for i in _compositions(d + 2, n) if i[0] >= 1 for k in range(2, n + 1)
    ]


def _sl2_component(alg, d):
    q, r = divmod(d, 3)
    return [("H", q)] if r == 0 else [("E", q)] if r == 1 else [("F", q + 1)]


def enumerate_component(alg, d):
    """All basis elements of degree d, sorted by the basis order."""
    out = _FAMILIES[alg.family].component(alg, d)
    return sorted(out, key=lambda b: order_key(alg, b))


def _lowest_degree(alg, lo):
    """The lowest degree from lo up that holds a basis element: every
    degree from the algebra's least one up holds one."""
    floor = min_degree(alg)
    return lo if floor is None else max(lo, floor)


def elements_in_window(alg, lo, hi):
    """All basis elements with degree in [lo, hi], sorted.  The degrees
    below the algebra's least one are skipped, not scanned."""
    out = []
    for d in range(_lowest_degree(alg, lo), hi + 1):
        out += enumerate_component(alg, d)
    return out


def _window(alg, window, least, max_gap=None):
    """The basis elements of a degree window, refused if it is inverted or
    holds fewer than `least` of them: a check on it would check nothing.
    Given max_gap, a window whose elements span more than max_gap degrees
    is refused too, before any is enumerated."""
    lo, hi = window
    if lo > hi:
        raise ValueError("inverted degree window (%d, %d)" % (lo, hi))
    if max_gap is not None and hi - _lowest_degree(alg, lo) > max_gap:
        raise ValueError("degree window (%d, %d) spans more than the safety limit %d"
                         % (lo, hi, max_gap))
    elems = elements_in_window(alg, lo, hi)
    if len(elems) < least:
        raise ValueError("degree window (%d, %d) holds %d basis element(s); the check needs %d"
                         % (lo, hi, len(elems), least))
    return elems


# ---------------------------------------------------------------------------
# The families


def _e_family(cli, floor):
    """Witt-type family spanned by the e_n with n >= floor (None: all n)."""
    return Family(
        cli=cli,
        kinds={"e": lambda alg, b: _int_field(b) and (floor is None or b[1] >= floor)},
        degree=lambda alg, b: b[1],
        min_degree=floor,
        component=lambda alg, d: [e(d)] if floor is None or d >= floor else [],
        bracket=_witt_bracket,
    )


_RANK_2 = (lambda n: n >= 2, "a rank n >= 2")

_FAMILIES = {
    WITT: _e_family("witt", None),
    WITT_POS: _e_family("witt+", 1),
    CARTAN_W1: _e_family("w1", -1),
    VIRASORO: Family(
        cli="virasoro",
        kinds={
            "e": lambda alg, b: _int_field(b),
            "z": lambda alg, b: len(b) == 1,
        },
        degree=lambda alg, b: 0 if b == Z else b[1],
        tail=lambda alg, b: (0 if b == Z else 1,),
        component=lambda alg, d: [Z, e(0)] if d == 0 else [e(d)],
        bracket=_virasoro_bracket,
    ),
    CARTAN_W: Family(
        cli="cartan-w",
        rank=_RANK_2,
        kinds={"w": lambda alg, b: _index_and_k(alg, b, 1)},
        degree=lambda alg, b: sum(b[1]) - 1,
        tail=lambda alg, b: (b[2],) + tuple(reversed(b[1])),
        min_degree=-1,
        component=lambda alg, d: [
            ("w", i, k) for i in _compositions(d + 1, alg.n) for k in range(1, alg.n + 1)
        ],
        bracket=_w_bracket,
        grading=lambda alg, b: _minus_unit(b[1], b[2]),
    ),
    SPECIAL_S: Family(
        cli="special-s",
        rank=_RANK_2,
        kinds={
            "sa": lambda alg, b: _index_field(alg, b) and b[1][0] == 0,
            "sb": lambda alg, b: _index_and_k(alg, b, 2) and b[1][0] >= 1,
        },
        degree=lambda alg, b: sum(b[1]) - (1 if b[0] == "sa" else 2),
        tail=lambda alg, b: (
            (alg.n + 1,) + tuple(reversed(b[1][1:]))
            if b[0] == "sa"
            else (b[2],) + tuple(reversed(b[1]))
        ),
        min_degree=-1,
        component=_s_component,
        bracket=_s_bracket,
        # Both W_n terms of an SB element (sb_expand) have this grading.
        grading=lambda alg, b: (
            _minus_unit(b[1], 1) if b[0] == "sa" else _minus_unit(_minus_unit(b[1], 1), b[2])
        ),
    ),
    HAMILTONIAN_H: Family(
        cli="hamiltonian",
        rank=(lambda n: n >= 2 and n % 2 == 0, "an even rank n >= 2"),
        kinds={"dh": lambda alg, b: _index_field(alg, b) and any(b[1])},
        degree=lambda alg, b: sum(b[1]) - 2,
        tail=lambda alg, b: tuple(reversed(b[1])),
        min_degree=-1,
        component=lambda alg, d: [("dh", i) for i in _compositions(d + 2, alg.n) if any(i)],
        bracket=_h_bracket,
        grading=_symplectic_grading,
    ),
    CONTACT_K: Family(
        cli="contact",
        rank=(lambda n: n >= 3 and n % 2 == 1, "an odd rank n >= 3"),
        kinds={"dk": _index_field},
        degree=lambda alg, b: sum(b[1][:-1]) + 2 * b[1][-1] - 2,
        tail=lambda alg, b: tuple(reversed(b[1])),
        min_degree=-2,
        component=lambda alg, d: [
            ("dk", i + (t,))
            for t in range((d + 2) // 2 + 1)
            for i in _compositions(d + 2 - 2 * t, alg.n - 1)
        ],
        bracket=_k_bracket,
        grading=_symplectic_grading,
    ),
    LOOP_SL2: Family(
        cli="loop-sl2",
        kinds=dict.fromkeys("EFH", lambda alg, b: _int_field(b)),
        degree=lambda alg, b: 3 * b[1] + {"E": 1, "F": -1, "H": 0}[b[0]],
        component=_sl2_component,
        bracket=_sl2_bracket,
    ),
    EXAMPLE_D: Family(
        cli="example-d",
        kinds={
            "x": lambda alg, b: _int_field(b) and b[1] >= 1,
            "y": lambda alg, b: len(b) == 1,
        },
        degree=lambda alg, b: 1 if b == Y else b[1],
        tail=lambda alg, b: (1 if b == Y else 0,),
        min_degree=1,
        component=lambda alg, d: [x(1), Y] if d == 1 else [x(d)] if d >= 2 else [],
        bracket=_example_d_bracket,
    ),
}


# ---------------------------------------------------------------------------
# Canonical names

# The grammar of each element kind's printed name: literal tokens, INT for
# an integer field and IDX for a comma-separated multi-index field, the
# fields in the order they follow the kind in the element tuple.
INT = "<int>"
IDX = "<index>"

ELEMENT_GRAMMAR = {
    "e": ("e", "[", INT, "]"),
    "z": ("z",),
    "w": ("x", "[", IDX, "]", "d", "[", INT, "]"),
    "sa": ("SA", "[", IDX, "]"),
    "sb": ("SB", "[", IDX, ";", INT, "]"),
    "dh": ("DH", "[", IDX, "]"),
    "dk": ("DK", "[", IDX, "]"),
    "E": ("E", "[", INT, "]"),
    "F": ("F", "[", INT, "]"),
    "H": ("H", "[", INT, "]"),
    "x": ("X", "[", INT, "]"),
    "y": ("Y",),
}

# Each kind's printf format, and which of its fields are multi-indices
# (empty when none is, so those names print from the tuple directly).
_FORMATS = {
    kind: (
        "".join({INT: "%d", IDX: "%s"}.get(tok, tok) for tok in grammar),
        tuple(tok == IDX for tok in grammar if tok in (INT, IDX)) if IDX in grammar else (),
    )
    for kind, grammar in ELEMENT_GRAMMAR.items()
}


def element_to_str(alg, b):
    """Canonical printed name of a basis element."""
    fmt, indices = _FORMATS[b[0]]
    if not indices:
        return fmt % b[1:]
    return fmt % tuple([",".join(map(str, v)) if i else v for i, v in zip(indices, b[1:])])


_CLI_NAMES = {fam.cli: family for family, fam in _FAMILIES.items()}


def parse_algebra(name):
    """AlgebraSpec from its command-line name, e.g. "witt+" or "cartan-w:3"."""
    head, colon, tail = name.partition(":")
    family = _CLI_NAMES.get(head)
    if family is not None and (_FAMILIES[family].rank is None) != bool(colon):
        if not colon:
            return AlgebraSpec(family)
        if tail.removeprefix("-").isdecimal():
            return AlgebraSpec(family, int(tail))
    raise ValueError("unknown algebra name: %r" % (name,))


def algebra_to_str(alg):
    """Command-line name of an AlgebraSpec."""
    fam = _FAMILIES[alg.family]
    return fam.cli if fam.rank is None else "%s:%d" % (fam.cli, alg.n)
