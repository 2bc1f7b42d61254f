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
mapping basis element to Fraction with no zero values.

Each family is one Family entry of the table _FAMILIES: its command-line
name, rank rule, element kinds with their validity predicates, grading,
total order, least degree, graded components and bracket.  The public
functions below look the family up there and do nothing family-specific
themselves.  Each element kind has one token grammar in ELEMENT_GRAMMAR,
from which element_to_str prints a name and textio parses it back.

Each algebra's total basis order (see order_key) sorts by degree first.
Within a degree of S_n every ShapeA element lies above every ShapeB
element, matching H_2's order under S_2 = H_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

BasisElement = tuple
LieElement = dict

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


class InvalidElement(ValueError):
    """Basis element does not belong to the algebra."""


class NotInSn(ValueError):
    """W_n element is not in the span of the S_n basis."""


@dataclass(frozen=True)
class AlgebraSpec:
    """One of the built-in graded Lie algebras, with rank where applicable."""

    family: str
    n: int | None = None

    def __post_init__(self):
        fam = _FAMILIES.get(self.family)
        if fam is None:
            raise ValueError("unknown algebra family: %r" % (self.family,))
        if fam.rank is None:
            if self.n is not None:
                raise ValueError("%s takes no rank parameter" % self.family)
        elif self.n is None or not fam.rank[0](self.n):
            raise ValueError("%s requires %s" % (self.family, fam.rank[1]))


class Family(NamedTuple):
    """One family of built-in algebras, as data.

    Every callable but the rank predicate takes the AlgebraSpec first.
    `kinds` maps each element kind of the family to its validity predicate
    (alg, b), which is only asked about tuples headed by that kind.
    order_key(alg, b) is (degree(alg, b),) + tail(alg, b).
    """

    cli: str                    # command-line name; ranked ones add ":n"
    kinds: dict
    degree: Callable
    component: Callable         # (alg, d) -> basis elements of degree d
    bracket: Callable           # (alg, a, b) -> LieElement
    rank: tuple | None = None   # (predicate on n, its wording), None if unranked
    tail: Callable = lambda alg, b: ()
    min_degree: int | None = None  # None if unbounded below


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


# ---------------------------------------------------------------------------
# Lie element helpers


def lie_add(dst, src, c=Fraction(1)):
    """dst += c * src in place; dst keeps no zero values."""
    for b, v in src.items():
        nv = dst.get(b, Fraction(0)) + c * v
        if nv:
            dst[b] = nv
        else:
            dst.pop(b, None)
    return dst


def _one_term(b, c):
    c = Fraction(c)
    return {b: c} if c else {}


def _unit(n, k):
    """Multi-index 1_k (1-based k) of length n."""
    return tuple(1 if j == k - 1 else 0 for j in range(n))


def _sub_unit(i, k):
    """i - 1_k, or None if that leaves the lattice."""
    if i[k - 1] == 0:
        return None
    return i[: k - 1] + (i[k - 1] - 1,) + i[k:]


def _add(i, j):
    return tuple(a + b for a, b in zip(i, j))


def _w_bracket(n, i, k, j, m):
    """Structure constants of W_n on x^i d_k, x^j d_m."""
    out = {}
    c = j[k - 1]
    if c:
        u = _sub_unit(_add(i, j), k)
        lie_add(out, _one_term(("w", u, m), c))
    c = i[m - 1]
    if c:
        u = _sub_unit(_add(i, j), m)
        lie_add(out, _one_term(("w", u, k), -c))
    return out


def sb_expand(alg, i, k):
    """ShapeB element of S_n written in W_n coordinates."""
    out = {}
    if i[k - 1]:
        out[("w", _sub_unit(i, k), 1)] = Fraction(i[k - 1])
    if i[0]:
        lie_add(out, _one_term(("w", _sub_unit(i, 1), k), -i[0]))
    return out


def sn_expand(alg, b):
    """S_n basis element written in W_n coordinates."""
    if b[0] == "sa":
        return {("w", b[1], 1): Fraction(1)}
    return sb_expand(alg, b[1], b[2])


def sn_project(alg, v):
    """Rewrite a W_n Lie element in the S_n basis.

    Works greedily: every x^u d_k term with k >= 2 pins down a unique
    ShapeB contribution (via the inverse of d_1 on monomials); what is
    left must be ShapeA terms x^u d_1 with u_1 = 0.  Raises NotInSn if a
    residue remains, which happens exactly when the divergence is nonzero.
    """
    rem = dict(v)
    out = {}
    for b in sorted([b for b in rem if b[2] >= 2]):
        c = rem.get(b)
        if not c:
            continue
        _, u, k = b
        i = _add(u, _unit(alg.n, 1))
        coeff = -c / i[0]
        out[("sb", i, k)] = coeff
        lie_add(rem, sb_expand(alg, i, k), -coeff)
    for b, c in sorted(rem.items()):
        _, u, k = b
        if k != 1 or u[0] != 0:
            raise NotInSn("element is not in S_n: residue %r" % (b,))
        out[("sa", u)] = c
    return {b: c for b, c in out.items() if c}


def _s_bracket(alg, a, b):
    """Bracket of S_n, computed in W_n and projected back."""
    out = {}
    for (_, i, k), ca in sn_expand(alg, a).items():
        for (_, j, m), cb in sn_expand(alg, b).items():
            lie_add(out, _w_bracket(alg.n, i, k, j, m), ca * cb)
    return sn_project(alg, out)


def _symplectic(i, j, m):
    """Poisson bracket of x^i and x^j in the pairs (x_l, x_{m+l}), l <= m,
    as {exponent: coefficient}."""
    poly = {}
    for l in range(1, m + 1):
        c = i[m + l - 1] * j[l - 1] - i[l - 1] * j[m + l - 1]
        if c:
            u = _sub_unit(_sub_unit(_add(i, j), l), m + l)
            poly[u] = poly.get(u, 0) + c
    return poly


def _h_bracket(alg, a, b):
    poly = _symplectic(a[1], b[1], alg.n // 2)
    return {("dh", u): Fraction(c) for u, c in poly.items() if c and any(u)}


def _k_bracket(alg, a, b):
    i, j = a[1], b[1]
    poly = _symplectic(i, j, (alg.n - 1) // 2)
    c = i[-1] * sum(j[:-1]) - j[-1] * sum(i[:-1]) + 2 * (j[-1] - i[-1])
    if c:
        u = _sub_unit(_add(i, j), alg.n)
        poly[u] = poly.get(u, 0) + c
    return {("dk", u): Fraction(c) for u, c in poly.items() if c}


def _witt_bracket(alg, a, b):
    n, m = a[1], b[1]
    return _one_term(e(n + m), m - n)


def _virasoro_bracket(alg, a, b):
    if a == Z or b == Z:
        return {}
    out = _witt_bracket(alg, a, b)
    n = a[1]
    if n + b[1] == 0:
        lie_add(out, _one_term(Z, Fraction(n**3 - n, 12)))
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
    """Lie bracket [a, b] of two basis elements as a LieElement."""
    return _FAMILIES[alg.family].bracket(alg, a, b)


def bracket_lie(alg, u, v):
    """Bilinear extension of the bracket to Lie elements."""
    out = {}
    for a, ca in u.items():
        for b, cb in v.items():
            lie_add(out, bracket_basis(alg, a, b), ca * cb)
    return out


def lie_extreme(alg, v, sign):
    """Largest ("+") or smallest ("-") basis element of a Lie element."""
    pick = max if sign == "+" else min
    return pick(v, key=lambda b: order_key(alg, b))


def jacobi_residual(alg, a, b, c):
    """[[a,b],c] + [[b,c],a] + [[c,a],b]; zero iff Jacobi holds on a,b,c."""
    out = bracket_lie(alg, bracket_basis(alg, a, b), _one_term(c, 1))
    lie_add(out, bracket_lie(alg, bracket_basis(alg, b, c), _one_term(a, 1)))
    lie_add(out, bracket_lie(alg, bracket_basis(alg, c, a), _one_term(b, 1)))
    return out


# ---------------------------------------------------------------------------
# Component enumeration


def _compositions(total, n):
    """All length-n tuples of naturals summing to total, lexicographically."""
    if n == 1:
        if total >= 0:
            yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            yield (first,) + rest


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


def elements_in_window(alg, lo, hi):
    """All basis elements with degree in [lo, hi], sorted."""
    out = []
    for d in range(lo, hi + 1):
        out += enumerate_component(alg, d)
    return out


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
        kinds={"e": lambda alg, b: _int_field(b), "z": lambda alg, b: len(b) == 1},
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
        bracket=lambda alg, a, b: _w_bracket(alg.n, a[1], a[2], b[1], b[2]),
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
        kinds={"x": lambda alg, b: _int_field(b) and b[1] >= 1, "y": lambda alg, b: len(b) == 1},
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
        if tail.removeprefix("-").isdigit():
            return AlgebraSpec(family, int(tail))
    raise ValueError("unknown algebra name: %r" % (name,))


def algebra_to_str(alg):
    """Command-line name of an AlgebraSpec."""
    fam = _FAMILIES[alg.family]
    return fam.cli if fam.rank is None else "%s:%d" % (fam.cli, alg.n)
