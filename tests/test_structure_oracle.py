"""Structure constants against a second implementation: vector fields.

x^i d_k of W_n is the polynomial vector field with x^i in its k-th slot,
and e_n of the Witt algebra (and of its subalgebras W_1 and Witt+) is
z^(n+1) d/dz.  The commutator of vector fields, computed by sympy, must
equal bracket_basis on a window of each algebra.

The other Cartan types are fields too, each compared on a window:

- S_n: an element is the W_n field of sn_expand, and each of them has
  divergence zero.
- H_n, n = 2m: DH[i] is the Hamiltonian field of x^i for the pairing
  (x_l, x_{m+l}), D_H(f) = sum_l (d_l f d_{m+l} - d_{m+l} f d_l) (Kac
  1968).  The package's bracket is that of the opposite pairing:
  [DH[i], DH[j]] is DH of sum_l (d_{m+l} f d_l g - d_l f d_{m+l} g), the
  negative of {x^i, x^j} for D_H.  So DH[i] -> D_H(x^i) is an
  anti-homomorphism, D_H([a, b]) = -[D_H(a), D_H(b)], and that is what is
  tested.
- K_n, n = 2m + 1: DK[i] is the contact field K(x^i) of the form
  dx_n + sum_l (x_{m+l} dx_l - x_l dx_{m+l}), normalised by
  alpha(K(f)) = 2f: its slot n is 2f - sum_(i<n) x_i d_i f, and its slot
  i < n is x_i d_n f plus slot i of -D_H(f).  With the pairing so
  oriented, DK[i] -> K(x^i) is a homomorphism.
"""

from fractions import Fraction

import pytest

from gradedlie import algebra_to_str, bracket_basis
from gradedlie.algebras import sn_expand
from helpers import H2, H4, K3, S2, S3, W1, W2, W3, WINDOWS, WITT, WITT_POS, window_basis

sympy = pytest.importorskip("sympy")


def field(b, xs):
    """The coefficient functions, one per variable, of a basis element."""
    if b[0] == "e":
        return [xs[0] ** (b[1] + 1)]
    _, i, k = b
    comps = [sympy.Integer(0)] * len(xs)
    comps[k - 1] = monomial(i, xs)
    return comps


def monomial(i, xs):
    return sympy.Mul(*(x**a for x, a in zip(xs, i)))


def commutator(u, v, xs):
    """[u, v] = u(v) - v(u), slot by slot."""
    return [
        sympy.expand(sum(u[j] * sympy.diff(v[m], x) - v[j] * sympy.diff(u[m], x)
                         for j, x in enumerate(xs)))
        for m in range(len(xs))
    ]


def to_basis(vector, xs):
    """The Lie element of a vector field whose slots are Laurent polynomials."""
    out = {}
    for m, comp in enumerate(vector):
        for term in sympy.Add.make_args(comp):
            if term == 0:
                continue
            c, mono = term.as_coeff_Mul()
            powers = mono.as_powers_dict()
            u = tuple(int(powers.get(x, 0)) for x in xs)
            b = ("e", u[0] - 1) if len(xs) == 1 else ("w", u, m + 1)
            out[b] = Fraction(int(c.p), int(c.q))
    return out


@pytest.mark.parametrize("alg", [WITT, WITT_POS, W1, W2, W3], ids=algebra_to_str)
def test_brackets_are_commutators_of_vector_fields(alg):
    pool = window_basis(alg, (-1, 2) if alg == W3 else WINDOWS[alg])
    xs = sympy.symbols("x1:%d" % ((alg.n or 1) + 1))
    fields = {b: field(b, xs) for b in pool}
    for a in pool:
        for b in pool:
            assert bracket_basis(alg, a, b) == to_basis(commutator(fields[a], fields[b], xs), xs), (
                a, b)


def s_field(alg, b, xs):
    """An S_n element as the W_n field of its sn_expand terms."""
    comps = [sympy.Integer(0)] * len(xs)
    for (_, i, k), c in sn_expand(alg, b).items():
        comps[k - 1] += c * monomial(i, xs)
    return comps


def hamiltonian_field(f, xs):
    """D_H(f) = sum_l (d_l f d_{m+l} - d_{m+l} f d_l)."""
    m = len(xs) // 2
    comps = [sympy.Integer(0)] * len(xs)
    for l in range(m):
        comps[l] = -sympy.diff(f, xs[m + l])
        comps[m + l] = sympy.diff(f, xs[l])
    return comps


def contact_field(f, xs):
    """K(f) for dx_n + sum_l (x_{m+l} dx_l - x_l dx_{m+l}), alpha(K(f)) = 2f."""
    *ys, t = xs
    df = sympy.diff(f, t)
    comps = [x * df - h for x, h in zip(ys, hamiltonian_field(f, ys))]
    return comps + [2 * f - sum(x * sympy.diff(f, x) for x in ys)]


def h_field(alg, b, xs):
    return hamiltonian_field(monomial(b[1], xs), xs)


def k_field(alg, b, xs):
    return contact_field(monomial(b[1], xs), xs)


# (algebra, window, the field of a basis element, the sign s of
# field([a, b]) = s [field(a), field(b)])
FIELDS = [
    (S2, (-1, 3), s_field, 1),
    (S3, (-1, 1), s_field, 1),
    (H2, (-1, 3), h_field, -1),
    (H4, (-1, 1), h_field, -1),
    (K3, (-2, 2), k_field, 1),
]


@pytest.mark.parametrize("alg, window, of, sign", FIELDS,
                         ids=[algebra_to_str(f[0]) for f in FIELDS])
def test_s_h_and_k_brackets_are_commutators_of_their_fields(alg, window, of, sign):
    pool = window_basis(alg, window)
    xs = sympy.symbols("x1:%d" % (alg.n + 1))
    fields = {b: of(alg, b, xs) for b in pool}
    assert all(any(sympy.expand(c) != 0 for c in u) for u in fields.values())
    for a in pool:
        for b in pool:
            want = [sympy.Integer(0)] * len(xs)
            for c, coeff in bracket_basis(alg, a, b).items():
                want = [v + sign * sympy.Rational(coeff.numerator, coeff.denominator) * u
                        for v, u in zip(want, of(alg, c, xs))]
            got = commutator(fields[a], fields[b], xs)
            assert all(sympy.expand(u - v) == 0 for u, v in zip(got, want)), (a, b)


@pytest.mark.parametrize("alg", [S2, S3], ids=algebra_to_str)
def test_special_fields_have_divergence_zero(alg):
    xs = sympy.symbols("x1:%d" % (alg.n + 1))
    for b in window_basis(alg):
        u = s_field(alg, b, xs)
        assert sympy.expand(sum(sympy.diff(c, x) for c, x in zip(u, xs))) == 0, b
