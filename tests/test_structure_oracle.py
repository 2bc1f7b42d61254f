"""Structure constants against a second implementation: vector fields.

x^i d_k of W_n is the polynomial vector field with x^i in its k-th slot,
and e_n of the Witt algebra (and of its subalgebras W_1 and Witt+) is
z^(n+1) d/dz.  The commutator of vector fields, computed by sympy, must
equal bracket_basis on a window of each algebra.  S_n, H_n and K_n are
not covered here.
"""

from fractions import Fraction

import pytest

from gradedlie import algebra_to_str, bracket_basis
from helpers import W1, W2, W3, WINDOWS, WITT, WITT_POS, window_basis

sympy = pytest.importorskip("sympy")


def field(b, xs):
    """The coefficient functions, one per variable, of a basis element."""
    if b[0] == "e":
        return [xs[0] ** (b[1] + 1)]
    _, i, k = b
    comps = [sympy.Integer(0)] * len(xs)
    comps[k - 1] = sympy.Mul(*(x**a for x, a in zip(xs, i)))
    return comps


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
