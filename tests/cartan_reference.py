"""Reference structure constants for the Cartan types W_n, S_n, H_n, K_n.

These are the two-pass formulas the one-pass kernels of
gradedlie.algebras replace: each bracket term is made as a one-term Lie
element and summed into the result through lie_add, so terms that share
an index cancel or add there; an S_n bracket is the sum of the W_n
brackets of its operands' W_n terms, and its projection back to S_n walks
the d_k terms (k >= 2) in sorted order, subtracting each ShapeB element's
W_n expansion, before it reads the ShapeA terms from what is left.  The
tests compare the kernels with these on every pair of a window.
"""

from fractions import Fraction

from gradedlie.algebras import NotInSn, lie_add


def _add(i, j):
    return tuple(a + b for a, b in zip(i, j))


def _minus_unit(i, k):
    return i[: k - 1] + (i[k - 1] - 1,) + i[k:]


def _one_term(b, c):
    return {b: c} if c else {}


def _quotient(a, n):
    q = Fraction(a, n)
    return q.numerator if q.denominator == 1 else q


def w_bracket(n, i, k, j, m):
    """[x^i d_k, x^j d_m] in W_n."""
    out = {}
    c = j[k - 1]
    if c:
        lie_add(out, _one_term(("w", _minus_unit(_add(i, j), k), m), c))
    c = i[m - 1]
    if c:
        lie_add(out, _one_term(("w", _minus_unit(_add(i, j), m), k), -c))
    return out


def sn_expand(b):
    """An S_n basis element in W_n coordinates."""
    if b[0] == "sa":
        return {("w", b[1], 1): 1}
    _, i, k = b
    out = {}
    if i[k - 1]:
        out[("w", _minus_unit(i, k), 1)] = i[k - 1]
    if i[0]:
        lie_add(out, _one_term(("w", _minus_unit(i, 1), k), -i[0]))
    return out


def sn_project(v):
    """A W_n Lie element in the S_n basis; NotInSn if it is not in S_n."""
    rem = dict(v)
    out = {}
    for b in sorted([b for b in rem if b[2] >= 2]):
        c = rem.get(b)
        if not c:
            continue
        _, u, k = b
        i = (u[0] + 1,) + u[1:]
        coeff = _quotient(-c, i[0])
        out[("sb", i, k)] = coeff
        lie_add(rem, sn_expand(("sb", i, k)), -coeff)
    for b, c in sorted(rem.items()):
        _, u, k = b
        if k != 1 or u[0] != 0:
            raise NotInSn("element is not in S_n: residue %r" % (b,))
        out[("sa", u)] = c
    return {b: c for b, c in out.items() if c}


def s_bracket(n, a, b):
    """[a, b] in S_n: the W_n bracket of the expansions, projected back."""
    out = {}
    for (_, i, k), ca in sn_expand(a).items():
        for (_, j, m), cb in sn_expand(b).items():
            lie_add(out, w_bracket(n, i, k, j, m), ca * cb)
    return sn_project(out)


def symplectic(i, j, m):
    """{x^i, x^j} in the pairs (x_l, x_{m+l}), l <= m, as {exponent: coefficient}."""
    poly = {}
    for l in range(1, m + 1):
        c = i[m + l - 1] * j[l - 1] - i[l - 1] * j[m + l - 1]
        if c:
            u = _minus_unit(_minus_unit(_add(i, j), l), m + l)
            poly[u] = poly.get(u, 0) + c
    return poly


def h_bracket(n, a, b):
    """[DH[i], DH[j]] in H_n."""
    poly = symplectic(a[1], b[1], n // 2)
    return {("dh", u): c for u, c in poly.items() if c and any(u)}


def k_bracket(n, a, b):
    """[DK[i], DK[j]] in K_n."""
    i, j = a[1], b[1]
    poly = symplectic(i, j, (n - 1) // 2)
    c = i[-1] * sum(j[:-1]) - j[-1] * sum(i[:-1]) + 2 * (j[-1] - i[-1])
    if c:
        u = _minus_unit(_add(i, j), n)
        poly[u] = poly.get(u, 0) + c
    return {("dk", u): c for u, c in poly.items() if c}


def reference_bracket(alg, a, b):
    """[a, b] for basis elements a, b of a Cartan-type algebra."""
    if a[0] == "w":
        return w_bracket(alg.n, a[1], a[2], b[1], b[2])
    if a[0] == "dh":
        return h_bracket(alg.n, a, b)
    if a[0] == "dk":
        return k_bracket(alg.n, a, b)
    return s_bracket(alg.n, a, b)
