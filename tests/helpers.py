"""Shared constants and small utilities for the test suite."""

import importlib.util
import os
import sys
from fractions import Fraction

import pytest

from gradedlie import AlgebraSpec, Polynomial, is_reduced_sequence, parse_poly
from gradedlie.algebras import degree, e, elements_in_window

WITT = AlgebraSpec("Witt")
WITT_POS = AlgebraSpec("WittPositive")
W1 = AlgebraSpec("CartanW1")
VIR = AlgebraSpec("Virasoro")
W2 = AlgebraSpec("CartanW", 2)
W3 = AlgebraSpec("CartanW", 3)
W4 = AlgebraSpec("CartanW", 4)
S2 = AlgebraSpec("SpecialS", 2)
S3 = AlgebraSpec("SpecialS", 3)
S4 = AlgebraSpec("SpecialS", 4)
H2 = AlgebraSpec("HamiltonianH", 2)
H4 = AlgebraSpec("HamiltonianH", 4)
K3 = AlgebraSpec("ContactK", 3)
SL2 = AlgebraSpec("LoopSl2")
EXD = AlgebraSpec("ExampleD")

ALL_ALGEBRAS = (WITT, WITT_POS, W1, VIR, W2, S2, H2, K3, SL2, EXD)

# A degree window per algebra inside which components are small enough
# for exhaustive enumeration.
WINDOWS = {
    WITT: (-4, 6),
    WITT_POS: (1, 6),
    W1: (-1, 6),
    VIR: (-4, 6),
    W2: (-1, 4),
    W3: (-1, 3),
    W4: (-1, 2),
    S2: (-1, 4),
    S3: (-1, 3),
    S4: (-1, 2),
    H2: (-1, 4),
    H4: (-1, 2),
    K3: (-2, 4),
    SL2: (-4, 6),
    EXD: (1, 6),
}


ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = os.path.join(ROOT, "scripts")


def load_script(name):
    """A fresh module of scripts/<name>.py; scripts/ goes on sys.path for passes.py."""
    if SCRIPTS not in sys.path:
        sys.path.insert(0, SCRIPTS)
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def script_fixture(name):
    """A module-scoped fixture `script` of load_script(name)."""
    return pytest.fixture(scope="module", name="script")(lambda: load_script(name))


def P(alg, s):
    """Parse a polynomial over the given algebra."""
    return parse_poly(alg, s)


def window_basis(alg, window=None):
    lo, hi = window if window is not None else WINDOWS[alg]
    return list(elements_in_window(alg, lo, hi))


def random_fraction(rng):
    num = rng.choice([n for n in range(-9, 10) if n != 0])
    return Fraction(num, rng.randint(1, 9))


def random_poly(alg, rng, pool=None, max_support=5, max_exp=3, max_vars=3):
    """Random nonzero polynomial with small support over a basis pool."""
    if pool is None:
        pool = window_basis(alg)
    out = Polynomial.zero(alg)
    for _ in range(rng.randint(1, max_support)):
        term = Polynomial.const(alg, random_fraction(rng))
        for b in rng.sample(pool, rng.randint(1, min(max_vars, len(pool)))):
            term = term * Polynomial.var(alg, b, exp=rng.randint(1, max_exp))
        out = out + term
    if out.is_zero():
        out = Polynomial.var(alg, rng.choice(pool))
    return out


def random_reduced_sequence(rng):
    """A random sequence over witt+ of one generator with upper leader e[1]
    and at most one with upper leader e[2], or None when the draw is not a
    reduced sequence."""
    f1 = Polynomial.zero(WITT_POS)
    d1 = rng.randint(2, 3)
    for j in range(d1 + 1):
        if j == d1 or rng.random() < 0.6:
            c = random_fraction(rng) if j < d1 else Fraction(rng.choice([1, 2, 3]))
            f1 = f1 + Polynomial.var(WITT_POS, e(1), c=c, exp=j) if j else f1 + Polynomial.const(WITT_POS, c)
    lam = [f1]
    if rng.random() < 0.6:
        d2 = rng.randint(1, 2)
        f2 = Polynomial.var(WITT_POS, e(2), exp=d2)
        for _ in range(rng.randint(0, 2)):
            term = Polynomial.const(WITT_POS, random_fraction(rng))
            term = term * Polynomial.var(WITT_POS, e(1), exp=rng.randint(0, d1 - 1))
            if rng.random() < 0.5:
                term = term * Polynomial.var(WITT_POS, e(2), exp=rng.randint(0, d2 - 1))
            f2 = f2 + term
        lam.append(f2)
    lam = tuple(f for f in lam if not f.is_constant())
    if not lam or not is_reduced_sequence(WITT_POS, lam):
        return None
    return lam


# The Cartan types' grading finer than the degree, defined here apart from
# the package's Family.grading, which the tests check against it.


def unit(n, k):
    return tuple(int(j == k - 1) for j in range(n))


def minus(i, *units):
    return tuple(a - sum(u[j] for u in units) for j, a in enumerate(i))


def halves(i, m, combine=lambda a, b: a - b):
    """(combine(i_l, i_(m+l)) for l <= m)."""
    return tuple(combine(i[l], i[m + l]) for l in range(m))


def multidegree(alg, b):
    """The Cartan types' grading finer than the degree: x^i d_k has
    i - 1_k in W_n and S_n, D_H(x^i) has (i_l - i_(m+l))_l and |i| - 2 in
    H_2m, D_K(x^i) has (i_l - i_(m+l))_l and its degree in K_(2m+1); every
    other element has its degree alone."""
    kind = b[0]
    if kind == "w":
        return minus(b[1], unit(alg.n, b[2]))
    if kind == "sa":
        return minus(b[1], unit(alg.n, 1))
    if kind == "sb":
        return minus(b[1], unit(alg.n, 1), unit(alg.n, b[2]))
    if kind == "dh":
        return halves(b[1], alg.n // 2) + (sum(b[1]) - 2,)
    if kind == "dk":
        return halves(b[1], alg.n // 2) + (degree(alg, b),)
    return (degree(alg, b),)


MULTIGRADED_WINDOWS = [
    ("cartan-w:2", (-1, 3)), ("cartan-w:3", (-1, 2)), ("special-s:2", (-1, 3)),
    ("special-s:3", (-1, 2)), ("hamiltonian:2", (-1, 3)), ("hamiltonian:4", (-1, 1)),
    ("contact:3", (-2, 2)), ("contact:5", (-2, 1)),
]
