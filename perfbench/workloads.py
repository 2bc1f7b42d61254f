"""Seeded command lists of the three workloads.

A workload is a list of `Op`s, one pass; the benchmark repeats the pass
for the length of a run.  Each op carries the argv given to
`gradedlie.cli.main` (after `--format json`) and the check its output
must pass.  Inputs are made by this file from the seed alone; nothing
here imports `gradedlie`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import oracle as o


@dataclass
class Op:
    argv: list
    check: str  # "true", "false", "l_member", "dagger", "search", "reduce"
    args: tuple = ()

    @property
    def label(self):
        return " ".join(self.argv)


def _arg(text):
    """A polynomial argument the CLI does not take for an option: a
    leading '-' would be parsed as a flag, so prefix a space."""
    return " " + text if text.startswith("-") else text


# ---------------------------------------------------------------------------
# lemma: the paper's hypotheses on the Cartan types

LEMMAS = [
    ("cartan-w:2", "W_i", 3), ("cartan-w:2", "W_ii", 3),
    ("cartan-w:3", "W_i", 2), ("cartan-w:3", "W_ii", 2),
    ("special-s:2", "S_i", 3), ("special-s:2", "S_ii", 3),
    ("special-s:3", "S_i", 2), ("special-s:3", "S_ii", 1),
    ("hamiltonian:4", "H_1", 2),
    ("contact:3", "K_1", 2), ("contact:3", "K_2", 2),
]

JACOBI = [("special-s:3", -1, 2), ("contact:3", -2, 2), ("cartan-w:3", -1, 2)]

# Non-members derived by hand: at gap 1 the only entry is the degree-1
# element that raises i_1 alone, and its bracket coefficient i_1 - 2*i_2
# vanishes (S_2 ~ H_2); [e_1, e_1] = 0 in witt+.
NON_MEMBERS = [
    ("special-s:2", "SB[2,1;2]", "SB[3,1;2]"),
    ("hamiltonian:2", "DH[2,1]", "DH[3,1]"),
]

RANK_ONE = ["witt", "witt+", "w1", "virasoro"]


def _rank_one_query(rng):
    alg = rng.choice(RANK_ONE)
    sign = rng.choice([o.PLUS, o.MINUS]) if alg != "witt+" else o.PLUS
    elems = o.window(alg, 7)
    while True:
        M, T = rng.choice(elems), rng.choice(elems)
        gap = o.deg(T) - o.deg(M)
        if 0 < abs(gap) <= 7 and (gap > 0) == (sign == o.PLUS):
            return alg, M, T, sign


def lemma(seed):
    rng = random.Random(seed)
    ops = [Op(["--alg", a, "verify-lemma", tag, "--bound", str(b)], "true")
           for a, tag, b in LEMMAS]
    ops += [Op(["--alg", a, "jacobi-test", "--window", str(lo), str(hi), "--samples", "50",
                "--seed", str(rng.randrange(10**6))], "true") for a, lo, hi in JACOBI]
    ops += [Op(["--alg", a, "l-member", m, t], "false") for a, m, t in NON_MEMBERS]
    # z is central, so no bracket of it has a leader: each is false, at a
    # cost that doubles with the degree.
    queries = [("witt+", 1, 2, o.PLUS)] + [("virasoro", o.Z, k, o.PLUS) for k in (13, 14, 15)]
    queries += [_rank_one_query(rng) for _ in range(24)]
    for alg, M, T, sign in queries:
        argv = ["--alg", alg, "l-member", o.element_str(M), o.element_str(T)]
        ops.append(Op(argv + (["--minus"] if sign == o.MINUS else []), "l_member",
                      (alg, M, T, sign)))
    k = rng.randint(2, 5)
    ops.append(Op(["--alg", "virasoro", "check-dagger", "--window", str(-k), str(k)], "dagger"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# search: leading-Dicksonian search on the rank-one algebras

# (algebra, degree bound, length bound).  The two large searches exhaust
# their space and take most of the time; of the small ones, some exhaust a
# small space and some stop at the length bound.  A search has no input
# but these bounds, and bounds near these change its cost several-fold,
# so the list is fixed and the seed only orders it.  The small searches,
# which hold the median latency, run SMALL_REPEATS times a pass: a single
# 0.1 s command varies by a quarter from run to run on a shared host.
LARGE_SEARCHES = [("witt", 3, 20), ("witt+", 5, 30)]
SMALL_SEARCHES = [
    ("witt+", 6, 12), ("witt+", 7, 12), ("witt+", 9, 12), ("witt", 4, 10), ("virasoro", 3, 10),
    ("w1", 4, 30), ("witt", 2, 30),
]
SMALL_REPEATS = 3


def search(seed):
    picks = LARGE_SEARCHES + SMALL_SEARCHES * SMALL_REPEATS
    ops = [Op(["--alg", a, "search-dicksonian", "--degree-bound", str(d),
               "--length-bound", str(n)], "search", (a, d, n)) for a, d, n in picks]
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# reduce: partial and full reductions with certificates


def _fraction(rng):
    return Fraction(rng.choice([n for n in range(-9, 10) if n]), rng.randint(1, 9))


def random_poly(rng, pool, max_support, max_exp, max_vars=3):
    f = {}
    while not f:
        for _ in range(rng.randint(1, max_support)):
            pairs = [(b, rng.randint(1, max_exp))
                     for b in rng.sample(pool, rng.randint(1, min(max_vars, len(pool))))]
            f = o.padd(f, {o.mono(pairs): _fraction(rng)})
    return f


def _var(b, x=1, c=1):
    return {((b, x),) if x else (): Fraction(c)}


def reduced_sequence(rng):
    """Generators reduced by construction, as the acceptance criterion
    builds them: f1 in e_1 alone, and optionally f2 = e_2^d2 plus terms
    below both leader degrees, each with a factor e_1, so that f2's lower
    leader is e_1 too.  e_2 lies in neither leader set of e_1, since
    [e_1, e_1] = 0, and e_1 lies in neither leader set of e_1 or e_2."""
    low, high = 1, 2
    d1 = rng.randint(2, 3)
    f1 = _var(low, d1, rng.choice([1, 2, 3]))
    for j in range(d1):
        if rng.random() < 0.6:
            f1 = o.padd(f1, _var(low, j, _fraction(rng)))
    lam = [f1]
    if rng.random() < 0.6:
        d2 = rng.randint(1, 2)
        f2 = _var(high, d2)
        while low not in o.variables(f2):  # two terms may cancel
            f2 = _var(high, d2)
            for _ in range(rng.randint(1, 2)):
                term = o.pmul(_var(low, rng.randint(1, d1 - 1), _fraction(rng)),
                              _var(high, rng.randint(0, d2 - 1)))
                f2 = o.padd(f2, term)
        lam.append(f2)
    return lam


# Random inputs per algebra: g from `pool` with at most `support` terms
# and exponents up to `exp`; a partial reduction's generators from
# `gpool`, `gcount` of them at most, each with at most `gsupport` terms of
# at most two variables and exponents up to `gexp`.  The witt+ class is
# the acceptance criterion's.  On the two-sided algebras a partial
# reduction gets a single generator: with two, the + and - passes can
# hand variables back and forth while g grows without bound (see
# CHANGES.md), so those inputs are left out here, whatever the seed.
REDUCE_CLASSES = {
    "witt+": dict(pool=list(range(1, 7)), support=4, exp=2,
                  gpool=list(range(1, 7)), gcount=3, gsupport=2, gexp=2),
    "witt": dict(pool=list(range(-3, 5)), support=4, exp=2,
                 gpool=list(range(-3, 5)), gcount=1, gsupport=2, gexp=2),
    "virasoro": dict(pool=list(range(-3, 5)) + [o.Z], support=4, exp=2,
                     gpool=list(range(-3, 5)), gcount=1, gsupport=2, gexp=2),
}
# Per pass: (algebra, number of partial reductions, number of full ones).
REDUCE_MIX = [("witt+", 20, 12), ("witt", 12, 8), ("virasoro", 12, 8)]

# Growth cases on witt+, partial: g = c*(monomial) + c'*e_1^k by the one
# generator a*e_2^2*e_1 + b*e_2*e_1^2 + c*e_1^3.  Each variable e_n of the
# monomial, n > 2, lies in L+(e_2); its elimination multiplies g by powers
# of the two-term separant and brings in e_(n-1), the next offender, so g
# grows to hundreds or thousands of terms.  The seed draws the
# coefficients; the monomials are fixed, which fixes the size of each case.
GROWTH = [[(6, 4), (4, 2)], [(9, 4)], [(7, 6)]]


def reduce_inputs(rng, alg, full):
    p = REDUCE_CLASSES[alg]
    g = random_poly(rng, p["pool"], p["support"], p["exp"])
    if full:
        lam = reduced_sequence(rng)
    else:
        lam = [random_poly(rng, p["gpool"], p["gsupport"], p["gexp"], max_vars=2)
               for _ in range(rng.randint(1, p["gcount"]))]
    return g, lam


def growth_inputs(rng, pairs):
    f = {o.mono([(2, 2), (1, 1)]): _fraction(rng), o.mono([(2, 1), (1, 2)]): _fraction(rng),
         o.mono([(1, 3)]): _fraction(rng)}
    g = {o.mono(pairs): _fraction(rng), o.mono([(1, rng.randint(1, 3))]): _fraction(rng)}
    return g, [f]


def _reduce_op(alg, g, lam, full):
    argv = ["--alg", alg, "reduce", _arg(o.print_poly(g)), "--by"]
    argv += [_arg(o.print_poly(f)) for f in lam]
    return Op(argv + ([] if full else ["--partial"]), "reduce", (alg, g, lam, full))


def reduce(seed):
    rng = random.Random(seed)
    ops = []
    for alg, n_partial, n_full in REDUCE_MIX:
        for full in [False] * n_partial + [True] * n_full:
            ops.append(_reduce_op(alg, *reduce_inputs(rng, alg, full), full))
    for pairs in GROWTH:
        ops.append(_reduce_op("witt+", *growth_inputs(rng, pairs), False))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"lemma": lemma, "search": search, "reduce": reduce}
