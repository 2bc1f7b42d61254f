"""Acceptance suite: one test per release criterion.

Each criterion gets exactly one test function, so the verbose pytest
report carries one pass/fail line per criterion.
"""

import itertools
import random
import time

from gradedlie import (
    MINUS,
    PLUS,
    Polynomial,
    bracket_basis,
    cert_from_json,
    cert_to_json,
    check_cofinite_window,
    check_dagger,
    d_op,
    dickson_check,
    full_reduce,
    is_partially_reduced,
    is_reduced,
    jacobi_residual,
    parse_poly,
    partial_reduce,
    print_poly,
    verify_certificate,
    verify_claimed_subset,
)
from gradedlie.algebras import Z, degree, e, element_to_str, elements_in_window, order_key
from gradedlie.cli import main as cli_main
from gradedlie.leaders import is_member, iter_tuples, l_condition_holds
from gradedlie.poly import d_bracket, d_leader
from helpers import (
    ALL_ALGEBRAS,
    EXD,
    H2,
    H4,
    K3,
    S2,
    S3,
    S4,
    SL2,
    VIR,
    W1,
    W2,
    W3,
    W4,
    WITT,
    WITT_POS,
    random_fraction,
    random_poly,
    random_reduced_sequence,
)

# Certificates produced while checking the reduction contract, reused by
# the round-trip criterion.
GENERATED_CERTIFICATES = []


def _axiom_pool(alg):
    lo, hi = -4, 6
    pool = []
    for b in elements_in_window(alg, lo, hi):
        ok = all(
            max(part) <= 3 for part in b[1:] if isinstance(part, tuple) and part
        )
        if ok:
            pool.append(b)
    return pool


def test_criterion_01_lie_axioms():
    start = time.time()
    algebras = [WITT, WITT_POS, W1, VIR, SL2, EXD, W2, W3, W4, S2, S3, S4, H2, H4, K3]
    rng = random.Random(20260826)
    for alg in algebras:
        pool = _axiom_pool(alg)
        assert pool
        # Antisymmetry on all pairs when the pool is small, sampled otherwise.
        if len(pool) <= 120:
            pairs = itertools.combinations_with_replacement(pool, 2)
        else:
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(2000)]
        for a, b in pairs:
            ab = bracket_basis(alg, a, b)
            ba = bracket_basis(alg, b, a)
            assert ab == {m: -c for m, c in ba.items()}, (alg, a, b)
            d = degree(alg, a) + degree(alg, b)
            assert all(degree(alg, m) == d for m in ab), (alg, a, b)
        # Jacobi exhaustively when feasible, sampled otherwise.
        if len(pool) ** 3 <= 300000:
            triples = itertools.product(pool, pool, pool)
        else:
            triples = [
                (rng.choice(pool), rng.choice(pool), rng.choice(pool))
                for _ in range(1000)
            ]
        for a, b, c in triples:
            assert jacobi_residual(alg, a, b, c) == {}, (alg, a, b, c)
    # The mandated extra seeded random triples, spread over all algebras.
    for _ in range(1000):
        alg = rng.choice(algebras)
        pool = _axiom_pool(alg)
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert jacobi_residual(alg, a, b, c) == {}, (alg, a, b, c)
    assert time.time() - start < 60


def test_criterion_02_witt_leader_sets():
    for n in range(-3, 13):
        for i in range(-3, 13):
            expected = i > n and not (n == 1 and i == 2)
            assert is_member(WITT, e(n), e(i), PLUS) == expected, (n, i)


def _random_witt_poly(alg, rng, lo, hi):
    pool = [e(n) for n in range(lo, hi + 1) if alg.family == "Witt" or n >= 1]
    f = Polynomial.zero(alg)
    for _ in range(rng.randint(1, 5)):
        term = Polynomial.const(alg, random_fraction(rng))
        for b in rng.sample(pool, rng.randint(1, 3)):
            term = term * Polynomial.var(alg, b, exp=rng.randint(1, 3))
        f = f + term
    return f


def test_criterion_03_bracket_leader_decomposition():
    rng = random.Random(43)
    checked = 0
    for case in range(500):
        alg = WITT_POS if case % 2 == 0 else WITT
        f = _random_witt_poly(alg, rng, -8, 8)
        if f.is_constant():
            continue
        signs = (PLUS,) if alg is WITT_POS else (PLUS, MINUS)
        for sign in signs:
            ell = f.leader(sign)
            for gap in range(1, 5):
                d = gap if sign == PLUS else -gap
                for t in iter_tuples(alg, d, sign):
                    br = d_bracket(alg, ell, t)
                    if not br:
                        continue
                    if not l_condition_holds(alg, ell, t):
                        continue
                    T = d_leader(alg, ell, t)
                    alpha = br[T]
                    dtf = d_op(f, t)
                    h = dtf - Polynomial.var(alg, T, c=alpha) * f.separant(sign)
                    assert dtf.expand_in(T).keys() <= {0, 1}
                    if not h.is_constant():
                        kT = order_key(alg, T)
                        kh = order_key(alg, h.leader(sign))
                        assert (kh < kT) if sign == PLUS else (kh > kT), (f, t)
                    if not dtf.is_constant():
                        assert dtf.leader(sign) == T, (f, t)
                    checked += 1
    assert checked > 1000


def _leader_window_ok(alg, g, lam, remainder):
    if remainder.is_constant():
        return True
    keys_hi = [order_key(alg, f.leader(PLUS)) for f in lam]
    keys_lo = [order_key(alg, f.leader(MINUS)) for f in lam]
    if not g.is_constant():
        keys_hi.append(order_key(alg, g.leader(PLUS)))
        keys_lo.append(order_key(alg, g.leader(MINUS)))
    return (
        order_key(alg, remainder.leader(PLUS)) <= max(keys_hi)
        and order_key(alg, remainder.leader(MINUS)) >= min(keys_lo)
    )


def test_criterion_04_reduction_contract():
    start = time.time()
    rng = random.Random(44)
    pool = [e(n) for n in range(1, 7)]
    done_partial = done_full = 0
    while done_partial < 250:
        g = random_poly(WITT_POS, rng, pool=pool, max_support=4, max_exp=2)
        lam = tuple(
            random_poly(WITT_POS, rng, pool=pool, max_support=2, max_exp=2)
            for _ in range(rng.randint(1, 3))
        )
        if any(f.is_constant() for f in lam):
            continue
        remainder, cert = partial_reduce(WITT_POS, g, lam)
        assert is_partially_reduced(WITT_POS, remainder, lam)
        assert all(m.initial == 0 for m in cert.multipliers)
        assert verify_certificate(WITT_POS, cert)
        assert _leader_window_ok(WITT_POS, g, lam, remainder)
        GENERATED_CERTIFICATES.append(cert)
        done_partial += 1
    while done_full < 250:
        lam = random_reduced_sequence(rng)
        if lam is None:
            continue
        g = random_poly(WITT_POS, rng, pool=pool, max_support=4, max_exp=2)
        remainder, cert = full_reduce(WITT_POS, g, lam)
        assert is_reduced(WITT_POS, remainder, lam)
        assert verify_certificate(WITT_POS, cert)
        assert _leader_window_ok(WITT_POS, g, lam, remainder)
        GENERATED_CERTIFICATES.append(cert)
        done_full += 1
    assert time.time() - start < 300


def test_criterion_05_worked_reductions(capsys):
    code = cli_main(["--alg", "witt+", "reduce", "e[4]", "--by", "e[1]^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "remainder: 0\n"
        "multiplier[0]: initial^0 * sep+^1 * sep-^0  (generator e[1]^2)\n"
        "term: (1/2) * D_(e[3])(generator 0)\n"
    )
    code = cli_main(["--alg", "witt+", "reduce", "e[1]^3", "--by", "e[1]^2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (
        "remainder: 0\n"
        "multiplier[0]: initial^1 * sep+^0 * sep-^0  (generator e[1]^2)\n"
        "term: (e[1]) * id(generator 0)\n"
    )


def test_criterion_06_lemma_verifiers():
    cases = [
        (W2, "W_i", 3),
        (W2, "W_ii", 3),
        (W3, "W_i", 3),
        (W3, "W_ii", 3),
        (H2, "H_1", 3),
        (H2, "H_2", 6),
        (H4, "H_1", 3),
        (H4, "H_2", 4),
        (K3, "K_1", 2),
        (K3, "K_2", 2),
        (S2, "S_i", 3),
        (S2, "S_ii", 3),
    ]
    discrepancies = []
    for alg, tag, bound in cases:
        report = verify_claimed_subset(alg, tag, bound)
        if not report.verdict:
            pairs = "; ".join(
                "(%s, %s)" % (element_to_str(alg, M), element_to_str(alg, T))
                for M, T in report.failing
            )
            discrepancies.append("%s at bound %d: %s" % (tag, bound, pairs))
    assert not discrepancies, "claimed memberships rejected: " + " | ".join(discrepancies)


def _oracle_first_domination(points):
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            (vi, ki), (vj, kj) = points[i], points[j]
            if ki == kj and all(a >= b for a, b in zip(vj, vi)):
                return (i + 1, j + 1)
    return None


def test_criterion_07_dickson_oracle():
    rng = random.Random(45)
    for _ in range(1000):
        points = [
            (tuple(rng.randint(0, 8) for _ in range(3)), rng.randint(1, 3))
            for _ in range(rng.randint(1, 12))
        ]
        report = dickson_check(points)
        expected = _oracle_first_domination(points)
        assert report.verdict == (expected is None)
        assert report.failing == expected
    # Greedy antichain extension always terminates: the candidate pool is
    # finite under the entry cap, so the loop is bounded by its size.
    pool = [
        (vec, k)
        for vec in itertools.product(range(9), repeat=3)
        for k in (1, 2, 3)
    ]
    for seed in range(5):
        grng = random.Random(seed)
        order = pool[:]
        grng.shuffle(order)
        chain = []
        for p in order:
            trial = chain + [p]
            if _oracle_first_domination(trial) is None:
                chain.append(p)
        assert len(chain) <= len(pool)
        assert dickson_check(chain).verdict is True


def test_criterion_08_virasoro_cofiniteness():
    report = check_cofinite_window(VIR, Z, (-6, 6))
    assert report.verdict is False
    window = {Z} | {e(n) for n in range(-6, 7)}
    assert set(report.exceptions) == window
    for n in range(-4, 5):
        report = check_cofinite_window(VIR, e(n), (-6, 6))
        assert report.verdict is True, n
        assert len(report.exceptions) <= 4, n
        assert all(-6 < degree(VIR, t) < 6 for t in report.exceptions), n


def test_criterion_09_single_term_bracket_hypothesis():
    assert check_dagger(WITT, (-5, 5)).verdict is True
    assert check_dagger(W1, (-5, 5)).verdict is True
    assert check_dagger(SL2, (-5, 5)).verdict is True
    assert check_dagger(WITT_POS, (1, 6)).verdict is True
    assert check_dagger(EXD, (1, 6)).verdict is True
    report = check_dagger(VIR, (-5, 5))
    assert report.verdict is False
    a, b = report.failing
    assert len(bracket_basis(VIR, a, b)) > 1
    assert Z in bracket_basis(VIR, a, b)


def test_criterion_10_round_trips():
    rng = random.Random(46)
    for _ in range(1000):
        alg = rng.choice(ALL_ALGEBRAS)
        f = random_poly(alg, rng)
        text = print_poly(f)
        assert parse_poly(alg, text) == f
        assert print_poly(parse_poly(alg, text)) == text
    assert GENERATED_CERTIFICATES, "reduction contract criterion must run first"
    for cert in GENERATED_CERTIFICATES:
        text = cert_to_json(cert)
        back = cert_from_json(text)
        assert cert_to_json(back) == text
        assert verify_certificate(cert.alg, back) == verify_certificate(cert.alg, cert)
