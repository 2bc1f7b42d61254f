"""Decision procedures for extreme-leader sets and Dicksonian structure.

L+(M) collects the upper leaders of iterated brackets of M along tuples
of positive-degree elements whose iterated leader dominates that of every
smaller basis element; L-(M) is the mirror image.  Membership is decided
by exhausting the finitely many tuples with the right total degree, and
the dominance condition only needs checking against the finitely many
basis elements in M's own graded component (lower components are forced
by the grading).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebras import (
    bracket_basis,
    compare_basis,
    degree,
    element_to_str,
    elements_in_window,
    enumerate_component,
    lie_extreme,
    min_degree,
    order_key,
    validate_element,
)
from .poly import DTuple, MINUS, PLUS, d_leader

DEFAULT_MAX_GAP = 24


class DegreeGapExceeded(RuntimeError):
    """Requested tuple degree exceeds the configured safety limit."""


class ZeroLeader(ValueError):
    """Dominance condition queried for a tuple that annihilates M."""


@dataclass
class MembershipReport:
    """Outcome of a decision procedure, with evidence where available."""

    verdict: bool
    witness: DTuple | None = None
    failing: tuple | None = None
    notes: str = ""
    exceptions: tuple | None = None


def _iter_length(alg, rem, sign, slots, pools):
    """Tuples of `slots` entries with total degree rem, in entry-lex order.

    Each entry runs over its feasible degrees in ascending order and each
    degree's component in basis order; order_key leads with the degree,
    so this is entry-lex order.  pools holds the components by degree.
    """
    if slots == 1:
        degrees = (rem,)
    elif sign == PLUS:
        degrees = range(1, rem - slots + 2)
    else:
        degrees = range(rem + slots - 1, 0)
    for e in degrees:
        if e not in pools:
            pools[e] = enumerate_component(alg, e)
        for b in pools[e]:
            if slots == 1:
                yield (b,)
            else:
                for rest in _iter_length(alg, rem - e, sign, slots - 1, pools):
                    yield (b,) + rest


def iter_tuples(alg, d, sign, max_gap=DEFAULT_MAX_GAP):
    """All tuples of 𝔐-sign entries with total degree d, shortest first."""
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be '+' or '-'")
    if d == 0 or (d > 0) != (sign == PLUS):
        raise ValueError("degree %d incompatible with sign %r" % (d, sign))
    if abs(d) > max_gap:
        raise DegreeGapExceeded(
            "tuple degree %d exceeds safety limit %d" % (d, max_gap)
        )
    pools = {}
    for length in range(1, abs(d) + 1):
        for t in _iter_length(alg, d, sign, length, pools):
            yield DTuple(t, sign)


def tuple_space(alg, d, sign, max_gap=DEFAULT_MAX_GAP):
    """Materialized iter_tuples, in the canonical enumeration order."""
    return list(iter_tuples(alg, d, sign, max_gap))


def l_condition_holds(alg, M, t):
    """Whether the iterated leader of M along t dominates all rivals.

    For a "+" tuple: every basis element N < M with nonzero iterated
    bracket must have its upper leader strictly below that of M; mirrored
    for "-".  Only the finitely many N in M's graded component matter.
    """
    T = d_leader(alg, M, t)
    if T is None:
        raise ZeroLeader("tuple annihilates %s" % element_to_str(alg, M))
    kT = order_key(alg, T)
    want_less = t.sign == PLUS
    for N in enumerate_component(alg, degree(alg, M)):
        c = compare_basis(alg, N, M)
        if (want_less and c >= 0) or (not want_less and c <= 0):
            continue
        DN = d_leader(alg, N, t)
        if DN is None:
            continue
        kN = order_key(alg, DN)
        if (kN < kT) != want_less or kN == kT:
            return False
    return True


def iter_witnesses(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP):
    """Tuples t with iterated leader T and the dominance condition."""
    gap = degree(alg, T) - degree(alg, M)
    if gap == 0 or (gap > 0) != (sign == PLUS):
        return
    for t in iter_tuples(alg, gap, sign, max_gap):
        if d_leader(alg, M, t) == T and l_condition_holds(alg, M, t):
            yield t


def l_member(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP):
    """Decide T in L+(M) (sign "+") or T in L-(M) (sign "-")."""
    validate_element(alg, M)
    validate_element(alg, T)
    gap = degree(alg, T) - degree(alg, M)
    if gap == 0 or (gap > 0) != (sign == PLUS):
        return MembershipReport(False, notes="degree gap %d has the wrong sign" % gap)
    for t in iter_witnesses(alg, M, T, sign, max_gap):
        return MembershipReport(True, witness=t)
    return MembershipReport(False, notes="no tuple of degree %d works" % gap)


def is_member(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP):
    """Boolean form of l_member, decided afresh on every call."""
    return l_member(alg, M, T, sign, max_gap).verdict


# ---------------------------------------------------------------------------
# Leading-Dicksonian sequences


def check_leading_dicksonian(alg, pairs, max_gap=DEFAULT_MAX_GAP):
    """Verify the defining conditions of a leading-Dicksonian sequence.

    pairs is a sequence of (M, N) with M <= N.  Reports the first failing
    (i, j), 1-based, scanning i then j.
    """
    pairs = [tuple(p) for p in pairs]
    for idx, (M, N) in enumerate(pairs, start=1):
        validate_element(alg, M)
        validate_element(alg, N)
        if compare_basis(alg, M, N) > 0:
            return MembershipReport(
                False, failing=(idx, idx), notes="pair %d has M > N" % idx
            )
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i] == pairs[j]:
                return MembershipReport(
                    False, failing=(i + 1, j + 1), notes="duplicate pair"
                )
            if is_member(alg, pairs[i][0], pairs[j][0], MINUS, max_gap):
                return MembershipReport(
                    False,
                    failing=(i + 1, j + 1),
                    notes="%s in L-(%s)"
                    % (element_to_str(alg, pairs[j][0]), element_to_str(alg, pairs[i][0])),
                )
            if is_member(alg, pairs[i][1], pairs[j][1], PLUS, max_gap):
                return MembershipReport(
                    False,
                    failing=(i + 1, j + 1),
                    notes="%s in L+(%s)"
                    % (element_to_str(alg, pairs[j][1]), element_to_str(alg, pairs[i][1])),
                )
    return MembershipReport(True)


def search_leading_dicksonian(alg, degree_bound, length_bound, max_gap=DEFAULT_MAX_GAP):
    """Longest leading-Dicksonian sequence from pairs of elements with
    |degree| <= degree_bound, capped at length_bound.  Deterministic:
    depth-first in the canonical pair order, first maximal answer wins.
    """
    if degree_bound < 0 or length_bound < 0:
        raise ValueError("degree and length bounds must not be negative")
    elems = elements_in_window(alg, -degree_bound, degree_bound)
    pool = [
        (M, N)
        for M in elems
        for N in elems
        if compare_basis(alg, M, N) <= 0
    ]
    pool.sort(key=lambda p: (order_key(alg, p[0]), order_key(alg, p[1])))
    member = functools.cache(functools.partial(is_member, alg, max_gap=max_gap))

    def follows(prev, cand):
        return not (member(prev[0], cand[0], MINUS) or member(prev[1], cand[1], PLUS))

    best = []
    seen = set()

    def extend(seq, used, free):
        """used: bitmask of the pool indices in seq.  free: the parent's
        candidates, the pool indices (in pool order) whose pairs may follow
        every pair of seq but the last; narrowed here by the last pair."""
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        if len(seq) >= length_bound:
            return True
        if used in seen:
            return False
        seen.add(used)
        if seq:
            free = [j for j in free if not used >> j & 1 and follows(seq[-1], pool[j])]
        for idx in free:
            if extend(seq + [pool[idx]], used | 1 << idx, free):
                return True
        return False

    extend([], 0, range(len(pool)))
    return best


def dickson_check(points):
    """True iff no later point dominates an earlier one in N^n x {1..n}.

    A point is (vector, k); point j dominates point i only when both
    carry the same component index k and vector_j >= vector_i entrywise.
    A failing pair is reported 1-based as (i, j).
    """
    points = [(tuple(v), k) for v, k in points]
    if points:
        n = len(points[0][0])
        for v, k in points:
            if len(v) != n or not 1 <= k <= n or any(a < 0 for a in v):
                raise ValueError("bad lattice point: %r" % ((v, k),))
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            vi, ki = points[i]
            vj, kj = points[j]
            if ki == kj and all(a >= b for a, b in zip(vj, vi)):
                return MembershipReport(
                    False, failing=(i + 1, j + 1), notes="point %d dominates %d" % (j + 1, i + 1)
                )
    return MembershipReport(True, notes="antichain")


# ---------------------------------------------------------------------------
# Structural hypotheses on the algebra itself


def _window(window):
    lo, hi = window
    if lo > hi:
        raise ValueError("inverted degree window (%d, %d)" % (lo, hi))
    return lo, hi


def check_dagger(alg, window):
    """Check, on a degree window, the monomial-bracket hypothesis:

    (a) each bracket of basis elements is a scalar multiple of a basis
        element, and
    (b) for same-sign M1 < M2 and M with [M1,M], [M2,M] nonzero, the
        extreme leaders satisfy l([M1,M]) < l([M2,M]).
    """
    lo, hi = _window(window)
    elems = elements_in_window(alg, lo, hi)
    for a, b in itertools.combinations(elems, 2):
        br = bracket_basis(alg, a, b)
        if len(br) > 1:
            return MembershipReport(
                False,
                failing=(a, b),
                notes="[%s,%s] is not a scalar multiple of a basis element"
                % (element_to_str(alg, a), element_to_str(alg, b)),
            )
    for sign in (PLUS, MINUS):
        side = [
            b
            for b in elems
            if (degree(alg, b) > 0) == (sign == PLUS) and degree(alg, b) != 0
        ]
        for M in side:
            for M1, M2 in itertools.combinations(side, 2):
                b1 = bracket_basis(alg, M1, M)
                b2 = bracket_basis(alg, M2, M)
                if not b1 or not b2:
                    continue
                l1 = lie_extreme(alg, b1, sign)
                l2 = lie_extreme(alg, b2, sign)
                if compare_basis(alg, l1, l2) >= 0:
                    return MembershipReport(
                        False,
                        failing=(M1, M2, M),
                        notes="leaders of [%s,%s] and [%s,%s] are not ordered"
                        % (
                            element_to_str(alg, M1),
                            element_to_str(alg, M),
                            element_to_str(alg, M2),
                            element_to_str(alg, M),
                        ),
                    )
    return MembershipReport(True)


def check_cofinite_window(alg, M, window, max_gap=DEFAULT_MAX_GAP):
    """Windowed probe of cofiniteness of L+(M) u L-(M) in the basis.

    Collects the window elements in neither leader set (the exceptions).
    The verdict is a window-local judgement: on each side, either the
    exceptions stay strictly inside the window, or the window already
    reaches the algebra's least degree so nothing below is missed.
    """
    lo, hi = _window(window)
    validate_element(alg, M)
    dM = degree(alg, M)
    exceptions = []
    for T in elements_in_window(alg, lo, hi):
        dT = degree(alg, T)
        if dT > dM:
            ok = is_member(alg, M, T, PLUS, max_gap)
        elif dT < dM:
            ok = is_member(alg, M, T, MINUS, max_gap)
        else:
            ok = False
        if not ok:
            exceptions.append(T)
    if not exceptions:
        return MembershipReport(True, exceptions=())
    k = max(abs(degree(alg, t) - dM) for t in exceptions)
    floor = min_degree(alg)
    low_ok = (floor is not None and lo <= floor) or all(
        degree(alg, t) > lo for t in exceptions
    )
    high_ok = all(degree(alg, t) < hi for t in exceptions)
    return MembershipReport(
        low_ok and high_ok,
        exceptions=tuple(exceptions),
        notes="exceptions within degree distance %d of %s"
        % (k, element_to_str(alg, M)),
    )


# ---------------------------------------------------------------------------
# Per-family leader-set inclusions


def _indices_bounded(n, bound):
    return itertools.product(range(bound + 1), repeat=n)


def _gt(r, i):
    return all(a >= b for a, b in zip(r, i)) and r != i


def _claims_w(alg, tag, bound):
    n = alg.n
    for i in _indices_bounded(n, bound):
        for k in range(1, n + 1):
            prefix_zero = not any(i[:k - 1])
            if tag == "W_i" and prefix_zero:
                continue
            if tag == "W_ii" and not prefix_zero:
                continue
            M = ("w", i, k)
            for r in _indices_bounded(n, bound):
                if not _gt(r, i):
                    continue
                if tag == "W_ii":
                    if any(r[:k - 1]):
                        continue
                    if r[k - 1] == 2 * i[k - 1] - 1 and not (
                        i[k - 1] == 1 and any(i[j] for j in range(n) if j != k - 1)
                    ):
                        continue
                yield M, ("w", r, k)


def _claims_s(alg, tag, bound):
    n = alg.n
    for i in _indices_bounded(n, bound):
        if tag == "S_i":
            if i[0] != 0:
                continue
            M = ("sa", i)
            for r in _indices_bounded(n, bound):
                if _gt(r, i) and r[0] == 0:
                    yield M, ("sa", r)
        else:
            if i[0] < 1:
                continue
            for k in range(2, n + 1):
                M = ("sb", i, k)
                for r in _indices_bounded(n, bound):
                    if not _gt(r, i):
                        continue
                    if sum(r[1:]) - sum(i[1:]) == 1:
                        continue
                    # r = i + 1_1 has degree gap 1, so every tuple is a single
                    # entry, and on S_2 only SB[2,1;2] raises i_1 alone.
                    # Through S_2 = H_2 (SB[i;2] -> DH[i]) that bracket has
                    # coefficient 2*i_2 - i_1, zero when i_1 == 2*i_k: the
                    # exception that _claims_h drops for H_2.  For n > 2 the
                    # rule is kept per k; dropping instances only weakens it.
                    if r == (i[0] + 1,) + i[1:] and i[0] == 2 * i[k - 1]:
                        continue
                    if i[0] >= 2 and r[k - 1] * (r[0] - i[0] + 2) + 1 == i[0]:
                        continue
                    yield M, ("sb", r, k)


def _claims_h(alg, tag, bound):
    n = alg.n
    m = n // 2
    for i in _indices_bounded(n, bound):
        if not any(i):
            continue
        M = ("dh", i)
        for l in range(n):
            partner = l + m if l < m else l - m
            equal = i[l] == 2 * i[partner]
            if tag == "H_1" and equal:
                continue
            if tag == "H_2" and not (equal and i[l] != 0):
                continue
            rmin = 1 if tag == "H_1" else 2
            for r in range(rmin, bound - i[l] + 1):
                t = list(i)
                t[l] += r
                yield M, ("dh", tuple(t))


def _claims_k(alg, tag, bound):
    n = alg.n
    m = (n - 1) // 2
    for i in _indices_bounded(n, bound):
        M = ("dk", i)
        if tag == "K_1":
            for l in range(n - 1):
                partner = l + m if l < m else l - m
                equal = i[l] == 2 * i[partner]
                rmin = 2 if equal else 1
                if equal and i[l] == 0:
                    continue
                for r in range(rmin, bound - i[l] + 1):
                    t = list(i)
                    t[l] += r
                    yield M, ("dk", tuple(t))
        else:
            rmin = 2 if sum(i) == 2 else 1
            for r in range(rmin, bound - i[-1] + 1):
                t = list(i)
                t[-1] += r
                yield M, ("dk", tuple(t))


_LEMMA_FAMILIES = {
    "W_i": ("CartanW", _claims_w),
    "W_ii": ("CartanW", _claims_w),
    "S_i": ("SpecialS", _claims_s),
    "S_ii": ("SpecialS", _claims_s),
    "H_1": ("HamiltonianH", _claims_h),
    "H_2": ("HamiltonianH", _claims_h),
    "K_1": ("ContactK", _claims_k),
    "K_2": ("ContactK", _claims_k),
}


def verify_claimed_subset(alg, lemma, bound, max_gap=DEFAULT_MAX_GAP):
    """Machine-check a claimed inclusion of explicit elements in L+(M).

    Enumerates all (M, T) instances of the tagged claim with multi-index
    entries bounded by `bound` and decides each membership exactly.
    """
    if lemma not in _LEMMA_FAMILIES:
        raise ValueError("unknown lemma tag: %r" % (lemma,))
    if bound < 0:
        raise ValueError("bound must not be negative")
    family, gen = _LEMMA_FAMILIES[lemma]
    if alg.family != family:
        raise ValueError("lemma %s is about %s, not %s" % (lemma, family, alg.family))
    checked = 0
    failures = []
    for M, T in gen(alg, lemma, bound):
        checked += 1
        if not is_member(alg, M, T, PLUS, max_gap):
            failures.append((M, T))
    if failures:
        listed = "; ".join(
            "%s not in L+(%s)" % (element_to_str(alg, T), element_to_str(alg, M))
            for M, T in failures[:10]
        )
        return MembershipReport(
            False,
            failing=tuple(failures),
            notes="%d of %d claimed memberships failed: %s"
            % (len(failures), checked, listed),
        )
    return MembershipReport(True, notes="%d claimed memberships verified" % checked)
