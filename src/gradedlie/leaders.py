"""Decision procedures for extreme-leader sets and Dicksonian structure.

L+(M) collects the upper leaders of iterated brackets of M along tuples
of positive-degree elements whose iterated leader dominates that of every
smaller basis element; L-(M) is the mirror image.  Membership is decided
by exhausting the finitely many tuples with the right total degree, and
on the Cartan types, whose grading is finer than the degree, only those
whose entries' multidegrees sum to mdeg(T) - mdeg(M): no other tuple can
lead M to T.  The dominance condition only needs checking against the
finitely many basis elements in M's own graded component (lower
components are forced by the grading).

The decisions of one public call share one _Table: the graded components
it enumerates, with their elements' multidegrees, and, per component and
tuple t, the running extreme of the rivals' iterated leaders along t.
Dominance of M along t is then one comparison with that row.  A table
lives for one call only; nothing is kept between calls.
l_condition_holds answers one tuple through a fresh table by the same
comparison, so the package has one dominance test.
"""

from __future__ import annotations

import functools
import itertools
from operator import sub
from typing import NamedTuple

from .algebras import (
    _lowest_degree,
    _window,
    bracket_basis,
    compare_basis,
    degree,
    element_to_str,
    elements_in_window,
    enumerate_component,
    lie_extreme,
    min_degree,
    multigrading,
    order_key,
    validate_element,
)
from .poly import DTuple, MINUS, PLUS, _d_leader, _trusted_dtuple, d_leader

DEFAULT_MAX_GAP = 24


class DegreeGapExceeded(RuntimeError):
    """Requested tuple degree exceeds the configured safety limit."""


class ZeroLeader(ValueError):
    """Dominance condition queried for a tuple that annihilates M."""


class MembershipReport(NamedTuple):
    """Outcome of a decision procedure, with evidence where available."""

    verdict: bool
    witness: DTuple | None = None
    failing: tuple | None = None
    notes: str = ""
    exceptions: tuple | None = None


def _check_sign(sign):
    """Refuse a sign other than PLUS and MINUS."""
    if sign not in (PLUS, MINUS):
        raise ValueError("sign must be '+' or '-'")


class _Table:
    """What the decisions of one public call share, for that call only.

    components maps a degree to its enumerate_component list: a decision
    finds M's rivals in it.  runs maps a signed bound k to the cells
    (b, d, mdeg b) of the components of degrees d = 1..k (k > 0) or k..-1
    (k < 0), in ascending degree, mdeg b being b's multidegree under the
    family's grading (None where the degree is the only grading): the
    candidates of an iter_tuples entry before the last.  index maps a
    degree to its elements grouped by multidegree, each group in basis
    order: the candidates of a last entry that must bring its tuple to a
    target multidegree.
    rows maps (degree d, entries of a tuple t) to the row of d's component
    along t: row[j] is the extreme order key (the largest for sign "+",
    the smallest for "-") of the nonzero iterated leaders along t of the j
    component elements nearest the bottom ("+") or the top ("-"), None
    while there is none.  A row is extended only as far as a decision asks.
    """

    __slots__ = ("alg", "grading", "components", "runs", "index", "rows")

    def __init__(self, alg):
        self.alg = alg
        self.grading = multigrading(alg)
        self.components = {}
        self.runs = {}
        self.index = {}
        self.rows = {}

    def component(self, d, need=None):
        """The elements of degree d in basis order; given a multidegree
        need, only those of that multidegree."""
        if need is None:
            comp = self.components.get(d)
            if comp is None:
                comp = self.components[d] = enumerate_component(self.alg, d)
            return comp
        groups = self.index.get(d)
        if groups is None:
            groups = self.index[d] = {}
            for b in self.component(d):
                groups.setdefault(self.grading(self.alg, b), []).append(b)
        return groups.get(need, ())

    def run(self, k):
        run = self.runs.get(k)
        if run is None:
            alg, grading = self.alg, self.grading
            run = self.runs[k] = [(b, e, grading and grading(alg, b))
                                  for e in (range(1, k + 1) if k > 0 else range(k, 0))
                                  for b in self.component(e)]
        return run

    def rivals(self, M, sign):
        """The number of M's rivals: the elements of M's component below M
        ("+") or above it ("-"), which dominates takes as its count."""
        comp = self.component(degree(self.alg, M))
        at = comp.index(M)
        return at if sign == PLUS else len(comp) - 1 - at

    def dominates(self, d, count, kT, t):
        """Whether the order key kT lies strictly beyond, on t's side, the
        iterated leader along t of each of the first `count` elements of
        row (d, t) that has one.  The row only moves towards kT as it
        grows, so a failing prefix settles the answer."""
        if not count:
            return True
        plus = t.sign == PLUS
        row = self.rows.get((d, t.entries))
        if row is None:
            row = self.rows[d, t.entries] = [None]
        comp = self.components[d]
        while True:
            k = row[min(count, len(row) - 1)]
            if k is not None and (k >= kT if plus else k <= kT):
                return False
            if len(row) > count:
                return True
            DN = _d_leader(self.alg, comp[len(row) - 1] if plus else comp[-len(row)], t)
            if DN is not None:
                kN = order_key(self.alg, DN)
                if k is None or (kN > k if plus else kN < k):
                    k = kN
            row.append(k)


def iter_tuples(alg, d, sign, max_gap=DEFAULT_MAX_GAP, *, table=None, target=None):
    """All tuples of 𝔐-sign entries with total degree d, shortest first,
    then entry-lex (order_key leads with the degree, so each entry runs
    over its feasible degrees in ascending order and each degree's
    component in basis order).  Given a target multidegree, on a family
    with a grading finer than the degree, only the tuples whose entries'
    multidegrees sum to target, in the same order.

    One walk over an explicit stack: stack[i] holds entry i's candidates
    from the table's runs, with the degree (and, given a target, the
    multidegree) that the entries before it leave.  The last entry's
    degree is then fixed, and it is drawn from that degree's component,
    or from its index group of the multidegree left.  Every entry comes
    from a component of the table (a fresh one if table is None), at a
    degree of the sign, so the tuples are made without checking them
    again."""
    _check_sign(sign)
    if type(d) is not int:
        raise ValueError("tuple degree must be an int, not %r" % (d,))
    if d == 0 or (d > 0) != (sign == PLUS):
        raise ValueError("degree %d incompatible with sign %r" % (d, sign))
    if abs(d) > max_gap:
        raise DegreeGapExceeded(
            "tuple degree %d exceeds safety limit %d" % (d, max_gap)
        )
    if table is None:
        table = _Table(alg)
    if target is not None and table.grading is None:
        raise ValueError("%s has no grading finer than the degree" % (alg,))
    run, component = table.run, table.component
    for b in component(d, target):
        yield _trusted_dtuple(alg, (b,), sign)
    step = 1 if sign == PLUS else -1
    for length in range(2, abs(d) + 1):
        top = length - 2  # the last entry before the last
        entries = [None] * length
        stack = [(iter(run(d - step * (top + 1))), d, target)]
        while stack:
            i = len(stack) - 1
            it, rem, need = stack[i]
            for b, e, m in it:
                entries[i] = b
                left = need and tuple(map(sub, need, m))
                if i < top:
                    stack.append((iter(run(rem - e - step * (top - i))), rem - e, left))
                    break
                for c in component(rem - e, left):
                    entries[-1] = c
                    yield _trusted_dtuple(alg, tuple(entries), sign)
            else:
                stack.pop()


def l_condition_holds(alg, M, t):
    """Whether the iterated leader of M along t dominates all rivals.

    For a "+" tuple: every basis element N < M with nonzero iterated
    bracket must have its upper leader strictly below that of M; mirrored
    for "-".  Only the finitely many N in M's graded component matter.
    """
    T = d_leader(alg, M, t)
    if T is None:
        raise ZeroLeader("tuple annihilates %s" % element_to_str(alg, M))
    table = _Table(alg)
    return table.dominates(degree(alg, M), table.rivals(M, t.sign), order_key(alg, T), t)


def iter_witnesses(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP):
    """Tuples t with iterated leader T and the dominance condition, in
    iter_tuples order.  The sign, M and T are checked first."""
    _check_sign(sign)
    validate_element(alg, M)
    validate_element(alg, T)
    yield from _witnesses(_Table(alg), M, T, sign, max_gap)


def _witnesses(table, M, T, sign, max_gap):
    """iter_witnesses for checked M, T and sign, through table.  On a
    family with a grading finer than the degree, D_t(M) is homogeneous of
    multidegree mdeg(M) plus the entries' multidegrees, so only the tuples
    whose entries sum to mdeg(T) - mdeg(M) are walked.  M's rivals are
    counted, and T's order key taken, once: the first time a tuple's
    leader is T."""
    alg = table.alg
    dM = degree(alg, M)
    gap = degree(alg, T) - dM
    if gap == 0 or (gap > 0) != (sign == PLUS):
        return
    grading = table.grading
    target = grading and tuple(map(sub, grading(alg, T), grading(alg, M)))
    count = None
    for t in iter_tuples(alg, gap, sign, max_gap, table=table, target=target):
        if d_leader(alg, M, t) == T:
            if count is None:
                count = table.rivals(M, sign)
                kT = order_key(alg, T)
            if table.dominates(dM, count, kT, t):
                yield t


def l_member(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP, *, table=None):
    """Decide T in L+(M) (sign "+") or T in L-(M) (sign "-").  The sign, M
    and T are checked, and the witness is the first tuple of _witnesses;
    the decision shares the table (a fresh one if table is None) with the
    others of the caller."""
    _check_sign(sign)
    validate_element(alg, M)
    validate_element(alg, T)
    for t in _witnesses(_Table(alg) if table is None else table, M, T, sign, max_gap):
        return MembershipReport(True, witness=t)
    gap = degree(alg, T) - degree(alg, M)
    if gap == 0 or (gap > 0) != (sign == PLUS):
        return MembershipReport(False, notes="degree gap %d has the wrong sign" % gap)
    return MembershipReport(False, notes="no tuple of degree %d works" % gap)


def is_member(alg, M, T, sign, max_gap=DEFAULT_MAX_GAP, *, table=None):
    """Boolean form of l_member; each call decides, through the caller's table."""
    return l_member(alg, M, T, sign, max_gap, table=table).verdict


# ---------------------------------------------------------------------------
# Leading-Dicksonian sequences


def check_leading_dicksonian(alg, pairs, max_gap=DEFAULT_MAX_GAP):
    """Verify the defining conditions of a leading-Dicksonian sequence.

    pairs is a nonempty sequence of (M, N) with M <= N.  Reports the first
    failing (i, j), 1-based, scanning i then j.  Its decisions share one
    table.
    """
    pairs = [tuple(p) for p in pairs]
    if not pairs:
        raise ValueError("empty pair sequence")
    for idx, (M, N) in enumerate(pairs, start=1):
        validate_element(alg, M)
        validate_element(alg, N)
        if compare_basis(alg, M, N) > 0:
            return MembershipReport(
                False, failing=(idx, idx), notes="pair %d has M > N" % idx
            )
    table = _Table(alg)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i] == pairs[j]:
                return MembershipReport(
                    False, failing=(i + 1, j + 1), notes="duplicate pair"
                )
            for side, sign in ((0, MINUS), (1, PLUS)):
                M, T = pairs[i][side], pairs[j][side]
                if is_member(alg, M, T, sign, max_gap, table=table):
                    return MembershipReport(
                        False,
                        failing=(i + 1, j + 1),
                        notes="%s in L%s(%s)"
                        % (element_to_str(alg, T), sign, element_to_str(alg, M)),
                    )
    return MembershipReport(True)


def search_leading_dicksonian(alg, degree_bound, length_bound, max_gap=DEFAULT_MAX_GAP):
    """Longest leading-Dicksonian sequence from pairs of elements with
    |degree| <= degree_bound, capped at length_bound.  Deterministic:
    depth-first in the canonical pair order, first maximal answer wins.
    Exact branch and bound: a node is cut when a greedy colouring of its
    candidates shows that no extension of it can beat the best sequence
    found so far (Carraghan & Pardalos 1990), with sets of pool pairs held
    as int bitmasks (San Segundo et al. 2011).  Each membership row is
    decided on first use, and all of them share one table.  The first row
    spans the window, so with a length bound of 2 or more a window wider
    than max_gap degrees is refused up front.  A length bound of 1 decides
    nothing: the answer is the first pair, the window's least element
    twice, read without enumerating the window."""
    first = _lowest_degree(alg, -degree_bound)
    if first > degree_bound or length_bound <= 0:
        raise ValueError("search needs a nonempty degree window and a positive length bound")
    if length_bound == 1:
        least = enumerate_component(alg, first)[0]
        return [(least, least)]
    if degree_bound - first > max_gap:
        raise DegreeGapExceeded("degree window (%d, %d) spans more than the safety limit %d"
                                % (-degree_bound, degree_bound, max_gap))
    elems = elements_in_window(alg, -degree_bound, degree_bound)
    n = len(elems)
    table = _Table(alg)
    pool = [(i, j) for i in range(n) for j in range(i, n)]
    full = (1 << len(pool)) - 1
    # firsts[k], seconds[k]: the pool pairs whose M, whose N, is elems[k].
    firsts, seconds = [0] * n, [0] * n
    for r, (k, l) in enumerate(pool):
        firsts[k] |= 1 << r
        seconds[l] |= 1 << r

    def spread(mask, by):
        """The pool pairs whose M (by=firsts) or N (by=seconds) is in the
        n-bit element mask."""
        return sum(by[k] for k in range(n) if mask >> k & 1)

    @functools.cache
    def row(i, sign):
        """n-bit mask of the elements before elems[i] in L-(elems[i])
        (MINUS), or after it in L+(elems[i]) (PLUS); only these can be members."""
        span = range(i) if sign == MINUS else range(i + 1, n)
        return sum(1 << k for k in span
                   if is_member(alg, elems[i], elems[k], sign, max_gap, table=table))

    @functools.cache
    def follows(q):
        """The pool pairs that may follow pair q."""
        i, j = pool[q]
        return full & ~(spread(row(i, MINUS), firsts) | spread(row(j, PLUS), seconds))

    @functools.cache
    def adjacency():
        """adj[q]: the pool pairs that may follow pair q or that q may follow."""
        # barred[i]: the pool pairs that a pair whose M (resp. N) is elems[i]
        # may not follow, because elems[i] is in L- of their M (L+ of their N).
        barred_m = [spread(sum(1 << k for k in range(n) if row(k, MINUS) >> i & 1), firsts)
                    for i in range(n)]
        barred_n = [spread(sum(1 << k for k in range(n) if row(k, PLUS) >> i & 1), seconds)
                    for i in range(n)]
        return [follows(q) | full & ~(barred_m[i] | barred_n[j]) for q, (i, j) in enumerate(pool)]

    def colours(free):
        """Classes of a greedy colouring of free, lowest bit first: no two
        pairs of a class can share a sequence, in either order."""
        adj = adjacency()
        count = 0
        while free:
            count += 1
            avail = free
            while avail:
                low = avail & -avail
                free ^= low
                avail &= ~(adj[low.bit_length() - 1] | low)
        return count

    best = []

    def extend(seq, free):
        """free: the unused pairs that may follow every pair of seq but its
        last, which this node applies after the length-bound check.  An
        extension takes at most one pair of each colour class of free, so
        at most colours(free) <= free.bit_count() pairs; the count is tried
        first.  On a first descent (room <= 0) no cut is possible."""
        nonlocal best
        if len(seq) > len(best):
            best = seq
        if len(seq) >= length_bound:
            return True
        if seq:
            free &= follows(seq[-1])
        room = len(best) - len(seq)
        if room > 0 and (free.bit_count() <= room or colours(free) <= room):
            return False
        rest = free
        while rest:
            low = rest & -rest
            if extend(seq + [low.bit_length() - 1], free & ~low):
                return True
            rest ^= low
        return False

    extend([], full)
    return [(elems[pool[q][0]], elems[pool[q][1]]) for q in best]


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


def check_dagger(alg, window, max_gap=DEFAULT_MAX_GAP):
    """Check, on a degree window, the monomial-bracket hypothesis:

    (a) each bracket of basis elements is a scalar multiple of a basis
        element, and
    (b) for same-sign M1 < M2 and M with [M1,M], [M2,M] nonzero, the
        extreme leaders satisfy l([M1,M]) < l([M2,M]).

    For each M, (b) is checked on adjacent pairs only: the leaders must
    rise strictly along the M1 whose bracket with M is nonzero, which by
    transitivity covers every pair.  A failure of (b) reports the first
    adjacent pair that breaks the rule, as (M1, M2, M).  A window spanning
    more than max_gap degrees is refused up front.
    """
    elems = _window(alg, window, 2, max_gap)
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
            M1 = l1 = None  # the last M1 with [M1,M] nonzero, and l([M1,M])
            for M2 in side:
                br = bracket_basis(alg, M2, M)
                if not br:
                    continue
                l2 = lie_extreme(alg, br, sign)
                if M1 is not None and compare_basis(alg, l1, l2) >= 0:
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
                M1, l1 = M2, l2
    return MembershipReport(True)


def check_cofinite_window(alg, M, window, max_gap=DEFAULT_MAX_GAP):
    """Windowed probe of cofiniteness of L+(M) u L-(M) in the basis.

    Collects the window elements in neither leader set (the exceptions).
    The verdict is a window-local judgement: on each side, either the
    exceptions stay strictly inside the window, or the window already
    reaches the algebra's least degree so nothing below is missed.  A
    window holding an element more than max_gap away from M's degree is
    refused up front; every degree from the least one up has an element.
    The decisions share one table.
    """
    lo, hi = window
    validate_element(alg, M)
    dM = degree(alg, M)
    first = _lowest_degree(alg, lo)
    if first <= hi and (first < dM - max_gap or hi > dM + max_gap):
        raise DegreeGapExceeded(
            "window (%d, %d) holds elements more than %d degrees from %s"
            % (lo, hi, max_gap, element_to_str(alg, M))
        )
    elems = _window(alg, window, 1)
    table = _Table(alg)
    exceptions = []
    for T in elems:
        # At M's own degree the gap is 0, and l_member answers false on either sign.
        sign = PLUS if degree(alg, T) > dM else MINUS
        if not is_member(alg, M, T, sign, max_gap, table=table):
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


def _above(i, bound):
    """Every r >= i entrywise with r != i and entries up to bound, in lex order."""
    ranges = [range(a, bound + 1) for a in i]
    return itertools.islice(itertools.product(*ranges), 1, None)  # i comes first


def _raises(i, bound):
    """i raised in one entry l by a >= 1 up to bound, by l and then by a."""
    for l, a in enumerate(i):
        for b in range(a + 1, bound + 1):
            yield i[:l] + (b,) + i[l + 1:]


def _raise(n, i, r):
    """(l, a, twice) for r that raises entry l of i by a, where twice tells
    whether i_l is twice its partner's, i_(l+m) or i_(l-m) for m = n // 2
    (false on K_n's last entry, which has no partner)."""
    m = n // 2
    for l, (x, y) in enumerate(zip(i, r)):
        if x != y:
            return l, y - x, l < 2 * m and i[l] == 2 * i[(l + m) % (2 * m)]


def _w_ii(n, i, k, r):
    if any(i[:k - 1]) or any(r[:k - 1]):
        return False
    return r[k - 1] != 2 * i[k - 1] - 1 or (i[k - 1] == 1 and any(i[k:]))


def _s_ii(n, i, k, r):
    if i[0] < 1 or sum(r[1:]) - sum(i[1:]) == 1:
        return False
    # r = i + 1_1 has degree gap 1, so every tuple is a single entry, and
    # on S_2 only SB[2,1;2] raises i_1 alone.  Through S_2 = H_2
    # (SB[i;2] -> DH[i]) that bracket has coefficient 2*i_2 - i_1, zero
    # when i_1 == 2*i_k: the raise by 1 that neither H_1 nor H_2 claims.
    # For n > 2 the rule is kept per k; dropping instances only weakens
    # it.  Besides this rule and the sum rule above, no instance is
    # dropped.
    return not (r == (i[0] + 1,) + i[1:] and i[0] == 2 * i[k - 1])


def _h_2(n, i, k, r):
    l, a, twice = _raise(n, i, r)
    return twice and i[l] != 0 and a >= 2


def _k_1(n, i, k, r):
    # Below the last entry, K_1 claims what H_1 and H_2 claim together.
    l, a, twice = _raise(n, i, r)
    return l < n - 1 and (not twice or (i[l] != 0 and a >= 2))


def _k_2(n, i, k, r):
    l, a, _ = _raise(n, i, r)
    return l == n - 1 and (a >= 2 or sum(i) != 2)


# tag -> (family, M's kind, M's least k or None for a kind with no k,
# T's index set, condition (n, i, k, r)).  M = (kind, i[, k]) runs over
# the indices i with entries up to the bound, T = (kind, r[, k]) over the
# index set of i, and the claim is T in L+(M) wherever the condition holds.
_CLAIMS = {
    "W_i": ("CartanW", "w", 1, _above, lambda n, i, k, r: any(i[:k - 1])),
    "W_ii": ("CartanW", "w", 1, _above, _w_ii),
    "S_i": ("SpecialS", "sa", None, _above, lambda n, i, k, r: r[0] == 0),
    "S_ii": ("SpecialS", "sb", 2, _above, _s_ii),
    "H_1": ("HamiltonianH", "dh", None, _raises, lambda n, i, k, r: not _raise(n, i, r)[2]),
    "H_2": ("HamiltonianH", "dh", None, _raises, _h_2),
    "K_1": ("ContactK", "dk", None, _raises, _k_1),
    "K_2": ("ContactK", "dk", None, _raises, _k_2),
}


def _claims(alg, tag, bound):
    """The (M, T) instances of the tagged claim with entries up to bound,
    by M's index, then k, then T's index."""
    _, kind, least, targets, holds = _CLAIMS[tag]
    n = alg.n
    for i in itertools.product(range(bound + 1), repeat=n):
        for k in (None,) if least is None else range(least, n + 1):
            M = (kind, i) if k is None else (kind, i, k)
            for r in targets(i, bound):
                if holds(n, i, k, r):
                    yield M, (kind, r) + M[2:]


def verify_claimed_subset(alg, lemma, bound, max_gap=DEFAULT_MAX_GAP):
    """Machine-check a claimed inclusion of explicit elements in L+(M).

    Enumerates all (M, T) instances of the tagged claim with multi-index
    entries bounded by `bound` and decides each membership exactly; the
    decisions share one table.  Every tag's claims at bound b reach a
    degree gap of at least b - 2, so a bound above max_gap + 2 is refused
    up front.
    """
    if lemma not in _CLAIMS:
        raise ValueError("unknown lemma tag: %r" % (lemma,))
    if bound < 0:
        raise ValueError("bound must not be negative")
    family = _CLAIMS[lemma][0]
    if alg.family != family:
        raise ValueError("lemma %s is about %s, not %s" % (lemma, family, alg.family))
    if bound > max_gap + 2:
        raise DegreeGapExceeded(
            "lemma %s at bound %d reaches degree gaps beyond the safety limit %d"
            % (lemma, bound, max_gap)
        )
    table = _Table(alg)
    checked = 0
    failures = []
    for M, T in _claims(alg, lemma, bound):
        checked += 1
        if not is_member(alg, M, T, PLUS, max_gap, table=table):
            failures.append((M, T))
    if not checked:
        raise ValueError("lemma %s has no instance at bound %d" % (lemma, bound))
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
