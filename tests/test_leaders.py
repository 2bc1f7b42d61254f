"""Leader-set decision procedures, Dicksonian checks, structural probes."""

import hashlib
import os
import tracemalloc

import pytest

from gradedlie import (
    AlgebraMismatch,
    DegreeGapExceeded,
    DTuple,
    InvalidElement,
    PLUS,
    MINUS,
    ZeroLeader,
    check_cofinite_window,
    check_dagger,
    check_leading_dicksonian,
    dickson_check,
    l_condition_holds,
    l_member,
    search_leading_dicksonian,
    verify_claimed_subset,
)
from gradedlie import algebras, leaders, poly
from gradedlie.algebras import (
    Z,
    algebra_to_str,
    bracket_basis as _bracket_basis,
    compare_basis,
    degree,
    dh,
    e,
    elements_in_window,
    enumerate_component,
    order_key,
    parse_algebra,
    sa,
    sb,
    w,
)
from gradedlie.leaders import is_member, iter_tuples, iter_witnesses
from gradedlie.poly import d_leader
from helpers import (
    EXD,
    H2,
    K3,
    MULTIGRADED_WINDOWS,
    ROOT,
    S2,
    S3,
    VIR,
    W2,
    W3,
    WINDOWS,
    WITT,
    WITT_POS,
    load_script,
    multidegree,
)


def sorted_tuples(alg, d, sign):
    """The tuples of total degree d as first enumerated: all tuples of
    each length collected, then sorted by their entries' order keys."""
    step = 1 if sign == PLUS else -1
    pools = {}
    found = []
    for length in range(1, abs(d) + 1):
        out = []

        def rec(prefix, rem, slots):
            if slots == 0:
                if rem == 0:
                    out.append(DTuple(alg, tuple(prefix)))
                return
            for deg in range(step, rem - (slots - 1) * step + step, step):
                if deg not in pools:
                    pools[deg] = enumerate_component(alg, deg)
                for b in pools[deg]:
                    rec(prefix + [b], rem - deg, slots - 1)

        rec([], d, length)
        out.sort(key=lambda t: tuple(order_key(alg, b) for b in t.entries))
        found += out
    return found


def reference_search(alg, degree_bound, length_bound):
    """The leading-Dicksonian search as first written: each node checks
    every unused pair against every pair of the sequence, and the visited
    index sets are frozensets."""
    elems = elements_in_window(alg, -degree_bound, degree_bound)
    pool = [(M, N) for M in elems for N in elems if compare_basis(alg, M, N) <= 0]
    pool.sort(key=lambda p: (order_key(alg, p[0]), order_key(alg, p[1])))
    verdicts = {}

    def member(M, T, sign):
        if (M, T, sign) not in verdicts:
            verdicts[M, T, sign] = l_member(alg, M, T, sign).verdict
        return verdicts[M, T, sign]

    def compatible(prev, cand):
        return not (member(prev[0], cand[0], MINUS) or member(prev[1], cand[1], PLUS))

    best = []
    seen = set()

    def extend(seq, used):
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        if len(seq) >= length_bound:
            return True
        key = frozenset(used)
        if key in seen:
            return False
        seen.add(key)
        for idx, cand in enumerate(pool):
            if idx in used:
                continue
            if all(compatible(p, cand) for p in seq):
                if extend(seq + [cand], used | {idx}):
                    return True
        return False

    extend([], frozenset())
    return best


SEARCH_GRID = (
    [
        (name, bound, length)
        for name in ("witt", "witt+", "w1", "virasoro")
        for bound in (1, 2, 3)
        for length in (1, 4, 12)
    ]
    + [("witt", 2, 30), ("witt+", 3, 30), ("w1", 3, 30), ("witt+", 4, 30)]
    + [(name, 3, length) for name in ("loop-sl2", "example-d") for length in (4, 12)]
    + [  # the other searches of the perfbench search workload
        ("witt", 3, 20), ("witt+", 5, 30), ("witt+", 6, 12), ("witt+", 7, 12),
        ("witt+", 9, 12), ("witt", 4, 10), ("virasoro", 3, 10), ("w1", 4, 30),
    ]
    + [
        (name, bound, length)
        for name in ("cartan-w:2", "special-s:2", "hamiltonian:2", "contact:3")
        for bound in (0, 1)
        for length in (3, 6)
    ]
)


def spy_on_checks(monkeypatch):
    """The list of elements that poly and leaders check from now on."""
    seen = []
    for module in (poly, leaders):
        monkeypatch.setattr(module, "validate_element",
                            lambda alg, b: seen.append(b) or algebras.validate_element(alg, b))
    return seen


class TestTupleSpace:
    def test_positive_compositions(self):
        assert list(iter_tuples(WITT_POS, 2, PLUS)) == [
            DTuple(WITT_POS, (e(2),)),
            DTuple(WITT_POS, (e(1), e(1))),
        ]

    def test_negative_singleton(self):
        assert list(iter_tuples(WITT, -1, MINUS)) == [DTuple(WITT, (e(-1),))]

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            list(iter_tuples(WITT, 0, PLUS))

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            list(iter_tuples(WITT, 2, MINUS))

    @pytest.mark.parametrize("d", [2.0, "2", None, True])
    def test_a_degree_that_is_no_int_is_refused(self, d):
        with pytest.raises(ValueError, match="must be an int"):
            list(iter_tuples(WITT, d, PLUS))

    def test_a_target_needs_a_grading_finer_than_the_degree(self):
        with pytest.raises(ValueError, match="no grading finer than the degree"):
            list(iter_tuples(WITT, 2, PLUS, target=(2,)))

    def test_gap_guard(self):
        with pytest.raises(DegreeGapExceeded):
            list(iter_tuples(WITT, 10, PLUS, max_gap=5))
        list(iter_tuples(WITT, 10, PLUS, max_gap=10))

    def test_listing_checks_no_entry(self, monkeypatch):
        seen = spy_on_checks(monkeypatch)
        got = list(iter_tuples(W2, 3, PLUS))
        assert len(got) > 3 and seen == []
        assert got == [DTuple(W2, t.entries) for t in got]

    def test_total_degree_invariant(self):
        for t in iter_tuples(WITT, 4, PLUS):
            assert sum(degree(WITT, b) for b in t.entries) == 4
            assert (t.alg, t.sign) == (WITT, PLUS)

    @pytest.mark.parametrize("alg", list(WINDOWS), ids=algebra_to_str)
    def test_order_is_the_sorted_enumeration(self, alg):
        lo, hi = WINDOWS[alg]
        for d in range(min(lo, -1), max(hi, 1) + 1):
            if d:
                sign = PLUS if d > 0 else MINUS
                got = list(iter_tuples(alg, d, sign))
                assert got == sorted_tuples(alg, d, sign), d
                assert all((t.alg, t.sign) == (alg, sign) for t in got), d


@pytest.mark.parametrize("name, window", MULTIGRADED_WINDOWS)
def test_a_target_walk_is_the_flat_walk_filtered(name, window):
    """For every gap of the window and every multidegree its tuples reach,
    the walk to that target yields exactly the flat walk's tuples whose
    entries sum to it, in the same order; a target no tuple reaches
    yields none."""
    alg = parse_algebra(name)
    lo, hi = window
    for d in range(lo - hi, hi - lo + 1):
        if d:
            sign = PLUS if d > 0 else MINUS
            groups = {}
            for t in iter_tuples(alg, d, sign):
                m = tuple(map(sum, zip(*(multidegree(alg, b) for b in t.entries))))
                groups.setdefault(m, []).append(t)
            for m, tuples in groups.items():
                assert list(iter_tuples(alg, d, sign, target=m)) == tuples, (d, m)
            beyond = tuple(a + 100 for a in m)
            assert list(iter_tuples(alg, d, sign, target=beyond)) == []


class TestLCondition:
    def test_singleton_component_vacuous(self):
        assert l_condition_holds(WITT, e(1), DTuple(WITT, (e(2),))) is True

    def test_virasoro_central_rival_vacuous(self):
        assert l_condition_holds(VIR, e(0), DTuple(VIR, (e(1),))) is True

    def test_cartan_w_rival_checked(self):
        verdict = l_condition_holds(W2, w((0, 0), 2), DTuple(W2, (w((1, 1), 1),)))
        assert isinstance(verdict, bool)

    def test_invalid_element_raises(self):
        with pytest.raises(InvalidElement):
            l_condition_holds(W2, w((0, 0, 0), 1), DTuple(W2, (w((1, 1), 1),)))

    def test_other_algebra_refused(self):
        with pytest.raises(AlgebraMismatch):
            l_condition_holds(WITT, e(1), DTuple(WITT_POS, (e(2),)))

    def test_zero_leader_raises(self):
        with pytest.raises(ZeroLeader):
            l_condition_holds(WITT, e(1), DTuple(WITT, (e(1),)))
        with pytest.raises(ZeroLeader):
            l_condition_holds(W2, w((0, 0), 2), DTuple(W2, (w((2, 0), 1),)))


class TestLMember:
    def test_witness_found(self):
        report = l_member(WITT, e(1), e(3), PLUS)
        assert report.verdict is True
        assert report.witness == DTuple(WITT, (e(2),))

    def test_excluded_element(self):
        assert l_member(WITT, e(1), e(2), PLUS).verdict is False

    def test_degree_must_move(self):
        assert l_member(WITT_POS, e(3), e(3), PLUS).verdict is False

    def test_witness_replays(self):
        report = l_member(W2, w((1, 1), 2), w((2, 1), 2), PLUS)
        if report.verdict:
            from gradedlie import d_leader

            assert d_leader(W2, w((1, 1), 2), report.witness) == w((2, 1), 2)
            assert l_condition_holds(W2, w((1, 1), 2), report.witness)

    def test_sign_refused(self):
        for decide in (l_member, is_member, lambda *args: next(iter_witnesses(*args))):
            with pytest.raises(ValueError, match="^sign must be '\\+' or '-'$"):
                decide(WITT, e(1), e(3), "x")

    @pytest.mark.parametrize("bad", [("w", (2, 0), 1), ("q",), ("w", "abc", 1), 5, ()],
                             ids=["short-index", "unknown-kind", "index-of-str", "int", "empty"])
    def test_witnesses_check_both_elements_first(self, bad):
        good = w((1, 0, 0), 1)
        for M, T in [(good, bad), (bad, good)]:
            with pytest.raises(InvalidElement):
                next(iter_witnesses(W3, M, T, PLUS))
            with pytest.raises(InvalidElement):
                l_member(W3, M, T, PLUS)

    def test_rival_leaders_are_not_checked(self, monkeypatch):
        """M = x[1,0]d[2] has the rivals x[1,0]d[1] and x[0,1]d[1], both
        compared along the witness; only M and T are checked."""
        M, T = w((1, 0), 2), w((2, 0), 2)
        witness = DTuple(W2, (w((2, 0), 1),))
        seen = spy_on_checks(monkeypatch)
        report = l_member(W2, M, T, PLUS)
        assert report.verdict is True
        assert report.witness == witness
        assert set(seen) == {M, T}

    def test_witt_small_window(self):
        for n in (2, 3):
            for i in range(1, 7):
                expected = i > n
                assert is_member(WITT_POS, e(n), e(i), PLUS) == expected


# Small windows on which every (M, T) decision can be rescanned tuple by tuple.
SCAN_WINDOWS = [(W2, (-1, 3)), (S2, (-1, 3)), (H2, (-1, 3)), (K3, (-2, 2)), (VIR, (-4, 4)),
                (W3, (-1, 2))]


def scan_witnesses(alg, M, T, sign):
    """The tuples, shortest first then entry-lex, whose leader is T and
    that pass reference_condition."""
    for t in iter_tuples(alg, degree(alg, T) - degree(alg, M), sign):
        if d_leader(alg, M, t) == T and reference_condition(alg, M, t):
            yield t


def reference_condition(alg, M, t):
    """The dominance condition with each rival found by comparing it to M."""
    kT = order_key(alg, d_leader(alg, M, t))
    want_less = t.sign == PLUS
    for N in enumerate_component(alg, degree(alg, M)):
        c = compare_basis(alg, N, M)
        if c == 0 or (c < 0) != want_less:
            continue
        DN = d_leader(alg, N, t)
        if DN is not None:
            kN = order_key(alg, DN)
            if kN == kT or (kN < kT) != want_less:
                return False
    return True


@pytest.mark.parametrize("alg, window", SCAN_WINDOWS,
                         ids=[algebra_to_str(alg) for alg, _ in SCAN_WINDOWS])
class TestDecisionsAgainstAScan:
    def test_verdict_and_first_witness(self, alg, window):
        elems = elements_in_window(alg, *window)
        for M in elems:
            for T in elems:
                gap = degree(alg, T) - degree(alg, M)
                if gap:
                    sign = PLUS if gap > 0 else MINUS
                    witness = next(scan_witnesses(alg, M, T, sign), None)
                    report = l_member(alg, M, T, sign)
                    assert (report.verdict, report.witness) == (witness is not None, witness)

    def test_every_witness(self, alg, window):
        elems = elements_in_window(alg, *window)
        for M in elems:
            for T in elems:
                gap = degree(alg, T) - degree(alg, M)
                if gap:
                    sign = PLUS if gap > 0 else MINUS
                    assert (list(iter_witnesses(alg, M, T, sign))
                            == list(scan_witnesses(alg, M, T, sign)))

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_one_table_decides_like_fresh_ones(self, alg, window, order):
        elems = elements_in_window(alg, *window)
        queries = [(M, T, PLUS if degree(alg, T) > degree(alg, M) else MINUS)
                   for M in elems for T in elems if degree(alg, T) != degree(alg, M)]
        if order == "reversed":
            queries.reverse()
        table = leaders._Table(alg)
        for M, T, sign in queries:
            shared = l_member(alg, M, T, sign, table=table)
            fresh = l_member(alg, M, T, sign)
            assert (shared.verdict, shared.witness) == (fresh.verdict, fresh.witness)

    def test_condition_against_the_reference(self, alg, window):
        # At rank 3 (6,957 tuples of degree 3) only gap 1 is run here:
        # test_every_witness compares the same condition on every tuple
        # that reaches its T, at every gap of the window.
        gaps = (-1, 1) if alg == W3 else (-3, -2, -1, 1, 2, 3)
        for M in elements_in_window(alg, *window):
            for d in gaps:
                for t in iter_tuples(alg, d, PLUS if d > 0 else MINUS):
                    if d_leader(alg, M, t) is not None:
                        assert l_condition_holds(alg, M, t) == reference_condition(alg, M, t)


def s2_to_h2(b):
    """The isomorphism S_2 -> H_2 on basis elements: SA[0,j] -> DH[0,j+1],
    SB[i;2] -> DH[i]."""
    return dh((0, b[1][1] + 1)) if b[0] == "sa" else dh(b[1])


def membership_disagreements(phi, pool):
    """(pairs (M, T) of pool, M != T, on which T in L(M) over S_2 and
    phi(T) in L(phi(M)) over H_2 disagree; pairs with a nonzero degree
    gap; members over S_2).  The sign is the gap's, "+" at gap 0."""
    s_table, h_table = leaders._Table(S2), leaders._Table(H2)
    differ = gaps = members = 0
    for M in pool:
        for T in pool:
            if M != T:
                sign = PLUS if degree(S2, T) >= degree(S2, M) else MINUS
                gaps += degree(S2, T) != degree(S2, M)
                got = is_member(S2, M, T, sign, table=s_table)
                members += got
                differ += got != is_member(H2, phi[M], phi[T], sign, table=h_table)
    return differ, gaps, members


class TestSpecialS2IsHamiltonian2:
    # test_algebras.py's TestOrder.test_special_s2_order_is_hamiltonian_order
    # checks that the map keeps degree, basis order and bracket supports.
    WINDOW = (-1, 3)

    def test_membership_agrees_on_every_ordered_pair(self):
        pool = elements_in_window(S2, *self.WINDOW)
        phi = {b: s2_to_h2(b) for b in pool}
        assert len(pool) == 20
        assert membership_disagreements(phi, pool) == (0, 310, 216)

    @pytest.mark.parametrize("d", range(-1, 4))
    def test_swapping_two_images_of_one_degree_disagrees(self, d):
        pool = elements_in_window(S2, *self.WINDOW)
        phi = {b: s2_to_h2(b) for b in pool}
        a, b = enumerate_component(S2, d)[:2]
        phi[a], phi[b] = phi[b], phi[a]
        assert membership_disagreements(phi, pool)[0] > 0


class TestLeadingDicksonian:
    def test_valid_pair_sequence(self):
        report = check_leading_dicksonian(WITT_POS, [(e(1), e(1)), (e(2), e(2))])
        assert report.verdict is True

    def test_violation_located(self):
        report = check_leading_dicksonian(
            WITT_POS, [(e(1), e(1)), (e(2), e(2)), (e(3), e(3))]
        )
        assert report.verdict is False
        assert report.failing == (1, 3)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty pair sequence"):
            check_leading_dicksonian(WITT_POS, [])

    def test_duplicate_pair_rejected(self):
        report = check_leading_dicksonian(WITT_POS, [(e(1), e(1)), (e(1), e(1))])
        assert report.verdict is False

    def test_prefixes_of_accepted_sequences(self):
        seq = [(e(1), e(1)), (e(2), e(2))]
        for k in range(1, len(seq) + 1):
            assert check_leading_dicksonian(WITT_POS, seq[:k]).verdict is True


class TestSearchLeadingDicksonian:
    def test_length_one(self):
        seq = search_leading_dicksonian(WITT_POS, 3, 1)
        assert len(seq) == 1

    def test_result_always_valid(self):
        seq = search_leading_dicksonian(WITT_POS, 3, 10)
        assert len(seq) >= 2
        assert check_leading_dicksonian(WITT_POS, seq).verdict is True

    def test_mixed_sign_leaders(self):
        seq = search_leading_dicksonian(WITT, 2, 10)
        assert len(seq) >= 2
        assert check_leading_dicksonian(WITT, seq).verdict is True

    def test_degree_gap_guard(self):
        with pytest.raises(DegreeGapExceeded):
            search_leading_dicksonian(WITT, 3, 5, max_gap=2)

    @pytest.mark.parametrize("name, bound, length", SEARCH_GRID)
    def test_same_answer_as_reference(self, name, bound, length):
        alg = parse_algebra(name)
        assert search_leading_dicksonian(alg, bound, length) == reference_search(
            alg, bound, length
        )


def recording_l_member(monkeypatch):
    """Route leaders.l_member through a recorder; returns the list of
    (M, T, sign) it was called with.  Keywords (the caller's table) are
    passed on."""
    calls = []
    decide = leaders.l_member

    def recorder(alg, M, T, sign, max_gap=leaders.DEFAULT_MAX_GAP, **kwargs):
        calls.append((M, T, sign))
        return decide(alg, M, T, sign, max_gap, **kwargs)

    monkeypatch.setattr(leaders, "l_member", recorder)
    return calls


class TestNoHiddenState:
    def test_search_decides_each_membership_once(self, monkeypatch):
        calls = recording_l_member(monkeypatch)
        search_leading_dicksonian(WITT, 3, 20)
        assert calls
        assert len(calls) == len(set(calls))

    def test_is_member_decides_on_every_call(self, monkeypatch):
        calls = recording_l_member(monkeypatch)
        assert is_member(WITT, e(1), e(3), PLUS) is True
        assert is_member(WITT, e(1), e(3), PLUS) is True
        assert calls == [(e(1), e(3), PLUS)] * 2

    def test_claims_keep_no_state_between_calls(self, monkeypatch):
        calls = []
        for module in (algebras, poly, leaders):
            monkeypatch.setattr(module, "bracket_basis",
                                lambda alg, a, b: calls.append(1) or _bracket_basis(alg, a, b))
        counts = []
        for _ in range(2):
            del calls[:]
            assert verify_claimed_subset(H2, "H_1", 3).verdict is True
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0

    def test_a_long_scan_keeps_its_memory_bounded(self):
        # 2**15 tuples of degree 16, none of which brackets the central Z.
        tracemalloc.start()
        try:
            report = l_member(VIR, Z, e(16), PLUS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.verdict is False
        assert peak < 2**20


class TestExactSearch:
    """The branch-and-bound search on windows too large for reference_search."""

    @pytest.mark.parametrize("name, bound, length", [("witt", 5, 30), ("witt+", 8, 30)])
    def test_memory_is_bounded(self, name, bound, length):
        alg = parse_algebra(name)
        tracemalloc.start()
        try:
            search_leading_dicksonian(alg, bound, length)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("name, bound, length, longest", [
        ("witt", 6, 500, 21),
        ("virasoro", 6, 500, 35),
        ("witt+", 8, 30, 30),
        ("cartan-w:2", 1, 500, 57),
    ])
    def test_longest_length(self, name, bound, length, longest):
        alg = parse_algebra(name)
        seq = search_leading_dicksonian(alg, bound, length)
        assert len(seq) == longest
        assert check_leading_dicksonian(alg, seq).verdict is True

    def test_length_bound_one_decides_nothing(self, monkeypatch):
        calls = recording_l_member(monkeypatch)
        assert search_leading_dicksonian(WITT, 13, 1) == [(e(-13), e(-13))]
        # The window is not enumerated either, however wide it is.
        assert search_leading_dicksonian(WITT, 10**11, 1) == [(e(-10**11), e(-10**11))]
        least = ("w", (0, 0, 0), 1)  # the least element of cartan-w:3, of degree -1
        assert search_leading_dicksonian(W3, 10**11, 1) == [(least, least)]
        assert calls == []
        with pytest.raises(DegreeGapExceeded):
            search_leading_dicksonian(WITT, 13, 2)

    def test_early_stop_decides_few_rows(self, monkeypatch):
        # Deciding the whole follow relation first took 3,540 decisions.
        calls = recording_l_member(monkeypatch)
        assert len(search_leading_dicksonian(W3, 2, 3)) == 3
        assert 0 < len(calls) < 3540


TRANSITIVITY_WINDOWS = [
    ("witt", 3), ("witt", 5), ("witt+", 6), ("virasoro", 3), ("w1", 5),
    ("cartan-w:2", 1), ("cartan-w:2", 2), ("hamiltonian:2", 2),
]


class TestLeaderRelationsTransitive:
    """Restricted to a degree window, "T in L+(M)" and "T in L-(M)" are
    transitive: each constraint of a leading-Dicksonian sequence is then a
    partial order on the window."""

    @pytest.mark.parametrize("name, bound", TRANSITIVITY_WINDOWS)
    def test_transitive(self, name, bound):
        alg = parse_algebra(name)
        elems = elements_in_window(alg, -bound, bound)
        checked = 0
        for sign in (PLUS, MINUS):
            rel = {(M, T) for M in elems for T in elems if is_member(alg, M, T, sign)}
            chains = [(A, B, C) for A, B in rel for C in elems if (B, C) in rel]
            assert [chain for chain in chains if (chain[0], chain[2]) not in rel] == []
            checked += len(chains)
        assert checked


class TestSearchTable:
    def test_small_rows_match_the_readme(self):
        with open(os.path.join(ROOT, "README.md")) as fh:
            readme = fh.read().splitlines()
        lines = load_script("search_table").table(max_degree=5)
        assert len(lines) == 2 + 6
        for line in lines:
            assert line in readme


class TestDicksonCheck:
    def test_antichain(self):
        assert dickson_check([((1, 2), 1), ((2, 1), 1)]).verdict is True

    def test_domination_located(self):
        report = dickson_check([((1, 2), 1), ((2, 1), 1), ((2, 2), 1)])
        assert report.verdict is False
        assert report.failing == (1, 3)

    def test_different_directions_incomparable(self):
        assert dickson_check([((5, 5), 1), ((1, 1), 2)]).verdict is True

    def test_bad_point_rejected(self):
        with pytest.raises(ValueError):
            dickson_check([((1, 2), 1), ((1, -1), 1)])


class TestCheckDagger:
    def test_witt(self):
        assert check_dagger(WITT, (-5, 5)).verdict is True

    def test_virasoro_counterexample(self):
        report = check_dagger(VIR, (-5, 5))
        assert report.verdict is False
        assert report.failing is not None

    def test_example_d(self):
        assert check_dagger(EXD, (1, 6)).verdict is True

    def test_special_s2(self):
        assert check_dagger(S2, WINDOWS[S2]).verdict is True

    def test_special_s2_with_shape_a_below_shape_b_fails_b(self, monkeypatch):
        # S_n's order puts ShapeA above ShapeB in each degree; with ShapeA
        # below ShapeB instead, S_2 still meets (a) but breaks (b).
        fam = algebras._FAMILIES[S2.family]
        swapped = fam._replace(tail=lambda alg, b: (0,) + fam.tail(alg, b)[1:]
                               if b[0] == "sa" else fam.tail(alg, b))
        monkeypatch.setitem(algebras._FAMILIES, S2.family, swapped)
        report = check_dagger(S2, (-1, 4))
        assert report.verdict is False
        assert len(report.failing) == 3  # (b) reports (M1, M2, M); (a) a pair
        M1, M2, M = report.failing
        assert report.failing == (sb((2, 1), 2), sb((1, 2), 2), sa((0, 2)))
        sign = PLUS if degree(S2, M) > 0 else MINUS
        assert compare_basis(S2, M1, M2) < 0
        assert (degree(S2, M1) > 0) == (degree(S2, M2) > 0) == (sign == PLUS)
        b1, b2 = algebras.bracket_basis(S2, M1, M), algebras.bracket_basis(S2, M2, M)
        assert b1 and b2
        l1, l2 = algebras.lie_extreme(S2, b1, sign), algebras.lie_extreme(S2, b2, sign)
        assert compare_basis(S2, l1, l2) >= 0
        # adjacent: no element of the side between M1 and M2 brackets nonzero with M
        side = [b for b in elements_in_window(S2, -1, 4)
                if degree(S2, b) != 0 and (degree(S2, b) > 0) == (sign == PLUS)]
        between = side[side.index(M1) + 1:side.index(M2)]
        assert not any(algebras.bracket_basis(S2, N, M) for N in between)

    def test_vacuous_windows_rejected(self):
        # no basis element, or one, leaves no pair to check; the cofiniteness
        # probe needs one element, so only an empty window is refused
        for window in ((-3, 0), (1, 1)):
            with pytest.raises(ValueError, match="holds"):
                check_dagger(WITT_POS, window)
        with pytest.raises(ValueError, match="holds 1 basis element"):
            check_dagger(WITT, (50, 50))
        with pytest.raises(ValueError, match="holds 0 basis element"):
            check_cofinite_window(WITT_POS, e(1), (-3, 0))
        assert check_cofinite_window(WITT_POS, e(1), (1, 1)).verdict is False

    def test_window_wider_than_the_gap_limit_is_refused(self):
        with pytest.raises(ValueError, match="spans more than the safety limit 24"):
            check_dagger(WITT, (-13, 12))
        assert check_dagger(WITT, (-13, 12), max_gap=25).verdict is True
        # witt+ has nothing below degree 1, so the window spans degrees 1 to 25.
        assert check_dagger(WITT_POS, (-10**11, 25)).verdict is True


class TestCofiniteWindow:
    def test_witt_e1(self):
        report = check_cofinite_window(WITT, e(1), (-6, 6))
        assert set(report.exceptions) <= {e(0), e(1), e(2)}

    def test_virasoro_central_fails(self):
        report = check_cofinite_window(VIR, Z, (-6, 6))
        assert report.verdict is False
        window = {Z} | {e(n) for n in range(-6, 7)}
        assert set(report.exceptions) == window

    def test_witt_positive_e2(self):
        report = check_cofinite_window(WITT_POS, e(2), (1, 6))
        assert set(report.exceptions) <= {e(1), e(2), e(3), e(4)}

    @pytest.mark.parametrize("alg, M, window", [
        (WITT, e(2), (-30, 30)),
        (WITT, e(2), (-10**11, 10**11)),
        (WITT, e(2), (-22, 27)),
        (WITT_POS, e(2), (-10**8, 27)),
        (W2, w((0, 0), 1), (-1, 24)),
    ])
    def test_a_window_beyond_the_gap_limit_is_refused(self, alg, M, window):
        with pytest.raises(DegreeGapExceeded):
            check_cofinite_window(alg, M, window)

    def test_the_limit_itself_is_allowed(self):
        report = check_cofinite_window(WITT, e(2), (-3, 3), max_gap=5)
        assert report.exceptions == check_cofinite_window(WITT, e(2), (-3, 3)).exceptions
        with pytest.raises(DegreeGapExceeded):
            check_cofinite_window(WITT, e(2), (-3, 3), max_gap=4)


class TestVerifyClaimedSubset:
    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            verify_claimed_subset(WITT, "W_i", 2)
        with pytest.raises(ValueError):
            verify_claimed_subset(W2, "nonsense", 2)

    def test_no_instance_rejected(self):
        # an H_2 instance needs i_l = 2*i_partner >= 2 and a raise r >= 2
        with pytest.raises(ValueError, match="no instance"):
            verify_claimed_subset(H2, "H_2", 3)

    def test_cartan_w_small(self):
        assert verify_claimed_subset(W2, "W_i", 2).verdict is True
        assert verify_claimed_subset(W2, "W_ii", 2).verdict is True

    def test_hamiltonian_small(self):
        assert verify_claimed_subset(H2, "H_1", 2).verdict is True
        assert verify_claimed_subset(H2, "H_2", 6).verdict is True

    def test_contact_small(self):
        assert verify_claimed_subset(K3, "K_1", 1).verdict is True
        assert verify_claimed_subset(K3, "K_2", 1).verdict is True

    def test_special_s_first_family(self):
        assert verify_claimed_subset(S2, "S_i", 2).verdict is True
        assert verify_claimed_subset(S3, "S_i", 2).verdict is True

    def test_special_s_second_family(self):
        assert verify_claimed_subset(S2, "S_ii", 5).verdict is True

    def test_special_s_second_family_claims_every_member_it_reaches(self):
        # Members that an exclusion with no derivation used to drop.
        claims = set(leaders._claims(S2, "S_ii", 5))
        for M, T in [((4, 1), (5, 1)), ((5, 0), (5, 2))]:
            M, T = ("sb", M, 2), ("sb", T, 2)
            assert (M, T) in claims
            assert is_member(S2, M, T, PLUS) is True

    @pytest.mark.parametrize("alg, tags", [
        (W2, ("W_i", "W_ii")), (W3, ("W_i", "W_ii")), (S2, ("S_i", "S_ii")),
        (S3, ("S_i", "S_ii")), (H2, ("H_1", "H_2")), (K3, ("K_1", "K_2")),
    ], ids=["cartan-w:2", "cartan-w:3", "special-s:2", "special-s:3", "hamiltonian:2",
            "contact:3"])
    def test_claims_at_bound_b_reach_gap_b_minus_2(self, alg, tags):
        # The lower bound behind refusing a bound above max_gap + 2 up front.
        for tag in tags:
            for bound in (4, 5, 6):
                gap = max(degree(alg, T) - degree(alg, M)
                          for M, T in leaders._claims(alg, tag, bound))
                assert gap >= bound - 2, (tag, bound)
                if tag == "H_2":
                    assert gap == bound - 2

    def test_a_bound_beyond_the_gap_limit_is_refused(self):
        # At bound 4 = max_gap + 2 the scan itself meets a claim of gap 4;
        # above it the call is refused before any claim is made.
        for bound in (4, 5, 10**11):
            with pytest.raises(DegreeGapExceeded):
                verify_claimed_subset(H2, "H_1", bound, max_gap=2)
        assert verify_claimed_subset(H2, "H_1", 2, max_gap=2).verdict is True

    def test_special_s3_second_family_fails_on_five_pairs(self):
        # The five S_3 failures at bound 2 that CHANGES.md records; each T
        # is the leader of some tuple, which loses dominance to a rival.
        report = verify_claimed_subset(S3, "S_ii", 2)
        assert report.verdict is False
        assert report.failing == (
            (sb((1, 0, 1), 3), sb((1, 1, 2), 3)),
            (sb((1, 0, 1), 3), sb((1, 2, 1), 3)),
            (sb((1, 0, 1), 3), sb((2, 0, 1), 3)),
            (sb((1, 0, 2), 3), sb((1, 2, 2), 3)),
            (sb((1, 0, 2), 3), sb((2, 0, 2), 3)),
        )
        assert report.notes.startswith("5 of 108 claimed memberships failed: ")

    def test_failures_carry_exact_pairs(self, monkeypatch):
        # The degree-1 raise SB[2,1;2] -> SB[3,1;2] needs [M, M] = 0, so it
        # fails under every basis order.
        pair = (sb((2, 1), 2), sb((3, 1), 2))

        def claims(alg, tag, bound):
            yield pair

        monkeypatch.setattr(leaders, "_claims", claims)
        report = verify_claimed_subset(S2, "S_ii", 3)
        assert report.verdict is False
        assert report.failing == (pair,)
        assert report.notes == (
            "1 of 1 claimed memberships failed: SB[3,1;2] not in L+(SB[2,1;2])"
        )

    # The count and the sha256 of repr(list(_claims(...))) of each tag on
    # two ranks, so that any change to a claim list, or to its order,
    # shows here.
    @pytest.mark.parametrize("spec, tag, bound, count, digest", [
        ("cartan-w:2", "W_i", 5, 285,
         "13f46a129d8ae2dc87b0bac4556817ce01d35e4395acaf5258f29c640ef651f1"),
        ("cartan-w:2", "W_ii", 5, 371,
         "8bfe3da7149eccac0082073882f51f383c29c1f5f2398e5c7cb42c9a1c8df409"),
        ("cartan-w:3", "W_i", 3, 1332,
         "cf65a305eabc8614cac34667caf90be31b1f966de27d0637ed1ee9d6eeb18544"),
        ("cartan-w:3", "W_ii", 3, 897,
         "3303557a116be4cb270e8450fffb64bdf42c1db84d30b652f94535c3e11ccc05"),
        ("special-s:2", "S_i", 5, 15,
         "6d52ecca3a14ee1384042f934e5828df3aca1e80fca4bb653c6bb73769ed983a"),
        ("special-s:2", "S_ii", 5, 208,
         "f305885bc5afa2ad4ad3b8462504ac3a6ce23471090541d971d9affb253884f6"),
        ("special-s:3", "S_i", 3, 84,
         "c5d2b039d880cb86b187fecbc357d23e6dd1941b6acf6ff9437608e0e0f08f5e"),
        ("special-s:3", "S_ii", 3, 808,
         "1d218384b8b5cb391b7db8d68792f4588951d4495f72cd07020408aba7f6909b"),
        ("hamiltonian:2", "H_1", 6, 270,
         "c8b0acba82a1ea6a716cdbb488bf19c9b59c2eea10cfbfeb7bcbe8d9cd024859"),
        ("hamiltonian:2", "H_2", 6, 8,
         "fd40416d728c1f9cf05765f84d7e65a12785a607c75ea743e9be742dd9315271"),
        ("hamiltonian:4", "H_1", 4, 4400,
         "7f9efaeecad47fb3cb9d9335fe963d820fcfd9df02664a79c1930acc16d7999f"),
        ("hamiltonian:4", "H_2", 4, 100,
         "120f1449b4dbabf01d14e1e48249f4e9fbae908b94d1aae1ee120c79bbfb0223"),
        ("contact:3", "K_1", 5, 996,
         "9952d9ccae878327f31036557817274dac779bb1e0546e2af75b75bbbe339540"),
        ("contact:3", "K_2", 5, 534,
         "dc1123269adf2beca743f2e3dfd1165faceb2ca0924a6195f72f50cd311f4084"),
        ("contact:5", "K_1", 3, 5120,
         "5d1b82deb0eca2eae457551449fc9cf9ad18477364c54c856573243f810e8a30"),
        ("contact:5", "K_2", 3, 1521,
         "0a1ceb8a57fd0359f34cbba9937beaa6071ad1f70077dc16d4641f7e4ff504a3"),
    ])
    def test_claim_lists_are_pinned(self, spec, tag, bound, count, digest):
        claims = list(leaders._claims(parse_algebra(spec), tag, bound))
        assert len(claims) == count
        assert hashlib.sha256(repr(claims).encode()).hexdigest() == digest

    def test_lemma_tags_match_the_readme(self):
        with open(os.path.join(ROOT, "README.md")) as fh:
            text = fh.read()
        blocks = text[text.index("### Lemma tags"):].split("\n\n")
        table = next(block for block in blocks if block.startswith("| Tag |"))
        rows = [[cell.strip(" `") for cell in line.split("|")[1:3]]
                for line in table.splitlines()[2:]]
        assert rows == [[tag, claim[0]] for tag, claim in leaders._CLAIMS.items()]
