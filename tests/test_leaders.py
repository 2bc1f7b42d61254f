"""Leader-set decision procedures, Dicksonian checks, structural probes."""

import itertools

import pytest

from gradedlie import (
    DegreeGapExceeded,
    DTuple,
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
    tuple_space,
    verify_claimed_subset,
)
from gradedlie import leaders
from gradedlie.algebras import (
    Z,
    algebra_to_str,
    compare_basis,
    degree,
    e,
    elements_in_window,
    enumerate_component,
    order_key,
    parse_algebra,
    sb,
    w,
)
from gradedlie.leaders import is_member
from helpers import EXD, H2, K3, S2, S3, SL2, VIR, W1, W2, WINDOWS, WITT, WITT_POS


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
                    out.append(DTuple(tuple(prefix), sign))
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
    + [
        (name, bound, length)
        for name in ("cartan-w:2", "special-s:2", "hamiltonian:2", "contact:3")
        for bound in (0, 1)
        for length in (3, 6)
    ]
)


class TestTupleSpace:
    def test_positive_compositions(self):
        assert tuple_space(WITT_POS, 2, PLUS) == [
            DTuple((e(2),), PLUS),
            DTuple((e(1), e(1)), PLUS),
        ]

    def test_negative_singleton(self):
        assert tuple_space(WITT, -1, MINUS) == [DTuple((e(-1),), MINUS)]

    def test_zero_degree_rejected(self):
        with pytest.raises(ValueError):
            tuple_space(WITT, 0, PLUS)

    def test_sign_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tuple_space(WITT, 2, MINUS)

    def test_gap_guard(self):
        with pytest.raises(DegreeGapExceeded):
            tuple_space(WITT, 10, PLUS, max_gap=5)
        tuple_space(WITT, 10, PLUS, max_gap=10)

    def test_total_degree_invariant(self):
        for t in tuple_space(WITT, 4, PLUS):
            assert sum(degree(WITT, b) for b in t.entries) == 4
            t.validate(WITT)

    @pytest.mark.parametrize("alg", list(WINDOWS), ids=algebra_to_str)
    def test_order_is_the_sorted_enumeration(self, alg):
        lo, hi = WINDOWS[alg]
        for d in range(min(lo, -1), max(hi, 1) + 1):
            if d:
                sign = PLUS if d > 0 else MINUS
                assert tuple_space(alg, d, sign) == sorted_tuples(alg, d, sign), d


class TestLCondition:
    def test_singleton_component_vacuous(self):
        assert l_condition_holds(WITT, e(1), DTuple((e(2),), PLUS)) is True

    def test_virasoro_central_rival_vacuous(self):
        assert l_condition_holds(VIR, e(0), DTuple((e(1),), PLUS)) is True

    def test_cartan_w_rival_checked(self):
        verdict = l_condition_holds(W2, w((0, 0), 2), DTuple((w((1, 1), 1),), PLUS))
        assert isinstance(verdict, bool)

    def test_zero_leader_raises(self):
        with pytest.raises(ZeroLeader):
            l_condition_holds(WITT, e(1), DTuple((e(1),), PLUS))
        with pytest.raises(ZeroLeader):
            l_condition_holds(W2, w((0, 0), 2), DTuple((w((2, 0), 1),), PLUS))


class TestLMember:
    def test_witness_found(self):
        report = l_member(WITT, e(1), e(3), PLUS)
        assert report.verdict is True
        assert report.witness == DTuple((e(2),), PLUS)

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

    def test_witt_small_window(self):
        for n in (2, 3):
            for i in range(1, 7):
                expected = i > n
                assert is_member(WITT_POS, e(n), e(i), PLUS) == expected


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

    @pytest.mark.parametrize("name, bound, length", SEARCH_GRID)
    def test_same_answer_as_reference(self, name, bound, length):
        alg = parse_algebra(name)
        assert search_leading_dicksonian(alg, bound, length) == reference_search(
            alg, bound, length
        )


def recording_l_member(monkeypatch):
    """Route leaders.l_member through a recorder; returns the list of
    (M, T, sign) it was called with."""
    calls = []
    decide = leaders.l_member

    def recorder(alg, M, T, sign, max_gap=leaders.DEFAULT_MAX_GAP):
        calls.append((M, T, sign))
        return decide(alg, M, T, sign, max_gap)

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


class TestVerifyClaimedSubset:
    def test_family_mismatch(self):
        with pytest.raises(ValueError):
            verify_claimed_subset(WITT, "W_i", 2)
        with pytest.raises(ValueError):
            verify_claimed_subset(W2, "nonsense", 2)

    def test_cartan_w_small(self):
        assert verify_claimed_subset(W2, "W_i", 2).verdict is True
        assert verify_claimed_subset(W2, "W_ii", 2).verdict is True

    def test_hamiltonian_small(self):
        assert verify_claimed_subset(H2, "H_1", 2).verdict is True
        assert verify_claimed_subset(H2, "H_2", 2).verdict is True

    def test_contact_small(self):
        assert verify_claimed_subset(K3, "K_1", 1).verdict is True
        assert verify_claimed_subset(K3, "K_2", 1).verdict is True

    def test_special_s_first_family(self):
        assert verify_claimed_subset(S2, "S_i", 2).verdict is True
        assert verify_claimed_subset(S3, "S_i", 2).verdict is True

    def test_special_s_second_family(self):
        assert verify_claimed_subset(S2, "S_ii", 5).verdict is True

    def test_failures_carry_exact_pairs(self, monkeypatch):
        # The degree-1 raise SB[2,1;2] -> SB[3,1;2] needs [M, M] = 0, so it
        # fails under every basis order.
        pair = (sb((2, 1), 2), sb((3, 1), 2))

        def claims(alg, tag, bound):
            yield pair

        monkeypatch.setitem(leaders._LEMMA_FAMILIES, "S_ii", ("SpecialS", claims))
        report = verify_claimed_subset(S2, "S_ii", 3)
        assert report.verdict is False
        assert report.failing == (pair,)
        assert report.notes == (
            "1 of 1 claimed memberships failed: SB[3,1;2] not in L+(SB[2,1;2])"
        )
