"""Bases, gradings, orders, and brackets of the built-in algebras."""

import random
from fractions import Fraction

import pytest

from gradedlie import (
    AlgebraSpec,
    InvalidElement,
    NotInSn,
    algebra_to_str,
    bracket_basis,
    compare_basis,
    degree,
    elements_in_window,
    enumerate_component,
    jacobi_residual,
    parse_algebra,
    sn_project,
    validate_element,
)
from gradedlie.algebras import Y, Z, dh, dk, e, loop, min_degree, sa, sb, sn_expand, w, x
from helpers import ALL_ALGEBRAS, EXD, H2, K3, S2, SL2, VIR, W2, WINDOWS, WITT, WITT_POS, window_basis


class TestAlgebraSpec:
    def test_parameterless_families_reject_rank(self):
        with pytest.raises(ValueError):
            AlgebraSpec("Witt", 2)

    def test_parametric_families_require_rank(self):
        with pytest.raises(ValueError):
            AlgebraSpec("CartanW")
        with pytest.raises(ValueError):
            AlgebraSpec("CartanW", 1)

    def test_hamiltonian_rank_even(self):
        with pytest.raises(ValueError):
            AlgebraSpec("HamiltonianH", 3)

    def test_contact_rank_odd(self):
        with pytest.raises(ValueError):
            AlgebraSpec("ContactK", 4)
        with pytest.raises(ValueError):
            AlgebraSpec("ContactK", 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            AlgebraSpec("Heisenberg")

    def test_name_round_trip(self):
        names = [
            "witt",
            "witt+",
            "w1",
            "virasoro",
            "cartan-w:3",
            "special-s:2",
            "hamiltonian:4",
            "contact:3",
            "loop-sl2",
            "example-d",
        ]
        for name in names:
            assert algebra_to_str(parse_algebra(name)) == name
        with pytest.raises(ValueError):
            parse_algebra("witt-")
        with pytest.raises(ValueError, match="unknown algebra name"):
            parse_algebra("cartan-w:--3")


class TestValidateElement:
    def test_witt_positive_index_bound(self):
        validate_element(WITT_POS, e(1))
        with pytest.raises(InvalidElement):
            validate_element(WITT_POS, e(0))

    def test_w1_index_bound(self):
        w1 = AlgebraSpec("CartanW1")
        validate_element(w1, e(-1))
        with pytest.raises(InvalidElement):
            validate_element(w1, e(-2))

    def test_central_element_only_in_virasoro(self):
        validate_element(VIR, Z)
        with pytest.raises(InvalidElement):
            validate_element(WITT, Z)

    def test_cartan_w_index_length_and_direction(self):
        validate_element(W2, w((1, 2), 2))
        with pytest.raises(InvalidElement):
            validate_element(W2, w((1, 2, 3), 1))
        with pytest.raises(InvalidElement):
            validate_element(W2, w((1, 2), 3))

    def test_special_s_shape_constraints(self):
        validate_element(S2, sa((0, 1)))
        validate_element(S2, sb((1, 1), 2))
        with pytest.raises(InvalidElement):
            validate_element(S2, sa((1, 1)))
        with pytest.raises(InvalidElement):
            validate_element(S2, sb((0, 1), 2))

    def test_hamiltonian_nonzero_index(self):
        validate_element(H2, dh((1, 0)))
        with pytest.raises(InvalidElement):
            validate_element(H2, dh((0, 0)))

    def test_contact_allows_zero_index(self):
        validate_element(K3, dk((0, 0, 0)))

    def test_example_d_index_bound(self):
        validate_element(EXD, x(1))
        validate_element(EXD, Y)
        with pytest.raises(InvalidElement):
            validate_element(EXD, x(0))


class TestDegree:
    def test_witt(self):
        assert degree(WITT, e(5)) == 5

    def test_contact_weighted_index(self):
        assert degree(K3, dk((0, 0, 1))) == 0

    def test_loop_sl2(self):
        assert degree(SL2, loop("F", 1)) == 2

    def test_virasoro_central(self):
        assert degree(VIR, Z) == 0

    def test_special_s_shapes(self):
        assert degree(S2, sa((0, 2))) == 1
        assert degree(S2, sb((1, 2), 2)) == 1

    def test_example_d(self):
        assert degree(EXD, x(3)) == 3
        assert degree(EXD, Y) == 1

    def test_min_degree(self):
        assert min_degree(WITT_POS) == 1
        assert min_degree(EXD) == 1
        assert min_degree(W2) == -1
        assert min_degree(K3) == -2
        assert min_degree(WITT) is None


class TestOrder:
    def test_virasoro_central_below_e0(self):
        assert compare_basis(VIR, Z, e(0)) == -1
        assert compare_basis(VIR, e(-1), Z) == -1

    def test_cartan_w_direction_tiebreak(self):
        assert compare_basis(W2, w((0, 0), 1), w((0, 0), 2)) == -1

    def test_reflexive(self):
        assert compare_basis(WITT, e(3), e(3)) == 0

    def test_example_d_tiebreak(self):
        assert compare_basis(EXD, x(1), Y) == -1

    def test_special_s_shape_a_on_top(self):
        for alg in (S2, AlgebraSpec("SpecialS", 3)):
            for d in range(-1, 3):
                comp = enumerate_component(alg, d)
                shapes = [b[0] for b in comp]
                assert shapes == sorted(shapes, key=lambda s: s == "sa")
                assert shapes[-1] == "sa"

    def test_special_s2_order_is_hamiltonian_order(self):
        # SA[0,j] -> DH[0,j+1], SB[i;2] -> DH[i] maps S_2 onto H_2
        # preserving bracket supports; the S_2 order is the one it transports.
        def to_h(b):
            return dh((0, b[1][1] + 1)) if b[0] == "sa" else dh(b[1])

        pool = window_basis(S2)
        assert WINDOWS[S2] == WINDOWS[H2]
        assert [to_h(b) for b in pool] == window_basis(H2)
        for a in pool:
            for b in pool:
                image = {to_h(c) for c in bracket_basis(S2, a, b)}
                assert image == set(bracket_basis(H2, to_h(a), to_h(b)))

    def test_grading_compatible(self):
        for alg in ALL_ALGEBRAS:
            pool = window_basis(alg)
            for a in pool:
                for b in pool:
                    if degree(alg, a) < degree(alg, b):
                        assert compare_basis(alg, a, b) == -1

    def test_total_order(self):
        for alg in ALL_ALGEBRAS:
            pool = window_basis(alg)
            for a in pool:
                for b in pool:
                    c = compare_basis(alg, a, b)
                    assert c == -compare_basis(alg, b, a)
                    assert (c == 0) == (a == b)


class TestBracket:
    def test_witt(self):
        assert bracket_basis(WITT, e(1), e(2)) == {e(3): Fraction(1)}

    def test_antisymmetry_diagonal(self):
        assert bracket_basis(WITT, e(4), e(4)) == {}

    def test_virasoro_central_term(self):
        br = bracket_basis(VIR, e(-2), e(2))
        assert br == {e(0): Fraction(4), Z: Fraction(-1, 2)}

    def test_virasoro_central_is_central(self):
        assert bracket_basis(VIR, Z, e(3)) == {}

    def test_cartan_w(self):
        br = bracket_basis(W2, w((0, 1), 1), w((1, 0), 1))
        assert br == {w((0, 1), 1): Fraction(1)}

    def test_example_d(self):
        assert bracket_basis(EXD, Y, x(2)) == {x(3): Fraction(1)}
        assert bracket_basis(EXD, x(1), x(5)) == {}

    def test_loop_sl2(self):
        assert bracket_basis(SL2, loop("E", 0), loop("F", 1)) == {loop("H", 1): Fraction(1)}
        assert bracket_basis(SL2, loop("H", 0), loop("E", 2)) == {loop("E", 2): Fraction(2)}
        assert bracket_basis(SL2, loop("H", 1), loop("H", -1)) == {}

    def test_grading(self):
        for alg in ALL_ALGEBRAS:
            pool = window_basis(alg)
            rng = random.Random(7)
            pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
            for a, b in pairs:
                d = degree(alg, a) + degree(alg, b)
                for m in bracket_basis(alg, a, b):
                    assert degree(alg, m) == d

    def test_antisymmetry_window(self):
        for alg in ALL_ALGEBRAS:
            pool = window_basis(alg)
            rng = random.Random(11)
            for _ in range(60):
                a, b = rng.choice(pool), rng.choice(pool)
                ab = bracket_basis(alg, a, b)
                ba = bracket_basis(alg, b, a)
                assert ab == {m: -c for m, c in ba.items()}


class TestJacobi:
    def test_witt(self):
        assert jacobi_residual(WITT, e(1), e(2), e(3)) == {}

    def test_virasoro(self):
        assert jacobi_residual(VIR, e(-2), e(1), e(1)) == {}

    def test_hamiltonian(self):
        assert jacobi_residual(H2, dh((2, 0)), dh((1, 1)), dh((0, 2))) == {}

    def test_random_triples(self):
        rng = random.Random(13)
        for alg in ALL_ALGEBRAS:
            pool = window_basis(alg)
            for _ in range(40):
                a, b, c = (rng.choice(pool) for _ in range(3))
                assert jacobi_residual(alg, a, b, c) == {}


class TestEnumeration:
    def test_virasoro_degree_zero(self):
        assert enumerate_component(VIR, 0) == [Z, e(0)]

    def test_witt_positive_empty(self):
        assert enumerate_component(WITT_POS, 0) == []

    def test_cartan_w_lowest(self):
        assert enumerate_component(W2, -1) == [w((0, 0), 1), w((0, 0), 2)]

    def test_example_d_degree_one(self):
        assert enumerate_component(EXD, 1) == [x(1), Y]

    def test_sorted_and_window_consistent(self):
        for alg in ALL_ALGEBRAS:
            lo, hi = WINDOWS[alg]
            seen = []
            for d in range(lo, hi + 1):
                comp = enumerate_component(alg, d)
                assert all(degree(alg, b) == d for b in comp)
                assert all(
                    compare_basis(alg, comp[i], comp[i + 1]) == -1
                    for i in range(len(comp) - 1)
                )
                seen.extend(comp)
            assert list(elements_in_window(alg, lo, hi)) == seen


class TestSnProjection:
    def test_shape_a_passthrough(self):
        assert sn_project(S2, {w((0, 1), 1): Fraction(1)}) == {sa((0, 1)): Fraction(1)}

    def test_shape_b_exact_match(self):
        v = {w((1, 0), 1): Fraction(1), w((0, 1), 2): Fraction(-1)}
        assert sn_project(S2, v) == {sb((1, 1), 2): Fraction(1)}

    def test_nonzero_divergence_rejected(self):
        with pytest.raises(NotInSn):
            sn_project(S2, {w((1, 0), 1): Fraction(1)})

    def test_section_property(self):
        for alg in (S2, AlgebraSpec("SpecialS", 3)):
            for b in window_basis(alg, (-1, 3)):
                assert sn_project(alg, sn_expand(alg, b)) == {b: Fraction(1)}
