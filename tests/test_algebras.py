"""Bases, gradings, orders, and brackets of the built-in algebras."""

import itertools
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
from gradedlie import algebras
from gradedlie.algebras import (
    CARTAN_W,
    CONTACT_K,
    HAMILTONIAN_H,
    SPECIAL_S,
    Y,
    Z,
    bracket_lie,
    dh,
    lie_add,
    dk,
    e,
    loop,
    min_degree,
    sa,
    sb,
    sn_expand,
    w,
    x,
)
import cartan_reference
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
    W2,
    W3,
    W4,
    WINDOWS,
    WITT,
    WITT_POS,
    MULTIGRADED_WINDOWS,
    halves,
    minus,
    multidegree,
    unit,
    window_basis,
)


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

    @pytest.mark.parametrize("args, message", [
        (("Heisenberg",), "unknown algebra family: 'Heisenberg'"),
        (("Witt", 2), "Witt takes no rank parameter"),
        (("CartanW",), "CartanW requires a rank n >= 2"),
        (("CartanW", 1), "CartanW requires a rank n >= 2"),
        (("HamiltonianH", 3), "HamiltonianH requires an even rank n >= 2"),
        (("ContactK", 4), "ContactK requires an odd rank n >= 3"),
    ])
    def test_refusals_keep_their_messages(self, args, message):
        with pytest.raises(ValueError) as info:
            AlgebraSpec(*args)
        assert str(info.value) == message

    def test_a_record_of_its_fields(self):
        spec = AlgebraSpec("CartanW", 2)
        assert repr(spec) == "AlgebraSpec(family='CartanW', n=2)"
        assert repr(AlgebraSpec("Witt")) == "AlgebraSpec(family='Witt', n=None)"
        assert (spec.family, spec.n) == ("CartanW", 2)
        assert spec == AlgebraSpec(family="CartanW", n=2)
        assert hash(spec) == hash(("CartanW", 2))
        assert spec != AlgebraSpec("CartanW", 3)

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
        for name in ("cartan-w:--3", "cartan-w:²"):
            with pytest.raises(ValueError, match="unknown algebra name"):
                parse_algebra(name)


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
        assert all(degree(H2, to_h(b)) == degree(S2, b) for b in pool)
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

    def test_plain_tuple_order_is_total_on_each_family(self):
        # Monomials sort their factors by this order (poly.mono), so it
        # must compare any two elements of one family.
        for alg in ALL_ALGEBRAS + (S3, H4):
            pool = window_basis(alg)
            assert len(set(sorted(pool))) == len(pool)


class TestBracket:
    def test_witt(self):
        assert bracket_basis(WITT, e(1), e(2)) == {e(3): Fraction(1)}

    def test_antisymmetry_diagonal(self):
        assert bracket_basis(WITT, e(4), e(4)) == {}

    def test_virasoro_central_term(self):
        br = bracket_basis(VIR, e(-2), e(2))
        assert br == {e(0): Fraction(4), Z: Fraction(-1, 2)}

    def test_virasoro_central_term_is_exact(self):
        half = bracket_basis(VIR, e(2), e(-2))[Z]
        assert (type(half), half) == (Fraction, Fraction(1, 2))
        two = bracket_basis(VIR, e(3), e(-3))[Z]
        assert (type(two), two) == (int, 2)

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

    def test_every_degree_from_the_least_up_has_an_element(self):
        # leaders.check_cofinite_window reads a window's extreme degrees
        # off its bounds on this ground.
        for alg in ALL_ALGEBRAS:
            floor = min_degree(alg)
            lo = -8 if floor is None else floor
            assert all(enumerate_component(alg, d) for d in range(lo, lo + 16))
            if floor is not None:
                assert enumerate_component(alg, floor - 1) == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compositions_in_lex_order(self, n):
        # Negative totals give none, and n = 1 gives (total,) alone.
        for t in range(-2, 8):
            want = [c for c in itertools.product(range(max(t, 0) + 1), repeat=n) if sum(c) == t]
            assert list(algebras._compositions(t, n)) == want

    def test_degrees_below_the_least_are_not_scanned(self):
        for alg in ALL_ALGEBRAS:
            floor = min_degree(alg)
            if floor is not None:
                assert (elements_in_window(alg, -10**12, floor + 1)
                        == elements_in_window(alg, floor, floor + 1))


def grading_violations(alg, window, grading):
    """(terms whose grading is not the sum of their bracket operands',
    terms checked) over every bracket of two elements of the window."""
    pool = elements_in_window(alg, *window)
    of = {b: grading(alg, b) for b in pool}
    bad = terms = 0
    for a in pool:
        for b in pool:
            want = tuple(u + v for u, v in zip(of[a], of[b]))
            for c in bracket_basis(alg, a, b):
                terms += 1
                bad += grading(alg, c) != want
    return bad, terms


def _w_without_unit(alg, b):
    return b[1] if b[0] == "w" else multidegree(alg, b)


def _s_without_unit_k(alg, b):
    return minus(b[1], unit(alg.n, 1)) if b[0] == "sb" else multidegree(alg, b)


def _h_with_a_sum(alg, b):
    return halves(b[1], alg.n // 2, int.__add__) + (sum(b[1]) - 2,)


def _k_with_a_sum(alg, b):
    return halves(b[1], alg.n // 2, int.__add__) + (degree(alg, b),)


class TestMultigrading:
    @pytest.mark.parametrize("name, window", MULTIGRADED_WINDOWS + [
        ("witt", (-5, 5)), ("virasoro", (-5, 5)), ("loop-sl2", (-5, 5)),
    ])
    def test_brackets_are_additive(self, name, window):
        bad, terms = grading_violations(parse_algebra(name), window, multidegree)
        assert terms and bad == 0

    @pytest.mark.parametrize("name, window", MULTIGRADED_WINDOWS)
    def test_the_family_grading_is_the_tests_own(self, name, window):
        alg = parse_algebra(name)
        grading = algebras._FAMILIES[alg.family].grading
        for b in elements_in_window(alg, *window):
            assert grading(alg, b) == multidegree(alg, b), b

    def test_the_families_graded_by_the_degree_alone_have_no_grading(self):
        graded = {parse_algebra(name).family for name, _ in MULTIGRADED_WINDOWS}
        assert graded == {CARTAN_W, SPECIAL_S, HAMILTONIAN_H, CONTACT_K}
        for family, fam in algebras._FAMILIES.items():
            assert (fam.grading is None) == (family not in graded), family

    @pytest.mark.parametrize("name, window", MULTIGRADED_WINDOWS)
    def test_a_grading_with_one_part_wrong_fails(self, name, window):
        wrong = {"cartan-w": _w_without_unit, "special-s": _s_without_unit_k,
                 "hamiltonian": _h_with_a_sum, "contact": _k_with_a_sum}[name.partition(":")[0]]
        assert grading_violations(parse_algebra(name), window, wrong)[0] > 0


class TestSnProjection:
    def test_shape_a_passthrough(self):
        assert sn_project(S2, {w((0, 1), 1): Fraction(1)}) == {sa((0, 1)): Fraction(1)}

    def test_shape_b_exact_match(self):
        v = {w((1, 0), 1): Fraction(1), w((0, 1), 2): Fraction(-1)}
        assert sn_project(S2, v) == {sb((1, 1), 2): Fraction(1)}

    def test_integral_quotient_is_an_int(self):
        # SB[2,1;2] = x^(2,0) d_1 - 2 x^(1,1) d_2: its coefficient is -(-2)/2.
        out = sn_project(S2, {w((2, 0), 1): 1, w((1, 1), 2): -2})
        assert out == {sb((2, 1), 2): 1}
        assert type(out[sb((2, 1), 2)]) is int

    def test_fractional_quotient_is_a_fraction(self):
        out = sn_project(S2, {w((2, 0), 1): Fraction(1, 2), w((1, 1), 2): -1})
        assert out == {sb((2, 1), 2): Fraction(1, 2)}
        assert type(out[sb((2, 1), 2)]) is Fraction

    def test_zero_values_are_ignored(self):
        assert sn_project(S2, {w((1, 1), 2): 0, w((0, 1), 1): 2, w((2, 0), 1): 0}) == {
            sa((0, 1)): 2}

    def test_nonzero_divergence_rejected(self):
        with pytest.raises(NotInSn):
            sn_project(S2, {w((1, 0), 1): Fraction(1)})

    def test_section_property(self):
        for alg in (S2, AlgebraSpec("SpecialS", 3)):
            for b in window_basis(alg, (-1, 3)):
                assert sn_project(alg, sn_expand(alg, b)) == {b: Fraction(1)}


class TestOnePassKernels:
    """The one-pass W_n, S_n, H_n and K_n kernels against the two-pass
    formulas of cartan_reference, on every pair of each window."""

    @pytest.mark.parametrize("alg", [W2, W3, W4, S2, S3, S4, H2, H4, K3], ids=algebra_to_str)
    def test_brackets_equal_the_reference(self, alg):
        pool = window_basis(alg)
        for a in pool:
            for b in pool:
                got = bracket_basis(alg, a, b)
                assert got == cartan_reference.reference_bracket(alg, a, b), (a, b)
                assert all(c and exact(c) for c in got.values()), (a, b)

    @pytest.mark.parametrize("alg", [S2, S3, S4], ids=algebra_to_str)
    def test_projection_equals_the_reference(self, alg):
        # Sums of expansions with Fraction coefficients project as the
        # reference does; one more d_1 term with u_1 > 0 is refused by both.
        rng = random.Random(31)
        pool = window_basis(alg, (-1, 2))
        for _ in range(200):
            v = {}
            for b in rng.sample(pool, 3):
                lie_add(v, sn_expand(alg, b), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            got = sn_project(alg, v)
            assert got == cartan_reference.sn_project(v), v
            assert all(c and exact(c) for c in got.values()), v
            lie_add(v, {w((1,) + (0,) * (alg.n - 1), 1): 1})
            for project in (lambda v: sn_project(alg, v), cartan_reference.sn_project):
                with pytest.raises(NotInSn):
                    project(v)


def exact(c):
    """An int, or a Fraction that is not integral: never a float, and never
    an integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


class TestCoefficientTypes:
    """A Lie element's values are ints while integral, else Fractions."""

    @pytest.mark.parametrize("alg", ALL_ALGEBRAS + (W3, S3, H4), ids=algebra_to_str)
    def test_brackets_on_the_window(self, alg):
        pool = window_basis(alg)
        for a in pool:
            for b in pool:
                assert all(exact(c) for c in bracket_basis(alg, a, b).values()), (a, b)

    @pytest.mark.parametrize("alg", ALL_ALGEBRAS + (W3, S3, H4), ids=algebra_to_str)
    def test_iterated_brackets_and_jacobi_residuals(self, alg):
        rng = random.Random(19)
        pool = window_basis(alg)
        for _ in range(150):
            a, b, c = (rng.choice(pool) for _ in range(3))
            inner = bracket_lie(alg, bracket_basis(alg, a, b), {c: 1})
            assert all(exact(v) for v in inner.values()), (a, b, c)
            assert all(exact(v) for v in jacobi_residual(alg, a, b, c).values()), (a, b, c)

    def test_cancelled_denominators_give_an_int(self):
        ab = bracket_basis(S3, sb((2, 0, 0), 2), sb((2, 1, 0), 3))
        assert ab == {sb((3, 0, 0), 3): Fraction(-4, 3)}
        v = bracket_lie(S3, ab, {sa((0, 0, 0)): 1})
        assert v == {sb((2, 0, 0), 3): 4}
        assert type(v[sb((2, 0, 0), 3)]) is int
