"""Reduction predicates, the elimination algorithm, and certificates."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from gradedlie import (
    DTuple,
    MINUS,
    PLUS,
    NonTermination,
    NotReducedSequence,
    Polynomial,
    ReductionCertificate,
    cert_to_json,
    d_op,
    full_reduce,
    is_partially_reduced,
    is_reduced,
    is_reduced_sequence,
    partial_reduce,
    verify_certificate,
)
from gradedlie import elim, leaders
from gradedlie.algebras import degree, e, enumerate_component, order_key
from gradedlie.cli import main
from gradedlie.leaders import iter_witnesses
from gradedlie.poly import d_bracket
from helpers import (
    H2,
    H4,
    K3,
    P,
    S2,
    VIR,
    W2,
    WITT,
    WITT_POS,
    random_fraction,
    random_poly,
    random_reduced_sequence,
    window_basis,
)
from poly_reference import (
    reference_mul,
    reference_power,
    reference_quotient,
    reference_substitution,
)

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def upper_bound_key(alg, g, lam):
    keys = [order_key(alg, f.leader(PLUS)) for f in lam]
    if not g.is_constant():
        keys.append(order_key(alg, g.leader(PLUS)))
    return max(keys)


def lower_bound_key(alg, g, lam):
    keys = [order_key(alg, f.leader(MINUS)) for f in lam]
    if not g.is_constant():
        keys.append(order_key(alg, g.leader(MINUS)))
    return min(keys)


class TestReducedPredicates:
    def test_partially_reduced(self):
        lam = (P(WITT_POS, "e[1]^2"),)
        assert is_partially_reduced(WITT_POS, P(WITT_POS, "e[2]"), lam) is True
        assert is_partially_reduced(WITT_POS, P(WITT_POS, "e[4]"), lam) is False
        assert is_partially_reduced(WITT_POS, Polynomial.const(WITT_POS, Fraction(3)), lam) is True

    def test_reduced(self):
        lam = (P(WITT_POS, "e[1]^2"),)
        assert is_reduced(WITT_POS, P(WITT_POS, "e[1]"), lam) is True
        assert is_reduced(WITT_POS, P(WITT_POS, "e[1]^2"), lam) is False
        assert is_reduced(WITT_POS, P(WITT_POS, "e[2]*e[1]"), lam) is True

    def test_reduced_sequence(self):
        assert is_reduced_sequence(WITT_POS, (P(WITT_POS, "e[1]^2"),)) is True
        assert is_reduced_sequence(
            WITT_POS, (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[2]^2"))
        ) is True
        assert is_reduced_sequence(
            WITT_POS, (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[4]"))
        ) is False

    def test_leaders_are_read_once_per_call(self, monkeypatch):
        calls = []
        leader = Polynomial.leader
        monkeypatch.setattr(Polynomial, "leader",
                            lambda self, sign: calls.append(sign) or leader(self, sign))
        lam = (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[2]^2 + e[1]"))
        g = P(WITT_POS, "e[1]*e[2] + e[1]^3")
        assert is_partially_reduced(WITT_POS, g, lam) is True
        assert len(calls) == 2 * len(lam)

    def test_constant_generator_rejected(self):
        with pytest.raises(ValueError):
            is_reduced_sequence(WITT_POS, (Polynomial.const(WITT_POS, Fraction(2)),))
        with pytest.raises(ValueError):
            partial_reduce(WITT_POS, P(WITT_POS, "e[2]"), ())

    def test_foreign_generator_rejected(self):
        with pytest.raises(ValueError, match="^generator over a different algebra$"):
            partial_reduce(WITT_POS, P(WITT_POS, "e[2]"), (P(WITT, "e[1]^2"),))


class TestPartialReduce:
    def test_worked_example(self):
        g = P(WITT_POS, "e[4]")
        lam = (P(WITT_POS, "e[1]^2"),)
        remainder, cert = partial_reduce(WITT_POS, g, lam)
        assert remainder.is_zero()
        assert cert.multipliers[0].sep_plus == 1
        assert cert.multipliers[0].initial == 0
        assert len(cert.terms) == 1
        term = cert.terms[0]
        assert term.coeff == Polynomial.const(WITT_POS, Fraction(1, 2))
        assert term.gen == 0
        assert term.dtuple == DTuple(WITT_POS, (e(3),))
        assert d_op(lam[0], term.dtuple) == P(WITT_POS, "4*e[1]*e[4]")
        assert verify_certificate(WITT_POS, cert) is True

    def test_offenders_found_by_witnesses_alone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("is_member called during partial_reduce")

        monkeypatch.setattr(elim, "is_member", refuse)
        remainder, cert = partial_reduce(WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),))
        assert remainder.is_zero()
        assert verify_certificate(WITT_POS, cert) is True

    def test_offenders_are_not_checked_again(self, monkeypatch):
        # The reducer asks for witnesses of elements read off its own
        # polynomials, so it walks past the public shell that checks them.
        calls = []
        check = leaders.validate_element
        monkeypatch.setattr(leaders, "validate_element",
                            lambda alg, b: calls.append(b) or check(alg, b))
        g = P(WITT, "e[-2]*e[4]")
        lam = (P(WITT, "e[-1]^2 + e[1]"),)
        remainder, cert = partial_reduce(WITT, g, lam)
        assert cert.terms
        assert verify_certificate(WITT, cert) is True
        assert calls == []

    def test_already_reduced_is_identity(self):
        g = P(WITT_POS, "e[2]")
        remainder, cert = partial_reduce(WITT_POS, g, (P(WITT_POS, "e[1]^2"),))
        assert remainder == g
        assert cert.terms == ()
        assert all(
            m.initial == 0 and m.sep_plus == 0 and m.sep_minus == 0
            for m in cert.multipliers
        )
        assert verify_certificate(WITT_POS, cert) is True

    def test_two_sided_window_bound(self):
        g = P(WITT, "e[-2]*e[4]")
        lam = (P(WITT, "e[-1]^2 + e[1]"),)
        remainder, cert = partial_reduce(WITT, g, lam)
        assert verify_certificate(WITT, cert) is True
        assert is_partially_reduced(WITT, remainder, lam) is True
        if not remainder.is_constant():
            assert order_key(WITT, remainder.leader(PLUS)) <= order_key(WITT, e(4))

    def test_multipliers_use_only_separants(self):
        rng = random.Random(29)
        pool = [e(n) for n in range(1, 6)]
        for _ in range(30):
            g = random_poly(WITT_POS, rng, pool=pool, max_support=3, max_exp=2)
            lam = tuple(
                random_poly(WITT_POS, rng, pool=pool, max_support=2, max_exp=2)
                for _ in range(rng.randint(1, 2))
            )
            if any(f.is_constant() for f in lam):
                continue
            remainder, cert = partial_reduce(WITT_POS, g, lam)
            assert all(m.initial == 0 for m in cert.multipliers)
            assert verify_certificate(WITT_POS, cert) is True
            assert is_partially_reduced(WITT_POS, remainder, lam) is True


class TestFullReduce:
    def test_pseudo_division_example(self):
        g = P(WITT_POS, "e[1]^3")
        lam = (P(WITT_POS, "e[1]^2"),)
        remainder, cert = full_reduce(WITT_POS, g, lam)
        assert remainder.is_zero()
        assert len(cert.terms) == 1
        term = cert.terms[0]
        assert term.coeff == P(WITT_POS, "e[1]")
        assert term.gen == 0
        assert term.dtuple is None
        assert verify_certificate(WITT_POS, cert) is True

    def test_already_reduced_is_identity(self):
        g = P(WITT_POS, "e[1]")
        remainder, cert = full_reduce(WITT_POS, g, (P(WITT_POS, "e[1]^2"),))
        assert remainder == g
        assert cert.terms == ()
        assert verify_certificate(WITT_POS, cert) is True

    def test_two_generator_example(self):
        g = P(WITT_POS, "e[1]^2*e[2] + e[3]")
        lam = (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[2]^2"))
        remainder, cert = full_reduce(WITT_POS, g, lam)
        assert remainder.degree_in(e(1)) < 2
        assert remainder.degree_in(e(2)) < 2
        assert is_reduced(WITT_POS, remainder, lam) is True
        assert verify_certificate(WITT_POS, cert) is True

    def test_fixpoint_is_not_decided_again(self, monkeypatch):
        # is_reduced_sequence decides each generator against the other
        # once; after the last partial fixpoint only degrees are checked.
        calls = []
        decide = elim._partially_reduced
        monkeypatch.setattr(elim, "_partially_reduced",
                            lambda *args: calls.append(args[1]) or decide(*args))
        lam = (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[2]^2"))
        remainder, cert = full_reduce(WITT_POS, P(WITT_POS, "e[1]^2*e[2] + e[3]"), lam)
        assert calls == list(lam)
        assert is_reduced(WITT_POS, remainder, lam) is True
        assert verify_certificate(WITT_POS, cert) is True

    def test_one_table_per_call(self, monkeypatch):
        # The sequence check decides through the reducer's own table.
        made = []

        class Spy(elim._Table):
            __slots__ = ()

            def __init__(self, alg):
                made.append(alg)
                super().__init__(alg)

        monkeypatch.setattr(elim, "_Table", Spy)
        lam = (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[2]^2"))
        remainder, cert = full_reduce(WITT_POS, P(WITT_POS, "e[1]^2*e[2] + e[3]"), lam)
        assert made == [WITT_POS]
        assert verify_certificate(WITT_POS, cert) is True
        assert is_reduced_sequence(WITT_POS, lam) is True
        assert made == [WITT_POS] * 2

    def test_rejects_unreduced_sequence(self):
        with pytest.raises(NotReducedSequence):
            full_reduce(
                WITT_POS,
                P(WITT_POS, "e[3]"),
                (P(WITT_POS, "e[1]^2"), P(WITT_POS, "e[4]")),
            )

    def test_reduced_sequences_have_distinct_upper_ranks(self):
        # full_reduce walks the generators by descending upper rank, which
        # has no ties to break in a reduced sequence: equal leaders and
        # leader degrees fail is_reduced's degree condition.
        rng = random.Random(37)
        pool = [e(1), e(2)]
        accepted = tied = 0
        for _ in range(200):
            candidates = [random_reduced_sequence(rng), tuple(
                random_poly(WITT_POS, rng, pool=pool, max_support=2, max_exp=2)
                for _ in range(rng.randint(2, 3))
            )]
            for lam in candidates:
                if lam is None or any(f.is_constant() for f in lam):
                    continue
                ranks = [f.rank(PLUS) for f in lam]
                if len(set(ranks)) < len(ranks):
                    tied += 1
                if is_reduced_sequence(WITT_POS, lam):
                    accepted += 1
                    assert len(set(ranks)) == len(ranks), lam
        assert accepted > 50 and tied > 10

    def test_tied_upper_ranks_rejected(self):
        with pytest.raises(NotReducedSequence):
            full_reduce(
                WITT_POS,
                P(WITT_POS, "e[4]"),
                (P(WITT_POS, "e[1]^2"), P(WITT_POS, "2*e[1]^2 + e[1]")),
            )

    def test_window_bounds(self):
        rng = random.Random(31)
        pool = [e(n) for n in range(1, 6)]
        for _ in range(25):
            g = random_poly(WITT_POS, rng, pool=pool, max_support=3, max_exp=2)
            f1 = random_poly(WITT_POS, rng, pool=[e(1)], max_support=2, max_exp=3)
            if f1.is_constant():
                continue
            lam = (f1,)
            remainder, cert = full_reduce(WITT_POS, g, lam)
            assert is_reduced(WITT_POS, remainder, lam) is True
            assert verify_certificate(WITT_POS, cert) is True
            if not remainder.is_constant():
                assert order_key(WITT_POS, remainder.leader(PLUS)) <= upper_bound_key(
                    WITT_POS, g, lam
                )
                assert order_key(WITT_POS, remainder.leader(MINUS)) >= lower_bound_key(
                    WITT_POS, g, lam
                )


def capture_reducers(monkeypatch):
    """Record each _Reducer whose certificate is taken."""
    seen = []
    certificate = elim._Reducer.certificate

    def record(self):
        seen.append(self)
        return certificate(self)

    monkeypatch.setattr(elim._Reducer, "certificate", record)
    return seen


class TestDeferredMultipliers:
    # The separant step of e[1]^2 + e[1] removes e[4]; pseudo-division then
    # multiplies by the initial of e[2]^2 + e[1]*e[2] twice and by the
    # initial of e[1]^2 + e[1] twice, so the first term is multiplied by
    # four later multipliers from two generators.
    G = "e[4]*e[1]^2 + e[2]^3"
    LAM = ("e[1]^2 + e[1]", "e[2]^2 + e[1]*e[2]")
    STEPS = [(0, "sep"), (1, "init"), (1, "init"), (0, "init"), (0, "init")]

    def reduce(self, monkeypatch):
        reducers = capture_reducers(monkeypatch)
        lam = tuple(P(WITT_POS, f) for f in self.LAM)
        _, cert = full_reduce(WITT_POS, P(WITT_POS, self.G), lam)
        return reducers[-1], cert

    def test_steps_interleave(self, monkeypatch):
        red, cert = self.reduce(monkeypatch)
        steps = [(t[1], "init" if t[2] is None else "sep") for t in red.terms]
        assert steps == self.STEPS
        assert [(m.initial, m.sep_plus, m.sep_minus) for m in cert.multipliers] == [
            (2, 1, 0),
            (2, 0, 0),
        ]
        assert verify_certificate(WITT_POS, cert) is True

    def test_coefficients_match_eager_rescaling(self, monkeypatch):
        red, cert = self.reduce(monkeypatch)
        eager = []
        for coeff, _, _, mult in red.terms:
            eager = [c * mult for c in eager]
            eager.append(coeff)
        assert [t.coeff for t in cert.terms] == eager

    def test_certificate_leaves_reducer_unchanged(self):
        lam = tuple(P(WITT_POS, f) for f in self.LAM)
        red = elim._Reducer(
            WITT_POS, P(WITT_POS, self.G), lam, elim.DEFAULT_MAX_GAP, elim.DEFAULT_MAX_STEPS
        )
        red.partial_fixpoint()
        red.pseudo_divide(1)
        state = (red.g, list(red.terms), [list(ex) for ex in red.exps], red.steps)
        first, second = red.certificate(), red.certificate()
        assert cert_to_json(first) == cert_to_json(second)
        assert (red.g, red.terms, red.exps, red.steps) == state
        assert verify_certificate(WITT_POS, second) is True


class TestCertificates:
    def make_cert(self):
        return partial_reduce(WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),))[1]

    def test_tampered_remainder_rejected(self):
        cert = self.make_cert()
        bad = cert._replace(remainder=Polynomial.const(WITT_POS, Fraction(1)))
        assert verify_certificate(WITT_POS, bad) is False

    def test_certificates_compare_by_value(self):
        first, second = self.make_cert(), self.make_cert()
        assert first is not second and first == second
        assert first.terms[0] == second.terms[0]
        assert first._replace(remainder=Polynomial.const(WITT_POS, Fraction(1))) != second

    def test_wrong_algebra_rejected(self):
        cert = self.make_cert()
        assert verify_certificate(WITT, cert) is False

    def test_empty_certificate_is_identity(self):
        g = P(WITT_POS, "e[2] + e[5]")
        lam = (P(WITT_POS, "e[1]^2"),)
        cert = ReductionCertificate(
            alg=WITT_POS,
            input=g,
            remainder=g,
            generators=lam,
            multipliers=(type(self.make_cert().multipliers[0])(),),
            terms=(),
        )
        assert verify_certificate(WITT_POS, cert) is True

    def test_deterministic(self):
        runs = [
            partial_reduce(WITT, P(WITT, "e[-2]*e[4]"), (P(WITT, "e[-1]^2 + e[1]"),))
            for _ in range(2)
        ]
        assert runs[0][0] == runs[1][0]
        assert cert_to_json(runs[0][1]) == cert_to_json(runs[1][1])

    def test_step_guard(self):
        with pytest.raises(NonTermination):
            partial_reduce(
                WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),), max_steps=0
            )


class TestMovingOffenderGuard:
    """Within one pass each offender must lie strictly past the previous
    one: below it in the "+" pass, above it in the "-" pass."""

    @pytest.mark.parametrize("alg, g, f", [
        (WITT_POS, "e[4]", "e[1]^2"),  # the "+" pass
        (WITT, "e[-4]", "e[-1]^2"),  # the "-" pass
    ])
    def test_an_offender_that_stays_is_refused(self, monkeypatch, alg, g, f):
        monkeypatch.setattr(elim._Reducer, "_eliminate", lambda self, step: None)
        with pytest.raises(NonTermination, match="offending variable failed to move"):
            partial_reduce(alg, P(alg, g), (P(alg, f),))

    def scripted(self, monkeypatch, script):
        """A reducer of e[5] whose offenders of each sign are read from
        script, where None ends a pass; steps change nothing."""
        script = {sign: list(found) for sign, found in script.items()}

        def find(self, sign):
            v = script[sign].pop(0) if script[sign] else None
            return None if v is None else (0, e(v), None, sign, None, None, None)

        monkeypatch.setattr(elim._Reducer, "_find_offender", find)
        monkeypatch.setattr(elim._Reducer, "_eliminate", lambda self, step: None)
        red = elim._Reducer(WITT_POS, P(WITT_POS, "e[5]"), (P(WITT_POS, "e[1]^2"),),
                            elim.DEFAULT_MAX_GAP, elim.DEFAULT_MAX_STEPS)
        red.partial_fixpoint()
        return red.steps

    @pytest.mark.parametrize("script, steps", [
        ({PLUS: [4, 3, None, 4], MINUS: []}, 3),
        ({PLUS: [], MINUS: [3, 4, None, 3]}, 3),
        ({PLUS: [4], MINUS: [4]}, 2),
    ])
    def test_moves_in_the_direction_of_its_pass(self, monkeypatch, script, steps):
        assert self.scripted(monkeypatch, script) == steps

    @pytest.mark.parametrize("script", [
        {PLUS: [3, 4], MINUS: []},
        {PLUS: [3, 3], MINUS: []},
        {PLUS: [], MINUS: [4, 3]},
        {PLUS: [], MINUS: [3, 3]},
    ])
    def test_moves_against_its_pass_are_refused(self, monkeypatch, script):
        with pytest.raises(NonTermination, match="offending variable failed to move"):
            self.scripted(monkeypatch, script)


def break_decomposition(mp):
    """D_t(f) gains e[4]^2, so for T = e[4] it is no longer alpha*s*T + h."""
    d_op = elim.d_op
    mp.setattr(elim, "d_op", lambda f, t: d_op(f, t) + P(WITT_POS, "e[4]^2"))


def shorten_quotient(mp):
    """elim's Polynomial.var is one power short, so the quotient term of
    e[1]^4 by e[1]^2 is e[1], not e[1]^2."""

    class OnePowerShort(Polynomial):
        @classmethod
        def var(cls, alg, b, c=1, exp=1):
            return Polynomial.var(alg, b, c, exp - 1)

    mp.setattr(elim, "Polynomial", OnePowerShort)


def skip_pseudo_division(mp):
    mp.setattr(elim._Reducer, "pseudo_divide", lambda self, fi: None)


class TestReductionGuards:
    """Each guard of the reduction, tripped by a fault put in on purpose,
    raises NonTermination, and the CLI exits 3 with its message."""

    @pytest.mark.parametrize("fault, reduce, g, message", [
        (break_decomposition, partial_reduce, "e[4]",
         "witness admits no separant decomposition"),
        (shorten_quotient, full_reduce, "e[1]^4", "pseudo-division failed to lower degree"),
        (skip_pseudo_division, full_reduce, "e[1]^4",
         "reduction did not reach a reduced remainder"),
    ], ids=["decomposition", "pseudo-division", "rounds"])
    def test_a_fault_is_refused(self, monkeypatch, capsys, fault, reduce, g, message):
        fault(monkeypatch)
        with pytest.raises(NonTermination, match=message):
            reduce(WITT_POS, P(WITT_POS, g), (P(WITT_POS, "e[1]^2"),))
        assert main(["--alg", "witt+", "reduce", g, "--by", "e[1]^2"]) == 3
        assert capsys.readouterr().err == "guard: %s\n" % message


class TestSeparantDecomposition:
    """For every witness t of T in L+(l+(f)) or L-(l-(f)), D_t(f) = alpha *
    s * T + h, with s the separant in that leader and T in neither s nor h
    (the elim module docstring proves it).  So _prepare's check of a step
    fails only on a fault, and a reducer never needs a second witness."""

    WINDOWS = {W2: (-1, 3), S2: (-1, 3), H2: (-1, 3), H4: (-1, 1), K3: (-2, 3),
               WITT: (-4, 5), VIR: (-4, 5)}

    def generator(self, alg, rng, basis):
        """A random polynomial over the basis elements on one side of a
        random degree, plus a term l*a for a rival a of each leader l that
        has one, so that the witnesses' dominance is needed."""
        cut = degree(alg, rng.choice(basis))
        side = rng.choice([-1, 1])
        pool = [b for b in basis if side * (degree(alg, b) - cut) >= 0]
        f = random_poly(alg, rng, pool=pool, max_support=3, max_exp=2, max_vars=2)
        for sign in (PLUS, MINUS):
            lf = f.leader(sign)
            comp = enumerate_component(alg, degree(alg, lf))
            at = comp.index(lf)
            rivals = comp[:at] if sign == PLUS else comp[at + 1:]
            if rivals:
                a = Polynomial.var(alg, rng.choice(rivals), c=random_fraction(rng))
                f = f + a * Polynomial.var(alg, lf)
        return f

    def test_every_witness_decomposes(self):
        rng = random.Random(4)
        for alg, window in self.WINDOWS.items():
            basis = window_basis(alg, window)
            count = 0
            for _ in range(8):
                f = self.generator(alg, rng, basis)
                for sign in (PLUS, MINUS):
                    lf = f.leader(sign)
                    s = f.derivative(lf)
                    for v in basis:
                        for t in iter_witnesses(alg, lf, v, sign):
                            parts = d_op(f, t).expand_in(v)
                            h = parts.get(0, Polynomial.zero(alg))
                            assert set(parts) <= {0, 1}, (f, t, v)
                            assert parts[1] == d_bracket(alg, lf, t)[v] * s, (f, t, v)
                            assert v not in s.variables() | h.variables(), (f, t, v)
                            count += 1
            assert count >= 20, alg


class TestEliminationStep:
    """One _eliminate step against the textbook sums of the substitution:
    the new g is sum_j h_j s^(r-j) b^j, and the stored coefficient is
    sum_(j>=1) h_j s^(r-j) sum_(u<j) (s*v)^u b^(j-1-u), over alpha."""

    V = e(3)
    POOL = [e(n) for n in (1, 2, 4, 5)]

    def shapes(self, rng, r):
        """Sets of powers of v in g, each with top power r: the top power
        alone, every power, and a random set with a gap."""
        yield {r}
        yield set(range(r + 1))
        if r >= 2:
            gapped = {j for j in range(r) if rng.random() < 0.5} | {r}
            gapped.discard(rng.randrange(r))
            yield gapped

    def cases(self):
        """(parts of g, s, alpha, h, sign); alpha alternates between a
        Fraction and an int, and one case has h = 0, so b = 0."""
        rng = random.Random(41)

        def poly():
            return random_poly(WITT_POS, rng, pool=self.POOL, max_support=2, max_exp=2,
                               max_vars=2)

        for r in range(1, 7):
            for k, powers in enumerate(self.shapes(rng, r)):
                parts = {j: poly() for j in sorted(powers)}
                alpha = random_fraction(rng) if k % 2 == 0 else rng.choice([-3, 2, 5])
                h = Polynomial.zero(WITT_POS) if r == 3 and k == 0 else poly()
                yield parts, poly(), alpha, h, (PLUS, MINUS)[k % 2]

    def test_matches_the_textbook_sums(self):
        count = 0
        for parts, s, alpha, h, sign in self.cases():
            v = Polynomial.var(WITT_POS, self.V)
            g = Polynomial.zero(WITT_POS)
            for j, hj in parts.items():
                g = g + reference_mul(hj, reference_power(v, j))
            assert g.expand_in(self.V) == parts
            red = elim._Reducer(WITT_POS, g, (P(WITT_POS, "e[1]^2"),),
                                elim.DEFAULT_MAX_GAP, elim.DEFAULT_MAX_STEPS)
            red._eliminate((0, self.V, None, sign, s, alpha, h))
            r = max(parts)
            b = reference_mul(h, Polynomial.const(WITT_POS, Fraction(-1) / alpha))
            sv = reference_mul(s, v)
            coeff = reference_mul(reference_quotient(parts, s, sv, b),
                                  Polynomial.const(WITT_POS, Fraction(1) / alpha))
            assert red.g == reference_substitution(parts, s, b)
            [(got, gen, dtuple, mult)] = red.terms
            assert (got, gen, dtuple, mult) == (coeff, 0, None, reference_power(s, r))
            assert red.exps == [[0, r, 0] if sign == PLUS else [0, 0, r]]
            # The step's identity: s^r * g = new g + coeff * (alpha*s*v + h).
            dtf = reference_mul(Polynomial.const(WITT_POS, alpha), sv) + h
            assert reference_mul(mult, g) == red.g + reference_mul(got, dtf)
            count += 1
        assert count == 17


class TestEliminationMemory:
    """A step keeps a bounded number of polynomials alive, not one per
    power of the eliminated variable: e[4]^50000 by e[1]^2 over witt+
    reduces to zero in a few MiB.  The child reads its own peak resident
    set, VmHWM: ru_maxrss keeps the parent's peak across fork and exec."""

    CHILD = """if 1:
        from gradedlie import AlgebraSpec, parse_poly, partial_reduce, verify_certificate
        alg = AlgebraSpec("WittPositive")
        rem, cert = partial_reduce(alg, parse_poly(alg, "e[4]^50000"),
                                   (parse_poly(alg, "e[1]^2"),))
        with open("/proc/self/status") as fh:
            hwm_kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        print(rem.is_zero(), verify_certificate(alg, cert), hwm_kib)
    """

    def test_a_high_power_step_stays_small(self):
        code = "import sys; sys.path.insert(0, %r)\n" % SRC + self.CHILD
        proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        zero, holds, hwm_kib = proc.stdout.split()
        assert (zero, holds) == ("True", "True")
        assert int(hwm_kib) / 1024 < 100
