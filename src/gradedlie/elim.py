"""Reduction of polynomials modulo the ideal closure of a generator set.

partial_reduce removes each variable T of g in L+(l) or L-(l), l = l+(f)
or l-(f) of a generator f, by the separant decomposition (Kolchin 1973,
ch. I): if t witnesses it, D_t(f) = alpha * s * T + h, s = df/dl, with T
in neither s nor h.  For "+" (mirrored for "-"), D_t(f) = R + sum_a
df/da * D_t(a), and each term of R has two or more brackets along parts
of t, each of degree below T's.  No variable a of f lies beyond l, and
D_t(a) lies below T for a of lower degree and, by dominance, for a rival
a of l.  So T comes only from s * D_t(l) = alpha * s * T + (terms
without T): _prepare's check fails only on a fault.  As s and h lie
below T, each offender of a pass lies past the one before, so
partial_fixpoint's check of that, too, only detects faults.  With g =
sum h_j T^j of degree r in T, b = -h/alpha and P(X) = sum h_j s^(r-j) X^j,

    s^r * g = P(s*T) = P(b) + Q * D_t(f)/alpha,  Q = (P(s*T) - P(b))/(s*T - b),

since X - b divides P(X) - P(b) and s*T - b = D_t(f)/alpha: s*T becomes
b at the price of s^r on the left.  full_reduce then clears high
leader powers by classical pseudo-division with the initials.

Every run carries an exact certificate

    (prod_f i_f^m * s+_f^p * s-_f^q) * g = remainder + sum coeff * D_t(f)

which verify_certificate recomputes from scratch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebras import order_key
from .leaders import DEFAULT_MAX_GAP, _Table, _witnesses, is_member
from .poly import DTuple, MINUS, PLUS, Polynomial, d_bracket, d_op

DEFAULT_MAX_STEPS = 10**6


class NotReducedSequence(ValueError):
    """full_reduce requires a reduced generator sequence."""


class NonTermination(RuntimeError):
    """Step budget exhausted, or a guard of the reduction tripped."""


class MultiplierExp(NamedTuple):
    """Exponents of one generator's initial and separants on the left."""

    initial: int = 0
    sep_plus: int = 0
    sep_minus: int = 0


class CertTerm(NamedTuple):
    """One right-hand-side term: coeff * D_tuple(generator).

    dtuple None means the plain generator (no bracket applied).
    """

    coeff: Polynomial
    gen: int
    dtuple: DTuple | None


class ReductionCertificate(NamedTuple):
    alg: object
    input: Polynomial
    remainder: Polynomial
    generators: tuple
    multipliers: tuple
    terms: tuple


def _check_generators(alg, lam):
    lam = tuple(lam)
    if not lam:
        raise ValueError("empty generator sequence")
    for f in lam:
        if f.alg != alg:
            raise ValueError("generator over a different algebra")
        if f.is_constant():
            raise ValueError("constant generator")
    return lam


def is_partially_reduced(alg, g, lam, max_gap=DEFAULT_MAX_GAP):
    """No variable of g lies in L+(l+(f)) or L-(l-(f)) for f in lam."""
    return _partially_reduced(_Table(alg), g, _check_generators(alg, lam), max_gap)


def _partially_reduced(table, g, lam, max_gap):
    """is_partially_reduced for checked generators lam, its decisions made
    through table, taking g's variables in basis order."""
    alg = table.alg
    leaders = [(f.leader(PLUS), f.leader(MINUS)) for f in lam]
    return not any(is_member(alg, lp, v, PLUS, max_gap, table=table)
                   or is_member(alg, lm, v, MINUS, max_gap, table=table)
                   for v in sorted(g.variables(), key=lambda b: order_key(alg, b))
                   for lp, lm in leaders)


def is_reduced(alg, g, lam, max_gap=DEFAULT_MAX_GAP):
    """Partially reduced, and each upper leader of a generator appears in
    g only below that generator's leader degree."""
    lam = _check_generators(alg, lam)
    return _partially_reduced(_Table(alg), g, lam, max_gap) and _below_leader_degrees(g, lam)


def _below_leader_degrees(g, lam):
    """Each upper leader of a generator appears in g only below that
    generator's leader degree."""
    return all(g.degree_in(f.leader(PLUS)) < f.leader_degree(PLUS) for f in lam)


def is_reduced_sequence(alg, lam, max_gap=DEFAULT_MAX_GAP):
    """Each generator is reduced with respect to all the others."""
    return _reduced_sequence(_Table(alg), _check_generators(alg, lam), max_gap)


def _reduced_sequence(table, lam, max_gap):
    """is_reduced_sequence for checked generators lam, its decisions made
    through table."""
    for i, g in enumerate(lam):
        rest = lam[:i] + lam[i + 1 :]
        if rest and not (_partially_reduced(table, g, rest, max_gap)
                         and _below_leader_degrees(g, rest)):
            return False
    return True


class _Reducer:
    """Mutable reduction state.

    Each step puts one multiplier on the left and adds one right-hand-side
    term; the term is stored with its step's multiplier and is not rescaled
    by the multipliers of later steps.  certificate() gives each term, once,
    the product of the multipliers after it, so the identity

    (prod multipliers) * input = g + sum(term coeffs * D-terms)

    holds for the certificate it returns, not for the stored terms.
    """

    def __init__(self, alg, g, lam, max_gap, max_steps):
        self.alg = alg
        self.input = g
        self.g = g
        self.lam = lam
        # The generators do not change during a reduction, so their order
        # by upper rank and their two leaders are read once.
        self.order = sorted(range(len(lam)), key=lambda i: lam[i].rank(PLUS))
        self.leaders = [{PLUS: f.leader(PLUS), MINUS: f.leader(MINUS)} for f in lam]
        self.table = _Table(alg)  # shared by every decision of the reduction
        self.max_gap = max_gap
        self.max_steps = max_steps
        self.steps = 0
        self.exps = [[0, 0, 0] for _ in lam]  # initial, sep+, sep-
        self.terms = []  # (coeff, gen index, DTuple | None, step multiplier)

    def _tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise NonTermination("step limit %d exceeded" % self.max_steps)

    def _find_offender(self, sign):
        """The step for the largest (sign "+") / smallest offending variable,
        its smallest-upper-rank generator and their first witness, or None."""
        for v in sorted(self.g.variables(), key=lambda b: order_key(self.alg, b),
                        reverse=sign == PLUS):
            for fi in self.order:
                lf = self.leaders[fi][sign]
                for t in _witnesses(self.table, lf, v, sign, self.max_gap):
                    return self._prepare(fi, v, t, sign)
        return None

    def _prepare(self, fi, v, t, sign):
        """The step of witness t: D_t(f) = alpha * s * v + h (module docstring)."""
        f = self.lam[fi]
        lf = self.leaders[fi][sign]
        s = f.derivative(lf)  # the separant
        alpha = d_bracket(self.alg, lf, t)[v]
        parts = d_op(f, t).expand_in(v)
        h = parts.get(0, Polynomial.zero(self.alg))
        if set(parts) - {0, 1} or parts.get(1) != alpha * s or v in s.variables() | h.variables():
            raise NonTermination("witness admits no separant decomposition")
        return fi, v, t, sign, s, alpha, h

    def _eliminate(self, step):
        """One descending Horner pass from p_r = q_r = h_r: p_j = p_(j+1)*b
        + h_j s^(r-j) ends at p_0 = P(b), and q_j = q_(j+1)*(s*v) + p_j at
        q_1 = Q, by synthetic division of P(X) by X - b (module docstring)."""
        fi, v, t, sign, s, alpha, h = step
        parts = self.g.expand_in(v)
        r = max(parts)
        b = h * (Fraction(-1) / alpha)
        sv = s * Polynomial.var(self.alg, v)
        p = q = parts[r]
        spow = s  # s^(r-j) in the pass below, and s^r after it
        for j in range(r - 1, -1, -1):
            p = p * b
            if j in parts:
                p = p + parts[j] * spow
            if j:
                q = q * sv + p
                spow = spow * s
        self.exps[fi][1 if sign == PLUS else 2] += r
        self.terms.append((q * (Fraction(1) / alpha), fi, t, spow))
        self.g = p

    def partial_fixpoint(self):
        """The elimination loop: rounds of a "+" pass, which eliminates the
        largest offender first, then a "-" pass, which eliminates the
        smallest first, until a round finds no offender.  Within a pass
        each offender must lie strictly past the one before it."""
        acted = True
        while acted:
            acted = False
            for sign in (PLUS, MINUS):
                last_key = None
                while not self.g.is_constant():
                    step = self._find_offender(sign)
                    if step is None:
                        break
                    self._tick()
                    key = order_key(self.alg, step[1])
                    if last_key is not None and (
                        key >= last_key if sign == PLUS else key <= last_key
                    ):
                        raise NonTermination("offending variable failed to move")
                    last_key = key
                    self._eliminate(step)
                    acted = True

    def pseudo_divide(self, fi):
        """Clear powers of the generator's upper leader down below its
        leader degree, multiplying by the initial as needed."""
        f = self.lam[fi]
        L = self.leaders[fi][PLUS]
        d = f.degree_in(L)
        init = f.expand_in(L)[d]
        while self.g.degree_in(L) >= d:
            self._tick()
            expansion = self.g.expand_in(L)
            r = max(expansion)
            hr = expansion[r]
            self.exps[fi][0] += 1
            c = hr * Polynomial.var(self.alg, L, exp=r - d)
            self.terms.append((c, fi, None, init))
            self.g = init * self.g - c * f
            if self.g.degree_in(L) >= r and not self.g.is_zero():
                raise NonTermination("pseudo-division failed to lower degree")

    def certificate(self):
        """The certificate of the reduction so far; the state is unchanged."""
        terms = []
        after = None  # product of the multipliers of the later steps
        later = None  # the multiplier of the step after this one
        for coeff, fi, t, mult in reversed(self.terms):
            if later is not None:
                after = later if after is None else later * after
            terms.append(CertTerm(coeff if after is None else coeff * after, fi, t))
            later = mult
        return ReductionCertificate(
            alg=self.alg,
            input=self.input,
            remainder=self.g,
            generators=tuple(self.lam),
            multipliers=tuple(MultiplierExp(*ex) for ex in self.exps),
            terms=tuple(reversed(terms)),
        )


def partial_reduce(alg, g, lam, max_gap=DEFAULT_MAX_GAP, max_steps=DEFAULT_MAX_STEPS):
    """Partially reduce g modulo lam; returns (remainder, certificate)."""
    lam = _check_generators(alg, lam)
    red = _Reducer(alg, g, lam, max_gap, max_steps)
    red.partial_fixpoint()
    cert = red.certificate()
    return red.g, cert


def full_reduce(alg, g, lam, max_gap=DEFAULT_MAX_GAP, max_steps=DEFAULT_MAX_STEPS):
    """Fully reduce g modulo a reduced sequence lam."""
    lam = _check_generators(alg, lam)
    red = _Reducer(alg, g, lam, max_gap, max_steps)
    if not _reduced_sequence(red.table, lam, max_gap):
        raise NotReducedSequence("generators do not form a reduced sequence")
    red.partial_fixpoint()
    for _ in range(len(lam) + 2):
        # Upper ranks in a reduced sequence are distinct: equal leaders and
        # leader degrees would break is_reduced's degree condition.
        for fi in reversed(red.order):
            red.pseudo_divide(fi)
            red.partial_fixpoint()
        # The fixpoint has just found no witness for any variable of g and
        # any generator, which is is_partially_reduced; only degrees remain.
        if _below_leader_degrees(red.g, lam):
            return red.g, red.certificate()
    raise NonTermination("reduction did not reach a reduced remainder")


def verify_certificate(alg, cert):
    """Recompute both sides of the certificate identity from scratch."""
    if cert.alg != alg:
        return False
    lhs = cert.input
    for f, ex in zip(cert.generators, cert.multipliers):
        if ex.initial:
            lhs = lhs * f.initial(PLUS) ** ex.initial
        if ex.sep_plus:
            lhs = lhs * f.separant(PLUS) ** ex.sep_plus
        if ex.sep_minus:
            lhs = lhs * f.separant(MINUS) ** ex.sep_minus
    rhs = cert.remainder
    for term in cert.terms:
        f = cert.generators[term.gen]
        body = d_op(f, term.dtuple) if term.dtuple is not None else f
        rhs = rhs + term.coeff * body
    return lhs == rhs
