"""Independent checks of `gradedlie` outputs on the rank-one algebras.

Nothing in this file imports `gradedlie`.  It knows the four rank-one
algebras `witt`, `witt+`, `w1` and `virasoro` from their definitions:

    [e_a, e_b] = (b - a) e_{a+b}  (+ (a^3 - a)/12 z  when a + b = 0, Virasoro)

with e_n of degree n, z central of degree 0, and the basis ordered by
degree, z below e_0.  An element is the int n for e_n, or Z.

On these algebras every graded component is one-dimensional except
Virasoro's degree 0, {z < e_0}, and z brackets to zero with everything.
So the dominance condition on rivals in M's component never binds, and
T lies in L+(M) (L-(M)) exactly when some composition of the degree gap
into positive (negative) parts, applied as an iterated bracket to M,
gives a nonzero element whose largest (smallest) basis element is T.
That is what `member` decides, by a memoized recursion over the gap.
"""

from __future__ import annotations

import functools
import json
import re
from fractions import Fraction

PLUS, MINUS = "+", "-"
Z = "z"

FLOORS = {"witt": None, "witt+": 1, "w1": -1, "virasoro": None}


class CheckFailed(Exception):
    """An output of the program failed an independent check."""


def require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# The algebras


def key(b):
    """Sort key of the basis order: degree first, z below e_0."""
    return (0, 0) if b == Z else (b, 1)


def deg(b):
    return 0 if b == Z else b


def in_algebra(alg, b):
    if b == Z:
        return alg == "virasoro"
    floor = FLOORS[alg]
    return floor is None or b >= floor


def bracket(alg, a, b):
    """[a, b] of two basis elements as {element: Fraction}."""
    if a == Z or b == Z:
        return {}
    out = {}
    if b != a:
        out[a + b] = Fraction(b - a)
    if alg == "virasoro" and a + b == 0 and a ** 3 != a:
        out[Z] = Fraction(a ** 3 - a, 12)
    return out


def lie_bracket(alg, u, b):
    """[u, b] for a Lie element u and a basis element b."""
    out = {}
    for a, c in u.items():
        for m, x in bracket(alg, a, b).items():
            v = out.get(m, 0) + c * x
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def extreme(v, sign):
    return (max if sign == PLUS else min)(v, key=key)


def element_str(b):
    return "z" if b == Z else "e[%d]" % b


_ELEMENT = re.compile(r"\s*(?:e\[\s*(-?\d+)\s*\]|(z))\s*$")


def parse_element(alg, s):
    m = _ELEMENT.match(s)
    require(m is not None, "not a rank-one element: %r" % s)
    b = Z if m.group(2) else int(m.group(1))
    require(in_algebra(alg, b), "%s is not in %s" % (s, alg))
    return b


# ---------------------------------------------------------------------------
# Leader sets


def member(alg, M, T, sign):
    """T in L+(M) (sign "+") or L-(M) (sign "-")."""
    return witness(alg, M, T, sign) is not None


@functools.lru_cache(maxsize=None)
def witness(alg, M, T, sign):
    """One tuple of entry degrees witnessing T in L±(M), or None."""
    gap = deg(T) - deg(M)
    if M == Z or gap == 0 or (gap > 0) != (sign == PLUS):
        return None
    return _extend(alg, M, T, sign, gap)


@functools.lru_cache(maxsize=None)
def _extend(alg, c, T, sign, rem):
    """Entries taking the nonzero e_c (times a scalar) to leader T in rem."""
    step = 1 if sign == PLUS else -1
    for t in range(step, rem + step, step):
        if not in_algebra(alg, t) or t == c:
            continue  # not in the algebra, or [e_c, e_t] = 0
        if t == rem:
            if extreme(bracket(alg, c, t), sign) == T:
                return (t,)
        else:
            rest = _extend(alg, c + t, T, sign, rem - t)
            if rest is not None:
                return (t,) + rest
    return None


def check_witness(alg, M, T, sign, entries):
    """The program's witness tuple really takes M to leader T."""
    require(entries, "empty witness")
    v = {M: Fraction(1)}
    for name in entries:
        b = parse_element(alg, name)
        require(b != Z and (b > 0) == (sign == PLUS), "entry %s has the wrong sign" % name)
        v = lie_bracket(alg, v, b)
        require(v, "witness annihilates %s" % element_str(M))
    require(extreme(v, sign) == T, "witness leads to %s, not %s"
            % (element_str(extreme(v, sign)), element_str(T)))


def check_l_member(alg, M, T, sign, doc):
    """An `l-member --format json` document against the recursion."""
    want = member(alg, M, T, sign)
    require(doc.get("verdict") is want, "l-member %s %s: verdict %r, expected %r"
            % (element_str(M), element_str(T), doc.get("verdict"), want))
    if want:
        check_witness(alg, M, T, sign, doc.get("witness") or [])


def window(alg, bound):
    elems = [n for n in range(-bound, bound + 1) if in_algebra(alg, n)]
    if alg == "virasoro":
        elems.append(Z)
    return sorted(elems, key=key)


def compatible(alg, prev, cand):
    """cand may follow prev in a leading-Dicksonian sequence."""
    return not (member(alg, prev[0], cand[0], MINUS) or member(alg, prev[1], cand[1], PLUS))


def check_dicksonian(alg, pairs):
    """Defining conditions of a leading-Dicksonian sequence."""
    for i, (M, N) in enumerate(pairs):
        require(key(M) <= key(N), "pair %d has M > N" % (i + 1))
        for j in range(i):
            require(pairs[j] != (M, N), "pairs %d and %d are equal" % (j + 1, i + 1))
            require(compatible(alg, pairs[j], (M, N)),
                    "pair %d may not follow pair %d" % (i + 1, j + 1))


def check_search(alg, degree_bound, length_bound, doc):
    """A `search-dicksonian` result: leading-Dicksonian, within the degree
    bound, and either as long as the bound allows or not extendable by
    any pair of the search's pool (a longer sequence would exist)."""
    seq = []
    for text in doc["sequence"]:
        m, _, n = text.strip()[1:-1].partition(",")
        seq.append((parse_element(alg, m), parse_element(alg, n)))
    require(doc["length"] == len(seq), "length field disagrees with the sequence")
    require(len(seq) <= length_bound, "sequence longer than the bound")
    require(all(abs(deg(b)) <= degree_bound for p in seq for b in p),
            "pair outside the degree bound")
    check_dicksonian(alg, seq)
    if len(seq) < length_bound:
        elems = window(alg, degree_bound)
        for M in elems:
            for N in elems:
                cand = (M, N)
                if key(M) <= key(N) and cand not in seq:
                    require(not all(compatible(alg, p, cand) for p in seq),
                            "sequence extends by (%s, %s)" % (element_str(M), element_str(N)))


# ---------------------------------------------------------------------------
# Polynomials: {monomial: Fraction}, a monomial a tuple of (element, exp)
# pairs in ascending basis order.


def mono(pairs):
    """The monomial of (element, exponent) pairs, merged and sorted."""
    merged = {}
    for b, x in pairs:
        merged[b] = merged.get(b, 0) + x
    return tuple(sorted(((b, x) for b, x in merged.items() if x), key=lambda p: key(p[0])))


def padd(f, g):
    out = dict(f)
    for m, v in g.items():
        s = out.get(m, 0) + v
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono(m1 + m2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def ppow(f, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = pmul(out, f)
    return out


def variables(f):
    return {b for m in f for b, _ in m}


def degree_in(f, v):
    return max((x for m in f for b, x in m if b == v), default=0)


def leader(f, sign):
    vs = variables(f)
    require(vs, "constant polynomial has no leader")
    return extreme(vs, sign)


def derivative(f, v):
    out = {}
    for m, c in f.items():
        x = dict(m).get(v, 0)
        if x:
            out[mono([(b, (e - 1 if b == v else e)) for b, e in m])] = c * x
    return out


def initial(f, sign):
    """The coefficient of the highest power of the leader."""
    v = leader(f, sign)
    d = degree_in(f, v)
    return {tuple(p for p in m if p[0] != v): c for m, c in f.items() if dict(m).get(v) == d}


def separant(f, sign):
    return derivative(f, leader(f, sign))


def poisson_with(alg, f, b):
    """{f, b} = sum over variables a of f of df/da * [a, b]."""
    out = {}
    for a in variables(f):
        br = bracket(alg, a, b)
        if br:
            lin = {((m, 1),): c for m, c in br.items()}
            out = padd(out, pmul(derivative(f, a), lin))
    return out


_TOKEN = re.compile(r"\s*(e\[\s*-?\d+\s*\]|z|\d+|[*/^+-])")


def _tokens(s):
    out, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if m is None:
            require(not s[pos:].strip(), "cannot parse %r" % s[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_poly(alg, s):
    """Parse the program's polynomial syntax: [sign] term {sign term},
    term = factor {* factor}, factor = INT [/ INT] | element [^ INT]."""
    toks = _tokens(s)
    require(toks, "empty polynomial")
    out = {}
    i = 0
    while i < len(toks):
        c = Fraction(1)
        if toks[i] in "+-":
            c = Fraction(-1 if toks[i] == "-" else 1)
            i += 1
        else:
            require(i == 0, "missing sign before %r" % toks[i])
        pairs = []
        while True:
            require(i < len(toks), "unexpected end of %r" % s)
            tok = toks[i]
            if tok.isdigit():
                num, den = int(tok), 1
                if toks[i + 1 : i + 2] == ["/"]:
                    require(i + 2 < len(toks) and toks[i + 2].isdigit(), "bad fraction")
                    den = int(toks[i + 2])
                    require(den, "zero denominator")
                    i += 2
                c *= Fraction(num, den)
                i += 1
            else:
                b = parse_element(alg, tok)
                x = 1
                if toks[i + 1 : i + 2] == ["^"]:
                    require(i + 2 < len(toks) and toks[i + 2].isdigit(), "bad exponent")
                    x = int(toks[i + 2])
                    require(x >= 1, "bad exponent")
                    i += 2
                pairs.append((b, x))
                i += 1
            if toks[i : i + 1] != ["*"]:
                break
            i += 1
        out = padd(out, {mono(pairs): c})
    return out


def print_poly(f):
    """The program's syntax, terms in descending monomial order."""
    if not f:
        return "0"
    text = ""
    for m, c in sorted(f.items(), key=lambda it: [(key(b), x) for b, x in reversed(it[0])],
                       reverse=True):
        body = "*".join(element_str(b) + ("^%d" % x if x > 1 else "") for b, x in reversed(m))
        mag = abs(c)
        chunk = str(mag) if not body else body if mag == 1 else "%s*%s" % (mag, body)
        if not text:
            text = ("-" if c < 0 else "") + chunk
        else:
            text += (" - " if c < 0 else " + ") + chunk
    return text


# ---------------------------------------------------------------------------
# Reduction certificates


def _nat(v, what):
    require(type(v) is int and v >= 0, "%s is not a natural number: %r" % (what, v))
    return v


def check_certificate(alg, text, g, gens, full):
    """Re-verify a `reduce --format json` certificate from scratch.

    Parses the document, checks that it speaks about the g and generators
    that were sent, recomputes both sides of

        (prod i_f^m s+_f^p s-_f^q) * g = remainder + sum coeff * D_t(f)

    and checks that the remainder is partially reduced (and, for a full
    reduction, below each generator's leader degree).  Returns the number
    of polynomial terms in the certificate.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckFailed("certificate is not JSON: %s" % exc) from exc
    require(isinstance(doc, dict) and doc.get("format") == 1, "no format marker")
    require(doc.get("algebra") == alg, "algebra %r, expected %r" % (doc.get("algebra"), alg))
    cin = parse_poly(alg, doc["input"])
    require(cin == g, "certificate input differs from the polynomial sent")
    cgens = [parse_poly(alg, s) for s in doc["generators"]]
    require(cgens == list(gens), "certificate generators differ from those sent")
    rem = parse_poly(alg, doc["remainder"])
    size = len(cin) + len(rem) + sum(len(f) for f in cgens)

    lhs = cin
    seen = set()
    for entry in doc["multipliers"]:
        gi = _nat(entry["generator"], "generator index")
        require(gi < len(cgens) and gi not in seen, "bad multiplier generator %r" % gi)
        seen.add(gi)
        f = cgens[gi]
        m = _nat(entry["initial_exp"], "initial exponent")
        require(full or m == 0, "a partial reduction used an initial")
        for poly, x in ((initial(f, PLUS), m),
                        (separant(f, PLUS), _nat(entry["sep_plus_exp"], "separant exponent")),
                        (separant(f, MINUS), _nat(entry["sep_minus_exp"], "separant exponent"))):
            if x:
                lhs = pmul(lhs, ppow(poly, x))

    rhs = rem
    for entry in doc["terms"]:
        gi = _nat(entry["generator"], "term generator")
        require(gi < len(cgens), "term generator out of range")
        body = cgens[gi]
        if entry["tuple"] is not None:
            entries = [parse_element(alg, s) for s in entry["tuple"]]
            require(entries and all(b != Z and b != 0 for b in entries),
                    "bad tuple %r" % entry["tuple"])
            require(len({b > 0 for b in entries}) == 1, "tuple of mixed sign")
            for b in entries:
                body = poisson_with(alg, body, b)
        coeff = parse_poly(alg, entry["coeff"])
        size += len(coeff)
        rhs = padd(rhs, pmul(coeff, body))
    require(lhs == rhs, "certificate identity fails")

    for v in variables(rem):
        for f in cgens:
            require(not member(alg, leader(f, PLUS), v, PLUS),
                    "remainder variable %s in L+ of a generator leader" % element_str(v))
            require(not member(alg, leader(f, MINUS), v, MINUS),
                    "remainder variable %s in L- of a generator leader" % element_str(v))
    if full:
        for f in cgens:
            lv = leader(f, PLUS)
            require(degree_in(rem, lv) < degree_in(f, lv),
                    "remainder not reduced in %s" % element_str(lv))
    return size
