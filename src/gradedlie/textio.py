"""Parsing and printing of polynomials, plus certificate (de)serialization.

Surface syntax, whitespace-insensitive:

    poly     = [sign] term { sign term }
    term     = factor { "*" factor }
    factor   = INT [ "/" INT ] | variable [ "^" INT ]
    variable = the name of a basis element, read by the token grammar of
               its kind in algebras.ELEMENT_GRAMMAR: e[n], z,
               x[i1,...,in]d[k], SA[i,...], SB[i,...;k], DH[i,...],
               DK[i,...], E[p], F[p], H[p], X[n], Y
    pairs    = { "(" variable "," variable ")" }

element_to_str prints a name from the same grammar, so printing then
parsing a name is the identity.  The parser adds every signed term into
one dict, so reading a polynomial is linear in its length.  The printer
is the one place that puts a monomial's factors in basis order (largest
first); it emits terms in descending monomial order under that order,
with coefficients in lowest terms, so printing then parsing a polynomial
is the identity too.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .algebras import (
    ELEMENT_GRAMMAR,
    IDX,
    INT,
    algebra_to_str,
    element_to_str,
    order_key,
    parse_algebra,
    validate_element,
)
from .elim import CertTerm, MultiplierExp, ReductionCertificate
from .poly import DTuple, Polynomial, mono


class ParseError(ValueError):
    """Syntax or validity error, with source position."""

    def __init__(self, msg, pos):
        super().__init__("%s (at position %d)" % (msg, pos))
        self.pos = pos


class SchemaError(ValueError):
    """Certificate document does not match the schema."""


_KIND_OF_HEAD = {grammar[0]: kind for kind, grammar in ELEMENT_GRAMMAR.items()}

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z]+|[][(),;*^/+-])")


def _tokenize(s):
    out = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ParseError("unexpected character %r" % s[pos], pos)
            break
        out.append((m.group(1), m.start(1)))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, alg, s):
        self.alg = alg
        self.toks = _tokenize(s)
        self.i = 0
        self.end = len(s)

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else self.end

    def take(self, expect=None):
        if self.i >= len(self.toks):
            raise ParseError("unexpected end of input", self.end)
        tok, pos = self.toks[self.i]
        if expect is not None and tok != expect:
            raise ParseError("expected %r, found %r" % (expect, tok), pos)
        self.i += 1
        return tok, pos

    def int_tok(self):
        neg = False
        if self.peek() == "-":
            self.take()
            neg = True
        tok, pos = self.take()
        if not tok.isdigit():
            raise ParseError("expected an integer, found %r" % tok, pos)
        return -int(tok) if neg else int(tok)

    def index(self):
        out = [self.int_tok()]
        while self.peek() == ",":
            self.take()
            out.append(self.int_tok())
        return tuple(out)

    def element(self):
        """One basis element, read by the grammar of its kind."""
        tok, pos = self.take()
        kind = _KIND_OF_HEAD.get(tok)
        if kind is None:
            raise ParseError("unknown variable %r" % tok, pos)
        fields = []
        for part in ELEMENT_GRAMMAR[kind][1:]:
            if part == INT:
                fields.append(self.int_tok())
            elif part == IDX:
                fields.append(self.index())
            else:
                self.take(part)
        b = (kind,) + tuple(fields)
        try:
            validate_element(self.alg, b)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from exc
        return b

    def factor(self):
        """(coefficient, element or None, exponent)."""
        tok = self.peek()
        if tok is not None and tok.isdigit():
            num, _ = self.take()
            c = int(num)
            if self.peek() == "/":
                self.take()
                den, dpos = self.take()
                if not den.isdigit() or int(den) == 0:
                    raise ParseError("bad denominator %r" % den, dpos)
                c = Fraction(c, int(den))
            return c, None, 0
        b = self.element()
        exp = 1
        if self.peek() == "^":
            self.take()
            tok, pos = self.take()
            if not tok.isdigit() or int(tok) == 0:
                raise ParseError("exponent must be a positive integer", pos)
            exp = int(tok)
        return 1, b, exp

    def term(self):
        """(monomial, coefficient)."""
        c, b, exp = self.factor()
        pairs = [] if b is None else [(b, exp)]
        while self.peek() == "*":
            self.take()
            c2, b2, e2 = self.factor()
            c *= c2
            if b2 is not None:
                pairs.append((b2, e2))
        return mono(pairs), c

    def poly(self):
        """The sum of the signed terms, added up in one dict."""
        terms = {}
        sign = self.take()[0] if self.peek() in ("+", "-") else "+"
        while True:
            m, c = self.term()
            terms[m] = terms.get(m, 0) + (-c if sign == "-" else c)
            if self.peek() not in ("+", "-"):
                break
            sign, _ = self.take()
        if self.i < len(self.toks):
            raise ParseError("trailing input %r" % self.peek(), self.pos())
        return Polynomial(self.alg, terms)


def parse_poly(alg, s):
    """Parse a polynomial over alg, validating every variable."""
    p = _Parser(alg, s)
    if not p.toks:
        raise ParseError("empty input", 0)
    return p.poly()


def parse_element(alg, s):
    """Parse a single basis element name."""
    p = _Parser(alg, s)
    b = p.element()
    if p.i < len(p.toks):
        raise ParseError("trailing input %r" % p.peek(), p.pos())
    return b


def parse_pairs(alg, s):
    """Parse a sequence of pairs (M,N) of basis element names."""
    p = _Parser(alg, s)
    pairs = []
    while p.i < len(p.toks):
        p.take("(")
        M = p.element()
        p.take(",")
        pairs.append((M, p.element()))
        p.take(")")
    return pairs


def print_poly(f):
    """Canonical form: each monomial's factors in descending basis order,
    terms in descending monomial order, lowest-terms coefficients."""
    if f.is_zero():
        return "0"
    alg = f.alg
    variables = f.variables()
    key = {b: order_key(alg, b) for b in variables}
    name = {b: element_to_str(alg, b) for b in variables}
    n, d = f.content.numerator, f.content.denominator
    rows = []
    for m, c in f.prim.items():
        factors = sorted(m, key=lambda p: key[p[0]], reverse=True)
        rows.append(([(key[b], x) for b, x in factors], factors, c))
    rows.sort(key=lambda row: row[0], reverse=True)
    parts = []
    for _, factors, c in rows:
        body = "*".join([name[b] + ("^%d" % x if x > 1 else "") for b, x in factors])
        g = gcd(c, d)  # the gcd of |c| * n and d, as n and d are coprime
        mag = str(abs(c) // g * n) if g == d else "%d/%d" % (abs(c) // g * n, d // g)
        chunk = mag if not body else body if mag == "1" else mag + "*" + body
        if not parts:
            parts.append(("-" if c < 0 else "") + chunk)
        else:
            parts.append((" - " if c < 0 else " + ") + chunk)
    return "".join(parts)


# ---------------------------------------------------------------------------
# Certificate JSON


def cert_to_doc(cert):
    """A reduction certificate as a JSON-ready document."""
    alg = cert.alg
    return {
        "format": 1,
        "algebra": algebra_to_str(alg),
        "input": print_poly(cert.input),
        "remainder": print_poly(cert.remainder),
        "generators": [print_poly(f) for f in cert.generators],
        "multipliers": [
            {
                "generator": i,
                "initial_exp": ex.initial,
                "sep_plus_exp": ex.sep_plus,
                "sep_minus_exp": ex.sep_minus,
            }
            for i, ex in enumerate(cert.multipliers)
        ],
        "terms": [
            {
                "coeff": print_poly(t.coeff),
                "generator": t.gen,
                "tuple": None if t.dtuple is None else [
                    element_to_str(alg, b) for b in t.dtuple.entries
                ],
            }
            for t in cert.terms
        ],
    }


def cert_to_json(cert):
    """Serialize a reduction certificate to a JSON string."""
    return json.dumps(cert_to_doc(cert), indent=2)


def _natural(v):
    if type(v) is not int or v < 0:
        raise SchemaError("not a natural number: %r" % (v,))
    return v


def _index(v, n, what):
    if _natural(v) >= n:
        raise SchemaError("%s out of range" % what)
    return v


def cert_from_json(s):
    """Parse and validate a certificate document."""
    try:
        doc = json.loads(s)
    except json.JSONDecodeError as exc:
        raise SchemaError("not valid JSON: %s" % exc) from exc
    if not isinstance(doc, dict) or doc.get("format") != 1:
        raise SchemaError("missing or unsupported format marker")
    try:
        alg = parse_algebra(doc["algebra"])
        gens = tuple(parse_poly(alg, g) for g in doc["generators"])
        if any(g.is_constant() for g in gens):
            raise SchemaError("constant generator")
        mults = [None] * len(gens)
        for entry in doc["multipliers"]:
            gi = _index(entry["generator"], len(gens), "multiplier generator index")
            if mults[gi] is not None:
                raise SchemaError("duplicate multiplier for generator %d" % gi)
            mults[gi] = MultiplierExp(
                *(_natural(entry[k]) for k in ("initial_exp", "sep_plus_exp", "sep_minus_exp"))
            )
        mults = [MultiplierExp() if m is None else m for m in mults]
        terms = []
        for entry in doc["terms"]:
            gi = _index(entry["generator"], len(gens), "term generator index")
            dt = None
            if entry["tuple"] is not None:
                dt = DTuple(alg, tuple(parse_element(alg, n) for n in entry["tuple"]))
            terms.append(CertTerm(parse_poly(alg, entry["coeff"]), gi, dt))
        return ReductionCertificate(
            alg=alg,
            input=parse_poly(alg, doc["input"]),
            remainder=parse_poly(alg, doc["remainder"]),
            generators=gens,
            multipliers=tuple(mults),
            terms=tuple(terms),
        )
    except SchemaError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SchemaError("malformed certificate: %s" % exc) from exc
