"""Polynomial grammar, canonical printer, and certificate JSON."""

import json
import random
from fractions import Fraction

import pytest

from gradedlie import (
    ParseError,
    Polynomial,
    SchemaError,
    cert_from_json,
    cert_to_json,
    parse_element,
    parse_poly,
    partial_reduce,
    print_poly,
    verify_certificate,
)
from gradedlie.algebras import (
    InvalidElement, algebra_to_str, e, element_to_str, parse_algebra, validate_element,
)
from helpers import ALL_ALGEBRAS, P, WINDOWS, WITT, WITT_POS, random_poly, window_basis


class TestParse:
    def test_two_term_polynomial(self):
        f = P(WITT_POS, "e[1]^2*e[4] - 1/2*e[7]")
        expected = (
            Polynomial.var(WITT_POS, e(1), exp=2) * Polynomial.var(WITT_POS, e(4))
            - Polynomial.var(WITT_POS, e(7), c=Fraction(1, 2))
        )
        assert f == expected

    def test_like_terms_merge(self):
        assert P(WITT_POS, "e[1] + e[1]") == P(WITT_POS, "2*e[1]")

    def test_index_validation(self):
        with pytest.raises(ParseError):
            P(WITT_POS, "e[0]")

    def test_wrong_family_rejected(self):
        with pytest.raises(ParseError):
            P(WITT_POS, "z")
        with pytest.raises(ParseError):
            P(WITT_POS, "DH[1,0]")

    def test_whitespace_insensitive(self):
        assert P(WITT_POS, " e[1]^2 *e[3]+ e[2] ") == P(WITT_POS, "e[1]^2*e[3]+e[2]")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as info:
            P(WITT_POS, "e[1] + ")
        assert info.value.pos >= 0

    def test_constants_and_signs(self):
        assert P(WITT_POS, "-3/7") == Polynomial.const(WITT_POS, Fraction(-3, 7))
        assert P(WITT_POS, "e[2] - e[2]").is_zero()

    def test_terms_add_into_one_polynomial(self, monkeypatch):
        # Adding each term to the running sum copies the sum, so reading
        # would be quadratic in the term count.
        calls = []
        plus = Polynomial._plus
        monkeypatch.setattr(Polynomial, "_plus",
                            lambda *args: calls.append(args) or plus(*args))
        text = " + ".join("%d*e[%d]^2*e[%d]" % (k, k, -k - 1) for k in range(1, 300))
        f = P(WITT, text + " - 7*e[5]^2*e[-6]")
        assert calls == []
        assert len(f.terms) == 299
        assert f.terms[((e(-6), 1), (e(5), 2))] == -2

    def test_parse_element(self):
        assert parse_element(WITT, "e[-4]") == e(-4)
        with pytest.raises(ParseError):
            parse_element(WITT, "e[1]*e[2]")

    def test_every_family_grammar(self):
        samples = {
            "Witt": "e[-3]^2*e[5]",
            "WittPositive": "e[1]*e[2]",
            "CartanW1": "e[-1] + e[0]",
            "Virasoro": "z*e[0] - e[-2]",
            "CartanW": "x[1,0]d[2] + 2*x[0,2]d[1]",
            "SpecialS": "SA[0,1] - SB[1,1;2]",
            "HamiltonianH": "DH[2,1]^3",
            "ContactK": "DK[0,0,1] + DK[1,1,0]",
            "LoopSl2": "E[-1]*F[2] - H[0]",
            "ExampleD": "X[3]*Y",
        }
        for alg in ALL_ALGEBRAS:
            f = P(alg, samples[alg.family])
            assert not f.is_zero()


class TestElementGrammar:
    @pytest.mark.parametrize("alg", list(WINDOWS), ids=algebra_to_str)
    def test_names_round_trip_and_parse_exactly_the_valid(self, alg):
        for b in window_basis(alg):
            assert validate_element(alg, b) == b
            name = element_to_str(alg, b)
            assert parse_element(alg, name) == b
            for alg2 in WINDOWS:
                try:
                    validate_element(alg2, b)
                    valid = True
                except InvalidElement:
                    valid = False
                try:
                    parsed = parse_element(alg2, name) == b
                except ParseError:
                    parsed = False
                assert parsed == valid, (name, alg2)


class TestPrint:
    def test_simple(self):
        assert print_poly(P(WITT_POS, "2*e[1]")) == "2*e[1]"

    def test_zero(self):
        assert print_poly(Polynomial.zero(WITT_POS)) == "0"

    def test_no_plus_minus_sequences(self):
        text = print_poly(P(WITT_POS, "e[2] - 1/2*e[1] - 3"))
        assert "+ -" not in text and "- -" not in text

    @pytest.mark.parametrize("name, text, printed", [
        ("virasoro", "e[1]*z + z^2*e[-1] - 2*e[0]*z + z",
         "e[1]*z - 2*e[0]*z + z^2*e[-1] + z"),
        ("cartan-w:2", "x[1,0]d[2]*x[0,1]d[1] + x[0,1]d[2]^2*x[1,0]d[1] - x[2,0]d[1]",
         "-x[2,0]d[1] + x[0,1]d[2]^2*x[1,0]d[1] + x[1,0]d[2]*x[0,1]d[1]"),
        ("special-s:2", "SA[0,2]*SB[1,1;2] + SB[2,0;2]^2*SA[0,1] - 3",
         "SA[0,2]*SB[1,1;2] + SA[0,1]*SB[2,0;2]^2 - 3"),
        ("hamiltonian:2", "DH[1,0]*DH[0,1] + DH[2,0]^2*DH[0,2]",
         "DH[0,2]*DH[2,0]^2 + DH[0,1]*DH[1,0]"),
        ("contact:3", "DK[1,0,0]*DK[0,1,0] + DK[0,0,1]^2*DK[2,0,0]",
         "DK[0,0,1]^2*DK[2,0,0] + DK[0,1,0]*DK[1,0,0]"),
        ("loop-sl2", "E[1]*H[0] - F[2]*E[0]^2 + H[-1]", "-F[2]*E[0]^2 + E[1]*H[0] + H[-1]"),
        ("example-d", "X[2]*Y + Y^2*X[1] - X[3]", "-X[3] + X[2]*Y + Y^2*X[1]"),
    ])
    def test_factors_and_terms_in_basis_order(self, name, text, printed):
        # In each family the elements' tuple order, which sorts a stored
        # monomial, differs from the basis order the printer uses.
        assert print_poly(parse_poly(parse_algebra(name), text)) == printed

    def test_round_trip_random(self):
        rng = random.Random(37)
        for alg in ALL_ALGEBRAS:
            for _ in range(30):
                f = random_poly(alg, rng)
                text = print_poly(f)
                assert parse_poly(alg, text) == f
                assert print_poly(parse_poly(alg, text)) == text


class TestCertificateJson:
    def make_cert(self):
        return partial_reduce(WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),))[1]

    def test_round_trip(self):
        cert = self.make_cert()
        text = cert_to_json(cert)
        back = cert_from_json(text)
        assert cert_to_json(back) == text
        assert verify_certificate(WITT_POS, back) is True

    def test_empty_certificate_document(self):
        g = P(WITT_POS, "e[2]")
        cert = partial_reduce(WITT_POS, g, (P(WITT_POS, "e[1]^2"),))[1]
        doc = json.loads(cert_to_json(cert))
        assert doc["terms"] == []
        assert doc["remainder"] == "e[2]"
        assert doc["format"] == 1

    def test_missing_field_rejected(self):
        doc = json.loads(cert_to_json(self.make_cert()))
        del doc["remainder"]
        with pytest.raises(SchemaError):
            cert_from_json(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(SchemaError):
            cert_from_json("{not json")

    def test_tampering_changes_verification(self):
        doc = json.loads(cert_to_json(self.make_cert()))
        doc["remainder"] = "1"
        bad = cert_from_json(json.dumps(doc))
        assert verify_certificate(WITT_POS, bad) is False

    def test_rational_coefficients_as_strings(self):
        doc = json.loads(cert_to_json(self.make_cert()))
        assert all(isinstance(t["coeff"], str) for t in doc["terms"])


def _set_multiplier(key, value):
    return lambda doc: doc["multipliers"][0].update({key: value})


class TestCertificateSchema:
    """Edits that cert_from_json refuses at load, on the certificate of
    partial_reduce(witt+, e[4], (e[1]^2,))."""

    @pytest.mark.parametrize(
        "edit",
        [
            _set_multiplier("sep_plus_exp", -1),
            _set_multiplier("sep_plus_exp", 1.5),
            _set_multiplier("sep_plus_exp", True),
            _set_multiplier("generator", -1),
            lambda doc: doc["multipliers"].append(dict(doc["multipliers"][0])),
            lambda doc: doc["generators"].__setitem__(0, "3"),
            lambda doc: doc["terms"][0].update({"tuple": []}),
            lambda doc: doc.update({"algebra": "witt"}) or doc["terms"][0].update(
                {"tuple": ["e[3]", "e[-1]"]}),
        ],
        ids=[
            "negative-exponent",
            "float-exponent",
            "bool-exponent",
            "negative-generator",
            "duplicate-multiplier",
            "constant-generator",
            "empty-tuple",
            "mixed-sign-tuple",
        ],
    )
    def test_rejected_at_load(self, edit):
        cert = partial_reduce(WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),))[1]
        doc = json.loads(cert_to_json(cert))
        cert_from_json(json.dumps(doc))
        edit(doc)
        with pytest.raises(SchemaError):
            cert_from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (_set_multiplier("generator", 1), "multiplier generator index out of range"),
        (lambda doc: doc["terms"][0].update({"generator": 1}), "term generator index out of range"),
        (lambda doc: doc.update({"format": 2}), "missing or unsupported format marker"),
        (lambda doc: doc.pop("format"), "missing or unsupported format marker"),
    ], ids=["multiplier-index", "term-index", "format-2", "no-format"])
    def test_refusal_text(self, edit, message):
        cert = partial_reduce(WITT_POS, P(WITT_POS, "e[4]"), (P(WITT_POS, "e[1]^2"),))[1]
        doc = json.loads(cert_to_json(cert))
        edit(doc)
        with pytest.raises(SchemaError) as info:
            cert_from_json(json.dumps(doc))
        assert str(info.value) == message
