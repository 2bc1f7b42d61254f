"""Command-line interface: subcommands, exit codes, output formats."""

import json

import pytest

from gradedlie.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasics:
    def test_pbracket(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "pbracket", "e[1]", "e[2]")
        assert code == 0
        assert out.strip() == "e[3]"

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "bracket", "e[1]", "e[2]")
        assert code == 0
        assert out.strip() == "e[3]"

    def test_dop(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "dop", "e[1]^2", "e[3]")
        assert code == 0
        assert out.strip() == "4*e[4]*e[1]"

    def test_leaders(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "leaders", "e[1]^2*e[3]+e[2]")
        assert code == 0
        assert "upper leader: e[3]" in out
        assert "lower leader: e[1]" in out

    def test_leaders_json(self, capsys):
        code, out, _ = run(
            capsys, "--alg", "witt+", "--format", "json", "leaders", "e[1]^2*e[3]+e[2]"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["upper"]["leader"] == "e[3]"
        assert doc["lower"]["degree"] == 2


class TestReduce:
    def test_full_is_default(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "reduce", "e[1]^3", "--by", "e[1]^2")
        assert code == 0
        assert "remainder: 0" in out
        assert "term: (e[1]) * id(generator 0)" in out

    def test_partial(self, capsys):
        code, out, _ = run(
            capsys, "--alg", "witt+", "reduce", "--partial", "e[4]", "--by", "e[1]^2"
        )
        assert code == 0
        assert "remainder: 0" in out
        assert "term: (1/2) * D_(e[3])(generator 0)" in out

    def test_json_document_round_trips(self, capsys):
        from gradedlie import cert_from_json, cert_to_json, verify_certificate
        from gradedlie.algebras import AlgebraSpec

        code, out, _ = run(
            capsys, "--alg", "witt+", "--format", "json", "reduce", "e[4]", "--by", "e[1]^2"
        )
        assert code == 0
        cert = cert_from_json(out)
        assert verify_certificate(AlgebraSpec("WittPositive"), cert) is True
        assert cert_to_json(cert) == out.strip()

    def test_check_reduced(self, capsys):
        code, _, _ = run(capsys, "--alg", "witt+", "check-reduced", "e[2]", "--by", "e[1]^2")
        assert code == 0
        code, _, _ = run(capsys, "--alg", "witt+", "check-reduced", "e[4]", "--by", "e[1]^2")
        assert code == 1

    def test_check_reduced_seq(self, capsys):
        code, _, _ = run(capsys, "--alg", "witt+", "check-reduced-seq", "e[1]^2", "e[2]^2")
        assert code == 0
        code, _, _ = run(capsys, "--alg", "witt+", "check-reduced-seq", "e[1]^2", "e[4]")
        assert code == 1


class TestDecisionCommands:
    def test_l_member_false(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "l-member", "e[1]", "e[2]")
        assert code == 1
        assert "verdict: false" in out

    def test_l_member_true_with_witness(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "l-member", "e[1]", "e[3]")
        assert code == 0
        assert "witness: (e[2])" in out

    def test_l_member_minus(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt", "l-member", "e[1]", "e[0]", "--minus")
        assert code in (0, 1)
        assert "verdict" in out

    def test_check_dicksonian(self, capsys):
        code, out, _ = run(
            capsys,
            "--alg",
            "witt+",
            "check-dicksonian",
            "(e[1],e[1]) (e[2],e[2]) (e[3],e[3])",
        )
        assert code == 1
        assert "failing: (1, 3)" in out

    def test_search_dicksonian(self, capsys):
        code, out, _ = run(
            capsys,
            "--alg",
            "witt+",
            "search-dicksonian",
            "--degree-bound",
            "3",
            "--length-bound",
            "4",
        )
        assert code == 0
        assert out.startswith("length: 4")

    def test_verify_lemma(self, capsys):
        code, out, _ = run(capsys, "--alg", "cartan-w:2", "verify-lemma", "W_i", "--bound", "2")
        assert code == 0
        assert "verdict: true" in out

    def test_check_dagger(self, capsys):
        code, out, _ = run(capsys, "--alg", "virasoro", "check-dagger", "--window", "-3", "3")
        assert code == 1
        assert "failing:" in out and "not a scalar multiple" in out
        code, _, _ = run(capsys, "--alg", "witt", "check-dagger", "--window", "-3", "3")
        assert code == 0

    def test_check_cofinite(self, capsys):
        code, out, _ = run(
            capsys, "--alg", "witt", "check-cofinite", "e[1]", "--window", "-4", "4"
        )
        assert code == 0
        assert "exceptions:" in out

    def test_jacobi_test(self, capsys):
        code, out, _ = run(
            capsys,
            "--alg",
            "witt",
            "jacobi-test",
            "--window",
            "-3",
            "3",
            "--samples",
            "20",
            "--seed",
            "5",
        )
        assert code == 0
        assert "verdict: true" in out


class TestErrorHandling:
    def test_unknown_algebra(self, capsys):
        code, _, err = run(capsys, "--alg", "nope", "bracket", "e[1]", "e[2]")
        assert code == 2
        assert err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "--alg", "witt+", "pbracket", "e[", "e[2]")
        assert code == 2
        assert err

    def test_invalid_index(self, capsys):
        code, _, _ = run(capsys, "--alg", "witt+", "pbracket", "e[0]", "e[2]")
        assert code == 2

    def test_guard_trip(self, capsys):
        code, _, err = run(
            capsys,
            "--alg",
            "witt+",
            "--max-degree-gap",
            "3",
            "l-member",
            "e[1]",
            "e[9]",
        )
        assert code == 3
        assert err


class TestArguments:
    def test_leading_minus_polynomial_is_a_value(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "reduce", "-e[4]", "--by", "e[1]^2")
        assert code == 0
        assert out.startswith("remainder: 0")
        code, out, _ = run(capsys, "--alg", "witt+", "pbracket", "-e[1]", "-e[2]")
        assert (code, out) == (0, "e[3]\n")

    def test_jobs_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "--alg", "witt+", "--jobs", "2", "bracket", "e[1]", "e[2]")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alg", "virasoro", "check-dagger", "--window", "4", "-1"),
            ("--alg", "witt", "check-cofinite", "e[1]", "--window", "4", "-1"),
            ("--alg", "witt", "jacobi-test", "--window", "-3", "3", "--samples", "-1"),
            ("--alg", "cartan-w:2", "verify-lemma", "W_i", "--bound", "-1"),
            ("--alg", "witt+", "search-dicksonian", "--degree-bound", "-1", "--length-bound", "4"),
            ("--alg", "witt+", "search-dicksonian", "--degree-bound", "3", "--length-bound", "-1"),
            ("--alg", "witt+", "--max-steps", "-5", "reduce", "e[4]", "--by", "e[1]^2"),
            ("--alg", "witt+", "--max-degree-gap", "-1", "l-member", "e[1]", "e[3]"),
        ],
        ids=[
            "dagger-inverted-window",
            "cofinite-inverted-window",
            "jacobi-negative-samples",
            "lemma-negative-bound",
            "search-negative-degree-bound",
            "search-negative-length-bound",
            "negative-max-steps",
            "negative-max-degree-gap",
        ],
    )
    def test_vacuous_inputs_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")


class TestTextFormat:
    """--format text renders each command's JSON document."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                ("--alg", "witt", "check-cofinite", "e[1]", "--window", "-4", "4"),
                "verdict: true\n"
                "exceptions: e[1], e[2]\n"
                "notes: exceptions within degree distance 1 of e[1]\n",
            ),
            (
                ("--alg", "witt+", "check-dicksonian", "(e[1],e[1]) (e[2],e[2]) (e[3],e[3])"),
                "verdict: false\nfailing: (1, 3)\nnotes: e[3] in L+(e[1])\n",
            ),
            (
                ("--alg", "witt+", "leaders", "e[1]^2*e[3]+e[2]"),
                "upper leader: e[3]\n"
                "upper degree: 1\n"
                "upper initial: e[1]^2\n"
                "upper separant: e[1]^2\n"
                "lower leader: e[1]\n"
                "lower degree: 2\n"
                "lower initial: e[3]\n"
                "lower separant: 2*e[3]*e[1]\n",
            ),
            (
                ("--alg", "witt+", "reduce", "e[1]^3 + e[4]", "--by", "e[1]^2"),
                "remainder: 0\n"
                "multiplier[0]: initial^1 * sep+^1 * sep-^0  (generator e[1]^2)\n"
                "term: (1/2) * D_(e[3])(generator 0)\n"
                "term: (2*e[1]^2) * id(generator 0)\n",
            ),
            (
                ("--alg", "witt+", "search-dicksonian", "--degree-bound", "2",
                 "--length-bound", "3"),
                "length: 3\n(e[1], e[1])\n(e[1], e[2])\n(e[2], e[2])\n",
            ),
        ],
        ids=["cofinite", "dicksonian", "leaders", "reduce", "search"],
    )
    def test_exact_text(self, capsys, argv, text):
        code, out, _ = run(capsys, *argv)
        assert out == text
