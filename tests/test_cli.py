"""Command-line interface: subcommands, exit codes, output formats."""

import json
import os
import resource
import shlex
import subprocess
import sys

import pytest

import gradedlie.cli
from gradedlie.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(gradedlie.cli.__file__)))
README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")


def readme_examples():
    """The gradedlie lines of the sh block under README "CLI", each as
    (argv, the text of its trailing # comment)."""
    with open(README) as fh:
        block = fh.read().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "gradedlie", line
        examples.append((argv[1:], comment.strip()))
    assert examples
    return examples


EXAMPLES = readme_examples()


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

    def test_foreign_element_names_the_algebra_by_its_repr(self, capsys):
        code, out, err = run(capsys, "--alg", "cartan-w:2", "bracket", "e[1]", "e[2]")
        assert (code, out) == (2, "")
        assert err == ("error: not a basis element of AlgebraSpec(family='CartanW', n=2): "
                       "('e', 1) (at position 0)\n")

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

    @pytest.mark.parametrize("argv", [
        ("--alg", "cartan-w:2", "verify-lemma", "W_i", "--bound", "100000000000"),
        ("--alg", "witt", "check-cofinite", "e[2]", "--window", "-30", "30"),
        ("--alg", "witt", "check-cofinite", "e[2]", "--window", "-100000000000", "100000000000"),
        ("--alg", "witt", "search-dicksonian", "--degree-bound", "100000000000",
         "--length-bound", "3"),
    ], ids=["lemma-huge-bound", "cofinite-wide-window", "cofinite-huge-window",
            "search-huge-window"])
    def test_huge_requests_trip_the_guard(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("guard: ")

    def test_window_far_below_the_least_degree(self, capsys):
        near = run(capsys, "--alg", "witt+", "check-cofinite", "e[2]", "--window", "-3", "10")
        far = run(capsys, "--alg", "witt+", "check-cofinite", "e[2]", "--window", "-100000000",
                  "10")
        assert far == near

    def test_unverified_certificate_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(gradedlie.cli, "verify_certificate", lambda alg, cert: False)
        code, out, err = run(capsys, "--alg", "witt+", "reduce", "e[4]", "--by", "e[1]^2")
        assert (code, out) == (3, "")
        assert err == "internal error: certificate failed verification\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--alg", "witt", "dop", "e[1]", "e[1]", "e[-1]"), "'+' tuple entry of degree -1"),
            (("--alg", "witt", "dop", "e[1]", "e[-1]", "e[2]"), "'-' tuple entry of degree 2"),
            (("--alg", "witt", "jacobi-test", "--window", "3", "-3"),
             "inverted degree window (3, -3)"),
            (("--alg", "witt", "check-dagger", "--window", "3", "-3"),
             "inverted degree window (3, -3)"),
            (("--alg", "witt", "check-cofinite", "e[1]", "--window", "3", "-3"),
             "inverted degree window (3, -3)"),
            (("--alg", "witt+", "jacobi-test", "--window", "-3", "0"),
             "degree window (-3, 0) holds 0 basis element(s); the check needs 1"),
            (("--alg", "witt+", "pbracket", "e[1]@", "e[2]"),
             "unexpected character '@' (at position 4)"),
            (("--alg", "witt+", "pbracket", "e(1]", "e[2]"),
             "expected '[', found '(' (at position 1)"),
            (("--alg", "witt+", "pbracket", "e[x]", "e[2]"),
             "expected an integer, found 'x' (at position 2)"),
            (("--alg", "witt+", "pbracket", "(e[1])", "e[2]"),
             "unknown variable '(' (at position 0)"),
            (("--alg", "witt+", "pbracket", "1/0*e[1]", "e[2]"),
             "bad denominator '0' (at position 2)"),
            (("--alg", "witt+", "pbracket", "e[1]^0", "e[2]"),
             "exponent must be a positive integer (at position 5)"),
            (("--alg", "witt+", "pbracket", "e[1] e[2]", "e[2]"),
             "trailing input 'e' (at position 5)"),
            (("--alg", "witt+", "pbracket", "", "e[2]"), "empty input (at position 0)"),
            (("--alg", "witt", "check-dicksonian", "(e[1];e[2])"),
             "expected ',', found ';' (at position 5)"),
            (("--alg", "witt", "check-dicksonian", "(e[1],", "e[2])", "e[3]"),
             "expected '(', found 'e' (at position 13)"),
            (("--alg", "witt", "check-dicksonian", "(e[1],e[2]"),
             "unexpected end of input (at position 10)"),
        ],
        ids=["dop-mixed-plus-first", "dop-mixed-minus-first", "jacobi-inverted-window",
             "dagger-inverted-window", "cofinite-inverted-window", "jacobi-empty-window",
             "poly-unexpected-character", "element-expected-token", "element-expected-integer",
             "poly-unknown-variable", "poly-bad-denominator", "poly-zero-exponent",
             "poly-trailing-input", "poly-empty-input", "pair-expected-comma",
             "pair-expected-open", "pair-unclosed"],
    )
    def test_refusal_names_the_fault(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: %s\n" % message)


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
            ("--alg", "cartan-w:2", "verify-lemma", "W_i", "--bound", "0"),
            ("--alg", "witt", "jacobi-test", "--window", "-3", "3", "--samples", "0"),
            ("--alg", "witt+", "search-dicksonian", "--degree-bound", "0", "--length-bound", "3"),
            ("--alg", "witt", "search-dicksonian", "--degree-bound", "3", "--length-bound", "0"),
            ("--alg", "witt+", "check-dagger", "--window", "-3", "0"),
            ("--alg", "witt+", "check-dagger", "--window", "1", "1"),
            ("--alg", "witt", "check-dagger", "--window", "50", "50"),
            ("--alg", "witt+", "check-cofinite", "e[1]", "--window", "-3", "0"),
            ("--alg", "witt", "check-dicksonian", ""),
            ("--alg", "witt", "check-dicksonian", " "),
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
            "lemma-no-instance",
            "jacobi-zero-samples",
            "search-empty-window",
            "search-zero-length-bound",
            "dagger-empty-window",
            "dagger-one-element-window",
            "dagger-one-element-window-far-out",
            "cofinite-empty-window",
            "dicksonian-no-pair",
            "dicksonian-blank-pair",
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
                ("--alg", "witt", "check-dicksonian", "(e[1],e[5]) (e[-2],e[6])"),
                "verdict: false\nfailing: (1, 2)\nnotes: e[-2] in L-(e[1])\n",
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
        ids=["cofinite", "dicksonian", "dicksonian-minus", "leaders", "reduce", "search"],
    )
    def test_exact_text(self, capsys, argv, text):
        code, out, _ = run(capsys, *argv)
        assert out == text

    @pytest.mark.parametrize("argv, code, text", [
        (("--alg", "witt", "check-dicksonian", "(e[2],e[1])"), 1,
         "verdict: false\nfailing: (1, 1)\nnotes: pair 1 has M > N\n"),
        (("--alg", "witt", "check-cofinite", "e[1]", "--window", "3", "6"), 0,
         "verdict: true\nexceptions: \n"),
    ], ids=["dicksonian-pair-out-of-order", "cofinite-no-exception"])
    def test_exit_code_and_text(self, capsys, argv, code, text):
        assert run(capsys, *argv) == (code, text, "")

    def test_jacobi_counterexample(self, capsys, monkeypatch):
        monkeypatch.setattr(gradedlie.cli, "jacobi_residual", lambda alg, a, b, c: {b: 1})
        argv = ("--alg", "witt", "jacobi-test", "--window", "-1", "1", "--samples", "3")
        assert run(capsys, *argv) == (
            1, "verdict: false\ncounterexample: (e[0], e[0], e[-1])\n", "")


def python(code, *args, timeout=120, **kw):
    """Run code in a fresh, isolated interpreter that imports gradedlie from SRC."""
    prelude = "import sys; sys.path.insert(0, %r); " % SRC
    return subprocess.run([sys.executable, "-I", "-c", prelude + code, *args], timeout=timeout,
                          **kw)


def test_import_leaves_out_the_code_generating_modules():
    # The records are NamedTuples: importing the CLI loads no dataclasses,
    # nor what dataclasses imports for its generated methods.
    proc = python("import gradedlie.cli; print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}"
                  " & set(sys.modules)))", capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestHashOrder:
    """An outcome does not hang on set order: each command gives one exit
    code, stdout and stderr in children under PYTHONHASHSEED 0-5.  In g =
    e[30]*e[3], e[3] lies in L+(e[1]), and e[30] lies 29 degrees past e[1],
    beyond the gap limit; g's variables are decided in basis order, so the
    witness for e[3] settles the answer before e[30] is asked about."""

    COMMANDS = [
        (["check-reduced", "e[30]*e[3]", "--by", "e[1]^2"], 1, ""),
        (["check-reduced-seq", "e[30]*e[3]", "e[1]^2"], 1, ""),
        (["reduce", "e[5]", "--by", "e[30]*e[3]", "e[1]^2"], 2,
         "error: generators do not form a reduced sequence\n"),
    ]

    CHILD = """if 1:
        import contextlib, io, json, sys
        from gradedlie.cli import main
        out = []
        for argv in json.loads(sys.argv[1]):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["--alg", "witt"] + argv)
            out.append([code, stdout.getvalue(), stderr.getvalue()])
        print(json.dumps(out))
    """

    def test_one_outcome_under_every_hash_seed(self):
        code = "import sys; sys.path.insert(0, %r)\n" % SRC + self.CHILD
        argvs = json.dumps([argv for argv, _, _ in self.COMMANDS])
        outcomes = set()
        for seed in range(6):
            # -I would ignore PYTHONHASHSEED, so the child gets a bare
            # environment instead.
            proc = subprocess.run([sys.executable, "-s", "-c", code, argvs], timeout=60,
                                  env={"PYTHONHASHSEED": str(seed)}, capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
            outcomes.add(proc.stdout)
        [outcome] = outcomes
        assert [(c, err) for c, _, err in json.loads(outcome)] == [
            (c, err) for _, c, err in self.COMMANDS]


HUGE = "100000000000"


class TestUnboundedRequests:
    """Requests whose size has no bound in the grammar end at once: each is
    refused before any enumeration, or, for a length-one search, answered
    without one.  A Cartan type of large rank is answered too: its
    components are enumerated without a call per rank.  One whose rank is
    too large for memory exits 3 with the out-of-memory guard."""

    @pytest.mark.parametrize("argv, code, out, err", [
        (("--alg", "witt", "check-dagger", "--window", "-" + HUGE, HUGE), 2, "",
         "error: degree window (-%s, %s) spans more than the safety limit 24\n" % (HUGE, HUGE)),
        (("--alg", "witt", "jacobi-test", "--window", "-" + HUGE, HUGE), 2, "",
         "error: degree window (-%s, %s) spans more than the safety limit 24\n" % (HUGE, HUGE)),
        (("--alg", "witt", "jacobi-test", "--window", "-3", "3", "--samples", HUGE), 2, "",
         "error: --samples must be from 1 to 1000000\n"),
        (("--alg", "witt", "search-dicksonian", "--degree-bound", HUGE, "--length-bound", "1"),
         0, "length: 1\n(e[-%s], e[-%s])\n" % (HUGE, HUGE), ""),
        (("--alg", "witt", "search-dicksonian", "--degree-bound", HUGE, "--length-bound", "0"),
         2, "", "error: search needs a nonempty degree window and a positive length bound\n"),
        (("--alg", "hamiltonian:2000", "jacobi-test", "--window", "-1", "-1", "--samples", "1"),
         0, "verdict: true\n", ""),
        (("--alg", "cartan-w:1000", "jacobi-test", "--window", "-1", "-1", "--samples", "1"),
         0, "verdict: true\n", ""),
    ], ids=["dagger-huge-window", "jacobi-huge-window", "jacobi-huge-samples",
            "search-huge-window-length-one", "search-huge-window-length-zero",
            "jacobi-hamiltonian-rank-2000", "jacobi-cartan-w-rank-1000"])
    def test_ends_at_once(self, argv, code, out, err):
        proc = python("from gradedlie.cli import main; sys.exit(main(sys.argv[1:]))", *argv,
                      timeout=5, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize("command", [
        ("check-dagger",), ("jacobi-test", "--samples", "5"),
    ], ids=["dagger", "jacobi"])
    def test_window_span_limit_is_the_degree_gap(self, capsys, command):
        def span(lo, hi, *gap):
            return run(capsys, "--alg", "witt", *gap, *command, "--window", str(lo), str(hi))[0]

        assert span(-12, 12) == 0
        assert span(-12, 13) == 2
        assert span(-12, 13, "--max-degree-gap", "25") == 0
        # witt+ has no element below degree 1, so its windows span from there.
        assert run(capsys, "--alg", "witt+", *command, "--window", "-100", "25")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("--alg", "cartan-w:" + HUGE, "jacobi-test", "--window", "-1", "-1", "--samples", "1"),
        ("--alg", "hamiltonian:" + HUGE, "check-dagger", "--window", "-1", "0"),
        ("--alg", "contact:100000000001", "search-dicksonian", "--degree-bound", "1",
         "--length-bound", "2"),
        ("--alg", "special-s:" + HUGE, "verify-lemma", "S_i", "--bound", "1"),
    ], ids=["jacobi-cartan-w", "dagger-hamiltonian", "search-contact", "lemma-special-s"])
    def test_huge_ranks_trip_the_memory_guard(self, argv):
        # The address-space limit is set in the child only, after the fork.
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = python("from gradedlie.cli import main; sys.exit(main(sys.argv[1:]))", *argv,
                      timeout=30, capture_output=True, text=True, preexec_fn=limit)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", "guard: out of memory\n")

    def test_sample_cap(self, capsys):
        argv = ("--alg", "witt", "jacobi-test", "--window", "-3", "3", "--samples")
        code, out, err = run(capsys, *argv, str(gradedlie.cli.MAX_SAMPLES + 1))
        assert (code, out) == (2, "")
        assert err == "error: --samples must be from 1 to %d\n" % gradedlie.cli.MAX_SAMPLES


PARTIAL_E4 = (
    "remainder: 0\n"
    "multiplier[0]: initial^0 * sep+^1 * sep-^0  (generator e[1]^2)\n"
    "term: (1/2) * D_(e[3])(generator 0)\n"
)

COMMANDS = [
    "bracket", "pbracket", "dop", "leaders", "reduce", "check-reduced", "check-reduced-seq",
    "l-member", "check-dicksonian", "search-dicksonian", "verify-lemma", "check-dagger",
    "check-cofinite", "jacobi-test",
]


class TestCommandLine:
    """The command line is read against the grammar table, one token at a time."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alg", "witt+", "--frobnicate", "bracket", "e[1]", "e[2]"),
            ("--alg", "witt+", "bracket", "e[1]", "e[2]", "--minus"),
            ("--alg", "witt+", "bracket", "e[1]", "e[2]", "--format", "json"),
            ("--alg", "witt+", "search-dicksonian", "--deg", "3", "--length-bound", "4"),
            ("--al", "witt+", "bracket", "e[1]", "e[2]"),
            ("--alg", "witt+", "frobnicate", "e[1]"),
            ("--alg", "witt+"),
            (),
            ("bracket", "e[1]", "e[2]"),
            ("--alg", "witt+", "reduce", "e[4]"),
            ("--alg", "witt", "check-dagger"),
            ("--alg", "witt", "check-dagger", "--window", "-3", "x"),
            ("--alg", "witt+", "--max-steps", "many", "reduce", "e[4]", "--by", "e[1]^2"),
            ("--alg", "witt+", "--format", "xml", "bracket", "e[1]", "e[2]"),
            ("--alg", "witt+", "bracket", "e[1]"),
            ("--alg", "witt+", "bracket", "e[1]", "e[2]", "e[3]"),
            ("--alg", "witt+", "check-reduced-seq"),
            ("--alg", "witt+", "search-dicksonian", "3",
             "--degree-bound", "3", "--length-bound", "4"),
            ("--alg", "cartan-w:2", "verify-lemma", "W_i", "--bound"),
            ("--alg", "witt", "check-dagger", "--window", "-3"),
            ("--alg", "witt", "check-dagger", "--window=-3", "3"),
            ("--alg", "witt+", "reduce", "e[4]", "--by", "--partial"),
            ("--alg", "witt+", "reduce", "e[4]", "--by", "e[1]^2", "--partial=yes"),
        ],
        ids=[
            "unknown-global-option",
            "unknown-command-option",
            "global-option-after-command",
            "abbreviated-option",
            "abbreviated-global-option",
            "unknown-command",
            "missing-command",
            "empty-command-line",
            "missing-alg",
            "missing-by",
            "missing-window",
            "non-integer-value",
            "non-integer-global-value",
            "format-not-text-or-json",
            "too-few-positionals",
            "too-many-positionals",
            "missing-one-or-more-positionals",
            "positional-to-a-command-without-any",
            "option-without-its-value",
            "window-with-one-value",
            "window-with-one-value-after-equals",
            "by-without-values",
            "flag-with-a-value",
        ],
    )
    def test_malformed_command_lines_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("--alg", "witt+", "reduce", "--partial", "e[4]", "--by", "e[1]^2"),
            ("--alg", "witt+", "reduce", "e[4]", "--by", "e[1]^2", "--partial"),
            ("--alg=witt+", "reduce", "e[4]", "--partial", "--by=e[1]^2"),
        ],
        ids=["flag-first", "flag-last", "equals-form"],
    )
    def test_options_stand_among_positionals(self, capsys, argv):
        assert run(capsys, *argv) == (0, PARTIAL_E4, "")

    def test_format_equals_form(self, capsys):
        code, out, _ = run(capsys, "--alg", "witt+", "--format=json", "bracket", "e[1]", "e[2]")
        assert (code, json.loads(out)) == (0, {"result": "e[3]"})

    @pytest.mark.parametrize("argv", [("-h",), ("--alg", "witt+", "bracket", "--help")])
    def test_help_names_every_command(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: gradedlie --alg")
        assert [line.split()[0] for line in out.splitlines() if line.startswith("  ")] == COMMANDS

    @pytest.mark.parametrize(
        "alg, degree, length", [("witt+", 3, 10), ("witt", 2, 30), ("w1", 4, 30)]
    )
    def test_check_dicksonian_reads_search_output(self, capsys, alg, degree, length):
        code, out, _ = run(capsys, "--alg", alg, "search-dicksonian",
                           "--degree-bound", str(degree), "--length-bound", str(length))
        assert code == 0
        pairs = out.splitlines()[1:]
        assert pairs and all(", " in pair for pair in pairs)
        # One argument a pair, and the same text split at every space as an
        # unquoted $(...) in a shell splits it.
        for args in (pairs, " ".join(pairs).split()):
            code, out, _ = run(capsys, "--alg", alg, "check-dicksonian", *args)
            assert (code, out.splitlines()[0]) == (0, "verdict: true")

    @pytest.mark.parametrize("argv, comment", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
    def test_readme_examples(self, capsys, argv, comment):
        code, out, err = run(capsys, *argv)
        assert code in (0, 1)
        assert err == ""
        if argv[2] == "pbracket":
            assert out == comment + "\n"

    def test_closed_stdout_exits_141_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = python("from gradedlie.cli import entrypoint; entrypoint()",
                          "--alg", "witt+", "search-dicksonian", "--degree-bound", "2",
                          "--length-bound", "3", stdout=write_end, stderr=subprocess.PIPE)
        finally:
            os.close(write_end)
        assert proc.returncode == 141
        assert b"Traceback" not in proc.stderr

    def test_a_command_imports_no_argparse_gettext_or_locale(self):
        proc = python(
            "import gradedlie.cli; "
            "gradedlie.cli.main(['--alg', 'witt+', 'l-member', 'e[1]', 'e[2]']); "
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
            capture_output=True, text=True,
        )
        lines = proc.stdout.splitlines()
        assert (lines[0], lines[-1]) == ("verdict: false", "[]")
