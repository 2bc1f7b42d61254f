"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench/test_checks.py

The checks in oracle.py must reject wrong outputs: a tampered
certificate, a flipped verdict or a bad witness, a sequence that is not
leading-Dicksonian, a remainder that is not partially reduced.  Where a
real output is needed, the tests call `gradedlie` itself; the checks
never do.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle as o  # noqa: E402
import workloads  # noqa: E402


def cli(argv):
    from gradedlie.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["--format", "json"] + argv)
    return rc, buf.getvalue()


# -- membership ---------------------------------------------------------------


def test_witt_leader_sets_match_the_closed_form():
    # T = e_i lies in L+(e_n) iff i > n, except e_2 for n = 1.
    for n in range(-3, 13):
        for i in range(-3, 13):
            assert o.member("witt", n, i, o.PLUS) == (i > n and not (n == 1 and i == 2))


def test_membership_agrees_with_the_program():
    from gradedlie import l_member, parse_algebra
    from gradedlie.algebras import Z, e

    for alg in o.FLOORS:
        spec = parse_algebra(alg)
        elems = o.window(alg, 6)
        for M in elems:
            for T in elems:
                for sign in (o.PLUS, o.MINUS):
                    got = l_member(spec, Z if M == o.Z else e(M), Z if T == o.Z else e(T), sign)
                    assert got.verdict == o.member(alg, M, T, sign), (alg, M, T, sign)


def test_flipped_verdict_and_bad_witness_are_rejected():
    rc, out = cli(["--alg", "witt", "l-member", "e[1]", "e[5]"])
    doc = json.loads(out)
    o.check_l_member("witt", 1, 5, o.PLUS, doc)
    with pytest.raises(o.CheckFailed):
        o.check_l_member("witt", 1, 5, o.PLUS, dict(doc, verdict=False))
    with pytest.raises(o.CheckFailed):
        o.check_l_member("witt", 1, 2, o.PLUS, {"verdict": True, "witness": ["e[1]"]})
    with pytest.raises(o.CheckFailed):  # right verdict, witness leads elsewhere
        o.check_l_member("witt", 1, 5, o.PLUS, dict(doc, witness=["e[1]", "e[3]"]))
    with pytest.raises(o.CheckFailed):
        o.check_l_member("virasoro", o.Z, 13, o.PLUS, {"verdict": True, "witness": ["e[13]"]})


# -- leading-Dicksonian sequences ---------------------------------------------


def test_non_dicksonian_sequences_are_rejected():
    o.check_dicksonian("witt+", [(1, 1), (2, 2)])
    with pytest.raises(o.CheckFailed):  # e_3 in L+(e_1)
        o.check_dicksonian("witt+", [(1, 1), (1, 3)])
    with pytest.raises(o.CheckFailed):  # M > N
        o.check_dicksonian("witt+", [(2, 1)])
    with pytest.raises(o.CheckFailed):
        o.check_dicksonian("witt+", [(1, 1), (1, 1)])


def test_search_results_are_checked_for_maximality():
    rc, out = cli(["--alg", "witt", "search-dicksonian", "--degree-bound", "2",
                   "--length-bound", "30"])
    doc = json.loads(out)
    o.check_search("witt", 2, 30, doc)
    short = {"length": doc["length"] - 1, "sequence": doc["sequence"][:-1]}
    with pytest.raises(o.CheckFailed):  # still extends by the dropped pair
        o.check_search("witt", 2, 30, short)
    repeated = {"length": doc["length"] + 1, "sequence": doc["sequence"] + doc["sequence"][:1]}
    with pytest.raises(o.CheckFailed):
        o.check_search("witt", 2, 30, repeated)
    with pytest.raises(o.CheckFailed):  # outside the degree bound
        o.check_search("witt", 1, 30, doc)


# -- certificates -------------------------------------------------------------


def _certificate(alg, g, lam, full):
    argv = ["--alg", alg, "reduce", workloads._arg(o.print_poly(g)), "--by"]
    argv += [workloads._arg(o.print_poly(f)) for f in lam]
    rc, out = cli(argv + ([] if full else ["--partial"]))
    assert rc == 0
    return out


@pytest.mark.parametrize("alg,g,lam,full", [
    ("witt+", "e[4]", ["e[1]^2"], False),
    ("witt", "-e[4]*e[-2] + 3/2*e[3]^2", ["e[2]*e[-1] - 2*e[1]"], False),
    ("virasoro", "z*e[3]^2 - e[-3]", ["e[1]^2 + e[1]"], True),
])
def test_certificates_verify_and_tampering_is_rejected(alg, g, lam, full):
    g = o.parse_poly(alg, g)
    lam = [o.parse_poly(alg, f) for f in lam]
    text = _certificate(alg, g, lam, full)
    assert o.check_certificate(alg, text, g, lam, full) > 0
    doc = json.loads(text)

    def tampered(edit):
        d = json.loads(text)
        edit(d)
        return json.dumps(d)

    bad = [
        tampered(lambda d: d.update(remainder=o.print_poly(o.padd(o.parse_poly(alg, d["remainder"]),
                                                                  {((3, 1),): 1})))),
        tampered(lambda d: d["multipliers"][0].update(sep_plus_exp=d["multipliers"][0]["sep_plus_exp"] + 1)),
        tampered(lambda d: d.update(input=o.print_poly(o.padd(g, {((2, 1),): 1})))),
        tampered(lambda d: d["multipliers"][0].update(initial_exp=True)),
    ]
    if doc["terms"]:
        bad.append(tampered(lambda d: d["terms"][0].update(
            coeff=o.print_poly(o.padd(o.parse_poly(alg, d["terms"][0]["coeff"]), {(): 1})))))
    for text_bad in bad:
        with pytest.raises(o.CheckFailed):
            o.check_certificate(alg, text_bad, g, lam, full)


def test_unreduced_remainder_is_rejected():
    # The identity 1 * e[4] = e[4] holds, but e[4] lies in L+(e[1]).
    doc = {"format": 1, "algebra": "witt+", "input": "e[4]", "remainder": "e[4]",
           "generators": ["e[1]^2"], "terms": [],
           "multipliers": [{"generator": 0, "initial_exp": 0, "sep_plus_exp": 0,
                            "sep_minus_exp": 0}]}
    g, lam = o.parse_poly("witt+", "e[4]"), [o.parse_poly("witt+", "e[1]^2")]
    with pytest.raises(o.CheckFailed, match="L\\+"):
        o.check_certificate("witt+", json.dumps(doc), g, lam, False)


def test_parse_and_print_round_trip():
    for seed in range(5):
        for op in workloads.reduce(seed):
            alg, g, lam, _ = op.args
            for f in [g] + lam:
                assert o.parse_poly(alg, o.print_poly(f)) == f


# -- workloads and tracing ----------------------------------------------------


def test_workloads_are_seeded():
    for name, make in workloads.WORKLOADS.items():
        assert [op.argv for op in make(3)] == [op.argv for op in make(3)]
    assert [op.argv for op in workloads.lemma(3)] != [op.argv for op in workloads.lemma(4)]
    assert [op.argv for op in workloads.reduce(3)] != [op.argv for op in workloads.reduce(4)]


def test_traced_server_counts_generator_yields():
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "zygote.py"),
                             os.path.join(ROOT, "src"), "1"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        hello = json.loads(proc.stdout.readline())
        assert hello["absent"] == []
        proc.stdin.write(json.dumps({"argv": ["--format", "json", "--alg", "witt", "l-member",
                                              "e[1]", "e[6]"], "cap_s": 60}) + "\n")
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
    assert reply["rc"] == 0
    stats = reply["trace"]["stats"]
    assert stats["leaders.iter_tuples"][3] > 0  # yields counted
    assert stats["leaders.l_member"][0] == 1
    assert stats["poly.d_leader"][0] > 0  # rebound in leaders, which imported it by name
    spans = reply["trace"]["spans"]
    ids = {s[0] for s in spans}
    assert all(s[1] is None or s[1] in ids for s in spans)


def test_missing_names_are_dropped_not_fatal(monkeypatch):
    import spans

    monkeypatch.setattr(spans, "BOUNDARIES", [("poly", "gradedlie.poly", "no_such_function"),
                                              ("poly", "gradedlie.no_such_module", "f")])
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == ["poly.no_such_function", "poly.f"]


def test_run_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lemma", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "attempted" not in proc.stdout


def test_a_command_past_its_cap_is_killed():
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "zygote.py"),
                             os.path.join(ROOT, "src"), "0"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        proc.stdout.readline()
        proc.stdin.write(json.dumps({"argv": ["--alg", "virasoro", "l-member", "z", "e[18]"],
                                     "cap_s": 0.05}) + "\n")
        proc.stdin.flush()
        reply = json.loads(proc.stdout.readline())
    finally:
        proc.stdin.close()
        proc.wait(timeout=60)
    assert reply["timeout"] is True and reply["rc"] is None
