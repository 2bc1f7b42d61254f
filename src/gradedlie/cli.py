"""Command-line interface.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or parse
error, 3 internal guard tripped (step budget, failed verification).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .algebras import (
    bracket_basis,
    degree,
    element_to_str,
    elements_in_window,
    jacobi_residual,
    parse_algebra,
)
from .elim import (
    NonTermination,
    full_reduce,
    is_reduced,
    is_reduced_sequence,
    partial_reduce,
    verify_certificate,
)
from .leaders import (
    DegreeGapExceeded,
    check_cofinite_window,
    check_dagger,
    check_leading_dicksonian,
    l_member,
    search_leading_dicksonian,
    verify_claimed_subset,
)
from .poly import MINUS, PLUS, DTuple, Polynomial, d_op
from .textio import ParseError, cert_to_doc, parse_element, parse_poly, print_poly


class UsageError(ValueError):
    pass


def _build_parser():
    top = argparse.ArgumentParser(prog="gradedlie")
    top.add_argument("--alg", required=True, help="algebra name, e.g. witt+ or cartan-w:3")
    top.add_argument("--format", choices=["text", "json"], default="text")
    top.add_argument("--max-degree-gap", type=int, default=24)
    top.add_argument("--max-steps", type=int, default=10**6)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("pbracket")
    p.add_argument("f")
    p.add_argument("g")

    p = sub.add_parser("dop")
    p.add_argument("f")
    p.add_argument("entries", nargs="+")

    p = sub.add_parser("leaders")
    p.add_argument("f")

    p = sub.add_parser("reduce")
    p.add_argument("g")
    p.add_argument("--by", nargs="+", required=True)
    p.add_argument("--partial", action="store_true")

    p = sub.add_parser("check-reduced")
    p.add_argument("g")
    p.add_argument("--by", nargs="+", required=True)

    p = sub.add_parser("check-reduced-seq")
    p.add_argument("gens", nargs="+")

    p = sub.add_parser("l-member")
    p.add_argument("m")
    p.add_argument("t")
    p.add_argument("--minus", action="store_true")

    p = sub.add_parser("check-dicksonian")
    p.add_argument("pairs", nargs="+")

    p = sub.add_parser("search-dicksonian")
    p.add_argument("--degree-bound", type=int, required=True)
    p.add_argument("--length-bound", type=int, required=True)

    p = sub.add_parser("verify-lemma")
    p.add_argument("tag")
    p.add_argument("--bound", type=int, required=True)

    p = sub.add_parser("check-dagger")
    p.add_argument("--window", type=int, nargs=2, required=True)

    p = sub.add_parser("check-cofinite")
    p.add_argument("m")
    p.add_argument("--window", type=int, nargs=2, required=True)

    p = sub.add_parser("jacobi-test")
    p.add_argument("--window", type=int, nargs=2, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return top


def _emit(args, doc):
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in _text(doc):
            print(line)


def _verdict(args, ok, extra_doc=None):
    doc = {"verdict": bool(ok)}
    doc.update(extra_doc or {})
    _emit(args, doc)
    return 0 if ok else 1


def _report(args, rep, alg):
    _emit(args, _report_doc(rep, alg))
    return 0 if rep.verdict else 1


def _parse_pair(alg, s):
    s = s.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise UsageError("pair must look like (M,N): %r" % s)
    inner = s[1:-1]
    depth = 0
    for pos, ch in enumerate(inner):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "," and depth == 0:
            return (
                parse_element(alg, inner[:pos]),
                parse_element(alg, inner[pos + 1 :]),
            )
    raise UsageError("pair must look like (M,N): %r" % s)


def _failing_doc(alg, v):
    if isinstance(v, int):
        return v
    if isinstance(v, tuple) and v and isinstance(v[0], str):
        return element_to_str(alg, v)
    return [_failing_doc(alg, u) for u in v]


def _report_doc(rep, alg):
    doc = {"verdict": rep.verdict}
    if rep.witness is not None:
        doc["witness"] = [element_to_str(alg, b) for b in rep.witness.entries]
    if rep.failing is not None:
        doc["failing"] = _failing_doc(alg, rep.failing)
    if rep.notes:
        doc["notes"] = rep.notes
    if rep.exceptions is not None:
        doc["exceptions"] = [element_to_str(alg, b) for b in rep.exceptions]
    return doc


def _field(show=str):
    return lambda key, v, doc: ["%s: %s" % (key, show(v))]


def _nested(v):
    return "(%s)" % ", ".join(map(_nested, v)) if isinstance(v, list) else str(v)


def _multiplier_lines(key, v, doc):
    return [
        "multiplier[%d]: initial^%d * sep+^%d * sep-^%d  (generator %s)"
        % (m["generator"], m["initial_exp"], m["sep_plus_exp"], m["sep_minus_exp"],
           doc["generators"][m["generator"]])
        for m in v
    ]


def _term_lines(key, v, doc):
    lines = []
    for t in v:
        op = "id" if t["tuple"] is None else "D_(%s)" % ", ".join(t["tuple"])
        lines.append("term: (%s) * %s(generator %d)" % (t["coeff"], op, t["generator"]))
    return lines


def _leader_lines(key, v, doc):
    return ["%s %s: %s" % (key, k, u) for k, u in v.items()]


# How --format text shows a command's JSON document: the keys it shows, in
# this order, each with the function of (key, value, document) giving its
# lines.  Keys not listed here are not shown.
_TEXT = {
    "result": lambda key, v, doc: [v],
    "upper": _leader_lines,
    "lower": _leader_lines,
    "verdict": _field(lambda v: "true" if v else "false"),
    "witness": _field(lambda v: "(%s)" % ", ".join(v)),
    "failing": _field(_nested),
    "exceptions": _field(", ".join),
    "notes": _field(),
    "counterexample": _field(),
    "length": _field(),
    "sequence": lambda key, v, doc: v,
    "remainder": _field(),
    "multipliers": _multiplier_lines,
    "terms": _term_lines,
}


def _text(doc):
    """The --format text lines of a command's JSON document."""
    lines = []
    for key, show in _TEXT.items():
        if key in doc:
            lines += show(key, doc[key], doc)
    return lines


def _run(args):
    alg = parse_algebra(args.alg)
    gap = args.max_degree_gap
    steps = args.max_steps
    for flag, value in (("--max-degree-gap", gap), ("--max-steps", steps)):
        if value < 0:
            raise UsageError("%s must not be negative" % flag)
    cmd = args.command

    if cmd == "bracket":
        a = parse_element(alg, args.a)
        b = parse_element(alg, args.b)
        out = Polynomial.from_lie(alg, bracket_basis(alg, a, b))
        _emit(args, {"result": print_poly(out)})
        return 0

    if cmd == "pbracket":
        from .poly import poisson_bracket

        f = parse_poly(alg, args.f)
        g = parse_poly(alg, args.g)
        out = poisson_bracket(f, g)
        _emit(args, {"result": print_poly(out)})
        return 0

    if cmd == "dop":
        f = parse_poly(alg, args.f)
        entries = tuple(parse_element(alg, s) for s in args.entries)
        degs = [degree(alg, b) for b in entries]
        if all(d > 0 for d in degs):
            sign = PLUS
        elif all(d < 0 for d in degs):
            sign = MINUS
        else:
            raise UsageError("tuple entries must have uniform degree sign")
        out = d_op(f, DTuple(entries, sign))
        _emit(args, {"result": print_poly(out)})
        return 0

    if cmd == "leaders":
        f = parse_poly(alg, args.f)
        doc = {}
        for sign, name in ((PLUS, "upper"), (MINUS, "lower")):
            l = f.leader(sign)
            doc[name] = {
                "leader": element_to_str(alg, l),
                "degree": f.degree_in(l),
                "initial": print_poly(f.initial(sign)),
                "separant": print_poly(f.separant(sign)),
            }
        _emit(args, doc)
        return 0

    if cmd == "reduce":
        g = parse_poly(alg, args.g)
        lam = [parse_poly(alg, s) for s in args.by]
        fn = partial_reduce if args.partial else full_reduce
        remainder, cert = fn(alg, g, lam, max_gap=gap, max_steps=steps)
        if not verify_certificate(alg, cert):
            print("internal error: certificate failed verification", file=sys.stderr)
            return 3
        _emit(args, cert_to_doc(cert))
        return 0

    if cmd == "check-reduced":
        g = parse_poly(alg, args.g)
        lam = [parse_poly(alg, s) for s in args.by]
        return _verdict(args, is_reduced(alg, g, lam, max_gap=gap))

    if cmd == "check-reduced-seq":
        lam = [parse_poly(alg, s) for s in args.gens]
        return _verdict(args, is_reduced_sequence(alg, lam, max_gap=gap))

    if cmd == "l-member":
        m = parse_element(alg, args.m)
        t = parse_element(alg, args.t)
        return _report(args, l_member(alg, m, t, MINUS if args.minus else PLUS, max_gap=gap), alg)

    if cmd == "check-dicksonian":
        pairs = []
        for chunk in args.pairs:
            for piece in chunk.split():
                pairs.append(_parse_pair(alg, piece))
        return _report(args, check_leading_dicksonian(alg, pairs, max_gap=gap), alg)

    if cmd == "search-dicksonian":
        seq = search_leading_dicksonian(
            alg, args.degree_bound, args.length_bound, max_gap=gap
        )
        named = [
            "(%s, %s)" % (element_to_str(alg, m), element_to_str(alg, n))
            for m, n in seq
        ]
        _emit(args, {"length": len(seq), "sequence": named})
        return 0

    if cmd == "verify-lemma":
        return _report(args, verify_claimed_subset(alg, args.tag, args.bound, max_gap=gap), alg)

    if cmd == "check-dagger":
        return _report(args, check_dagger(alg, tuple(args.window)), alg)

    if cmd == "check-cofinite":
        m = parse_element(alg, args.m)
        return _report(args, check_cofinite_window(alg, m, tuple(args.window), max_gap=gap), alg)

    if cmd == "jacobi-test":
        if args.samples < 0:
            raise UsageError("--samples must not be negative")
        lo, hi = args.window
        pool = elements_in_window(alg, lo, hi)
        if not pool:
            raise UsageError("empty degree window")
        rng = random.Random(args.seed)
        bad = None
        for _ in range(args.samples):
            a, b, c = (rng.choice(pool) for _ in range(3))
            if jacobi_residual(alg, a, b, c):
                bad = (a, b, c)
                break
        if bad is None:
            return _verdict(args, True)
        return _verdict(args, False, {"counterexample": [element_to_str(alg, t) for t in bad]})

    raise UsageError("unknown command %r" % cmd)


def _values(argv):
    """Mark every token that starts with a single "-", other than -h, as a
    value by a leading space.  Every other option is a --long one, so such
    a token (the polynomial -e[4], the bound -1) can only be a value, and
    the parsers of polynomials, elements and integers skip the space."""
    return [" " + a if a[:1] == "-" and a[:2] != "--" and a != "-h" else a for a in argv]


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return _run(args)
    except (ParseError, UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NonTermination, DegreeGapExceeded) as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
