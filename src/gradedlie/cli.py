"""Command-line interface.

    gradedlie --alg NAME [--format {text,json}] [--max-degree-gap N]
              [--max-steps N] COMMAND ARG... [--option VALUE...]

Each command is one entry of the table `_COMMANDS`, its grammar and its
handler; `gradedlie -h` prints the usage built from it.  Options are spelt
in full, as `--name value` or `--name=value`, and may stand among the
positionals.  Every option but -h is a --long one, so -e[4] is a value.

Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or parse
error, 3 guard tripped (step budget, out of memory, failed verification),
141 stdout closed by its reader (as a process killed by SIGPIPE).
"""

from __future__ import annotations

import json
import os
import random
import sys
from types import SimpleNamespace

from .algebras import (
    _window,
    bracket_basis,
    element_to_str,
    jacobi_residual,
    parse_algebra,
)
from .elim import (
    DEFAULT_MAX_STEPS,
    NonTermination,
    full_reduce,
    is_reduced,
    is_reduced_sequence,
    partial_reduce,
    verify_certificate,
)
from .leaders import (
    DEFAULT_MAX_GAP,
    DegreeGapExceeded,
    check_cofinite_window,
    check_dagger,
    check_leading_dicksonian,
    l_member,
    search_leading_dicksonian,
    verify_claimed_subset,
)
from .poly import MINUS, PLUS, DTuple, Polynomial, d_op, poisson_bracket
from .textio import cert_to_doc, parse_element, parse_pairs, parse_poly, print_poly


class UsageError(ValueError):
    pass


class _Unverified(Exception):
    """A certificate that verify_certificate refuses: exit 3."""


# The commands, the one place each lives.  An option maps to (the count of
# its values: 0, 1, 2 or "+" for one or more; the type of each: int, str,
# the tuple of allowed words, or None for a flag; its default, or
# _REQUIRED).  A command maps to the names of its positionals, "+" marking
# one or more, to its options, and to its handler, which takes the algebra
# and the command line, its arguments read, to the JSON document.  Global
# options come before the command.
_REQUIRED = object()
_GLOBAL = {
    "--alg": (1, str, _REQUIRED),
    "--format": (1, ("text", "json"), "text"),
    "--max-degree-gap": (1, int, DEFAULT_MAX_GAP),
    "--max-steps": (1, int, DEFAULT_MAX_STEPS),
}
_BY = {"--by": ("+", str, _REQUIRED)}
_WINDOW = {"--window": (2, int, _REQUIRED)}
MAX_SAMPLES = 10**6  # the most Jacobi triples one jacobi-test may draw


def _leaders(alg, args):
    f = args.f
    return {name: {"leader": element_to_str(alg, lead), "degree": d,
                   "initial": print_poly(f.expand_in(lead)[d]),
                   "separant": print_poly(f.derivative(lead))}
            for sign, name in ((PLUS, "upper"), (MINUS, "lower"))
            for lead in [f.leader(sign)] for d in [f.degree_in(lead)]}


def _reduce(alg, args):
    fn = partial_reduce if args.partial else full_reduce
    _, cert = fn(alg, args.g, args.by, max_gap=args.max_degree_gap, max_steps=args.max_steps)
    if not verify_certificate(alg, cert):
        raise _Unverified("certificate failed verification")
    return cert_to_doc(cert)


def _search_dicksonian(alg, args):
    seq = search_leading_dicksonian(alg, args.degree_bound, args.length_bound,
                                    max_gap=args.max_degree_gap)
    return {"length": len(seq), "sequence": [
        "(%s, %s)" % (element_to_str(alg, m), element_to_str(alg, n)) for m, n in seq]}


def _jacobi_test(alg, args):
    if not 0 < args.samples <= MAX_SAMPLES:
        raise UsageError("--samples must be from 1 to %d" % MAX_SAMPLES)
    pool = _window(alg, args.window, 1, args.max_degree_gap)
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        if jacobi_residual(alg, a, b, c):
            return {"verdict": False,
                    "counterexample": [element_to_str(alg, t) for t in (a, b, c)]}
    return {"verdict": True}


_COMMANDS = {
    "bracket": (("a", "b"), {}, lambda alg, args: {
        "result": print_poly(Polynomial.from_lie(alg, bracket_basis(alg, args.a, args.b)))}),
    "pbracket": (("f", "g"), {}, lambda alg, args: {
        "result": print_poly(poisson_bracket(args.f, args.g))}),
    "dop": (("f", "entries+"), {}, lambda alg, args: {
        "result": print_poly(d_op(args.f, DTuple(alg, tuple(args.entries))))}),
    "leaders": (("f",), {}, _leaders),
    "reduce": (("g",), {**_BY, "--partial": (0, None, False)}, _reduce),
    "check-reduced": (("g",), _BY, lambda alg, args: {
        "verdict": is_reduced(alg, args.g, args.by, max_gap=args.max_degree_gap)}),
    "check-reduced-seq": (("gens+",), {}, lambda alg, args: {
        "verdict": is_reduced_sequence(alg, args.gens, max_gap=args.max_degree_gap)}),
    "l-member": (("m", "t"), {"--minus": (0, None, False)}, lambda alg, args: _report_doc(
        l_member(alg, args.m, args.t, MINUS if args.minus else PLUS,
                 max_gap=args.max_degree_gap), alg)),
    "check-dicksonian": (("pairs+",), {}, lambda alg, args: _report_doc(
        check_leading_dicksonian(alg, parse_pairs(alg, " ".join(args.pairs)),
                                 max_gap=args.max_degree_gap), alg)),
    "search-dicksonian": ((), {"--degree-bound": (1, int, _REQUIRED),
                               "--length-bound": (1, int, _REQUIRED)}, _search_dicksonian),
    "verify-lemma": (("tag",), {"--bound": (1, int, _REQUIRED)}, lambda alg, args: _report_doc(
        verify_claimed_subset(alg, args.tag, args.bound, max_gap=args.max_degree_gap), alg)),
    "check-dagger": ((), _WINDOW, lambda alg, args: _report_doc(
        check_dagger(alg, tuple(args.window), max_gap=args.max_degree_gap), alg)),
    "check-cofinite": (("m",), _WINDOW, lambda alg, args: _report_doc(check_cofinite_window(
        alg, args.m, tuple(args.window), max_gap=args.max_degree_gap), alg)),
    "jacobi-test": ((), {**_WINDOW, "--samples": (1, int, 100), "--seed": (1, int, 0)},
                    _jacobi_test),
}

# The reader of each typed argument, applied to each of its values in this
# order; a lambda, so a tracer that rebinds parse_element sees the call.
_ELEMENT = lambda alg, text: parse_element(alg, text)  # noqa: E731
_POLY = lambda alg, text: parse_poly(alg, text)  # noqa: E731
_READERS = {"a": _ELEMENT, "b": _ELEMENT, "m": _ELEMENT, "t": _ELEMENT, "f": _POLY, "g": _POLY,
            "entries": _ELEMENT, "gens": _POLY, "by": _POLY}


def _value(name, kind, tok):
    if kind is int:
        try:
            return int(tok)
        except ValueError:
            raise UsageError("%s: not an integer: %r" % (name, tok)) from None
    if kind is not str and tok not in kind:
        raise UsageError("%s must be one of %s: %r" % (name, ", ".join(kind), tok))
    return tok


def _parse(argv):
    """The namespace of argv read against the grammar, or None if it asks
    for the usage with -h or --help."""
    if "-h" in argv or "--help" in argv:
        return None
    table, cmd, names, pos, got = _GLOBAL, None, (), [], {}
    i = 0
    while i < len(argv):
        tok = argv[i]
        i += 1
        if not tok.startswith("--"):  # so -e[4] and -1 are values
            if cmd is not None:
                pos.append(tok)
            elif tok in _COMMANDS:
                cmd = tok
                names, table, _ = _COMMANDS[cmd]
            else:
                raise UsageError("unknown command %r" % tok)
            continue
        name, eq, tail = tok.partition("=")
        if name not in table:
            raise UsageError("unknown option %r" % name)
        count, kind, _ = table[name]
        j = i  # read values up to the next option, or until there are count
        while not eq and j < len(argv) and not argv[j].startswith("--") and j - i != count:
            j += 1
        vals, i = [tail] if eq else argv[i:j], j
        if len(vals) != count and not (count == "+" and vals):
            want = "1 or more" if count == "+" else count
            raise UsageError("%s takes %s value(s)" % (name, want))
        vals = [_value(name, kind, v) for v in vals]
        got[name] = True if count == 0 else vals[0] if count == 1 else vals
    if cmd is None:
        raise UsageError("missing command; see gradedlie -h")
    args = {"command": cmd}
    for name, (count, kind, default) in {**_GLOBAL, **table}.items():
        if default is _REQUIRED and name not in got:
            raise UsageError("%s is required" % name)
        args[name[2:].replace("-", "_")] = got.get(name, default)
    rest = bool(names) and names[-1].endswith("+")
    if len(pos) < len(names) or len(pos) > len(names) and not rest:
        raise UsageError("wrong number of arguments; usage: gradedlie [global options] %s"
                         % _command_usage(cmd))
    for k, name in enumerate(names):
        args[name.rstrip("+")] = pos[k:] if name.endswith("+") else pos[k]
    return SimpleNamespace(**args)


def _usage_words(table):
    words = []
    for name, (count, kind, default) in table.items():
        meta = "N" if kind is int else name[2:].upper()
        if isinstance(kind, tuple):
            meta = "{%s}" % ",".join(kind)
        word = " ".join([name] + [meta] * (1 if count == "+" else count))
        word += "..." if count == "+" else ""
        words.append(word if default is _REQUIRED else "[%s]" % word)
    return words


def _command_usage(cmd):
    names, table, _ = _COMMANDS[cmd]
    pos = [n.upper().replace("+", "...") for n in names]
    return " ".join([cmd] + pos + _usage_words(table))


def _usage():
    lines = ["usage: gradedlie %s COMMAND ..." % " ".join(_usage_words(_GLOBAL)), "",
             "commands:"]
    return "\n".join(lines + ["  " + _command_usage(cmd) for cmd in _COMMANDS])


def _emit(args, doc):
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for line in _text(doc):
            print(line)


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
    "witness": _field(_nested),
    "failing": _field(_nested),
    "exceptions": _field(", ".join),
    "notes": _field(),
    "counterexample": _field(_nested),
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
    for flag, value in (("--max-degree-gap", args.max_degree_gap),
                        ("--max-steps", args.max_steps)):
        if value < 0:
            raise UsageError("%s must not be negative" % flag)
    for name, read in _READERS.items():
        if hasattr(args, name):
            v = getattr(args, name)
            setattr(args, name, [read(alg, s) for s in v] if isinstance(v, list) else read(alg, v))
    doc = _COMMANDS[args.command][2](alg, args)
    _emit(args, doc)
    return 0 if doc.get("verdict", True) else 1


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_usage())
            return 0
        return _run(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (NonTermination, DegreeGapExceeded) as exc:
        print("guard: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError:
        print("guard: out of memory", file=sys.stderr)
        return 3
    except _Unverified as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


def entrypoint():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout has gone (`gradedlie ... | head -1`).  Point
        # stdout at devnull so the flush at exit stays quiet, and exit as a
        # process killed by SIGPIPE would.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
