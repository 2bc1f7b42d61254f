"""Cold-start CLI benchmark of `gradedlie`.

    python3 perfbench/run.py --workload lemma --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Each command of the workload runs as `gradedlie.cli.main(["--format",
"json", ...])` in a child forked from a server that has only imported
the package (zygote.py), so every command starts cold.  One closed-loop
client sends the next command when the last one has ended.  Whole passes
over the workload's command list repeat until --seconds have passed.
Every output is checked (oracle.py and the expected verdicts); a command
fails if it errors, hits its cap or fails its check.

The last line of stdout is one JSON object: correct, attempted, failed
and metrics, the end-to-end metrics with --trace 0 and the per-layer
metrics (per pass, from spans.py) with --trace 1.  Raw per-command
records and trace output go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUPS = 11  # fresh set-ups per run; setup_s is their median
CAP_S = 30.0  # wall-clock cap per command
TRACE_CAP_FACTOR = 4  # tracing slows a command; its cap grows by this factor
EXPECTED_RC = {"true": 0, "false": 1, "dagger": 1, "search": 0, "reduce": 0}


class Zygote:
    """The fork server, in its own interpreter."""

    def __init__(self, trace):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "zygote.py"), SRC, "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit("the fork server did not start")
        self.hello = json.loads(line)
        if os.path.dirname(self.hello["origin"]) != os.path.realpath(os.path.join(SRC, "gradedlie")):
            self.close()
            raise SystemExit("gradedlie was imported from %s, not ./src" % self.hello["origin"])

    def run(self, argv, cap_s):
        self.proc.stdin.write(json.dumps({"argv": argv, "cap_s": cap_s}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        if self.proc.stdin:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def set_up(workload, seed, trace):
    """SETUPS fresh set-ups: import the package in a new interpreter and
    build the inputs.  Returns the last server, the ops and the median
    set-up time; interpreter start-up is not part of it."""
    times = []
    zygote = None
    for _ in range(SETUPS):
        if zygote is not None:
            zygote.close()
        zygote = Zygote(trace)
        t0 = time.perf_counter()
        ops = WORKLOADS[workload](seed)
        times.append(zygote.hello["import_s"] + time.perf_counter() - t0)
    return zygote, ops, statistics.median(times)


class CommandFailed(Exception):
    """The command errored, crashed or hit its cap."""


def check(op, reply):
    """Raise CommandFailed if the command did not complete, and
    oracle.CheckFailed if it completed with a wrong result.  Returns the
    certificate's term count for a reduction, else 0."""
    if reply["timeout"]:
        raise CommandFailed("hit its cap")
    if reply["rc"] not in (0, 1):
        raise CommandFailed("exit code %r: %s" % (reply["rc"], reply["err"].strip()[-300:]))
    want_rc = EXPECTED_RC.get(op.check)
    if op.check == "l_member":
        want_rc = 0 if oracle.member(*op.args) else 1
    oracle.require(reply["rc"] == want_rc, "exit code %r, expected %r: %s"
                   % (reply["rc"], want_rc, reply["err"].strip()[-300:]))
    if op.check == "reduce":
        alg, g, lam, full = op.args
        return oracle.check_certificate(alg, reply["out"], g, lam, full)
    doc = json.loads(reply["out"])
    if op.check in ("true", "false"):
        oracle.require(doc["verdict"] is (op.check == "true"), "verdict %r" % doc["verdict"])
    elif op.check == "l_member":
        oracle.check_l_member(*op.args, doc)
    elif op.check == "dagger":
        oracle.require(doc["verdict"] is False, "check-dagger holds on virasoro")
        a, b = (oracle.parse_element("virasoro", s) for s in doc["failing"])
        oracle.require(len(oracle.bracket("virasoro", a, b)) > 1,
                       "[%s, %s] is a single term" % tuple(doc["failing"]))
    elif op.check == "search":
        oracle.check_search(*op.args, doc)
    return 0


LAYERS = ["algebras", "poly", "leaders", "elim", "textio", "cli"]


def layer_metrics(traces, passes, absent):
    """Per-layer metrics per pass, from the children's span totals."""
    calls, incl, extra = {}, {}, {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    for tr in traces:
        for layer, ns in tr["layer_self_ns"].items():
            layer_ns[layer] += ns
        for name, (c, i, _s, x) in tr["stats"].items():
            calls[name] = calls.get(name, 0) + c
            incl[name] = incl.get(name, 0) + i
            extra[name] = extra.get(name, 0) + x
    gone = set(absent)

    def count(name, table=calls):
        return None if name in gone else table.get(name, 0) / passes

    decisions = count("leaders.l_member")
    lookups = count("leaders.is_member")
    tuples = count("leaders.iter_tuples", extra)
    m = {"%s.self_ms" % layer: ns / 1e6 / passes for layer, ns in layer_ns.items()}
    m.update({
        "algebras.bracket_basis.calls": count("algebras.bracket_basis"),
        "algebras.order_key.calls": count("algebras.order_key"),
        "poly.mul.calls": count("poly.__mul__"),
        "poly.mul.out_terms": count("poly.__mul__", extra),
        "poly.d_leader.calls": count("poly.d_leader"),
        "leaders.decisions": decisions,
        "leaders.tuples": tuples,
        "leaders.tuples_per_decision":
            tuples / decisions if decisions and tuples is not None else None,
        "leaders.lookups": lookups,
        "leaders.decisions_per_lookup":
            decisions / lookups if lookups and decisions is not None else None,
        "elim.verify_ms": None if "elim.verify_certificate" in gone
            else incl.get("elim.verify_certificate", 0) / 1e6 / passes,
    })
    return {k: v for k, v in m.items() if v is not None}


def per_op_medians(records):
    """Each command's median latency over the passes of the run.  A pass
    or a command slowed by something outside the program moves these
    little; the metrics are built from them."""
    by_op = {}
    for r in records:
        if r["error"] is None:
            by_op.setdefault(r["op"], []).append(r["ms"])
    return [statistics.median(v) for v in by_op.values()]


UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    return "ms" if name.endswith("_ms") else "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gradedlie", "cli.py")):
        print("no gradedlie source under %s" % SRC, file=sys.stderr)
        return 2

    zygote, ops, setup_s = set_up(args.workload, args.seed, args.trace)
    cap = CAP_S * (TRACE_CAP_FACTOR if args.trace else 1)
    records, traces = [], []
    checked = {}  # (op index, exit code, output) -> certificate size, once verified
    passes = 0
    t_start = time.monotonic()
    try:
        while passes == 0 or time.monotonic() - t_start < args.seconds:
            for idx, op in enumerate(ops):
                reply = zygote.run(["--format", "json"] + op.argv, cap)
                rec = {"pass": passes, "op": idx, "cmd": op.label, "ms": reply["ms"],
                       "rc": reply["rc"], "maxrss_kb": reply["maxrss_kb"], "error": None}
                memo = (idx, reply["rc"], reply["out"])
                try:
                    if memo not in checked:
                        checked[memo] = check(op, reply)
                    rec["cert_terms"] = checked[memo]
                except CommandFailed as exc:
                    rec["error"] = str(exc)
                except (oracle.CheckFailed, ValueError, KeyError, TypeError) as exc:
                    rec["error"] = "wrong result: %s: %s" % (type(exc).__name__, exc)
                    rec["wrong"] = True
                if rec["error"]:
                    print("FAILED %s: %s" % (op.label[:200], rec["error"]), file=sys.stderr)
                records.append(rec)
                if reply.get("trace"):
                    traces.append((rec, reply["trace"]))
            passes += 1
    finally:
        zygote.close()

    ok = [r for r in records if r["error"] is None]
    failed = len(records) - len(ok)
    if args.trace:
        metrics = layer_metrics([tr for _, tr in traces], passes, zygote.hello["absent"])
        metrics["elim.cert_terms"] = sum(r["cert_terms"] for r in ok if r["pass"] == 0)
    else:
        medians = per_op_medians(records)
        metrics = {
            "ops_per_s": len(medians) / (sum(medians) / 1000.0) if medians else 0.0,
            "op_p50_ms": statistics.median(medians) if medians else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024.0 if ok else 0.0,
        }

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "passes": passes,
                   "setup_s": setup_s, "metrics": metrics, "records": records}, fh, indent=1)
    if args.trace:
        with open(stem + ".spans.jsonl", "w") as fh:
            for rec, tr in traces:
                fh.write(json.dumps({"pass": rec["pass"], "cmd": rec["cmd"],
                                     "stats": tr["stats"], "spans": tr["spans"]}) + "\n")
        if zygote.hello["absent"]:
            print("absent from the package, metrics dropped: %s"
                  % ", ".join(zygote.hello["absent"]), file=sys.stderr)

    print(json.dumps({
        "correct": not any(r.get("wrong") for r in records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
