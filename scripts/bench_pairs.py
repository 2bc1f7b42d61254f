"""Compare two checkouts on one benchmark workload by alternating pairs of runs.

    python scripts/bench_pairs.py PARENT CHANGE --workload lemma --seeds 401-410 --seconds 30

For each seed in the range, perfbench/run.py runs once in each checkout
directory, with the same workload, seed and run length.  The checkout that
runs first alternates from pair to pair.  Only the last stdout line of each
run, perfbench's JSON result, is read; each run's result is echoed to
stderr as it ends.  Before each run, the checkout's src tree is
byte-compiled: a copied checkout, or a source edited while the pairs run,
leaves stale .pyc files, and where PYTHONDONTWRITEBYTECODE is set no run
rewrites them, so every server start of that side would recompile the
package and read slower for it.

For each metric the summary gives, per side, the median and quartiles over
the pairs, and the number of pairs the change won (ties count for neither
side).  A gain is claimed only when the change wins at least nine tenths of
the pairs and the medians differ, in the better direction, by more than the
parent's quartile spread (Q3 - Q1).  The better direction of each metric is
read from the BENCHMARK.json beside this script.

With --json FILE the workload's entry of FILE, a BENCH document, is
written; entries of other workloads already in FILE are kept.  The entry
holds the summary rows, each pair's metrics, the seeds, the run length, the
host, its CPU count and the Python version, and, as the per-module view of
a cold start, each gradedlie module's median self and cumulative import
time in microseconds (`python -X importtime -c "import gradedlie.cli"`)
over IMPORT_RUNS fresh interpreters per side, the sides alternating.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from passes import ROOT, WORKLOADS, parse_seeds

IMPORT_RUNS = 11


def quartiles(values):
    """(Q1, median, Q3) of values, by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(pairs, better):
    """One row per metric of the pairs' results.

    pairs is a list of (parent, change) metric dicts {name: value}, one per
    pair of runs; better maps a metric name to "higher" or "lower".  Metrics
    missing from `better` or from any run are left out.  A row is a dict
    with the metric's name, each side's (Q1, median, Q3), the pairs the
    change won, the number of pairs, and whether a gain is claimed."""
    rows = []
    for name in sorted(better):
        if not pairs or any(name not in p or name not in c for p, c in pairs):
            continue
        sign = 1 if better[name] == "higher" else -1
        parent = quartiles([p[name] for p, _ in pairs])
        change = quartiles([c[name] for _, c in pairs])
        wins = sum(1 for p, c in pairs if sign * (c[name] - p[name]) > 0)
        gain = wins >= 0.9 * len(pairs) and sign * (change[1] - parent[1]) > parent[2] - parent[0]
        rows.append({"metric": name, "parent": parent, "change": change,
                     "wins": wins, "pairs": len(pairs), "gain": gain})
    return rows


def format_rows(rows):
    lines = ["| metric | parent median [Q1, Q3] | change median [Q1, Q3] | change/parent"
             " | pairs won | gain |",
             "| --- | --- | --- | ---: | ---: | --- |"]
    for r in rows:
        (p1, pm, p3), (c1, cm, c3) = r["parent"], r["change"]
        ratio = "%.3f" % (cm / pm) if pm else "-"
        lines.append("| `%s` | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %s | %d/%d | %s |"
                     % (r["metric"], pm, p1, p3, cm, c1, c3, ratio, r["wins"], r["pairs"],
                        "yes" if r["gain"] else "no"))
    return lines


def compile_sources(checkout):
    """Write an up-to-date .pyc for every module under checkout/src."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout,
                   check=True)


def run_once(checkout, workload, seed, seconds):
    """perfbench's JSON result for one run in checkout."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_importtime(text):
    """{module: [self us, cumulative us]} of the gradedlie modules in the
    stderr of `python -X importtime`."""
    times = {}
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        fields = rest.split("|")
        if head != "import time" or len(fields) != 3:
            continue
        name = fields[2].strip()
        if (name == "gradedlie" or name.startswith("gradedlie.")) and fields[0].strip().isdigit():
            times[name] = [int(fields[0]), int(fields[1])]
    return times


def median_import_times(samples):
    """Per module, the median self and cumulative time over samples, each a
    parse_importtime result; a module missing from any sample is left out."""
    names = set.intersection(*(set(s) for s in samples)) if samples else set()
    return {name: [statistics.median(s[name][k] for s in samples) for k in (0, 1)]
            for name in sorted(names)}


def import_once(checkout):
    """parse_importtime of one fresh interpreter importing checkout's gradedlie.cli."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import gradedlie.cli"],
                          cwd=checkout, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True, check=True)
    return parse_importtime(proc.stderr)


def import_medians(checkouts):
    """Per side, median_import_times over IMPORT_RUNS fresh imports, the
    side that imports first alternating."""
    for checkout in checkouts:
        compile_sources(checkout)
    samples = [[] for _ in checkouts]
    for k in range(IMPORT_RUNS):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            samples[side].append(import_once(checkouts[side]))
    return [median_import_times(s) for s in samples]


def write_entry(path, workload, entry):
    """Put entry under workload in the BENCH document at path, keeping the
    other workloads' entries."""
    doc = {"workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["workloads"][workload] = entry
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout directory of the parent commit")
    ap.add_argument("change", help="checkout directory of the change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="seeds and ranges, e.g. 401-410")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--json", metavar="FILE", help="write this workload's entry of FILE")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    pairs, failed, attempted, wrong = [], [0, 0], [0, 0], [False, False]
    for k, seed in enumerate(seeds):
        sides = [(0, args.parent), (1, args.change)]
        got = {}
        for side, checkout in (sides if k % 2 == 0 else sides[::-1]):
            compile_sources(checkout)
            result = run_once(checkout, args.workload, seed, args.seconds)
            got[side] = {name: m["value"] for name, m in result["metrics"].items()}
            failed[side] += result["failed"]
            attempted[side] += result["attempted"]
            wrong[side] |= not result["correct"]
            print(json.dumps({"pair": k + 1, "seed": seed, "side": ("parent", "change")[side],
                              "failed": result["failed"], "correct": result["correct"],
                              "metrics": got[side]}), file=sys.stderr, flush=True)
        pairs.append((got[0], got[1]))

    print("%s, seeds %s, %g s runs, %d pairs" % (args.workload, args.seeds, args.seconds, len(pairs)))
    for side, label in enumerate(("parent", "change")):
        print("%s: %d of %d commands failed%s" % (label, failed[side], attempted[side],
                                                   ", a wrong result" if wrong[side] else ""))
    rows = summarize(pairs, better)
    print("\n".join(format_rows(rows)))
    if args.json:
        sides = ("parent", "change")
        imports = import_medians((args.parent, args.change))
        write_entry(args.json, args.workload, {
            "seeds": seeds, "seconds": args.seconds, "host": platform.node(),
            "platform": platform.platform(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "failed": dict(zip(sides, failed)), "attempted": dict(zip(sides, attempted)),
            "correct": dict(zip(sides, (not w for w in wrong))),
            "rows": rows, "pairs": [{"seed": seed, "parent": p, "change": c}
                                    for seed, (p, c) in zip(seeds, pairs)],
            "import_us": dict(zip(sides, imports), runs=IMPORT_RUNS),
        })
    return 0


if __name__ == "__main__":
    sys.exit(main())
