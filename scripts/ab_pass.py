"""Compare two checkouts' CPU time on one workload pass, both in this interpreter.

    python scripts/ab_pass.py PARENT CHANGE --workload reduce --seeds 1-5 --reps 10

Each checkout's src/gradedlie is copied into a temporary directory under
its own package name (gradedlie_parent, gradedlie_change), and the
`cli.main` of each is imported into this one interpreter.  A rep runs
every command of the seeds' pass (scripts/passes.py) once on each side.
The side that runs first alternates from command to command and from rep
to rep.  Each run is timed in CPU seconds, and both sides must give the
same exit code and stdout; the first difference is printed and the
script exits 1.

The report gives each rep's CPU totals and ratio, the median change/parent
ratio over the reps, and the number of reps in which the change took less
CPU time.  Running both sides in one process, interleaved, cancels most of
the host's drift between separate runs, so a difference of a few percent
can be resolved.  What it leaves out: process fork and cold start (imports
and first-call caches count only in the first rep), and peak RSS.  The
benchmark's own end-to-end metrics stay with scripts/bench_pairs.py.
"""

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile

from passes import WORKLOADS, commands, parse_seeds, run

SIDES = ("parent", "change")


def load_mains(checkouts, tmp):
    """The cli.main of each checkout, imported from tmp under its own
    package name; a copy imported by an earlier call is dropped first."""
    names = ["gradedlie_" + side for side in SIDES]
    for name, checkout in zip(names, checkouts):
        shutil.copytree(os.path.join(checkout, "src", "gradedlie"), os.path.join(tmp, name),
                        ignore=shutil.ignore_patterns("__pycache__"))
    for module in [m for m in sys.modules if m.partition(".")[0] in names]:
        del sys.modules[module]
    importlib.invalidate_caches()
    sys.path.insert(0, tmp)
    try:
        return [importlib.import_module(name + ".cli").main for name in names]
    finally:
        sys.path.remove(tmp)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="checkout directory of the parent commit")
    ap.add_argument("change", help="checkout directory of the change")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="seeds and ranges, e.g. 1-5")
    ap.add_argument("--reps", type=int, default=10)
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be positive")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))
    argvs = commands(args.workload, seeds)

    with tempfile.TemporaryDirectory() as tmp:
        mains = load_mains((args.parent, args.change), tmp)
        ratios = []
        for rep in range(args.reps):
            cpu = [0.0, 0.0]
            for k, command in enumerate(argvs):
                got = [None, None]
                for side in ((0, 1) if (k + rep) % 2 == 0 else (1, 0)):
                    rc, out, seconds = run(mains[side], command)
                    got[side] = (rc, out)
                    cpu[side] += seconds
                if got[0] != got[1]:
                    print("outputs differ on: %s" % " ".join(command))
                    for side, (rc, out) in zip(SIDES, got):
                        print("%s: exit %s\n%s" % (side, rc, out), end="")
                    return 1
            ratios.append(cpu[1] / cpu[0])
            print("rep %d: parent %.3f s, change %.3f s, change/parent %.3f"
                  % (rep + 1, cpu[0], cpu[1], ratios[-1]), flush=True)
    won = sum(1 for r in ratios if r < 1)
    print("%s, seeds %s, %d commands per rep: median change/parent %.3f, change faster in"
          " %d of %d reps" % (args.workload, args.seeds, len(argvs),
                              statistics.median(ratios), won, len(ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
