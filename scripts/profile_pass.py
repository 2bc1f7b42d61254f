"""Profile one in-process pass of a benchmark workload under cProfile.

    python scripts/profile_pass.py --workload reduce --seed 1 [--sort tottime] [--limit 25]

Each command of the seed's pass runs in this process through
scripts/passes.py, as scripts/output_digest.py runs it, with its output
discarded.  The profile covers the pass only, not the imports; the report
is the standard `pstats` table, sorted by the given key and cut to the
given number of rows, after one line with the command count and the
pass's wall time under the profiler.  The package is imported from the
src/ beside this script.
"""

import argparse
import cProfile
import os
import pstats
import sys
import time

from passes import ROOT, WORKLOADS, commands, run
sys.path.insert(0, os.path.join(ROOT, "src"))
from gradedlie.cli import main as cli_main  # noqa: E402

SORT_KEYS = ("tottime", "cumtime", "ncalls")


def profile_pass(workload, seed):
    """(number of commands, wall seconds, cProfile.Profile) of one pass."""
    argvs = commands(workload, [seed])
    prof = cProfile.Profile()
    start = time.perf_counter()
    for argv in argvs:
        run(lambda a: prof.runcall(cli_main, a), argv)
    return len(argvs), time.perf_counter() - start, prof


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--sort", default="tottime", choices=SORT_KEYS)
    ap.add_argument("--limit", default=25, type=int)
    args = ap.parse_args(argv)
    if args.limit < 1:
        ap.error("--limit must be positive")
    count, wall, prof = profile_pass(args.workload, args.seed)
    print("%s seed %d: %d commands, %.3f s under cProfile"
          % (args.workload, args.seed, count, wall))
    pstats.Stats(prof, stream=sys.stdout).sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    sys.exit(main())
