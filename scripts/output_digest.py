"""Print one sha256 over the outputs of a benchmark workload's commands.

    python scripts/output_digest.py --workload reduce --seeds 1,2,3

Each command of the seeds' pass runs in this process through
scripts/passes.py, as the benchmark sends it.  The digest covers every
command's exit code and stdout, in order, so two source trees whose
digests agree printed the same bytes for every command.  The package is
imported from the src/ beside this script.
"""

import argparse
import hashlib
import os
import sys

from passes import ROOT, WORKLOADS, commands, parse_seeds, run
sys.path.insert(0, os.path.join(ROOT, "src"))
from gradedlie.cli import main as cli_main  # noqa: E402


def digest(workload, seeds):
    """(number of commands, hex sha256 over their exit codes and stdout)."""
    h = hashlib.sha256()
    argvs = commands(workload, seeds)
    for argv in argvs:
        rc, out, _ = run(cli_main, argv)
        for part in (str(rc), out):
            data = part.encode()
            h.update(b"%d:" % len(data) + data)
    return len(argvs), h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="seeds and ranges, e.g. 1,2,3 or 1-3")
    args = ap.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))
    count, hexdigest = digest(args.workload, seeds)
    print("%s seeds %s: %d commands, sha256 %s" % (args.workload, args.seeds, count, hexdigest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
