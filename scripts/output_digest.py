"""Print one sha256 over the outputs of a benchmark workload's commands.

    python scripts/output_digest.py --workload reduce --seeds 1,2,3

For each seed in turn, the command list of perfbench/workloads.py is built,
and each command runs in this process as
`gradedlie.cli.main(["--format", "json", ...])`, as the benchmark sends it.
The digest covers every command's exit code and stdout, in order, so two
source trees whose digests agree printed the same bytes for every command.
The package is imported from the src/ beside this script.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "scripts"),
                os.path.join(ROOT, "perfbench")]

from bench_pairs import parse_seeds  # noqa: E402
from gradedlie.cli import main as cli_main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def digest(workload, seeds):
    """(number of commands, hex sha256 over their exit codes and stdout)."""
    h = hashlib.sha256()
    count = 0
    for seed in seeds:
        for op in WORKLOADS[workload](seed):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli_main(["--format", "json"] + op.argv)
            for part in (str(rc), out.getvalue()):
                data = part.encode()
                h.update(b"%d:" % len(data) + data)
            count += 1
    return count, h.hexdigest()


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
