"""The in-process pass driver of the measurement scripts: a pass is the
command list of perfbench/workloads.py for a workload and seeds, and each
command runs as `main(["--format", "json", ...])`, as the benchmark sends
it.  The caller passes its `gradedlie.cli.main`; this module imports no
gradedlie, so one interpreter can drive several checkouts' copies."""

import contextlib
import io
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text):
    """The seeds of a list of seeds and ranges, e.g. '1,2,3', '401-410' or
    '1-3,7'; a malformed item or an empty range raises ValueError."""
    seeds = []
    for item in text.split(","):
        lo, dash, hi = item.partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if dash else lo
        except ValueError:
            raise ValueError("--seeds: %r is not a seed or a range lo-hi" % item) from None
        if hi < lo:
            raise ValueError("--seeds: the range %r is empty" % item)
        seeds += range(lo, hi + 1)
    return seeds


def commands(workload, seeds):
    """The argv of every command of the workload's pass, seed by seed."""
    return [op.argv for seed in seeds for op in WORKLOADS[workload](seed)]


def run(main, argv):
    """(exit code, stdout, CPU seconds) of one command; stderr is discarded."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.process_time()
        rc = main(["--format", "json"] + argv)
        cpu = time.process_time() - start
    return rc, out.getvalue(), cpu
