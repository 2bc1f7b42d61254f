"""Fork server: runs `gradedlie` CLI commands, each in a fresh child.

Started by run.py as `python3 perfbench/zygote.py SRC_DIR TRACE`.  It
imports `gradedlie` once, reports how long the import took, and then
reads one JSON request per line on stdin:

    {"argv": [...], "cap_s": 30.0}

For each request it forks a child that calls `gradedlie.cli.main(argv)`
with stdout and stderr captured, timed around `main` alone.  The server
itself never calls into `gradedlie`, so every child starts in the state of
a freshly imported package: no memberships, structure constants or other
state carry over from an earlier command.  This needs no knowledge of
where the package keeps its caches.

The reply is one JSON line on stdout:

    {"rc": 0, "ms": 12.3, "out": "...", "err": "...", "maxrss_kb": 20480,
     "timeout": false, "trace": {...} or null}

A child that runs past its cap is killed and reported with "timeout": true.
With TRACE = 1, spans.py wraps the package's public functions before the
first fork, and each child returns its aggregated spans.
"""

from __future__ import annotations

import io
import json
import os
import resource
import select
import signal
import sys
import time


def _child(main, tracer, argv, wfd):
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    reply = {"rc": None, "ms": None, "maxrss_kb": None, "timeout": False}
    try:
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a crash is a failed command, not a crashed server
            err.write("crash: %s: %s\n" % (type(exc).__name__, exc))
            rc = "crash"
        t1 = time.perf_counter()
        reply["trace"] = tracer.end() if tracer is not None else None
        reply["rc"] = rc
        reply["ms"] = (t1 - t0) * 1000.0
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    finally:
        reply["out"], reply["err"] = out.getvalue(), err.getvalue()
        data = json.dumps(reply).encode()
        view = memoryview(data)
        while view:
            n = os.write(wfd, view)
            view = view[n:]
        os.close(wfd)
        os._exit(0)


def _serve_one(main, tracer, req):
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        _child(main, tracer, req["argv"], wfd)
    os.close(wfd)
    deadline = time.monotonic() + float(req["cap_s"])
    chunks = []
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([rfd], [], [], left)
            if not ready:
                continue
            chunk = os.read(rfd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(rfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if timed_out:
        return {"rc": None, "ms": None, "out": "", "err": "", "maxrss_kb": None,
                "timeout": True, "trace": None}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"rc": None, "ms": None, "out": "", "err": "child sent no reply",
                "maxrss_kb": None, "timeout": False, "trace": None}


def serve(src_dir, trace):
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import gradedlie  # noqa: F401  (the import is what is being timed)
    from gradedlie.cli import main
    import_s = time.perf_counter() - t0
    origin = os.path.realpath(gradedlie.__file__)
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    proto = os.fdopen(os.dup(1), "w")
    sys.stdout = sys.stderr
    proto.write(json.dumps({"import_s": import_s, "origin": origin,
                            "absent": tracer.absent if tracer else []}) + "\n")
    proto.flush()
    for line in sys.stdin:
        if not line.strip():
            continue
        proto.write(json.dumps(_serve_one(main, tracer, json.loads(line))) + "\n")
        proto.flush()


if __name__ == "__main__":
    serve(sys.argv[1], sys.argv[2] == "1")
