"""Outside-in tracing of `gradedlie`, one span per call at a module boundary.

`Tracer.install` wraps the public functions listed in BOUNDARIES and
rebinds each wrapper in every `gradedlie` module that holds the original
by name (and on the class, for methods), so calls through `from .x import
f` are seen too.  Generator functions are wrapped so that each resumption
is a span and each yield is counted.  A listed name that the package no
longer has is skipped and reported in `absent`; the metrics built on it
are then left out, rather than failing the run.

Spans are kept in memory in the traced child: every call feeds the
per-name and per-layer totals, and the first SPAN_CAP spans of a command
are kept whole as (id, parent id, name, start ns, end ns), the command's
root span `cli.main` having id 0, and written out by run.py when
the run ends.  A layer's self time is the time inside its spans minus the
time inside their child spans.  Time not inside any span is `cli` time.
"""

from __future__ import annotations

import inspect
import sys
import time

# (layer, module, dotted name) of every wrapped function.  algebras is L0,
# poly L1, leaders L2, elim L3, and textio with cli L4.
BOUNDARIES = [
    ("algebras", "gradedlie.algebras", name) for name in (
        "bracket_basis", "bracket_lie", "order_key", "compare_basis", "lie_extreme",
        "enumerate_component", "elements_in_window", "jacobi_residual",
    )
] + [
    ("poly", "gradedlie.poly", name) for name in (
        "Polynomial.__mul__", "Polynomial.__add__", "Polynomial.__pow__",
        "Polynomial.expand_in", "Polynomial.derivative", "poisson_bracket",
        "pb_with_var", "d_op", "d_bracket", "d_leader",
    )
] + [
    ("leaders", "gradedlie.leaders", name) for name in (
        "l_member", "is_member", "iter_tuples", "iter_witnesses", "l_condition_holds",
        "check_leading_dicksonian", "search_leading_dicksonian", "verify_claimed_subset",
        "check_dagger", "check_cofinite_window",
    )
] + [
    ("elim", "gradedlie.elim", name) for name in (
        "partial_reduce", "full_reduce", "verify_certificate", "is_reduced",
        "is_reduced_sequence", "is_partially_reduced",
    )
] + [
    ("textio", "gradedlie.textio", name) for name in (
        "parse_poly", "parse_element", "print_poly", "cert_to_json", "cert_from_json",
    )
]

SPAN_CAP = 256


class Tracer:
    def __init__(self):
        self.absent = []

    # -- installation (in the fork server, before any command) ---------------

    def install(self):
        for layer, modname, dotted in BOUNDARIES:
            owner = sys.modules.get(modname)
            parts = dotted.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            orig = getattr(owner, parts[-1], None) if owner is not None else None
            name = "%s.%s" % (layer, parts[-1])
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, layer, orig)
            targets = [owner] if isinstance(owner, type) else [
                m for n, m in sys.modules.items() if n == "gradedlie" or n.startswith("gradedlie.")
            ]
            for target in targets:
                for attr, value in list(vars(target).items()):
                    if value is orig:
                        setattr(target, attr, wrapper)

    def _wrap(self, name, layer, fn):
        clock = time.perf_counter_ns
        tracer = self

        def enter():
            tracer.last_id += 1
            tracer.stack.append([0, clock(), tracer.last_id])

        def leave():
            child, t0, span_id = tracer.stack.pop()
            t1 = clock()
            dt = t1 - t0
            stat = tracer.stats.get(name)
            if stat is None:
                stat = tracer.stats[name] = [0, 0, 0, 0]  # calls, incl ns, self ns, extra
            stat[0] += 1
            stat[1] += dt
            stat[2] += dt - child
            tracer.layer_self[layer] = tracer.layer_self.get(layer, 0) + dt - child
            parent = tracer.stack[-1]
            parent[0] += dt
            if span_id <= SPAN_CAP:
                tracer.spans.append((span_id, parent[2], name, t0 - tracer.origin,
                                     t1 - tracer.origin))
            return stat

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            leave()
                            return
                        except BaseException:
                            leave()
                            raise
                        leave()[3] += 1
                        yield item
                finally:
                    it.close()
            return gen_wrapper

        counts_terms = name == "poly.__mul__"

        def wrapper(*args, **kwargs):
            enter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                leave()
                raise
            stat = leave()
            if counts_terms:
                stat[3] += len(out.terms)
            return out

        return wrapper

    # -- per command (in the forked child) ------------------------------------

    def begin(self):
        self.stats = {}
        self.layer_self = {}
        self.spans = []
        self.last_id = 0
        self.origin = time.perf_counter_ns()
        self.stack = [[0, self.origin, 0]]

    def end(self):
        child, t0, _ = self.stack.pop()
        total = time.perf_counter_ns() - t0
        self.layer_self["cli"] = total - child
        self.spans.append((0, None, "cli.main", 0, total))
        return {
            "total_ns": total,
            "layer_self_ns": self.layer_self,
            "stats": self.stats,
            "spans": self.spans,
        }
