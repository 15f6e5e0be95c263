"""Spans around calls into rigidfold's public functions, installed from outside.

The engine's modules import each other's functions by name
(``from .kinematics import assemble_global``), so a function is called
through several module bindings.  ``Tracer.installed`` replaces the function
at every binding in every loaded ``rigidfold`` module and puts the originals
back on exit; nothing under ``src/`` is changed.  Spans stay in memory until
the caller asks for a summary.
"""

import sys
import time
from contextlib import contextmanager

import numpy as np

# (module, function) for every public function whose calls are timed; the
# module name is the layer name.
TRACED = (
    ("pattern", "parse_pattern"),
    ("pattern", "build_vertex_fans"),
    ("generators", "generate_miura"),
    ("generators", "generate_waterbomb_tessellation"),
    ("generators", "generate_crane"),
    ("generators", "crane_schedule"),
    ("kinematics", "assemble_global"),
    ("numerics", "min_norm_solve"),
    ("numerics", "pseudoinverse"),
    ("numerics", "rank"),
    ("sequential", "flat_state_seed"),
    ("sequential", "run_schedule"),
    ("elastic", "relax"),
    ("elastic", "kkt_step"),
    ("embedding", "embed"),
    ("embedding", "build_spanning_tree"),
    ("cli", "main"),
    ("cli", "export_obj"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TRACED))


def svd_flops(m, *args, **kwargs):
    """Golub-Van Loan count for one thin SVD with U and V: 14 r c^2 + 8 c^3.

    Every numerics routine factors its first argument once; r >= c are the
    larger and smaller dimensions.  Computed from the shape, not measured.
    """
    rows, cols = sorted(np.atleast_2d(m).shape, reverse=True)
    return 14 * rows * cols**2 + 8 * cols**3


# Work units accumulated per call, from the call's arguments.
WORK = {
    "numerics.min_norm_solve": svd_flops,
    "numerics.pseudoinverse": svd_flops,
    "numerics.rank": svd_flops,
}


class Tracer:
    """Records one span per traced call: name, start, end and parent span."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.work = {}
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        work_fn = WORK.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if work_fn is not None:
                work[name] = work.get(name, 0) + work_fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route every binding of every traced function through a span."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "rigidfold" or n.startswith("rigidfold.")
        ]
        patched = []
        try:
            for module_name, fn_name in TRACED:
                original = getattr(sys.modules["rigidfold." + module_name], fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def summary(self):
        """Per traced name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def dump(self):
        """Spans as plain records, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p}
            for n, s, e, p in self.spans
        ]
