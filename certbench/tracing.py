"""Span tracer that wraps conecert's module bindings from outside the package.

Each binding is patched in the module whose code makes the call, so
`exposedness.block_minimize` and `maps.block_minimize` are separate entries
that feed one layer metric, and likewise `params_to_herm` in `faces` and
`exposedness`, and `informed_starts` in `maps` and `exposedness`.  A binding
that does not exist at the commit under test is recorded as absent; its
metrics read 0 and the report names it.

Spans are kept in memory as an aggregate per (parent, name) edge: calls,
total seconds and self seconds, where self time is the span's duration minus
the time its child spans cover.
"""

import importlib
import time
from collections import defaultdict

# (module whose code calls it, binding name, layer metric prefix)
BINDINGS = (
    ("exposedness", "double_prime_nullspace", "faces.double_prime_nullspace"),
    ("faces", "_pairs_from_etas", "faces._pairs_from_etas"),
    ("faces", "assemble_constraints", "faces.assemble_constraints"),
    ("faces", "_narrow", "faces._narrow"),
    ("faces", "null_space", "linalg.null_space"),
    ("exposedness", "null_space", "linalg.null_space"),
    ("faces", "params_to_herm", "linalg.params_to_herm"),
    ("exposedness", "params_to_herm", "linalg.params_to_herm"),
    ("exposedness", "membership_residual", "exposedness.membership_residual"),
    ("exposedness", "cone_fallback", "exposedness.cone_fallback"),
    ("maps", "informed_starts", "maps.informed_starts"),
    ("exposedness", "informed_starts", "maps.informed_starts"),
    ("maps", "block_minimize", "kernels.block_minimize"),
    ("exposedness", "block_minimize", "kernels.block_minimize"),
)

# which null_space call a parent span stands for
NULL_SPACE_PARENTS = {"faces._narrow": "narrow", "faces._pairs_from_etas": "pairs"}


def _count_rows(args, out):
    return {"rows": out.rows.shape[0]}


def _count_elems(args, out):
    rows, cols = args[0].shape
    return {"elems": rows * cols}


def _count_points(args, out):
    return {
        "points": out.directions_tested * len(out.epsilons),
        "violations": len(out.violations),
    }


def _count_restarts(args, out):
    return {"restarts_offered": len(args[1]), "restarts_used": out[3]}


COUNTERS = {
    "faces.assemble_constraints": _count_rows,
    "linalg.null_space": _count_elems,
    "exposedness.cone_fallback": _count_points,
    "kernels.block_minimize": _count_restarts,
}


class Tracer:
    def __init__(self):
        self._stack = []  # [name, seconds covered by child spans]
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts = defaultdict(float)
        self.absent = []  # "module.binding" names missing at this commit
        self.broken = set()  # counters whose argument or result shape changed
        self.installed = set()  # layer names with at least one patched binding
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dur
            edge = self.edges[(parent, name)]
            edge[0] += 1
            edge[1] += dur
            edge[2] += dur - frame[1]
        counter = COUNTERS.get(name)
        if counter is not None and name not in self.broken:
            try:
                for key, value in counter(args, out).items():
                    self.counts[f"{name}.{key}"] += value
            except (AttributeError, IndexError, TypeError, ValueError):
                self.broken.add(name)
        return out

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, binding, name in BINDINGS:
            try:
                module = importlib.import_module(f"conecert.{module_name}")
            except ImportError:
                self.absent.append(f"{module_name}.{binding}")
                continue
            fn = getattr(module, binding, None)
            if fn is None:
                self.absent.append(f"{module_name}.{binding}")
                continue
            self._patched.append((module, binding, fn))
            self.installed.add(name)
            setattr(module, binding, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, binding, fn in reversed(self._patched):
            setattr(module, binding, fn)
        self._patched.clear()

    def calls(self, name: str) -> int:
        return sum(e[0] for (_, n), e in self.edges.items() if n == name)

    def self_s(self, name: str, parent_kind: str | None = None) -> float:
        """Self seconds of a span name, optionally only under one parent kind."""
        total = 0.0
        for (parent, n), edge in self.edges.items():
            if n != name:
                continue
            if parent_kind is None or NULL_SPACE_PARENTS.get(parent, "final") == parent_kind:
                total += edge[2]
        return total
