"""Spans around calls into the public functions of each gsptk module.

``Tracer.install`` replaces every public function (the names in a module's
``__all__``, plus ``cli.main``) at every gsptk module attribute that holds it,
so that calls made through a name imported into another module (``cli``
imports ``read_graph`` by name, ``filters`` imports ``impulse_family``) are
recorded too. ``uninstall`` puts the originals back. Spans live in memory as
``[name, start_ns, end_ns, parent, op, extra]`` and are written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from pathlib import Path


def _solve_flops(args, kwargs) -> int:
    """Gauss-Jordan on the n x (n + m) augmented matrix: n pivots, each
    updating n - 1 rows of n + m complex entries at 8 real flops apiece."""
    a, b = args[0], args[1]
    n = len(a)
    m = 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
    return 8 * n * (n - 1) * (n + m)


def _file_bytes(position: int):
    def size(args, kwargs) -> int:
        return os.path.getsize(args[position])

    return size


# Counts recorded with a span, computed from the call's arguments.
_EXTRA = {
    "numkit.solve": _solve_flops,
    "sampling.write_plan": _file_bytes(1),
    "sampling.read_plan": _file_bytes(0),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, fn, label: str):
        spans, stack, extra = self.spans, self._stack, _EXTRA.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([label, 0, 0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                span = spans[idx]
                span[1], span[2] = start, end
                if extra is not None:
                    span[5] = extra(args, kwargs)

        return traced

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "gsptk" or name.startswith("gsptk.")]
        public = {}
        for m in modules:
            for attr in getattr(m, "__all__", ()):
                obj = getattr(m, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == m.__name__:
                    public[obj] = f"{m.__name__.removeprefix('gsptk.')}.{attr}"
        cli = sys.modules["gsptk.cli"]
        public[cli.main] = "cli.main"
        wrappers = {fn: self._wrap(fn, label) for fn, label in public.items()}
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(m, attr, wrappers[obj])
                    self._patched.append((m, attr, obj))

    def uninstall(self) -> None:
        for m, attr, obj in reversed(self._patched):
            setattr(m, attr, obj)
        self._patched.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "op", "extra")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Summary:
    def __init__(self, spans):
        self.spans = spans
        self.ms = [(s[2] - s[1]) / 1e6 for s in spans]
        self.child_ms = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                self.child_ms[s[3]] += self.ms[i]

    def _idx(self, name, where=None):
        return [i for i, s in enumerate(self.spans) if s[0] == name and (where is None or where(i))]

    def total(self, name, where=None) -> float:
        return sum(self.ms[i] for i in self._idx(name, where))

    def self_total(self, name) -> float:
        return sum(self.ms[i] - self.child_ms[i] for i in self._idx(name))

    def calls(self, name) -> int:
        return len(self._idx(name))

    def extra(self, name) -> int:
        return sum(self.spans[i][5] for i in self._idx(name))

    def inside(self, i, name) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def parent_is(self, i, name) -> bool:
        p = self.spans[i][3]
        return p >= 0 and self.spans[p][0] == name


# Per-layer metrics: name, unit, and how each is derived from the spans.
PER_LAYER = (
    ("numkit.eig.ms", "ms", lambda t: t.total("numkit.eig")),
    ("numkit.solve.ms", "ms", lambda t: t.total("numkit.solve")),
    ("numkit.solve.calls", "count", lambda t: t.calls("numkit.solve")),
    ("numkit.solve.flops_computed", "flop", lambda t: t.extra("numkit.solve")),
    ("numkit.row_reduce.select_ms", "ms",
     lambda t: t.total("numkit.row_reduce", lambda i: not t.inside(i, "numkit.solve"))),
    ("spectral.basis_from_graph.self_ms", "ms", lambda t: t.self_total("spectral.basis_from_graph")),
    ("spectral.spectral_shift.ms", "ms", lambda t: t.total("spectral.spectral_shift")),
    ("sampling.spectral_plan.self_ms", "ms", lambda t: t.self_total("sampling.spectral_plan")),
    ("sampling.vertex_plan.self_ms", "ms", lambda t: t.self_total("sampling.vertex_plan")),
    ("sampling.write_plan.ms", "ms", lambda t: t.total("sampling.write_plan")),
    ("sampling.write_plan.bytes", "bytes", lambda t: t.extra("sampling.write_plan")),
    ("sampling.read_plan.self_ms", "ms", lambda t: t.self_total("sampling.read_plan")),
    ("sampling.read_plan.solve_ms", "ms",
     lambda t: t.total("numkit.solve", lambda i: t.parent_is(i, "sampling.read_plan"))),
    ("sampling.read_plan.bytes", "bytes", lambda t: t.extra("sampling.read_plan")),
    ("sampling.spectral_recover.self_ms", "ms", lambda t: t.self_total("sampling.spectral_recover")),
    ("sampling.vertex_recover.ms", "ms", lambda t: t.total("sampling.vertex_recover")),
    ("graphs.read_graph.ms", "ms", lambda t: t.total("graphs.read_graph")),
    ("graphs.read_signal.ms", "ms", lambda t: t.total("graphs.read_signal")),
    ("graphs.write_signal.ms", "ms", lambda t: t.total("graphs.write_signal")),
    ("impulses.impulse_family.ms", "ms", lambda t: t.total("impulses.impulse_family")),
    ("filters.fit_filter.self_ms", "ms", lambda t: t.self_total("filters.fit_filter")),
    ("filters.apply_filter.ms", "ms", lambda t: t.total("filters.apply_filter")),
    ("filters.write_filter.ms", "ms", lambda t: t.total("filters.write_filter")),
    ("cli.main.self_ms", "ms", lambda t: t.self_total("cli.main")),
)


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    t = _Summary(spans)
    return {name: (derive(t), unit) for name, unit, derive in PER_LAYER}
