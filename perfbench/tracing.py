"""Per-layer tracing installed from outside the package.

``Tracer.install`` wraps each traced public function of ``lattice_euclid``
and rebinds the wrapper under every module name that refers to the
original (``solve_system``, for one, is imported into ``euclid``,
``variants`` and ``applications``); ``uninstall`` puts the originals back.
Nothing in the package's source changes. Each call records a span
``(name, start_ns, end_ns, parent_span, op_id)``; spans stay in memory
until the run writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function; "Matrix.mat_vec" is a method.
TRACED = (
    ("exact", "solve_system"),
    ("exact", "Matrix.mat_vec"),
    ("exact", "invert"),
    ("exact", "column_update_inverse"),
    ("exact", "bareiss_det"),
    ("euclid", "find_independent_columns"),
    ("euclid", "solve_in_span"),
    ("euclid", "check_off_pivot_rows"),
    ("euclid", "choose_pivot_argmin"),
    ("euclid", "mod_prime"),
    ("euclid", "exchange_step"),
    ("euclid", "basic_basis"),
    ("variants", "inverse_variant_basis"),
    ("variants", "solution_variant_basis"),
    ("variants", "rowwise_variant_basis"),
    ("variants", "solution_update"),
    ("variants", "y_update"),
    ("variants", "solve_row"),
    ("applications", "determinant_with_trace"),
    ("applications", "diophantine_run"),
    ("oracle", "hnf"),
    ("matio", "parse_matrix"),
)

LAYER_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span of its own (an op's root span)."""
        return self._wrap(name, fn)(*args)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "lattice_euclid" or key.startswith("lattice_euclid.")
        ]
        for module, attr in TRACED:
            owner = sys.modules[f"lattice_euclid.{module}"]
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._rebind(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._rebind(mod, attr, original, wrapper)

    def _rebind(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def layer_totals(self, op_scales: list[float]) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self_ms)`` over all recorded spans.

        A span's self time is its duration minus the durations of its
        direct children, multiplied by ``op_scales[op_id]`` of its op.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_ns: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            self_ns[name] += (end - start - child_ns[idx]) * op_scales[op]
        return {name: (calls[name], self_ns[name] / 1e6) for name in calls}
