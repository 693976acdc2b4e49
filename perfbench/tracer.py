"""Span tracing installed from outside the library, around each layer.

The layers are the library modules.  Every public function a layer module
defines is replaced, at every module binding that refers to it, by a wrapper
that records a span.  The modules import names with ``from .x import y``, so
``quadrics.filtration.degenerate_locus`` is a binding of its own next to
``quadrics.pencil.degenerate_locus``; both are wrapped.  A few class methods
are wrapped too (``QuadraticPencil.scale`` and the ``CircleSubset``
operations), and numpy's linalg entry points form the kernel layer under all
of them.  Leaving the ``Tracer`` context restores every original binding.

A span's self time is its duration minus the time covered by its child
spans.  ``eig_calls`` of a function counts the eigen-solves made while it
ran, nested calls included.  Spans are kept in memory and written out by the
caller when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

LAYERS = ("pencil", "filtration", "circle", "betti", "applications", "oracles", "cli")
# class methods traced as part of their module's layer; None means every
# public method and static method of the class
CLASS_METHODS = {
    "pencil": {"QuadraticPencil": ("scale",)},
    "circle": {"CircleSubset": None},
}
LINALG = ("eigvalsh", "eigh", "eigvals", "eig", "det", "svd", "norm", "solve", "qr")
EIGEN_SOLVES = frozenset({"eigvalsh", "eigh", "eigvals", "eig"})


def _defined_functions(module) -> dict:
    """Public module-level functions defined in the module itself."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    """Context manager that wraps the layers of a loaded ``quadrics`` package.

    Spans of operations numbered below ``record_ops`` are stored one by one
    (op id, span id, parent id, name, start, end); aggregate counts and
    times are kept for every span.
    """

    def __init__(self, package, record_ops: int):
        self.package = package
        self.modules = {name: sys.modules[f"{package.__name__}.{name}"]
                        for name in LAYERS}
        self.record_ops = record_ops
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.eig_incl: list[int] = []
        self.extra: dict[str, float] = {"filtration.breakpoints": 0.0,
                                        "filtration.stiefel_whitney.resolution": 0.0}
        self.op = 0
        self.eig_count = 0
        self._span_ops = array("q")
        self._span_parent = array("q")
        self._span_name = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------
    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.eig_incl.append(0)
        return len(self.names) - 1

    def _bindings(self) -> list[tuple[object, str, object, str]]:
        """(namespace, attribute, original, span name) for every traced binding."""
        out = []
        originals = {}
        for layer, mod in self.modules.items():
            for name, fn in _defined_functions(mod).items():
                originals[id(fn)] = f"{layer}.{name}"
        namespaces = [self.package, *self.modules.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                span = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if span is not None:
                    out.append((ns, attr, obj, span))
        for layer, classes in CLASS_METHODS.items():
            mod = self.modules[layer]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_") or (methods is not None and attr not in methods):
                        continue
                    if isinstance(obj, staticmethod) or inspect.isfunction(obj):
                        out.append((cls, attr, obj, f"{layer}.{cls_name}.{attr}"))
        import numpy.linalg as linalg
        for name in LINALG:
            out.append((linalg, name, getattr(linalg, name), f"linalg.{name}"))
        return out

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for ns, attr, original, span in self._bindings():
            if isinstance(original, staticmethod):
                fn = original.__func__
            else:
                fn = original
            key = (id(fn), span)
            if key not in wrappers:
                wrappers[key] = self._wrap(fn, span)
            wrapped = wrappers[key]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            self._restore.append((ns, attr, original))
            setattr(ns, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            ns, attr, original = self._restore.pop()
            setattr(ns, attr, original)

    # -- recording ------------------------------------------------------
    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        is_eig = span.startswith("linalg.") and span[7:] in EIGEN_SOLVES
        hook = {"filtration.index_profile": self._count_breakpoints,
                "filtration.stiefel_whitney": self._count_resolution}.get(span)
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if is_eig:
                self.eig_count += 1
            parent = stack[-1][4] if stack else -1
            frame = [name_id, 0.0, 0.0, self.eig_count, self._open_span(parent, name_id)]
            stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.calls[name_id] += 1
                self.self_s[name_id] += dur - frame[2]
                self.eig_incl[name_id] += self.eig_count - frame[3]
                self._close_span(frame[4], frame[1], end)
                if stack:
                    stack[-1][2] += dur
            if hook is not None:
                t = clock()
                hook(result)
                if stack:  # hook time is tracing overhead, not the parent's
                    stack[-1][2] += clock() - t
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _open_span(self, parent: int, name_id: int) -> int:
        if self.op >= self.record_ops:
            return -1
        self._span_ops.append(self.op)
        self._span_parent.append(parent)
        self._span_name.append(name_id)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        return len(self._span_ops) - 1

    def _close_span(self, span_id: int, start: float, end: float) -> None:
        if span_id < 0:
            return
        self._span_start[span_id] = start
        self._span_end[span_id] = end

    def _count_breakpoints(self, profile) -> None:
        self.extra["filtration.breakpoints"] += len(profile.breakpoint_angles())

    def _count_resolution(self, result) -> None:
        self.extra["filtration.stiefel_whitney.resolution"] += result[1]

    # -- results --------------------------------------------------------
    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Totals per traced name and per layer: calls, self seconds, eig_calls."""
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "eig_calls": 0})
            row["calls"] += self.calls[i]
            row["self_s"] += self.self_s[i]
            row["eig_calls"] += self.eig_incl[i]
            layer = out.setdefault(name.split(".")[0], {"calls": 0, "self_s": 0.0})
            layer["calls"] += self.calls[i]
            layer["self_s"] += self.self_s[i]
        return out

    def spans(self) -> dict:
        """Recorded spans as columns, times in microseconds from the first span."""
        t0 = self._span_start[0] if self._span_start else 0.0
        return {
            "names": self.names,
            "columns": ["op", "span", "parent", "name", "start_us", "end_us"],
            "rows": [[self._span_ops[i], i, self._span_parent[i], self._span_name[i],
                      round((self._span_start[i] - t0) * 1e6, 3),
                      round((self._span_end[i] - t0) * 1e6, 3)]
                     for i in range(len(self._span_ops))],
        }
