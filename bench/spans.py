"""Outside-in tracing: spans around the names each package module imports.

:func:`install` replaces, for the duration of a ``with`` block, the module
attributes listed in :data:`BINDINGS` with recording wrappers.  Because the
package calls these names through its module globals (``modes`` calls
``log_density_d1``, ``density`` calls ``bessel_ratio``, ...), every
cross-layer call is seen without touching the package.  A binding that no
longer exists is recorded in ``Tracer.missing`` and the metrics built on it
come out as missing instead of crashing the run.

Spans are kept in flat in-memory arrays (name, start, end, parent span,
op id) and written out once, after the run.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  One span name may cover several bindings
# of the same function in different modules.
BINDINGS = (
    ("ncx2shape.density", "bessel_ratio", "bessel.bessel_ratio"),
    ("ncx2shape.density", "log_bessel_i", "bessel.log_bessel_i"),
    ("ncx2shape.shape", "bessel_ratio", "bessel.bessel_ratio"),
    ("ncx2shape.modes", "bessel_ratio", "bessel.bessel_ratio"),
    ("ncx2shape.density", "log_density", "density.log_density"),
    ("ncx2shape.density", "log_density_d1", "density.log_density_d1"),
    ("ncx2shape.density", "log_density_d2", "density.log_density_d2"),
    ("ncx2shape.shape", "log_density_d2", "density.log_density_d2"),
    ("ncx2shape.modes", "log_density_d1", "density.log_density_d1"),
    ("ncx2shape.shape", "classify", "shape.classify"),
    ("ncx2shape.shape", "critical_lambda", "shape.critical_lambda"),
    ("ncx2shape.modes", "critical_lambda", "shape.critical_lambda"),
    ("ncx2shape.shape", "criticality_indicator", "shape.criticality_indicator"),
    ("ncx2shape.shape", "inflection_point", "shape.inflection_point"),
    ("ncx2shape.modes", "inflection_point", "shape.inflection_point"),
    ("ncx2shape.modes", "mode_report", "modes.mode_report"),
    ("ncx2shape.modes", "interior_mode", "modes.interior_mode"),
    ("ncx2shape.modes", "antimode", "modes.antimode"),
    ("ncx2shape.cli", "log_density", "density.log_density"),
    ("ncx2shape.cli", "log_density_d1", "density.log_density_d1"),
    ("ncx2shape.cli", "log_density_d2", "density.log_density_d2"),
    ("ncx2shape.cli", "classify", "shape.classify"),
    ("ncx2shape.cli", "critical_lambda", "shape.critical_lambda"),
    ("ncx2shape.cli", "mode_report", "modes.mode_report"),
)

OP = "op"


class Tracer:
    """In-memory span store.  One instance per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.errors: dict[int, str] = {}
        self.results: dict[int, object] = {}
        self.args: dict[int, tuple] = {}
        self.missing: set[str] = set()
        self._stack = [-1]
        self._op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(time.perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        sid = self._open(self.name_id(OP))
        try:
            yield
        finally:
            self._close(sid)

    def wrap(self, fn, name: str, keep_args: bool = False, keep_result: bool = False):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[sid] = type(exc).__name__
                raise
            finally:
                self._close(sid)
            if keep_args:
                self.args[sid] = (args, kwargs)
            if keep_result:
                self.results[sid] = result
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        data = self.arrays()
        err_ids = np.array(sorted(self.errors), dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            error_span=err_ids,
            error_type=np.array([self.errors[i] for i in err_ids], dtype=str),
            **data,
        )


@contextmanager
def install(tracer: Tracer):
    """Wrap every binding in :data:`BINDINGS` that exists; restore on exit."""
    saved = []
    try:
        for module_name, attr, name in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                tracer.missing.add(f"{module_name}.{attr}")
                continue
            keep = name == "shape.critical_lambda"
            setattr(module, attr, tracer.wrap(fn, name, keep_args=keep, keep_result=keep))
            saved.append((module, attr, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class SpanTable:
    """Derived per-span quantities: duration, self time, parent name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.tracer = tracer
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(self.dur))
        self.self_time = self.dur - child
        self.parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)

    def ids(self, name: str):
        """Span indices with this name, or None when the name never occurred."""
        if name not in self.names:
            return None
        return np.flatnonzero(self.name == self.names.index(name))

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name, ids)

    def children_of(self, child: str, parent: str):
        """Count of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self.names or parent not in self.names:
            return None
        c, p = self.names.index(child), self.names.index(parent)
        return int(np.count_nonzero((self.name == c) & (self.parent_name == p)))
