"""In-memory span tracing of the library, applied from outside it.

A :class:`Tracer` replaces public functions and methods with wrappers that
record one span per call: its name, start, end and the span open when it
began (its parent).  Each name is patched in the module or class where the
caller looks it up, so ``run_path`` calling ``validate_instance`` through
``slopepath.engine`` is seen.  Spans stay in compact arrays until the run
ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

#: (module, attribute path, span name).  A class method is named as
#: "Class.method" and patched on the class.
TARGETS = (
    ("slopepath.datagen", "generate", "datagen.generate"),
    ("slopepath.datagen", "normal_quantile", "weights.normal_quantile"),
    ("slopepath.weights", "normal_quantile", "weights.normal_quantile"),
    ("slopepath.weights", "design_sequence", "weights.design_sequence"),
    ("slopepath.model", "validate_instance", "model.validate_instance"),
    ("slopepath.model", "eval_path", "model.eval_path"),
    ("slopepath.engine", "validate_instance", "model.validate_instance"),
    ("slopepath.engine", "instance_hash", "model.instance_hash"),
    ("slopepath.engine", "solve_slope", "prox.solve_slope"),
    ("slopepath.engine", "run_path", "engine.run_path"),
    ("slopepath.engine", "EngineState.__init__", "engine.init"),
    ("slopepath.engine", "EngineState.refresh", "engine.refresh"),
    ("slopepath.engine", "EngineState.next_event", "engine.select"),
    ("slopepath.engine", "EngineState.advance", "engine.advance"),
    ("slopepath.engine", "EngineState.apply_fuse", "engine.apply_structural"),
    ("slopepath.engine", "EngineState.apply_split", "engine.apply_structural"),
    ("slopepath.engine", "EngineState.apply_switch", "engine.apply_switch"),
    ("slopepath.engine", "EngineState.apply_sign_switch", "engine.apply_switch"),
    ("slopepath.engine", "EngineState.scatter_beta", "engine.record"),
    ("slopepath.engine", "EngineState.scatter_slope", "engine.record"),
    ("slopepath.prox", "solve_slope", "prox.solve_slope"),
    ("slopepath.prox", "sorted_l1_prox", "prox.sorted_l1_prox"),
    ("slopepath.prox", "check_optimality", "optimality.check_optimality"),
    ("slopepath.optimality", "check_optimality", "optimality.check_optimality"),
    ("slopepath.harness", "path_metrics", "harness.path_metrics"),
)


class Tracer:
    """Span recorder; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span opened by the benchmark itself."""
        idx = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        begin, finish = self._begin, self._finish

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def install(self) -> None:
        """Patch every target; a target that no longer exists is recorded
        in ``missing`` and its span name reports as absent."""
        for module_name, attr_path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            try:
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def present(self) -> set[str]:
        """Span names with at least one installed wrapper."""
        missing = set(self.missing)
        return {name for mod, attr, name in TARGETS
                if f"{mod}.{attr}" not in missing}

    def layer_totals(self, root: str) -> dict[str, tuple[float, int]]:
        """(self seconds, calls) per span name, over the spans descending
        from benchmark spans named ``root``."""
        n = len(self.start)
        if n == 0 or root not in self._ids:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.intp)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)

        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child

        top = np.where(has_parent, parent, np.arange(n))
        while True:
            up = np.where(parent[top] >= 0, parent[top], top)
            if np.array_equal(up, top):
                break
            top = up
        keep = (name_id[top] == self._ids[root]) & has_parent
        k = len(self.names)
        secs = np.bincount(name_id[keep], weights=self_time[keep], minlength=k)
        calls = np.bincount(name_id[keep], minlength=k)
        return {self.names[i]: (float(secs[i]), int(calls[i]))
                for i in range(k) if calls[i]}
