"""Spans around the library's public functions, recorded from outside it.

A module that did ``from .bounds import multi_bound`` holds its own binding
of the function, so wrapping ``bounds.multi_bound`` alone would miss the
calls made through ``oracle.multi_bound`` or ``cli.multi_bound``. The tracer
finds every binding of each target in the loaded ``multibias`` modules (and
``World.joint`` on its class) and swaps all of them at once; ``uninstall``
puts the originals back, so untraced calls run the unmodified library.

Spans are kept in flat arrays in memory: name, parent, label (the op that
caused them), start and end in nanoseconds, and a work count (grid cells,
curve points). A span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path
from typing import Callable

import numpy as np


def _grid_cells(args: tuple, kwargs: dict) -> int:
    vary = args[1] if len(args) > 1 else kwargs["vary"]
    return len(vary[0][1]) * len(vary[1][1])


def _curve_points(args: tuple, kwargs: dict) -> int:
    sets = args[0] if args else kwargs["bias_sets"]
    values = args[1] if len(args) > 1 else kwargs["rr_values"]
    return len(sets) * len(values)


def _solve_kind(args: tuple, kwargs: dict) -> str:
    poly = args[0] if args else kwargs["polynomial"]
    n, k = getattr(poly, "n", None), getattr(poly, "k", None)
    return "closed" if k == 0 or (n, k) == (2, 1) else "bisect"


# (module, attribute, span name, variant of the name by arguments, work count)
TARGETS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("multibias.biases", "build_bias_set", "biases.build_bias_set", None, None),
    ("multibias.bounds", "bound_expression", "bounds.bound_expression", None, None),
    ("multibias.bounds", "multi_bound", "bounds.multi_bound", None, None),
    ("multibias.bounds", "adjust_estimate", "bounds.adjust_estimate", None, None),
    ("multibias.bounds", "grid_table", "bounds.grid_table", None, _grid_cells),
    ("multibias.evalues", "evalue_polynomial", "evalues.evalue_polynomial", None, None),
    ("multibias.evalues", "multi_evalue", "evalues.multi_evalue", None, None),
    ("multibias.evalues", "solve_polynomial", "evalues.solve_polynomial", _solve_kind, None),
    ("multibias.evalues", "evalue_curve", "evalues.evalue_curve", None, _curve_points),
    ("multibias.oracle", "generate_world", "oracle.generate_world", None, None),
    ("multibias.oracle", "World.joint", "oracle.joint", None, None),
    ("multibias.oracle", "extract_parameters", "oracle.extract_parameters", None, None),
    ("multibias.oracle", "observed_and_true_rr", "oracle.observed_and_true_rr", None, None),
    ("multibias.oracle", "verify_bound", "oracle.verify_bound", None, None),
    ("multibias.cli", "main", "cli.main", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.labels: list[str] = []
        self._ids: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.label = array("i")
        self.work = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._current = 0
        self._swaps: list[tuple[object, str, object, object]] = []
        self._bind()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _bind(self) -> None:
        """Find every binding of each target; a target the library lacks is skipped."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "multibias"]
        for module_name, attr, name, variant, work in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, meth, None)
                if fn is not None:
                    self._swaps.append((cls, meth, fn, self._wrap(fn, name, variant, work)))
                continue
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, variant, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._swaps.append((module, key, fn, wrapper))

    def _wrap(self, fn: Callable, name: str, variant: Callable | None, work: Callable | None):
        base = self._id(name)
        kinds = {k: self._id(f"{name}.{k}") for k in ("closed", "bisect")} if variant else {}
        names, parent, label, works, start, end = (
            self.name, self.parent, self.label, self.work, self.start, self.end
        )
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            names.append(kinds[variant(args, kwargs)] if variant else base)
            parent.append(stack[-1])
            label.append(tracer._current)
            works.append(work(args, kwargs) if work else 0)
            start.append(0)
            end.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        return wrapper

    def install(self, label: str) -> None:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        self._current = self._label_ids[label]
        for owner, key, _, wrapper in self._swaps:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._swaps:
            setattr(owner, key, original)

    def table(self) -> dict[tuple[str, str], tuple[int, float, float, int]]:
        """(span name, label) -> (calls, self ns, inclusive ns, work)."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        label = np.frombuffer(self.label, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)).astype(float)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - children
        width = max(len(self.labels), 1)
        keys, inverse = np.unique(name.astype(np.int64) * width + label, return_inverse=True)
        calls = np.bincount(inverse)
        own_sum = np.bincount(inverse, weights=own)
        dur_sum = np.bincount(inverse, weights=dur)
        work_sum = np.bincount(inverse, weights=np.frombuffer(self.work, dtype=np.int64).astype(float))
        return {
            (self.names[k // width], self.labels[k % width]): (
                int(c), float(o), float(d), int(w)
            )
            for k, c, o, d, w in zip(keys, calls, own_sum, dur_sum, work_sum)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            label=np.frombuffer(self.label, dtype=np.int32),
            work=np.frombuffer(self.work, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
