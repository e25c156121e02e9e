"""In-memory span tracer that wraps the package's functions from outside.

Each wrapped function is replaced at the name its caller looks it up by
(for example `hybridkd.session.run_round`, which the gated session loop
calls), so nothing under `src/` changes. A span records its own index, its
name, the span that was open when it started, and its start and end in
nanoseconds. Spans stay in memory until `save`.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import Any

import numpy as np

_FIELDS = 5  # index, name id, parent index (-1 for a root), start ns, end ns

# (module, attribute, span name). The module is the caller's namespace.
WRAPS = (
    ("hybridkd.physics", "system_transmittance", "physics.system_transmittance"),
    ("hybridkd.rates", "link_budget", "physics.link_budget"),
    ("hybridkd.session", "link_budget", "physics.link_budget"),
    ("hybridkd.rates", "throughputs", "rates.throughputs"),
    ("hybridkd.rates", "sweep", "rates.sweep"),
    ("hybridkd.rates", "short_haul_supremacy_bound", "rates.solve"),
    ("hybridkd.config", "load_config", "config.load_config"),
    ("hybridkd.config", "dump_config", "config.dump_config"),
    ("hybridkd.cli", "main", "cli.main"),
    ("hybridkd.session", "run_gated_session", "session.gated"),
    ("hybridkd.session", "run_buffered_session", "session.buffered"),
    ("hybridkd.session", "random_inputs", "protocol.random_inputs"),
    ("hybridkd.protocol", "sample_line", "kljn.sample_line"),
    ("hybridkd.kljn", "classify_level", "kljn.classify_level"),
    ("hybridkd.kljn", "variance_thresholds", "kljn.variance_thresholds"),
    ("hybridkd.session", "variance_thresholds", "kljn.variance_thresholds"),
)


class Tracer:
    """Records spans while `on`; `paused()` lets checks call the package untraced."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._spans = array("q")
        self._next = 0
        self._stack = [-1]
        self._patched: list[tuple[Any, str, Any]] = []
        self.on = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _record(self, nid: int, fn: Callable, args: tuple, kwargs: dict) -> Any:
        idx = self._next
        self._next = idx + 1
        stack = self._stack
        parent = stack[-1]
        stack.append(idx)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self._spans.extend((idx, nid, parent, t0, t1))

    def _wrapper(self, fn: Callable, nid_of: Callable[[tuple], int]) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            return self._record(nid_of(args), fn, args, kwargs)

        return traced

    def _patch(self, module_name: str, attr: str, fn: Callable) -> None:
        module = importlib.import_module(module_name)
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def install(self) -> None:
        """Wrap every entry of WRAPS, plus per-protocol spans for run_round."""
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            nid = self.name_id(name)
            self._patch(module_name, attr, self._wrapper(getattr(module, attr), lambda a, n=nid: n))
        session = importlib.import_module("hybridkd.session")
        by_protocol = {p: self.name_id(f"protocol.run_round.{p.value}") for p in session.Protocol}
        self._patch("hybridkd.session", "run_round",
                   self._wrapper(session.run_round, lambda a: by_protocol[a[0]]))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Wrappers installed and recording; the package is untouched again on exit."""
        self.install()
        self.on = True
        try:
            yield
        finally:
            self.on = False
            self.restore()

    def call(self, name: str, fn: Callable[[], Any]) -> Any:
        """Run `fn` under a root span named `name` (one benchmark operation)."""
        return self._record(self.name_id(name), fn, (), {})

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        was, self.on = self.on, False
        try:
            yield
        finally:
            self.on = was

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array, row i holding span index i."""
        rows = np.frombuffer(self._spans, dtype=np.int64).reshape(-1, _FIELDS)
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def save(self, path: Path) -> None:
        np.savez_compressed(path, spans=self.table(), names=np.array(self.names))


def summarize(names: list[str], spans: np.ndarray) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ns, self ns, and calls by parent name.

    A span's self time is its duration minus the durations of its direct
    children that belong to another layer (the part of the name before the
    first dot); same-layer children, such as the variance thresholds inside
    a line sample, stay part of their parent's self time.
    """
    n_names = len(names)
    if len(spans) == 0:
        return {}
    name = spans[:, 1]
    parent = spans[:, 2]
    dur = (spans[:, 4] - spans[:, 3]).astype(np.float64)
    layer_ids = {layer: i for i, layer in enumerate(sorted({n.split(".")[0] for n in names}))}
    layer_of = np.array([layer_ids[n.split(".")[0]] for n in names])
    child = parent >= 0
    cross = child.copy()
    cross[child] = layer_of[name[child]] != layer_of[name[parent[child]]]
    cross_ns = np.bincount(parent[cross], weights=dur[cross], minlength=len(spans))
    self_ns = dur - cross_ns
    calls = np.bincount(name, minlength=n_names)
    total = np.bincount(name, weights=dur, minlength=n_names)
    own = np.bincount(name, weights=self_ns, minlength=n_names)
    parent_name = np.where(child, name[np.maximum(parent, 0)], -1)
    out: dict[str, dict[str, Any]] = {}
    for i, n in enumerate(names):
        if calls[i] == 0:
            continue
        under = parent_name[name == i]
        out[n] = {
            "calls": int(calls[i]),
            "total_ns": float(total[i]),
            "self_ns": float(own[i]),
            "by_parent": {names[p]: int(c) for p, c in zip(*np.unique(under[under >= 0], return_counts=True))},
        }
    return out
