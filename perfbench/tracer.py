"""Span recorder that times stratachern's public functions from outside.

``Tracer.install`` wraps each function named in ``SPANS`` and puts the
wrapper into every ``stratachern`` namespace that holds the function: the
package ``__init__`` and each module that imported it by name.  So calls
between modules are seen too (``harness``, ``witness`` and ``geometry`` call
``build_mesh``; ``mesh`` and ``model`` call ``d_components``).
``uninstall`` restores the originals.  The package source is not touched.

A span is ``(id, parent, name, t0, t1, op, info)``.  Its parent is the
innermost open span on the same thread.  A span opened on another thread
with nothing open there (the ``sweep_mass`` thread pool) is adopted by the
open span named in ``ADOPTERS``.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

#: Traced functions per module.  A name the package no longer has is skipped
#: and reports zero calls.
SPANS = {
    "model": ("d_components", "valence_amplitudes", "bloch_vector_fields",
              "d_component_gradients"),
    "mesh": ("build_mesh", "plaquette_curvature", "chern_number"),
    "witness": ("sector_responses", "reference_phase", "theta_scan", "sweep_mass"),
    "multiorbital": ("coherence_matrix", "sector_response_multi"),
    "geometry": ("qgt_sample_arrays", "inequality_suite"),
    "harness": ("run_all",),
    "cli": ("main",),
}

#: Spans whose worker threads' top-level spans count as their children.
ADOPTERS = frozenset({"witness.sweep_mass"})


def _kpoints(k, *args, **kwargs) -> int:
    return math.prod(np.shape(k)[:-1])


def _mesh_key(p, nx, ny, *args, **kwargs):
    return (repr(p), int(nx), int(ny))


#: Per-call facts recorded in a span's ``info``, computed from the arguments.
INFO = {
    "model.d_components": _kpoints,
    "geometry.qgt_sample_arrays": _kpoints,
    "mesh.build_mesh": _mesh_key,
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in SPANS.items() for fn in fns)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: Index of the op in progress; spans outside an op are dropped.
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: int | None = None
        self._home = threading.get_ident()
        self._patched: list[tuple] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        wrappers = {}
        for mod, names in SPANS.items():
            module = importlib.import_module(f"stratachern.{mod}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{name}", fn))
        for modname, module in list(sys.modules.items()):
            if modname != "stratachern" and not modname.startswith("stratachern."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        info_of = INFO.get(name)
        adopts = name in ADOPTERS
        local, ids, spans = self._local, self._ids, self.spans
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._home:
                parent = self._adopter
            else:
                parent = None
            sid = next(ids)
            info = info_of(*args, **kwargs) if info_of is not None else None
            stack.append(sid)
            if adopts:
                self._adopter = sid
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if adopts:
                    self._adopter = None
                spans.append((sid, parent, name, t0, t1, self.op, info))

        return span

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines."""
        keys = ("id", "parent", "name", "t0", "t1", "op", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, ops) -> dict:
    """Per-op layer metrics over the traced ops: name -> (value, unit).

    ``.calls`` and the counts are means per op; times are medians over ops.
    A span's own time is its duration minus the part its children cover.
    """
    ops = list(ops)
    kids = defaultdict(list)
    for s in spans:
        kids[s[1]].append((s[3], s[4]))
    calls = defaultdict(int)
    incl = defaultdict(lambda: defaultdict(float))
    own = defaultdict(lambda: defaultdict(float))
    kpoints = defaultdict(int)
    builds = defaultdict(list)
    sweep_wall = defaultdict(float)
    sweep_busy = defaultdict(float)
    for sid, _, name, t0, t1, op, info in spans:
        if op is None:
            continue
        children = kids.get(sid, ())
        calls[name] += 1
        incl[name][op] += t1 - t0
        own[name][op] += (t1 - t0) - covered(children, t0, t1)
        if name == "mesh.build_mesh":
            builds[op].append(info)
            kpoints[name] += info[1] * info[2]
        elif info is not None:
            kpoints[name] += info
        if name in ADOPTERS:
            sweep_wall[op] += t1 - t0
            sweep_busy[op] += sum(b - a for a, b in children)

    n = max(len(ops), 1)

    def per_op_median(table) -> float:
        return statistics.median(table.get(op, 0.0) for op in ops) if ops else 0.0

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name] / n, "count")
        out[f"{name}.self_s"] = (per_op_median(own[name]), "s")
        out[f"{name}.incl_s"] = (per_op_median(incl[name]), "s")
    for name in ("model.d_components", "mesh.build_mesh", "geometry.qgt_sample_arrays"):
        out[f"{name}.kpoints"] = (kpoints[name] / n, "count")
    total_builds = sum(len(b) for b in builds.values())
    unique = sum(len(set(b)) for b in builds.values())
    out["mesh.build_mesh.unique_frac"] = (unique / total_builds if total_builds else 0.0, "frac")
    out["witness.sweep_mass.wait_s"] = (per_op_median(own["witness.sweep_mass"]), "s")
    swept = [op for op in ops if sweep_wall.get(op)]
    out["witness.sweep_mass.parallelism"] = (
        statistics.median(sweep_busy[op] / sweep_wall[op] for op in swept) if swept else 0.0,
        "ratio",
    )
    return out
