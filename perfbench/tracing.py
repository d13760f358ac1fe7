"""Spans at rlmdual's layer boundaries, installed from outside the package.

:func:`install` rebinds every public function of each layer module under every
name a module of the package binds it to (``rlmdual.model.g_of_t`` as well as
``rlmdual.scalars.g_of_t``), the public ``RlmProvider`` methods, and
``scipy.linalg.expm`` / ``scipy.integrate.quad`` where the package calls them.
Each call records a span (name, start, end, parent) in memory.  ``expm`` and
``quad`` spans are counted but do not open a level of their own: their time is
self time of the layer that called them, and spans started inside them (a
kernel evaluated by ``quad``) take that caller as parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("scalars", "liouville", "model", "verify", "markov", "cli")
MEMO_METHODS = ("model.g", "model.g_dual", "model.p")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str | None] = []
        self.external: list[bool] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []
        self.enabled = True

    def _name_id(self, name: str, layer: str | None, external: bool) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.external.append(external)
        return self._ids[name]

    def wrap(self, fn, name: str, layer: str | None, external: bool = False):
        nid = self._name_id(name, layer, external)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            if not external:
                self._open.append(i)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                if not external:
                    self._open.pop()

        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.asarray(self.name, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "start": np.asarray(self.start), "end": np.asarray(self.end)}

    def save(self, path: str):
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Counts and self times per layer and per span name."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = a["end"] - a["start"]
        n = len(name)
        external = np.array(self.external, dtype=bool)[name] if n else np.zeros(0, bool)
        has_parent = parent >= 0
        cover = np.zeros(n)
        inner = has_parent & ~external
        np.add.at(cover, parent[inner], dur[inner])
        self_time = dur - cover
        children = np.bincount(parent[has_parent], minlength=n)
        layer_of_name = np.array([lay or "" for lay in self.layers], dtype=object)
        span_layer = layer_of_name[name] if n else np.zeros(0, object)
        # an expm or quad span belongs to the layer that called it
        ext_idx = np.where(external & has_parent)[0]
        span_layer[ext_idx] = span_layer[parent[ext_idx]]

        out = {"spans": n, "layer_self_s": {}, "calls": {}, "self_s": {}, "layer_calls": {}}
        for layer in LAYERS:
            mask = (span_layer == layer) & ~external
            out["layer_self_s"][layer] = float(self_time[mask].sum())
        for nid, nm in enumerate(self.names):
            mask = name == nid
            if self.external[nid]:
                for layer in LAYERS:
                    key = f"{layer}.{nm}"
                    out["layer_calls"][key] = int((mask & (span_layer == layer)).sum())
            else:
                out["calls"][nm] = int(mask.sum())
                out["self_s"][nm] = float(self_time[mask].sum())
        memo = np.isin(name, [self._ids[m] for m in MEMO_METHODS if m in self._ids])
        out["memo_requests"] = int(memo.sum())
        out["memo_hits"] = int((memo & (children == 0)).sum())
        cp_id = self._ids.get("markov.cp_onset_time", -2)
        cp = name == cp_id
        nested = cp & has_parent
        nested[nested] = name[parent[nested]] == cp_id
        out["cp_onset_top"] = int((cp & ~nested).sum())
        out["cp_onset_all"] = int(cp.sum())
        return out


def install(tracer: Tracer):
    """Rebind the package's public functions and external kernels to traced wrappers."""
    import scipy.linalg

    package = importlib.import_module("rlmdual")
    modules = {layer: importlib.import_module(f"rlmdual.{layer}") for layer in LAYERS}
    wrapped: dict[int, tuple] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(obj, f"{layer}.{attr}", layer))
    for mod in (package, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    provider = modules["model"].RlmProvider
    for attr, obj in list(vars(provider).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            setattr(provider, attr, tracer.wrap(obj, f"model.{attr}", "model"))

    for mod in (modules["model"], modules["markov"]):
        mod.expm = tracer.wrap(mod.expm, "expm", None, external=True)
    # verify imports expm when its functional fixed-point check runs
    scipy.linalg.expm = tracer.wrap(scipy.linalg.expm, "expm", None, external=True)
    scalars = modules["scalars"]
    scalars.quad = tracer.wrap(scalars.quad, "quad", None, external=True)
