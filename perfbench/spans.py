"""Span tracer that wraps the lenspace modules from outside.

Every public function defined in one of the layer modules (plus the
Dijkstra routine that ``lenspace.space`` imports from scipy) is replaced,
in every ``lenspace`` module namespace and module-level dict that holds
it, by a wrapper that records a span (name, start, end, parent, info).
Spans stay in memory; ``summarize`` derives per-name call counts,
inclusive time and self time from them.  ``uninstall`` puts every
original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("space", "generators", "hopflax", "transport", "fields",
          "inequalities", "cli")

# functions imported from elsewhere that a layer's own cost depends on
FOREIGN = {"space": ("shortest_path",)}


def _span_info(name: str, args, kwargs, result):
    """Extra per-call facts some metrics need; None for most spans."""
    if name == "hopflax.apply":
        space = args[0] if args else kwargs["space"]
        return {"cells": space.n * space.n}
    if name == "transport.w2":
        return {"gap": float(result[1].duality_gap)}
    return None


def _span_name(name: str, args, kwargs) -> str:
    if name == "inequalities.estimate_constant":
        which = args[1] if len(args) > 1 else kwargs["which"]
        return f"{name}:{which}"
    return name


def _targets() -> dict:
    """Map id(original) -> (original, span name) for every traced function."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"lenspace.{layer}"]
        for key, obj in vars(mod).items():
            own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
            if (own and not key.startswith("_")) or key in FOREIGN.get(layer, ()):
                found[id(obj)] = (obj, f"{layer}.{key}")
    return found


class Tracer:
    """Records spans for calls into the lenspace layers while installed."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, info]
        self._stack = []
        self._patches = []     # (namespace dict, key, original)

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [_span_name(name, args, kwargs), 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            span[4] = _span_info(name, args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self):
        """Rebind every traced function wherever a lenspace module holds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {key: self._wrap(fn, name)
                    for key, (fn, name) in _targets().items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lenspace"
                                   or mod_name.startswith("lenspace.")):
                continue
            namespaces = [vars(mod)] + [v for k, v in vars(mod).items()
                                        if isinstance(v, dict) and not k.startswith("__")]
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if id(value) in wrappers and not key.startswith("__"):
                        self._patches.append((ns, key, value))
                        ns[key] = wrappers[id(value)]

    def uninstall(self):
        """Restore every rebound name; raise if any slot changed meanwhile."""
        moved = []
        for ns, key, original in reversed(self._patches):
            if getattr(ns.get(key), "__perfbench_original__", None) is not original:
                moved.append(key)
            ns[key] = original
        self._patches = []
        if moved:
            raise RuntimeError(f"traced names rebound while tracing: {moved}")


def self_times(spans) -> list:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only, so a
    name nested in itself is not counted twice), self seconds, errors by
    type, and the per-call info records with their durations."""
    selfs = self_times(spans)
    out = {}
    for i, (name, start, end, parent, info) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                                      "errors": {}, "info": []})
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["incl_s"] += end - start
        if info and "error" in info:
            entry["errors"][info["error"]] = entry["errors"].get(info["error"], 0) + 1
        elif info:
            entry["info"].append(dict(info, dur_s=end - start))
    return out
