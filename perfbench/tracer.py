"""Per-layer tracing for the traced benchmark run.

``Tracer.install`` wraps every public function of the ``delone`` modules and
the public methods of ``TriangulationComplex``, and rebinds each name another
module imported with ``from .x import name``, so calls between layers pass
through the wrappers.  ``Tracer.uninstall`` puts the originals back.  The
untraced passes never see a wrapper.

Two kinds of wrapper:

* span: one record per call (name, start, end, parent span, time covered by
  child calls, raised, size).  Used for everything that is called at most
  tens of thousands of times per pass.
* hot: the geometry predicates and the small ``TriangulationComplex``
  accessors are called millions of times; they keep only a call count, total
  time, self time and raise count per (function, calling frame).

Self time of a call is its duration minus the time of the wrapped calls made
directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = (
    "geometry",
    "triangulation",
    "delaunay",
    "generators",
    "functionals",
    "density",
    "oracle",
    "cli",
)

# TriangulationComplex methods that only read stored state: hot wrappers.
HOT_METHODS = frozenset({
    "has_cell", "cell_coords", "cells_array", "vertices_used", "facets",
    "is_interior", "facet_cells", "opposite_vertices",
})


def _first_len(args, kwargs, result):
    return len(args[0]) if args else len(kwargs.get("points", ()))


# Size counts recorded per span: metric suffix and how to read it.
SIZES = {
    "delaunay.delaunay_2d": ("points", _first_len),
    "delaunay.delaunay_3d": ("points", _first_len),
    "triangulation.build_complex": ("cells", lambda a, k, r: r.n_cells),
    "oracle.enumerate_triangulations_2d": ("triangulations", lambda a, k, r: len(r)),
    "triangulation.legalize_to_delaunay": ("flips", lambda a, k, r: len(r[1])),
    "functionals.eval_batch": (
        "simplices", lambda a, k, r: len(a[1]) if len(a) > 1 else len(k["coords"])),
}


def metric_name(module: str, qualname: str) -> str:
    """``cli.cmd_gen`` is reported as ``cli.gen``; everything else as
    ``<module>.<qualified name>``."""
    if module == "cli" and qualname.startswith("cmd_"):
        qualname = qualname[4:]
    return f"{module}.{qualname}"


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, child_s, raised, size)
        self.hot: dict = {}  # (name, caller) -> [calls, total_s, self_s, raised]
        self._stack: list = []  # frames: [span index or -1, name, child_s]
        self._patches: list = []  # (owner, attribute, original)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            frame = [idx, name, 0.0]
            stack.append(frame)
            raised = False
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                t1 = clock()
                stack.pop()
                if stack:
                    stack[-1][2] += t1 - t0
                n = size[1](args, kwargs, result) if size and not raised else 0
                spans[idx] = (name, t0, t1, parent, frame[2], raised, n)

        return wrapper

    def _hot(self, name, fn):
        hot, stack, clock = self.hot, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = stack[-1][1] if stack else ""
            frame = [-1, name, 0.0]
            stack.append(frame)
            raised = False
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][2] += dt
                rec = hot.get((name, caller))
                if rec is None:
                    rec = hot[(name, caller)] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[2]
                rec[3] += raised

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = {layer: importlib.import_module(f"delone.{layer}") for layer in LAYERS}
        package = importlib.import_module("delone")
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                name = metric_name(layer, attr)
                wrap = self._hot if layer == "geometry" else self._span
                replaced[id(obj)] = wrap(name, obj)

        # rebind every module-level name bound to a wrapped function
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])

        cls = modules["triangulation"].TriangulationComplex
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = metric_name("triangulation", f"TriangulationComplex.{attr}")
            wrap = self._hot if attr in HOT_METHODS else self._span
            if inspect.isfunction(obj):
                self._set(cls, attr, wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(wrap(name, obj.__func__)))

    def absorb(self, seconds):
        """Count ``seconds`` spent outside the program (a calibration sample)
        as child time of the innermost open call, so no self time holds it."""
        if self._stack:
            self._stack[-1][2] += seconds

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def stats(self) -> dict:
        """Per function: calls, total_s, self_s, raised, size; plus
        ``by_caller``, keyed "function<-caller", for calls and raises split by
        the directly calling wrapped function."""
        out: dict = {}
        by_caller: dict = {}

        def entry(name):
            return out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "raised": 0, "size": 0})

        for name, t0, t1, parent, child_s, raised, size in self.spans:
            e = entry(name)
            e["calls"] += 1
            e["total_s"] += t1 - t0
            e["self_s"] += (t1 - t0) - child_s
            e["raised"] += raised
            e["size"] += size
            caller = self.spans[parent][0] if parent >= 0 else ""
            c = by_caller.setdefault(f"{name}<-{caller}", [0, 0])
            c[0] += 1
            c[1] += raised
        for (name, caller), (calls, total, self_s, raised) in self.hot.items():
            e = entry(name)
            e["calls"] += calls
            e["total_s"] += total
            e["self_s"] += self_s
            e["raised"] += raised
            c = by_caller.setdefault(f"{name}<-{caller}", [0, 0])
            c[0] += calls
            c[1] += raised
        return {"functions": out, "by_caller": by_caller}

    def write_spans(self, path):
        """Write the spans, then the hot aggregates, as one JSON document."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "child_s",
                               "raised", "size"],
                    "spans": self.spans,
                    "hot": [[name, caller, *rec]
                            for (name, caller), rec in self.hot.items()],
                },
                fh,
            )
