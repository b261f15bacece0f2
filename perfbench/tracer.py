"""Outside-in tracing of the igeo package, with no edits to its source.

Every public module-level function of every igeo module is wrapped, and the
wrapper is bound in each module namespace that holds the original, because
modules import each other's functions by name (``from .numerics import
derive``).  A wrapper records a span: name, start, end and the span that was
open when it started.  Self time is the span's duration minus the time its
child spans cover, kept on a span stack while the program runs.

Counts that no function boundary shows are taken by wrapping values:

* the ``fn`` handed to ``numerics.derive`` counts stencil nodes;
* the ``log_density`` of every model returned by ``models.load_model``,
  ``dualflat.family_model`` and ``submanifold.composed_model`` is replaced
  (``dataclasses.replace``) by a spanned wrapper that also counts rows;
* the callables returned by ``expressions.compile_expression`` become
  ``expressions.eval`` spans.

Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("numerics", "expressions", "models", "infogeo", "dualflat",
           "immersion", "submanifold", "cli")

# models.log_density (the scalar helper) would share its span name with the
# per-model callable; the pipeline never calls it.
_SKIP = {"igeo.models.log_density"}

# Pointwise quantities whose argument reuse is measured: span -> key of args.
_DISTINCT = {
    "infogeo.fisher_metric": lambda a: (a[0].label, _point(a[1])),
    "infogeo.alpha_connection": lambda a: (a[0].label, _point(a[1]), float(a[2])),
    "immersion.decompose": lambda a: (a[0].label, _point(a[1])),
}


def _point(theta) -> bytes:
    return np.atleast_1d(np.asarray(theta, dtype=float)).tobytes()


class Tracer:
    """Span recorder plus evaluation counters over the patched package."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.calls: list = []
        self.self_ns: list = []
        self.total_ns: list = []
        self.edges = Counter()          # (parent name id, name id) -> calls
        self.counts = Counter()         # derive.nodes, log_density.rows, ...
        self.distinct = {name: set() for name in _DISTINCT}
        self.spans = array("q")         # id, parent, name id, start, end
        self._stack: list = []          # [span id, child ns, name id]
        self._next = 0
        self._patches: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.total_ns.append(0)
        return self._ids[name]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call is a span; ``after`` maps the result."""
        nid = self._name_id(name)
        key_of = _DISTINCT.get(name)
        stack, clock = self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if key_of is not None:
                self.distinct[name].add(key_of(args))
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0, nid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                    self.edges[parent[2], nid] += 1
                self.calls[nid] += 1
                self.self_ns[nid] += dur - frame[1]
                self.total_ns[nid] += dur
                self.spans.extend((sid, -1 if parent is None else parent[0],
                                   nid, start, end))
            return result if after is None else after(result)

        return wrapper

    # -- value wrappers -----------------------------------------------------

    def _counted_model(self, model):
        inner = model.log_density

        def log_density(x, theta):
            self.counts["models.log_density.rows"] += len(x) if getattr(x, "ndim", 0) > 1 else 1
            return inner(x, theta)

        return dataclasses.replace(
            model, log_density=self.span("models.log_density", log_density))

    def _derive(self, derive):
        spanned = self.span("numerics.derive", derive)

        def wrapper(fn, *args, **kwargs):
            def node(x):
                self.counts["numerics.derive.nodes"] += 1
                return fn(x)
            return spanned(node, *args, **kwargs)

        return wrapper

    def _geodesic(self, geodesic):
        signature = inspect.signature(geodesic)
        spanned = self.span("dualflat.geodesic", geodesic)

        def wrapper(*args, **kwargs):
            steps = signature.bind(*args, **kwargs).arguments["steps"]
            self.counts["dualflat.geodesic.steps"] += int(steps)
            return spanned(*args, **kwargs)

        return wrapper

    # -- install / remove ---------------------------------------------------

    def install(self):
        mods = [importlib.import_module(f"igeo.{m}") for m in MODULES]
        special = {
            "igeo.numerics.derive": self._derive,
            "igeo.dualflat.geodesic": self._geodesic,
            "igeo.expressions.compile_expression": lambda f: self.span(
                "expressions.compile_expression", f,
                after=lambda c: self.span("expressions.eval", c)),
        }
        for model_factory in ("igeo.models.load_model",
                              "igeo.dualflat.family_model",
                              "igeo.submanifold.composed_model"):
            special[model_factory] = lambda f, n=model_factory: self.span(
                n[len("igeo."):], f, after=self._counted_model)

        wrappers = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                full = f"{mod.__name__}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or full in _SKIP):
                    continue
                make = special.get(full)
                wrappers[obj] = make(obj) if make else self.span(full[len("igeo."):], obj)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def stat(self, name: str):
        """(calls, self seconds, inclusive seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.self_ns[nid] / 1e9, self.total_ns[nid] / 1e9

    def edge(self, parent: str, child: str) -> int:
        if parent not in self._ids or child not in self._ids:
            return 0
        return self.edges[self._ids[parent], self._ids[child]]

    def distinct_ratio(self, name: str) -> float:
        calls = self.stat(name)[0]
        return len(self.distinct[name]) / calls if calls else 1.0

    def write_spans(self, path):
        """Tab-separated spans: id, parent id (-1 at the root), name, start
        and end in ns since the first span."""
        origin = min(self.spans[3::5], default=0)
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            s = self.spans
            for i in range(0, len(s), 5):
                fh.write(f"{s[i]}\t{s[i + 1]}\t{self.names[s[i + 2]]}\t"
                         f"{s[i + 3] - origin}\t{s[i + 4] - origin}\n")
