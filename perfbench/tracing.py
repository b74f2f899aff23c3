"""Spans around polyshift's public entry points, recorded from outside the
package, and the per-layer metrics derived from them.

`instrument(tracer)` rebinds each wrapped function in every polyshift
module that holds a reference to it (``from .geometry import intersect``
copies the reference, so patching only the defining module would miss
those callers) and wraps the `Polytope` and `ShiftStream` methods on
their classes.  It returns an undo function.  Spans live in flat arrays
and are written out only after the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (span name, module, attribute): module-level functions rebound by identity
FUNCTIONS = (
    ("geometry.intersect", "polyshift.geometry", "intersect"),
    ("geometry.clip", "polyshift.geometry", "clip"),
    ("geometry.clip_both", "polyshift.geometry", "clip_both"),
    ("geometry.minkowski_sum", "polyshift.geometry", "minkowski_sum"),
    ("geometry.affine_image", "polyshift.geometry", "affine_image"),
    ("geometry.dilate", "polyshift.geometry", "dilate"),
    ("counting.count_at", "polyshift.counting", "count_at"),
    ("distributions.exact_variance", "polyshift.distributions", "exact_variance"),
    ("distributions.exact_distribution", "polyshift.distributions", "exact_distribution"),
    ("distributions.mc_distribution", "polyshift.distributions", "mc_distribution"),
    ("verifier.verify", "polyshift.verifier", "verify"),
    ("cli.main", "polyshift.cli", "main"),
)

# (span name, module, class, method): wrapped on the class itself
METHODS = (
    ("geometry.polytope_init", "polyshift.geometry", "Polytope", "__init__"),
    ("geometry.volume", "polyshift.geometry", "Polytope", "volume"),
    ("geometry.facets", "polyshift.geometry", "Polytope", "facets"),
    ("counting.draw", "polyshift.counting", "ShiftStream", "draw"),
)

# result predicates behind the useful-outcome ratios
OUTCOMES = {
    "geometry.intersect": lambda p: not p.is_empty and p.is_full_dim,
    "geometry.volume": lambda v: v == 0,
    "counting.count_at": lambda r: r.is_generic,
}

# span names whose call count and inclusive time are reported
REPORTED = (
    "geometry.intersect",
    "geometry.clip",
    "geometry.clip_both",
    "geometry.volume",
    "geometry.facets",
    "geometry.polytope_init",
    "geometry.minkowski_sum",
    "geometry.affine_image",
    "geometry.dilate",
    "counting.count_at",
    "counting.draw",
    "distributions.exact_variance",
    "distributions.exact_distribution",
    "distributions.mc_distribution",
    "verifier.verify",
)

LAYERS = ("geometry", "counting", "distributions", "verifier", "catalog", "cli")


class Tracer:
    """In-memory span store: name id, start, end, parent index, job id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.hits: dict[str, int] = {}
        self.job_id = -1
        self._stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def spans(self):
        """(name, start, end, parent, job) tuples in opening order."""
        names = self.names
        return [
            (names[n], s, e, p, j)
            for n, s, e, p, j in zip(self.name, self.start, self.end, self.parent, self.job)
        ]

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for name, s, e, p, j in self.spans():
                fh.write(json.dumps([name, s, e, p, j]) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    outcome = OUTCOMES.get(name)
    if outcome is not None:
        tracer.hits.setdefault(name, 0)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if outcome is not None and outcome(result):
            tracer.hits[name] += 1
        return result

    return traced


def _catalog_functions():
    catalog = sys.modules["polyshift.catalog"]
    for attr, obj in vars(catalog).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == catalog.__name__
        ):
            yield f"catalog.{attr}", catalog.__name__, attr


def instrument(tracer: Tracer):
    """Wrap every traced entry point; returns a function that undoes it."""
    # every module a wrapped name can live in
    from polyshift import catalog, cli, counting, distributions, geometry, verifier  # noqa: F401

    modules = [m for n, m in sys.modules.items() if n == "polyshift" or n.startswith("polyshift.")]
    undo = []
    for name, mod_name, attr in list(FUNCTIONS) + list(_catalog_functions()):
        original = getattr(sys.modules[mod_name], attr)
        wrapped = _wrap(tracer, name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, original))
    for name, mod_name, cls_name, attr in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, name, original))
        undo.append((cls, attr, original))

    def restore():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return restore


def self_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Per-layer self time, per-name outermost inclusive time, per-name calls.

    `spans` is a sequence of (name, start, end, parent, job) in opening
    order.  A span's self time is its duration minus the durations of its
    direct children; spans nest strictly because the run is single-threaded.
    Inclusive time counts only spans with no same-named ancestor, so
    recursion is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, s, e, p, _ in spans:
        if p >= 0:
            child_time[p] += e - s
    layer_self: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, s, e, p, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + (e - s) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        a = p
        while a >= 0 and spans[a][0] != name:
            a = spans[a][3]
        if a < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (e - s)
    return layer_self, inclusive, calls


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer metric values (seconds, counts, ratios) and all call counts."""
    layer_self, inclusive, calls = self_times(tracer.spans())
    out: dict[str, float] = {}
    for name in REPORTED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.s"] = inclusive.get(name, 0.0)

    def ratio(name):
        n = calls.get(name, 0)
        return tracer.hits.get(name, 0) / n if n else 0.0

    out["geometry.intersect.nonempty_ratio"] = ratio("geometry.intersect")
    out["geometry.volume.zero_ratio"] = ratio("geometry.volume")
    n_count = calls.get("counting.count_at", 0)
    out["counting.count_at.us_per_call"] = (
        1e6 * inclusive.get("counting.count_at", 0.0) / n_count if n_count else 0.0
    )
    out["counting.generic_ratio"] = ratio("counting.count_at")
    out["cli.main.calls"] = calls.get("cli.main", 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return out, calls
