"""Span tracing of the package's layers, installed from outside ``src/``.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with
a wrapper that records a span (name, start, end, parent) and per-layer
counts.  Modules import functions by name (``from .geometry import
christoffels``), so the wrapper is rebound in every ``umbilic`` module
namespace that holds the original object; rebinding the attribute of
``geometry`` also catches the module's own internal calls.  Methods are
wrapped on their class.  ``Tracer.restore`` puts every original back and
returns the number of bindings that did not come back.

Spans stay in memory until ``write_spans``.  A span's self time is its
duration minus the time its child spans cover; calls are single-threaded
here, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter


def _batch_points(p):
    shape = getattr(p, "shape", None)
    if shape is None:
        return 1
    return int(math.prod(shape[:-1]))


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _grid_points(args, kwargs):
    return int(_arg(args, kwargs, 1, "n_u", 48)) * int(_arg(args, kwargs, 2, "n_v", 48))


def _file_bytes(args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _suite_name(args, kwargs):
    return "verify.run_suite." + str(_arg(args, kwargs, 0, "name"))


def _trial_name(args, kwargs):
    return "verify.trial_defect." + str(_arg(args, kwargs, 1, "family"))


# (module, attribute, class or None, span name or fn(args, kwargs),
#  points fn(args, kwargs) or None, counters fn(args, kwargs, result) or None)
TARGETS = [
    ("geometry", "christoffels", None, "geometry.christoffels",
     lambda a, k: _batch_points(_arg(a, k, 1, "p")), None),
    ("geometry", "riemann", None, "geometry.riemann",
     lambda a, k: _batch_points(_arg(a, k, 1, "p")), None),
    ("geometry", "metric_at", None, "geometry.metric_at", None, None),
    ("geometry", "cross", None, "geometry.cross", None, None),
    ("geometry", "inner", None, "geometry.inner", None, None),
    ("profiles", "s2xr_profile", None, "profiles.build", None, None),
    ("profiles", "h2xr_elliptic_profile", None, "profiles.build", None, None),
    ("profiles", "h2xr_parabolic_profile", None, "profiles.build", None, None),
    ("profiles", "h2xr_hyperbolic_profile", None, "profiles.build", None, None),
    ("profiles", "sol_profile", None, "profiles.build", None, None),
    ("profiles", "jet", "GeneratingCurve", "profiles.curve_jet",
     lambda a, k: int(getattr(_arg(a, k, 1, "s"), "size", 1)), None),
    ("families", "build", "FamilyDefinition", "families.build_family", None, None),
    ("surfaces", "curvature_report", None, "surfaces.curvature_report",
     _grid_points, None),
    ("surfaces", "classify_slice_structure", None,
     "surfaces.classify_slice_structure", None, None),
    ("verify", "trial_defect", None, _trial_name, None,
     lambda a, k, r: {"verify.trial_defect.penalized": float(r == 1e3)}),
    ("verify", "nonexistence_falsifier", None, "verify.nonexistence_falsifier",
     None, lambda a, k, r: {"verify.falsifier.n_evals": r["n_evals"],
                            "verify.falsifier.partial": float(r["partial"])}),
    ("verify", "run_suite", None, _suite_name, None, None),
    ("conformal", "conformality_check", None, "conformal.conformality_check",
     None, None),
    ("conformal", "sol_flattening", None, "conformal.sol_flattening", None, None),
    ("meshes", "write_obj", None, "meshes.write", None,
     lambda a, k, r: {"meshes.write.bytes": _file_bytes(a, k, r)}),
    ("meshes", "write_ply", None, "meshes.write", None,
     lambda a, k, r: {"meshes.write.bytes": _file_bytes(a, k, r)}),
    ("meshes", "write_curve_csv", None, "meshes.write", None,
     lambda a, k, r: {"meshes.write.bytes": _file_bytes(a, k, r)}),
    ("meshes", "defect_quality", None, "meshes.defect_quality", None, None),
    ("cli", "main", None, "cli.main", None, None),
]


class Tracer:
    """In-memory spans and per-name totals (calls, points, wall, self)."""

    def __init__(self):
        # span: [name, start, end, parent index, self seconds]
        self.spans = []
        self._stack = []  # [span index, seconds covered by children]
        self.totals = defaultdict(lambda: {"calls": 0, "points": 0,
                                           "wall_s": 0.0, "self_s": 0.0})
        self.counters = defaultdict(float)
        self._bindings = []  # (namespace, attribute, original)

    # -- spans ---------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, None])
        self._stack.append([len(self.spans) - 1, 0.0])

    def close(self, points=0):
        end = perf_counter()
        index, covered = self._stack.pop()
        span = self.spans[index]
        duration = end - span[1]
        span[2] = end
        span[4] = duration - covered
        total = self.totals[span[0]]
        total["calls"] += 1
        total["points"] += points
        total["wall_s"] += duration
        total["self_s"] += span[4]
        if self._stack:
            self._stack[-1][1] += duration
        return index

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn, name, points, counters):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name(args, kwargs) if callable(name) else name)
            n = 0
            try:
                result = fn(*args, **kwargs)
                n = points(args, kwargs) if points else 0
                if counters:
                    for key, value in counters(args, kwargs, result).items():
                        tracer.counters[key] += value
                return result
            finally:
                tracer.close(n)

        return traced

    def install(self):
        """Wrap every target; returns the number of bindings replaced."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "umbilic" or key.startswith("umbilic."))]
        for mod_name, attr, cls_name, name, points, counters in TARGETS:
            home = sys.modules["umbilic." + mod_name]
            if cls_name is not None:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._bindings.append((cls, attr, original))
                setattr(cls, attr, self.wrap(original, name, points, counters))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(original, name, points, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, key, original))
                        setattr(mod, key, wrapper)
        return len(self._bindings)

    def restore(self):
        """Put every original back; returns how many bindings still differ."""
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)
        missed = sum(1 for namespace, attr, original in self._bindings
                     if vars(namespace).get(attr) is not original)
        self._bindings = []
        return missed

    # -- output --------------------------------------------------------------

    def op_attribution(self, op_index):
        """Share of an op span's time covered by library-layer spans.

        The op span's own self time and the self time of ``cli.main``
        (argument parsing, JSON emission, and any code no target covers) are
        the unattributed part.
        """
        op = self.spans[op_index]
        duration = op[2] - op[1]
        unattributed = op[4]
        for span in self.spans[op_index + 1:]:
            if span[3] == op_index and span[0] == "cli.main":
                unattributed += span[4]
        return 1.0 - unattributed / duration if duration > 0 else 0.0

    def write_spans(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, self_s) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "self_s": self_s}) + "\n")
