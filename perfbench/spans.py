"""Span recorder for the traced run, installed from outside the library.

Each public function of a layer is wrapped once; the one wrapper is bound in
every ``ellipdw`` module namespace that binds the original, so a call is
recorded once whichever module makes it.  Spans stay in memory as
``[name, start, end, parent, op, points, ok]`` and are written out at the end.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, OP, POINTS, OK = range(7)

THETA_SCALAR = "elliptic.theta_scalar"
THETA_GRID = "elliptic.theta_grid"
# position of the spectral argument u in each theta entry point
THETA_ARG = {"sigma": 0, "sigma_char": 2, "theta_level2": 1, "theta_char": 1}

FUNCTION_LAYERS = {
    "rmatrices": {"vertex_R": "rmatrices.r_build", "vertex_R_matrix": "rmatrices.r_build",
                  "sos_R": "rmatrices.r_build", "sos_R_matrix": "rmatrices.r_build"},
    "boundary": {"vertex_K": "boundary.k_build", "vertex_K_matrix": "boundary.k_build",
                 "face_K": "boundary.k_build"},
    "tensor": {"apply_one_site": "tensor.apply", "apply_two_site": "tensor.apply",
               "product_state": "tensor.apply"},
    "config": {"draw_spectral": "config.draw"},
    "oracle": {"partition_bruteforce": "oracle.route",
               "partition_enumeration": "oracle.route",
               "partition_face_route": "oracle.route"},
    # run_bench calls the private log-space evaluator directly, so it is the
    # determinant route's entry point in bench mode.
    "closedform": {"normalized_z_permsum": "closedform.permsum",
                   "normalized_z_determinant": "closedform.det",
                   "_log_normalized_z_determinant": "closedform.det",
                   "full_z": "closedform.full_z"},
    "report": {"value_digest": "report"},
    "runner": {"run_compare": "runner", "run_identities": "runner",
               "run_bench": "runner"},
}
METHOD_LAYERS = (
    ("oracle", "SpectralConfig", "require_generic", "oracle.require_generic"),
    ("rmatrices", "WeightVector", "require_generic", "rmatrices.require_generic"),
    ("boundary", "BoundaryConfig", "require_generic", "boundary.require_generic"),
    ("report", "PartitionReport", "fill_residuals", "report"),
    ("report", "PartitionReport", "pair_residual", "report"),
    ("report", "PartitionReport", "to_json", "report"),
    ("report", "PartitionReport", "to_csv", "report"),
    ("report", "RouteResult", "as_dict", "report"),
)


class Tracer:
    """Wraps the layer entry points while installed; records one span per call."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, fn, layer: str, theta_arg: int = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name, points = layer, 0
            if theta_arg is not None:
                u = args[theta_arg] if len(args) > theta_arg else kwargs["u"]
                size = getattr(u, "size", 1)
                if getattr(u, "ndim", 0):
                    name, points = THETA_GRID, size
                else:
                    name = THETA_SCALAR
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, points, True]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[OK] = False
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer entry point; each original is wrapped once."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import scipy.linalg

        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "ellipdw" or name.startswith("ellipdw.")}
        elliptic = modules["ellipdw.elliptic"]
        wrappers = {}
        for fname, pos in THETA_ARG.items():
            fn = getattr(elliptic, fname)
            wrappers[id(fn)] = (fn, self._wrap(fn, THETA_SCALAR, pos))
        for mod_name, table in FUNCTION_LAYERS.items():
            mod = modules[f"ellipdw.{mod_name}"]
            for fname, layer in table.items():
                fn = getattr(mod, fname)
                wrappers[id(fn)] = (fn, self._wrap(fn, layer))
        fbasis = modules["ellipdw.fbasis"]
        for fname, fn in vars(fbasis).items():
            if (callable(fn) and not fname.startswith("_") and not isinstance(fn, type)
                    and getattr(fn, "__module__", None) == fbasis.__name__):
                wrappers[id(fn)] = (fn, self._wrap(fn, "fbasis"))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        for mod_name, cls_name, attr, layer in METHOD_LAYERS:
            cls = getattr(modules[f"ellipdw.{mod_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, layer)))
            else:
                self._patch(cls, attr, self._wrap(raw, layer))
        self._patch(scipy.linalg, "lu_factor",
                    self._wrap(scipy.linalg.lu_factor, "closedform.lu"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, header: dict):
        """Spans as gzipped tab-separated rows after a JSON header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            fh.write("name\tstart\tend\tparent\top\tpoints\tok\n")
            for s in self.spans:
                fh.write(f"{s[NAME]}\t{s[START]:.9f}\t{s[END]:.9f}\t{s[PARENT]}\t"
                         f"{s[OP]}\t{s[POINTS]}\t{int(s[OK])}\n")


def layer_totals(spans) -> dict:
    """Per layer: calls, inclusive seconds, self seconds, grid points.

    A call (and its inclusive time) counts only when its parent span belongs
    to another layer, so vertex_R -> vertex_R_matrix is one R build.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
    for i, s in enumerate(spans):
        t = out[s[NAME]]
        dur = s[END] - s[START]
        t["self_s"] += dur - child_time[i]
        t["points"] += s[POINTS]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != s[NAME]:
            t["calls"] += 1
            t["s"] += dur
    return out


def draw_accept_ratio(spans) -> float:
    """Accepted draws over genericity checks run inside draw_spectral."""
    accepted = sum(1 for s in spans if s[NAME] == "config.draw" and s[OK])
    attempts = sum(1 for s in spans if s[NAME] == "oracle.require_generic"
                   and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "config.draw")
    return accepted / attempts if attempts else 0.0
