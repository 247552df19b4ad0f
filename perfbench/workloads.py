"""The three benchmark workloads: their fixed op lists, the op, and its check.

An op list is ``groups`` groups of ops, each group one op per size on fresh
draws.  An op's work varies with its draw (rejection tries in the genericity
check, the length of the theta series), by a tenth or more at one size, so a
run times several draws per size: a list takes 20-30 s on a 2-vCPU Xeon.
det-scale has one group, run in several passes: its check re-draws and
factorises each op's input, which costs as much as the op.

Each op is one call to a public entry point that a CLI user waits for.  Its
check runs outside the timed region and returns the op's error over its
tolerance: a ratio <= 1 passes, a larger one (or ``math.inf`` when the output
cannot be checked) fails.

* ``identities`` -- ``run_identities`` at seeds s, s+1, ...  Mostly scalar theta
  calls; exercises ``rmatrices``, ``boundary`` and ``fbasis``; almost no grid
  theta, LU or large contraction.
* ``det-scale`` -- ``run_bench`` on the determinant route, N = 16 .. 512 (the
  top size is the route's guard).  Grid theta, the genericity-checked draw and
  LU; little scalar theta.
* ``compare`` -- ``run_compare`` with the default routes, N in {6, 8, 9, 10,
  12}, which reaches the guards of permsum (9), face (10) and bruteforce (12).
  Tensor contraction, R/K builds, the permsum kernel and the report; no grid
  theta at scale and no LU of size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ellipdw import closedform, runner
from ellipdw.config import RunConfig, draw_spectral, parse_config
from ellipdw.oracle import SpectralConfig
from ellipdw.report import value_digest
from ellipdw.rmatrices import GENERICITY_FLOOR

DET_SIZES = (16, 32, 64, 128, 256, 512)
COMPARE_SIZES = (6, 8, 9, 10, 12)
# compare's default tol; log Z is symmetric in u and in xi, so a permutation
# may change it only by rounding.
COMPARE_TOL = 1e-9
PERMUTATION_TOL = 1e-9
# Runs with neighbouring --seed values must not share op inputs.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Op:
    label: str
    config_text: str
    cfg: RunConfig


@dataclass(frozen=True)
class Workload:
    name: str
    groups: int
    # kind of reference kernel that times the host speed (run.KERNELS)
    reference: str
    # ops(seed, groups) -> the op list
    ops: Callable[[int, int], list]
    run: Callable[[Op], object]
    # check(op, output, cache) -> error / tolerance; cache holds per-op
    # reference values so a repeated op is not re-derived.
    check: Callable[[Op, object, dict], float]


def _op(label: str, text: str) -> Op:
    return Op(label, text, parse_config(text))


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def identity_ops(seed: int, groups: int) -> list:
    base = seed * SEED_STRIDE
    return [_op(f"identities seed={base + k}", f"{{mode: identities, seed: {base + k}}}")
            for k in range(groups)]


def check_identities(op: Op, out: dict, cache: dict) -> float:
    """Worst residual over its own tolerance across the named checks."""
    checks = out.get("checks") or []
    if not checks:
        return math.inf
    worst = 0.0
    for c in checks:
        res, tol = float(c["max_residual"]), float(c["tolerance"])
        if not (math.isfinite(res) and tol > 0):
            return math.inf
        worst = max(worst, res / tol)
    if bool(out["pass"]) != (worst <= 1.0):
        return math.inf
    return worst


# ---------------------------------------------------------------------------
# det-scale
# ---------------------------------------------------------------------------

def _sub_seeds(seed: int, groups: int, sizes: tuple) -> list:
    """(size, input seed) for each op, group by group."""
    base = seed * SEED_STRIDE
    return [(n, base + g * len(sizes) + k) for g in range(groups)
            for k, n in enumerate(sizes)]


def det_ops(seed: int, groups: int) -> list:
    return [_op(f"det-scale N={n} seed={s}",
                f"{{mode: bench, seed: {s}, routes: [determinant], n_sweep: [{n}]}}")
            for n, s in _sub_seeds(seed, groups, DET_SIZES)]


def run_det(op: Op) -> dict:
    return runner.run_bench(op.cfg)


def _log_z(spectral, cfg) -> complex:
    # The log-space value bench mode times (see runner._bench_value).
    return closedform._log_normalized_z_determinant(spectral, cfg.bc, cfg.setup,
                                                    GENERICITY_FLOOR)


def det_reference(op: Op):
    """(digest, permutation residual) of the op's draw, derived once per op.

    The draw is the one ``run_bench`` makes (seed + N); permuting u and xi of
    that draw must leave log Z unchanged mod 2*pi*i.
    """
    cfg = op.cfg
    n = cfg.n_sweep[0]
    spectral = draw_spectral(n, cfg.seed + n, cfg.setup, cfg.bc)
    log_z = _log_z(spectral, cfg)
    rng = np.random.default_rng(cfg.seed)
    u = np.asarray(spectral.u)[rng.permutation(n)]
    xi = np.asarray(spectral.xi)[rng.permutation(n)]
    log_p = _log_z(SpectralConfig(u=tuple(u), xi=tuple(xi)), cfg)
    diff = log_p - log_z
    phase = math.remainder(diff.imag, 2 * math.pi)
    return (value_digest(log_mag=log_z.real, phase=log_z.imag),
            math.hypot(diff.real, phase))


def check_det(op: Op, out: dict, cache: dict) -> float:
    rows = out.get("rows") or []
    if len(rows) != 1 or rows[0]["status"] != "ok":
        return math.inf
    if op.label not in cache:
        cache[op.label] = det_reference(op)
    digest, residual = cache[op.label]
    if rows[0]["digest"] != digest:
        return math.inf  # the timed call produced another value than the one checked
    return residual / PERMUTATION_TOL


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare_ops(seed: int, groups: int) -> list:
    return [_op(f"compare N={n} seed={s}",
                f"{{mode: compare, N: {n}, seed: {s}, tol: {COMPARE_TOL!r}}}")
            for n, s in _sub_seeds(seed, groups, COMPARE_SIZES)]


def run_compare(op: Op):
    report = runner.run_compare(op.cfg)
    report.to_json()  # the CLI prints this; emitting it is part of the op
    return report


def check_compare(op: Op, report, cache: dict) -> float:
    """Worst pairwise relative difference of the route values over tol."""
    routes = report.routes
    if set(routes) != set(op.cfg.routes) or len(routes) < 2:
        return math.inf
    values = []
    for r in routes.values():
        if r.status != "ok" or r.value is None or not np.isfinite(r.value):
            return math.inf
        values.append(complex(r.value))
    worst = 0.0
    for i, a in enumerate(values):
        for b in values[i + 1:]:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    return worst / COMPARE_TOL


WORKLOADS = {
    "identities": Workload("identities", 7, "scalar", identity_ops,
                           lambda op: runner.run_identities(op.cfg), check_identities),
    "det-scale": Workload("det-scale", 1, "array", det_ops, run_det, check_det),
    "compare": Workload("compare", 4, "scalar", compare_ops, run_compare, check_compare),
}
