"""Route orchestration: compare, identity suite, and benchmark modes."""

from __future__ import annotations

import cmath
import time
from functools import partial

import numpy as np

from . import boundary, closedform, elliptic, fbasis, oracle, rmatrices
from .config import ROUTE_GUARDS, RunConfig, draw_spectral, spectral_for
from .errors import EllipdwError
from .report import PartitionReport, RouteResult, value_digest
from .tensor import max_abs


def _route_value(route: str, spectral, bc, setup):
    if route == "enumeration":
        return oracle.partition_enumeration(spectral, bc, setup)
    if route == "bruteforce":
        return oracle.partition_bruteforce(spectral, bc, setup)
    if route == "face":
        return oracle.partition_face_route(spectral, bc, setup)
    if route == "permsum":
        return closedform.full_z(spectral, bc, setup, "permsum")
    if route == "determinant":
        return closedform.full_z(spectral, bc, setup, "determinant")
    raise ValueError(f"unknown route {route!r}")


def run_compare(cfg: RunConfig) -> PartitionReport:
    """Evaluate every requested route and report values and residuals."""
    report = PartitionReport(params=cfg.params_echo())
    try:
        spectral = spectral_for(cfg)
    except EllipdwError as exc:
        report.routes["draw"] = RouteResult(status=f"error: {exc}")
        report.passed = False
        return report
    report.params["u"] = [[z.real, z.imag] for z in map(complex, spectral.u)]
    report.params["xi"] = [[z.real, z.imag] for z in map(complex, spectral.xi)]
    for route in cfg.routes:
        t0 = time.perf_counter()
        try:
            value = _route_value(route, spectral, cfg.bc, cfg.setup)
            # a closed form saturates past the double range to a phased inf
            result = (RouteResult(value=value, digest=value_digest(value))
                      if cmath.isfinite(value) else
                      RouteResult(status=f"error: value {value} overflows the double range"))
        except EllipdwError as exc:
            result = RouteResult(status=f"error: {type(exc).__name__}: {exc}")
        result.seconds = time.perf_counter() - t0
        report.routes[route] = result
    report.fill_residuals(cfg.tol)
    return report


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------

WEIGHT_FLOOR = 1e-3  # the identity suite's weights clear the genericity floor by far
# (low, high) of the real and of the imaginary part of a drawn weight component
# and of a drawn point
WEIGHT_BOX = ((-0.5, 0.5), (-0.12, 0.12))
POINT_BOX = ((-0.4, 0.4), (-0.15, 0.15))


def _draw_points(rng, count):
    re, im = POINT_BOX
    return rng.uniform(*re, count) + 1j * rng.uniform(*im, count)


def _refused_rows(table, setup):
    """Mask of the rows of ``table`` (m1.re, m1.im, m2.re, m2.im first) whose
    weight puts sigma(m12) or sigma(m12 +- eta) below WEIGHT_FLOOR."""
    m12 = (table[:, 0] + 1j * table[:, 1]) - (table[:, 2] + 1j * table[:, 3])
    least = np.min([np.abs(elliptic.sigma(z, setup))
                    for z in (m12, m12 + setup.eta, m12 - setup.eta)], axis=0)
    return least < WEIGHT_FLOOR


def _sample_stacks(rng, count, points, setup=None):
    """The stacked arguments of ``count`` samples of ``points`` points each,
    preceded by a weight when ``setup`` is given, from one
    ``Generator.uniform`` pass over a (count, width) table: row i is sample
    i's draws (the weight's m1.re, m1.im, m2.re, m2.im, then the points' real
    parts, then their imaginary parts), each column with its own bounds.
    A row whose weight is refused at WEIGHT_FLOOR is drawn again from
    ``rng``, the refused rows in order as one table, until none is."""
    weighted = setup is not None
    boxes = (WEIGHT_BOX * 2 if weighted else ()) + (POINT_BOX[0],) * points \
        + (POINT_BOX[1],) * points
    lo, hi = np.array(boxes).T
    table = rng.uniform(lo, hi, (count, len(boxes)))
    while weighted and (refused := np.flatnonzero(_refused_rows(table, setup))).size:
        table[refused] = rng.uniform(lo, hi, (refused.size, len(boxes)))
    cols = table.T.copy()
    w = 4 if weighted else 0
    args = list(cols[w:w + points] + 1j * cols[w + points:])
    if weighted:
        args.append(rmatrices.WeightVector(*(cols[0:4:2] + 1j * cols[1:4:2])))
    return args


def _draw_weight(rng, setup):
    """A seeded weight whose sigma(m12), sigma(m12 +- eta) clear WEIGHT_FLOOR:
    the first four-double row that does, as scalars."""
    m, = _sample_stacks(rng, 1, 0, setup)
    return rmatrices.WeightVector(complex(m.m1[0]), complex(m.m2[0]))


def _sampled_max(seed, count, points, residual, setup=None):
    """Largest residual over ``count`` samples (``_sample_stacks``, weighted
    when ``setup`` is given) from one generator seeded with ``seed``, from
    one ``residual`` call on the stacks; a nan residual makes it nan."""
    args = _sample_stacks(np.random.default_rng(seed), count, points, setup)
    return float(np.max(residual(*args)))


def _biorthogonality_defect(u, m, setup):
    """|bar(u) phi(u) - 1| of the bar duals at weight m, from one build of
    the columns phi(u) (the tilde rows are not built)."""
    columns = boundary._column_matrix(m, u, setup)
    return max_abs(boundary._inverse_rows(columns) @ columns - np.eye(2))


def identity_checks(cfg: RunConfig):
    """The named residual checks driven by run_identities.

    Returns a list of (name, residual, tolerance) triples; tolerances are the
    per-relation bounds the modules promise (the acceptance suite applies its
    own, sometimes looser, bounds).
    """
    setup = cfg.setup
    bc = cfg.bc
    seed = cfg.seed
    checks = [("riemann_identity", _sampled_max(
        seed, 100, 4, partial(elliptic.riemann_residual, setup=setup)), 1e-12)]

    u = _draw_points(np.random.default_rng(seed + 1), 100)
    tau = complex(setup.tau)
    su = elliptic.sigma(u, setup)
    scale = np.maximum(1.0, np.abs(su))
    periodic = (
        ("sigma_oddness", elliptic.sigma(-u, setup) + su, 1e-13),
        ("sigma_period_1", elliptic.sigma(u + 1, setup) + su, 1e-12),
        ("sigma_period_tau", elliptic.sigma(u + tau, setup)
         + np.exp(-2j * np.pi * (u + tau / 2)) * su, 1e-12))
    checks += [(name, float(np.max(np.abs(defect) / scale)), tol)
               for name, defect, tol in periodic]

    # (seed offset, name, points per sample, weighted, residual, tolerance)
    for offset, name, points, weighted, residual, tol in (
            (2, "qybe", 3, False, partial(rmatrices.qybe_residual, setup=setup), 1e-10),
            (3, "dynamical_ybe", 3, True,
             partial(rmatrices.dybe_residual, setup=setup), 1e-10),
            (4, "sos_unitarity", 1, True,
             partial(rmatrices.unitarity_residual, setup=setup), 1e-11),
            (5, "crossing", 1, True,
             partial(rmatrices.crossing_residual, setup=setup), 1e-11),
            (6, "reflection_equation", 2, False,
             partial(boundary.re_residual, bc=bc, setup=setup), 1e-10),
            (7, "face_vertex", 2, True,
             partial(boundary.face_vertex_residual, setup=setup), 1e-10),
            (8, "k_factorization", 1, False,
             partial(boundary.k_factorization_residual, bc=bc, setup=setup), 1e-9)):
        checks.append((name, _sampled_max(seed + offset, 50, points, residual,
                                          setup if weighted else None), tol))

    m = _draw_weight(np.random.default_rng(seed + 9), setup)
    u = np.linspace(-0.3, 0.5, 20)
    mat = boundary._column_matrix(m, u, setup)
    det = mat[:, 0, 0] * mat[:, 1, 1] - mat[:, 0, 1] * mat[:, 1, 0]
    ratios = det / (elliptic.sigma(u + m.m1 + m.m2 - 0.5, setup)
                    * elliptic.sigma(m.m12, setup))
    checks.append(("intertwiner_det_constancy",
                   float(np.max(np.abs(ratios - ratios[0])) / abs(ratios[0])), 1e-10))

    checks.append(("dual_biorthogonality", _sampled_max(
        seed + 10, 100, 1, partial(_biorthogonality_defect, setup=setup), setup), 1e-12))

    seed11 = np.random.default_rng(seed + 11)
    spec3 = draw_spectral(3, seed + 11, setup, bc)
    l3 = _draw_weight(seed11, setup)
    f3 = fbasis.f_matrix(l3, spec3, setup)
    checks.append(("twist_triangularity", fbasis.triangularity_defect(f3), 1e-14))
    checks.append(("twist_factorizing", fbasis.factorizing_residual(l3, spec3, setup), 1e-10))
    checks.append(("extremal_invariance", fbasis.extremal_invariance_residual(f3), 1e-10))

    spec2 = draw_spectral(2, seed + 12, setup, bc)
    checks.append(("twisted_creation", fbasis.twisted_creation_residual(bc, spec2, setup), 1e-9))

    z_en = oracle.partition_enumeration(spec2, bc, setup)
    z_bf = oracle.partition_bruteforce(spec2, bc, setup)
    z_fa = oracle.partition_face_route(spec2, bc, setup)
    checks.append(("oracle_enum_vs_bruteforce",
                   PartitionReport.pair_residual(z_en, z_bf), 1e-10))
    checks.append(("oracle_face_vs_bruteforce",
                   PartitionReport.pair_residual(z_fa, z_bf), 1e-9))

    spec4 = draw_spectral(4, seed + 13, setup, bc)
    zp = closedform.normalized_z_permsum(spec4, bc, setup)
    zd = closedform.normalized_z_determinant(spec4, bc, setup)
    checks.append(("permsum_vs_determinant",
                   PartitionReport.pair_residual(zp, zd), 1e-9))
    zf = closedform.full_z(spec4, bc, setup, "determinant")
    zb4 = oracle.partition_bruteforce(spec4, bc, setup)
    checks.append(("closed_form_vs_oracle",
                   PartitionReport.pair_residual(zf, zb4), 1e-9))

    checks.append(("recursion", closedform.recursion_residual(spec4, bc, setup), 1e-9))

    spec5 = draw_spectral(5, seed + 14, setup, bc)
    worst = 0.0
    for order in (2, 3, 4):
        b, f = closedform.pole_matching_pair(order, spec5, bc, setup)
        worst = max(worst, PartitionReport.pair_residual(b, f))
    checks.append(("pole_pair_equality", worst, 1e-9))

    scan = closedform.pole_scan(3, spec5, bc, setup)
    checks.append(("pole_scan_regularity",
                   float(sum(0 if reg else 1 for _, _, reg in scan)), 0.5))
    checks.append(("difference_quasi_period",
                   closedform.f_quasi_period_residual(
                       oracle.SpectralConfig(spec5.u[:3], spec5.xi[:3]), bc, setup),
                   1e-9))
    return checks


def run_identities(cfg: RunConfig) -> dict:
    """Named-check report: residual, tolerance, pass per identity.  A check
    that raises fails the report, which then carries the error instead."""
    try:
        checks = identity_checks(cfg)
    except EllipdwError as exc:
        return {"params": cfg.params_echo(), "checks": [], "pass": False,
                "error": f"{type(exc).__name__}: {exc}"}
    entries = [{"name": name, "max_residual": float(res), "tolerance": float(tol),
                "pass": bool(res <= tol)} for name, res, tol in checks]
    return {"params": cfg.params_echo(),
            "checks": entries,
            "pass": all(e["pass"] for e in entries)}


# ---------------------------------------------------------------------------
# Benchmark mode.
# ---------------------------------------------------------------------------

def _bench_value(route: str, spectral, bc, setup):
    """Benchmarked quantity per route.

    Closed-form routes time the normalized partition value (the determinant
    in log space, so huge N stays representable); oracle routes time the
    full contraction.
    """
    if route == "permsum":
        val = closedform.normalized_z_permsum(spectral, bc, setup)
        return value_digest(val)
    if route == "determinant":
        log_val = closedform._log_normalized_z_determinant(spectral, bc, setup)
        return value_digest(log_mag=log_val.real, phase=log_val.imag)
    return value_digest(_route_value(route, spectral, bc, setup))


def _bench_row(route: str, n: int, cfg: RunConfig) -> dict:
    """One timed row: the seeded draw and the route.  The draw's genericity
    check evaluates the grids the route reads, so the row times both; the
    configuration, grids included, goes when the row returns, before the
    next row draws."""
    t0 = time.perf_counter()
    try:
        spectral = draw_spectral(n, cfg.seed + n, cfg.setup, cfg.bc)
        digest = _bench_value(route, spectral, cfg.bc, cfg.setup)
        status = "ok"
    except EllipdwError as exc:
        digest, status = "", f"error: {exc}"
    return {"route": route, "N": n, "seconds": time.perf_counter() - t0,
            "digest": digest, "status": status}


def run_bench(cfg: RunConfig) -> dict:
    """Timing table over the configured N sweep; a row's seconds cover the
    seeded draw and the route."""
    rows = []
    for route in cfg.routes:
        for n in cfg.n_sweep:
            if n > ROUTE_GUARDS[route]:
                rows.append({"route": route, "N": n, "seconds": None,
                             "digest": "", "status": f"skipped: N > {ROUTE_GUARDS[route]}"})
            else:
                rows.append(_bench_row(route, n, cfg))
    return {"params": cfg.params_echo(), "rows": rows,
            "pass": all(r["status"] == "ok" or r["status"].startswith("skipped")
                        for r in rows)}


def bench_to_csv(result: dict) -> str:
    lines = ["route,N,seconds,digest,status"]
    for r in result["rows"]:
        sec = "" if r["seconds"] is None else f"{r['seconds']:.6f}"
        lines.append(f"{r['route']},{r['N']},{sec},{r['digest']},{r['status']}")
    return "\n".join(lines) + "\n"


def loglog_slope(ns, times) -> float:
    """Least-squares slope of log(time) against log(N)."""
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(times, dtype=float))
    return float(np.polyfit(x, y, 1)[0])
