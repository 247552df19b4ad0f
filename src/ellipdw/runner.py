"""Route orchestration: compare, identity suite, and benchmark modes."""

from __future__ import annotations

import time

import numpy as np

from . import boundary, closedform, elliptic, fbasis, oracle, rmatrices
from .config import ROUTE_GUARDS, RunConfig, draw_spectral, spectral_for
from .errors import EllipdwError
from .report import PartitionReport, RouteResult, value_digest


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
            result = RouteResult(value=value, digest=value_digest(value))
        except EllipdwError as exc:
            result = RouteResult(status=f"error: {type(exc).__name__}: {exc}")
        result.seconds = time.perf_counter() - t0
        report.routes[route] = result
    report.fill_residuals(cfg.tol)
    return report


# ---------------------------------------------------------------------------
# Identity suite.
# ---------------------------------------------------------------------------

def _draw_weight(rng, setup):
    """A seeded weight whose sigma(m12), sigma(m12 +- eta) clear 1e-3, well
    above the genericity floor."""
    while True:
        m = rmatrices.WeightVector(
            rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.12, 0.12),
            rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.12, 0.12))
        try:
            m.require_generic(setup, 1e-3)
            return m
        except EllipdwError:
            continue


def _draw_points(rng, count):
    return rng.uniform(-0.4, 0.4, count) + 1j * rng.uniform(-0.15, 0.15, count)


def identity_checks(cfg: RunConfig):
    """The named residual checks driven by run_identities.

    Returns a list of (name, residual, tolerance) triples; tolerances are the
    per-relation bounds the modules promise (the acceptance suite applies its
    own, sometimes looser, bounds).
    """
    setup = cfg.setup
    bc = cfg.bc
    seed = cfg.seed
    checks = []

    rng = np.random.default_rng(seed)
    res = max(elliptic.riemann_residual(*_draw_points(rng, 4), setup)
              for _ in range(100))
    checks.append(("riemann_identity", res, 1e-12))

    rng = np.random.default_rng(seed + 1)
    worst_odd = worst_p1 = worst_ptau = 0.0
    tau = complex(setup.tau)
    for u in _draw_points(rng, 100):
        su = elliptic.sigma(u, setup)
        scale = max(1.0, abs(su))
        worst_odd = max(worst_odd, abs(elliptic.sigma(-u, setup) + su) / scale)
        worst_p1 = max(worst_p1, abs(elliptic.sigma(u + 1, setup) + su) / scale)
        worst_ptau = max(worst_ptau, abs(
            elliptic.sigma(u + tau, setup)
            + np.exp(-2j * np.pi * (u + tau / 2)) * su) / scale)
    checks.append(("sigma_oddness", worst_odd, 1e-13))
    checks.append(("sigma_period_1", worst_p1, 1e-12))
    checks.append(("sigma_period_tau", worst_ptau, 1e-12))

    rng = np.random.default_rng(seed + 2)
    res = 0.0
    for _ in range(50):
        u1, u2, u3 = _draw_points(rng, 3)
        res = max(res, rmatrices.qybe_residual(u1, u2, u3, setup))
    checks.append(("qybe", res, 1e-10))

    rng = np.random.default_rng(seed + 3)
    res = 0.0
    for _ in range(50):
        m = _draw_weight(rng, setup)
        u1, u2, u3 = _draw_points(rng, 3)
        res = max(res, rmatrices.dybe_residual(u1, u2, u3, m, setup))
    checks.append(("dynamical_ybe", res, 1e-10))

    rng = np.random.default_rng(seed + 4)
    res = 0.0
    for _ in range(50):
        m = _draw_weight(rng, setup)
        res = max(res, rmatrices.unitarity_residual(_draw_points(rng, 1)[0], m, setup))
    checks.append(("sos_unitarity", res, 1e-11))

    rng = np.random.default_rng(seed + 5)
    res = 0.0
    for _ in range(50):
        m = _draw_weight(rng, setup)
        res = max(res, rmatrices.crossing_residual(_draw_points(rng, 1)[0], m, setup))
    checks.append(("crossing", res, 1e-11))

    rng = np.random.default_rng(seed + 6)
    res = 0.0
    for _ in range(50):
        u1, u2 = _draw_points(rng, 2)
        res = max(res, boundary.re_residual(u1, u2, bc, setup))
    checks.append(("reflection_equation", res, 1e-10))

    rng = np.random.default_rng(seed + 7)
    res = 0.0
    for _ in range(50):
        m = _draw_weight(rng, setup)
        u1, u2 = _draw_points(rng, 2)
        res = max(res, boundary.face_vertex_residual(u1, u2, m, setup))
    checks.append(("face_vertex", res, 1e-10))

    rng = np.random.default_rng(seed + 8)
    res = 0.0
    for _ in range(50):
        res = max(res, boundary.k_factorization_residual(_draw_points(rng, 1)[0],
                                                         bc, setup))
    checks.append(("k_factorization", res, 1e-9))

    rng = np.random.default_rng(seed + 9)
    m = _draw_weight(rng, setup)
    ratios = []
    for u in np.linspace(-0.3, 0.5, 20):
        mat = np.column_stack([boundary.intertwiner(m, 1, u, setup),
                               boundary.intertwiner(m, 2, u, setup)])
        det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
        ratios.append(det / (elliptic.sigma(u + m.m1 + m.m2 - 0.5, setup)
                             * elliptic.sigma(m.m12, setup)))
    ratios = np.array(ratios)
    checks.append(("intertwiner_det_constancy",
                   float(np.max(np.abs(ratios - ratios[0])) / abs(ratios[0])), 1e-10))

    rng = np.random.default_rng(seed + 10)
    res = 0.0
    for _ in range(100):
        m = _draw_weight(rng, setup)
        u = _draw_points(rng, 1)[0]
        bar, _ = boundary.dual_intertwiners(m, u, setup)
        cols = np.column_stack([boundary.intertwiner(m, j, u, setup) for j in (1, 2)])
        res = max(res, float(np.max(np.abs(bar @ cols - np.eye(2)))))
    checks.append(("dual_biorthogonality", res, 1e-12))

    seed11 = np.random.default_rng(seed + 11)
    spec3 = draw_spectral(3, seed + 11, setup, bc)
    l3 = _draw_weight(seed11, setup)
    f3 = fbasis.f_matrix(l3, spec3, setup)
    checks.append(("twist_triangularity", fbasis.triangularity_defect(f3), 1e-14))
    worst = 0.0
    from itertools import permutations as _perms
    for seq in _perms((1, 2, 3)):
        pw = fbasis.reduced_word(seq)
        rs = fbasis.r_s_operator(pw, l3, spec3, setup).mat
        f_s = fbasis.f_matrix(l3, spec3, setup, base=seq).mat
        worst = max(worst, float(np.max(np.abs(f_s @ rs - f3.mat))
                                 / np.max(np.abs(f3.mat))))
    checks.append(("twist_factorizing", worst, 1e-10))
    checks.append(("extremal_invariance",
                   fbasis.extremal_invariance_residual(l3, spec3, setup), 1e-10))

    spec2 = draw_spectral(2, seed + 12, setup, bc)
    checks.append(("twisted_creation",
                   max(fbasis.twisted_creation_residual(i, bc, spec2, setup)
                       for i in (1, 2)), 1e-9))

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


def run_bench(cfg: RunConfig) -> dict:
    """Timing table over the configured N sweep; a row's seconds cover the
    seeded draw and the route."""
    rows = []
    for route in cfg.routes:
        for n in cfg.n_sweep:
            if n > ROUTE_GUARDS[route]:
                rows.append({"route": route, "N": n, "seconds": None,
                             "digest": "", "status": f"skipped: N > {ROUTE_GUARDS[route]}"})
                continue
            # the draw's genericity check evaluates the grids the route reads,
            # so a row times both
            t0 = time.perf_counter()
            try:
                spectral = draw_spectral(n, cfg.seed + n, cfg.setup, cfg.bc)
                digest = _bench_value(route, spectral, cfg.bc, cfg.setup)
                status = "ok"
            except EllipdwError as exc:
                digest, status = "", f"error: {exc}"
            rows.append({"route": route, "N": n,
                         "seconds": time.perf_counter() - t0,
                         "digest": digest, "status": status})
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
