"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its runtime budget.
"""

import os
import time

import numpy as np

from ellipdw import (BoundaryConfig, ModularSetup, SpectralConfig,
                     crossing_residual, dybe_residual, f_quasi_period_residual,
                     face_vertex_residual, full_z, k_factorization_residual,
                     normalized_z_determinant, normalized_z_permsum,
                     partition_bruteforce,
                     partition_enumeration, partition_face_route,
                     pole_matching_pair, qybe_residual, re_residual,
                     recursion_residual, residue_estimate, riemann_residual,
                     run_compare, sigma, unitarity_residual)
from ellipdw.config import draw_spectral, parse_config
from ellipdw.fbasis import (extremal_invariance_residual, f_matrix,
                            r_s_operator, reduced_word, triangularity_defect,
                            twisted_creation_residual)
from ellipdw.runner import loglog_slope

from conftest import random_points, random_weight

SETUP = ModularSetup(tau=1j, eta=0.31)
BC = BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)


def _report(n, label, worst, bound, elapsed, budget):
    ok = worst <= bound and elapsed <= budget
    print(f"ACCEPTANCE {n} [{label}]: "
          f"{'PASS' if ok else 'FAIL'} "
          f"(max residual {worst:.3e} <= {bound:.0e}, {elapsed:.1f}s <= {budget:.0f}s)")
    assert worst <= bound
    assert elapsed <= budget


def test_criterion_1_elliptic_identity_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for tau in (1j, 0.3 + 0.9j):
        setup = ModularSetup(tau=tau, eta=0.31)
        rng = np.random.default_rng(7)
        for _ in range(100):
            u, v, x, y = random_points(rng, 4)
            worst = max(worst, riemann_residual(u, v, x, y, setup))
            su = sigma(u, setup)
            scale = max(1.0, abs(su))
            worst = max(worst, abs(sigma(-u, setup) + su) / scale)
            worst = max(worst, abs(sigma(u + 1, setup) + su) / scale)
            worst = max(worst, abs(
                sigma(u + tau, setup)
                + np.exp(-2j * np.pi * (u + tau / 2)) * su) / scale)
    _report(1, "elliptic identities", worst, 1e-12, time.perf_counter() - t0, 5.0)


def test_criterion_2_relation_suite():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(7)
    for _ in range(50):
        u1, u2, u3 = random_points(rng, 3)
        m = random_weight(rng, SETUP)
        worst = max(worst, qybe_residual(u1, u2, u3, SETUP))
        worst = max(worst, re_residual(u1, u2, BC, SETUP))
        worst = max(worst, dybe_residual(u1, u2, u3, m, SETUP))
        worst = max(worst, unitarity_residual(u1, m, SETUP))
        worst = max(worst, crossing_residual(u1, m, SETUP))
        worst = max(worst, face_vertex_residual(u1, u2, m, SETUP))
        worst = max(worst, k_factorization_residual(u1, BC, SETUP))
    _report(2, "R/K relation suite", worst, 1e-9, time.perf_counter() - t0, 30.0)


def test_criterion_3_oracle_chain():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        spec = draw_spectral(n, 300 + n, SETUP, BC)
        z_en = partition_enumeration(spec, BC, SETUP)
        z_bf = partition_bruteforce(spec, BC, SETUP)
        worst = max(worst, abs(z_en - z_bf) / max(abs(z_en), abs(z_bf)) / 1e-10 * 1e-9)
        # normalized so that the shared 1e-9 report line covers the 1e-10 bound
        assert abs(z_en - z_bf) <= 1e-10 * max(abs(z_en), abs(z_bf))
    for n in (1, 2, 3):
        spec = draw_spectral(n, 310 + n, SETUP, BC)
        z_fa = partition_face_route(spec, BC, SETUP)
        z_bf = partition_bruteforce(spec, BC, SETUP)
        worst = max(worst, abs(z_fa - z_bf) / max(abs(z_fa), abs(z_bf)))
    _report(3, "oracle chain", worst, 1e-9, time.perf_counter() - t0, 60.0)


def test_criterion_4_payload_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 8):
        spec = draw_spectral(n, 320 + n, SETUP, BC)
        zp = normalized_z_permsum(spec, BC, SETUP)
        zd = normalized_z_determinant(spec, BC, SETUP)
        worst = max(worst, abs(zp - zd) / max(abs(zp), abs(zd)))
    for n in (2, 4, 6):
        spec = draw_spectral(n, 330 + n, SETUP, BC)
        zf = full_z(spec, BC, SETUP, "determinant")
        z_bf = partition_bruteforce(spec, BC, SETUP)
        worst = max(worst, abs(zf - z_bf) / max(abs(zf), abs(z_bf)))
    for n in (1, 3, 5):
        spec = draw_spectral(n, 340 + n, SETUP, BC)
        zf = full_z(spec, BC, SETUP, "determinant")
        z_fa = partition_face_route(spec, BC, SETUP)
        worst = max(worst, abs(zf - z_fa) / max(abs(zf), abs(z_fa)))
    _report(4, "payload equivalence", worst, 1e-9, time.perf_counter() - t0, 120.0)


def test_criterion_5_proof_steps():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        worst = max(worst, recursion_residual(draw_spectral(n, 350 + n, SETUP, BC),
                                              BC, SETUP))
    spec = draw_spectral(6, 360, SETUP, BC)
    for order in (1, 2, 3, 4, 5):
        b, f = pole_matching_pair(order, spec, BC, SETUP)
        worst = max(worst, abs(b - f) / abs(f))
    worst = max(worst, f_quasi_period_residual(
        SpectralConfig(spec.u[:3], spec.xi[:3]), BC, SETUP))

    order = 3
    def side(which, u_last):
        sub = SpectralConfig(u=spec.u[:order - 1] + (u_last,), xi=spec.xi[:order])
        return pole_matching_pair(order, sub, BC, SETUP)[which]
    res_worst = 0.0
    for i in range(order):
        for z0 in (spec.xi[i] - SETUP.eta, -spec.xi[i]):
            rb = residue_estimate(lambda z: side(0, z), z0)
            rf = residue_estimate(lambda z: side(1, z), z0)
            res_worst = max(res_worst, abs(rb - rf) / abs(rf))
    assert res_worst <= 1e-6
    _report(5, "proof steps", worst, 1e-9, time.perf_counter() - t0, 120.0)


def test_criterion_6_fbasis_suite():
    t0 = time.perf_counter()
    from itertools import permutations
    worst = 0.0
    rng = np.random.default_rng(77)
    l = random_weight(rng, SETUP)
    for n in (2, 3, 4):
        spec = draw_spectral(n, 370 + n, SETUP, BC)
        f_id = f_matrix(l, spec, SETUP)
        assert triangularity_defect(f_id) == 0.0
        scale = np.max(np.abs(f_id.mat))
        for seq in permutations(range(1, n + 1)):
            rs = r_s_operator(reduced_word(seq), l, spec, SETUP).mat
            f_s = f_matrix(l, spec, SETUP, base=seq).mat
            worst = max(worst, float(np.max(np.abs(f_s @ rs - f_id.mat)) / scale))
        worst = max(worst, extremal_invariance_residual(l, spec, SETUP))
        assert worst <= 1e-10
        creation = max(twisted_creation_residual(i, BC, spec, SETUP)
                       for i in range(1, n + 1))
        assert creation <= 1e-9
        worst = max(worst, creation / 1e-9 * 1e-10)
    _report(6, "factorizing twist suite", worst, 1e-10,
            time.perf_counter() - t0, 120.0)


def test_criterion_7_performance():
    # warm caches so the factorial ratio is not an import/JIT artifact
    warm = draw_spectral(2, 380, SETUP, BC)
    normalized_z_permsum(warm, BC, SETUP)
    normalized_z_determinant(warm, BC, SETUP)

    ns, times = [], []
    for n in (32, 64, 128, 256):
        spec = draw_spectral(n, 380 + n, SETUP, BC)
        t0 = time.perf_counter()
        normalized_z_determinant(spec, BC, SETUP)
        times.append(time.perf_counter() - t0)
        ns.append(n)
    slope = loglog_slope(ns, times)
    assert times[-1] < 10.0
    assert slope <= 3.8

    perm_times = {}
    for n in (7, 8):
        spec = draw_spectral(n, 390 + n, SETUP, BC)
        best = min(_timed_permsum(spec) for _ in range(3))
        perm_times[n] = best
    ratio = perm_times[8] / perm_times[7]
    ok = times[-1] < 10.0 and slope <= 3.8 and ratio >= 6.0
    print(f"ACCEPTANCE 7 [performance]: {'PASS' if ok else 'FAIL'} "
          f"(N=256 in {times[-1]:.2f}s, slope {slope:.2f} <= 3.8, "
          f"t(8)/t(7) = {ratio:.1f} >= 6)")
    assert ratio >= 6.0


def _timed_permsum(spec):
    t0 = time.perf_counter()
    normalized_z_permsum(spec, BC, SETUP)
    return time.perf_counter() - t0


def test_criterion_8_thread_determinism():
    cfg = parse_config("{mode: compare, N: 2, seed: 7}")
    values = {}
    original = os.environ.get("ELLIPDW_THREADS")
    try:
        for workers in ("1", "2", "8"):
            os.environ["ELLIPDW_THREADS"] = workers
            report = run_compare(cfg)
            assert report.passed
            values[workers] = {name: r.value for name, r in report.routes.items()}
    finally:
        if original is None:
            os.environ.pop("ELLIPDW_THREADS", None)
        else:
            os.environ["ELLIPDW_THREADS"] = original
    worst = 0.0
    for workers in ("2", "8"):
        for name, base in values["1"].items():
            worst = max(worst, abs(values[workers][name] - base)
                        / max(abs(base), 1e-300))
    print(f"ACCEPTANCE 8 [thread determinism]: "
          f"{'PASS' if worst <= 1e-12 else 'FAIL'} (max drift {worst:.3e})")
    assert worst <= 1e-12
