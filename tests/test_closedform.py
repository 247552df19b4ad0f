"""Closed-form routes and the proof-step machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ellipdw import (SpectralConfig, f_quasi_period_residual, full_z,
                     normalized_z_determinant, normalized_z_permsum,
                     partition_bruteforce, partition_face_route,
                     partition_prefactor, pole_matching_pair, pole_scan,
                     recursion_residual, residue_estimate, sigma)
from ellipdw import closedform, oracle
from ellipdw.closedform import (POLE_SCAN_EPS, RING_POINTS, _boundary_vectors, _log_det,
                                _log_normalized_z_determinant, _log_product,
                                _pair_with_last_u, _permsum, _permsum_ab, _ring)
from ellipdw.config import draw_spectral, parse_config
from ellipdw.errors import SingularityError, SizeError
from ellipdw.rmatrices import GENERICITY_FLOOR

from highprec import ref_log_z_determinant, ref_permsum


def test_n0_values_are_one(bc, setup):
    """The empty configuration: the prefactor and both full_z routes are 1."""
    empty = SpectralConfig(u=(), xi=())
    assert partition_prefactor(bc, empty, setup) == 1.0
    for route in ("permsum", "determinant"):
        assert full_z(empty, bc, setup, route) == 1.0


def test_log_determinant_takes_only_the_fixed_floor(draw, bc, setup):
    """The log-space evaluator keeps a floor argument for callers that pass
    GENERICITY_FLOOR; any other value is refused."""
    spec = draw(3, 205, setup, bc)
    log_z = _log_normalized_z_determinant(spec, bc, setup)
    assert _log_normalized_z_determinant(spec, bc, setup, GENERICITY_FLOOR) == log_z
    with pytest.raises(ValueError):
        _log_normalized_z_determinant(spec, bc, setup, 1e-3)


def test_permsum_n0_and_n1_closed_form(draw, bc, setup):
    empty = SpectralConfig(u=(), xi=())
    assert normalized_z_permsum(empty, bc, setup) == 1.0
    spec = draw(1, 201, setup, bc)
    u1, x1 = spec.u[0], spec.xi[0]
    e = setup.eta
    s = lambda z: sigma(z, setup)
    expected = (s(bc.lambda1 + bc.zeta - x1) * s(bc.lambda2 + bc.zeta + x1)
                * s(2 * u1) * s(e)
                / (s(bc.lambda1 + bc.zeta + u1) * s(bc.lambda2 + bc.zeta + u1)
                   * s(u1 - x1 + e) * s(u1 + x1)))
    z = normalized_z_permsum(spec, bc, setup)
    assert abs(z - expected) <= 1e-13 * abs(expected)
    z_det = normalized_z_determinant(spec, bc, setup)
    assert abs(z_det - z) <= 1e-13 * abs(z)


@pytest.mark.parametrize("n", range(2, 8))
def test_permsum_equals_determinant(n, draw, bc, setup):
    spec = draw(n, 210 + n, setup, bc)
    zp = normalized_z_permsum(spec, bc, setup)
    zd = normalized_z_determinant(spec, bc, setup)
    assert abs(zp - zd) <= 1e-9 * max(abs(zp), abs(zd))


@pytest.mark.parametrize("n", range(1, 8))
def test_permsum_is_the_sum_over_every_permutation(n, draw, bc, setup):
    """The subset DP against a 40-digit sum of one product per permutation of
    the same A, B, G tables: within 1e-10 relative, and within N^2 roundings
    of the terms' absolute sum, which bounds what cancellation can cost."""
    for seed in range(700 + 10 * n, 703 + 10 * n):
        g = draw(n, seed, setup, bc).grids(setup)
        lam_u, lam_xi = _boundary_vectors(g, bc)
        exact, abs_sum = ref_permsum(*_permsum_ab(g, lam_u, lam_xi), g.xi_ratio)
        err = abs(_permsum(g, lam_u, lam_xi) - exact)
        assert err <= 1e-10 * abs(exact), (seed, err / abs(exact))
        assert err <= n * n * np.finfo(float).eps * abs_sum, (seed, err / abs_sum)


def test_permsum_at_its_guard_matches_the_determinant():
    """N = 9 on a draw whose terms' absolute sum is about 1e14 times the sum:
    summing every permutation's term in double missed the determinant by
    4.1e-4 here, the subset DP by 2e-6."""
    cfg = parse_config("{}")
    spec = draw_spectral(9, 59, cfg.setup, cfg.bc)
    zp = normalized_z_permsum(spec, cfg.bc, cfg.setup)
    zd = normalized_z_determinant(spec, cfg.bc, cfg.setup)
    assert abs(zp - zd) <= 1e-5 * abs(zd)


@pytest.mark.parametrize("n,seed", [(n, base + n) for n in (8, 12) for base in (1000, 2000, 3000)])
def test_determinant_matches_the_50_digit_reference(n, seed, draw, bc, setup):
    """The log determinant against a 50-digit mpmath evaluation of the same
    formula (jtheta sigma, mpmath.det), which shares no code with the
    library: log |Z| and the phase mod 2 pi within 1e-9."""
    spec = draw(n, seed, setup, bc)
    diff = _log_normalized_z_determinant(spec, bc, setup) - ref_log_z_determinant(spec, bc, setup)
    assert abs(diff.real) <= 1e-9
    assert abs((diff.imag + np.pi) % (2 * np.pi) - np.pi) <= 1e-9


def test_log_product_matches_the_complex_log_sum():
    """The real-log form against numpy's sum of complex logs, over a stack:
    the real part to 1e-13 relative, the phase mod 2 pi."""
    rng = np.random.default_rng(11)
    v = (rng.normal(size=(3, 40, 50)) + 1j * rng.normal(size=(3, 40, 50))) \
        * np.exp(rng.uniform(-30, 30, size=(3, 40, 50)))
    got = _log_product(v, 2)
    ref = np.sum(np.log(v.reshape(3, -1)), axis=-1)
    assert got.shape == (3,)
    assert np.all(np.abs(got.real - ref.real) <= 1e-13 * np.abs(ref.real))
    phase = (got.imag - ref.imag + np.pi) % (2 * np.pi) - np.pi
    assert np.all(np.abs(phase) <= 1e-13 * np.abs(ref.imag).max())


def test_log_det_of_a_stack_is_its_per_matrix_values():
    """One slogdet over a stack gives each matrix its lone bits."""
    rng = np.random.default_rng(7)
    stack = rng.standard_normal((4, 12, 12)) + 1j * rng.standard_normal((4, 12, 12))
    got = _log_det(stack)
    assert got.shape == (4,)
    assert [complex(v) for v in got] == [complex(_log_det(m)) for m in stack]


def test_log_det_of_a_swap_is_i_pi():
    """det [[0, 1], [1, 0]] = -1: log|det| = 0 and the angle is pi mod 2 pi."""
    log_det = complex(_log_det(np.array([[0, 1], [1, 0]], dtype=complex)))
    assert log_det.real == 0.0
    assert math.remainder(log_det.imag - math.pi, 2 * math.pi) == 0.0


def test_log_det_refuses_an_exactly_singular_matrix():
    """A zero determinant is refused by name, with no RuntimeWarning from
    the LU or the log."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularityError, match="singular matrix"):
            _log_det(np.array([[1, 2], [2, 4]], dtype=complex))


def test_determinant_holds_one_working_matrix(bc, setup):
    """A fresh N = 256 draw and its log determinant, under tracemalloc, peak
    below 8 and keep below 5.5 N x N complex arrays: the configuration keeps
    the four grids and sigma(xi_j - xi_k), the pair families only as their
    checked log sum, and the matrix is built in one buffer."""
    n = 256
    _log_normalized_z_determinant(draw_spectral(n, 1, setup, bc), bc, setup)  # fill caches
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        spec = draw_spectral(n, 1256, setup, bc)
        _log_normalized_z_determinant(spec, bc, setup)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    array = n * n * np.dtype(complex).itemsize
    assert (peak - before) / array < 8.0 and (current - before) / array < 5.5, \
        ((peak - before) / array, (current - before) / array)
    kept = vars(spec.grids(setup))
    assert {"u_diff", "u_sum_eta", "xi_diff", "xi_sum"}.isdisjoint(kept)
    assert not [v for v in kept.values()
                if isinstance(v, np.ndarray) and v.shape[-1:] == (n * (n - 1) // 2,)]


def test_determinant_xi_exchange_invariance(draw, bc, setup):
    spec = draw(6, 220, setup, bc)
    z = normalized_z_determinant(spec, bc, setup)
    xi = list(spec.xi)
    xi[0], xi[1] = xi[1], xi[0]
    swapped = SpectralConfig(u=spec.u, xi=tuple(xi))
    assert abs(normalized_z_determinant(swapped, bc, setup) - z) <= 1e-10 * abs(z)


def test_permsum_size_guard(bc, setup):
    spec = SpectralConfig(u=(0.1,) * 10, xi=(0.2,) * 10)
    with pytest.raises(SizeError):
        normalized_z_permsum(spec, bc, setup)


@pytest.mark.parametrize("n,tol", [(2, 1e-9), (4, 1e-8), (6, 1e-8)])
def test_prefactor_against_oracle(n, tol, draw, bc, setup):
    spec = draw(n, 230 + n, setup, bc)
    pref = partition_prefactor(bc, spec, setup)
    z_norm = normalized_z_determinant(spec, bc, setup)
    z_bf = partition_bruteforce(spec, bc, setup)
    assert abs(pref * z_norm - z_bf) <= tol * abs(z_bf)


def test_prefactor_odd_matches_face(draw, bc, setup):
    """The lambda product needs no calibration at odd N."""
    spec = draw(3, 240, setup, bc)
    z = partition_prefactor(bc, spec, setup) * normalized_z_determinant(spec, bc, setup)
    z_face = partition_face_route(spec, bc, setup)
    assert abs(z - z_face) <= 1e-10 * abs(z_face)


def test_prefactor_lambda_period_parity(draw, bc, setup):
    """Shifting lambda12 by a full period flips an even number of sigma signs."""
    from ellipdw import BoundaryConfig
    spec = draw(2, 241, setup, bc)
    shifted = BoundaryConfig(bc.lambda1 + 0.5, bc.lambda2 - 0.5, bc.zeta)
    p1 = partition_prefactor(bc, spec, setup)
    p2 = partition_prefactor(shifted, spec, setup)
    assert abs(abs(p2) - abs(p1)) <= 1e-10 * abs(p1)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_full_z_odd_empirical(n, draw, bc, setup):
    """Odd N: both closed-form routes against the independent oracles.

    Bruteforce is left out at N = 7, where its own drift reaches 1e-7.
    """
    spec = draw(n, 250 + n, setup, bc)
    z_face = partition_face_route(spec, bc, setup)
    z_bf = partition_bruteforce(spec, bc, setup) if n <= 5 else None
    for route in ("determinant", "permsum"):
        z = full_z(spec, bc, setup, route)
        assert abs(z - z_face) <= 1e-10 * abs(z_face)
        if z_bf is not None:
            assert abs(z - z_bf) <= 1e-10 * abs(z_bf)


def test_full_z_even_flags_and_routes(draw, bc, setup):
    spec = draw(2, 260, setup, bc)
    z_det = full_z(spec, bc, setup, "determinant")
    z_perm = full_z(spec, bc, setup, "permsum")
    assert abs(z_det - z_perm) <= 1e-10 * abs(z_det)
    z_bf = partition_bruteforce(spec, bc, setup)
    assert abs(z_det - z_bf) <= 1e-9 * abs(z_bf)


def test_full_z_n0(bc, setup):
    assert full_z(SpectralConfig(u=(), xi=()), bc, setup) == 1.0


def test_full_z_checks_its_route_before_the_empty_shortcut(bc, setup):
    """An unknown route is refused at N = 0 as at N = 1."""
    for spec in (SpectralConfig(u=(), xi=()), SpectralConfig(u=(0.27 + 0.06j,), xi=(-0.13,))):
        with pytest.raises(ValueError, match="unknown closed-form route: 'bogus'"):
            full_z(spec, bc, setup, "bogus")


def test_recursion_n1_exact(draw, bc, setup):
    assert recursion_residual(draw(1, 280, setup, bc), bc, setup) <= 1e-12


@pytest.mark.parametrize("n,tol", [(3, 1e-9), (4, 1e-9), (5, 1e-8)])
def test_recursion_sweep(n, tol, draw, bc, setup):
    assert recursion_residual(draw(n, 281 + n, setup, bc), bc, setup) <= tol


@pytest.mark.parametrize("n", [32, 64])
def test_recursion_is_finite_past_the_double_range(n, draw, bc, setup):
    """Summed relative to log Z_N, the residual stays finite, with no
    warning, at sizes where Z_N and its coefficients leave the double range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isfinite(recursion_residual(draw(n, 281 + n, setup, bc), bc, setup))


def test_pole_pair_base_case(draw, bc, setup):
    spec = draw(1, 290, setup, bc)
    b, f = pole_matching_pair(1, spec, bc, setup)
    s = lambda z: sigma(z, setup)
    expected = s(setup.eta) / (s(spec.u[0] - spec.xi[0] + setup.eta)
                               * s(spec.u[0] + spec.xi[0]))
    assert abs(b - expected) <= 1e-12 * abs(expected)
    assert abs(f - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("order", [2, 3, 4, 5])
def test_pole_pair_equality(order, draw, bc, setup):
    spec = draw(6, 291, setup, bc)
    b, f = pole_matching_pair(order, spec, bc, setup)
    assert abs(b - f) <= 1e-9 * abs(f)


def test_residue_matching(draw, bc, setup):
    spec = draw(4, 292, setup, bc)
    order = 3

    def b_func(u_last):
        sub = SpectralConfig(u=spec.u[:order - 1] + (u_last,), xi=spec.xi[:order])
        return pole_matching_pair(order, sub, bc, setup)[0]

    def f_func(u_last):
        sub = SpectralConfig(u=spec.u[:order - 1] + (u_last,), xi=spec.xi[:order])
        return pole_matching_pair(order, sub, bc, setup)[1]

    for i in range(order):
        for z0 in (spec.xi[i] - setup.eta, -spec.xi[i]):
            rb = residue_estimate(b_func, z0)
            rf = residue_estimate(f_func, z0)
            assert abs(rb - rf) <= 1e-6 * abs(rf)


def test_pole_scan_classification(draw, bc, setup):
    spec = draw(4, 293, setup, bc)
    scan = pole_scan(3, spec, bc, setup)
    assert scan  # non-empty
    assert all(regular for _, _, regular in scan)


def test_pole_scan_negative_control(draw, bc, setup, monkeypatch):
    spec = draw(4, 294, setup, bc)
    # a deliberate mismatch: the permutation-sum side scaled by 1.01
    monkeypatch.setattr(closedform, "_permsum", lambda *args: 1.01 * _permsum(*args))
    scan = pole_scan(3, spec, bc, setup)
    flagged = [lab for lab, _, regular in scan if "xi" in lab and not regular]
    assert flagged  # the deliberate mismatch exposes the poles


def _scan_centres(order, spec, setup):
    """pole_scan's candidate locations at ``order``, in its order."""
    centres = []
    for i in range(order):
        centres += [spec.xi[i] - setup.eta, -spec.xi[i]]
    for l in range(order - 1):
        centres += [spec.u[l], -spec.u[l] - setup.eta]
    return centres


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_stacked_pair_equals_per_point_pairs(order, draw, bc, setup):
    """Both sides over every ring point of a scan, as one stack, equal the
    per-point pole_matching_pair values to 1e-13 relative."""
    spec = draw(6, 297 + order, setup, bc)
    points = np.add.outer(_ring(POLE_SCAN_EPS), _scan_centres(order, spec, setup))
    stacked = _pair_with_last_u(order, spec, points, bc, setup)
    for side in stacked:
        assert side.shape == (RING_POINTS, 4 * order - 2)
    for idx, z in np.ndenumerate(points):
        sub = SpectralConfig(u=spec.u[:order - 1] + (z,), xi=spec.xi[:order])
        for lone, side in zip(pole_matching_pair(order, sub, bc, setup), stacked):
            assert abs(side[idx] - lone) <= 1e-13 * abs(lone), (idx, order)


def test_one_configuration_keeps_its_bits(draw, bc, setup):
    """One configuration runs the stack code with no leading axis; its log
    determinant at N = 16 and 64 and its permutation sum at N = 9 are
    pinned in repr, so a last-bit change to either fails.  Each log
    determinant equals, modulo 2 pi i and within 1e-12 relative, the value
    pinned when log(det) was a scipy LU's unwrapped sum of pivot logs."""
    for n, pin, lu_pin in (
            (16, "(271.1266929690877-170.71490656777615j)",
             271.1266929690877 - 183.28127718213534j),
            (64, "(4376.993066709378+2876.676532578985j)",
             4376.993066709378 + 2864.110161964626j)):
        log_z = _log_normalized_z_determinant(draw(n, 1000 + n, setup, bc), bc, setup)
        assert repr(log_z) == pin
        turns = round((log_z - lu_pin).imag / (2 * np.pi))
        assert abs(log_z - lu_pin - 2j * np.pi * turns) <= 1e-12 * abs(log_z), n
    assert repr(normalized_z_permsum(draw(9, 1009, setup, bc), bc, setup)) \
        == "(-2.4975818081901177e+29+2.4986286517667156e+30j)"


def _count_grids(monkeypatch):
    """Every SpectralGrids built from here on, in closedform and oracle."""
    built = []

    class Counting(oracle.SpectralGrids):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(closedform, "SpectralGrids", Counting)
    monkeypatch.setattr(oracle, "SpectralGrids", Counting)
    return built


def test_pole_scan_is_one_stacked_evaluation(draw, bc, setup, monkeypatch):
    """A scan at order 3 evaluates its 10 x RING_POINTS ring points from one
    SpectralGrids, u stacked [ring point, location, a] and xi shared."""
    spec = draw(4, 293, setup, bc)
    built = _count_grids(monkeypatch)
    scan = pole_scan(3, spec, bc, setup)
    assert len(scan) == 10 and len(built) == 1
    assert built[0].u.shape == (RING_POINTS, 10, 3) and built[0].xi.shape == (3,)


def test_pole_scan_at_order_one(draw, bc, setup, monkeypatch):
    """Order 1: the two xi locations only, no u rows, and the stack's pair
    families are empty."""
    spec = draw(2, 293, setup, bc)
    built = _count_grids(monkeypatch)
    scan = pole_scan(1, spec, bc, setup)
    assert [label for label, _, _ in scan] == ["xi_1-eta", "-xi_1"]
    assert all(regular for _, _, regular in scan)
    (g,) = built
    assert g.u.shape == (RING_POINTS, 2, 1)
    for family in (g.u_diff, g.u_sum_eta, g.xi_diff, g.xi_sum):
        assert family.shape[-1] == 0


def test_stack_holding_a_zero_is_refused_by_name(draw, bc, setup):
    """One point of the stack at u_last = xi_2 puts sigma(0) in the grid:
    the whole stack is refused, naming the family."""
    spec = draw(4, 293, setup, bc)
    with pytest.raises(SingularityError, match="u_a - xi_k"):
        _pair_with_last_u(3, spec, [spec.u[2], spec.xi[1]], bc, setup)


def test_difference_quasi_period(draw, bc, setup):
    spec = draw(3, 295, setup, bc)
    assert f_quasi_period_residual(spec, bc, setup) <= 1e-9


def test_saturating_overflow_value(draw, bc, setup):
    spec = draw(64, 299, setup, bc)
    z = normalized_z_determinant(spec, bc, setup)
    assert math.isinf(abs(z))
