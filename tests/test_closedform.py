"""Closed-form routes and the proof-step machinery."""

import warnings

import numpy as np
import pytest

from ellipdw import (SpectralConfig, f_quasi_period_residual, full_z,
                     normalized_z_determinant, normalized_z_permsum,
                     partition_bruteforce, partition_face_route,
                     partition_prefactor, pole_matching_pair, pole_scan,
                     recursion_residual, residue_estimate, sigma)
from ellipdw.closedform import _log_normalized_z_determinant
from ellipdw.errors import ConditioningWarning, SizeError
from ellipdw.rmatrices import GENERICITY_FLOOR


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


def test_recursion_n1_exact(draw, bc, setup):
    assert recursion_residual(draw(1, 280, setup, bc), bc, setup) <= 1e-12


@pytest.mark.parametrize("n,tol", [(3, 1e-9), (4, 1e-9), (5, 1e-8)])
def test_recursion_sweep(n, tol, draw, bc, setup):
    assert recursion_residual(draw(n, 281 + n, setup, bc), bc, setup) <= tol


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


def test_pole_scan_negative_control(draw, bc, setup):
    spec = draw(4, 294, setup, bc)
    scan = pole_scan(3, spec, bc, setup, perturb_permsum_side=1.01)
    flagged = [lab for lab, _, regular in scan if "xi" in lab and not regular]
    assert flagged  # the deliberate mismatch exposes the poles


def test_difference_quasi_period(draw, bc, setup):
    spec = draw(3, 295, setup, bc)
    assert f_quasi_period_residual(spec, bc, setup) <= 1e-9


def test_conditioning_warning():
    """Clustered spectral points trigger the pivot-ratio warning."""
    from ellipdw import BoundaryConfig, ModularSetup
    setup = ModularSetup(tau=1j, eta=0.31)
    bc = BoundaryConfig(0.41, -0.23, 0.17)
    n = 6
    rng = np.random.default_rng(296)
    u = tuple(0.25 + 1e-5 * rng.standard_normal(n)
              + 1j * (0.02 + 1e-5 * rng.standard_normal(n)))
    xi = tuple(-0.2 + 1e-5 * rng.standard_normal(n)
               + 1j * 1e-5 * rng.standard_normal(n))
    spec = SpectralConfig(u=u, xi=xi)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        normalized_z_determinant(spec, bc, setup)
    assert any(issubclass(w.category, ConditioningWarning) for w in caught)


def test_saturating_overflow_value(draw, bc, setup):
    import math
    spec = draw(64, 299, setup, bc)
    z = normalized_z_determinant(spec, bc, setup)
    assert math.isinf(abs(z))
