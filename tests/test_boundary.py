"""K-matrix, intertwiners, vertex-face dictionary, and boundary states."""

import numpy as np
import pytest

from ellipdw import (BoundaryConfig, boundary_states, dual_intertwiners,
                     face_K, face_vertex_residual, intertwiner,
                     k_factorization_residual, re_residual, sigma)
from ellipdw.boundary import boundary_state_factors, vertex_K_matrix
from ellipdw.errors import SingularityError
from ellipdw.oracle import SpectralConfig
from ellipdw.tensor import product_state

from conftest import random_points, random_weight
from highprec import ref_theta_level2

GOLDEN_FACE_K1 = 1.7319489484241837 + 0.530128384974281j  # l1=0.41, z=0.17, u=0.29+0.07j
GOLDEN_PHI = (0.9967509494044356 - 0.0012477058576094307j,
              -0.1453031365703001 + 0.09935187818626379j)


def test_vertex_K_near_zero_finite(bc, setup):
    k = vertex_K_matrix(1e-6, bc, setup)
    assert np.all(np.isfinite(k))
    assert np.max(np.abs(k - np.eye(2))) < 1e-4


def test_vertex_K_nondiagonal(bc, setup):
    k = vertex_K_matrix(0.29 + 0.07j, bc, setup)
    assert abs(k[0, 1]) > 1e-6 and abs(k[1, 0]) > 1e-6


def test_vertex_K_domain_error_on_char_zero(bc, setup):
    """sigma_(1,0) vanishes at tau/2: that argument is rejected as a domain error."""
    from ellipdw.errors import DomainError
    with pytest.raises(DomainError):
        vertex_K_matrix(0.5j, bc, setup)


def test_reflection_equation_sweep(bc, setup):
    assert re_residual(0.23 + 0.1j, 0.23 + 0.1j, bc, setup) <= 1e-12
    assert re_residual(0.3 + 0.05j, 0.0, bc, setup) <= 1e-10
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(50):
        u1, u2 = random_points(rng, 2)
        worst = max(worst, re_residual(u1, u2, bc, setup))
    assert worst <= 1e-10


def test_intertwiner_entries_and_reference(setup, weight):
    phi = intertwiner(weight, 1, 0.27 + 0.04j, setup)
    assert abs(phi[0] - GOLDEN_PHI[0]) < 1e-13
    assert abs(phi[1] - GOLDEN_PHI[1]) < 1e-13
    ref = ref_theta_level2(2, 0.27 + 0.04j + 2 * weight.m2, 1j)
    assert abs(intertwiner(weight, 2, 0.27 + 0.04j, setup)[1] - ref) < 1e-13


def test_intertwiner_determinant_identity(setup, weight):
    """det of the column pair is proportional to sigma(u+m1+m2-1/2) sigma(m12),
    with a ratio constant in u and in m."""
    def ratio(m, u):
        cols = np.column_stack([intertwiner(m, 1, u, setup),
                                intertwiner(m, 2, u, setup)])
        det = cols[0, 0] * cols[1, 1] - cols[0, 1] * cols[1, 0]
        return det / (sigma(u + m.m1 + m.m2 - 0.5, setup) * sigma(m.m12, setup))

    base = ratio(weight, -0.3)
    for u in np.linspace(-0.3, 0.5, 20):
        assert abs(ratio(weight, u) - base) <= 1e-10 * abs(base)
    rng = np.random.default_rng(32)
    for _ in range(5):
        m = random_weight(rng, setup)
        assert abs(ratio(m, 0.21 + 0.03j) - base) <= 1e-10 * abs(base)


def test_equal_weights_degenerate_columns(setup):
    from ellipdw import WeightVector
    m = WeightVector(0.25 + 0.01j, 0.25 + 0.01j)
    cols = np.column_stack([intertwiner(m, 1, 0.3, setup),
                            intertwiner(m, 2, 0.3, setup)])
    assert abs(np.linalg.det(cols)) < 1e-13
    with pytest.raises(SingularityError):
        dual_intertwiners(m, 0.3, setup)


def test_dual_biorthogonality_and_completeness(setup):
    rng = np.random.default_rng(33)
    for _ in range(100):
        m = random_weight(rng, setup)
        u = random_points(rng, 1)[0]
        bar, tilde = dual_intertwiners(m, u, setup)
        cols = np.column_stack([intertwiner(m, j, u, setup) for j in (1, 2)])
        assert np.max(np.abs(bar @ cols - np.eye(2))) <= 1e-12
        comp = sum(np.outer(cols[:, j], bar[j]) for j in (0, 1))
        assert np.max(np.abs(comp - np.eye(2))) <= 1e-12
        cols_t = np.column_stack([
            intertwiner(m.shifted(j, setup.eta, -1), j, u, setup) for j in (1, 2)])
        comp_t = sum(np.outer(cols_t[:, j], tilde[j]) for j in (0, 1))
        assert np.max(np.abs(comp_t - np.eye(2))) <= 1e-12


def test_face_vertex_sweep(setup):
    rng = np.random.default_rng(34)
    m = random_weight(rng, setup)
    assert face_vertex_residual(0.2, 0.2, m, setup) <= 1e-12
    worst = 0.0
    for _ in range(50):
        m = random_weight(rng, setup)
        u1, u2 = random_points(rng, 2)
        worst = max(worst, face_vertex_residual(u1, u2, m, setup))
    assert worst <= 1e-10
    m = random_weight(rng, setup)
    assert face_vertex_residual(0.11, -0.27, m.shifted(1, setup.eta), setup) <= 1e-10


def test_face_K_values(bc, setup):
    assert np.max(np.abs(face_K(bc, 0.0, setup) - np.eye(2))) <= 1e-13
    u = 0.23 + 0.1j
    k_plus = face_K(bc, u, setup)
    k_minus = face_K(bc, -u, setup)
    assert abs(k_plus[0, 0] * k_minus[0, 0] - 1) <= 1e-13
    assert abs(face_K(bc, 0.29 + 0.07j, setup)[0, 0] - GOLDEN_FACE_K1) < 1e-13


def test_k_factorization(bc, setup):
    rng = np.random.default_rng(35)
    worst = max(k_factorization_residual(u, bc, setup)
                for u in random_points(rng, 50))
    assert worst <= 1e-9
    assert k_factorization_residual(1e-13, bc, setup) <= 1e-10
    # relabeling lambda1 <-> lambda2 permutes the sum without changing it
    swapped = BoundaryConfig(bc.lambda2, bc.lambda1, bc.zeta)
    u = 0.27 - 0.06j
    assert k_factorization_residual(u, swapped, setup) <= 1e-9


def test_boundary_states_n1(bc, setup):
    spec = SpectralConfig(u=(0.27 + 0.06j,), xi=(0.13 - 0.04j,))
    omega2, _, _, _ = boundary_states(bc, spec, setup)
    expected = intertwiner(bc.weight, 2, spec.xi[0], setup)
    assert np.max(np.abs(omega2 - expected)) < 1e-14


def test_boundary_state_sitewise_orthonormality(bc, setup):
    """<Omega^(1)| against matching tilde columns reproduces delta per site."""
    spec = SpectralConfig(u=(0.27 + 0.06j, 0.31 - 0.02j),
                          xi=(0.13 - 0.04j, -0.21 + 0.05j))
    omega1_bra, _, _, _ = boundary_state_factors(bc, spec.xi, spec.u, setup)
    lam = bc.weight
    for i in (1, 2):
        bottom = lam.shifted(1, setup.eta, i)
        for mu in (1, 2):
            col = intertwiner(bottom.shifted(mu, setup.eta, -1), mu,
                              spec.xi[i - 1], setup)
            inner = omega1_bra[i - 1] @ col
            assert abs(inner - (1.0 if mu == 1 else 0.0)) <= 1e-12


def test_boundary_states_n2_product_structure(bc, setup):
    spec = SpectralConfig(u=(0.27 + 0.06j, 0.31 - 0.02j),
                          xi=(0.13 - 0.04j, -0.21 + 0.05j))
    omega2, omega1bar, omega1, omega2bar = boundary_states(bc, spec, setup)
    o1b, o2bb, o1bk, o2k = boundary_state_factors(bc, spec.xi, spec.u, setup)
    assert np.max(np.abs(omega2 - product_state(o2k))) < 1e-12
    assert np.max(np.abs(omega1bar - product_state(o1bk))) < 1e-12
    assert np.max(np.abs(omega1 - product_state(o1b))) < 1e-12
    assert np.max(np.abs(omega2bar - product_state(o2bb))) < 1e-12


def test_spectral_compatibility_matches_pointwise_check(bc, setup):
    """The one array sigma call per lambda_i refuses exactly the point sets
    that a scalar call per point refuses: sigma(1) = 0 puts u = 1 - l1 - z
    on a zero, and sigma(0) = 0 puts u = -l2 - z on one."""
    def pointwise(u):
        return all(abs(sigma(lam + bc.zeta + x, setup)) >= 1e-8
                   for x in u for lam in (bc.lambda1, bc.lambda2))

    for u, expected in (((0.2, 0.31 + 0.05j), True),
                        ((0.2, 1 - bc.lambda1 - bc.zeta), False),
                        ((-bc.lambda2 - bc.zeta, 0.3), False), ((), True)):
        assert pointwise(u) is expected
        if expected:
            bc.require_spectral_compatible(setup, u)
        else:
            with pytest.raises(SingularityError):
                bc.require_spectral_compatible(setup, u)
