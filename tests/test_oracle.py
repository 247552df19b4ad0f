"""Brute-force routes: monodromy contraction, configuration enumeration,
the face-type creation-operator route, and the spectral configuration's
shared sigma grids."""

import re

import numpy as np
import pytest

from ellipdw import (ModularSetup, SpectralConfig, closedform, double_row_monodromy,
                     face_creation_operator, face_one_row_monodromy, oracle,
                     partition_bruteforce, partition_enumeration,
                     partition_face_route)
from ellipdw.boundary import boundary_state_factors, vertex_K_matrix
from ellipdw.elliptic import sigma, sigma_separable
from ellipdw.errors import SingularityError, SizeError
from ellipdw.rmatrices import GENERICITY_FLOOR, sos_R_matrix, vertex_R_matrix
from ellipdw.tensor import embed_matrix

from conftest import dense_face_monodromy, random_weight
from highprec import ref_sigma


@pytest.fixture(scope="module")
def spec1():
    return SpectralConfig(u=(0.27 + 0.06j,), xi=(0.13 - 0.04j,))


def spec_n(draw, n, seed, setup, bc):
    return draw(n, seed, setup, bc)


def test_monodromy_n1_hand_product(spec1, bc, setup):
    """N=1: the double-row matrix equals the hand-composed R K R product."""
    t = double_row_monodromy(spec1.u[0], spec1, bc, setup)
    u, xi = spec1.u[0], spec1.xi[0]
    hand = (embed_matrix(vertex_R_matrix(u - xi, setup), (0, 1), 2)
            @ embed_matrix(vertex_K_matrix(u, bc, setup), (0,), 2)
            @ embed_matrix(vertex_R_matrix(u + xi, setup), (1, 0), 2))
    assert np.max(np.abs(t.mat - hand)) <= 1e-12


@pytest.mark.parametrize("n,seed", [(1, 100), (2, 101), (3, 99)])
def test_monodromy_exchange_relation(n, seed, draw, bc, setup):
    """R T R T = T R T R on two auxiliary spaces."""
    spec = draw(n, seed, setup, bc)
    u_i, u_j = 0.21 + 0.04j, 0.33 - 0.07j
    t_i = double_row_monodromy(u_i, spec, bc, setup, aux="bi")
    t_j = double_row_monodromy(u_j, spec, bc, setup, aux="bj")
    sites = ("bi", "bj") + tuple(range(1, n + 1))
    ti = t_i.on_sites(sites).mat
    tj = t_j.on_sites(sites).mat
    def rbar(z, first, second):
        from ellipdw.tensor import DenseOperator
        return DenseOperator((first, second),
                             vertex_R_matrix(z, setup)).on_sites(sites).mat
    lhs = rbar(u_i - u_j, "bi", "bj") @ ti @ rbar(u_i + u_j, "bj", "bi") @ tj
    rhs = tj @ rbar(u_i + u_j, "bi", "bj") @ ti @ rbar(u_i - u_j, "bj", "bi")
    assert np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)) <= 1e-9


def test_monodromy_permutation_simplification(bc, setup):
    """At xi_1 = u_i the outgoing factor R(u_i - xi_1) degenerates to the
    permutation; the monodromy equals the product with P inserted there."""
    u = 0.27 + 0.06j
    spec = SpectralConfig(u=(u,), xi=(u,))
    t = double_row_monodromy(u, spec, bc, setup)
    p = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
    hand = (embed_matrix(p, (0, 1), 2)
            @ embed_matrix(vertex_K_matrix(u, bc, setup), (0,), 2)
            @ embed_matrix(vertex_R_matrix(2 * u, setup), (1, 0), 2))
    assert np.max(np.abs(t.mat - hand)) <= 1e-12


def test_bruteforce_n1_hand_contraction(spec1, bc, setup):
    o1b, o2bb, o1bk, o2k = boundary_state_factors(bc, spec1.xi, spec1.u, setup)
    t = double_row_monodromy(spec1.u[0], spec1, bc, setup)
    z_hand = np.kron(o2bb[0], o1b[0]) @ t.mat @ np.kron(o1bk[0], o2k[0])
    z = partition_bruteforce(spec1, bc, setup)
    assert abs(z - z_hand) <= 1e-12 * abs(z_hand)


@pytest.mark.parametrize("n,seed", [(1, 102), (2, 103)])
def test_enumeration_matches_bruteforce(n, seed, draw, bc, setup):
    spec = draw(n, seed, setup, bc)
    z_en = partition_enumeration(spec, bc, setup)
    z_bf = partition_bruteforce(spec, bc, setup)
    tol = 1e-12 if n == 1 else 1e-10
    assert abs(z_en - z_bf) <= tol * abs(z_bf)


def test_enumeration_size_guard(draw, bc, setup):
    spec = draw(3, 104, setup, bc)
    with pytest.raises(SizeError):
        partition_enumeration(spec, bc, setup)


def test_bruteforce_u_permutation_symmetry(draw, bc, setup):
    spec = draw(2, 105, setup, bc)
    swapped = SpectralConfig(u=spec.u[::-1], xi=spec.xi)
    z = partition_bruteforce(spec, bc, setup)
    assert abs(partition_bruteforce(swapped, bc, setup) - z) <= 1e-9 * abs(z)


def test_bruteforce_xi_permutation_symmetry(draw, bc, setup):
    spec = draw(3, 106, setup, bc)
    swapped = SpectralConfig(u=spec.u, xi=spec.xi[::-1])
    z = partition_bruteforce(spec, bc, setup)
    assert abs(partition_bruteforce(swapped, bc, setup) - z) <= 1e-9 * abs(z)


def test_face_monodromy_n1_unwinds_to_sos(spec1, setup):
    from conftest import random_weight
    rng = np.random.default_rng(41)
    l = random_weight(rng, setup)
    u = 0.23 + 0.07j
    t = face_one_row_monodromy(l, u, spec1, setup)
    r = sos_R_matrix(u - spec1.xi[0], l, setup)
    for i in (1, 2):
        for j in (1, 2):
            for out in (1, 2):
                for inp in (1, 2):
                    lhs = t[(i, j)].mat[out - 1, inp - 1]
                    rhs = r[2 * (i - 1) + (out - 1), 2 * (j - 1) + (inp - 1)]
                    assert abs(lhs - rhs) <= 1e-13


def test_face_monodromy_weight_structure(draw, bc, setup):
    """T^2_1 lowers the number of down spins by exactly one."""
    rng = np.random.default_rng(42)
    l = random_weight(rng, setup)
    spec = draw(3, 107, setup, bc)
    t21 = face_one_row_monodromy(l, 0.21 - 0.05j, spec, setup)[(2, 1)].mat
    n = 3
    for col in range(2 ** n):
        for row in range(2 ** n):
            if bin(row).count("1") != bin(col).count("1") - 1:
                assert t21[row, col] == 0.0


def test_face_monodromy_explicit_sum_n2(draw, bc, setup):
    """Entries match the explicit double sum over intermediate indices."""
    rng = np.random.default_rng(43)
    l = random_weight(rng, setup)
    spec = draw(2, 108, setup, bc)
    u = 0.19 + 0.08j
    t = face_one_row_monodromy(l, u, spec, setup)
    eta = setup.eta
    shifts = {1: (1, 0.5, -0.5), 2: (2, -0.5, 0.5)}
    for i in (1, 2):
        for j in (1, 2):
            for i1p in (1, 2):
                for i2p in (1, 2):
                    for i1 in (1, 2):
                        for i2 in (1, 2):
                            acc = 0.0
                            r1 = sos_R_matrix(u - spec.xi[0], l, setup)
                            from ellipdw import WeightVector
                            _, e1, e2 = shifts[i1p]
                            l_shift = WeightVector(l.m1 - eta * e1, l.m2 - eta * e2)
                            r2 = sos_R_matrix(u - spec.xi[1], l_shift, setup)
                            for a1 in (1, 2):
                                acc += (r2[2 * (i - 1) + (i2p - 1), 2 * (a1 - 1) + (i2 - 1)]
                                        * r1[2 * (a1 - 1) + (i1p - 1), 2 * (j - 1) + (i1 - 1)])
                            row = 2 * (i1p - 1) + (i2p - 1)
                            col = 2 * (i1 - 1) + (i2 - 1)
                            assert abs(t[(i, j)].mat[row, col] - acc) <= 1e-12


def test_creation_operator_weight_structure(draw, bc, setup):
    """Applied to all-down it lands on single-flip states."""
    spec = draw(2, 109, setup, bc)
    lam = bc.weight
    m = lam.shifted(1, setup.eta, -2)
    op = face_creation_operator(m, bc, spec.u[1], spec, setup).mat
    psi = np.zeros(4, dtype=complex)
    psi[3] = 1.0
    out = op @ psi
    assert abs(out[0]) < 1e-12 * np.max(np.abs(out))  # no double flip
    assert abs(out[3]) < 1e-12 * np.max(np.abs(out))  # no zero flip
    assert np.max(np.abs(out[1:3])) > 0


def test_creation_operator_n1_hand_expansion(spec1, bc, setup):
    from ellipdw import sigma
    lam = bc.weight
    eta = setup.eta
    m = lam.shifted(1, eta, -1)
    u, xi = spec1.u[0], spec1.xi[0]
    s = lambda z: sigma(z, setup)
    k1 = s(bc.lambda1 + bc.zeta - u) / s(bc.lambda1 + bc.zeta + u)
    k2 = s(bc.lambda2 + bc.zeta - u) / s(bc.lambda2 + bc.zeta + u)
    term1 = k1 * (s(eta) * s(u - xi + lam.m12) / (s(u - xi + eta) * s(lam.m12)))
    b21 = s(u - xi) * s(lam.m21 - eta) / (s(u - xi + eta) * s(lam.m21))
    c_t = s(eta) * s(lam.m12 - u - xi) / (s(-u - xi) * s(lam.m12 + eta))
    term2 = k2 * b21 * c_t
    expected = (s(m.m21) / s(lam.m21)) * (s(u + xi) / s(u + xi + eta)) * (term1 - term2)
    op = face_creation_operator(m, bc, u, spec1, setup).mat
    assert abs(op[0, 1] - expected) <= 1e-12 * abs(expected)


def _assert_rel_close(a, b, tol=1e-12):
    assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_row_monodromy_equals_per_ket_application(n, draw, bc, setup):
    """The batched operator equals the basis kets applied one at a time, bit
    for bit, and the product of dense shifted R factors to rounding."""
    rng = np.random.default_rng(45)
    l = random_weight(rng, setup)
    u = 0.21 - 0.05j
    spec = draw(n, 120 + n, setup, bc)
    dim = 2 ** n
    t = face_one_row_monodromy(l, u, spec, setup)
    dense = dense_face_monodromy(l, u, spec, setup)
    for j in (1, 2):
        cols = []
        for col in range(dim):
            phi = np.zeros((2, dim), dtype=complex)
            phi[j - 1, col] = 1.0
            phi = oracle.face_monodromy_apply(l, u, phi.reshape((2,) * (n + 1)),
                                              spec, setup)
            cols.append(phi.reshape(2, dim))
        per_ket = np.stack(cols, axis=-1)
        for i in (1, 2):
            mat = np.ascontiguousarray(t[(i, j)].mat)
            assert mat.tobytes() == per_ket[i - 1].tobytes()
            _assert_rel_close(mat, dense[i - 1, :, j - 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_creation_operator_equals_per_ket_application(n, draw, bc, setup):
    """Same check for the double-row creation operator; the dense reference
    composes T(lambda|u) with the inner T(lambda +- eta e_hat|-u-eta)."""
    spec = draw(n, 130 + n, setup, bc)
    lam, eta = bc.weight, setup.eta
    m = lam.shifted(1, eta, n - 2)
    u = spec.u[0]
    dim = 2 ** n
    op = face_creation_operator(m, bc, u, spec, setup).mat
    per_ket = np.stack([oracle.face_creation_apply(m, bc, u, ket.reshape((2,) * n),
                                                   spec, setup).ravel()
                        for ket in np.eye(dim, dtype=complex)], axis=-1)
    assert op.tobytes() == per_ket.tobytes()
    pref, k1, k2 = oracle._creation_scalars(m, bc, u, spec, setup)
    outer = dense_face_monodromy(lam, u, spec, setup)
    inner_t = dense_face_monodromy(lam.shifted(2, eta, -1), -u - eta, spec, setup)
    inner_s = dense_face_monodromy(lam.shifted(1, eta, -1), -u - eta, spec, setup)
    ref = pref * (k1 * outer[1, :, 0] @ inner_t[1, :, 1]
                  - k2 * outer[1, :, 1] @ inner_s[1, :, 0])
    _assert_rel_close(op, ref)


def test_scalar_product_equals_bruteforce_n2(draw, bc, setup):
    """Product of creation-operator matrices between extremal states."""
    spec = draw(2, 110, setup, bc)
    lam = bc.weight
    acc = np.zeros(4, dtype=complex)
    acc[3] = 1.0
    for step in (2, 1):
        m = lam.shifted(1, setup.eta, -(2 * step - 2))
        acc = face_creation_operator(m, bc, spec.u[step - 1], spec, setup).mat @ acc
    z_bf = partition_bruteforce(spec, bc, setup)
    assert abs(acc[0] - z_bf) <= 1e-9 * abs(z_bf)


@pytest.mark.parametrize("n,seed", [(1, 111), (2, 112), (3, 113)])
def test_face_route_matches_bruteforce(n, seed, draw, bc, setup):
    spec = draw(n, seed, setup, bc)
    z_face = partition_face_route(spec, bc, setup)
    z_bf = partition_bruteforce(spec, bc, setup)
    assert abs(z_face - z_bf) <= 1e-9 * max(abs(z_face), abs(z_bf))


def test_face_route_xi_symmetry(draw, bc, setup):
    spec = draw(2, 114, setup, bc)
    z = partition_face_route(spec, bc, setup)
    swapped = SpectralConfig(u=spec.u, xi=spec.xi[::-1])
    assert abs(partition_face_route(swapped, bc, setup) - z) <= 1e-9 * abs(z)


def test_empty_products(bc, setup):
    empty = SpectralConfig(u=(), xi=())
    assert partition_face_route(empty, bc, setup) == 1.0
    assert partition_bruteforce(empty, bc, setup) == 1.0
    assert partition_enumeration(empty, bc, setup) == 1.0


def test_bruteforce_size_guard(bc, setup):
    spec = SpectralConfig(u=(0.1,) * 13, xi=(0.2,) * 13)
    with pytest.raises(SizeError):
        partition_bruteforce(spec, bc, setup)


# ---------------------------------------------------------------------------
# The shared (u, xi) sigma grids.
# ---------------------------------------------------------------------------

def _grid_expressions(spec, setup):
    """Each shared table's argument, spelled as the closed forms spell it;
    for ``xi_ratio``, the arguments of its numerator and denominator."""
    u = np.asarray(spec.u, dtype=complex)
    xi = np.asarray(spec.xi, dtype=complex)
    eta = setup.eta
    ia, ib = np.triu_indices(spec.n, k=1)
    xd = xi[:, None] - xi[None, :]
    return {"minus": u[:, None] - xi[None, :], "plus": u[:, None] + xi[None, :],
            "minus_eta": u[:, None] - xi[None, :] + eta,
            "plus_eta": u[:, None] + xi[None, :] + eta, "s2u": 2 * u,
            "u_diff": u[ib] - u[ia], "u_sum_eta": u[ib] + u[ia] + eta,
            "xi_diff": xi[ia] - xi[ib], "xi_sum": xi[ia] + xi[ib],
            "xi_ratio": (xd + eta, xd)}


LU_GRIDS = ("minus", "plus", "minus_eta", "plus_eta")
SERIES_GRIDS = LU_GRIDS + ("s2u",)


def test_spectral_grids_match_fresh_sigma_and_are_read_only(draw, bc, setup):
    """The determinant's four grids and sigma(2u) equal a fresh sigma call
    bit for bit; the pair families, one separable product each, and the
    off-diagonal of G match the 60-digit reference, and G's diagonal is 1."""
    spec = draw(5, 401, setup, bc)
    grids = spec.grids(setup)
    for name, z in _grid_expressions(spec, setup).items():
        vals = getattr(grids, name)
        if name in SERIES_GRIDS:
            assert vals.tobytes() == sigma(z, setup).tobytes(), name
        elif name == "xi_ratio":
            off = ~np.eye(spec.n, dtype=bool)
            num, den = (np.array([ref_sigma(v, setup.tau) for v in w[off]]) for w in z)
            ref = num / den
            assert np.all(np.abs(vals[off] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
            assert np.all(np.diag(vals) == 1.0)
        else:
            ref = np.array([ref_sigma(v, setup.tau) for v in z])
            assert np.all(np.abs(vals - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), name
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0.0
    assert spec.grids(setup) is grids


def test_drawn_configuration_evaluates_each_grid_once(draw, bc, setup, monkeypatch):
    """After the draw's genericity check, every closed form together
    evaluates sigma(2u) once and G's numerator as the one GEMM, and no
    second check evaluates a shared grid again, by either evaluator; a
    fresh configuration with the same points evaluates each family once."""
    spec = draw(5, 402, setup, bc)
    expressions = _grid_expressions(spec, setup)
    shared = {expressions[name].tobytes(): name for name in SERIES_GRIDS}
    points = {np.asarray(v, dtype=complex).tobytes() for v in (spec.u, spec.xi)}
    seen, separable = [], []

    def counting_sigma(u, s):
        if np.ndim(u) and np.asarray(u).tobytes() in shared:
            seen.append(shared[np.asarray(u).tobytes()])
        return sigma(u, s)

    def counting_separable(p, q, s, *args):
        if np.asarray(p).tobytes() in points:
            separable.append(args)
        return sigma_separable(p, q, s, *args)

    for module in (oracle, closedform):
        monkeypatch.setattr(module, "sigma", counting_sigma)
    monkeypatch.setattr(oracle, "sigma_separable", counting_separable)
    closedform.normalized_z_permsum(spec, bc, setup)
    closedform.normalized_z_determinant(spec, bc, setup)
    for route in ("permsum", "determinant"):
        closedform.full_z(spec, bc, setup, route)
    closedform.recursion_residual(spec, bc, setup)
    spec.require_generic(setup)
    assert seen == ["s2u"] and separable == [(-1, setup.eta)]
    fresh = SpectralConfig(spec.u, spec.xi)
    closedform.normalized_z_determinant(fresh, bc, setup)
    assert sorted(seen[1:]) == sorted(SERIES_GRIDS) and len(separable) == 5
    fresh.require_generic(setup)
    fresh.require_generic(setup)
    closedform.normalized_z_permsum(fresh, bc, setup)
    closedform.normalized_z_permsum(fresh, bc, setup)
    assert len(seen) == 6 and len(separable) == 8


@pytest.mark.parametrize("family,u,xi", [
    ("u_b - u_a", (0.2, 0.2), (-0.1, -0.3)),
    ("u_b + u_a + eta", (0.2, -0.51), (-0.1, -0.3)),
    ("xi_a - xi_b", (0.2, 0.3), (-0.1, -0.1)),
    ("xi_a + xi_b", (0.2, 0.3), (-0.1, 0.1)),
    ("u_a + u_b", (0.2, -0.2), (-0.1, -0.3)),
    ("u_a - u_b + eta", (0.2, 0.51), (-0.1, -0.3)),
    ("u_b - u_a + eta", (0.51, 0.2), (-0.1, -0.3)),
])
def test_require_generic_refuses_each_pair_family(family, u, xi, setup):
    """Each configuration puts a zero of sigma in one pair family only (eta
    = 0.31); the check refuses it, naming the family, and passes once the
    points move apart."""
    with pytest.raises(SingularityError, match=re.escape(f"sigma({family})")):
        SpectralConfig(u=u, xi=xi).require_generic(setup)
    SpectralConfig(u=(u[0], u[1] + 0.03j), xi=(xi[0], xi[1] + 0.02j)).require_generic(setup)


def test_spectral_grids_per_setup_and_identity_unchanged(draw, bc, setup):
    spec = draw(4, 403, setup, bc)
    other = ModularSetup(tau=1.1j, eta=0.31)
    assert spec.grids(setup) is not spec.grids(other)
    assert spec.grids(other).minus.tobytes() != spec.grids(setup).minus.tobytes()
    twin = SpectralConfig(spec.u, spec.xi)
    assert spec == twin and hash(spec) == hash(twin) == hash((spec.u, spec.xi))
    assert repr(spec) == f"SpectralConfig(u={spec.u!r}, xi={spec.xi!r})"
    assert {spec: 1}[twin] == 1


# ---------------------------------------------------------------------------
# Refusals: one configuration below the floor in each checked family.
# ---------------------------------------------------------------------------

_CALLS = {
    "require_generic": lambda s, bc, setup: s.require_generic(setup),
    "permsum": lambda s, bc, setup: closedform.normalized_z_permsum(s, bc, setup),
    "determinant": lambda s, bc, setup: closedform.normalized_z_determinant(s, bc, setup),
    "full_z permsum": lambda s, bc, setup: closedform.full_z(s, bc, setup, "permsum"),
    "full_z determinant": lambda s, bc, setup: closedform.full_z(s, bc, setup,
                                                                 "determinant"),
    "prefactor": lambda s, bc, setup: closedform.partition_prefactor(bc, s, setup),
    "recursion": lambda s, bc, setup: closedform.recursion_residual(s, bc, setup),
    "pole pair": lambda s, bc, setup: closedform.pole_matching_pair(2, s, bc, setup),
}
_ALL = frozenset(_CALLS)
_NOT_PERMSUM = _ALL - {"permsum", "full_z permsum", "prefactor"}

# (family, u, xi, the calls that refuse); eta = 0.31, lambda2 + zeta = -0.06
REFUSAL_MATRIX = [
    ("u_a - xi_k", (0.2, 0.3), (0.2, -0.1), _ALL),
    ("u_a + xi_k", (0.2, 0.3), (-0.2, -0.1), _ALL),
    ("u_a - xi_k + eta", (-0.41, 0.3), (-0.1, -0.2), _ALL),
    ("u_a + xi_k + eta", (-0.21, 0.3), (-0.1, -0.35), _ALL),
    ("lambda2 + zeta + u_a", (0.06, 0.3), (-0.1, -0.2), _ALL - {"require_generic"}),
    ("u_b - u_a", (0.2, 0.2), (-0.1, -0.3), _NOT_PERMSUM),
    ("u_b + u_a + eta", (0.2, -0.51), (-0.1, -0.3), _NOT_PERMSUM),
    ("xi_a - xi_b", (0.2, 0.3), (-0.1, -0.1), _ALL - {"prefactor"}),
    ("xi_a + xi_b", (0.2, 0.3), (-0.1, 0.1), _NOT_PERMSUM),
    ("u_a + u_b", (0.2, -0.2), (-0.1, -0.3), {"require_generic"}),
    ("u_a - u_b + eta", (0.2, 0.51), (-0.1, -0.3), {"require_generic"}),
    ("u_b - u_a + eta", (0.51, 0.2), (-0.1, -0.3), {"require_generic"}),
]


def _least_per_family(u, xi, bc, setup):
    """min |sigma| of every checked family, from plain sigma calls."""
    u, xi = np.asarray(u, dtype=complex), np.asarray(xi, dtype=complex)
    eta = setup.eta
    ia, ib = np.triu_indices(len(u), k=1)
    args = {"u_a - xi_k": u[:, None] - xi[None, :], "u_a + xi_k": u[:, None] + xi[None, :],
            "u_a - xi_k + eta": u[:, None] - xi[None, :] + eta,
            "u_a + xi_k + eta": u[:, None] + xi[None, :] + eta,
            "lambda1 + zeta + u_a": bc.lambda1 + bc.zeta + u,
            "lambda2 + zeta + u_a": bc.lambda2 + bc.zeta + u,
            "u_b - u_a": u[ib] - u[ia], "u_b + u_a + eta": u[ib] + u[ia] + eta,
            "xi_a - xi_b": xi[ia] - xi[ib], "xi_a + xi_b": xi[ia] + xi[ib],
            "u_a + u_b": u[ia] + u[ib], "u_a - u_b + eta": u[ia] - u[ib] + eta,
            "u_b - u_a + eta": u[ib] - u[ia] + eta}
    return {name: float(np.abs(sigma(z, setup)).min()) for name, z in args.items()}


# xi_a = -xi_b makes two columns of the determinant's matrix equal, so scipy
# warns of the exact zero pivot before the route refuses
@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("family,u,xi,refused", REFUSAL_MATRIX,
                         ids=[row[0] for row in REFUSAL_MATRIX])
def test_refusal_matrix(family, u, xi, refused, bc, setup):
    """A configuration with one family below the floor is refused, by
    SingularityError, by exactly the calls that divide by that family, and
    every other call succeeds: on a fresh configuration per call, and on one
    configuration shared by all calls in turn (a refusal survives the
    evaluation of its family)."""
    least = _least_per_family(u, xi, bc, setup)
    assert {name for name, v in least.items() if v < GENERICITY_FLOOR} == {family}
    shared = SpectralConfig(u, xi)
    for spec in (None, shared):
        for name, call in _CALLS.items():
            config = spec or SpectralConfig(u, xi)
            if name in refused:
                with pytest.raises(SingularityError):
                    call(config, bc, setup)
            else:
                call(config, bc, setup)


@pytest.mark.parametrize("family,u,xi", [row[:3] for row in REFUSAL_MATRIX
                                         if "xi_k" in row[0]])
def test_require_generic_names_each_grid_family(family, u, xi, setup):
    with pytest.raises(SingularityError, match=re.escape(f"sigma({family})")):
        SpectralConfig(u=u, xi=xi).require_generic(setup)
