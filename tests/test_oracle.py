"""Brute-force routes: monodromy contraction, configuration enumeration,
the face-type creation-operator route, and the spectral configuration's
shared sigma grids."""

import gc
import hashlib
import re
import weakref

import numpy as np
import pytest

from ellipdw import (ModularSetup, SpectralConfig, closedform, double_row_monodromy,
                     face_creation_operator, face_one_row_monodromy, oracle,
                     partition_bruteforce, partition_enumeration,
                     partition_face_route)
from ellipdw import elliptic, rmatrices
from ellipdw.boundary import BoundaryConfig, boundary_state_factors, face_K, vertex_K_matrix
from ellipdw.elliptic import sigma, sigma_separable
from ellipdw.errors import SingularityError, SizeError
from ellipdw.rmatrices import GENERICITY_FLOOR, sos_R_matrix, vertex_R_matrix
from ellipdw.tensor import embed_matrix, product_state

from conftest import apply_R_stack, dense_face_monodromy, random_weight
from highprec import ref_sigma

# the face route's array R build against scalar builds, relative to
# max(1, |entry|): both round as Python's complex arithmetic, so at N = 1..4
# on both test setups every entry is bit-identical (measured to N = 10)
FACE_TABLE_TOL = 0.0


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


def test_bruteforce_n1_hand_contraction(spec1, draw, bc, setup):
    """N = 1, 2, 3: Z = <omega1| M_1 ... M_N |omega2>, where M_a is the dense
    double-row monodromy T(u_a) with its bar site closed by <omega2bar_a| on
    the left and |omega1bar_a> on the right."""
    for spec in (spec1, draw(2, 141, setup, bc), draw(3, 142, setup, bc)):
        o1b, o2bb, o1bk, o2k = boundary_state_factors(bc, spec.xi, spec.u, setup)
        eye = np.eye(2 ** spec.n)
        ket = product_state(o2k)
        for a in range(spec.n, 0, -1):
            t = double_row_monodromy(spec.u[a - 1], spec, bc, setup)
            ket = (np.kron(o2bb[a - 1], eye) @ t.mat
                   @ np.kron(o1bk[a - 1][:, None], eye) @ ket)
        z_hand = product_state(o1b) @ ket
        z = partition_bruteforce(spec, bc, setup)
        assert abs(z - z_hand) <= 1e-12 * abs(z_hand), spec.n


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


@pytest.mark.parametrize("n", [1, 2])
def test_enumeration_sweep_counts_and_matches_bruteforce(n, draw, bc, setup):
    """The sweep keeps 2^(2N^2 + 3N) configurations, every one with no zero
    R, K or ket entry (32 at N = 1, 16,384 at N = 2), and their sum matches
    bruteforce on seeds 1-10."""
    tol = 1e-12 if n == 1 else 1e-10
    for seed in range(1, 11):
        spec = draw(n, seed, setup, bc)
        assert len(oracle._configuration_weights(spec, bc, setup)) == 2 ** (2 * n * n + 3 * n)
        z_bf = partition_bruteforce(spec, bc, setup)
        assert abs(partition_enumeration(spec, bc, setup) - z_bf) <= tol * abs(z_bf), seed


# partition_enumeration on the identity suite's N = 2 draws, draw(2, s + 12)
# for s = 1000..1006 on the default setup and boundary, recorded from a
# depth-first recursion over the configurations
RECURSION_VALUES = (
    "(-0.39403155965749004-7.974291083036008j)",
    "(8.618488412577918-51.165018567162015j)",
    "(1.8356962582609315-9.312007715815325j)",
    "(-4.844762629118209+0.3701746936184934j)",
    "(-6.003232931220615+2.0909123244344814j)",
    "(15.011073919685437-25.077555386289124j)",
    "(-1.3066712045137154-4.690078018107973j)",
)


def test_enumeration_keeps_the_recursion_values(draw, bc, setup):
    for s, value in zip(range(1000, 1007), RECURSION_VALUES):
        z = partition_enumeration(draw(2, s + 12, setup, bc), bc, setup)
        assert abs(z - complex(value)) <= 1e-13 * abs(complex(value)), s


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
    op = face_creation_operator(m, bc, 1, spec, setup).mat
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
    op = face_creation_operator(m, bc, 0, spec1, setup).mat
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
    op = face_creation_operator(m, bc, 0, spec, setup).mat
    per_ket = np.stack([oracle.face_creation_apply(m, bc, 0, ket.reshape((2,) * n),
                                                   spec, setup).ravel()
                        for ket in np.eye(dim, dtype=complex)], axis=-1)
    assert op.tobytes() == per_ket.tobytes()
    pref, k1, k2 = oracle._creation_scalars(m, bc, 0, spec, setup)
    outer = dense_face_monodromy(lam, u, spec, setup)
    inner_t = dense_face_monodromy(lam.shifted(2, eta, -1), -u - eta, spec, setup)
    inner_s = dense_face_monodromy(lam.shifted(1, eta, -1), -u - eta, spec, setup)
    ref = pref * (k1 * outer[1, :, 0] @ inner_t[1, :, 1]
                  - k2 * outer[1, :, 1] @ inner_s[1, :, 0])
    _assert_rel_close(op, ref)


def _layer_by_layer(phi, table, n):
    """One monodromy's ``_face_R_table`` row applied to ``phi`` (axes aux,
    site1..siteN, batch...) as one reference ``apply_R_stack`` per layer."""
    for k in range(1, n + 1):
        phi = apply_R_stack(phi, table[rmatrices.layer(k - 1)], 0, k,
                            spectators=tuple(range(1, k)))
    return phi


@pytest.mark.parametrize("n", range(1, oracle.ROUTE_GUARDS["face"] + 1))
def test_face_layer_kernel_equals_apply_R_stack(n, draw, bc, setup):
    """The face layers, one ``rmatrices.apply_R_layer`` each, equal the
    reference ``apply_R_stack`` applied layer by layer byte for byte, for
    one monodromy (B = 1) and for the creation operator's inner pair
    (B = 2), with and without trailing batch axes; the batched pair equals
    its two separate passes."""
    spec = draw(n, 160 + n, setup, bc)
    table = oracle._creation_R_table(bc, spec.u[:1], spec, setup)[:2, 0]  # inner T, inner S
    blocks = rmatrices.spectator_blocks(table, n)
    rng = np.random.default_rng(n)
    for batch in ((), (3,), (2, 3)):
        shape = (2, 2) + (2,) * n + batch
        phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        phi[0, 0] = phi[1, 1] = 0.0  # the inner pair's inputs: (0, psi) and (psi, 0)
        ref = np.stack([_layer_by_layer(phi[b], table[b], n) for b in (0, 1)])
        pair = phi.copy()
        oracle._apply_face_layers(pair, blocks, n)
        assert pair.tobytes() == ref.tobytes(), batch
        for b in (0, 1):
            lone = phi[b:b + 1].copy()
            oracle._apply_face_layers(lone, blocks[b:b + 1], n)
            assert lone.tobytes() == ref[b:b + 1].tobytes(), (batch, b)


# sha256 (first 32 hex digits) over N = 1..5 of the face operators' bytes as
# the per-layer reference ``apply_R_stack`` contraction made them, on draw(N, 150 + N)
FACE_DIGESTS = {"setup": ("2d41a6ae68b8d42f7a1528f662550bd3", "24a65526631f57d97c9765a541ab66f4"),
                "setup_complex_eta": ("4b4a3fb2cb01c741c34b00fcc454723c",
                                      "47cef7c2012427f7bf0f79600f5bcd87")}


@pytest.mark.parametrize("setup_name", sorted(FACE_DIGESTS))
def test_face_operators_keep_their_bits(setup_name, draw, bc, weight, request):
    """``face_one_row_monodromy`` (its four entries) and
    ``face_creation_operator`` at N = 1..5 have the bytes pinned above."""
    setup = request.getfixturevalue(setup_name)
    one_row, creation = hashlib.sha256(), hashlib.sha256()
    for n in range(1, 6):
        spec = draw(n, 150 + n, setup, bc)
        t = face_one_row_monodromy(weight, 0.21 - 0.05j, spec, setup)
        for key in ((1, 1), (1, 2), (2, 1), (2, 2)):
            one_row.update(t[key].mat.tobytes())
        m = bc.weight.shifted(1, setup.eta, n - 2)
        creation.update(face_creation_operator(m, bc, n - 1, spec, setup).mat.tobytes())
    assert (one_row.hexdigest()[:32], creation.hexdigest()[:32]) == FACE_DIGESTS[setup_name]


@pytest.mark.parametrize("setup_name", ["setup", "setup_complex_eta"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_R_table_matches_per_matrix_builds(n, setup_name, draw, bc, request):
    """Every factor of the face route's one array build, for each (step,
    monodromy, layer, shift), equals its own scalar ``sos_R_matrix`` build bit
    for bit here: the entries of both are combined as Python combines complex
    numbers, and the array sigma sums stop at each element's own step."""
    setup = request.getfixturevalue(setup_name)
    spec = draw(n, 140 + n, setup, bc)
    lam, eta = bc.weight, setup.eta
    table = oracle._creation_R_table(bc, spec.u, spec, setup)
    monodromies = ((lam.shifted(2, eta, -1), lambda u: -u - eta),
                   (lam.shifted(1, eta, -1), lambda u: -u - eta), (lam, lambda u: u))
    assert table.shape == (3, n, n * (n + 1) // 2, 4, 4)
    worst = 0.0
    for t, (l, arg) in enumerate(monodromies):
        for s, u in enumerate(spec.u):
            for k in range(1, n + 1):
                for n2 in range(k):
                    ref = sos_R_matrix(arg(u) - spec.xi[k - 1],
                                       l.shifted(1, eta, (k - 1) - 2 * n2), setup)
                    err = np.abs(table[t, s, k * (k - 1) // 2 + n2] - ref)
                    worst = max(worst, float(np.max(err / np.maximum(1.0, np.abs(ref)))))
    assert worst <= FACE_TABLE_TOL


def test_scalar_product_equals_bruteforce_n2(draw, bc, setup):
    """Product of creation-operator matrices between extremal states."""
    spec = draw(2, 110, setup, bc)
    lam = bc.weight
    acc = np.zeros(4, dtype=complex)
    acc[3] = 1.0
    for step in (2, 1):
        m = lam.shifted(1, setup.eta, -(2 * step - 2))
        acc = face_creation_operator(m, bc, step - 1, spec, setup).mat @ acc
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


def test_spectral_grids_match_fresh_sigma_and_are_read_only(draw, bc, setup):
    """sigma(2u) equals a fresh sigma call bit for bit; the determinant's
    four grids and the pair families, one separable product each, and the
    off-diagonal of G match the 60-digit reference, and G's diagonal is 1."""
    spec = draw(5, 401, setup, bc)
    grids = spec.grids(setup)
    for name, z in _grid_expressions(spec, setup).items():
        vals = getattr(grids, name)
        if name == "s2u":
            assert vals.tobytes() == sigma(z, setup).tobytes(), name
        elif name == "xi_ratio":
            off = ~np.eye(spec.n, dtype=bool)
            num, den = (np.array([ref_sigma(v, setup.tau) for v in w[off]]) for w in z)
            ref = num / den
            assert np.all(np.abs(vals[off] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))
            assert np.all(np.diag(vals) == 1.0)
        else:
            ref = np.array([ref_sigma(v, setup.tau) for v in z.ravel()]).reshape(z.shape)
            assert np.all(np.abs(vals - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))), name
        assert not vals.flags.writeable
        with pytest.raises(ValueError):
            vals[0] = 0.0
    assert spec.grids(setup) is grids


@pytest.mark.parametrize("n", [3, 6, 9])
def test_stacked_lu_grid_equals_its_lone_build(n, draw, bc, setup):
    """A stack of 4 configurations whose shifts give them different series
    windows: each LU grid of the stack equals its lone build bit for bit."""
    spec = draw(n, 1000 + n, setup, bc)
    shift = np.array([0.0, 0.25j, 0.5j, 0.75j])[:, None]
    u, xi = np.asarray(spec.u) + shift, np.asarray(spec.xi) - 0.5 * shift
    windows = {elliptic._separable_window(setup.tau, np.abs(u[i].imag).max()
                                          + np.abs(xi[i].imag).max()) for i in range(4)}
    assert len(windows) > 1
    stacked = oracle.SpectralGrids(u, xi, setup)
    lone = [oracle.SpectralGrids(u[i], xi[i], setup) for i in range(4)]
    for name in ("minus", "plus", "minus_eta", "plus_eta"):
        for i in range(4):
            assert np.array_equal(getattr(stacked, name)[i], getattr(lone[i], name)), (name, i)


def test_pair_indices_are_shared_read_only_per_size(setup):
    """Configurations of one size share one read-only copy of the pair
    indices a < b, np.triu_indices(N, k=1)."""
    first = oracle.SpectralGrids([0.1, 0.2, 0.3], [0.4, 0.5, 0.6], setup)
    second = oracle.SpectralGrids([[0.7, 0.8, 0.9]], [0.1, 0.3, 0.5], setup)
    assert first.u_pairs is first.xi_pairs is second.u_pairs
    for got, want in zip(first.u_pairs, np.triu_indices(3, k=1)):
        assert np.array_equal(got, want) and not got.flags.writeable


def test_pair_indices_keep_only_the_last_size(setup):
    """A grid at N = 512 and then one at N = 16 leave one size cached, N = 16."""
    rng = np.random.default_rng(0)
    for n in (512, 16):
        oracle.SpectralGrids(rng.uniform(-0.4, 0.4, n), rng.uniform(-0.4, 0.4, n), setup)
    info = oracle._pair_indices.cache_info()
    assert info.currsize == 1
    oracle._pair_indices(16)
    assert oracle._pair_indices.cache_info().hits == info.hits + 1


def test_drawn_configuration_evaluates_each_grid_once(draw, bc, setup, monkeypatch):
    """After the draw's genericity check, every closed form together
    evaluates sigma(2u) once and G's numerator as the one GEMM, and no
    second check evaluates a shared grid again, by either evaluator; a
    fresh configuration with the same points evaluates each family once,
    the four (u, xi) grids first, one GEMM each."""
    spec = draw(5, 402, setup, bc)
    s2u = _grid_expressions(spec, setup)["s2u"].tobytes()
    points = {np.asarray(v, dtype=complex).tobytes() for v in (spec.u, spec.xi)}
    seen, separable = [], []

    def counting_sigma(u, s):
        if np.ndim(u) and np.asarray(u).tobytes() == s2u:
            seen.append("s2u")
        return sigma(u, s)

    def counting_separable(p, q, s, *args):
        if np.asarray(p).tobytes() in points:
            separable.append(args)
        return sigma_separable(p, q, s, *args)

    monkeypatch.setattr(oracle, "sigma", counting_sigma)  # closedform calls no sigma
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
    assert separable[1:5] == [(-1, 0.0), (1, 0.0), (-1, setup.eta), (1, setup.eta)]
    assert seen == ["s2u"] * 2 and len(separable) == 9
    fresh.require_generic(setup)
    fresh.require_generic(setup)
    closedform.normalized_z_permsum(fresh, bc, setup)
    closedform.normalized_z_permsum(fresh, bc, setup)
    assert len(seen) == 2 and len(separable) == 12


def test_draw_and_routes_evaluate_each_boundary_family_once(draw, bc, setup, monkeypatch):
    """A draw and the four default routes at N = 6 evaluate sigma(lambda_i +
    zeta + v) in 4 ``sigma_lambda_zeta`` calls (u, -xi and xi in the draw, -u
    in the face route; the vertex K reads the kept u family) and
    sigma(lambda12 + k eta) in 4 ``sigma_lattice`` calls (the oracles' sweep,
    the face route's sigma(lambda12), the closed forms' lambda product); a
    second round on the same configuration evaluates only sigma(lambda12)
    again."""
    calls = []
    for name in ("sigma_lambda_zeta", "sigma_lattice"):
        def counting(self, *args, _name=name, _call=getattr(BoundaryConfig, name)):
            calls.append(_name)
            return _call(self, *args)
        monkeypatch.setattr(BoundaryConfig, name, counting)
    spec = draw(6, 7, setup, bc)
    routes = (partition_bruteforce, partition_face_route,
              lambda s, b, t: closedform.full_z(s, b, t, "permsum"),
              lambda s, b, t: closedform.full_z(s, b, t, "determinant"))
    for route in routes:
        route(spec, bc, setup)
    assert (calls.count("sigma_lambda_zeta"), calls.count("sigma_lattice")) == (4, 4)
    for route in routes:
        route(spec, bc, setup)
    assert (calls.count("sigma_lambda_zeta"), calls.count("sigma_lattice")) == (4, 5)


def test_kept_families_leave_no_reference_cycle(draw, bc, setup):
    """A configuration's grids, with every boundary family kept, are freed by
    reference counting alone once the configuration goes: a cycle through
    them would hold an N = 512 configuration's grids (20 MiB) until the
    cycle collector runs."""
    spec = draw(4, 7, setup, bc)
    closedform.full_z(spec, bc, setup, "permsum")
    partition_face_route(spec, bc, setup)
    grids = weakref.ref(spec.grids(setup))
    gc.disable()
    try:
        del spec
        assert grids() is None
    finally:
        gc.enable()


def test_face_table_evaluates_each_u_point_once(draw, bc, setup, monkeypatch):
    """At N = 10 the creation table sends sigma(u - xi_k) and sigma(u - xi_k
    + eta) its 2 N^2 = 200 distinct points, not the 3 N^2 (N+1)/2 = 1650 of
    the table (the inner monodromies share -u - eta, a layer's entries share
    xi_k), and each weight family its 3 (2N - 1) = 57 shifts; the table
    equals the build over the full arguments bit for bit."""
    n, eta = 10, setup.eta
    spec = draw(n, 1010, setup, bc)
    u, xi = np.asarray(spec.u), np.asarray(spec.xi)
    calls, sigma_ = [], rmatrices.sigma

    def recording(z, s):
        calls.append(np.asarray(z).ravel())
        return sigma_(z, s)

    monkeypatch.setattr(rmatrices, "sigma", recording)
    table = oracle._creation_R_table(bc, u, spec, setup)
    assert sorted(len(c) for c in calls) == [1, 57, 57, 57, 200, 200, 1650, 1650]
    points = np.concatenate([(-u - eta)[:, None] - xi, u[:, None] - xi]).ravel()
    for family in (points, points + eta):
        assert [len(c) for c in calls if set(c.tolist()) == set(family.tolist())] == [200]
    lam = bc.weight
    spectators, n2 = rmatrices.spectator_layers(n)
    weights = (lam.shifted(2, eta, -1), lam.shifted(1, eta, -1), lam)
    m = rmatrices.WeightVector(np.array([l.m1 for l in weights])[:, None, None],
                               np.array([l.m2 for l in weights])[:, None, None])
    full = sos_R_matrix(np.stack([-u - eta, -u - eta, u])[:, :, None] - xi[spectators],
                        rmatrices.spectator_weight(m, eta, spectators, n2), setup)
    assert table.tobytes() == full.tobytes()


def test_face_K_from_the_kept_families_equals_a_fresh_build(draw, bc, setup):
    """The face route's k_1, k_2 at u_a, a = N-1..0, read from the drawn
    configuration's kept boundary families, equal the diagonal of a fresh
    ``face_K`` build over the same points bit for bit."""
    n = 6
    spec = draw(n, 7, setup, bc)
    a = np.arange(n - 1, -1, -1)
    _, k1, k2 = oracle._creation_scalars(bc.weight, bc, a, spec, setup)
    fresh = face_K(bc, np.asarray(spec.u)[a], setup)
    assert k1.tobytes() == fresh[:, 0, 0].tobytes()
    assert k2.tobytes() == fresh[:, 1, 1].tobytes()


def test_single_creation_operator_evaluates_face_K_at_its_own_point(bc, setup):
    """One creation operator's k_1, k_2 are ``face_K`` at its own u_a, a
    one-point evaluation: another u_b at a zero of sigma(lambda2 + zeta +
    u_b) (lambda2 + zeta = -0.06) refuses only the operator at u_b."""
    spec = SpectralConfig(u=(0.06, 0.3), xi=(-0.1, -0.2))
    _, k1, k2 = oracle._creation_scalars(bc.weight, bc, 1, spec, setup)
    fresh = face_K(bc, 0.3, setup)
    assert (k1, k2) == (fresh[0, 0], fresh[1, 1])
    with pytest.raises(SingularityError, match=re.escape("sigma(lambda_i + zeta + u)")):
        oracle._creation_scalars(bc.weight, bc, 0, spec, setup)


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


def test_oracle_routes_name_the_boundary_family_alike(bc, setup):
    """sigma(lambda2 + zeta + u_a) below the floor: the vertex routes (through
    K(u)) and the face route (through its boundary check) name one family,
    on fresh configurations and twice over on one shared configuration,
    which keeps no refused family."""
    u, xi = next(row[1:3] for row in REFUSAL_MATRIX if row[0] == "lambda2 + zeta + u_a")
    shared = SpectralConfig(u=u, xi=xi)
    for spec in (None, shared, shared):
        for route in (partition_bruteforce, partition_enumeration, partition_face_route):
            with pytest.raises(SingularityError,
                               match=re.escape("sigma(lambda_i + zeta + u)")):
                route(spec or SpectralConfig(u=u, xi=xi), bc, setup)



@pytest.mark.parametrize("eta", [0.0, 1.0, 1j], ids=["0", "1", "tau"])
def test_every_route_refuses_sigma_eta_below_floor(eta, bc):
    """eta = 0, 1 and tau are zeros of sigma, where sigma(eta) is rounding
    noise: all five routes refuse, naming sigma(eta)."""
    setup = ModularSetup(tau=1j, eta=eta)
    spec = SpectralConfig(u=(0.27 + 0.06j, 0.19 - 0.03j), xi=(-0.13 - 0.04j, -0.3 + 0.05j))
    routes = [partition_enumeration, partition_bruteforce, partition_face_route] + [
        lambda s, b, t, r=r: closedform.full_z(s, b, t, r) for r in ("permsum", "determinant")]
    for route in routes:
        with pytest.raises(SingularityError, match=re.escape("|sigma(eta)|")):
            route(spec, bc, setup)

# ---------------------------------------------------------------------------
# The scalar theta sums of an oracle route call.
# ---------------------------------------------------------------------------

ORACLE_ROUTES = (partition_enumeration, partition_bruteforce, partition_face_route)


@pytest.mark.parametrize("route", ORACLE_ROUTES, ids=lambda r: r.__name__)
def test_oracle_route_sums_each_scalar_once(route, draw, bc, setup, monkeypatch):
    """Within one oracle-route call no scalar argument is summed twice.  A
    second call on the same configuration sums exactly as many."""
    spec = draw(2, 610, setup, bc)
    calls, scalar = [], elliptic._theta_scalar

    def counting(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(elliptic, "_theta_scalar", counting)
    route(spec, bc, setup)
    first = len(calls)
    repeated = {args for args in calls if calls.count(args) > 1}
    assert first > 0
    assert not repeated
    route(spec, bc, setup)
    assert len(calls) == 2 * first and calls[first:] == calls[:first]


def test_face_route_builds_one_R_table_per_call(draw, bc, setup, monkeypatch):
    """A face-route call builds every R factor in one ``sos_R_matrix`` call
    whose sigma evaluations are all arrays (sigma(eta) a one-point array);
    so do the creation and monodromy applications called on their own."""
    spec = draw(3, 620, setup, bc)
    builds, scalar_sigmas = [], []
    build, sigma_ = oracle.sos_R_matrix, rmatrices.sigma

    def counting_sigma(u, setup):
        if np.ndim(u) == 0:
            scalar_sigmas.append(u)
        return sigma_(u, setup)

    def counting_build(u, m, setup):
        before = len(scalar_sigmas)
        out = build(u, m, setup)
        builds.append((out.shape, len(scalar_sigmas) - before))
        return out

    monkeypatch.setattr(rmatrices, "sigma", counting_sigma)
    monkeypatch.setattr(oracle, "sos_R_matrix", counting_build)
    partition_face_route(spec, bc, setup)
    assert builds == [((3, 3, 6, 4, 4), 0)]
    psi = np.ones((2,) * 3, dtype=complex)
    oracle.face_creation_apply(bc.weight, bc, 0, psi, spec, setup)
    oracle.face_monodromy_apply(bc.weight, spec.u[0], np.stack([psi, psi]), spec, setup)
    assert builds[1:] == [((3, 1, 6, 4, 4), 0), ((1, 1, 6, 4, 4), 0)]


def test_vertex_routes_build_one_R_table_per_call(draw, bc, setup, monkeypatch):
    """A bruteforce, enumeration or dense double-row monodromy call builds
    every eight-vertex R factor in one ``vertex_R_matrix`` call over the
    arguments u_a +- xi_j, and that build passes no Python scalar to the
    theta series."""
    spec = draw(2, 630, setup, bc)
    builds, scalar_sums = [], []
    build, series = oracle.vertex_R_matrix, elliptic._theta_series

    def counting_series(a, b, u, tau):
        if isinstance(u, (int, float, complex)):
            scalar_sums.append(u)
        return series(a, b, u, tau)

    def counting_build(u, setup):
        before = len(scalar_sums)
        out = build(u, setup)
        builds.append((out.shape, len(scalar_sums) - before))
        return out

    monkeypatch.setattr(elliptic, "_theta_series", counting_series)
    monkeypatch.setattr(oracle, "vertex_R_matrix", counting_build)
    partition_bruteforce(spec, bc, setup)
    partition_enumeration(spec, bc, setup)
    double_row_monodromy(spec.u[0], spec, bc, setup)
    assert builds == [((2, 2, 2, 4, 4), 0)] * 2 + [((2, 1, 2, 4, 4), 0)]


def test_bruteforce_scalar_theta_sums_at_n10(draw, bc, setup, monkeypatch):
    """With the R and K tables, the boundary states and the boundary lattice
    check each one array build, the only scalar theta sums of a bruteforce
    call are the constants of the K and R builds: 12 K constants and the
    four one-point R constants, 16 at N = 10 on this draw, where one scalar
    build per K matrix and per boundary vector summed 337."""
    spec = draw(10, 1016, setup, bc)
    calls, scalar = [], elliptic._theta_scalar

    def counting(*args):
        calls.append(args)
        return scalar(*args)

    monkeypatch.setattr(elliptic, "_theta_scalar", counting)
    partition_bruteforce(spec, bc, setup)
    assert len(calls) <= 16


def _per_matrix_factors(spec, bc, setup):
    """Each bar line's (R(u + xi_j), K(u), R(u - xi_j)), one scalar
    ``vertex_R_matrix`` build per matrix."""
    return [([vertex_R_matrix(u + x, setup) for x in spec.xi], vertex_K_matrix(u, bc, setup),
             [vertex_R_matrix(u - x, setup) for x in spec.xi]) for u in spec.u]


def _tensordot_gate(phi, mat4, ax1, ax2):
    """A two-site gate as ``np.tensordot`` makes it, axis bookkeeping and all."""
    out = np.tensordot(mat4.reshape(2, 2, 2, 2), phi, axes=([2, 3], [ax1, ax2]))
    return np.moveaxis(out, (0, 1), (ax1, ax2))


def _tensordot_double_row(phi, factors, aux_axis):
    """``oracle._apply_double_row`` through ``_tensordot_gate`` and a
    ``np.tensordot`` K, so it shares no code with ``tensor``."""
    r_plus, k, r_minus = factors
    n = len(r_plus)
    for j in range(n, 0, -1):
        phi = _tensordot_gate(phi, r_plus[j - 1], j - 1, aux_axis)
    phi = np.moveaxis(np.tensordot(k, phi, axes=([1], [aux_axis])), 0, aux_axis)
    for j in range(1, n + 1):
        phi = _tensordot_gate(phi, r_minus[j - 1], aux_axis, j - 1)
    return phi


def _bruteforce_reference(spec, bc, setup, factors=None):
    """The bruteforce contraction, through ``_tensordot_double_row``, of
    ``factors`` (by default ``_per_matrix_factors``): bar lines N..1, each
    closed between its boundary states."""
    n = spec.n
    o1b, o2bb, o1bk, o2k = boundary_state_factors(bc, spec.xi, spec.u, setup)
    factors = _per_matrix_factors(spec, bc, setup) if factors is None else factors
    psi = product_state(o2k).reshape((2,) * n)
    for a in range(n, 0, -1):
        phi = np.tensordot(psi, o1bk[a - 1], axes=0)
        phi = _tensordot_double_row(phi, factors[a - 1], aux_axis=n)
        psi = np.tensordot(phi, o2bb[a - 1], axes=([n], [0]))
    return complex(np.dot(product_state(o1b), psi.ravel()))


@pytest.mark.parametrize("setup_name", ["setup", "setup_complex_eta"])
def test_bruteforce_gate_makes_the_tensordot_product(setup_name, draw, bc, request):
    """The bare-GEMM gate rounds as ``np.tensordot``'s: bruteforce at N =
    1..12 equals, in repr, the same contraction through ``_tensordot_gate``,
    and the dense double-row monodromy at N <= 6 equals it byte for byte.
    Bruteforce's rounding drift is most of its distance to the other routes
    at N >= 10, so a gate that summed in another order would move it."""
    setup = request.getfixturevalue(setup_name)
    for n in range(1, oracle.ROUTE_GUARDS["bruteforce"] + 1):
        spec = draw(n, 600 + n, setup, bc)
        factors = oracle._vertex_factors(spec.u, spec.xi, bc, setup)
        assert repr(partition_bruteforce(spec, bc, setup)) == \
            repr(_bruteforce_reference(spec, bc, setup, factors)), n
        if n > 6:
            continue
        dim = 2 ** (n + 1)
        phi = np.moveaxis(np.eye(dim, dtype=complex).reshape((2,) * (n + 1) + (dim,)), 0, n)
        line = oracle._vertex_factors(spec.u[:1], spec.xi, bc, setup)[0]
        phi = _tensordot_double_row(phi, line, n)
        ref = np.moveaxis(phi, n, 0).reshape(dim, dim)
        assert double_row_monodromy(spec.u[0], spec, bc, setup).mat.tobytes() == ref.tobytes(), n


def test_vertex_routes_equal_per_matrix_builds(draw, bc, setup, monkeypatch):
    """Bruteforce at N = 1..12 and enumeration at N <= 2 equal, in repr, the
    same contraction of one scalar ``vertex_R_matrix`` build per matrix."""
    specs = {n: draw(n, 600 + n, setup, bc)
             for n in range(1, oracle.ROUTE_GUARDS["bruteforce"] + 1)}
    for n, spec in specs.items():
        assert repr(partition_bruteforce(spec, bc, setup)) == \
            repr(_bruteforce_reference(spec, bc, setup)), n
    table = {n: repr(partition_enumeration(specs[n], bc, setup))
             for n in range(1, oracle.ROUTE_GUARDS["enumeration"] + 1)}
    monkeypatch.setattr(oracle, "_vertex_factors",
                        lambda us, xi, bc, setup, g=None: _per_matrix_factors(
                            SpectralConfig(tuple(us), tuple(xi)), bc, setup))
    for n, value in table.items():
        assert repr(partition_enumeration(specs[n], bc, setup)) == value, n
