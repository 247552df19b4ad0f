"""Vertex and dynamical R-matrix relations as residual sweeps."""

import numpy as np
import pytest

from ellipdw import (ModularSetup, WeightVector, crossing_residual,
                     dybe_residual, qybe_residual, unitarity_residual)
from ellipdw import parse_config, rmatrices, runner
from ellipdw.errors import SingularityError
from ellipdw.rmatrices import (apply_R_layer, layer, sos_R_matrix, spectator_blocks,
                               spectator_layers, spectator_weight, vertex_R_matrix)
from ellipdw.tensor import embed_matrix, max_abs

from conftest import apply_R_stack, dense_sos_R, random_points, random_weight, sample_row

P_MATRIX = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                    dtype=complex)

# Frozen from the 60-dps reference at u=0.37+0.1j, tau=i, eta=0.23.
GOLDEN_ABCD = (1.0027146906120943 + 0.0032953833238293395j,
               0.9463021171392417 + 0.2209968296672237j,
               0.6603399191242904 + 0.06648737381752505j,
               0.11012012674054045 + 0.014661598725124115j)


def test_vertex_R_at_zero_is_permutation(setup):
    assert np.max(np.abs(vertex_R_matrix(0.0, setup) - P_MATRIX)) < 1e-14


def test_vertex_R_golden_entries():
    setup = ModularSetup(tau=1j, eta=0.23)
    r = vertex_R_matrix(0.37 + 0.1j, setup)
    a, b, c, d = GOLDEN_ABCD
    assert abs(r[0, 0] - a) < 1e-12
    assert abs(r[1, 1] - b) < 1e-12
    assert abs(r[1, 2] - c) < 1e-12
    assert abs(r[0, 3] - d) < 1e-12


def test_vertex_R_sparsity(setup):
    r = vertex_R_matrix(0.29 + 0.07j, setup)
    assert np.count_nonzero(np.abs(r) > 1e-14) == 8
    # the 8 sites of the non-vanishing pattern
    pattern = np.zeros((4, 4), dtype=bool)
    for ij in [(0, 0), (3, 3), (1, 1), (2, 2), (1, 2), (2, 1), (0, 3), (3, 0)]:
        pattern[ij] = True
    assert np.all((np.abs(r) > 1e-14) == pattern)


def test_vertex_R_singularity_guard(setup):
    with pytest.raises(SingularityError):
        vertex_R_matrix(-setup.eta, setup)


def test_vertex_R_stack_equals_scalar_builds_bit_for_bit(draw, bc, setup):
    """An array ``vertex_R_matrix`` build is the stack of the scalar builds,
    bit for bit: on the arguments u_a +- xi_j of the oracle draws at N = 1..12,
    on a (3, 2, 5) array, and on a 0-d array."""
    rng = np.random.default_rng(31)
    stacks = [random_points(rng, 30).reshape(3, 2, 5), np.asarray(0.29 + 0.07j)]
    for n in range(1, 13):
        spec = draw(n, 600 + n, setup, bc)
        u = np.asarray(spec.u, dtype=complex)[:, None]
        xi = np.asarray(spec.xi, dtype=complex)[None, :]
        stacks.append(np.stack([u + xi, u - xi]))
    for args in stacks:
        out = vertex_R_matrix(args, setup)
        ref = np.array([vertex_R_matrix(z, setup) for z in args.ravel().tolist()])
        assert np.array_equal(out, ref.reshape(args.shape + (4, 4))), args.shape


def test_six_vertex_limit_smoke():
    """Large Im(tau): the anti-diagonal weight collapses (six-vertex limit)."""
    for tau_im, bound in ((4.0, 1e-2), (8.0, 1e-4)):
        s = ModularSetup(tau=tau_im * 1j, eta=0.23)
        r = vertex_R_matrix(0.31 + 0.05j, s)
        assert abs(r[0, 3]) / abs(r[1, 2]) < bound


def test_qybe_degenerate_and_sweep(setup_complex_eta):
    assert qybe_residual(0.2, 0.2, -0.1, setup_complex_eta) <= 1e-12
    assert qybe_residual(0.31, 0.12, 0.0, setup_complex_eta) <= 1e-10
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(50):
        u1, u2, u3 = random_points(rng, 3)
        worst = max(worst, qybe_residual(u1, u2, u3, setup_complex_eta))
    assert worst <= 1e-10


def test_qybe_shift_invariance(setup_complex_eta):
    base = qybe_residual(0.1, 0.25, -0.3, setup_complex_eta)
    shifted = qybe_residual(1.1, 0.25, -0.3, setup_complex_eta)
    assert max(base, shifted) <= 1e-10


def test_residuals_invariant_under_unit_shift(setup, weight):
    """All relation residuals stay small with one argument moved by +1."""
    assert dybe_residual(1.21, -0.07, 0.33, weight, setup) <= 1e-10
    assert crossing_residual(1.2 + 0.05j, weight, setup) <= 1e-10
    assert unitarity_residual(1.17 - 0.03j, weight, setup) <= 1e-10


def test_sos_R_at_zero_is_permutation(setup, weight):
    assert np.max(np.abs(sos_R_matrix(0.0, weight, setup) - P_MATRIX)) < 1e-14


def test_sos_weight_conservation_structure(setup, weight):
    r = sos_R_matrix(0.27 + 0.09j, weight, setup)
    blocks = np.zeros((4, 4), dtype=bool)
    blocks[0, 0] = blocks[3, 3] = True
    blocks[1:3, 1:3] = True
    assert np.all(r[~blocks] == 0.0)


def test_sos_unitarity_sweep(setup, weight):
    rng = np.random.default_rng(22)
    worst = max(unitarity_residual(u, weight, setup)
                for u in random_points(rng, 50))
    assert worst <= 1e-11


def test_dybe_degenerate_and_sweep(setup):
    rng = np.random.default_rng(23)
    m = random_weight(rng, setup)
    assert dybe_residual(0.2, 0.2, -0.15, m, setup) <= 1e-12
    worst = 0.0
    for _ in range(50):
        m = random_weight(rng, setup)
        u1, u2, u3 = random_points(rng, 3)
        worst = max(worst, dybe_residual(u1, u2, u3, m, setup))
    assert worst <= 1e-10
    # relation survives a dynamical shift of the weight
    m = random_weight(rng, setup)
    assert dybe_residual(0.21, -0.07, 0.33, m.shifted(1, setup.eta), setup) <= 1e-10


def _dybe_nine_builds(u1, u2, u3, m, setup):
    """The dynamical YBE residual from one ``sos_R_matrix`` build per matrix:
    R(u_ij; m) and, embedded by spectator spin, R(u_ij;
    spectator_weight(m, eta, 1, n2)) for n2 = 0, 1."""
    def shifted(u, active, spectator):
        spin2 = (np.arange(8) >> (2 - spectator)) & 1
        return sum(embed_matrix(sos_R_matrix(u, spectator_weight(m, setup.eta, 1, n2), setup),
                                active, 3) * (spin2 == n2) for n2 in (0, 1))
    plain = lambda u, active: embed_matrix(sos_R_matrix(u, m, setup), active, 3)
    lhs = shifted(u1 - u2, (0, 1), 2) @ plain(u1 - u3, (0, 2)) @ shifted(u2 - u3, (1, 2), 0)
    rhs = plain(u2 - u3, (1, 2)) @ shifted(u1 - u3, (0, 2), 1) @ plain(u1 - u2, (0, 1))
    return max_abs(lhs - rhs) / max_abs(rhs)


def test_dybe_is_one_R_build(monkeypatch):
    """A dybe_residual call, scalar or over a stack of draws, makes one
    ``sos_R_matrix`` build, and its residuals equal the nine-build form to
    1e-15 on the identity suite's draws at seeds 1-10."""
    builds = []

    def counting_build(u, m, setup):
        builds.append(np.shape(u))
        return sos_R_matrix(u, m, setup)

    # the reference's builds call the imported sos_R_matrix, so go uncounted
    monkeypatch.setattr(rmatrices, "sos_R_matrix", counting_build)
    for seed in range(1, 11):
        cfg = parse_config(f"{{seed: {seed}}}")
        stacked = runner._sample_stacks(np.random.default_rng(seed + 3), 50, 3, cfg.setup)
        samples = [sample_row(stacked, k) for k in range(3)]
        builds.clear()
        residual = dybe_residual(*stacked, cfg.setup)
        scalars = [dybe_residual(*sample, cfg.setup) for sample in samples]
        assert builds == [(3, 1, 50)] + [(3, 1)] * 3
        assert np.max(np.abs(residual - _dybe_nine_builds(*stacked, cfg.setup))) <= 1e-15
        for sample, value in zip(samples, scalars):
            assert abs(value - _dybe_nine_builds(*sample, cfg.setup)) <= 1e-15


@pytest.mark.parametrize("n,ax1,ax2,spectators", [
    (3, 0, 1, ()), (3, 2, 0, (1,)), (3, 0, 2, (1,)), (3, 1, 2, (0,)),
    (4, 2, 1, ()), (4, 3, 1, (0, 2)), (4, 0, 3, (2, 1)), (4, 1, 2, (3, 0)),
    (5, 3, 1, (4, 0, 2)), (2, 0, 1, ())])
def test_apply_sos_R_matches_dense_reference(n, ax1, ax2, spectators, setup, weight):
    """The kernel, given layer k of one stacked shifted-R build and a tensor
    with trailing batch axes transposed to (ax1, spectators, ax2, rest),
    equals the embedded R with spectator projectors, for non-adjacent and
    reversed axes, spectators on both sides of the active pair, and a layer
    with no other site; it has the reference ``apply_R_stack``'s bytes."""
    rng = np.random.default_rng(26)
    batch = (3, 2) if n == 5 else (3,)  # the 5-site case has two batch axes
    psi = rng.normal(size=(2,) * n + batch) + 1j * rng.normal(size=(2,) * n + batch)
    u = 0.23 + 0.07j
    k = len(spectators)
    table = sos_R_matrix(u, spectator_weight(weight, setup.eta, *spectator_layers(k + 1)), setup)
    axes = (ax1,) + spectators + (ax2,)
    perm = axes + tuple(ax for ax in range(psi.ndim) if ax not in axes)
    view = np.array(psi.transpose(perm), order="C")
    apply_R_layer(view[None], spectator_blocks(table, k + 1)[None], k)
    out = view.transpose(np.argsort(perm))
    ref = dense_sos_R(n, u, weight, setup, ax1, ax2, spectators) @ psi.reshape(2 ** n, -1)
    assert out.shape == psi.shape
    assert np.max(np.abs(out.reshape(2 ** n, -1) - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert out.tobytes() == apply_R_stack(psi, table[layer(k)], ax1, ax2, spectators).tobytes()


def test_crossing_points_and_sweep(setup, weight):
    assert crossing_residual(0.0, weight, setup) <= 1e-11
    assert crossing_residual(-setup.eta / 2, weight, setup) <= 1e-11
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(50):
        m = random_weight(rng, setup)
        worst = max(worst, crossing_residual(random_points(rng, 1)[0], m, setup))
    assert worst <= 1e-11


def test_crossing_negative_control(setup, weight, monkeypatch):
    monkeypatch.setattr(rmatrices, "_PARITY", {1: 1.0, 2: 1.0})
    assert crossing_residual(0.2 + 0.05j, weight, setup) > 1e-2


def test_weight_genericity_guard(setup):
    with pytest.raises(SingularityError):
        WeightVector(0.3, 0.3).require_generic(setup)
    with pytest.raises(SingularityError):
        WeightVector(0.3, 0.3 - setup.eta).require_generic(setup)
