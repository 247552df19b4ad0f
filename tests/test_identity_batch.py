"""Sampled identity checks as one array evaluation over all their draws.

Every residual takes scalars or equal-shape arrays through one code path; a
stack must give its per-sample values, refuse a below-floor sample as the
scalar call does, and keep a nan sample visible in the check's maximum.
"""

import math
import re
from functools import partial

import numpy as np
import pytest

from ellipdw import (BoundaryConfig, WeightVector, boundary, elliptic, parse_config,
                     rmatrices, run_identities, runner)
from ellipdw.errors import EllipdwError, SingularityError
from ellipdw.tensor import embed_matrix, max_abs, product_state, quotient, times

from conftest import sample_row

BC = BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)
LAM_SUM = BC.lambda1 + BC.lambda2 - 0.5   # sigma(-u + LAM_SUM) vanishes at u = LAM_SUM

# name -> (points per sample, weighted, residual(*args, setup))
RESIDUALS = {
    "riemann": (4, False, elliptic.riemann_residual),
    "qybe": (3, False, rmatrices.qybe_residual),
    "dybe": (3, True, rmatrices.dybe_residual),
    "unitarity": (1, True, rmatrices.unitarity_residual),
    "crossing": (1, True, rmatrices.crossing_residual),
    "re": (2, False, lambda u1, u2, s: boundary.re_residual(u1, u2, BC, s)),
    "face_vertex": (2, True, boundary.face_vertex_residual),
    "k_factorization": (1, False, lambda u, s: boundary.k_factorization_residual(u, BC, s)),
}

# name -> the arguments of one sample whose scalar call is refused
BELOW_FLOOR = {
    "qybe": lambda s: (0.1, 0.1 + s.eta, -0.2),
    "dybe": lambda s: (0.1, 0.2, -0.2, WeightVector(0.3, 0.3)),
    "unitarity": lambda s: (-s.eta, WeightVector(0.3, -0.1)),
    "crossing": lambda s: (-s.eta, WeightVector(0.3, -0.1)),
    "re": lambda s: (LAM_SUM, 0.1),
    "re_domain": lambda s: (0.5 - 0.5j, 0.1),
    "face_vertex": lambda s: (0.1, 0.1 + s.eta, WeightVector(0.3, -0.1)),
    "k_factorization": lambda s: (LAM_SUM,),
    "k_factorization_domain": lambda s: (0.5,),
}


def _draws(name, setup, count=8, seed=5):
    """The stacked arguments of ``count`` samples, and the samples."""
    points, weighted, _ = RESIDUALS[name]
    stacks = runner._sample_stacks(np.random.default_rng(seed), count, points,
                                   setup if weighted else None)
    return stacks, [sample_row(stacks, k) for k in range(count)]


@pytest.mark.parametrize("setup_name", ["setup", "setup_complex_eta"])
@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_residual_stack_equals_per_sample_calls(name, setup_name, request):
    setup = request.getfixturevalue(setup_name)
    residual = RESIDUALS[name][2]
    stacks, samples = _draws(name, setup)
    scalar = [residual(*s, setup) for s in samples]
    assert all(type(r) is float for r in scalar)
    stacked = residual(*stacks, setup)
    assert stacked.shape == (len(samples),)
    assert np.max(np.abs(stacked - np.array(scalar))) <= 1e-14


@pytest.mark.parametrize("name", sorted(BELOW_FLOOR))
def test_below_floor_sample_raises_the_scalar_error(name, setup):
    residual = RESIDUALS[name.removesuffix("_domain")][2]
    bad = BELOW_FLOOR[name](setup)
    with pytest.raises(EllipdwError) as scalar_exc:
        residual(*bad, setup)
    stacks, _ = _draws(name.removesuffix("_domain"), setup)
    for stack, value in zip(stacks, bad):  # sample 3 is the bad one
        if isinstance(stack, WeightVector):
            stack.m1[3], stack.m2[3] = value.m1, value.m2
        else:
            stack[3] = value
    with pytest.raises(EllipdwError) as stack_exc:
        residual(*stacks, setup)
    assert type(stack_exc.value) is type(scalar_exc.value)


def test_nan_sample_keeps_the_check_max_nan(monkeypatch):
    qybe = rmatrices.qybe_residual

    def with_nan(u1, u2, u3, setup):
        out = qybe(u1, u2, u3, setup)
        out[len(out) // 2] = math.nan
        return out

    monkeypatch.setattr(rmatrices, "qybe_residual", with_nan)
    result = run_identities(parse_config("{mode: identities, seed: 4}"))
    entry = next(c for c in result["checks"] if c["name"] == "qybe")
    assert math.isnan(entry["max_residual"]) and entry["pass"] is False
    assert result["pass"] is False


def test_weight_stack_require_generic_names_the_family(setup):
    eta = setup.eta
    m2 = np.array([-0.1, 0.2, -0.3, 0.05], dtype=complex)
    WeightVector(m2 + 0.45, m2).require_generic(setup)
    for m12, family in ((0.0, "sigma(m12)"), (-eta, "sigma(m12+eta)"),
                        (eta, "sigma(m12-eta)")):
        m1 = m2 + 0.45
        m1[2] = m2[2] + m12
        for weight in (WeightVector(m1, m2), WeightVector(m1[2], m2[2])):
            with pytest.raises(SingularityError, match="^" + re.escape(family) + " "):
                weight.require_generic(setup)


# (low, high) of each table column: a weight's m1.re, m1.im, m2.re, m2.im,
# and a point's real and imaginary part
WEIGHT_COLUMNS = [(-0.5, 0.5), (-0.12, 0.12), (-0.5, 0.5), (-0.12, 0.12)]
POINT_RE, POINT_IM = (-0.4, 0.4), (-0.15, 0.15)


def _bounds(points, weighted):
    """(lo, hi) of a sample table's columns: the weight's four, then the
    points' real parts, then their imaginary parts."""
    columns = (WEIGHT_COLUMNS if weighted else []) + [POINT_RE] * points + [POINT_IM] * points
    return np.array(columns).T


def _as_table(stacks):
    """The stacks' real and imaginary parts in the table's column order."""
    *points, m = stacks if isinstance(stacks[-1], WeightVector) else (*stacks, None)
    weight = [] if m is None else [p for z in (m.m1, m.m2) for p in (z.real, z.imag)]
    return np.stack(weight + [z.real for z in points] + [z.imag for z in points], axis=1)


def _refuse_rows(masks, monkeypatch):
    """The first weight checks refuse the rows each of ``masks`` names; the
    list records the shape of each checked table."""
    checks, refused_rows = [], runner._refused_rows

    def refusing(table, s):
        checks.append(table.shape)
        real = refused_rows(table, s)
        if len(checks) > len(masks):
            return real
        forced = np.zeros(len(table), dtype=bool)
        forced[masks[len(checks) - 1]] = True
        return forced

    monkeypatch.setattr(runner, "_refused_rows", refusing)
    return checks


def _check_sampled_max_tables(masks, setup, monkeypatch):
    """Each round's refused rows are drawn again, in order, as one table from
    the continuing generator; the residual is called once, on the table
    whose rows all clear the floor."""
    count, points = 20, 2
    checks = _refuse_rows(masks, monkeypatch)
    seen = []
    worst = runner._sampled_max(7, count, points,
                                lambda *args: seen.append(args) or np.arange(count) / 4.0,
                                setup)
    assert worst == (count - 1) / 4.0
    width = 4 + 2 * points
    assert checks == [(count, width)] * (len(masks) + 1)
    rng, (lo, hi) = np.random.default_rng(7), _bounds(points, True)
    table = rng.uniform(lo, hi, (count, width))
    for rows in masks:
        table[rows] = rng.uniform(lo, hi, (len(rows), width))
    (args,) = seen
    assert _as_table(args).tobytes() == table.tobytes()


def test_sampled_max_checks_the_weights_as_one_stack(setup, monkeypatch):
    _check_sampled_max_tables([], setup, monkeypatch)


def test_sampled_max_draws_refused_rows_again(setup, monkeypatch):
    _check_sampled_max_tables([[3, 7, 11], [7], [0, 19]], setup, monkeypatch)


@pytest.mark.parametrize("refused", [0, 3])
def test_draw_weight_is_the_first_row_that_clears_the_floor(refused, setup, monkeypatch):
    """Each try draws one four-double row, the rows a (tries, 4) table holds,
    and the first row that clears the floor is returned as scalars."""
    checks = _refuse_rows([[0]] * refused, monkeypatch)
    m = runner._draw_weight(np.random.default_rng(11), setup)
    assert checks == [(1, 4)] * (refused + 1)
    assert type(m.m1) is complex and type(m.m2) is complex
    lo, hi = _bounds(0, True)
    row = np.random.default_rng(11).uniform(lo, hi, (refused + 1, 4))[-1]
    assert np.array([m.m1.real, m.m1.imag, m.m2.real, m.m2.imag]).tobytes() == row.tobytes()


def test_refused_rows_at_min_im_tau_are_drawn_until_all_clear():
    """At Im tau = MIN_IM_TAU most weight rows are refused (sigma(m12) falls
    below the floor near its zeros), so only redrawing the refused rows,
    not whole tables, ends; the report then reaches the enumeration
    oracle's near-singular intertwiner matrix."""
    cfg = parse_config(f"{{mode: identities, tau: [0, {elliptic.MIN_IM_TAU}]}}")
    m, = runner._sample_stacks(np.random.default_rng(3), 50, 0, cfg.setup)
    table = _as_table([m])
    assert not runner._refused_rows(table, cfg.setup).any()
    lo, hi = _bounds(0, True)
    first = np.random.default_rng(3).uniform(lo, hi, (50, 4))
    assert runner._refused_rows(first, cfg.setup).mean() > 0.5
    result = run_identities(cfg)
    assert result["pass"] is False
    assert "intertwiner matrix near singular" in result["error"]


# (count, points, weighted) of every sampled check in ``runner.identity_checks``
SAMPLED_SHAPES = {(100, 4, False), (50, 3, False), (50, 3, True), (50, 1, True),
                  (50, 2, False), (50, 2, True), (50, 1, False), (100, 1, True)}


def test_sampled_shapes_are_the_identity_checks(monkeypatch):
    shapes, sampled_max = set(), runner._sampled_max

    def recorded(seed, count, points, residual, setup=None):
        shapes.add((count, points, setup is not None))
        return sampled_max(seed, count, points, residual, setup)

    monkeypatch.setattr(runner, "_sampled_max", recorded)
    runner.identity_checks(parse_config("{mode: identities, seed: 3}"))
    assert shapes == SAMPLED_SHAPES


@pytest.mark.parametrize("seed", [0, 9])
@pytest.mark.parametrize("count, points, weighted", sorted(SAMPLED_SHAPES))
def test_one_pass_stacks_are_the_per_sample_draws(count, points, weighted, seed, setup):
    """The stacks are one uniform(lo, hi, (count, width)) table bit for bit,
    signed zeros included, when its weights clear the floor: row i is
    sample i, its columns the weight's m1.re, m1.im, m2.re, m2.im, then the
    points' real parts, then their imaginary parts."""
    stacks = runner._sample_stacks(np.random.default_rng(seed), count, points,
                                   setup if weighted else None)
    assert len(stacks) == points + weighted
    for stack in stacks:
        for z in ((stack.m1, stack.m2) if isinstance(stack, WeightVector) else (stack,)):
            assert z.dtype == complex and z.shape == (count,)
    lo, hi = _bounds(points, weighted)
    table = np.random.default_rng(seed).uniform(lo, hi, (count, len(lo)))
    assert _as_table(stacks).tobytes() == table.tobytes()


def test_bar_only_residuals_never_build_tilde_duals(setup, monkeypatch):
    """k_factorization and dual_biorthogonality read only the bar duals: with
    ``_tilde_duals`` refusing, they return the values read from the bar rows
    of the full ``dual_intertwiners``, and the report's check is the same."""
    rng = np.random.default_rng(8)
    u = runner._draw_points(rng, 50)
    m, = runner._sample_stacks(rng, 50, 0, setup)

    def k_factorization_from_both_duals():
        bar = boundary.dual_intertwiners(BC.weight, -u, setup)[0]
        kf = boundary.face_K(BC, u, setup)
        rebuilt = 0.0
        for i in (1, 2):
            rebuilt = rebuilt + kf[..., i - 1, i - 1, None, None] * boundary._outer(
                boundary.intertwiner(BC.weight, i, u, setup), bar[..., i - 1, :])
        kv = boundary.vertex_K_matrix(u, BC, setup)
        return max_abs(kv - rebuilt) / max_abs(kv)

    def biorthogonality_from_both_duals(u, m, setup):
        bar = boundary.dual_intertwiners(m, u, setup)[0]
        return max_abs(bar @ boundary._column_matrix(m, u, setup) - np.eye(2))

    cfg = parse_config("{mode: identities, seed: 4}")
    sampled = partial(runner._sampled_max, cfg.seed + 10, 100, 1, setup=cfg.setup)
    k_expected = k_factorization_from_both_duals()
    bio_expected = biorthogonality_from_both_duals(u, m, setup)
    check_expected = sampled(partial(biorthogonality_from_both_duals, setup=cfg.setup))
    reported = next(c["max_residual"] for c in run_identities(cfg)["checks"]
                    if c["name"] == "dual_biorthogonality")

    def refused(*args):
        raise AssertionError("tilde duals built")

    monkeypatch.setattr(boundary, "_tilde_duals", refused)
    assert np.array_equal(boundary.k_factorization_residual(u, BC, setup), k_expected)
    assert np.array_equal(runner._biorthogonality_defect(u, m, setup), bio_expected)
    check = sampled(partial(runner._biorthogonality_defect, setup=cfg.setup))
    assert check == check_expected == reported


@pytest.mark.parametrize("n", range(13))
def test_product_state_is_the_kron_chain(n):
    factors = np.random.default_rng(n).normal(size=(n, 2, 2)) @ np.array([1, 1j])
    factors[:, 0] *= 10.0 ** np.arange(-n, 0, dtype=float)  # a spread of magnitudes
    expected = np.ones(1, dtype=complex)
    if n:
        expected = factors[0]
        for f in factors[1:]:
            expected = np.kron(expected, f)
    out = product_state(factors)
    assert out.shape == (2 ** n,) and out.dtype == complex
    assert out.tobytes() == expected.tobytes()


def test_times_and_quotient_round_as_python():
    """Bit for bit against Python's complex * and / on random operands over
    sixteen decades, on real and imaginary operands, and on the ties
    |Re z| = |Im z| where Smith's algorithm picks its branch; numpy's own
    complex loops need not round so."""
    rng = np.random.default_rng(11)
    count = 20000
    w, z = ((rng.normal(size=count) + 1j * rng.normal(size=count))
            * 10.0 ** rng.uniform(-8, 8, count) for _ in range(2))
    z[:2000] = rng.normal(size=2000) * (1 + rng.choice([1j, -1j], 2000))
    z[2000:2100], z[2100:2200] = z[2000:2100].real, 1j * z[2100:2200].imag
    pairs = list(zip(w.tolist(), z.tolist()))
    for ours, python in ((times(w, z), [a * b for a, b in pairs]),
                         (quotient(w, z), [a / b for a, b in pairs]),
                         (times(2.0, z), [2.0 * b for b in z.tolist()])):
        assert np.array_equal(ours.view(float), np.array(python).view(float))
    assert times(1j, 2.0).shape == () and quotient(z[:3, None], w[:2]).shape == (3, 2)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_unitarity_stack_max_equals_per_sample_max_at_small_im_tau(seed):
    """The identity suite's sos_unitarity draws at tau = 0.2i: the stacked
    residuals equal the per-sample ones, so the check reads the per-sample
    maximum (9.585e-12 at seed 7, below its 1e-11 tolerance)."""
    setup = parse_config(f"{{seed: {seed}, tau: [0, 0.2]}}").setup
    # the check's generator
    stacks = runner._sample_stacks(np.random.default_rng(seed + 4), 50, 1, setup)
    stacked = rmatrices.unitarity_residual(*stacks, setup)
    per_sample = [rmatrices.unitarity_residual(*sample_row(stacks, k), setup)
                  for k in range(50)]
    assert np.array_equal(stacked, per_sample)
    if seed == 7:
        assert 9.58e-12 < stacked.max() < 1e-11


def test_vertex_K_stack_equals_scalar_builds(setup):
    """Bit for bit at tau = i on these draws: the coefficients are combined
    by ``tensor.times`` and ``quotient``, as a scalar build combines them."""
    u = runner._draw_points(np.random.default_rng(3), 12).reshape(3, 4)
    u[1, 2], u[2, 0] = 0.0, 3e-13
    stack = boundary.vertex_K_matrix(u, BC, setup)
    assert stack.shape == (3, 4, 2, 2)
    assert np.array_equal(stack[1, 2], np.eye(2)) and np.array_equal(stack[2, 0], np.eye(2))
    for idx in np.ndindex(u.shape):
        assert np.array_equal(stack[idx], boundary.vertex_K_matrix(complex(u[idx]), BC, setup))


def test_intertwiner_stacks_equal_scalar_builds(setup):
    """Dual stacks bit for bit at tau = i on these draws: each determinant is
    formed by ``tensor.times``, as a single matrix's is."""
    rng = np.random.default_rng(4)
    u = runner._draw_points(rng, 6)
    m, = runner._sample_stacks(rng, 6, 0, setup)
    samples = [sample_row((u, m), k) for k in range(6)]
    for j in (1, 2):
        phi = boundary.intertwiner(m, j, u, setup)
        assert phi.shape == (6, 2)
        for k, (u_k, w) in enumerate(samples):
            assert np.allclose(phi[k], boundary.intertwiner(w, j, u_k, setup), rtol=1e-14)
    bar, tilde = boundary.dual_intertwiners(m, u, setup)
    for k, (u_k, w) in enumerate(samples):
        bar_k, tilde_k = boundary.dual_intertwiners(w, u_k, setup)
        assert np.array_equal(bar[k], bar_k) and np.array_equal(tilde[k], tilde_k)


def test_embed_matrix_stack_equals_per_matrix_embeddings():
    rng = np.random.default_rng(2)
    mats = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    stack = embed_matrix(mats, (2, 0), 3)
    assert stack.shape == (2, 3, 8, 8)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(stack[idx], embed_matrix(mats[idx], (2, 0), 3))


@pytest.mark.parametrize("tau", [0.3j, 0.3 + 0.6j])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_run_identities_passes_below_im_tau_0_9(tau, seed):
    result = run_identities(parse_config(
        f"{{mode: identities, seed: {seed}, tau: [{tau.real}, {tau.imag}]}}"))
    assert result["pass"], [c["name"] for c in result["checks"] if not c["pass"]]
