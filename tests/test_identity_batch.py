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

BC = BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)
LAM_SUM = BC.lambda1 + BC.lambda2 - 0.5   # sigma(-u + LAM_SUM) vanishes at u = LAM_SUM

# name -> (draw(rng, setup), residual(*args, setup))
RESIDUALS = {
    "riemann": (lambda rng, s: runner._draw_points(rng, 4), elliptic.riemann_residual),
    "qybe": (lambda rng, s: runner._draw_points(rng, 3), rmatrices.qybe_residual),
    "dybe": (lambda rng, s: runner._points_and_weight(rng, s, 3), rmatrices.dybe_residual),
    "unitarity": (lambda rng, s: runner._points_and_weight(rng, s, 1),
                  rmatrices.unitarity_residual),
    "crossing": (lambda rng, s: runner._points_and_weight(rng, s, 1),
                 rmatrices.crossing_residual),
    "re": (lambda rng, s: runner._draw_points(rng, 2),
           lambda u1, u2, s: boundary.re_residual(u1, u2, BC, s)),
    "face_vertex": (lambda rng, s: runner._points_and_weight(rng, s, 2),
                    boundary.face_vertex_residual),
    "k_factorization": (lambda rng, s: runner._draw_points(rng, 1),
                        lambda u, s: boundary.k_factorization_residual(u, BC, s)),
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
    draw = RESIDUALS[name][0]
    rng = np.random.default_rng(seed)
    return [tuple(draw(rng, setup)) for _ in range(count)]


@pytest.mark.parametrize("setup_name", ["setup", "setup_complex_eta"])
@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_residual_stack_equals_per_sample_calls(name, setup_name, request):
    setup = request.getfixturevalue(setup_name)
    residual = RESIDUALS[name][1]
    samples = _draws(name, setup)
    scalar = [residual(*s, setup) for s in samples]
    assert all(type(r) is float for r in scalar)
    stacked = residual(*map(runner._stacked, zip(*samples)), setup)
    assert stacked.shape == (len(samples),)
    assert np.max(np.abs(stacked - np.array(scalar))) <= 1e-14


@pytest.mark.parametrize("name", sorted(BELOW_FLOOR))
def test_below_floor_sample_raises_the_scalar_error(name, setup):
    residual = RESIDUALS[name.removesuffix("_domain")][1]
    bad = BELOW_FLOOR[name](setup)
    with pytest.raises(EllipdwError) as scalar_exc:
        residual(*bad, setup)
    samples = _draws(name.removesuffix("_domain"), setup)
    samples[3] = bad
    with pytest.raises(EllipdwError) as stack_exc:
        residual(*map(runner._stacked, zip(*samples)), setup)
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


def _check_sampled_max_draws(refused, setup, monkeypatch):
    """The stacks are the points and weights the per-sample loop drew, also
    through rejected weight draws: the ``refused`` candidates (counted from 1)
    of the sequential stream are refused by value, so the stacked check
    sees them as well as the replayed per-sample loop.  With no refusal the
    weights are checked as one stack and never one by one."""
    count, generic = 20, WeightVector.require_generic
    calls, bad = [], set()

    def by_count(self, s, floor=rmatrices.GENERICITY_FLOOR):
        calls.append(0)
        if len(calls) in refused:
            bad.add(self.m1)
            raise SingularityError("rejected")
        return generic(self, s, floor)

    def by_value(self, s, floor=rmatrices.GENERICITY_FLOOR):
        calls.append(np.size(self.m1) if np.ndim(self.m1) else 0)
        if bad.intersection(np.ravel(self.m1).tolist()):
            raise SingularityError("rejected")
        return generic(self, s, floor)

    monkeypatch.setattr(WeightVector, "require_generic", by_count)
    rng = np.random.default_rng(7)
    expected = [runner._points_and_weight(rng, setup, 2) for _ in range(count)]
    assert calls == [0] * (count + len(refused)) and len(bad) == len(refused)
    monkeypatch.setattr(WeightVector, "require_generic", by_value)
    calls.clear()
    seen = []
    worst = runner._sampled_max(7, count, 2,
                                lambda *args: seen.append(args) or np.arange(count) / 4.0,
                                setup)
    assert worst == (count - 1) / 4.0
    # one stacked check, then the per-sample replay only if it was refused
    assert calls == [count] + ([0] * (count + len(refused)) if refused else [])
    (u1, u2, m), = seen
    assert np.array_equal(u1, [e[0] for e in expected])
    assert np.array_equal(u2, [e[1] for e in expected])
    assert np.array_equal(m.m1, [e[2].m1 for e in expected])
    assert np.array_equal(m.m2, [e[2].m2 for e in expected])


def test_sampled_max_passes_the_per_sample_draws(setup, monkeypatch):
    _check_sampled_max_draws((2, 5), setup, monkeypatch)


def test_sampled_max_checks_the_weights_as_one_stack(setup, monkeypatch):
    _check_sampled_max_draws((), setup, monkeypatch)


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
    """Bit for bit, signed zeros included, against the per-sample loop."""
    rng = np.random.default_rng(seed)
    draw = ((lambda: runner._points_and_weight(rng, setup, points, checked=False))
            if weighted else (lambda: runner._draw_points(rng, points)))
    expected = list(map(runner._stacked, zip(*(tuple(draw()) for _ in range(count)))))
    stacks = runner._sample_stacks(seed, count, points, weighted)
    assert len(stacks) == len(expected) == points + weighted
    for ours, theirs in zip(stacks, expected):
        if isinstance(ours, WeightVector):
            ours, theirs = np.array([ours.m1, ours.m2]), np.array([theirs.m1, theirs.m2])
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def test_bar_only_residuals_never_build_tilde_duals(setup, monkeypatch):
    """k_factorization and dual_biorthogonality read only the bar duals: with
    ``_tilde_duals`` refusing, they return the values read from the bar rows
    of the full ``dual_intertwiners``, and the report's check is the same."""
    rng = np.random.default_rng(8)
    u = runner._draw_points(rng, 50)
    m = runner._stacked([runner._draw_weight(rng, setup) for _ in range(50)])

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
    rng = np.random.default_rng(seed + 4)  # the check's generator
    samples = [runner._points_and_weight(rng, setup, 1) for _ in range(50)]
    stacked = rmatrices.unitarity_residual(*map(runner._stacked, zip(*samples)), setup)
    per_sample = [rmatrices.unitarity_residual(*sample, setup) for sample in samples]
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
    weights = [runner._draw_weight(rng, setup) for _ in range(6)]
    m = runner._stacked(weights)
    for j in (1, 2):
        phi = boundary.intertwiner(m, j, u, setup)
        assert phi.shape == (6, 2)
        for k, w in enumerate(weights):
            assert np.allclose(phi[k], boundary.intertwiner(w, j, u[k], setup), rtol=1e-14)
    bar, tilde = boundary.dual_intertwiners(m, u, setup)
    for k, w in enumerate(weights):
        bar_k, tilde_k = boundary.dual_intertwiners(w, u[k], setup)
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
