"""Theta-engine tests: golden values against the 50-digit direct-summation
reference, the defining symmetries, the Riemann identity, and the agreement
of the scalar (cmath) and array (numpy) summation paths."""

import numpy as np
import pytest

from types import SimpleNamespace

from ellipdw import ModularSetup, ThetaChar, riemann_residual, sigma, sigma_char, theta_char, theta_level2
from ellipdw.config import DRAW_BOX
from ellipdw.elliptic import _not_converged, _not_finite, _theta_series, sigma_separable
from ellipdw.errors import ConvergenceError, DomainError

from highprec import ref_sigma, ref_theta, ref_theta_level2

# Frozen from tests/highprec.py at 60 dps (see that module for the summation).
GOLDEN_THETA_HALF_HALF_03_I = -0.7371971637186817 + 0.0j
GOLDEN_SIGMA_CHAR_10_AT_0 = 0.9135791381561167 + 0.0j
GOLDEN_SIGMA_CHAR_11 = 1.010406811089628 + 0.0j      # u=0.2, tau=1.3i
GOLDEN_LEVEL2_J1 = 1.0056638300121565 + 0.0j         # u=0.4, tau=0.9i


def test_setup_guards():
    with pytest.raises(DomainError):
        ModularSetup(tau=0.01j, eta=0.3)
    with pytest.raises(DomainError):
        ModularSetup(tau=1j, eta=0.3, n_max=0)
    with pytest.raises(DomainError):
        ModularSetup(tau=1j, eta=0.3, series_tol=1e-6)


def test_theta_odd_at_origin(setup):
    assert abs(theta_char(ThetaChar(0.5, 0.5), 0.0, 1j, setup)) < 1e-14


def test_theta_characteristic_shift(setup):
    v1 = theta_char(ThetaChar(0.2, 0.3), 0.11 + 0.07j, 1j, setup)
    v2 = theta_char(ThetaChar(1.2, 0.3), 0.11 + 0.07j, 1j, setup)
    assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))


def test_theta_golden_value(setup):
    v = theta_char(ThetaChar(0.5, 0.5), 0.3, 1j, setup)
    assert abs(v - GOLDEN_THETA_HALF_HALF_03_I) < 1e-13


@pytest.mark.parametrize("a,b,u,tau", [
    (0.5, 0.5, 0.17 + 0.05j, 1j),
    (0.0, 0.5, 0.4 + 0.1j, 0.9j),
    (-0.5, 0.5, 1.1 - 0.3j, 0.3 + 0.9j),
    (0.25, -0.4, -0.8 + 0.6j, 0.1 + 0.7j),
])
def test_theta_against_reference(a, b, u, tau, setup):
    mine = theta_char(ThetaChar(a, b), u, tau, setup)
    ref = ref_theta(a, b, u, tau)
    assert abs(mine - ref) <= 1e-13 * max(1.0, abs(ref))


def test_sigma_zero_and_oddness(setup):
    assert abs(sigma(0.0, setup)) < 1e-14
    u = 0.17 + 0.05j
    assert abs(sigma(-u, setup) + sigma(u, setup)) <= 1e-14


def test_sigma_reference_point(setup):
    assert abs(sigma(0.17 + 0.05j, setup)
               - (-0.4680266518624989 - 0.12382404832525161j)) < 1e-13


def test_sigma_quasi_periods(setup):
    rng = np.random.default_rng(7)
    tau = complex(setup.tau)
    for _ in range(100):
        u = rng.uniform(-0.4, 0.4) + 1j * rng.uniform(-0.15, 0.15)
        su = sigma(u, setup)
        scale = max(1.0, abs(su))
        assert abs(sigma(u + 1, setup) + su) / scale <= 1e-13
        assert abs(sigma(u + tau, setup)
                   + np.exp(-2j * np.pi * (u + tau / 2)) * su) / scale <= 1e-12


def test_sigma_char_identifications(setup):
    u = 0.23 + 0.04j
    assert sigma_char(0, 0, u, setup) == sigma(u, setup)
    assert abs(sigma_char(1, 0, 0.0, setup) - GOLDEN_SIGMA_CHAR_10_AT_0) < 1e-13
    setup13 = ModularSetup(tau=1.3j, eta=0.31)
    assert abs(sigma_char(1, 1, 0.2, setup13) - GOLDEN_SIGMA_CHAR_11) < 1e-13
    with pytest.raises(DomainError):
        sigma_char(2, 0, u, setup)


def test_level2_periodicity_and_zero(setup):
    u = 0.19 - 0.03j
    assert theta_level2(0, u, setup) == theta_level2(2, u, setup)
    assert theta_level2(-1, u, setup) == theta_level2(1, u, setup)
    assert abs(theta_level2(2, 0.0, setup)) < 1e-14


def test_level2_golden(setup):
    setup09 = ModularSetup(tau=0.9j, eta=0.31)
    assert abs(theta_level2(1, 0.4, setup09) - GOLDEN_LEVEL2_J1) < 1e-13
    ref = ref_theta_level2(2, 0.27 + 0.06j, 1j)
    assert abs(theta_level2(2, 0.27 + 0.06j, setup) - ref) < 1e-13


def test_riemann_identity_degenerate_cases(setup):
    assert riemann_residual(0.3, 0.1, 0.2, 0.2, setup) <= 1e-13   # x = y
    assert riemann_residual(0.25, 0.25, 0.4, -0.1, setup) <= 1e-13  # u = v


def test_riemann_identity_sweep(setup):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        args = rng.uniform(-0.4, 0.4, 4) + 1j * rng.uniform(-0.2, 0.2, 4)
        worst = max(worst, riemann_residual(*args, setup))
    assert worst <= 1e-12


def test_truncation_monotone():
    coarse = ModularSetup(tau=1j, eta=0.31, series_tol=1e-13)
    fine = ModularSetup(tau=1j, eta=0.31, series_tol=0.5e-13)
    for u in (0.3, 0.1 + 0.4j, -0.7 + 0.2j):
        v1 = sigma(u, coarse)
        v2 = sigma(u, fine)
        assert abs(v1 - v2) <= 1e-13 * max(1.0, abs(v1))


def test_vectorized_matches_scalar(setup):
    arr = np.array([0.1, 0.2 + 0.1j, -0.3, 0.45 - 0.08j])
    vec = sigma(arr, setup)
    for i, u in enumerate(arr):
        assert vec[i] == sigma(u, setup)


def test_convergence_error():
    tight = ModularSetup(tau=0.05j, eta=0.31, n_max=3, series_tol=1e-15)
    with pytest.raises(ConvergenceError):
        sigma(1.9j, tight)


BIT_IDENTITY_TAUS = (1j, 0.3 + 0.9j, 0.06j, 2.5j)


def _entry_points(setup):
    """Every public theta evaluator as a function of u alone."""
    tau = complex(setup.tau)
    fns = [lambda u: sigma(u, setup)]
    fns += [lambda u, a1=a1, a2=a2: sigma_char(a1, a2, u, setup)
            for a1 in (0, 1) for a2 in (0, 1)]
    fns += [lambda u, j=j: theta_level2(j, u, setup) for j in (0, 1, 2)]
    fns += [lambda u, ch=ch: theta_char(ch, u, tau, setup)
            for ch in (ThetaChar(0.2, 0.3), ThetaChar(-0.37, 0.81))]
    return fns


@pytest.mark.parametrize("tau", BIT_IDENTITY_TAUS)
def test_scalar_path_bit_identical_to_numpy(tau):
    """Python scalars take the cmath loop; a 0-d array takes the numpy loop.
    (Multi-point grids may differ from both in the last bits.)"""
    setup = ModularSetup(tau=tau, eta=0.31)
    rng = np.random.default_rng(2024)
    zs = rng.uniform(-1.2, 1.2, 12) + 1j * rng.uniform(-0.5, 0.5, 12)
    inputs = [int(k) for k in rng.integers(-2, 3, 4)]
    inputs += [float(z.real) for z in zs[:6]] + [complex(z) for z in zs[6:]]
    inputs += [np.float64(z.real) for z in zs[6:]] + [np.complex128(z) for z in zs[:6]]
    for f in _entry_points(setup):
        for u in inputs:
            value = f(u)
            assert type(value) is complex
            # repr round-trips a double and also tells the sign of a zero
            assert repr(value) == repr(f(np.asarray(u)))


def _outcome(f, u):
    try:
        return repr(f(u))
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__


def test_scalar_and_numpy_paths_fail_alike():
    tight = ModularSetup(tau=0.06j, eta=0.31, n_max=2)
    for u in (0.3 + 0.1j, np.asarray(0.3 + 0.1j)):
        with pytest.raises(ConvergenceError):
            sigma(u, tight)
    setup = ModularSetup(tau=1j, eta=0.31)
    for u in (0.3, np.asarray(0.3)):
        with pytest.raises(DomainError):
            theta_char(ThetaChar(0.5, 0.5), u, 0.01j, setup)
    # Terms past the double range: cmath raises where numpy overflows, so
    # the scalar falls back to the numpy loop and ends as it does; an
    # overflowed (inf or nan) sum is refused, never returned.
    f = lambda u: sigma(u, setup)
    with np.errstate(all="ignore"):
        for u in (20j, 27j, 40j, complex("inf")):
            assert _outcome(f, u) == _outcome(f, np.asarray(u)) == "ConvergenceError"
        with pytest.raises(ConvergenceError):
            f(np.array([0.3, 20j]))


def _reference_numpy_loop(a, b, u, tau, series_tol, n_max):
    """The numpy loop of _theta_series before its stopping test was made
    lazy, kept verbatim as the reference for the current one."""
    u_arr = np.asarray(u, dtype=complex)
    ipi = 1j * np.pi

    def term(n):
        na = n + a
        return np.exp(ipi * (na * na * tau + 2.0 * na * (u_arr + b)))

    total = term(0)
    for n in range(1, n_max + 1):
        tp, tm = term(n), term(-n)
        total = total + tp + tm
        last = max(np.max(np.abs(tp)), np.max(np.abs(tm)))
        if last < series_tol * max(1.0, float(np.max(np.abs(total)))):
            if not np.all(np.isfinite(total)):
                _not_finite(a, b)
            return total if u_arr.ndim else complex(total)
    _not_converged(a, b, n_max, last)


def _loop_outcome(f, *args):
    try:
        return f(*args).tobytes()
    except ConvergenceError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("tau", BIT_IDENTITY_TAUS)
def test_numpy_loop_bit_identical_to_reference(tau):
    """Arrays give the reference loop's bits, or its error, at every
    size, characteristic and series cap, overflowing inputs included."""
    rng = np.random.default_rng(77)
    grids = [rng.uniform(-1.2, 1.2, shape) + 1j * rng.uniform(-1.5, 1.5, shape)
             for shape in ((1,), (7,), (200, 200))]
    grids += [np.array([z]) for z in (20j, 27j, 40j)]
    grids += [np.array([0.3, z]) for z in (20j, 27j, 40j)]
    with np.errstate(all="ignore"):
        for a, b in [(0.5 + 0.5 * a1, 0.5 + 0.5 * a2) for a1 in (0, 1) for a2 in (0, 1)]:
            for u in grids:
                for n_max in (60, 3):
                    args = (a, b, u, tau, 1e-15, n_max)
                    assert (_loop_outcome(_theta_series, *args)
                            == _loop_outcome(_reference_numpy_loop, *args))


# ---------------------------------------------------------------------------
# The separable grid evaluator sigma(p_a + s q_k + c) = X @ Y.T.
# ---------------------------------------------------------------------------

def _box_points(rng, box, count, im):
    """Real parts across one DRAW_BOX range, imaginary parts in [-im, im]."""
    return rng.uniform(*DRAW_BOX[f"{box}_re"], count) + 1j * rng.uniform(-im, im, count)


def _term_moduli(z, tau, terms=200):
    """sum_m |exp(i pi [m^2 tau + 2 m (z + 1/2)])| over m = n + 1/2."""
    m = np.arange(-terms, terms) + 0.5
    return np.exp(-np.pi * tau.imag * m * m
                  - 2.0 * np.pi * np.multiply.outer(z.imag, m)).sum(axis=-1)


@pytest.mark.parametrize("tau", (1j, 0.3 + 0.9j, 0.06j))
@pytest.mark.parametrize("s,c", [(1, 0.0), (-1, 0.0), (1, 0.31), (-1, 0.3 + 0.1j)])
def test_sigma_separable_matches_reference(tau, s, c):
    """Within 1e-14 max(1, |ref|) of the 60-digit series, for arguments across
    DRAW_BOX with |Im z| up to 0.5, a near-zero sigma(u_b - u_a) included.
    At Im tau = 0.06 the terms reach exp(pi y^2 / Im tau), about 1e4 |sigma|
    at y = 0.5, and cancel: the library's own series misses that bound by up
    to 3e4 here, so the bound is the rounding of a sum, 1e-14 sum_m |term_m|."""
    setup = ModularSetup(tau=tau, eta=0.31)
    rng = np.random.default_rng(99)
    p = _box_points(rng, "u", 5, 0.25)
    q = np.concatenate([[p[0] + 1e-9 * (1 + 1j)], _box_points(rng, "xi", 4, 0.25)])
    p.imag[-2:] = q.imag[-2:] = (0.25, -0.25)  # some |Im z| reach 0.5
    vals = sigma_separable(p, q, setup, s, c)
    z = p[:, None] + s * q[None, :] + c
    ref = np.array([[ref_sigma(v, tau) for v in row] for row in z])
    bound = np.maximum(1.0, np.abs(ref))
    if tau.imag < 0.5:
        bound = np.maximum(bound, _term_moduli(z, tau))
    assert vals.shape == (5, 5)
    assert np.all(np.abs(vals - ref) <= 1e-14 * bound)
    if s == -1 and c == 0.0:
        assert abs(ref[0, 0]) < 1e-8  # sigma(-1e-9 (1 + i)), close to its zero


def test_sigma_separable_errors():
    with pytest.raises(ConvergenceError):
        sigma_separable([0.1], [0.2], ModularSetup(tau=0.06j, eta=0.31, n_max=3))
    with np.errstate(all="ignore"), pytest.raises(ConvergenceError):
        # the window fits n_max = 200, but the terms leave the double range
        sigma_separable([40j], [0.2], ModularSetup(tau=1j, eta=0.31, n_max=200))
    low = SimpleNamespace(tau=0.01j, eta=0.31, series_tol=1e-15, n_max=60)
    for p in ([0.1], []):
        with pytest.raises(DomainError):
            sigma_separable(p, [0.2], low)


def test_sigma_of_empty_array_is_empty(setup):
    for shape in ((0,), (0, 3)):
        vals = sigma(np.zeros(shape), setup)
        assert vals.shape == shape and vals.dtype == complex
    assert theta_level2(1, np.array([]), setup).shape == (0,)


def test_sigma_separable_empty_and_single(setup):
    assert sigma_separable([], [0.1, 0.2], setup).shape == (0, 2)
    assert sigma_separable([0.1, 0.2], [], setup, -1, 0.31).shape == (2, 0)
    one = sigma_separable([0.27 + 0.06j], [0.13 - 0.04j], setup, -1)
    assert one.shape == (1, 1)
    ref = ref_sigma(0.14 + 0.1j, setup.tau)
    assert abs(one[0, 0] - ref) <= 1e-14 * max(1.0, abs(ref))
