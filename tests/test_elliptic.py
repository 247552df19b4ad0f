"""Theta-engine tests: golden values against the 50-digit direct-summation
reference, the defining symmetries, the Riemann identity, and the agreement
of the scalar (cmath) and array (numpy) summation paths."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from ellipdw import elliptic
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


def test_theta_odd_at_origin():
    assert abs(theta_char(ThetaChar(0.5, 0.5), 0.0, 1j)) < 1e-14


def test_theta_characteristic_shift():
    v1 = theta_char(ThetaChar(0.2, 0.3), 0.11 + 0.07j, 1j)
    v2 = theta_char(ThetaChar(1.2, 0.3), 0.11 + 0.07j, 1j)
    assert abs(v1 - v2) <= 1e-14 * max(1.0, abs(v1))


def test_theta_golden_value():
    v = theta_char(ThetaChar(0.5, 0.5), 0.3, 1j)
    assert abs(v - GOLDEN_THETA_HALF_HALF_03_I) < 1e-13


@pytest.mark.parametrize("a,b,u,tau", [
    (0.5, 0.5, 0.17 + 0.05j, 1j),
    (0.0, 0.5, 0.4 + 0.1j, 0.9j),
    (-0.5, 0.5, 1.1 - 0.3j, 0.3 + 0.9j),
    (0.25, -0.4, -0.8 + 0.6j, 0.1 + 0.7j),
])
def test_theta_against_reference(a, b, u, tau):
    mine = theta_char(ThetaChar(a, b), u, tau)
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


def test_truncation_monotone(setup, monkeypatch):
    for u in (0.3, 0.1 + 0.4j, -0.7 + 0.2j):
        monkeypatch.setattr(elliptic, "SERIES_TOL", 1e-13)
        v1 = sigma(u, setup)
        monkeypatch.setattr(elliptic, "SERIES_TOL", 0.5e-13)
        v2 = sigma(u, setup)
        assert abs(v1 - v2) <= 1e-13 * max(1.0, abs(v1))


def test_vectorized_matches_scalar(setup):
    arr = np.array([0.1, 0.2 + 0.1j, -0.3, 0.45 - 0.08j])
    vec = sigma(arr, setup)
    for i, u in enumerate(arr):
        assert vec[i] == sigma(u, setup)


def test_convergence_error():
    # at Im tau = 0.05 the terms of sigma(2.6i) peak near |n| = 52 (about
    # 1e184, still finite) and fall below SERIES_TOL only past N_MAX = 60
    with pytest.raises(ConvergenceError, match=r"not converged at \|n\| = 60"):
        sigma(2.6j, ModularSetup(tau=0.05j, eta=0.31))


BIT_IDENTITY_TAUS = (1j, 0.3 + 0.9j, 0.06j, 2.5j)


def _entry_points(setup):
    """Every public theta evaluator as a function of u alone."""
    tau = complex(setup.tau)
    fns = [lambda u: sigma(u, setup)]
    fns += [lambda u, a1=a1, a2=a2: sigma_char(a1, a2, u, setup)
            for a1 in (0, 1) for a2 in (0, 1)]
    fns += [lambda u, j=j: theta_level2(j, u, setup) for j in (0, 1, 2)]
    fns += [lambda u, ch=ch: theta_char(ch, u, tau)
            for ch in (ThetaChar(0.2, 0.3), ThetaChar(-0.37, 0.81))]
    return fns


@pytest.mark.parametrize("tau", BIT_IDENTITY_TAUS)
def test_scalar_path_bit_identical_to_numpy(tau):
    """Python scalars and one-element arrays take the cmath loop, returned in
    the input's shape (a Python complex for a 0-d array); an array of two
    equal points takes the numpy loop, which stops at their own step, and
    gives the same bits.  (Grids of distinct points may differ from both in
    the last bits.)"""
    setup = ModularSetup(tau=tau, eta=0.31)
    rng = np.random.default_rng(2024)
    zs = rng.uniform(-1.2, 1.2, 12) + 1j * rng.uniform(-0.5, 0.5, 12)
    inputs = [int(k) for k in rng.integers(-2, 3, 4)]
    inputs += [float(z.real) for z in zs[:6]] + [complex(z) for z in zs[6:]]
    inputs += [np.float64(z.real) for z in zs[6:]] + [np.complex128(z) for z in zs[:6]]
    for f in _entry_points(setup):
        for u in inputs:
            value = f(u)
            assert type(value) is complex and type(f(np.asarray(u))) is complex
            # repr round-trips a double and also tells the sign of a zero
            assert repr(value) == repr(f(np.asarray(u)))
            assert repr(value) == repr(complex(f(np.full((1, 1), u))[0, 0]))
            assert repr(value) == repr(complex(f(np.array([u, u]))[1]))


def _outcome(f, u):
    try:
        return repr(f(u))
    except (ConvergenceError, DomainError) as exc:
        return type(exc).__name__


def test_scalar_and_numpy_paths_fail_alike():
    low = ModularSetup(tau=0.05j, eta=0.31)
    for u in (2.6j, np.asarray(2.6j)):  # past the term cap, as above
        with pytest.raises(ConvergenceError):
            sigma(u, low)
    setup = ModularSetup(tau=1j, eta=0.31)
    for u in (0.3, np.asarray(0.3)):
        with pytest.raises(DomainError):
            theta_char(ThetaChar(0.5, 0.5), u, 0.01j)
    # Terms past the double range: cmath raises where numpy overflows, so
    # the scalar falls back to the numpy loop and ends as it does; an
    # overflowed (inf or nan) sum is refused, never returned.
    f = lambda u: sigma(u, setup)
    for u in (20j, 27j, 40j, complex("inf")):
        assert _outcome(f, u) == _outcome(f, np.asarray(u)) == "ConvergenceError"
    with pytest.raises(ConvergenceError):
        f(np.array([0.3, 20j]))


def test_overflowing_terms_raise_convergence_error_not_warning(setup):
    """Terms past the double range end as ConvergenceError on the scalar,
    numpy and separable paths, with no numpy RuntimeWarning on the way."""
    calls = (lambda: sigma(40j, setup), lambda: sigma(np.array([0.3, 40j]), setup),
             lambda: sigma_separable([20j], [0.2], setup))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ConvergenceError):
                call()


def _reference_numpy_loop(a, b, u, tau, series_tol, n_max):
    """The term-by-term numpy loop that _theta_series's term window replaces,
    with the loop's stopping rule, kept verbatim as the reference for it."""
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
    _not_converged(a, b, last)


def _loop_outcome(f, *args):
    try:
        out = np.asarray(f(*args))
        return out.shape, out.dtype, out.tobytes()
    except ConvergenceError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("tau", BIT_IDENTITY_TAUS + (1j * elliptic.MIN_IM_TAU,))
def test_numpy_loop_bit_identical_to_reference(tau, monkeypatch):
    """Arrays give the reference loop's bits, or its error text, at every
    shape, characteristic and series cap, overflowing inputs included.  At
    MIN_IM_TAU with |Im u| up to 1 the sums cancel below their peak term, so
    some first windows are too small and must grow."""
    windows, grew, term_window = [], [], elliptic._term_window

    def recorded(a, ub, tau, k, series_tol):
        windows.append(k)
        return term_window(a, ub, tau, k, series_tol)

    monkeypatch.setattr(elliptic, "_term_window", recorded)
    rng = np.random.default_rng(77)
    im = 1.0 if tau.imag == elliptic.MIN_IM_TAU else 1.5
    grids = [rng.uniform(-1.2, 1.2, shape) + 1j * rng.uniform(-im, im, shape)
             for shape in ((), (1,), (7,), (3, 4), (200, 200))]
    grids += [np.array([z]) for z in (20j, 27j, 40j)]
    grids += [np.array([0.3, z]) for z in (20j, 27j, 40j)]
    grids.append(grids[3].copy())
    grids[-1][1, 2] = 40j  # one overflowing point in a grid
    empty = ((0,), np.dtype(complex), b"")
    with np.errstate(all="ignore"):
        for a, b in [(0.5 + 0.5 * a1, 0.5 + 0.5 * a2) for a1 in (0, 1) for a2 in (0, 1)]:
            for n_max in (60, 3, 2, 1):
                monkeypatch.setattr(elliptic, "N_MAX", n_max)
                for u in grids:
                    windows.clear()
                    outcome = _loop_outcome(_theta_series, a, b, u, tau)
                    assert outcome == _loop_outcome(_reference_numpy_loop,
                                                    a, b, u, tau, 1e-15, n_max)
                    grew.append(len(windows) > 1 and not isinstance(outcome, str))
                assert _loop_outcome(_theta_series, a, b, np.zeros(0), tau) == empty
    if tau.imag == elliptic.MIN_IM_TAU:
        assert any(grew)  # a sum from a second window, still the loop's bits


def test_window_columns_are_cached_and_read_only():
    """One k-step window's columns serve every call at (a, k, tau), so none
    may be written; they are the loop's operands na*na*tau and 2.0*na."""
    square, twice = elliptic._window_columns(0.5, 4, 1j)
    assert elliptic._window_columns(0.5, 4, 1j)[0] is square
    na = np.array([0, 1, -1, 2, -2, 3, -3, 4, -4], dtype=float)[:, None] + 0.5
    assert square.tobytes() == (na * na * 1j).tobytes()
    assert twice.tobytes() == (2.0 * na).tobytes()
    for column in (square, twice):
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0.0


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


def test_sigma_separable_errors(setup):
    with pytest.raises(ConvergenceError, match="window exceeds N_MAX = 60"):
        sigma_separable([2.6j], [0.2], ModularSetup(tau=0.05j, eta=0.31))
    with pytest.raises(ConvergenceError, match="not finite"):
        # the window fits N_MAX, but the terms leave the double range
        sigma_separable([20j], [0.2], setup)
    low = SimpleNamespace(tau=0.01j, eta=0.31)
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
