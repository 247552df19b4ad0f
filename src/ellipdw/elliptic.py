"""Elliptic building blocks: theta functions with characteristics.

Everything downstream (R-matrices, K-matrices, intertwiners, partition
functions) is assembled from three families evaluated here:

* ``theta_char`` -- theta function with real characteristics (a, b),
  summed as exp{i*pi*[(n+a)^2 tau + 2(n+a)(u+b)]} over a symmetric
  truncation window,
* ``sigma`` / ``sigma_char`` -- the odd sigma function theta[1/2;1/2](u, tau)
  and its half-integer-characteristic companions sigma_alpha,
* ``theta_level2`` -- the two level-2tau functions theta^(j), j in {1, 2},
  with j reduced mod 2 (an integer shift of the upper characteristic
  re-indexes the defining sum, so theta^(0) == theta^(2)).

All evaluators accept scalars or numpy arrays for the spectral argument.
Python scalars (numpy float64/complex128 included) are summed with cmath,
bit-identical to the numpy path that serves arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

MIN_IM_TAU = 0.05


@dataclass(frozen=True)
class ModularSetup:
    """Modular parameter tau, crossing parameter eta, and series controls."""

    tau: complex
    eta: complex
    series_tol: float = 1e-15
    n_max: int = 60

    def __post_init__(self):
        if complex(self.tau).imag < MIN_IM_TAU:
            raise DomainError(f"Im(tau) = {complex(self.tau).imag} below {MIN_IM_TAU}")
        if not (1 <= self.n_max <= 200):
            raise DomainError(f"n_max = {self.n_max} outside [1, 200]")
        if not (0.0 < self.series_tol <= 1e-12):
            raise DomainError(f"series_tol = {self.series_tol} outside (0, 1e-12]")


@dataclass(frozen=True)
class ThetaChar:
    """Characteristics (a, b) of theta[a; b]."""

    a: float
    b: float


def _theta_series(a, b, u, tau, series_tol, n_max):
    """Symmetric-window theta sum with a relative-magnitude stopping rule.

    Terms are added in the order n = 0, +-1, +-2, ...; the loop stops once
    the last pair of terms is below series_tol * max(1, |partial sum|)
    everywhere (u may be an array); a sum left inf or nan by overflowing
    terms raises ConvergenceError.  A Python scalar u (int, float, complex,
    or their numpy subclasses) is summed with cmath, bit-identical to the
    numpy path taken by arrays; an empty array gives an empty array.
    """
    tau = complex(tau)
    if tau.imag < MIN_IM_TAU:
        raise DomainError(f"Im(tau) = {tau.imag} below {MIN_IM_TAU}")
    if isinstance(u, (int, float, complex)):
        try:
            return _theta_scalar(a, b, complex(u), tau, series_tol, n_max)
        except (OverflowError, ValueError):
            pass  # cmath refuses overflowing or non-finite terms; numpy sums them
    u_arr = np.asarray(u, dtype=complex)
    if u_arr.size == 0:
        return np.zeros_like(u_arr)
    ub = u_arr + b
    ipi = 1j * np.pi

    def term(n):
        na = n + a
        return np.exp(ipi * (na * na * tau + 2.0 * na * ub))

    total = term(0)
    # bound >= max|total| (triangle inequality, with room for rounding): while
    # the stopping rule fails on it, it fails on max|total| too, which is then
    # not computed
    bound = float(np.abs(total).max())
    for n in range(1, n_max + 1):
        tp, tm = term(n), term(-n)
        total = total + tp + tm
        lp, lm = float(np.abs(tp).max()), float(np.abs(tm).max())
        last = max(lp, lm)
        bound += lp + lm
        if last < series_tol * max(1.0, bound * (1.0 + 1e-12)) \
                and last < series_tol * max(1.0, float(np.abs(total).max())):
            if not np.isfinite(total).all():
                _not_finite(a, b)
            return total if u_arr.ndim else complex(total)
    _not_converged(a, b, n_max, last)


def _theta_scalar(a, b, u, tau, series_tol, n_max):
    """The numpy loop on one complex u: the same terms, sums and comparisons
    in the same order, with a real operand promoted to complex as numpy
    promotes it.  Inlined, and max() spelled out, because here a Python call
    costs about as much as a cmath.exp."""
    exp, ipi, ub = cmath.exp, 1j * math.pi, u + b
    na = 0 + a
    total = exp(ipi * (na * na * tau + 2.0 * na * ub))
    for n in range(1, n_max + 1):
        na = n + a
        tp = exp(ipi * (na * na * tau + 2.0 * na * ub))
        na = -n + a
        tm = exp(ipi * (na * na * tau + 2.0 * na * ub))
        total = total + tp + tm
        last, last_m = abs(tp), abs(tm)
        if last_m > last:
            last = last_m
        size = abs(total)
        if last < series_tol * (size if size > 1.0 else 1.0):
            if not cmath.isfinite(total):
                _not_finite(a, b)
            return total
    _not_converged(a, b, n_max, last)


def _not_converged(a, b, n_max, last):
    raise ConvergenceError(
        f"theta[{a};{b}] series not converged at |n| = {n_max} "
        f"(last term {last:.3e})"
    )


def _not_finite(a, b):
    # overflowing terms leave an inf or nan partial sum, which the stopping
    # rule cannot see (max(1, nan) is 1)
    raise ConvergenceError(f"theta[{a};{b}] series sum is not finite")


def theta_char(ch: ThetaChar, u, modular_tau, setup: ModularSetup):
    """theta[a; b](u, modular_tau) with the setup's truncation controls."""
    return _theta_series(ch.a, ch.b, u, modular_tau, setup.series_tol, setup.n_max)


def sigma(u, setup: ModularSetup):
    """The odd function sigma(u) = theta[1/2; 1/2](u, tau)."""
    return _theta_series(0.5, 0.5, u, setup.tau, setup.series_tol, setup.n_max)


def _separable_window(tau: complex, im_max: float, series_tol: float, n_max: int) -> int:
    """Half-width k of the window n = -k .. k-1, i.e. |n + 1/2| <= k - 1/2.

    A term of sigma has modulus exp(-pi t m^2 - 2 pi m Im z), m = n + 1/2,
    t = Im tau; with |Im z| <= y it is at most exp(-pi t m^2 + 2 pi |m| y)
    (DLMF 20.2).  Past the vertex m = y / t that bound falls faster than a
    geometric series of ratio r, so the terms left out, |m| >= k + 1/2 on
    both sides, sum to at most 2 * bound(k + 1/2) / (1 - r): k is the first
    size at which that is below series_tol.
    """
    if tau.imag < MIN_IM_TAU:
        raise DomainError(f"Im(tau) = {tau.imag} below {MIN_IM_TAU}")
    t = tau.imag
    log_tol = math.log(series_tol / 2.0)
    for k in range(1, n_max + 1):
        m = k + 0.5
        if m < im_max / t:
            continue  # the bound still rises at m
        log_ratio = -math.pi * t * (2.0 * m + 1.0) + 2.0 * math.pi * im_max
        log_bound = -math.pi * t * m * m + 2.0 * math.pi * m * im_max
        if log_bound - math.log1p(-math.exp(log_ratio)) < log_tol:
            return k
    raise ConvergenceError(
        f"separable sigma window exceeds n_max = {n_max} "
        f"(Im tau = {t:.3g}, |Im z| <= {im_max:.3g})")


def sigma_separable(p, q, setup: ModularSetup, s: int = 1, c: complex = 0.0):
    """sigma(p_a + s*q_k + c) for every (a, k), as one complex GEMM X @ Y.T.

    X[a, n] = exp(i pi [(n+1/2)^2 tau + 2 (n+1/2)(p_a + c + 1/2)]) and
    Y[k, n] = exp(2 pi i s (n+1/2) q_k) over a window fixed in advance from
    Im tau, series_tol and |Im(p + c)| + |Im q| (see ``_separable_window``);
    each product X[a, n] Y[k, n] is the n-th term of the series.  The terms
    are those of ``sigma`` but summed in another order and window, so the
    values agree with it to rounding, not bit for bit.  Raises DomainError
    below MIN_IM_TAU and ConvergenceError when the window exceeds n_max or a
    value is not finite.
    """
    tau = complex(setup.tau)
    p = np.asarray(p, dtype=complex).ravel() + complex(c)
    q = np.asarray(q, dtype=complex).ravel()
    im_max = float(np.abs(p.imag).max(initial=0.0) + np.abs(q.imag).max(initial=0.0))
    k = _separable_window(tau, im_max, setup.series_tol, setup.n_max)
    m = np.arange(-k, k) + 0.5
    x = np.exp(1j * np.pi * (m * m * tau + 2.0 * m * (p[:, None] + 0.5)))
    y = np.exp((2j * np.pi * s) * m * q[:, None])
    out = x @ y.T
    if not np.isfinite(out).all():
        _not_finite(0.5, 0.5)
    return out


def sigma_char(alpha1: int, alpha2: int, u, setup: ModularSetup):
    """sigma_alpha(u) = theta[1/2 + a1/2; 1/2 + a2/2](u, tau), a_i in {0, 1}."""
    if alpha1 not in (0, 1) or alpha2 not in (0, 1):
        raise DomainError(f"alpha = ({alpha1}, {alpha2}) not in {{0,1}}^2")
    return _theta_series(
        0.5 + 0.5 * alpha1, 0.5 + 0.5 * alpha2, u, setup.tau,
        setup.series_tol, setup.n_max,
    )


def theta_level2(j: int, u, setup: ModularSetup):
    """theta^(j)(u) = theta[(1-j)/2; 1/2](u, 2*tau), j reduced into {1, 2}."""
    j_red = (j - 1) % 2 + 1
    return _theta_series(
        0.5 * (1 - j_red), 0.5, u, 2 * complex(setup.tau),
        setup.series_tol, setup.n_max,
    )


def riemann_residual(u, v, x, y, setup: ModularSetup) -> float:
    """Relative residual of the Riemann identity for sigma.

    |s(u+x)s(u-x)s(v+y)s(v-y) - s(u+y)s(u-y)s(v+x)s(v-x)
     - s(u+v)s(u-v)s(x+y)s(x-y)| / max(1, |rhs|).
    """
    s = lambda z: sigma(z, setup)
    lhs = s(u + x) * s(u - x) * s(v + y) * s(v - y) \
        - s(u + y) * s(u - y) * s(v + x) * s(v - x)
    rhs = s(u + v) * s(u - v) * s(x + y) * s(x - y)
    return float(abs(lhs - rhs) / max(1.0, abs(rhs)))
