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
    numpy path taken by arrays.
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
