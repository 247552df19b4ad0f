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
Python scalars (numpy float64/complex128 included) and one-element arrays
are summed with cmath term by term.  A larger array is summed as one term
window, every term of a window sized in advance at once, which forms the
scalar loop's partial sums and stops at the first step where every element
has converged.  An element so has its scalar sum's bits wherever that step
is the element's own, and equals it to rounding elsewhere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

MIN_IM_TAU = 0.05
SERIES_TOL = 1e-15  # a series stops once its last pair of terms is this small
N_MAX = 60          # ... or fails past this many pairs


@dataclass(frozen=True)
class ModularSetup:
    """Modular parameter tau and crossing parameter eta."""

    tau: complex
    eta: complex

    def __post_init__(self):
        if complex(self.tau).imag < MIN_IM_TAU:
            raise DomainError(f"Im(tau) = {complex(self.tau).imag} below {MIN_IM_TAU}")


@dataclass(frozen=True)
class ThetaChar:
    """Characteristics (a, b) of theta[a; b]."""

    a: float
    b: float


def _theta_series(a, b, u, tau):
    """Symmetric-window theta sum with a relative-magnitude stopping rule.

    Terms are added in the order n = 0, +-1, +-2, ...; the sum stops once
    the last pair of terms is below SERIES_TOL * max(1, |partial sum|)
    everywhere (u may be an array) and fails past N_MAX pairs; a sum left
    inf or nan by overflowing terms raises ConvergenceError, not numpy's
    RuntimeWarning.  A Python scalar u (int, float, complex, or their numpy
    subclasses) or a one-element array is summed term by term with cmath, in
    u's shape (0-d: a complex).  A larger array is summed as one term window
    (``_term_window``) of K pairs, K sized from a bound on the term moduli
    and doubled, up to N_MAX, while no step within it passes: the partial
    sums and the stopping step are the term-by-term loop's, bit for bit, so
    an element gets its scalar sum's bits wherever that step is the
    element's own, and its value to rounding elsewhere.  An empty array
    gives an empty array.
    """
    tau, series_tol, n_max = complex(tau), SERIES_TOL, N_MAX
    if tau.imag < MIN_IM_TAU:
        raise DomainError(f"Im(tau) = {tau.imag} below {MIN_IM_TAU}")
    scalar = isinstance(u, (int, float, complex))
    if scalar or np.size(u) == 1:
        try:
            value = _theta_scalar(a, b, complex(u if scalar else np.ravel(u)[0]),
                                  tau, series_tol, n_max)
        except (OverflowError, ValueError):
            pass  # cmath refuses overflowing or non-finite terms; numpy sums them
        else:
            return value if scalar or not np.ndim(u) else np.full(np.shape(u), value)
    u_arr = np.asarray(u, dtype=complex)
    if u_arr.size == 0:
        return np.zeros_like(u_arr)
    ub = u_arr.ravel() + b
    # |term| <= exp(-pi t m^2 + 2 pi |m| y), m = n + a, t = Im tau and
    # y = max |Im(u + b)| (DLMF 20.2); past |m| = reach that bound is below
    # series_tol times its peak exp(pi y^2 / t), near where the stopping
    # rule, relative to max(1, |sum|), first passes
    t = tau.imag
    reach = (float(np.abs(ub.imag).max()) / t
             + math.sqrt(-math.log(series_tol) / (math.pi * t)) + abs(a))
    k = int(reach) + 1 if reach < n_max else n_max  # nan or inf: the cap
    with np.errstate(over="ignore", invalid="ignore"):
        total, last = _term_window(a, ub, tau, k, series_tol)
        while total is None and k < n_max:  # cancelled below its peak term, or overflowed
            k = min(2 * k, n_max)
            total, last = _term_window(a, ub, tau, k, series_tol)
    if total is None:
        _not_converged(a, b, last)
    if not np.isfinite(total).all():
        _not_finite(a, b)
    return total.reshape(u_arr.shape) if u_arr.ndim else complex(total[0])


def _term_window(a, ub, tau, k, series_tol):
    """The first k steps of the series loop over the 1-D array ub = u + b.

    Row 0 of the (2k+1) x M term matrix is n = 0 and rows 2n-1, 2n are +n,
    -n, each exp(i pi (na^2 tau + 2 na ub)) with the loop's operands (the
    columns na*na*tau and 2.0*na from ``_window_columns``), so one
    add.accumulate down the rows forms the loop's partial sums
    (sum + t(+n)) + t(-n) bit for bit.  The stopping rule then runs over the
    row maxima: the result is (the partial sum at the first step whose last
    pair of terms is below series_tol * max(1, max|sum|), None), or
    (None, the largest term of step k).
    """
    square, twice = _window_columns(a, k, tau)
    terms = np.exp(1j * np.pi * (square + twice * ub))
    moduli = np.abs(terms).max(axis=1).tolist()
    sums = np.add.accumulate(terms, axis=0, out=terms)
    sizes = np.abs(sums[::2]).max(axis=1).tolist()  # sizes[n]: after step n
    for n in range(1, k + 1):
        last = max(moduli[2 * n - 1], moduli[2 * n])
        if last < series_tol * max(1.0, sizes[n]):
            return sums[2 * n].copy(), None
    return None, last


@lru_cache(maxsize=64)
def _window_columns(a, k, tau):
    """The read-only columns na*na*tau and 2.0*na of a k-step term window,
    na = n + a over the rows n = 0, +1, -1, ..., +k, -k."""
    n = np.arange(1, k + 1)
    order = np.zeros(2 * k + 1)
    order[1::2], order[2::2] = n, -n
    na = (order + a)[:, None]
    square, twice = na * na * tau, 2.0 * na
    square.flags.writeable = twice.flags.writeable = False
    return square, twice


def _theta_scalar(a, b, u, tau, series_tol, n_max):
    """The term-by-term loop on one complex u: the term window's terms, sums
    and comparisons in the same order, with a real operand promoted to
    complex as numpy promotes it.  Inlined, and max() spelled out, because
    here a Python call costs about as much as a cmath.exp."""
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
    _not_converged(a, b, last)


def _not_converged(a, b, last):
    raise ConvergenceError(
        f"theta[{a};{b}] series not converged at |n| = {N_MAX} "
        f"(last term {last:.3e})"
    )


def _not_finite(a, b):
    # overflowing terms leave an inf or nan partial sum, which the stopping
    # rule cannot see (max(1, nan) is 1)
    raise ConvergenceError(f"theta[{a};{b}] series sum is not finite")


def theta_char(ch: ThetaChar, u, modular_tau):
    """theta[a; b](u, modular_tau)."""
    return _theta_series(ch.a, ch.b, u, modular_tau)


def sigma(u, setup: ModularSetup):
    """The odd function sigma(u) = theta[1/2; 1/2](u, tau)."""
    return _theta_series(0.5, 0.5, u, setup.tau)


def _separable_window(tau: complex, im_max: float) -> int:
    """Half-width k of the window n = -k .. k-1, i.e. |n + 1/2| <= k - 1/2.

    A term of sigma has modulus exp(-pi t m^2 - 2 pi m Im z), m = n + 1/2,
    t = Im tau; with |Im z| <= y it is at most exp(-pi t m^2 + 2 pi |m| y)
    (DLMF 20.2).  Past the vertex m = y / t that bound falls faster than a
    geometric series of ratio r, so the terms left out, |m| >= k + 1/2 on
    both sides, sum to at most 2 * bound(k + 1/2) / (1 - r): k is the first
    size at which that is below SERIES_TOL.
    """
    if tau.imag < MIN_IM_TAU:
        raise DomainError(f"Im(tau) = {tau.imag} below {MIN_IM_TAU}")
    t = tau.imag
    log_tol = math.log(SERIES_TOL / 2.0)
    for k in range(1, N_MAX + 1):
        m = k + 0.5
        if m < im_max / t:
            continue  # the bound still rises at m
        log_ratio = -math.pi * t * (2.0 * m + 1.0) + 2.0 * math.pi * im_max
        log_bound = -math.pi * t * m * m + 2.0 * math.pi * m * im_max
        if log_bound - math.log1p(-math.exp(log_ratio)) < log_tol:
            return k
    raise ConvergenceError(
        f"theta[0.5;0.5] series not converged: its separable window exceeds "
        f"N_MAX = {N_MAX} (Im tau = {t:.3g}, |Im z| <= {im_max:.3g})")


def sigma_separable(p, q, setup: ModularSetup, s: int = 1, c: complex = 0.0):
    """sigma(p_a + s*q_k + c) for every (a, k), as one complex GEMM X @ Y.T.

    X[a, n] = exp(i pi [(n+1/2)^2 tau + 2 (n+1/2)(p_a + c + 1/2)]) and
    Y[k, n] = exp(2 pi i s (n+1/2) q_k) over a window fixed in advance from
    Im tau, SERIES_TOL and |Im(p + c)| + |Im q| (see ``_separable_window``);
    each product X[a, n] Y[k, n] is the n-th term of the series.  The terms
    are those of ``sigma`` but summed in another order and window, so the
    values agree with it to rounding, not bit for bit.  ``p`` of shape
    (..., A) and ``q`` of shape (..., K) give shape (..., A, K), the leading
    axes broadcast and the products one stacked matmul; each leading index
    keeps the window of its own p and q (Y is zero past it), so an entry of
    a stack sums the terms of its lone evaluation.  Raises DomainError below
    MIN_IM_TAU and ConvergenceError when a window exceeds N_MAX (worded as
    ``sigma``'s own unconverged series) or a value is not finite.
    """
    tau = complex(setup.tau)
    p = np.asarray(p, dtype=complex) + complex(c)
    q = np.asarray(q, dtype=complex)
    im_max = (np.abs(p.imag).max(axis=-1, initial=0.0)
              + np.abs(q.imag).max(axis=-1, initial=0.0))
    ks = [_separable_window(tau, y) for y in np.ravel(im_max).tolist()]
    k = max(ks)
    m = np.arange(-k, k) + 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(1j * np.pi * (m * m * tau + 2.0 * m * (p[..., None] + 0.5)))
        y = np.exp((2j * np.pi * s) * m * q[..., None])
        if min(ks) < k:  # zero each configuration's terms past its own window
            y = np.where(np.abs(m) < np.reshape(ks, np.shape(im_max) + (1, 1)), y, 0.0)
        out = x @ np.swapaxes(y, -1, -2)
    if not np.isfinite(out).all():
        _not_finite(0.5, 0.5)
    return out


def sigma_char(alpha1: int, alpha2: int, u, setup: ModularSetup):
    """sigma_alpha(u) = theta[1/2 + a1/2; 1/2 + a2/2](u, tau), a_i in {0, 1}."""
    if alpha1 not in (0, 1) or alpha2 not in (0, 1):
        raise DomainError(f"alpha = ({alpha1}, {alpha2}) not in {{0,1}}^2")
    return _theta_series(0.5 + 0.5 * alpha1, 0.5 + 0.5 * alpha2, u, setup.tau)


def theta_level2(j: int, u, setup: ModularSetup):
    """theta^(j)(u) = theta[(1-j)/2; 1/2](u, 2*tau), j reduced into {1, 2}."""
    j_red = (j - 1) % 2 + 1
    return _theta_series(0.5 * (1 - j_red), 0.5, u, 2 * complex(setup.tau))


def riemann_residual(u, v, x, y, setup: ModularSetup):
    """Relative residual of the Riemann identity for sigma.

    |s(u+x)s(u-x)s(v+y)s(v-y) - s(u+y)s(u-y)s(v+x)s(v-x)
     - s(u+v)s(u-v)s(x+y)s(x-y)| / max(1, |rhs|): a float for scalar
    arguments, an array of residuals for equal-shape array arguments.
    """
    s = lambda z: sigma(z, setup)
    lhs = s(u + x) * s(u - x) * s(v + y) * s(v - y) \
        - s(u + y) * s(u - y) * s(v + x) * s(v - x)
    rhs = s(u + v) * s(u - v) * s(x + y) * s(x - y)
    res = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))
    return float(res) if np.ndim(res) == 0 else res
