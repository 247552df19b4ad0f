"""Closed-form evaluations of the partition function and their proof steps.

Every sigma table that does not depend on the boundary -- the (u, xi) grids,
the pair products, sigma(2u) and the xi-ratio G -- is read from the
configuration's ``SpectralGrids``, which the genericity check of a drawn
configuration has already filled and which refuses a family below the
genericity floor when it is evaluated.  This module evaluates only the
boundary vectors sigma(l1+z+u) sigma(l2+z+u) and sigma(l1+z-xi)
sigma(l2+z+xi), sigma(eta) and the lambda product.

* ``normalized_z_permsum`` -- the symmetric sum over S_N of per-permutation
  sigma-products (O(N!), vectorized over permutations in fixed chunks),
* ``normalized_z_determinant`` -- the single-determinant representation
  (O(N^3), accumulated in log space so large N stays representable),
* ``partition_prefactor`` -- the lambda product times the (u, xi) ratio
  product turning the normalized value into the full partition function,
  at every N,
* ``full_z`` -- prefactor x normalized value by either route,
* ``recursion_residual`` -- the N -> N-1 recursion obeyed by the sum,
* ``pole_matching_pair`` / ``residue_estimate`` / ``pole_scan`` -- the two
  meromorphic functions whose equal poles and residues prove the
  determinant formula, with epsilon-ring residue estimation.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings

import numpy as np
import scipy.linalg

from .boundary import BoundaryConfig
from .elliptic import ModularSetup, sigma
from .errors import ConditioningWarning, SingularityError, SizeError
from .oracle import SpectralConfig, SpectralGrids
from .rmatrices import GENERICITY_FLOOR, _floor_checked

MAX_PERMSUM_N = 9
MAX_DETERMINANT_N = 512
PERMSUM_CHUNK = 40320
_SIZE_GUARDS = {"permsum": MAX_PERMSUM_N, "determinant": MAX_DETERMINANT_N}


def _require_size(route: str, n: int):
    if n > _SIZE_GUARDS[route]:
        raise SizeError(f"{route} route limited to N <= {_SIZE_GUARDS[route]}, got {n}")


def _log_product(values) -> complex:
    """Sum of complex logs; the real part may exceed the double exp range."""
    v = np.asarray(values, dtype=complex).ravel()
    return complex(np.sum(np.log(v)))


# ---------------------------------------------------------------------------
# The boundary vectors and the tables built on them.
# ---------------------------------------------------------------------------

def _boundary_vectors(g: SpectralGrids, bc: BoundaryConfig):
    """(lam_u, lam_xi) = (sigma(l1+z+u) sigma(l2+z+u), sigma(l1+z-xi) sigma(l2+z+xi)).

    Every consumer divides by the four (u, xi) grids and by lam_u, so all
    four grids are read (each is checked against the floor when evaluated)
    and lam_u is checked here.  Each factor is its own sigma call: the numpy
    series stops on the largest term of the whole array, so merging them
    would move their bits.
    """
    g.minus, g.plus, g.minus_eta, g.plus_eta  # read, so checked
    u, xi, setup, what = g.u, g.xi, g.setup, "sigma(lambda_i + zeta + u)"
    l1u = _floor_checked(sigma(bc.lambda1 + bc.zeta + u, setup), what)
    l2u = _floor_checked(sigma(bc.lambda2 + bc.zeta + u, setup), what)
    lam_xi = (sigma(bc.lambda1 + bc.zeta - xi, setup)
              * sigma(bc.lambda2 + bc.zeta + xi, setup))
    return l1u * l2u, lam_xi


def _permsum_ab(g: SpectralGrids, lam_u, lam_xi):
    """A, B of term(s) = prod_n A[n, s(n)] prod_{n<k} B[n, s(k)] G[s(n), s(k)]."""
    table_a = (lam_xi[None, :] * g.s2u[:, None] * sigma(g.setup.eta, g.setup)
               / (lam_u[:, None] * g.minus_eta * g.plus))
    table_b = g.minus * g.plus_eta / (g.minus_eta * g.plus)
    return table_a, table_b


def _log_uxi_ratio(g: SpectralGrids) -> complex:
    """log prod_{a,k} sigma(u_a + xi_k) / sigma(u_a + xi_k + eta)."""
    return _log_product(g.plus) - _log_product(g.plus_eta)


def _log_pair_products(g: SpectralGrids) -> complex:
    """log prod_{a<b} s(u_b-u_a) s(u_a+u_b+eta) s(xi_a-xi_b) s(xi_a+xi_b)."""
    if len(g.u) < 2:
        return 0.0 + 0.0j
    return (_log_product(g.u_diff) + _log_product(g.u_sum_eta)
            + _log_product(g.xi_diff) + _log_product(g.xi_sum))


# ---------------------------------------------------------------------------
# Permutation-sum route.
# ---------------------------------------------------------------------------

def _permsum(g: SpectralGrids, lam_u, lam_xi) -> complex:
    n = len(g.u)
    table_a, table_b = _permsum_ab(g, lam_u, lam_xi)
    table_g = g.xi_ratio
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    rows = np.arange(n)
    total = 0.0 + 0.0j
    # chunks bound the memory: N = 9 has 362,880 permutations
    for start in range(0, len(perms), PERMSUM_CHUNK):
        chunk = perms[start:start + PERMSUM_CHUNK]
        term = table_a[rows[None, :], chunk].prod(axis=1)
        for a in range(n):
            for k in range(a + 1, n):
                term = term * table_b[a, chunk[:, k]] * table_g[chunk[:, a], chunk[:, k]]
        total += np.add.reduce(term)
    return complex(total)


def normalized_z_permsum(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Symmetric permutation-sum form of the normalized partition function."""
    _require_size("permsum", spectral.n)
    if spectral.n == 0:
        return 1.0 + 0.0j
    g = spectral.grids(setup)
    return _permsum(g, *_boundary_vectors(g, bc))


# ---------------------------------------------------------------------------
# Determinant route (log-space).
# ---------------------------------------------------------------------------

def _log_z_det(g: SpectralGrids, lam_u, lam_xi) -> complex:
    """log of the normalized value from the single determinant.

    log(det) comes from a partial-pivoted LU, with a pivot-ratio digit-loss
    warning.
    """
    row = g.s2u / lam_u
    kernel = sigma(g.setup.eta, g.setup) / (g.minus * g.plus_eta * g.minus_eta * g.plus)
    matrix = row[:, None] * kernel * lam_xi[None, :]
    lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
    diag = np.diag(lu)
    if np.any(diag == 0):
        raise SingularityError("singular matrix in normalized_z_determinant")
    mags = np.abs(diag)
    if mags.max() / mags.min() >= 1e6:
        warnings.warn(
            f"normalized_z_determinant: pivot ratio {mags.max() / mags.min():.2e} "
            "indicates >= 6 digits lost", ConditioningWarning, stacklevel=3)
    sign_flips = int(np.sum(piv != np.arange(len(diag))))
    log_det = complex(np.sum(np.log(diag))) + (1j * math.pi) * (sign_flips % 2)
    log_num = _log_product(g.minus) + _log_product(g.plus_eta)
    return log_num + log_det - _log_pair_products(g)


def _log_normalized_z_determinant(spectral, bc, setup,
                                  floor: float = GENERICITY_FLOOR) -> complex:
    """log of the normalized value.  ``floor`` is accepted only as
    GENERICITY_FLOOR, for callers that still pass it."""
    if floor != GENERICITY_FLOOR:
        raise ValueError(f"the genericity floor is fixed at {GENERICITY_FLOOR:.0e}, "
                         f"got {floor!r}")
    if spectral.n == 0:
        return 0.0 + 0.0j
    g = spectral.grids(setup)
    return _log_z_det(g, *_boundary_vectors(g, bc))


def _exp_saturating(log_value: complex) -> complex:
    """exp of a complex log, saturating to 0 or a phased inf out of range."""
    if log_value.real > 705.0:
        return cmath.rect(math.inf, log_value.imag)
    if log_value.real < -745.0:
        return 0.0 + 0.0j
    return cmath.exp(log_value)


def normalized_z_determinant(spectral: SpectralConfig, bc: BoundaryConfig,
                             setup: ModularSetup) -> complex:
    """Single-determinant form of the normalized partition function.

    Values beyond double range saturate to 0 or inf; bench mode reports the
    log-space digest instead.
    """
    _require_size("determinant", spectral.n)
    return _exp_saturating(_log_normalized_z_determinant(spectral, bc, setup))


# ---------------------------------------------------------------------------
# Prefactor and full partition function.
# ---------------------------------------------------------------------------

def _log_lambda_factor(n: int, bc: BoundaryConfig, setup: ModularSetup) -> complex:
    """Telescoped creation-operator scalars: the closed-form lambda product.

    prod_{n'=1..N} sigma(l12 + (2n'-N) eta) / prod_{j=0..N-1} sigma(l12 - j eta):
    the n'-th creation operator in the chain contributes its scalar
    sigma(m12)/sigma(l12) and the sector weight sigma(l12)/sigma(l12-k eta)
    of the sector it acts on.  It holds at odd N as at even N: the tests
    check it against the face route at N = 1..7.
    """
    eta = setup.eta
    l12 = bc.lambda12
    out = 0.0 + 0.0j
    for k in range(1, n + 1):
        num = sigma(l12 + (2 * k - n) * eta, setup)
        den = sigma(l12 - (k - 1) * eta, setup)
        if min(abs(den), abs(num)) < GENERICITY_FLOOR:
            raise SingularityError("lambda12 within eta*Z of a sigma zero")
        out += cmath.log(num) - cmath.log(den)
    return out


def partition_prefactor(bc: BoundaryConfig, spectral: SpectralConfig,
                        setup: ModularSetup) -> complex:
    """lambda product times the (u, xi) ratio product; 1 at N = 0."""
    g = spectral.grids(setup)
    _boundary_vectors(g, bc)  # refuses what every closed form refuses
    return cmath.exp(_log_lambda_factor(spectral.n, bc, setup) + _log_uxi_ratio(g))


def full_z(spectral: SpectralConfig, bc: BoundaryConfig, setup: ModularSetup,
           route: str = "determinant") -> complex:
    """Full partition function: prefactor x normalized value, one table build."""
    n = spectral.n
    if n == 0:
        return 1.0 + 0.0j
    if route not in _SIZE_GUARDS:
        raise ValueError(f"unknown closed-form route: {route!r}")
    _require_size(route, n)
    g = spectral.grids(setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    if route == "permsum":
        log_norm = cmath.log(_permsum(g, lam_u, lam_xi))
    else:
        log_norm = _log_z_det(g, lam_u, lam_xi)
    return _exp_saturating(_log_lambda_factor(n, bc, setup)
                           + _log_uxi_ratio(g) + log_norm)


# ---------------------------------------------------------------------------
# Proof-step machinery: recursion, pole-matching pair, residues, pole scan.
# ---------------------------------------------------------------------------

def recursion_residual(spectral: SpectralConfig, bc: BoundaryConfig,
                       setup: ModularSetup) -> float:
    """Relative residual of the N -> N-1 recursion (determinant route).

    Z_N = sum_i A[N-1, i] prod_{l<N-1} B[l, i] prod_{j!=i} G[j, i]
    Z_{N-1}(u without u_N, xi without xi_i).
    """
    n = spectral.n
    if n < 1:
        raise SizeError("recursion needs N >= 1")
    _require_size("determinant", n)
    g = spectral.grids(setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    z_n = _exp_saturating(_log_z_det(g, lam_u, lam_xi))
    table_a, table_b = _permsum_ab(g, lam_u, lam_xi)
    coeff = table_a[n - 1] * table_b[:n - 1].prod(axis=0) * g.xi_ratio.prod(axis=0)
    acc = 0.0 + 0.0j
    for i in range(n):
        sub = SpectralConfig(u=spectral.u[:n - 1], xi=spectral.xi[:i] + spectral.xi[i + 1:])
        acc += coeff[i] * normalized_z_determinant(sub, bc, setup)
    return float(abs(z_n - acc) / abs(z_n))


def pole_matching_pair(order: int, spectral: SpectralConfig,
                       bc: BoundaryConfig, setup: ModularSetup):
    """The two meromorphic functions compared in the determinant proof.

    Returns (permsum_side, determinant_side) at size ``order``: the
    permutation sum and the log-space determinant of the first ``order``
    spectral parameters, from one table build, each times
    prod_a sigma(l1+z+u_a) sigma(l2+z+u_a) / (sigma(2 u_a) lam_xi_a), which
    strips the boundary row and column factors from the normalized value.
    """
    if not 1 <= order <= min(spectral.n, 8):
        raise SizeError(f"pole-matching pair limited to 1 <= I <= min(N, 8), got {order}")
    sub = SpectralConfig(u=spectral.u[:order], xi=spectral.xi[:order])
    g = sub.grids(setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    scale = complex(np.prod(lam_u / (lam_xi * g.s2u)))
    return (scale * _permsum(g, lam_u, lam_xi),
            scale * _exp_saturating(_log_z_det(g, lam_u, lam_xi)))


def _pair_with_last_u(order, spectral, u_last, bc, setup):
    """pole_matching_pair as a function of u_order, the others held fixed."""
    sub = SpectralConfig(u=spectral.u[:order - 1] + (u_last,), xi=spectral.xi[:order])
    return pole_matching_pair(order, sub, bc, setup)


def residue_estimate(func, center: complex, eps: float = 1e-5,
                     points: int = 4) -> complex:
    """Residue of a simple pole by a circular epsilon-ring average."""
    acc = 0.0 + 0.0j
    for k in range(points):
        z = eps * cmath.exp(2j * math.pi * k / points)
        acc += z * func(center + z)
    return acc / points


def pole_scan(order: int, spectral: SpectralConfig, bc: BoundaryConfig,
              setup: ModularSetup, eps: float = 1e-4,
              perturb_permsum_side: float = 1.0):
    """Classify candidate poles of (determinant side - permsum side).

    Checks the true candidate locations xi_i - eta and -xi_i, and the
    apparent points u_l and -u_l - eta (l < order) where the determinant
    side alone must stay bounded.  A point is regular when the ring-estimated
    residue is negligible against the on-ring magnitude scale eps*max|f|
    (scale-free: a simple pole gives |residue| ~ that scale, a regular
    function ~1e-12 of it).  ``perturb_permsum_side`` scales the
    permutation-sum side; a deliberate mismatch is the negative control.
    Returns a list of (location_label, location, is_regular).
    """
    def ring(z0):
        """Residues of (difference, determinant side) and max |f| on the
        eps-ring, from one pole_matching_pair call per ring point."""
        peak = []

        def sides(u_last):
            b_val, f_val = _pair_with_last_u(order, spectral, u_last, bc, setup)
            peak.append(abs(f_val))
            return np.array([f_val - perturb_permsum_side * b_val, f_val])

        res_d, res_f = residue_estimate(sides, z0, eps)
        return res_d, res_f, max(peak)

    def diff_regular(z0):
        # regular iff the sides' (equal, nonzero) residues cancel in the
        # difference far below their own size
        res_d, res_f, _ = ring(z0)
        return abs(res_d) <= 1e-6 * max(abs(res_f), 1e-300)

    def side_regular(z0):
        # regular iff the ring residue is negligible against eps * max|f|,
        # the size a genuine simple pole would give it
        _, res_f, peak = ring(z0)
        return abs(res_f) <= 1e-3 * max(eps * peak, 1e-300)

    out = []
    for i in range(order):
        z0 = spectral.xi[i] - setup.eta
        out.append((f"xi_{i + 1}-eta", z0, diff_regular(z0)))
        z1 = -spectral.xi[i]
        out.append((f"-xi_{i + 1}", z1, diff_regular(z1)))
    for l in range(order - 1):
        z2 = spectral.u[l]
        out.append((f"u_{l + 1}", z2, side_regular(z2)))
        z3 = -spectral.u[l] - setup.eta
        out.append((f"-u_{l + 1}-eta", z3, side_regular(z3)))
    return out


def f_quasi_period_residual(spectral: SpectralConfig, bc: BoundaryConfig,
                            setup: ModularSetup) -> float:
    """|f(u+1) - f(u)| / scale for f = determinant side - permsum side.

    The scale is the larger side's magnitude (f itself vanishes identically,
    so the residual is measured relative to the functions being compared).
    """
    order = spectral.n
    u0 = spectral.u[order - 1]
    b0, f0 = _pair_with_last_u(order, spectral, u0, bc, setup)
    b1, f1 = _pair_with_last_u(order, spectral, u0 + 1.0, bc, setup)
    scale = max(abs(b0), abs(f0), abs(b1), abs(f1), 1e-300)
    return float(abs((f1 - b1) - (f0 - b0)) / scale)
