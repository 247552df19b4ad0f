"""Closed-form evaluations of the partition function and their proof steps.

Every consumer reads its sigma values from one builder, ``_sigma_tables``,
on top of the configuration's ``SpectralGrids`` (the (u, xi) grids the
genericity check has already evaluated for a drawn configuration); the
xi-difference ratio G is evaluated only by the consumers that need it.

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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .boundary import BoundaryConfig
from .elliptic import ModularSetup, sigma
from .errors import ConditioningWarning, SingularityError, SizeError
from .oracle import SpectralConfig, SpectralGrids
from .rmatrices import GENERICITY_FLOOR

MAX_PERMSUM_N = 9
MAX_DETERMINANT_N = 512
PERMSUM_CHUNK = 40320
_SIZE_GUARDS = {"permsum": MAX_PERMSUM_N, "determinant": MAX_DETERMINANT_N}


def _require_size(route: str, n: int):
    if n > _SIZE_GUARDS[route]:
        raise SizeError(f"{route} route limited to N <= {_SIZE_GUARDS[route]}, got {n}")


@dataclass(frozen=True)
class NormalizedZ:
    """Normalized partition value with its provenance route."""

    value: complex
    n: int
    route: str


def _require_floor(vals, floor, what):
    if float(np.min(np.abs(vals))) < floor:
        raise SingularityError(f"|{what}| below genericity floor")
    return vals


def _sigma_grid(z, setup, floor, what):
    return _require_floor(sigma(np.asarray(z, dtype=complex), setup), floor, what)


def _log_product(values) -> complex:
    """Sum of complex logs; the real part may exceed the double exp range."""
    v = np.asarray(values, dtype=complex).ravel()
    return complex(np.sum(np.log(v)))


# ---------------------------------------------------------------------------
# The shared sigma tables.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SigmaTables:
    """Sigma grids read by every closed-form consumer.

    Vectors are indexed by u_a (``s2u``, ``lam_u``) or xi_k (``lam_xi``), the
    (u, xi) grids, read from ``grids``, by [a, k].  Each table is its own
    sigma call: the numpy series stops on the largest term of the whole
    array, so merging tables would move their bits.
    """

    grids: SpectralGrids
    floor: float
    s_eta: complex
    s2u: np.ndarray        # sigma(2 u)
    lam_u: np.ndarray      # sigma(l1 + z + u) sigma(l2 + z + u)
    lam_xi: np.ndarray     # sigma(l1 + z - xi) sigma(l2 + z + xi)
    minus: np.ndarray      # sigma(u - xi)
    plus: np.ndarray       # sigma(u + xi)
    minus_eta: np.ndarray  # sigma(u - xi + eta)
    plus_eta: np.ndarray   # sigma(u + xi + eta)

    def permsum_ab(self):
        """A, B of term(s) = prod_n A[n, s(n)] prod_{n<k} B[n, s(k)] G[s(n), s(k)]."""
        table_a = (self.lam_xi[None, :] * self.s2u[:, None] * self.s_eta
                   / (self.lam_u[:, None] * self.minus_eta * self.plus))
        table_b = self.minus * self.plus_eta / (self.minus_eta * self.plus)
        return table_a, table_b

    def xi_ratio(self):
        """G[j, k] = sigma(xi_j - xi_k + eta) / sigma(xi_j - xi_k), diagonal 1."""
        xi, setup = self.grids.xi, self.grids.setup
        n = len(xi)
        off = ~np.eye(n, dtype=bool)
        xd = xi[:, None] - xi[None, :]
        np.fill_diagonal(xd, 1.0)  # placeholder, overwritten below
        g_den = sigma(xd, setup)
        if n > 1 and float(np.min(np.abs(g_den[off]))) < self.floor:
            raise SingularityError("|sigma(xi_i - xi_j)| below genericity floor")
        return np.where(off, sigma(xd + setup.eta, setup) / g_den, 1.0)

    def log_pair_products(self) -> complex:
        """log prod_{a<b} s(u_b-u_a) s(u_a+u_b+eta) s(xi_a-xi_b) s(xi_a+xi_b)."""
        g = self.grids
        if len(g.u) < 2:
            return 0.0 + 0.0j
        grid = lambda vals, what: _log_product(_require_floor(vals, self.floor, what))
        return (grid(g.u_diff, "sigma(ua-ub)")
                + grid(g.u_sum_eta, "sigma(ua+ub+eta)")
                + grid(g.xi_diff, "sigma(xk-xl)")
                + grid(g.xi_sum, "sigma(xk+xl)"))

    def log_uxi_ratio(self) -> complex:
        """log prod_{a,k} sigma(u_a + xi_k) / sigma(u_a + xi_k + eta)."""
        return _log_product(self.plus) - _log_product(self.plus_eta)


def _sigma_tables(grids: SpectralGrids, bc: BoundaryConfig,
                  floor: float) -> _SigmaTables:
    """The boundary vectors evaluated once, the (u, xi) grids read from
    ``grids``; every table that some consumer divides by is checked against
    the genericity floor."""
    u, xi, setup = grids.u, grids.xi, grids.setup
    eta = setup.eta
    return _SigmaTables(
        grids=grids, floor=floor,
        minus=_require_floor(grids.minus, floor, "sigma(u-xi)"),
        plus_eta=_require_floor(grids.plus_eta, floor, "sigma(u+xi+eta)"),
        minus_eta=_require_floor(grids.minus_eta, floor, "sigma(u-xi+eta)"),
        plus=_require_floor(grids.plus, floor, "sigma(u+xi)"),
        s2u=sigma(2 * u, setup),
        lam_u=(_sigma_grid(bc.lambda1 + bc.zeta + u, setup, floor, "sigma(l1+z+u)")
               * _sigma_grid(bc.lambda2 + bc.zeta + u, setup, floor, "sigma(l2+z+u)")),
        lam_xi=(sigma(bc.lambda1 + bc.zeta - xi, setup)
                * sigma(bc.lambda2 + bc.zeta + xi, setup)),
        s_eta=sigma(eta, setup))


# ---------------------------------------------------------------------------
# Permutation-sum route.
# ---------------------------------------------------------------------------

def _permsum(tables: _SigmaTables) -> complex:
    n = len(tables.grids.u)
    table_a, table_b = tables.permsum_ab()
    table_g = tables.xi_ratio()
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
                         setup: ModularSetup,
                         floor: float = GENERICITY_FLOOR) -> complex:
    """Symmetric permutation-sum form of the normalized partition function."""
    _require_size("permsum", spectral.n)
    if spectral.n == 0:
        return 1.0 + 0.0j
    return _permsum(_sigma_tables(spectral.grids(setup), bc, floor))


# ---------------------------------------------------------------------------
# Determinant route (log-space).
# ---------------------------------------------------------------------------

def _log_z_det(tables: _SigmaTables) -> complex:
    """log of the normalized value from the single determinant.

    log(det) comes from a partial-pivoted LU, with a pivot-ratio digit-loss
    warning.
    """
    t = tables
    row = t.s2u / t.lam_u
    kernel = t.s_eta / (t.minus * t.plus_eta * t.minus_eta * t.plus)
    matrix = row[:, None] * kernel * t.lam_xi[None, :]
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
    log_num = _log_product(t.minus) + _log_product(t.plus_eta)
    return log_num + log_det - t.log_pair_products()


def _log_normalized_z_determinant(spectral, bc, setup, floor) -> complex:
    if spectral.n == 0:
        return 0.0 + 0.0j
    return _log_z_det(_sigma_tables(spectral.grids(setup), bc, floor))


def _exp_saturating(log_value: complex) -> complex:
    """exp of a complex log, saturating to 0 or a phased inf out of range."""
    if log_value.real > 705.0:
        return cmath.rect(math.inf, log_value.imag)
    if log_value.real < -745.0:
        return 0.0 + 0.0j
    return cmath.exp(log_value)


def normalized_z_determinant(spectral: SpectralConfig, bc: BoundaryConfig,
                             setup: ModularSetup,
                             floor: float = GENERICITY_FLOOR) -> complex:
    """Single-determinant form of the normalized partition function.

    Values beyond double range saturate to 0 or inf; bench mode reports the
    log-space digest instead.
    """
    _require_size("determinant", spectral.n)
    return _exp_saturating(_log_normalized_z_determinant(spectral, bc, setup, floor))


# ---------------------------------------------------------------------------
# Prefactor and full partition function.
# ---------------------------------------------------------------------------

def _log_lambda_factor(n: int, bc: BoundaryConfig, setup: ModularSetup,
                       floor: float) -> complex:
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
        if min(abs(den), abs(num)) < floor:
            raise SingularityError("lambda12 within eta*Z of a sigma zero")
        out += cmath.log(num) - cmath.log(den)
    return out


def partition_prefactor(bc: BoundaryConfig, spectral: SpectralConfig,
                        setup: ModularSetup,
                        floor: float = GENERICITY_FLOOR) -> complex:
    """lambda product times the (u, xi) ratio product."""
    tables = _sigma_tables(spectral.grids(setup), bc, floor)
    return cmath.exp(_log_lambda_factor(spectral.n, bc, setup, floor)
                     + tables.log_uxi_ratio())


def full_z(spectral: SpectralConfig, bc: BoundaryConfig, setup: ModularSetup,
           route: str = "determinant", floor: float = GENERICITY_FLOOR) -> complex:
    """Full partition function: prefactor x normalized value, one table build."""
    n = spectral.n
    if n == 0:
        return 1.0 + 0.0j
    if route not in _SIZE_GUARDS:
        raise ValueError(f"unknown closed-form route: {route!r}")
    _require_size(route, n)
    tables = _sigma_tables(spectral.grids(setup), bc, floor)
    if route == "permsum":
        log_norm = cmath.log(_permsum(tables))
    else:
        log_norm = _log_z_det(tables)
    return _exp_saturating(_log_lambda_factor(n, bc, setup, floor)
                           + tables.log_uxi_ratio() + log_norm)


# ---------------------------------------------------------------------------
# Proof-step machinery: recursion, pole-matching pair, residues, pole scan.
# ---------------------------------------------------------------------------

def recursion_residual(spectral: SpectralConfig, bc: BoundaryConfig,
                       setup: ModularSetup,
                       floor: float = GENERICITY_FLOOR) -> float:
    """Relative residual of the N -> N-1 recursion (determinant route).

    Z_N = sum_i A[N-1, i] prod_{l<N-1} B[l, i] prod_{j!=i} G[j, i]
    Z_{N-1}(u without u_N, xi without xi_i).
    """
    n = spectral.n
    if n < 1:
        raise SizeError("recursion needs N >= 1")
    _require_size("determinant", n)
    tables = _sigma_tables(spectral.grids(setup), bc, floor)
    z_n = _exp_saturating(_log_z_det(tables))
    table_a, table_b = tables.permsum_ab()
    coeff = table_a[n - 1] * table_b[:n - 1].prod(axis=0) * tables.xi_ratio().prod(axis=0)
    acc = 0.0 + 0.0j
    for i in range(n):
        sub = SpectralConfig(u=spectral.u[:n - 1], xi=spectral.xi[:i] + spectral.xi[i + 1:])
        acc += coeff[i] * normalized_z_determinant(sub, bc, setup, floor)
    return float(abs(z_n - acc) / abs(z_n))


def pole_matching_pair(order: int, spectral: SpectralConfig,
                       bc: BoundaryConfig, setup: ModularSetup,
                       floor: float = GENERICITY_FLOOR):
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
    tables = _sigma_tables(sub.grids(setup), bc, floor)
    scale = complex(np.prod(tables.lam_u / (tables.lam_xi * tables.s2u)))
    return (scale * _permsum(tables),
            scale * _exp_saturating(_log_z_det(tables)))


def _pair_with_last_u(order, spectral, u_last, bc, setup, floor):
    """pole_matching_pair as a function of u_order, the others held fixed."""
    sub = SpectralConfig(u=spectral.u[:order - 1] + (u_last,), xi=spectral.xi[:order])
    return pole_matching_pair(order, sub, bc, setup, floor)


def residue_estimate(func, center: complex, eps: float = 1e-5,
                     points: int = 4) -> complex:
    """Residue of a simple pole by a circular epsilon-ring average."""
    acc = 0.0 + 0.0j
    for k in range(points):
        z = eps * cmath.exp(2j * math.pi * k / points)
        acc += z * func(center + z)
    return acc / points


def pole_scan(order: int, spectral: SpectralConfig, bc: BoundaryConfig,
              setup: ModularSetup, floor: float = GENERICITY_FLOOR,
              eps: float = 1e-4, perturb_permsum_side: float = 1.0):
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
            b_val, f_val = _pair_with_last_u(order, spectral, u_last, bc, setup, floor)
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
                            setup: ModularSetup,
                            floor: float = GENERICITY_FLOOR) -> float:
    """|f(u+1) - f(u)| / scale for f = determinant side - permsum side.

    The scale is the larger side's magnitude (f itself vanishes identically,
    so the residual is measured relative to the functions being compared).
    """
    order = spectral.n
    u0 = spectral.u[order - 1]
    b0, f0 = _pair_with_last_u(order, spectral, u0, bc, setup, floor)
    b1, f1 = _pair_with_last_u(order, spectral, u0 + 1.0, bc, setup, floor)
    scale = max(abs(b0), abs(f0), abs(b1), abs(f1), 1e-300)
    return float(abs((f1 - b1) - (f0 - b0)) / scale)
