"""Closed-form evaluations of the partition function and their proof steps.

Every sigma table that does not depend on the boundary -- the four (u, xi)
grids (one separable GEMM each), the pair products' log, sigma(2u) and the
xi-ratio G -- is read from the configuration's ``SpectralGrids``, which the
genericity check of a drawn configuration has already filled and which
refuses a family below the genericity floor when it is evaluated.  The boundary vectors sigma(l1+z+u)
sigma(l2+z+u) and sigma(l1+z-xi) sigma(l2+z+xi) and the lambda product are
read from the configuration's kept ``BoundaryConfig`` families
(``SpectralGrids.lambda_zeta`` and ``lattice``); this module evaluates only
sigma(eta).

The kernels -- the boundary vectors, the A/B tables, the subset DP, the
log-space determinant and the pole pair's scale -- take the grids of one
configuration or of a stack of them (u of shape (..., N), see
``SpectralGrids``) and return one value per configuration; a lone
configuration runs the same code with no leading axis and keeps its bits.
``pole_scan`` evaluates every ring point of a scan as one stack.

* ``normalized_z_permsum`` -- the symmetric sum over S_N of per-permutation
  sigma-products, by a DP over the subsets of xi indices already placed
  (O(2^N N^2)),
* ``normalized_z_determinant`` -- the single-determinant representation
  (O(N^3), accumulated in log space so large N stays representable; a
  product's log is the sum of the real logs of its moduli plus i times the
  sum of its angles),
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
import math

import numpy as np

from .boundary import BoundaryConfig
from .elliptic import ModularSetup
from .errors import SingularityError, SizeError
from .oracle import SpectralConfig, SpectralGrids, _log_product, _require_size
from .rmatrices import GENERICITY_FLOOR, SIGMA_ETA, _checked_sigma

RING_POINTS = 4        # points of residue_estimate's circle
POLE_SCAN_EPS = 1e-4   # the circle's radius in pole_scan


# ---------------------------------------------------------------------------
# The boundary vectors and the tables built on them.
# ---------------------------------------------------------------------------

def _boundary_vectors(g: SpectralGrids, bc: BoundaryConfig):
    """(lam_u, lam_xi) = (sigma(l1+z+u) sigma(l2+z+u), sigma(l1+z-xi) sigma(l2+z+xi)),
    in the shapes of g.u and g.xi.

    Every consumer divides by the four (u, xi) grids and by lam_u, so all
    four grids are read (each is checked against the floor when evaluated);
    the four factors are the grids' kept ``lambda_zeta`` families, which a
    drawn configuration's draw has already evaluated and checked.
    Each factor is its own sigma call: the numpy series stops on the largest
    term of the whole array, so merging them would move their bits.
    """
    g.minus, g.plus, g.minus_eta, g.plus_eta  # read, so checked
    l1u, l2u = g.lambda_zeta(bc, "u")
    l1xi, l2xi = g.lambda_zeta(bc, "-xi", "xi")
    return l1u * l2u, l1xi * l2xi


def _permsum_ab(g: SpectralGrids, lam_u, lam_xi):
    """A, B of term(s) = prod_n A[n, s(n)] prod_{n<k} B[n, s(k)] G[s(n), s(k)],
    indexed [..., n, k]."""
    s_eta = _checked_sigma(g.setup.eta, g.setup, SIGMA_ETA)
    table_a = (lam_xi[..., None, :] * g.s2u[..., :, None] * s_eta
               / (lam_u[..., :, None] * g.minus_eta * g.plus))
    table_b = g.minus * g.plus_eta / (g.minus_eta * g.plus)
    return table_a, table_b


def _log_uxi_ratio(g: SpectralGrids) -> complex:
    """log prod_{a,k} sigma(u_a + xi_k) / sigma(u_a + xi_k + eta)."""
    return _log_product(g.plus, 2) - _log_product(g.plus_eta, 2)


# ---------------------------------------------------------------------------
# Permutation-sum route.
# ---------------------------------------------------------------------------

def _permsum(g: SpectralGrids, lam_u, lam_xi):
    """sum over s in S_N of prod_n A[n, s(n)] prod_{n<k} B[n, s(k)] G[s(n), s(k)],
    one per configuration of the stack.

    A permutation's factors for its position m depend only on s(m) and the
    set S of indices at positions 0..m-1, so the sum is a DP over subsets:
    f({}) = 1, f(S + {j}) += f(S) A[|S|, j] prod_{l<|S|} B[l, j]
    prod_{i in S} G[i, j], and the sum is f(all).  O(2^N N^2) per
    configuration, the stack's leading axes carried along.
    """
    n = g.u.shape[-1]
    step, table_b = _permsum_ab(g, lam_u, lam_xi)
    step[..., 1:, :] *= np.cumprod(table_b[..., :-1, :], axis=-2)  # A[m, j] prod_{l<m} B[l, j]
    # g_in[S, j] = prod_{i in S} G[i, j], each S from S without its top bit
    g_in = np.ones(g.xi_ratio.shape[:-2] + (1 << n, n), dtype=complex)
    for i in range(n):
        g_in[..., 1 << i:2 << i, :] = g_in[..., :1 << i, :] * g.xi_ratio[..., i, None, :]
    cols = np.arange(n)
    masks = np.arange(1 << n)
    member = (masks[:, None] >> cols) & 1 == 1
    size = member.sum(axis=1)
    f = np.zeros(step.shape[:-2] + (1 << n,), dtype=complex)
    f[..., 0] = 1.0
    for m in range(1, n + 1):
        sets = masks[size == m]
        parents = sets[:, None] ^ (1 << cols)  # S = T - {j} where j is in T
        terms = f[..., parents] * g_in[..., parents, cols] * step[..., m - 1, None, :]
        f[..., sets] = np.where(member[sets], terms, 0.0).sum(axis=-1)
    return f[..., -1][()]  # a scalar, not a 0-d array, for one configuration


def normalized_z_permsum(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Symmetric permutation-sum form of the normalized partition function."""
    _require_size("permsum", spectral.n)
    if spectral.n == 0:
        return 1.0 + 0.0j
    g = spectral.grids(setup)
    return complex(_permsum(g, *_boundary_vectors(g, bc)))


# ---------------------------------------------------------------------------
# Determinant route (log-space).
# ---------------------------------------------------------------------------

def _log_det(matrix):
    """log det over the trailing two axes: log|det| + i angle(sign) from one
    ``np.linalg.slogdet`` (a partial-pivoted LU) over the stack, so the
    imaginary part lies in (-pi, pi]; an exactly singular matrix is refused."""
    sign, log_abs = np.linalg.slogdet(matrix)
    if np.any(sign == 0):
        raise SingularityError("singular matrix in normalized_z_determinant")
    return log_abs + 1j * np.angle(sign)


def _log_z_det(g: SpectralGrids, lam_u, lam_xi):
    """log of the normalized value, one per configuration of the stack, with
    log(det) from ``_log_det``'s one slogdet over the stack of matrices.  The
    pair products' kept log sum is read first: a pair family below the floor
    (xi_a = -xi_b makes two columns equal) is refused by name before the LU
    sees an exactly singular matrix.  The numerator's logs are taken first,
    then the matrix is built in one buffer, in the order of its formula."""
    log_pairs = g.log_pairs
    row = g.s2u / lam_u
    s_eta = _checked_sigma(g.setup.eta, g.setup, SIGMA_ETA)
    log_num = _log_product(g.minus, 2) + _log_product(g.plus_eta, 2)
    matrix = np.multiply(g.minus, g.plus_eta)
    np.multiply(matrix, g.minus_eta, out=matrix)
    np.multiply(matrix, g.plus, out=matrix)
    np.divide(s_eta, matrix, out=matrix)
    np.multiply(row[..., :, None], matrix, out=matrix)
    np.multiply(matrix, lam_xi[..., None, :], out=matrix)
    return log_num + _log_det(matrix) - log_pairs


def _log_normalized_z_determinant(spectral, bc, setup,
                                  floor: float = GENERICITY_FLOOR) -> complex:
    """log of the normalized value, refused above the determinant's guard.
    ``floor`` is accepted only as GENERICITY_FLOOR, for callers that still
    pass it."""
    if floor != GENERICITY_FLOOR:
        raise ValueError(f"the genericity floor is fixed at {GENERICITY_FLOOR:.0e}, "
                         f"got {floor!r}")
    _require_size("determinant", spectral.n)
    if spectral.n == 0:
        return 0.0 + 0.0j
    g = spectral.grids(setup)
    return complex(_log_z_det(g, *_boundary_vectors(g, bc)))


def _exp_saturating(log_value):
    """exp of a complex log, saturating to 0 or a phased inf out of range;
    over an array of logs, entry by entry, so an entry keeps its lone bits."""
    if np.ndim(log_value):
        return np.array([_exp_saturating(v) for v in log_value.ravel().tolist()],
                        dtype=complex).reshape(log_value.shape)
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
    return _exp_saturating(_log_normalized_z_determinant(spectral, bc, setup))


# ---------------------------------------------------------------------------
# Prefactor and full partition function.
# ---------------------------------------------------------------------------

def _log_lambda_factor(g: SpectralGrids, bc: BoundaryConfig) -> complex:
    """Telescoped creation-operator scalars: the closed-form lambda product,
    its two lattice calls kept by the grids.

    prod_{n'=1..N} sigma(l12 + (2n'-N) eta) / prod_{j=0..N-1} sigma(l12 - j eta):
    the n'-th creation operator in the chain contributes its scalar
    sigma(m12)/sigma(l12) and the sector weight sigma(l12)/sigma(l12-k eta)
    of the sector it acts on.  It holds at odd N as at even N: the tests
    check it against the face route at N = 1..7.
    """
    n = g.u.shape[-1]
    k = np.arange(1, n + 1)
    return _log_product(g.lattice(bc, 2 * k - n)) - _log_product(g.lattice(bc, 1 - k))


def partition_prefactor(bc: BoundaryConfig, spectral: SpectralConfig,
                        setup: ModularSetup) -> complex:
    """lambda product times the (u, xi) ratio product; 1 at N = 0."""
    g = spectral.grids(setup)
    _boundary_vectors(g, bc)  # refuses what every closed form refuses
    return cmath.exp(_log_lambda_factor(g, bc) + _log_uxi_ratio(g))


def full_z(spectral: SpectralConfig, bc: BoundaryConfig, setup: ModularSetup,
           route: str = "determinant") -> complex:
    """Full partition function: prefactor x normalized value, one table build."""
    if route not in ("permsum", "determinant"):
        raise ValueError(f"unknown closed-form route: {route!r}")
    _require_size(route, spectral.n)
    if spectral.n == 0:
        return 1.0 + 0.0j
    g = spectral.grids(setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    if route == "permsum":
        log_norm = cmath.log(_permsum(g, lam_u, lam_xi))
    else:
        log_norm = _log_z_det(g, lam_u, lam_xi)
    return _exp_saturating(_log_lambda_factor(g, bc) + _log_uxi_ratio(g) + log_norm)


# ---------------------------------------------------------------------------
# Proof-step machinery: recursion, pole-matching pair, residues, pole scan.
# ---------------------------------------------------------------------------

def recursion_residual(spectral: SpectralConfig, bc: BoundaryConfig,
                       setup: ModularSetup) -> float:
    """Relative residual of the N -> N-1 recursion (determinant route).

    Z_N = sum_i A[N-1, i] prod_{l<N-1} B[l, i] prod_{j!=i} G[j, i]
    Z_{N-1}(u without u_N, xi without xi_i), all N from one stacked LU,
    summed as |1 - sum_i exp(log term_i - log Z_N)| so that no Z or
    coefficient leaves the double range.
    """
    n = spectral.n
    if n < 1:
        raise SizeError("recursion needs N >= 1")
    _require_size("determinant", n)
    g = spectral.grids(setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    log_z_n = _log_z_det(g, lam_u, lam_xi)
    table_a, table_b = _permsum_ab(g, lam_u, lam_xi)
    # column i: A[N-1, i], then B[l, i] for l < N-1, then G[j, i]
    log_coeff = _log_product(np.concatenate([table_a[n - 1:], table_b[:n - 1],
                                             g.xi_ratio]).T)
    # the N sub-configurations as one stack: u shared, row i the xi without xi_i
    xi = np.broadcast_to(g.xi, (n, n))[~np.eye(n, dtype=bool)].reshape(n, n - 1)
    sub = SpectralGrids(g.u[:n - 1], xi, setup)
    log_z_sub = _log_z_det(sub, *_boundary_vectors(sub, bc))
    return float(abs(1.0 - np.sum(np.exp(log_coeff + log_z_sub - log_z_n))))


def pole_matching_pair(order: int, spectral: SpectralConfig,
                       bc: BoundaryConfig, setup: ModularSetup):
    """The two meromorphic functions compared in the determinant proof.

    Returns (permsum_side, determinant_side) at size ``order``: the
    permutation sum and the log-space determinant of the first ``order``
    spectral parameters, from one table build, each times
    prod_a sigma(l1+z+u_a) sigma(l2+z+u_a) / (sigma(2 u_a) lam_xi_a), which
    strips the boundary row and column factors from the normalized value.
    """
    b_val, f_val = _pair_with_last_u(order, spectral, spectral.u[order - 1], bc, setup)
    return complex(b_val), complex(f_val)


def _require_pair_order(order: int, n: int):
    if not 1 <= order <= min(n, 8):
        raise SizeError(f"pole-matching pair limited to 1 <= I <= min(N, 8), got {order}")


def _pair_with_last_u(order, spectral, u_last, bc, setup):
    """pole_matching_pair as a function of u_order, the others held fixed,
    over an array ``u_last``: both sides have its shape, from one stacked
    ``SpectralGrids`` (u of shape shape(u_last) + (order,), xi shared)."""
    _require_pair_order(order, spectral.n)
    u_last = np.asarray(u_last, dtype=complex)
    fixed = np.broadcast_to(np.asarray(spectral.u[:order - 1], dtype=complex),
                            u_last.shape + (order - 1,))
    g = SpectralGrids(np.concatenate([fixed, u_last[..., None]], axis=-1),
                      spectral.xi[:order], setup)
    lam_u, lam_xi = _boundary_vectors(g, bc)
    scale = np.prod(lam_u / (lam_xi * g.s2u), axis=-1)
    return (scale * _permsum(g, lam_u, lam_xi),
            scale * _exp_saturating(_log_z_det(g, lam_u, lam_xi)))


def _ring(eps: float):
    """The RING_POINTS offsets of residue_estimate's circle of radius ``eps``."""
    return [eps * cmath.exp(2j * math.pi * k / RING_POINTS) for k in range(RING_POINTS)]


def _ring_mean(offsets, values):
    """sum_k offsets[k] values[k] / RING_POINTS, summed in ring order."""
    acc = 0.0 + 0.0j
    for z, v in zip(offsets, values):
        acc = acc + z * v
    return acc / RING_POINTS


def residue_estimate(func, center: complex, eps: float = 1e-5) -> complex:
    """Residue of a simple pole by an average over RING_POINTS points of the
    circle of radius ``eps``."""
    ring = _ring(eps)
    return _ring_mean(ring, [func(center + z) for z in ring])


def pole_scan(order: int, spectral: SpectralConfig, bc: BoundaryConfig, setup: ModularSetup):
    """Classify candidate poles of (determinant side - permsum side).

    Checks the true candidate locations xi_i - eta and -xi_i, and the
    apparent points u_l and -u_l - eta (l < order) where the determinant
    side alone must stay bounded.  A point is regular when the ring-estimated
    residue is negligible against the on-ring magnitude scale eps*max|f|,
    eps = POLE_SCAN_EPS (scale-free: a simple pole gives |residue| ~ that
    scale, a regular function ~1e-12 of it).  All (4 order - 2) x RING_POINTS
    ring points are evaluated as one stack.  Returns a list of
    (location_label, location, is_regular).
    """
    labels, centers = [], []
    for i in range(order):
        labels += [f"xi_{i + 1}-eta", f"-xi_{i + 1}"]
        centers += [spectral.xi[i] - setup.eta, -spectral.xi[i]]
    for l in range(order - 1):
        labels += [f"u_{l + 1}", f"-u_{l + 1}-eta"]
        centers += [spectral.u[l], -spectral.u[l] - setup.eta]
    ring = _ring(POLE_SCAN_EPS)
    # [k, c]: ring point k around centre c
    b_val, f_val = _pair_with_last_u(order, spectral, np.add.outer(ring, centers), bc, setup)
    res_d = np.abs(_ring_mean(ring, f_val - b_val))
    res_f = np.abs(_ring_mean(ring, f_val))
    # xi points: regular iff the sides' (equal, nonzero) residues cancel in
    # the difference far below their own size; u points: iff the ring
    # residue is negligible against eps * max|f|, the size a genuine simple
    # pole would give it
    diff_regular = res_d <= 1e-6 * np.maximum(res_f, 1e-300)
    side_regular = res_f <= 1e-3 * np.maximum(POLE_SCAN_EPS * np.abs(f_val).max(axis=0),
                                             1e-300)
    regular = np.where(np.arange(len(centers)) < 2 * order, diff_regular, side_regular)
    return [(label, z0, bool(reg)) for label, z0, reg in zip(labels, centers, regular)]


def f_quasi_period_residual(spectral: SpectralConfig, bc: BoundaryConfig,
                            setup: ModularSetup) -> float:
    """|f(u+1) - f(u)| / scale for f = determinant side - permsum side.

    The scale is the larger side's magnitude (f itself vanishes identically,
    so the residual is measured relative to the functions being compared).
    u and u + 1 are evaluated as one two-point stack.
    """
    order = spectral.n
    u0 = spectral.u[order - 1]
    b, f = _pair_with_last_u(order, spectral, [u0, u0 + 1.0], bc, setup)
    scale = max(np.abs(b).max(), np.abs(f).max(), 1e-300)
    return float(abs((f[1] - b[1]) - (f[0] - b[0])) / scale)
