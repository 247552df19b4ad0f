"""Non-diagonal K-matrix, intertwiner vectors, and domain-wall boundary states.

The vertex-face dictionary implemented here:

* ``vertex_K`` -- the three-parameter non-diagonal reflection matrix
  k0*1 + kx*sx + ky*sy + kz*sz,
* ``intertwiner`` -- column 2-vectors phi with entries theta^(k)(u + 2 m_j),
* ``dual_intertwiners`` -- the bar and tilde row duals, defined by
  biorthogonality and computed by exact 2x2 inversion, as the rows of two
  2x2 arrays (``_bar_duals`` and ``_tilde_duals`` build one family each),
* ``face_K`` -- the diagonal face-type reflection matrix,
* ``k_factorization_residual`` -- K(u) reassembled from intertwiners and
  face_K as a residual,
* ``boundary_states`` -- the four domain-wall boundary states, with the
  per-site shift sequences tracked in integer steps of eta * e_hat_1; each
  family of per-site vectors is one array build over the sites.

The intertwiner, dual and face-K builders take scalars or array arguments
(a stack, batch axes first); ``vertex_K_matrix`` always builds a stack, a
scalar ``u`` being a one-point stack; K and the duals combine their entries
with ``tensor.times`` and ``quotient``, as Python rounds.  The residuals take
scalars or equal-shape arrays of draws and return a float or an array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .elliptic import ModularSetup, sigma, sigma_char, theta_level2
from .errors import DomainError, SingularityError
from .rmatrices import (GENERICITY_FLOOR, WeightVector, _checked_sigma, _floor_checked,
                        _least_modulus, _swap_sites, sos_R_matrix, vertex_R_matrix)
from .tensor import DenseOperator, embed_matrix, max_abs, product_state, quotient, times

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# the one name of each refused boundary family, in every route
LAMBDA_ZETA_U = "sigma(lambda_i + zeta + u)"
LAMBDA12_ETA = "sigma(lambda12 + k eta)"


@dataclass(frozen=True)
class BoundaryConfig:
    """Boundary parameters (lambda1, lambda2, zeta) of the reflection matrix,
    and the one place that evaluates, checks and names their sigma families.

    A configuration's ``SpectralGrids`` keeps, per ``BoundaryConfig``, what
    these evaluate over its own points (``lambda_zeta`` and ``lattice``), so
    its draw, the oracles' check (``require_generic``) and K, the face
    route's K and the closed forms evaluate each family once; a lone vertex
    K, a single creation operator's ``face_K`` and the identity checks call
    these methods directly.
    """

    lambda1: complex
    lambda2: complex
    zeta: complex

    @property
    def lambda12(self) -> complex:
        return self.lambda1 - self.lambda2

    @property
    def weight(self) -> WeightVector:
        return WeightVector(self.lambda1, self.lambda2)

    def sigma_lambda_zeta(self, setup: ModularSetup, v, v2=None) -> np.ndarray:
        """[sigma(lambda1 + zeta + v), sigma(lambda2 + zeta + v2)] over the
        points ``v`` and ``v2`` (``v`` unless given), as an array of shape
        (2,) + shape(v), one ``sigma`` call per lambda_i; refused under
        LAMBDA_ZETA_U when a value is below the floor."""
        out = []
        for lam, p in ((self.lambda1, v), (self.lambda2, v if v2 is None else v2)):
            vals = sigma(lam + self.zeta + np.asarray(p, dtype=complex), setup)
            out.append(_floor_checked(vals, LAMBDA_ZETA_U))
        return np.array(out)

    def sigma_lattice(self, setup: ModularSetup, k) -> np.ndarray:
        """sigma(lambda12 + k eta) over the integers ``k``, one ``sigma`` call;
        refused under LAMBDA12_ETA when a value is below the floor."""
        return _floor_checked(sigma(self.lambda12 + np.asarray(k) * setup.eta, setup),
                              LAMBDA12_ETA)

    def require_generic(self, g):
        """Reject lambda12 within eta*Z of a sigma zero and spectral points
        that put a K or face-K denominator sigma(lambda_i + zeta + u) near zero,
        read through the configuration's ``oracle.SpectralGrids`` ``g``, which
        keeps both families for the routes that read them.

        The lattice sweep |k| <= 2N+2 covers every shifted weight the
        monodromy/creation chains can reach at size N; routes that never
        shift lambda (the normalized closed forms) check only the k they read.
        """
        n = g.u.shape[-1]
        g.lattice(self, np.arange(-(2 * n + 2), 2 * n + 3))
        g.lambda_zeta(self, "u")


def vertex_K(u: complex, bc: BoundaryConfig, setup: ModularSetup) -> DenseOperator:
    """Non-diagonal reflection matrix on one site."""
    return DenseOperator((1,), vertex_K_matrix(u, bc, setup))


def vertex_K_matrix(u, bc: BoundaryConfig, setup: ModularSetup, kept=None) -> np.ndarray:
    """K(u) as a stack of shape shape(u) + (2, 2), a 2x2 matrix for a scalar
    ``u``, from one theta call per family.  ``kept``, given, is (sigma(2u),
    sigma(lambda1 + zeta + u), sigma(lambda2 + zeta + u)) over the array
    ``u``, as a configuration keeps them (``oracle.SpectralGrids``), read
    in place of the two calls that would evaluate them on the same points.

    An element with |u| < 1e-12 gives the identity, the limit u -> 0 (k0 -> 1
    and kx, ky, kz -> 0, as sigma(2u)/2sigma(u) -> 1), and is left out of the
    evaluation and its floor checks.  The coefficients are combined by
    ``tensor.times`` and ``quotient`` (Python's complex rounding), so each
    matrix of a stack has the bits of its own one-point build wherever the
    array theta sums stop at the element's own step."""
    u = np.asarray(u, dtype=complex)
    out = np.broadcast_to(np.eye(2, dtype=complex), u.shape + (2, 2)).copy()
    live = ~(np.abs(u) < 1e-12)
    if live.any():
        # the kept rows cover every point of u, so they stand in only when all are live
        rows = None if kept is None or not live.all() else tuple(map(np.ravel, kept))
        out[live] = _k_from_paulis(u[live], bc, setup, rows)
    return out


# (alpha, extra factor, Pauli matrix) of k0, kx, ky, kz
_K_TERMS = (((0, 0), 1.0, np.eye(2)), ((1, 0), 1.0, _PAULI_X),
            ((1, 1), 1j, _PAULI_Y), ((0, 1), 1.0, _PAULI_Z))


def _k_from_paulis(u, bc: BoundaryConfig, setup: ModularSetup, kept=None) -> np.ndarray:
    """k0*1 + kx*sx + ky*sy + kz*sz over a 1-d array u (``kept`` as in
    ``vertex_K_matrix``), the coefficients combined by ``tensor.times`` and
    ``quotient`` (Python's complex rounding):

    k_alpha = extra * sigma(2u) s_alpha(l1+l2-1/2) s_alpha(l1+zeta)
    s_alpha(l2+zeta) / (s_alpha(u) * 2 sigma(-u+l1+l2-1/2) sigma(l1+zeta+u)
    sigma(l2+zeta+u)), s_alpha the sigma of characteristic alpha."""
    lam_sum = bc.lambda1 + bc.lambda2 - 0.5
    s2u = sigma(2 * u, setup) if kept is None else kept[0]
    d_lam = _checked_sigma(-u + lam_sum, setup, "sigma(-u+l1+l2-1/2)")
    d_1, d_2 = bc.sigma_lambda_zeta(setup, u) if kept is None else kept[1:]
    owns, consts = [], []
    for alpha, extra, _ in _K_TERMS:
        # the numerators s_alpha(l_i + zeta) are K's constants, sigma itself
        # at alpha = (0, 0), and vanish harmlessly: they are not floor-checked
        s = lambda z: sigma_char(alpha[0], alpha[1], z, setup)
        if alpha == (0, 0):
            owns.append(_checked_sigma(u, setup, "sigma(u)"))
        else:
            owns.append(s(u))
            if _least_modulus(owns[-1]) < GENERICITY_FLOOR:
                raise DomainError(f"sigma_{alpha}(u) below genericity floor")
        consts.append((extra, s(lam_sum), s(bc.lambda1 + bc.zeta), s(bc.lambda2 + bc.zeta)))
    extra, c_lam, c_1, c_2 = np.array(consts).T[:, :, None]
    k = quotient(reduce(times, (extra, s2u, c_lam, c_1, c_2)),
                 times(np.array(owns), reduce(times, (d_lam, d_1, d_2), 2.0)))
    terms = k[..., None, None] * np.array([pauli for _, _, pauli in _K_TERMS])[:, None]
    return terms[0] + terms[1] + terms[2] + terms[3]


def re_residual(u1, u2, bc: BoundaryConfig, setup: ModularSetup):
    """Normalized residual of the reflection equation on V (x) V."""
    k1 = embed_matrix(vertex_K_matrix(u1, bc, setup), (0,), 2)
    k2 = embed_matrix(vertex_K_matrix(u2, bc, setup), (1,), 2)
    r = lambda z: vertex_R_matrix(z, setup)
    lhs = r(u1 - u2) @ k1 @ _swap_sites(r(u1 + u2)) @ k2
    rhs = k2 @ r(u1 + u2) @ k1 @ _swap_sites(r(u1 - u2))
    return max_abs(lhs - rhs) / max_abs(rhs)


def intertwiner(m: WeightVector, j: int, u, setup: ModularSetup) -> np.ndarray:
    """Column vector phi_{m, m - eta e_hat_j}(u), entries theta^(k)(u + 2 m_j);
    over array arguments a stack of shape broadcast(u, m_j) + (2,)."""
    arg = u + 2 * m.component(j)
    return _last_axis(theta_level2(1, arg, setup), theta_level2(2, arg, setup))


def _last_axis(x, y) -> np.ndarray:
    """x and y, scalars or equal-shape arrays, stacked along a new last axis."""
    out = np.array([x, y])
    return out.T if out.ndim <= 2 else np.moveaxis(out, 0, -1)


def _column_matrix(m: WeightVector, u, setup: ModularSetup) -> np.ndarray:
    """2x2 matrix whose columns are phi_{m, m - eta e_hat_j}(u), j = 1, 2."""
    return _last_axis(intertwiner(m, 1, u, setup), intertwiner(m, 2, u, setup))


def _inverse_rows(mat: np.ndarray):
    """Inverse of a 2x2 matrix or of a stack of them, refused when any
    determinant is below the genericity floor.  Each determinant is formed by
    ``tensor.times``, so a stack has its per-matrix bits."""
    a, b, c, d = np.moveaxis(mat, (-2, -1), (0, 1)).reshape((4,) + mat.shape[:-2])
    dets = times(a, d) - times(b, c)
    least = float(np.abs(dets).min(initial=math.inf))
    if least < GENERICITY_FLOOR:
        raise SingularityError(f"intertwiner matrix near singular, |det| = {least:.2e}")
    adj = np.moveaxis(np.array([[d, -b], [-c, a]]), (0, 1), (-2, -1))
    return adj / dets[..., None, None]


def dual_intertwiners(m: WeightVector, u, setup: ModularSetup):
    """Bar and tilde dual rows at weight m and argument u, as (bar, tilde)
    2x2 arrays whose row j - 1 is the dual of index j (stacks over array
    arguments, rows on the second-to-last axis).

    Bar rows invert [phi_{m, m-eta e_j}(u)] (``_bar_duals``); tilde rows invert
    [phi_{m+eta e_j, m}(u)] (``_tilde_duals``).  Biorthogonality holds by
    construction.
    """
    return _bar_duals(m, u, setup), _tilde_duals(m, u, setup)


def _bar_duals(m: WeightVector, u, setup: ModularSetup) -> np.ndarray:
    """The bar rows of ``dual_intertwiners``, without the tilde rows."""
    return _inverse_rows(_column_matrix(m, u, setup))


def _tilde_duals(m: WeightVector, u, setup: ModularSetup) -> np.ndarray:
    """The tilde rows of ``dual_intertwiners``, without the bar rows."""
    return _inverse_rows(_last_axis(intertwiner(m.shifted(1, setup.eta, -1), 1, u, setup),
                                    intertwiner(m.shifted(2, setup.eta, -1), 2, u, setup)))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_s b_t over the last axis of each, batch axes broadcast."""
    return a[..., :, None] * b[..., None, :]


def face_vertex_residual(u1, u2, m: WeightVector, setup: ModularSetup):
    """Residual of the face-vertex correspondence over all in-pairs (i, j)."""
    rbar = vertex_R_matrix(u1 - u2, setup)
    r_sos = sos_R_matrix(u1 - u2, m, setup)
    kron = lambda a, b: _outer(a, b).reshape(a.shape[:-1] + (4,))
    # the 12 distinct intertwiners, phi(m, i; u_w) and phi(m - eta e_i, j; u_w)
    us = {1: u1, 2: u2}
    plain = {(i, w): intertwiner(m, i, us[w], setup) for i in (1, 2) for w in (1, 2)}
    shifted = {(i, j, w): intertwiner(m.shifted(i, setup.eta), j, us[w], setup)
               for i in (1, 2) for j in (1, 2) for w in (1, 2)}
    worst, scale = 0.0, 0.0
    for i in (1, 2):
        for j in (1, 2):
            lhs = (rbar @ kron(plain[i, 1], shifted[i, j, 2])[..., None])[..., 0]
            rhs = 0.0
            for k in (1, 2):
                for l in (1, 2):
                    coeff = r_sos[..., 2 * (k - 1) + (l - 1), 2 * (i - 1) + (j - 1)]
                    if not np.any(coeff):
                        continue
                    rhs = rhs + coeff[..., None] * kron(shifted[l, k, 1], plain[l, 2])
            worst = np.maximum(worst, max_abs(lhs - rhs, 1))
            scale = np.maximum(scale, max_abs(rhs, 1))
    return max_abs(worst / scale, 0)


def face_K(bc: BoundaryConfig, u, setup: ModularSetup) -> np.ndarray:
    """Diagonal face-type reflection matrix Diag(k_1, k_2), or a stack of
    them over an array ``u``: k_i = sigma(lambda_i + zeta - u) /
    sigma(lambda_i + zeta + u)."""
    u = np.asarray(u, dtype=complex)
    diag = bc.sigma_lambda_zeta(setup, -u) / bc.sigma_lambda_zeta(setup, u)
    return np.moveaxis(diag, 0, -1)[..., None] * np.eye(2)


def k_factorization_residual(u, bc: BoundaryConfig, setup: ModularSetup):
    """Residual between vertex_K(u) and its intertwiner factorization.

    K(u)^s_t = sum_i phi^(s)_{lam, lam - eta e_i}(u) k_i(lam|u)
               phi_bar^(t)_{lam, lam - eta e_i}(-u).
    """
    lam = bc.weight
    kf = face_K(bc, u, setup)
    bar = _bar_duals(lam, -u, setup)
    rebuilt = 0.0
    for i in (1, 2):
        rebuilt = rebuilt + kf[..., i - 1, i - 1, None, None] * _outer(
            intertwiner(lam, i, u, setup), bar[..., i - 1, :])
    kv = vertex_K_matrix(u, bc, setup)
    return max_abs(kv - rebuilt) / max_abs(kv)


# ---------------------------------------------------------------------------
# Domain-wall boundary states.  Weight arguments are lambda + t * eta * e_hat_1
# with the integer step t tracked per site; the sequences are those of the
# fully explicit partition-function expression (e_hat_2 = -e_hat_1 turns all
# shifts into steps of e_hat_1).
# ---------------------------------------------------------------------------

def _lam_shift(bc: BoundaryConfig, setup: ModularSetup, steps) -> WeightVector:
    return bc.weight.shifted(1, setup.eta, -steps)


def boundary_state_factors(bc: BoundaryConfig, xi, us, setup: ModularSetup):
    """Per-site 2-vectors of the four boundary states, each family one
    ``intertwiner`` or ``_tilde_duals`` build over the sites.

    Returns (omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket), each an
    (N, 2) array whose row i - 1 belongs to quantum site / bar line i: row
    vectors in the bra arrays, column vectors in the ket arrays.
    """
    xi = np.asarray(xi, dtype=complex)
    us = np.asarray(us, dtype=complex)
    n = len(xi)
    i = np.arange(1, n + 1)
    omega2_ket = intertwiner(_lam_shift(bc, setup, i - 1), 2, xi, setup)
    omega1_bra = _tilde_duals(_lam_shift(bc, setup, -i), xi, setup)[:, 0]
    omega1bar_ket = intertwiner(_lam_shift(bc, setup, 2 * i - n), 1, -us, setup)
    omega2bar_bra = _tilde_duals(_lam_shift(bc, setup, 2 * i - 1 - n), us, setup)[:, 1]
    return omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket


def boundary_states(bc: BoundaryConfig, spectral, setup: ModularSetup):
    """The four domain-wall boundary states as full 2^N tensors (the empty
    product [1] at N = 0).

    Returns (omega2_ket, omega1bar_ket, omega1_bra, omega2bar_bra).
    """
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = map(
        product_state, boundary_state_factors(bc, spectral.xi, spectral.u, setup))
    return omega2_ket, omega1bar_ket, omega1_bra, omega2bar_bra
