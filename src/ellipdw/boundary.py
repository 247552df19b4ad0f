"""Non-diagonal K-matrix, intertwiner vectors, and domain-wall boundary states.

The vertex-face dictionary implemented here:

* ``vertex_K`` -- the three-parameter non-diagonal reflection matrix
  k0*1 + kx*sx + ky*sy + kz*sz,
* ``intertwiner`` -- column 2-vectors phi with entries theta^(k)(u + 2 m_j),
* ``dual_intertwiners`` -- the bar and tilde row duals, defined by
  biorthogonality and computed by exact 2x2 inversion, as the rows of two
  2x2 arrays,
* ``face_K`` -- the diagonal face-type reflection matrix,
* ``k_factorization_residual`` -- K(u) reassembled from intertwiners and
  face_K as a residual,
* ``boundary_states`` -- the four domain-wall boundary states, with the
  per-site shift sequences tracked in integer steps of eta * e_hat_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import ModularSetup, sigma, sigma_char, theta_level2
from .errors import DomainError, SingularityError
from .rmatrices import (GENERICITY_FLOOR, WeightVector, _checked_sigma,
                        _floor_checked, sos_R_matrix, vertex_R_matrix)
from .tensor import DenseOperator, product_state

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class BoundaryConfig:
    """Boundary parameters (lambda1, lambda2, zeta) of the reflection matrix."""

    lambda1: complex
    lambda2: complex
    zeta: complex

    @property
    def lambda12(self) -> complex:
        return self.lambda1 - self.lambda2

    @property
    def weight(self) -> WeightVector:
        return WeightVector(self.lambda1, self.lambda2)

    def require_spectral_compatible(self, setup: ModularSetup, spectral_u=()):
        """Reject spectral points that put a face-K denominator near zero."""
        u = np.asarray(spectral_u, dtype=complex)
        for lam in (self.lambda1, self.lambda2):
            _floor_checked(sigma(lam + self.zeta + u, setup),
                           "sigma(lambda_i + zeta + u)")

    def require_generic(self, setup: ModularSetup, n: int, spectral_u=()):
        """Reject lambda12 within eta*Z of a sigma zero and singular k-ratios.

        The lattice sweep |k| <= 2N+2 covers every shifted weight the
        monodromy/creation chains can reach at size N; routes that never
        shift lambda (the normalized closed forms) use only
        require_spectral_compatible.
        """
        for k in range(-(2 * n + 2), 2 * n + 3):
            _checked_sigma(self.lambda12 + k * setup.eta, setup,
                           f"sigma(lambda12 + {k} eta)")
        self.require_spectral_compatible(setup, spectral_u)


def vertex_K(u: complex, bc: BoundaryConfig, setup: ModularSetup) -> DenseOperator:
    """Non-diagonal reflection matrix on one site."""
    return DenseOperator((1,), vertex_K_matrix(u, bc, setup))


def vertex_K_matrix(u: complex, bc: BoundaryConfig, setup: ModularSetup) -> np.ndarray:
    if abs(complex(u)) < 1e-12:
        # k0 -> 1 and kx, ky, kz -> 0 as u -> 0 (sigma(2u)/2sigma(u) -> 1).
        return np.eye(2, dtype=complex)
    lam_sum = bc.lambda1 + bc.lambda2 - 0.5
    s2u = sigma(2 * u, setup)
    denom_shared = (2.0
                    * _checked_sigma(-u + lam_sum, setup, "sigma(-u+l1+l2-1/2)")
                    * _checked_sigma(bc.lambda1 + bc.zeta + u, setup, "sigma(l1+zeta+u)")
                    * _checked_sigma(bc.lambda2 + bc.zeta + u, setup, "sigma(l2+zeta+u)"))

    def coeff(alpha, extra):
        if alpha == (0, 0):
            s = lambda z: sigma(z, setup)
            s_own = _checked_sigma(u, setup, "sigma(u)")
        else:
            s = lambda z: sigma_char(alpha[0], alpha[1], z, setup)
            s_own = s(u)
            if abs(s_own) < GENERICITY_FLOOR:
                raise DomainError(f"sigma_{alpha}(u) below genericity floor")
        return extra * s2u * s(lam_sum) * s(bc.lambda1 + bc.zeta) \
            * s(bc.lambda2 + bc.zeta) / (s_own * denom_shared)

    k0 = coeff((0, 0), 1.0)
    kx = coeff((1, 0), 1.0)
    ky = coeff((1, 1), 1j)
    kz = coeff((0, 1), 1.0)
    return k0 * np.eye(2) + kx * _PAULI_X + ky * _PAULI_Y + kz * _PAULI_Z


def re_residual(u1: complex, u2: complex, bc: BoundaryConfig,
                setup: ModularSetup) -> float:
    """Normalized residual of the reflection equation on V (x) V."""
    k1 = vertex_K(u1, bc, setup).on_sites((1, 2)).mat
    k2 = vertex_K_matrix(u2, bc, setup)
    k2 = DenseOperator((2,), k2).on_sites((1, 2)).mat
    r = lambda z: vertex_R_matrix(z, setup)
    swap = lambda m: m[np.ix_([0, 2, 1, 3], [0, 2, 1, 3])]
    lhs = r(u1 - u2) @ k1 @ swap(r(u1 + u2)) @ k2
    rhs = k2 @ r(u1 + u2) @ k1 @ swap(r(u1 - u2))
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def intertwiner(m: WeightVector, j: int, u: complex, setup: ModularSetup) -> np.ndarray:
    """Column vector phi_{m, m - eta e_hat_j}(u), entries theta^(k)(u + 2 m_j)."""
    arg = u + 2 * m.component(j)
    return np.array([theta_level2(1, arg, setup), theta_level2(2, arg, setup)])


def _column_matrix(m: WeightVector, u: complex, setup: ModularSetup) -> np.ndarray:
    """2x2 matrix whose columns are phi_{m, m - eta e_hat_j}(u), j = 1, 2."""
    return np.column_stack([intertwiner(m, 1, u, setup), intertwiner(m, 2, u, setup)])


def _inverse_rows(mat: np.ndarray):
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if abs(det) < GENERICITY_FLOOR:
        raise SingularityError(f"intertwiner matrix near singular, |det| = {abs(det):.2e}")
    inv = np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]]) / det
    return inv


def dual_intertwiners(m: WeightVector, u: complex, setup: ModularSetup):
    """Bar and tilde dual rows at weight m and argument u, as (bar, tilde)
    2x2 arrays whose row j - 1 is the dual of index j.

    Bar rows invert [phi_{m, m-eta e_j}(u)]; tilde rows invert
    [phi_{m+eta e_j, m}(u)].  Biorthogonality holds by construction.
    """
    cols_tilde = np.column_stack([intertwiner(m.shifted(1, setup.eta, -1), 1, u, setup),
                                  intertwiner(m.shifted(2, setup.eta, -1), 2, u, setup)])
    return _inverse_rows(_column_matrix(m, u, setup)), _inverse_rows(cols_tilde)


def face_vertex_residual(u1: complex, u2: complex, m: WeightVector,
                         setup: ModularSetup) -> float:
    """Residual of the face-vertex correspondence over all in-pairs (i, j)."""
    rbar = vertex_R_matrix(u1 - u2, setup)
    r_sos = sos_R_matrix(u1 - u2, m, setup)
    eta = setup.eta
    worst, scale = 0.0, 0.0
    for i in (1, 2):
        mi = m.shifted(i, eta)
        for j in (1, 2):
            lhs = rbar @ np.kron(intertwiner(m, i, u1, setup),
                                 intertwiner(mi, j, u2, setup))
            rhs = np.zeros(4, dtype=complex)
            for k in (1, 2):
                for l in (1, 2):
                    ml = m.shifted(l, eta)
                    coeff = r_sos[2 * (k - 1) + (l - 1), 2 * (i - 1) + (j - 1)]
                    if coeff == 0.0:
                        continue
                    rhs = rhs + coeff * np.kron(
                        intertwiner(ml, k, u1, setup), intertwiner(m, l, u2, setup))
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(rhs))))
    return worst / scale


def face_K(bc: BoundaryConfig, u: complex, setup: ModularSetup) -> np.ndarray:
    """Diagonal face-type reflection matrix Diag(k_1, k_2)."""
    out = np.zeros((2, 2), dtype=complex)
    for i, lam in enumerate((bc.lambda1, bc.lambda2)):
        out[i, i] = sigma(lam + bc.zeta - u, setup) / _checked_sigma(
            lam + bc.zeta + u, setup, "sigma(lambda_i+zeta+u)")
    return out


def k_factorization_residual(u: complex, bc: BoundaryConfig,
                             setup: ModularSetup) -> float:
    """Residual between vertex_K(u) and its intertwiner factorization.

    K(u)^s_t = sum_i phi^(s)_{lam, lam - eta e_i}(u) k_i(lam|u)
               phi_bar^(t)_{lam, lam - eta e_i}(-u).
    """
    lam = bc.weight
    kf = face_K(bc, u, setup)
    bar, _ = dual_intertwiners(lam, -u, setup)
    rebuilt = np.zeros((2, 2), dtype=complex)
    for i in (1, 2):
        rebuilt += kf[i - 1, i - 1] * np.outer(intertwiner(lam, i, u, setup), bar[i - 1])
    kv = vertex_K_matrix(u, bc, setup)
    return float(np.max(np.abs(kv - rebuilt)) / np.max(np.abs(kv)))


# ---------------------------------------------------------------------------
# Domain-wall boundary states.  Weight arguments are lambda + t * eta * e_hat_1
# with the integer step t tracked per site; the sequences are those of the
# fully explicit partition-function expression (e_hat_2 = -e_hat_1 turns all
# shifts into steps of e_hat_1).
# ---------------------------------------------------------------------------

def _lam_shift(bc: BoundaryConfig, setup: ModularSetup, steps: int) -> WeightVector:
    return bc.weight.shifted(1, setup.eta, -steps)


def _tilde_row(m_bottom: WeightVector, mu: int, u: complex,
               setup: ModularSetup) -> np.ndarray:
    return dual_intertwiners(m_bottom, u, setup)[1][mu - 1]


def boundary_state_factors(bc: BoundaryConfig, xi, us, setup: ModularSetup):
    """Per-site 2-vectors of the four boundary states.

    Returns (omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket); the bra
    lists hold row vectors for quantum sites / bar lines, the ket lists
    column vectors.
    """
    n = len(xi)
    omega2_ket = [intertwiner(_lam_shift(bc, setup, i - 1), 2, xi[i - 1], setup)
                  for i in range(1, n + 1)]
    omega1_bra = [_tilde_row(_lam_shift(bc, setup, -i), 1, xi[i - 1], setup)
                  for i in range(1, n + 1)]
    omega1bar_ket = [intertwiner(_lam_shift(bc, setup, 2 * a - n), 1, -us[a - 1], setup)
                     for a in range(1, n + 1)]
    omega2bar_bra = [_tilde_row(_lam_shift(bc, setup, 2 * a - 1 - n), 2, us[a - 1], setup)
                     for a in range(1, n + 1)]
    return omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket


def boundary_states(bc: BoundaryConfig, spectral, setup: ModularSetup):
    """The four domain-wall boundary states as full 2^N tensors.

    Returns (omega2_ket, omega1bar_ket, omega1_bra, omega2bar_bra).
    """
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = boundary_state_factors(
        bc, spectral.xi, spectral.u, setup)
    return (product_state(omega2_ket), product_state(omega1bar_ket),
            product_state(omega1_bra), product_state(omega2bar_bra))
