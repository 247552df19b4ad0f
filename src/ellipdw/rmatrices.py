"""Vertex-type and SOS (dynamical) R-matrices and their defining relations.

The 4x4 matrices act on V (x) V with basis order (11, 12, 21, 22).  The
dynamical shift convention: acting on a site in spin state i shifts the
weight by -eta * e_hat_i, with e_hat_1 = (1/2, -1/2) and e_hat_2 = -e_hat_1;
``apply_sos_R`` applies that convention for the face route, the twist and
the dynamical YBE check alike.  Relations (QYBE, dynamical YBE, crossing,
unitarity) are exposed as normalized max-norm residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elliptic import ModularSetup, sigma, theta_level2
from .errors import SingularityError
from .tensor import DenseOperator, embed_matrix

# No sigma in a denominator may fall below this: the closed forms hold for
# generic (u, xi, lambda, zeta) only.
GENERICITY_FLOOR = 1e-8

# Fundamental shift vectors e_hat_i = eps_i - (eps_1 + eps_2)/2.
E_HAT = {1: (0.5, -0.5), 2: (-0.5, 0.5)}


@dataclass(frozen=True)
class WeightVector:
    """Dynamical weight m = (m1, m2); m12 = m1 - m2."""

    m1: complex
    m2: complex

    @property
    def m12(self) -> complex:
        return self.m1 - self.m2

    @property
    def m21(self) -> complex:
        return self.m2 - self.m1

    def component(self, i: int) -> complex:
        return self.m1 if i == 1 else self.m2

    def shifted(self, j: int, eta: complex, steps: int = 1) -> "WeightVector":
        """m - steps * eta * e_hat_j (negative steps shift the other way)."""
        e1, e2 = E_HAT[j]
        return WeightVector(self.m1 - steps * eta * e1, self.m2 - steps * eta * e2)

    def require_generic(self, setup: ModularSetup, floor: float = GENERICITY_FLOOR):
        eta = setup.eta
        for z, what in ((self.m12, "sigma(m12)"),
                        (self.m12 + eta, "sigma(m12+eta)"),
                        (self.m12 - eta, "sigma(m12-eta)")):
            if abs(sigma(z, setup)) < floor:
                raise SingularityError(f"{what} below genericity floor at m12={self.m12}")


def _floor_checked(vals, what):
    """``vals``, a scalar or an array, refused when its least modulus is below
    the genericity floor; an empty array passes."""
    least = (abs(vals) if isinstance(vals, complex)
             else float(np.abs(vals).min(initial=math.inf)))
    if least < GENERICITY_FLOOR:
        raise SingularityError(
            f"|{what}| = {least:.2e} below floor {GENERICITY_FLOOR:.0e}")
    return vals


def _checked_sigma(z, setup, what):
    return _floor_checked(sigma(z, setup), what)


def vertex_R(u: complex, setup: ModularSetup) -> DenseOperator:
    """Eight-vertex R-matrix with weights a, b, c, d on two sites (1, 2)."""
    return DenseOperator((1, 2), vertex_R_matrix(u, setup))


def vertex_R_matrix(u: complex, setup: ModularSetup) -> np.ndarray:
    eta = setup.eta
    t1 = lambda z: theta_level2(1, z, setup)
    t0 = lambda z: theta_level2(2, z, setup)
    s_ueta = _checked_sigma(u + eta, setup, "sigma(u+eta)")
    s_eta = sigma(eta, setup)
    t10, t0e, t1e = t1(0.0), t0(eta), t1(eta)
    for v, what in ((t10, "theta2_1(0)"), (t0e, "theta2_0(eta)"), (t1e, "theta2_1(eta)")):
        if abs(v) < GENERICITY_FLOOR:
            raise SingularityError(f"{what} below genericity floor")
    a = t1(u) * t0(u + eta) * s_eta / (t10 * t0e * s_ueta)
    b = t0(u) * t1(u + eta) * s_eta / (t10 * t0e * s_ueta)
    c = t1(u) * t1(u + eta) * s_eta / (t10 * t1e * s_ueta)
    d = t0(u) * t0(u + eta) * s_eta / (t10 * t1e * s_ueta)
    return np.array([
        [a, 0, 0, d],
        [0, b, c, 0],
        [0, c, b, 0],
        [d, 0, 0, a],
    ], dtype=complex)


def sos_R(u: complex, m: WeightVector, setup: ModularSetup) -> DenseOperator:
    """Dynamical (SOS) R-matrix R(u; m) on two sites (1, 2)."""
    return DenseOperator((1, 2), sos_R_matrix(u, m, setup))


def sos_R_matrix(u: complex, m: WeightVector, setup: ModularSetup) -> np.ndarray:
    eta = setup.eta
    s_ueta = _checked_sigma(u + eta, setup, "sigma(u+eta)")
    s_m12 = _checked_sigma(m.m12, setup, "sigma(m12)")
    s_u = sigma(u, setup)
    s_eta = sigma(eta, setup)
    s_m21 = -s_m12
    # R^{ij}_{ij} = s(u) s(m_ij - eta) / (s(u+eta) s(m_ij)),
    # R^{ji}_{ij} = s(eta) s(u + m_ij) / (s(u+eta) s(m_ij)).
    b12 = s_u * sigma(m.m12 - eta, setup) / (s_ueta * s_m12)
    b21 = s_u * sigma(m.m21 - eta, setup) / (s_ueta * s_m21)
    c12 = s_eta * sigma(u + m.m12, setup) / (s_ueta * s_m12)
    c21 = s_eta * sigma(u + m.m21, setup) / (s_ueta * s_m21)
    return np.array([
        [1, 0, 0, 0],
        [0, b12, c21, 0],
        [0, c12, b21, 0],
        [0, 0, 0, 1],
    ], dtype=complex)


def apply_sos_R(tensor: np.ndarray, u: complex, m: WeightVector, setup: ModularSetup,
                ax1: int, ax2: int, spectators=()) -> np.ndarray:
    """Apply R(u; m - (n1 - n2) eta e_hat_1) to axes (ax1, ax2) of a tensor.

    ``tensor`` is a (2,)*k state tensor with any trailing batch axes; n1 and
    n2 count the ``spectators`` axes in spin 1 and spin 2, so every slice sees
    the weight shifted by the spins of the sites it has passed.  R rows and
    columns are ordered with the ax1 index most significant.  This is the one
    place that maps spectator spins to a shifted weight.
    """
    k = len(spectators)
    mats = np.stack([sos_R_matrix(u, m.shifted(1, setup.eta, k - 2 * n2), setup)
                     for n2 in range(k + 1)]).reshape(k + 1, 2, 2, 2, 2)
    # spectator popcount over the remaining axes, broadcast along the others
    rest = [ax for ax in range(tensor.ndim) if ax not in (ax1, ax2)]
    twos = np.indices([2 if ax in spectators else 1 for ax in rest]).sum(axis=0)
    out = np.einsum("...ABas,...as->...AB", mats[twos],
                    np.moveaxis(tensor, (ax1, ax2), (-2, -1)))
    return np.moveaxis(out, (-2, -1), (ax1, ax2))


def _swap_sites(mat4: np.ndarray) -> np.ndarray:
    """P M P for a 4x4 two-site matrix."""
    p = [0, 2, 1, 3]
    return mat4[np.ix_(p, p)]


def unitarity_residual(u: complex, m: WeightVector, setup: ModularSetup) -> float:
    """|| R_{12}(u;m) R_{21}(-u;m) - id || (max norm)."""
    prod = sos_R_matrix(u, m, setup) @ _swap_sites(sos_R_matrix(-u, m, setup))
    return float(np.max(np.abs(prod - np.eye(4))))


def qybe_residual(u1: complex, u2: complex, u3: complex,
                  setup: ModularSetup) -> float:
    """Normalized max-norm residual of the quantum Yang-Baxter equation."""
    r12 = embed_matrix(vertex_R_matrix(u1 - u2, setup), (0, 1), 3)
    r13 = embed_matrix(vertex_R_matrix(u1 - u3, setup), (0, 2), 3)
    r23 = embed_matrix(vertex_R_matrix(u2 - u3, setup), (1, 2), 3)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def _dynamical_embed(u, m, setup, active, spectator):
    """R on two of three sites with the weight shifted by the spectator spin."""
    eye = np.eye(8, dtype=complex).reshape(2, 2, 2, 8)
    return apply_sos_R(eye, u, m, setup, *active, spectators=(spectator,)).reshape(8, 8)


def dybe_residual(u1: complex, u2: complex, u3: complex, m: WeightVector,
                  setup: ModularSetup) -> float:
    """Normalized residual of the dynamical Yang-Baxter (star-triangle) relation."""
    m.require_generic(setup)
    r12_h3 = _dynamical_embed(u1 - u2, m, setup, (0, 1), 2)
    r13 = embed_matrix(sos_R_matrix(u1 - u3, m, setup), (0, 2), 3)
    r23_h1 = _dynamical_embed(u2 - u3, m, setup, (1, 2), 0)
    r23 = embed_matrix(sos_R_matrix(u2 - u3, m, setup), (1, 2), 3)
    r13_h2 = _dynamical_embed(u1 - u3, m, setup, (0, 2), 1)
    r12 = embed_matrix(sos_R_matrix(u1 - u2, m, setup), (0, 1), 3)
    lhs = r12_h3 @ r13 @ r23_h1
    rhs = r23 @ r13_h2 @ r12
    return float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))


def _sigma_u_times_crossed_R(u, mi, setup):
    """sigma(u) * R(-u-eta; mi) with the sigma(-u) denominators cancelled.

    The crossing relation evaluates R at -u-eta, whose off-diagonal entries
    carry 1/sigma(-u); multiplying by the sigma(u) prefactor analytically
    keeps the product finite at u = 0.
    """
    eta = setup.eta
    v = -u - eta
    s_u = sigma(u, setup)
    s_eta = sigma(eta, setup)
    s_m12 = _checked_sigma(mi.m12, setup, "sigma(m12)")
    s_m21 = -s_m12
    s_v = sigma(v, setup)
    one = s_u
    b12 = -s_v * sigma(mi.m12 - eta, setup) / s_m12
    b21 = -s_v * sigma(mi.m21 - eta, setup) / s_m21
    c12 = -s_eta * sigma(v + mi.m12, setup) / s_m12
    c21 = -s_eta * sigma(v + mi.m21, setup) / s_m21
    return np.array([
        [one, 0, 0, 0],
        [0, b12, c21, 0],
        [0, c12, b21, 0],
        [0, 0, 0, one],
    ], dtype=complex)


def crossing_residual(u: complex, m: WeightVector, setup: ModularSetup,
                      parities=(1.0, -1.0)) -> float:
    """Normalized residual of the crossing relation of the SOS R-matrix.

    ``parities`` is (eps_1, eps_2); the non-default value is a test hook for
    negative controls.
    """
    eta = setup.eta
    bar = {1: 2, 2: 1}
    eps = {1: parities[0], 2: parities[1]}
    r_m = sos_R_matrix(u, m, setup)
    worst = 0.0
    scale = float(np.max(np.abs(r_m)))
    for i in (1, 2):
        mi = m.shifted(i, eta)
        factor = sigma(mi.m21, setup) / (
            _checked_sigma(u + eta, setup, "sigma(u+eta)")
            * _checked_sigma(m.m21, setup, "sigma(m21)"))
        r_cross = _sigma_u_times_crossed_R(u, mi, setup)
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    lhs = r_m[2 * (k - 1) + (l - 1), 2 * (i - 1) + (j - 1)]
                    rhs = eps[l] * eps[j] * factor * r_cross[
                        2 * (bar[j] - 1) + (k - 1), 2 * (bar[l] - 1) + (i - 1)]
                    worst = max(worst, abs(lhs - rhs))
    return worst / scale
