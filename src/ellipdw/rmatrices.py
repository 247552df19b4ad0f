"""Vertex-type and SOS (dynamical) R-matrices and their defining relations.

The 4x4 matrices act on V (x) V with basis order (11, 12, 21, 22).  The
dynamical shift convention: acting on a site in spin state i shifts the
weight by -eta * e_hat_i, with e_hat_1 = (1/2, -1/2) and e_hat_2 = -e_hat_1.
``vertex_R_matrix`` and ``sos_R_matrix`` each build a stack of R matrices
over array arguments in one evaluation, one array theta or sigma call per
family, a scalar argument being a one-point stack on the same code path
(a ``Gathered`` SOS argument has its one-point families evaluated once per
distinct value); their entries are combined by ``tensor.times`` and
``tensor.quotient``, which round as Python's complex arithmetic does, so a
matrix of a stack has its one-point build's bits wherever the array sums
stop at its own step.
``spectator_weight`` maps spectator spins to the shifted weight, and
``spectator_layers``/``layer`` lay the shifted weights of 0, 1, 2, ...
spectators out along one table axis.  This module owns the one
dynamical-R update: ``spectator_blocks`` gathers each spectator state's
mixed 2x2 block by popcount, and ``apply_R_layer`` updates the two mixed
components of a contiguous state in place, elementwise (the SOS R is the
identity on |11> and |22>); the twist calls it once per word letter, the
face route once per monodromy layer.  Relations (QYBE, dynamical YBE,
crossing, unitarity) are exposed as normalized max-norm residuals; each
takes scalars or equal-shape arrays of draws and returns a float or an
array of residuals, so a sampled check is one evaluation over all its draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import ModularSetup, sigma, theta_level2
from .errors import SingularityError
from .tensor import DenseOperator, embed_matrix, max_abs, quotient, times

# No sigma in a denominator may fall below this: the closed forms hold for
# generic (u, xi, lambda, zeta) only.
GENERICITY_FLOOR = 1e-8
# the one name of a refused sigma(eta), in every route
SIGMA_ETA = "sigma(eta)"

# Fundamental shift vectors e_hat_i = eps_i - (eps_1 + eps_2)/2.
E_HAT = {1: (0.5, -0.5), 2: (-0.5, 0.5)}


@dataclass(frozen=True)
class WeightVector:
    """Dynamical weight m = (m1, m2); m12 = m1 - m2.

    The components may be equal-shape arrays: a stack of weights, which
    ``sos_R_matrix``, the intertwiners and ``require_generic`` take
    elementwise."""

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
        """Refuse the weight, or a stack holding a weight, at which sigma(m12)
        or sigma(m12 +- eta) falls below ``floor``; the error names the
        family and the m12 of its least value."""
        eta = setup.eta
        for z, what in ((self.m12, "sigma(m12)"),
                        (self.m12 + eta, "sigma(m12+eta)"),
                        (self.m12 - eta, "sigma(m12-eta)")):
            vals = sigma(z, setup)
            if _least_modulus(vals) < floor:
                m12 = np.ravel(self.m12)[np.argmin(np.abs(vals))]
                raise SingularityError(f"{what} below genericity floor at m12={m12}")


def _least_modulus(vals) -> float:
    """The least |v| of a scalar or an array; inf for an empty array."""
    return (abs(vals) if isinstance(vals, complex)
            else float(np.abs(vals).min(initial=math.inf)))


def _floor_checked(vals, what):
    """``vals``, a scalar or an array, refused when its least modulus is below
    the genericity floor; an empty array passes."""
    least = _least_modulus(vals)
    if least < GENERICITY_FLOOR:
        raise SingularityError(
            f"|{what}| = {least:.2e} below floor {GENERICITY_FLOOR:.0e}")
    return vals


def _checked_sigma(z, setup, what):
    return _floor_checked(sigma(z, setup), what)


def vertex_R(u: complex, setup: ModularSetup) -> DenseOperator:
    """Eight-vertex R-matrix with weights a, b, c, d on two sites (1, 2)."""
    return DenseOperator((1, 2), vertex_R_matrix(u, setup))


def vertex_R_matrix(u, setup: ModularSetup) -> np.ndarray:
    """R(u) as a stack of shape shape(u) + (4, 4), a 4x4 matrix for a scalar
    ``u``, from one array theta call per family.

    The constants sigma(eta), theta2_1(0), theta2_0(eta) and theta2_1(eta)
    are evaluated (four one-point sums) and floor-checked first, once per
    build.  The weights are combined by ``tensor.times`` and ``quotient``,
    which round as Python's complex arithmetic does, so each matrix of a
    stack has the bits of its own one-point build wherever the array theta
    sums stop at the element's own step.
    """
    eta = np.asarray(setup.eta, dtype=complex)
    t1 = lambda z: theta_level2(1, z, setup)
    t0 = lambda z: theta_level2(2, z, setup)
    s_eta = _checked_sigma(eta, setup, SIGMA_ETA)
    t10 = _floor_checked(t1(np.zeros((), dtype=complex)), "theta2_1(0)")
    t0e = _floor_checked(t0(eta), "theta2_0(eta)")
    t1e = _floor_checked(t1(eta), "theta2_1(eta)")
    shape = np.shape(u)
    u = np.ravel(np.asarray(u, dtype=complex))  # a scalar is a one-point stack
    ue = u + eta
    s_ueta = _checked_sigma(ue, setup, "sigma(u+eta)")
    t1u, t0u, t1ue, t0ue = t1(u), t0(u), t1(ue), t0(ue)
    # a, b, c, d = x y sigma(eta) / (theta2_1(0) t sigma(u + eta)) as one stack
    num = times(times(np.stack([t1u, t0u, t1u, t0u]), np.stack([t0ue, t1ue, t1ue, t0ue])), s_eta)
    a, b, c, d = quotient(num, times(times(t10, np.array([[t0e], [t0e], [t1e], [t1e]])), s_ueta))
    out = np.zeros(u.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = a
    out[..., 1, 1] = out[..., 2, 2] = b
    out[..., 1, 2] = out[..., 2, 1] = c
    out[..., 0, 3] = out[..., 3, 0] = d
    return out.reshape(shape + (4, 4))


def sos_R(u: complex, m: WeightVector, setup: ModularSetup) -> DenseOperator:
    """Dynamical (SOS) R-matrix R(u; m) on two sites (1, 2)."""
    return DenseOperator((1, 2), sos_R_matrix(u, m, setup))


@dataclass(frozen=True)
class Gathered:
    """The argument ``values[index]`` given by the values it repeats: an array,
    or a ``WeightVector`` of arrays, and one integer index array per axis of
    ``values``, which broadcast together to the argument's shape."""

    values: object
    index: tuple


def _distinct(arg, shape_of):
    """(the values of ``arg`` that a one-point sigma family is evaluated on,
    the function reading such a family at every entry of ``arg``, ``arg``'s
    shape, ``shape_of`` giving that of a plain argument)."""
    if isinstance(arg, Gathered):
        return (arg.values, lambda family: family[arg.index],
                np.broadcast_shapes(*map(np.shape, arg.index)))
    return arg, lambda family: family, shape_of(arg)


def sos_R_matrix(u, m: WeightVector, setup: ModularSetup) -> np.ndarray:
    """R(u; m) as a stack of shape broadcast(u, m12) + (4, 4), a 4x4 matrix
    for scalar arguments, from one array ``sigma`` call per family (sigma(eta)
    a one-point array).  A scalar is a one-point stack, and the entries are
    combined by ``tensor.times`` and ``quotient``, which round as Python's
    complex arithmetic does, so each matrix of a stack has the bits of its
    own one-point build wherever the array sigma sums stop at the element's
    own step.

    ``u`` or ``m`` may be ``Gathered``: sigma(u) and sigma(u + eta), or
    sigma(m12) and sigma(m12 - eta), sigma(m21 - eta), are then evaluated on
    its values alone and read at its index.  A sum's window and stopping
    step depend only on the set of points in the call, so every entry keeps
    the bits of the build over the full argument."""
    eta = setup.eta
    u, read_u, u_shape = _distinct(u, np.shape)
    m, read_m, m_shape = _distinct(m, lambda w: np.shape(w.m12))
    shape = np.broadcast_shapes(u_shape, m_shape)
    u, m12, m21 = (np.atleast_1d(v) for v in (u, m.m12, m.m21))
    s_ueta = read_u(_checked_sigma(u + eta, setup, "sigma(u+eta)"))
    s_m12 = read_m(_checked_sigma(m12, setup, "sigma(m12)"))
    s_u = read_u(sigma(u, setup))
    s_eta = _checked_sigma(np.full(1, eta), setup, SIGMA_ETA)
    # R^{ij}_{ij} = s(u) s(m_ij - eta) / (s(u+eta) s(m_ij)) and R^{ji}_{ij} =
    # s(eta) s(u + m_ij) / (s(u+eta) s(m_ij)), s(m21) = -s(m12), as one stack
    sig = lambda *zs: np.stack([sigma(z, setup) for z in zs], axis=-1)
    s_mm = read_m(sig(m12 - eta, m21 - eta))
    u, m12, m21 = read_u(u), read_m(m12), read_m(m21)
    num = np.concatenate([times(s_u[..., None], s_mm),
                          times(s_eta, sig(u + m12, u + m21))], axis=-1)
    den = times(s_ueta, s_m12)
    b12, b21, c12, c21 = np.moveaxis(quotient(num, np.stack([den, -den] * 2, axis=-1)), -1, 0)
    out = np.zeros(den.shape + (4, 4), dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = 1.0
    out[..., 1, 1], out[..., 1, 2] = b12, c21
    out[..., 2, 1], out[..., 2, 2] = c12, b21
    return out.reshape(shape + (4, 4))


def spectator_weight(m: WeightVector, eta: complex, k, n2) -> WeightVector:
    """m - (n1 - n2) eta e_hat_1, the weight a slice sees when n2 of its k
    spectators are in spin 2 and n1 = k - n2 in spin 1 (``k`` and ``n2`` may
    be integer arrays).  This is the one place that maps spectator spins to a
    shifted weight."""
    return m.shifted(1, eta, k - 2 * n2)


def spectator_layers(count: int):
    """(k, n2) along the layer axis of every shifted-R table: layer k holds
    ``spectator_weight(m, eta, k, n2)``, n2 = 0..k, k = 0..count-1."""
    return np.tril_indices(count)


def layer(k: int) -> slice:
    """The entries of layer k (k spectators) on that axis, offset k(k+1)/2."""
    return slice(k * (k + 1) // 2, (k + 1) * (k + 2) // 2)


# the mixed block of an SOS R: entries (12,12), (12,21), (21,12), (21,21)
_BLOCK = ([1, 1, 2, 2], [1, 2, 1, 2])


@lru_cache(maxsize=None)
def _block_index(count: int) -> np.ndarray:
    """Per spectator state of layers 0..count-1, in turn, the table entry it reads."""
    index = np.array([layer(k).start + bin(p).count("1")
                      for k in range(count) for p in range(2 ** k)], dtype=np.intp)
    index.flags.writeable = False
    return index


def spectator_blocks(table, count: int) -> np.ndarray:
    """The mixed 2x2 blocks of the layers 0..count-1 of a shifted-R table
    whose axis -3 is ``spectator_layers``, (..., 2^count - 1, 4): layer k's
    at [2^k - 1, 2^(k+1) - 1), one per spin state of k spectators (flat, the
    first most significant), ``layer(k)``'s entry at the state's popcount."""
    return table[..., _BLOCK[0], _BLOCK[1]][..., _block_index(count), :]


def apply_R_layer(state: np.ndarray, blocks: np.ndarray, k: int) -> None:
    """Apply layer k of dynamical R factors in place to ``state``.

    ``state`` is C-contiguous and read as (B, first site, 2^k spectator
    states, second site, rest), B = len(blocks); the spectators of slice b
    in state p see the R whose mixed block is ``blocks[b, 2^k - 1 + p]``, a
    ``spectator_blocks`` row.  The R is the identity on |11> and |22>, so
    only the two mixed components change, by elementwise products and sums:
    every element gets the same bits whatever the layout and the batch shape.
    """
    p = 2 ** k
    v, b = state.reshape(len(blocks), 2, p, 2, -1), blocks[:, p - 1:2 * p - 1, None, :]
    x12, x21 = v[:, 0, :, 1], v[:, 1, :, 0]
    x12[...], x21[...] = b[..., 0] * x12 + b[..., 1] * x21, b[..., 2] * x12 + b[..., 3] * x21


def _swap_sites(mat4: np.ndarray) -> np.ndarray:
    """P M P for a 4x4 two-site matrix or a stack of them."""
    p = [0, 2, 1, 3]
    return mat4[..., p, :][..., :, p]


def unitarity_residual(u, m: WeightVector, setup: ModularSetup):
    """|| R_{12}(u;m) R_{21}(-u;m) - id || (max norm)."""
    prod = sos_R_matrix(u, m, setup) @ _swap_sites(sos_R_matrix(-u, m, setup))
    return max_abs(prod - np.eye(4))


def qybe_residual(u1, u2, u3, setup: ModularSetup):
    """Normalized max-norm residual of the quantum Yang-Baxter equation."""
    r12 = embed_matrix(vertex_R_matrix(u1 - u2, setup), (0, 1), 3)
    r13 = embed_matrix(vertex_R_matrix(u1 - u3, setup), (0, 2), 3)
    r23 = embed_matrix(vertex_R_matrix(u2 - u3, setup), (1, 2), 3)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return max_abs(lhs - rhs) / max_abs(rhs)


def _dynamical_embed(mats, active, spectator):
    """R on two of three sites with the weight shifted by the spectator spin:
    ``mats[n2]``, the R at ``spectator_weight(m, eta, 1, n2)``, embedded on
    the columns whose spectator holds n2 spins 2."""
    spin2 = (np.arange(8) >> (2 - spectator)) & 1
    return sum(embed_matrix(mats[n2], active, 3) * (spin2 == n2) for n2 in (0, 1))


def dybe_residual(u1, u2, u3, m: WeightVector, setup: ModularSetup):
    """Normalized residual of the dynamical Yang-Baxter (star-triangle)
    relation, every R from one ``sos_R_matrix`` build over the differences
    u1 - u2, u1 - u3, u2 - u3 x the weights with no spectator and with one
    in spin 1 or 2, along the draws' axes."""
    m.require_generic(setup)
    *diffs, m12 = np.broadcast_arrays(u1 - u2, u1 - u3, u2 - u3, m.m12)
    k, n2 = (np.reshape(v, (3,) + (1,) * m12.ndim) for v in spectator_layers(2))
    r = sos_R_matrix(np.stack(diffs)[:, None], spectator_weight(m, setup.eta, k, n2), setup)
    # layer 0, entry 0, is R(diff; m); layer 1 the two R one spectator can see
    plain, shifted = r[:, 0], r[:, layer(1)]
    lhs = (_dynamical_embed(shifted[0], (0, 1), 2) @ embed_matrix(plain[1], (0, 2), 3)
           @ _dynamical_embed(shifted[2], (1, 2), 0))
    rhs = (embed_matrix(plain[2], (1, 2), 3) @ _dynamical_embed(shifted[1], (0, 2), 1)
           @ embed_matrix(plain[0], (0, 1), 3))
    return max_abs(lhs - rhs) / max_abs(rhs)


def _sigma_u_times_crossed_R(u, mi, setup):
    """sigma(u) * R(-u-eta; mi) with the sigma(-u) denominators cancelled.

    The crossing relation evaluates R at -u-eta, whose off-diagonal entries
    carry 1/sigma(-u); multiplying by the sigma(u) prefactor analytically
    keeps the product finite at u = 0.
    """
    eta = setup.eta
    v = -u - eta
    s_u = sigma(u, setup)
    s_eta = _checked_sigma(eta, setup, SIGMA_ETA)
    s_m12 = _checked_sigma(mi.m12, setup, "sigma(m12)")
    s_m21 = -s_m12
    s_v = sigma(v, setup)
    out = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(mi.m12)) + (4, 4),
                   dtype=complex)
    out[..., 0, 0] = out[..., 3, 3] = s_u
    out[..., 1, 1] = -s_v * sigma(mi.m12 - eta, setup) / s_m12
    out[..., 2, 2] = -s_v * sigma(mi.m21 - eta, setup) / s_m21
    out[..., 2, 1] = -s_eta * sigma(v + mi.m12, setup) / s_m12
    out[..., 1, 2] = -s_eta * sigma(v + mi.m21, setup) / s_m21
    return out


# the crossing relation's parities eps_1, eps_2
_PARITY = {1: 1.0, 2: -1.0}


def crossing_residual(u, m: WeightVector, setup: ModularSetup):
    """Normalized residual of the crossing relation of the SOS R-matrix."""
    eta = setup.eta
    bar = {1: 2, 2: 1}
    r_m = sos_R_matrix(u, m, setup)
    worst = 0.0
    for i in (1, 2):
        mi = m.shifted(i, eta)
        factor = sigma(mi.m21, setup) / (
            _checked_sigma(u + eta, setup, "sigma(u+eta)")
            * _checked_sigma(m.m21, setup, "sigma(m21)"))
        r_cross = _sigma_u_times_crossed_R(u, mi, setup)
        for j in (1, 2):
            for k in (1, 2):
                for l in (1, 2):
                    lhs = r_m[..., 2 * (k - 1) + (l - 1), 2 * (i - 1) + (j - 1)]
                    rhs = _PARITY[l] * _PARITY[j] * factor * r_cross[
                        ..., 2 * (bar[j] - 1) + (k - 1), 2 * (bar[l] - 1) + (i - 1)]
                    worst = np.maximum(worst, np.abs(lhs - rhs))
    return max_abs(worst, 0) / max_abs(r_m)
