"""Brute-force partition-function routes.

Three independent evaluators of the same quantity:

* ``partition_bruteforce`` -- contracts the double-row monodromy product
  between the four boundary states, applying each R/K factor as a local
  update on a 2^(N+1) state vector (cost O(N^2 2^N)),
* ``partition_enumeration`` -- a micro-oracle that literally sums Boltzmann
  weights over all edge-spin configurations of the N x 2N reflecting
  lattice (exponential; N <= 2),
* ``partition_face_route`` -- the face-type route: a product of double-row
  pseudo-particle creation operators between the all-up bra and all-down
  ket, built from the dynamical one-row monodromy matrix.

Every dynamical R factor goes through ``rmatrices.apply_sos_R``; dense
operators apply it to the identity reshaped as a batch of basis kets, as
``double_row_monodromy`` does with the vertex factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boundary import BoundaryConfig, boundary_state_factors, vertex_K_matrix
from .elliptic import ModularSetup, sigma, sigma_separable
from .errors import SizeError
from .rmatrices import (WeightVector, _checked_sigma, _floor_checked,
                        apply_sos_R, vertex_R_matrix)
from .tensor import DenseOperator, apply_one_site, apply_two_site, product_state

MAX_BRUTEFORCE_N = 12
MAX_ENUMERATION_N = 2
MAX_FACE_N = 10


def _read_only(vals, family=None):
    """``vals``, made read-only; given a ``family`` name, refused first when
    a |sigma| in it is below the genericity floor."""
    if family is not None:
        _floor_checked(vals, f"sigma({family})")
    vals.flags.writeable = False
    return vals


class SpectralGrids:
    """Every sigma table over (u, xi) that the genericity check and the closed
    forms read, each evaluated on first use and then kept read-only.

    ``minus``, ``plus``, ``minus_eta``, ``plus_eta`` are sigma(u_a -+ xi_k)
    and sigma(u_a -+ xi_k + eta), indexed [a, k]: the determinant's matrix
    entries, each its own ``sigma`` series call, so the matrix keeps its
    bits; so is ``s2u``, sigma(2 u_a).  ``u_diff``, ``u_sum_eta``,
    ``xi_diff``, ``xi_sum`` are sigma(u_b - u_a), sigma(u_b + u_a + eta),
    sigma(xi_a - xi_b) and sigma(xi_a + xi_b) over the pairs a < b, each a
    triangle of one full ``sigma_separable`` product.  ``xi_ratio`` is
    G[j, k] = sigma(xi_j - xi_k + eta) / sigma(xi_j - xi_k) with diagonal 1;
    its denominator is the product ``xi_diff`` is cut from.

    Every family but ``s2u`` is refused (SingularityError, naming it) when
    evaluated if a |sigma| in it is below the genericity floor, so reading a
    family is its check; ``check_only`` checks the pair families that only
    the genericity check reads.
    """

    def __init__(self, u, xi, setup: ModularSetup):
        self.u = np.asarray(u, dtype=complex)
        self.xi = np.asarray(xi, dtype=complex)
        self.setup = setup
        self.u_pairs = np.triu_indices(len(self.u), k=1)
        self.xi_pairs = (self.u_pairs if len(self.xi) == len(self.u)
                         else np.triu_indices(len(self.xi), k=1))

    def _sigma(self, z, family=None):
        return _read_only(sigma(z, self.setup), family)

    @cached_property
    def minus(self):
        return self._sigma(self.u[:, None] - self.xi[None, :], "u_a - xi_k")

    @cached_property
    def plus(self):
        return self._sigma(self.u[:, None] + self.xi[None, :], "u_a + xi_k")

    @cached_property
    def minus_eta(self):
        return self._sigma(self.u[:, None] - self.xi[None, :] + self.setup.eta,
                           "u_a - xi_k + eta")

    @cached_property
    def plus_eta(self):
        return self._sigma(self.u[:, None] + self.xi[None, :] + self.setup.eta,
                           "u_a + xi_k + eta")

    @cached_property
    def s2u(self):
        return self._sigma(2 * self.u)

    def _pairs(self, v, pairs, family, s, c=0.0):
        """Entries [i, j] of sigma(v_i + s*v_j + c) over the index pairs."""
        return _read_only(sigma_separable(v, v, self.setup, s, c)[pairs], family)

    @cached_property
    def u_diff(self):
        ia, ib = self.u_pairs
        return self._pairs(self.u, (ib, ia), "u_b - u_a", -1)

    @cached_property
    def u_sum_eta(self):
        ia, ib = self.u_pairs
        return self._pairs(self.u, (ib, ia), "u_b + u_a + eta", 1, self.setup.eta)

    @cached_property
    def _xi_minus_xi(self):
        """sigma(xi_j - xi_k) for every (j, k)."""
        return sigma_separable(self.xi, self.xi, self.setup, -1)

    @cached_property
    def xi_diff(self):
        return _read_only(self._xi_minus_xi[self.xi_pairs], "xi_a - xi_b")

    @cached_property
    def xi_sum(self):
        return self._pairs(self.xi, self.xi_pairs, "xi_a + xi_b", 1)

    @cached_property
    def xi_ratio(self):
        self.xi_diff  # G's denominators, refused below the floor
        num = sigma_separable(self.xi, self.xi, self.setup, -1, self.setup.eta)
        ratio = np.ones_like(num)
        np.divide(num, self._xi_minus_xi, out=ratio,
                  where=~np.eye(len(self.xi), dtype=bool))
        return _read_only(ratio)

    @cached_property
    def check_only(self) -> bool:
        """Checks sigma(u_a + u_b), sigma(u_a - u_b + eta) and
        sigma(u_b - u_a + eta), a < b (both triangles of one product), and
        keeps only the outcome, so a second check evaluates nothing."""
        if len(self.u) < 2:
            return True
        u, setup, pairs = self.u, self.setup, self.u_pairs
        _floor_checked(sigma_separable(u, u, setup)[pairs], "sigma(u_a + u_b)")
        minus_eta = sigma_separable(u, u, setup, -1, setup.eta)
        _floor_checked(minus_eta[pairs], "sigma(u_a - u_b + eta)")
        _floor_checked(minus_eta[pairs[::-1]], "sigma(u_b - u_a + eta)")
        return True


@dataclass(frozen=True)
class SpectralConfig:
    """Spectral data: N vertical-line parameters u and N inhomogeneities xi.

    A configuration keeps one ``SpectralGrids`` per setup, so the genericity
    check and every closed form evaluate each (u, xi) grid once.
    """

    u: tuple
    xi: tuple
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.u) != len(self.xi):
            raise ValueError(f"len(u) = {len(self.u)} != len(xi) = {len(self.xi)}")

    @property
    def n(self) -> int:
        return len(self.u)

    def grids(self, setup: ModularSetup) -> SpectralGrids:
        if setup not in self._grids:
            self._grids[setup] = SpectralGrids(self.u, self.xi, setup)
        return self._grids[setup]

    def require_generic(self, setup: ModularSetup):
        """All sigma combinations entering denominators must clear the floor.

        Reading each checked family of ``grids(setup)`` is its check, so a
        second check of the same configuration evaluates nothing.
        """
        g = self.grids(setup)
        for family in ("minus", "plus", "minus_eta", "plus_eta", "u_diff",
                       "u_sum_eta", "xi_diff", "xi_sum", "check_only"):
            getattr(g, family)


# ---------------------------------------------------------------------------
# Vertex-type double-row monodromy and its contraction.
# ---------------------------------------------------------------------------

def _apply_double_row(phi, alpha_u, spectral, bc, setup, aux_axis):
    """Apply the double-row factor sequence for one bar line to ``phi``.

    ``phi`` has quantum sites on axes 0..N-1 and the bar (auxiliary) site on
    ``aux_axis``; factors act right-to-left: +xi branch (site N..1), the
    reflection matrix, then the -xi branch (site 1..N).
    """
    n = spectral.n
    for j in range(n, 0, -1):
        r = vertex_R_matrix(alpha_u + spectral.xi[j - 1], setup)
        phi = apply_two_site(phi, r, j - 1, aux_axis)
    phi = apply_one_site(phi, vertex_K_matrix(alpha_u, bc, setup), aux_axis)
    for j in range(1, n + 1):
        r = vertex_R_matrix(alpha_u - spectral.xi[j - 1], setup)
        phi = apply_two_site(phi, r, aux_axis, j - 1)
    return phi


def double_row_monodromy(u_i: complex, spectral: SpectralConfig,
                         bc: BoundaryConfig, setup: ModularSetup,
                         aux="aux") -> DenseOperator:
    """Double-row monodromy matrix on sites (aux, 1..N) as a dense operator."""
    n = spectral.n
    dim = 2 ** (n + 1)
    cols = np.eye(dim, dtype=complex)
    # treat the identity as a batch of basis kets with layout
    # (aux, site1..siteN, batch) and move aux behind the quantum axes,
    # which is where _apply_double_row expects it
    phi = np.moveaxis(cols.reshape((2,) * (n + 1) + (dim,)), 0, n)
    phi = _apply_double_row(phi, u_i, spectral, bc, setup, aux_axis=n)
    mat = np.moveaxis(phi, n, 0).reshape(dim, dim)
    return DenseOperator((aux,) + tuple(range(1, n + 1)), mat)


def partition_bruteforce(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Contract the monodromy product between the four boundary states."""
    n = spectral.n
    if n > MAX_BRUTEFORCE_N:
        raise SizeError(f"bruteforce route limited to N <= {MAX_BRUTEFORCE_N}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    spectral.require_generic(setup)
    bc.require_generic(setup, n, spectral.u)
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = boundary_state_factors(
        bc, spectral.xi, spectral.u, setup)
    psi = product_state(omega2_ket).reshape((2,) * n)
    for a in range(n, 0, -1):
        phi = np.tensordot(psi, omega1bar_ket[a - 1], axes=0)  # aux on last axis
        phi = _apply_double_row(phi, spectral.u[a - 1], spectral, bc, setup, aux_axis=n)
        psi = np.tensordot(phi, omega2bar_bra[a - 1], axes=([n], [0]))
    return complex(np.dot(product_state(omega1_bra), psi.ravel()))


def partition_enumeration(spectral: SpectralConfig, bc: BoundaryConfig,
                          setup: ModularSetup) -> complex:
    """Sum of Boltzmann-weight products over all edge-spin configurations.

    Every internal edge of the reflecting lattice carries a spin; each bulk
    vertex contributes the matching eight-vertex R element, each reflection
    end a K element, and the open boundary edges the boundary-state
    components.  Zero-weight local configurations prune the recursion.
    """
    n = spectral.n
    if n > MAX_ENUMERATION_N:
        raise SizeError(f"enumeration limited to N <= {MAX_ENUMERATION_N}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    spectral.require_generic(setup)
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = boundary_state_factors(
        bc, spectral.xi, spectral.u, setup)
    r_plus = [[vertex_R_matrix(spectral.u[a] + spectral.xi[j], setup)
               for j in range(n)] for a in range(n)]
    r_minus = [[vertex_R_matrix(spectral.u[a] - spectral.xi[j], setup)
                for j in range(n)] for a in range(n)]
    k_end = [vertex_K_matrix(spectral.u[a], bc, setup) for a in range(n)]
    total = 0.0 + 0.0j

    def close(frontier, w):
        nonlocal total
        for j in range(n):
            w = w * omega1_bra[j][frontier[j]]
        total += w

    def bar_line(a, frontier, w):
        # a counts down: bar line a acts on the current frontier spins.
        def minus_branch(j, b, frontier, w):
            if j == n:
                w = w * omega2bar_bra[a][b]
                if a == 0:
                    close(frontier, w)
                else:
                    bar_line(a - 1, frontier, w)
                return
            q = frontier[j]
            for bp in (0, 1):
                for qp in (0, 1):
                    amp = r_minus[a][j][2 * bp + qp, 2 * b + q]
                    if amp != 0.0:
                        minus_branch(j + 1, bp, frontier[:j] + (qp,) + frontier[j + 1:],
                                     w * amp)

        def k_step(b, frontier, w):
            for bp in (0, 1):
                amp = k_end[a][bp, b]
                if amp != 0.0:
                    minus_branch(0, bp, frontier, w * amp)

        def plus_branch(j, b, frontier, w):
            if j < 0:
                k_step(b, frontier, w)
                return
            q = frontier[j]
            for qp in (0, 1):
                for bp in (0, 1):
                    amp = r_plus[a][j][2 * qp + bp, 2 * q + b]
                    if amp != 0.0:
                        plus_branch(j - 1, bp, frontier[:j] + (qp,) + frontier[j + 1:],
                                    w * amp)

        for b0 in (0, 1):
            plus_branch(n - 1, b0, frontier, w * omega1bar_ket[a][b0])

    # seed: sum over the ket components of the quantum boundary state
    def seed(j, frontier, w):
        if j == n:
            bar_line(n - 1, frontier, w)
            return
        for q in (0, 1):
            seed(j + 1, frontier + (q,), w * omega2_ket[j][q])

    seed(0, (), 1.0 + 0.0j)
    return complex(total)


# ---------------------------------------------------------------------------
# Face-type route: dynamical one-row monodromy and creation operators.
# ---------------------------------------------------------------------------

def face_monodromy_apply(l: WeightVector, u: complex, phi,
                         spectral: SpectralConfig, setup: ModularSetup):
    """Apply the one-row monodromy T(l|u) to ``phi``.

    ``phi`` has axes (aux, site1..siteN, batch...); entry i-1 of the result's
    aux axis is sum_j T(l|u)^i_j phi[j-1].  Layer k is R_{0,k}(u - xi_k) with
    the weight shifted by the spins of sites 1..k-1.
    """
    for k in range(1, spectral.n + 1):
        phi = apply_sos_R(phi, u - spectral.xi[k - 1], l, setup, 0, k,
                          spectators=tuple(range(1, k)))
    return phi


def face_one_row_monodromy(l: WeightVector, u: complex,
                           spectral: SpectralConfig, setup: ModularSetup):
    """The four entries T(l|u)^i_j as dense operators on the quantum space."""
    n = spectral.n
    dim = 2 ** n
    # the identity on (aux, sites) as a batch of basis kets
    eye = np.eye(2 * dim, dtype=complex).reshape((2,) * (n + 1) + (2 * dim,))
    mat = face_monodromy_apply(l, u, eye, spectral, setup).reshape(2, dim, 2, dim)
    sites = tuple(range(1, n + 1))
    return {(i, j): DenseOperator(sites, mat[i - 1, :, j - 1])
            for i in (1, 2) for j in (1, 2)}


def _creation_scalars(m: WeightVector, bc: BoundaryConfig, u: complex,
                      spectral: SpectralConfig, setup: ModularSetup):
    lam = bc.weight
    pref = sigma(m.m21, setup) / _checked_sigma(lam.m21, setup, "sigma(l21)")
    for xk in spectral.xi:
        pref = pref * sigma(u + xk, setup) / _checked_sigma(
            u + xk + setup.eta, setup, "sigma(u+xi+eta)")
    k1 = sigma(bc.lambda1 + bc.zeta - u, setup) / _checked_sigma(
        bc.lambda1 + bc.zeta + u, setup, "sigma(l1+zeta+u)")
    k2 = sigma(bc.lambda2 + bc.zeta - u, setup) / _checked_sigma(
        bc.lambda2 + bc.zeta + u, setup, "sigma(l2+zeta+u)")
    return pref, k1, k2


def face_creation_apply(m: WeightVector, bc: BoundaryConfig, u: complex, psi,
                        spectral: SpectralConfig, setup: ModularSetup):
    """Apply the double-row creation operator to ``psi``.

    ``psi`` has axes (site1..siteN, batch...).  The two outer factors are
    both T(lambda|u), so they run as one batch of two.
    """
    lam = bc.weight
    eta = setup.eta
    pref, k1, k2 = _creation_scalars(m, bc, u, spectral, setup)
    psi = np.asarray(psi, dtype=complex)
    zero = np.zeros_like(psi)
    t = face_monodromy_apply(lam.shifted(2, eta, -1), -u - eta, np.stack([zero, psi]),
                             spectral, setup)[1]
    s = face_monodromy_apply(lam.shifted(1, eta, -1), -u - eta, np.stack([psi, zero]),
                             spectral, setup)[1]
    phi = np.stack([np.stack([t, zero], axis=-1), np.stack([zero, s], axis=-1)])
    ts = face_monodromy_apply(lam, u, phi, spectral, setup)[1]
    return pref * (k1 * ts[..., 0] - k2 * ts[..., 1])


def face_creation_operator(m: WeightVector, bc: BoundaryConfig, u: complex,
                           spectral: SpectralConfig,
                           setup: ModularSetup) -> DenseOperator:
    """The creation operator as a dense matrix on the quantum space."""
    n = spectral.n
    dim = 2 ** n
    eye = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    mat = face_creation_apply(m, bc, u, eye, spectral, setup).reshape(dim, dim)
    return DenseOperator(tuple(range(1, n + 1)), mat)


def partition_face_route(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Product of N creation operators between <1...1| and |2...2>."""
    n = spectral.n
    if n > MAX_FACE_N:
        raise SizeError(f"face route limited to N <= {MAX_FACE_N}, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    spectral.require_generic(setup)
    bc.require_generic(setup, n, spectral.u)
    lam = bc.weight
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(1,) * n] = 1.0
    for step in range(n, 0, -1):
        m = lam.shifted(1, setup.eta, -(2 * step - n))
        psi = face_creation_apply(m, bc, spectral.u[step - 1], psi, spectral, setup)
    return complex(psi[(0,) * n])
