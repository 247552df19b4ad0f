"""Brute-force partition-function routes.

Three independent evaluators of the same quantity:

* ``partition_bruteforce`` -- contracts the double-row monodromy product
  between the four boundary states, applying each R/K factor as a local
  update on a 2^(N+1) state vector (cost O(N^2 2^N)),
* ``partition_enumeration`` -- a micro-oracle that literally sums Boltzmann
  weights over all edge-spin configurations of the N x 2N reflecting
  lattice, built as one array sweep over the configurations (``tensor.times``
  products; exponential; N <= 2),
* ``partition_face_route`` -- the face-type route: a product of double-row
  pseudo-particle creation operators between the all-up bra and all-down
  ket, built from the dynamical one-row monodromy matrix.

``ROUTE_GUARDS`` holds the size guard of every route, these three and the
two closed forms, and ``_require_size`` is the one check of it that each
route's entry point makes; the oracles enter through ``_oracle_entry``.

The vertex routes read every R and K factor of a call from one table,
``_vertex_factors`` (one array ``vertex_R_matrix`` build over u_a +- xi_j and
one array ``vertex_K_matrix`` build over u_a, reading the configuration's
kept sigma(2u) and sigma(lambda_i + zeta + u)), and their boundary states from
``boundary.boundary_state_factors`` (one array build per family), all built
before the first contraction; the boundary families they check and the
face route's K read are kept by the configuration's ``SpectralGrids``.
The face route reads every dynamical R factor
of a call from one table, ``_face_R_table`` (one array ``sos_R_matrix``
build laid out by ``rmatrices.spectator_layers``, each sigma of one point
evaluated once per distinct point), and its creation scalars from one
``_creation_scalars`` call over its N points, all evaluated before the
first contraction; ``_apply_face_layers`` applies a batch of one-row
monodromies in place, each layer one call of ``rmatrices.apply_R_layer``,
the dynamical-R kernel the twist shares.  Dense operators apply the factors
to the identity as a batch of basis kets, as ``double_row_monodromy`` does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .boundary import BoundaryConfig, boundary_state_factors, face_K, vertex_K_matrix
from .elliptic import ModularSetup, sigma, sigma_separable
from .errors import SizeError
from .rmatrices import (Gathered, WeightVector, _floor_checked, apply_R_layer, sos_R_matrix,
                        spectator_blocks, spectator_layers, spectator_weight, vertex_R_matrix)
from .tensor import DenseOperator, apply_one_site, apply_two_site, product_state, times

# every route's size guard, in the default route order: the one table
ROUTE_GUARDS = {"enumeration": 2, "bruteforce": 12, "face": 10, "permsum": 9,
                "determinant": 512}


def _require_size(route: str, n: int):
    """Refuse N above ``route``'s guard in ``ROUTE_GUARDS``."""
    if n > ROUTE_GUARDS[route]:
        raise SizeError(f"{route} route limited to N <= {ROUTE_GUARDS[route]}, got {n}")


def _oracle_entry(route: str, spectral: SpectralConfig, bc: BoundaryConfig,
                  setup: ModularSetup) -> bool:
    """The oracles' one entry check: ``route``'s size guard, then False at
    N = 0 (Z = 1, nothing to contract), else the configuration's and the
    boundary's genericity checks, and True."""
    _require_size(route, spectral.n)
    if spectral.n == 0:
        return False
    spectral.require_generic(setup)
    bc.require_generic(spectral.grids(setup))
    return True


def _read_only(vals, family=None):
    """``vals``, made read-only; given a ``family`` name, refused first when
    a |sigma| in it is below the genericity floor."""
    if family is not None:
        _floor_checked(vals, f"sigma({family})")
    vals.flags.writeable = False
    return vals


def _log_product(values, ndim: int = 1):
    """Sum of complex logs over the trailing ``ndim`` axes, one per leading
    index; the real part may exceed the double exp range.  Summed as the
    real logs of the moduli, taken in place, plus i times the angles, which
    cost a sixth of numpy's complex log and equal its sum to rounding."""
    v = np.asarray(values, dtype=complex)
    v = v.reshape(v.shape[:v.ndim - ndim] + (-1,))
    moduli = np.abs(v)
    return np.sum(np.log(moduli, out=moduli), axis=-1) + 1j * np.sum(np.angle(v), axis=-1)


@lru_cache(maxsize=1)
def _pair_indices(n: int):
    """The read-only indices (a, b) of the pairs a < b of n points.  Only the
    last size requested is kept: a grid whose u and xi differ in size (the
    twist's one-point u against its N xi) builds its indices anew."""
    return tuple(_read_only(index) for index in np.triu_indices(n, k=1))


class SpectralGrids:
    """Every sigma table over (u, xi) that the genericity check and the closed
    forms read, each evaluated on first use and then kept read-only, and the
    pair families' checked log sum.

    ``u`` has shape (..., N): one configuration, or a stack of them along the
    leading axes; ``xi`` is shared, shape (N,), or stacked the same way.
    ``minus``, ``plus``, ``minus_eta``, ``plus_eta`` are sigma(u_a -+ xi_k)
    and sigma(u_a -+ xi_k + eta), indexed [..., a, k]: the determinant's
    matrix entries, each one ``sigma_separable`` product (O(N W) exps and a
    GEMM for a window of W terms), and a stacked grid equals its lone build
    bit for bit.  ``s2u``, sigma(2 u_a), has N points and stays one ``sigma``
    series call.  ``u_diff``, ``u_sum_eta``, ``xi_diff``, ``xi_sum`` are
    sigma(u_b - u_a), sigma(u_b + u_a + eta), sigma(xi_a - xi_b) and
    sigma(xi_a + xi_b) over the pairs a < b, indexed [..., pair], each a
    triangle of one full ``sigma_separable`` product, evaluated on every
    read and not kept: the routes read ``log_pairs``, their log sum, kept
    from one evaluation of each.
    ``xi_ratio`` is G[..., j, k] = sigma(xi_j - xi_k + eta) / sigma(xi_j - xi_k)
    with diagonal 1; its denominator is the product ``xi_diff`` is cut from.
    The xi-xi families of a shared xi are built once and broadcast against
    the stack.

    Every family but ``s2u`` is refused (SingularityError, naming it) when
    evaluated if a |sigma| in it, anywhere in the stack, is below the
    genericity floor, so reading a family, or ``log_pairs``, is its check;
    ``check_only`` checks the pair families that only the genericity check
    reads.

    ``lambda_zeta`` and ``lattice`` keep, per ``BoundaryConfig``, the boundary
    families over these points: each is evaluated, checked and named by
    the ``BoundaryConfig`` on first read and then kept read-only, so the
    draw, the oracles' check and K, the face route's K and the closed forms
    read one evaluation; a refused family raises on every read and is not
    kept.
    """

    def __init__(self, u, xi, setup: ModularSetup):
        self.u = np.asarray(u, dtype=complex)
        self.xi = np.asarray(xi, dtype=complex)
        self.setup = setup
        self.u_pairs = _pair_indices(self.u.shape[-1])
        self.xi_pairs = _pair_indices(self.xi.shape[-1])
        self._boundary = {}

    def lambda_zeta(self, bc: BoundaryConfig, v: str, v2: str = None):
        """(sigma(lambda1 + zeta + v), sigma(lambda2 + zeta + v2)) of ``bc``
        over the points v and v2, each "u", "-u", "xi" or "-xi" (v2 = v
        unless given); each is kept from the ``bc.sigma_lambda_zeta`` call
        that first evaluated it, with that call's bits."""
        keys = ((bc, 1, v), (bc, 2, v if v2 is None else v2))
        if not all(key in self._boundary for key in keys):
            points = {"u": self.u, "-u": -self.u, "xi": self.xi, "-xi": -self.xi}
            rows = bc.sigma_lambda_zeta(self.setup, *(points[key[2]] for key in keys))
            self._boundary.update(zip(keys, map(_read_only, rows)))
        return tuple(self._boundary[key] for key in keys)

    def lattice(self, bc: BoundaryConfig, k) -> np.ndarray:
        """``bc.sigma_lattice`` over the integer array ``k``, kept per list of k."""
        key = (bc, tuple(np.ravel(k).tolist()))
        if key not in self._boundary:
            self._boundary[key] = _read_only(bc.sigma_lattice(self.setup, k))
        return self._boundary[key]

    def _product(self, p, q, family, s, c=0.0, pairs=()):
        """sigma(p_i + s*q_j + c), indexed [..., i, j], or its entries over
        the index ``pairs``."""
        return _read_only(sigma_separable(p, q, self.setup, s, c)[(...,) + pairs], family)

    @cached_property
    def minus(self):
        return self._product(self.u, self.xi, "u_a - xi_k", -1)

    @cached_property
    def plus(self):
        return self._product(self.u, self.xi, "u_a + xi_k", 1)

    @cached_property
    def minus_eta(self):
        return self._product(self.u, self.xi, "u_a - xi_k + eta", -1, self.setup.eta)

    @cached_property
    def plus_eta(self):
        return self._product(self.u, self.xi, "u_a + xi_k + eta", 1, self.setup.eta)

    @cached_property
    def s2u(self):
        return _read_only(sigma(2 * self.u, self.setup))

    @property
    def u_diff(self):
        ia, ib = self.u_pairs
        return self._product(self.u, self.u, "u_b - u_a", -1, pairs=(ib, ia))

    @property
    def u_sum_eta(self):
        ia, ib = self.u_pairs
        return self._product(self.u, self.u, "u_b + u_a + eta", 1, self.setup.eta, (ib, ia))

    @cached_property
    def _xi_minus_xi(self):
        """sigma(xi_j - xi_k) for every (j, k)."""
        return sigma_separable(self.xi, self.xi, self.setup, -1)

    @property
    def xi_diff(self):
        return _read_only(self._xi_minus_xi[(...,) + self.xi_pairs], "xi_a - xi_b")

    @property
    def xi_sum(self):
        return self._product(self.xi, self.xi, "xi_a + xi_b", 1, pairs=self.xi_pairs)

    @cached_property
    def log_pairs(self):
        """log prod_{a<b} s(u_b-u_a) s(u_a+u_b+eta) s(xi_a-xi_b) s(xi_a+xi_b),
        one per configuration of the stack, 0 below two points: each pair
        family is evaluated, refused by name below the floor, summed by
        ``_log_product`` and dropped, one after another."""
        if self.u.shape[-1] < 2:
            return 0.0 + 0.0j
        return (_log_product(self.u_diff) + _log_product(self.u_sum_eta)
                + _log_product(self.xi_diff) + _log_product(self.xi_sum))

    @cached_property
    def xi_ratio(self):
        self.xi_diff  # G's denominators, refused below the floor
        num = sigma_separable(self.xi, self.xi, self.setup, -1, self.setup.eta)
        ratio = np.ones_like(num)
        np.divide(num, self._xi_minus_xi, out=ratio,
                  where=~np.eye(self.xi.shape[-1], dtype=bool))
        return _read_only(ratio)

    @cached_property
    def check_only(self) -> bool:
        """Checks sigma(u_a + u_b), sigma(u_a - u_b + eta) and
        sigma(u_b - u_a + eta), a < b (both triangles of one product), and
        keeps only the outcome, so a second check evaluates nothing."""
        if self.u.shape[-1] < 2:
            return True
        u, setup, (ia, ib) = self.u, self.setup, self.u_pairs
        _floor_checked(sigma_separable(u, u, setup)[..., ia, ib], "sigma(u_a + u_b)")
        minus_eta = sigma_separable(u, u, setup, -1, setup.eta)
        _floor_checked(minus_eta[..., ia, ib], "sigma(u_a - u_b + eta)")
        _floor_checked(minus_eta[..., ib, ia], "sigma(u_b - u_a + eta)")
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
        for family in ("minus", "plus", "minus_eta", "plus_eta", "log_pairs",
                       "check_only"):
            getattr(g, family)


# ---------------------------------------------------------------------------
# Vertex-type double-row monodromy and its contraction.
# ---------------------------------------------------------------------------

def _vertex_factors(us, xi, bc: BoundaryConfig, setup: ModularSetup, g=None):
    """The vertex factors of the bar lines at ``us``, one tuple per line:
    ([R(u + xi_j)]_j, K(u), [R(u - xi_j)]_j), j = 1..N.  Every R comes from
    one ``vertex_R_matrix`` build over the (2, len(us), N) arguments
    u_a +- xi_j and every K from one ``vertex_K_matrix`` build over us, which
    reads sigma(2u) and sigma(lambda_i + zeta + u) from the configuration's
    grids ``g`` when ``us`` is its u."""
    u = np.asarray(us, dtype=complex)
    x = np.asarray(xi, dtype=complex)[None, :]
    r_plus, r_minus = vertex_R_matrix(np.stack([u[:, None] + x, u[:, None] - x]), setup)
    kept = None if g is None else (g.s2u, *g.lambda_zeta(bc, "u"))
    return list(zip(r_plus, vertex_K_matrix(u, bc, setup, kept), r_minus))


def _apply_double_row(phi, factors, aux_axis):
    """Contract one bar line's ``_vertex_factors`` into ``phi``.

    ``phi`` has quantum sites on axes 0..N-1 and the bar (auxiliary) site on
    ``aux_axis``; factors act right-to-left: +xi branch (site N..1), the
    reflection matrix, then the -xi branch (site 1..N).
    """
    r_plus, k, r_minus = factors
    n = len(r_plus)
    for j in range(n, 0, -1):
        phi = apply_two_site(phi, r_plus[j - 1], j - 1, aux_axis)
    phi = apply_one_site(phi, k, aux_axis)
    for j in range(1, n + 1):
        phi = apply_two_site(phi, r_minus[j - 1], aux_axis, j - 1)
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
    phi = _apply_double_row(phi, _vertex_factors([u_i], spectral.xi, bc, setup)[0],
                            aux_axis=n)
    mat = np.moveaxis(phi, n, 0).reshape(dim, dim)
    return DenseOperator((aux,) + tuple(range(1, n + 1)), mat)


def partition_bruteforce(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Contract the monodromy product between the four boundary states."""
    if not _oracle_entry("bruteforce", spectral, bc, setup):
        return 1.0 + 0.0j
    n = spectral.n
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = boundary_state_factors(
        bc, spectral.xi, spectral.u, setup)
    # factors first: a complex GEMM leaves AVX state dirty, slowing scalar theta after it
    factors = _vertex_factors(spectral.u, spectral.xi, bc, setup, spectral.grids(setup))
    psi = product_state(omega2_ket).reshape((2,) * n)
    for a in range(n, 0, -1):
        phi = np.tensordot(psi, omega1bar_ket[a - 1], axes=0)  # aux on last axis
        phi = _apply_double_row(phi, factors[a - 1], aux_axis=n)
        psi = np.tensordot(phi, omega2bar_bra[a - 1], axes=([n], [0]))
    return complex(np.dot(product_state(omega1_bra), psi.ravel()))


def _expand(state, w, mat, bits):
    """Replace each row by its children over the outgoing spins of ``mat``
    ([out, in], the spins on ``bits`` of ``state`` read as a binary number,
    first bit most significant), in (row, out) order, each weighted by its
    entry; exact zero entries are dropped."""
    idx = 0
    for b in bits:
        idx = 2 * idx + ((state >> b) & 1)
    amps = np.take(mat.T, idx, axis=0)
    kept = np.flatnonzero(amps != 0)
    row, out = np.divmod(kept, len(mat))
    state, out = np.take(state, row), out.astype(state.dtype)
    for b in reversed(bits):
        state = state & ~(1 << b) | (out & 1) << b
        out >>= 1
    return state, times(np.take(w, row), np.take(amps, kept))


def _configuration_weights(spectral: SpectralConfig, bc: BoundaryConfig,
                           setup: ModularSetup) -> np.ndarray:
    """Each configuration's Boltzmann-weight product, in depth-first order,
    every configuration with no zero R, K or ket entry swept as one array.

    A row is a small int, whose bit j - 1 is the spin of site j's vertical
    edge on the frontier and bit N the spin of the bar edge, and a weight.
    The rows start as the ket configurations; each bar line a = N..1
    expands them over its incoming bar spin, the +xi branch (site N..1), K
    and the -xi branch (site 1..N), then its bra; the bra closes the sites.
    """
    n = spectral.n
    omega1_bra, omega2bar_bra, omega1bar_ket, omega2_ket = boundary_state_factors(
        bc, spectral.xi, spectral.u, setup)
    factors = _vertex_factors(spectral.u, spectral.xi, bc, setup, spectral.grids(setup))
    state, w = np.zeros(1, dtype=np.int16), np.ones(1, dtype=complex)
    # a ket v as [out, in]: every column v, the spin set whatever it held
    for j in range(n):
        state, w = _expand(state, w, np.outer(omega2_ket[j], (1, 1)), [j])
    for a in range(n - 1, -1, -1):
        r_plus, k, r_minus = (np.asarray(f) for f in factors[a])
        state, w = _expand(state, w, np.outer(omega1bar_ket[a], (1, 1)), [n])
        for j in range(n - 1, -1, -1):
            state, w = _expand(state, w, r_plus[j], [j, n])
        state, w = _expand(state, w, k, [n])
        for j in range(n):
            state, w = _expand(state, w, r_minus[j], [n, j])
        w = times(w, omega2bar_bra[a][(state >> n) & 1])
    for j in range(n):
        w = times(w, omega1_bra[j][(state >> j) & 1])
    return w


def partition_enumeration(spectral: SpectralConfig, bc: BoundaryConfig,
                          setup: ModularSetup) -> complex:
    """Sum of Boltzmann-weight products over all edge-spin configurations.

    Every internal edge of the reflecting lattice carries a spin; each bulk
    vertex contributes the matching eight-vertex R element, each reflection
    end a K element, and the open boundary edges the boundary-state
    components.  ``_configuration_weights`` builds each configuration's own
    product in one array sweep, sharing no partial product, so the oracle is
    independent of ``tensor``; the products are added once, in depth-first
    order.  The boundary lattice sweep runs first, as in the other oracles,
    so a zero of sigma(lambda12 + k eta) is refused under that name.
    """
    if not _oracle_entry("enumeration", spectral, bc, setup):
        return 1.0 + 0.0j
    # one after another: np.sum would add in pairs
    return complex(np.cumsum(_configuration_weights(spectral, bc, setup))[-1])


# ---------------------------------------------------------------------------
# Face-type route: dynamical one-row monodromy and creation operators.
# ---------------------------------------------------------------------------

def _face_R_table(weights, us, rows, spectral: SpectralConfig, setup: ModularSetup):
    """Every R factor of the one-row monodromies T(weights[t] | us[rows[t]][s]),
    as one ``sos_R_matrix`` stack of shape (T, S, N(N+1)/2, 4, 4).

    Axis 2 is ``rmatrices.spectator_layers(N)``: site k's factor is
    ``layer(k - 1)``, R(u - xi_k; l seen with n2 of the spectators 1..k-1 in
    spin 2), n2 = 0..k-1, the stack ``spectator_blocks`` gathers from.
    Both arguments are ``Gathered``, so sigma(u - xi_k) and sigma(u - xi_k +
    eta) are evaluated once per row of ``us`` (monodromies that share an
    argument share a row), s and k, and the weight's families once per t and
    shift k - 2 n2, on the distinct points of the full table.
    """
    xi = np.asarray(spectral.xi, dtype=complex)
    n, us = len(xi), np.asarray(us, dtype=complex)
    spectators, n2 = spectator_layers(n)  # k spectators precede site k + 1
    u = Gathered(us[:, :, None] - xi, (np.asarray(rows)[:, None, None],
                                       np.arange(us.shape[1])[:, None], spectators))
    # layer entry (k, n2) sees the weight of shift k - 2 n2 in 1 - N..N - 1
    m = WeightVector(np.array([l.m1 for l in weights])[:, None],
                     np.array([l.m2 for l in weights])[:, None])
    m = Gathered(spectator_weight(m, setup.eta, np.arange(1 - n, n), 0),
                 (np.arange(len(weights))[:, None, None], spectators - 2 * n2 + n - 1))
    return sos_R_matrix(u, m, setup)


def _apply_face_layers(phi, blocks, n: int):
    """Apply B one-row monodromies in place to the C-contiguous ``phi`` of
    axes (B, aux, site1..siteN, batch...) and return it, b reading the
    ``spectator_blocks`` ``blocks[b]`` of its ``_face_R_table`` row; layer k
    is one ``apply_R_layer`` on (B, aux, 2^k spectators, site k + 1, rest)."""
    for k in range(n):
        apply_R_layer(phi, blocks, k)
    return phi


def face_monodromy_apply(l: WeightVector, u: complex, phi,
                         spectral: SpectralConfig, setup: ModularSetup):
    """Apply the one-row monodromy T(l|u) to ``phi``.

    ``phi`` has axes (aux, site1..siteN, batch...); entry i-1 of the result's
    aux axis is sum_j T(l|u)^i_j phi[j-1].
    """
    blocks = spectator_blocks(_face_R_table([l], [[u]], (0,), spectral, setup)[0], spectral.n)
    return _apply_face_layers(np.array(phi, dtype=complex, order="C")[None], blocks, spectral.n)[0]


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


def _creation_scalars(ms: WeightVector, bc: BoundaryConfig, a,
                      spectral: SpectralConfig, setup: ModularSetup):
    """(pref, k1, k2) of the creation operators at u_a and weights ``ms``, each
    an array over the indices ``a``, one index or every index in some order:
    pref = sigma(m12)/sigma(l12) prod_k sigma(u_a + xi_k)/sigma(u_a + xi_k +
    eta), the last from the grids, and k_i = sigma(lambda_i + zeta - u_a) /
    sigma(lambda_i + zeta + u_a), the diagonal of ``face_K``.  Every index
    reads the kept boundary families, evaluated on the same set of points;
    one index evaluates ``face_K`` at its own point alone, so it refuses
    only its own sigma(lambda_i + zeta +- u_a)."""
    g = spectral.grids(setup)
    pref = (sigma(ms.m12, setup) / bc.sigma_lattice(setup, 0)
            * np.prod(g.plus[a] / g.plus_eta[a], axis=-1))
    if np.ndim(a):
        k1, k2 = np.divide(g.lambda_zeta(bc, "-u"), g.lambda_zeta(bc, "u"))[:, a]
    else:
        k1, k2 = np.diagonal(face_K(bc, g.u[a], setup))
    return pref, k1, k2


def _creation_R_table(bc: BoundaryConfig, us, spectral: SpectralConfig,
                      setup: ModularSetup):
    """The ``_face_R_table`` of the creation operators at every u in ``us``:
    axis 0 is (inner T, inner S, outer), the monodromies T(lambda + eta
    e_hat_2 | -u - eta), T(lambda + eta e_hat_1 | -u - eta) and T(lambda|u)."""
    lam, eta = bc.weight, setup.eta
    us = np.asarray(us, dtype=complex)
    return _face_R_table((lam.shifted(2, eta, -1), lam.shifted(1, eta, -1), lam),
                         (-us - eta, us), (0, 0, 1), spectral, setup)


def _apply_creation(psi, scalars, table, n: int):
    """Apply one creation operator, given its ``_creation_scalars`` and its
    column of ``_creation_R_table``, to ``psi`` (axes site1..siteN, batch...).
    The two inner monodromies run as a batch of two, the two outer factors,
    both T(lambda|u), as a trailing batch axis of two."""
    pref, k1, k2 = scalars
    blocks, psi = spectator_blocks(table, n), np.asarray(psi, dtype=complex)
    inner = np.zeros((2, 2) + psi.shape, dtype=complex)
    inner[0, 1] = inner[1, 0] = psi
    _apply_face_layers(inner, blocks[:2], n)
    outer = np.zeros((1, 2) + psi.shape + (2,), dtype=complex)
    outer[0, 0, ..., 0], outer[0, 1, ..., 1] = inner[0, 1], inner[1, 1]
    ts = _apply_face_layers(outer, blocks[2:], n)[0, 1]
    return pref * (k1 * ts[..., 0] - k2 * ts[..., 1])


def face_creation_apply(m: WeightVector, bc: BoundaryConfig, a: int, psi,
                        spectral: SpectralConfig, setup: ModularSetup):
    """Apply the double-row creation operator at weight ``m`` and u_a =
    spectral.u[a] to ``psi``, whose axes are (site1..siteN, batch...)."""
    scalars = _creation_scalars(m, bc, a, spectral, setup)
    table = _creation_R_table(bc, [spectral.u[a]], spectral, setup)[:, 0]
    return _apply_creation(psi, scalars, table, spectral.n)


def face_creation_operator(m: WeightVector, bc: BoundaryConfig, a: int,
                           spectral: SpectralConfig,
                           setup: ModularSetup) -> DenseOperator:
    """The creation operator at u_a as a dense matrix on the quantum space."""
    n = spectral.n
    dim = 2 ** n
    eye = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    mat = face_creation_apply(m, bc, a, eye, spectral, setup).reshape(dim, dim)
    return DenseOperator(tuple(range(1, n + 1)), mat)


def partition_face_route(spectral: SpectralConfig, bc: BoundaryConfig,
                         setup: ModularSetup) -> complex:
    """Product of N creation operators between <1...1| and |2...2>, the one
    at u_a (a = N-1..0) at weight lambda - (2a + 2 - N) eta e_hat_1."""
    if not _oracle_entry("face", spectral, bc, setup):
        return 1.0 + 0.0j
    n = spectral.n
    a = np.arange(n - 1, -1, -1)
    ms = bc.weight.shifted(1, setup.eta, -(2 * a + 2 - n))
    pref, k1, k2 = _creation_scalars(ms, bc, a, spectral, setup)
    table = _creation_R_table(bc, np.asarray(spectral.u)[a], spectral, setup)
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(1,) * n] = 1.0
    for i in range(n):
        psi = _apply_creation(psi, (pref[i], k1[i], k2[i]), table[:, i], n)
    return complex(psi[(0,) * n])
