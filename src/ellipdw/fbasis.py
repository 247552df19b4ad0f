"""Factorizing twist of the dynamical model at desk scale (N <= 5).

``r_s_operator`` applies the elementary dynamical R-factors of a reduced
word to the identity as a batch of basis kets, each letter one
``rmatrices.apply_R_layer`` on its layer of one ``_twist_R_table`` per call;
``f_matrix`` assembles the lower-triangular factorizing twist as the
projected permutation sum from one such table, and ``factorizing_residual``
reads F, every relabeled F_s and every R^s from one; the twisted one-row and
double-row (creation) operators are checked against their polarization-free
tensor-product forms, read from ``SpectralGrids``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .boundary import BoundaryConfig
from .closedform import _boundary_vectors, _log_uxi_ratio, _permsum_ab
from .elliptic import ModularSetup, sigma
from .errors import DomainError, SingularityError, SizeError
from .oracle import (SpectralConfig, SpectralGrids, face_creation_operator,
                     face_one_row_monodromy)
from .rmatrices import (GENERICITY_FLOOR, WeightVector, apply_R_layer, sos_R_matrix,
                        spectator_blocks, spectator_layers, spectator_weight)
from .tensor import DenseOperator

MAX_F_N = 5


@dataclass(frozen=True)
class PermutationWord:
    """A permutation given as the sequence (s(1), ..., s(N)) plus a reduced word."""

    seq: tuple
    word: tuple

    @property
    def length(self) -> int:
        return len(self.word)


def inversion_count(seq) -> int:
    return sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
               if seq[i] > seq[j])


def reduced_word(seq) -> PermutationWord:
    """A minimal elementary-transposition word producing ``seq`` from identity.

    Bubble-sorts ``seq`` back to the identity, fixing one adjacent inversion
    per step; the reversed swap positions form a reduced word (its length
    equals the inversion count).
    """
    target = tuple(seq)
    cur = list(target)
    rev = []
    while True:
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                rev.append(i + 1)  # positions are 1-based
                break
        else:
            break
    word = tuple(reversed(rev))
    assert len(word) == inversion_count(target)
    return PermutationWord(target, word)


def _twist_R_table(l: WeightVector, spectral: SpectralConfig, setup: ModularSetup):
    """Every R factor a word letter can apply, from one ``sos_R_matrix``
    build: entry [a - 1, b - 1] is R(xi_a - xi_b; l) shifted along the layer
    axis ``rmatrices.spectator_layers(N - 1)``, shape (N, N, N(N-1)/2, 4, 4).
    Every twist operator reads one; N is refused above ``MAX_F_N``."""
    xi = np.asarray(spectral.xi, dtype=complex)
    if len(xi) > MAX_F_N:
        raise SizeError(f"twist operators limited to N <= {MAX_F_N}, got {len(xi)}")
    k, n2 = spectator_layers(len(xi) - 1)
    u = (xi[:, None] - xi)[..., None]
    return sos_R_matrix(u, spectator_weight(l, setup.eta, k, n2), setup)


def _word_operator(s: PermutationWord, table, base: tuple) -> np.ndarray:
    """The matrix of ``s``'s word on the site sequence ``base``: letter beta,
    R on sites (seq[beta], seq[beta+1]) shifted by the spins of
    seq[1..beta-1], is one ``apply_R_layer`` of layer beta - 1 on the
    identity batch transposed to (seq[beta], seq[1..beta-1], seq[beta+1], rest).

    A letter outside 1..N-1, or a word that does not produce ``s.seq``, is
    refused before any R is applied."""
    n, rel, letters = len(base), tuple(range(1, len(base) + 1)), []
    blocks = spectator_blocks(table, n - 1)
    for beta in s.word:
        if not 1 <= beta < n:
            raise DomainError(f"word {s.word}: letter {beta} is outside 1..{n - 1}")
        *spectators, a, b = (base[c - 1] - 1 for c in rel[:beta + 1])
        axes = (a, *spectators, b)
        letters.append((blocks[a, b], beta - 1,
                        axes + tuple(ax for ax in range(n + 1) if ax not in axes)))
        rel = rel[:beta - 1] + (rel[beta], rel[beta - 1]) + rel[beta + 1:]
    if rel != tuple(s.seq):
        raise DomainError(f"word {s.word} produces {rel}, not {tuple(s.seq)}")
    op = np.eye(2 ** n, dtype=complex).reshape((2,) * n + (2 ** n,))
    for ab_blocks, k, perm in letters:
        # a C-ordered copy: the kernel's reshape must be a view to update it
        view = np.array(op.transpose(perm), order="C")
        apply_R_layer(view[None], ab_blocks[None], k)
        op = view.transpose(sorted(range(n + 1), key=perm.__getitem__))
    return op.reshape(2 ** n, 2 ** n)


def r_s_operator(s: PermutationWord, l: WeightVector, spectral: SpectralConfig,
                 setup: ModularSetup) -> DenseOperator:
    """Operator attached to a permutation by the composition law, its R
    factors from one ``_twist_R_table``."""
    sites = tuple(range(1, spectral.n + 1))
    return DenseOperator(sites, _word_operator(s, _twist_R_table(l, spectral, setup), sites))


def _valid_chains(seq):
    """Spin chains along ``seq`` allowed by the non-decreasing selection rule.

    A chain assigns alpha in {1, 2} to each position, non-decreasing along
    the sequence with a strict increase at every descent of ``seq``; chains
    are 1^d 2^(N-d), so descents pin the single switch position.
    """
    n = len(seq)
    descents = [i for i in range(n - 1) if seq[i + 1] < seq[i]]
    if len(descents) > 1:
        return []
    if len(descents) == 1:
        return [descents[0] + 1]
    return list(range(n + 1))


def _twist(table, base: tuple) -> np.ndarray:
    """The twist on the site sequence ``base`` (1..N for F, s for the
    relabeled F_s of the factorizing property) as the projected sum over
    permutations, every word's R factors from ``table``."""
    n = len(base)
    total = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for rel in permutations(range(1, n + 1)):
        seq = tuple(base[r - 1] for r in rel)
        switches = _valid_chains(seq)
        if not switches:
            continue
        rs = _word_operator(reduced_word(rel), table, base)
        for d in switches:
            # positions 1..d carry spin 1, positions d+1..N spin 2
            row = sum(1 << (n - site) for site in seq[d:])
            total[row, :] += rs[row, :]
    return total


def f_matrix(l: WeightVector, spectral: SpectralConfig, setup: ModularSetup) -> DenseOperator:
    """The factorizing twist F on sites 1..N from one ``_twist_R_table``."""
    sites = tuple(range(1, spectral.n + 1))
    return DenseOperator(sites, _twist(_twist_R_table(l, spectral, setup), sites))


def factorizing_residual(l: WeightVector, spectral: SpectralConfig,
                         setup: ModularSetup) -> float:
    """max over s in S_N of |F_s R^s - F| / max|F|, with F, every relabeled
    twist F_s and every R^s read from one ``_twist_R_table``."""
    table = _twist_R_table(l, spectral, setup)
    sites = tuple(range(1, spectral.n + 1))
    f = _twist(table, sites)
    gaps = [np.max(np.abs(_twist(table, s) @ _word_operator(reduced_word(s), table, sites) - f))
            for s in permutations(sites)]
    return float(np.max(gaps) / np.max(np.abs(f)))


def basis_order(n: int) -> np.ndarray:
    """Basis permutation: sort states by spin multiset, then lexicographically."""
    states = sorted(range(2 ** n), key=lambda x: (bin(x).count("1"), x))
    return np.array(states, dtype=np.intp)


def triangularity_defect(f: DenseOperator) -> float:
    """Max |entry| above the diagonal in the sorted basis order."""
    n = f.n_sites
    order = basis_order(n)
    mat = f.mat[np.ix_(order, order)]
    return float(np.max(np.abs(np.triu(mat, k=1))))


def f_inverse_matrix(f: DenseOperator) -> np.ndarray:
    """Inverse by forward substitution in the sorted basis order, where it is
    exactly lower-triangular, as F is."""
    n = f.n_sites
    order = basis_order(n)
    lower = f.mat[np.ix_(order, order)]
    diag = np.abs(np.diag(lower))
    if float(diag.min()) < GENERICITY_FLOOR:
        raise SingularityError(f"twist near-degenerate: min |diag| = {diag.min():.2e}")
    inv_sorted = np.zeros_like(lower)
    for i in range(len(lower)):
        inv_sorted[i, :i] = -(lower[i, :i] @ inv_sorted[:i, :i]) / lower[i, i]
        inv_sorted[i, i] = 1.0 / lower[i, i]
    out = np.empty_like(inv_sorted)
    out[np.ix_(order, order)] = inv_sorted
    return out


def extremal_invariance_residual(f: DenseOperator) -> float:
    """max(||F|2..2> - |2..2>||, ||<1..1|F - <1..1|||) of a built twist."""
    mat, eye = f.mat, np.eye(2 ** f.n_sites)
    return float(max(np.max(np.abs(mat[:, -1] - eye[-1])), np.max(np.abs(mat[0] - eye[0]))))


# ---------------------------------------------------------------------------
# Polarization-free forms of the twisted operators.
# ---------------------------------------------------------------------------

def _spin2(n: int) -> np.ndarray:
    """(2^N, N): 1 where site j (column j - 1) of a basis state is in spin 2."""
    return (np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1


def _diag_dressing(factors, n: int) -> np.ndarray:
    """Diagonal of prod_j diag(f_j, 1)_(j), f_j = factors[..., j - 1]."""
    return np.prod(np.where(_spin2(n) == 0, np.asarray(factors)[..., None, :], 1.0), axis=-1)


def _raising_sum(coeff, factors, n: int) -> np.ndarray:
    """sum_i coeff[i] E_12^(i) (x) prod_{j != i} diag(factors[i, j], 1)_(j) as
    a dense 2^N matrix (sites and indices 0-based)."""
    # E_12^(i) takes the states with site i in spin 2 (dressing factor 1) to spin 1
    site, state = np.nonzero(_spin2(n).T)
    flipped = state ^ (1 << (n - 1 - site))
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    out[flipped, state] = coeff[site] * _diag_dressing(factors, n)[site, state]
    return out


def twisted_t21_explicit(l: WeightVector, u: complex, spectral: SpectralConfig,
                         setup: ModularSetup) -> np.ndarray:
    """Polarization-free form of the twisted one-row operator T~^2_1:
    sum_i c_i E_12^i (x) prod_{j != i} diag(s(u - xi_j) G[i, j] / s(u - xi_j + eta), 1)_j,
    c_i = s(eta) s(u - xi_i + l12) / (s(u - xi_i + eta) s(l12))."""
    at_u = SpectralGrids((u,), spectral.xi, setup)
    coeff = (sigma(setup.eta, setup) * sigma(u - at_u.xi + l.m12, setup)
             / (at_u.minus_eta[0] * sigma(l.m12, setup)))
    dress = at_u.minus[0] / at_u.minus_eta[0] * spectral.grids(setup).xi_ratio
    return _raising_sum(coeff, dress, spectral.n)


def twisted_t22_explicit(l: WeightVector, u: complex, spectral: SpectralConfig,
                         setup: ModularSetup) -> np.ndarray:
    """Polarization-free form of the twisted one-row operator T~^2_2.

    Diagonal: sigma(l21-eta)/sigma(l21-eta+eta*n_up) per weight sector,
    dressed with per-site ratios; fixed by direct conjugation with the twist.
    """
    n = spectral.n
    eta = setup.eta
    at_u = SpectralGrids((u,), spectral.xi, setup)
    n_up = n - _spin2(n).sum(axis=1)
    pref = sigma(l.m21 - eta, setup) / sigma(l.m21 - eta + eta * n_up, setup)
    return np.diag(pref * _diag_dressing(at_u.minus[0] / at_u.minus_eta[0], n))


def twisted_one_row_residual(l: WeightVector, u: complex,
                             spectral: SpectralConfig, setup: ModularSetup) -> float:
    """Conjugated one-row entries vs their polarization-free forms."""
    f_l = f_matrix(l, spectral, setup)
    t = face_one_row_monodromy(l, u, spectral, setup)
    worst = 0.0
    for (i, j), explicit in (((2, 1), twisted_t21_explicit(l, u, spectral, setup)),
                             ((2, 2), twisted_t22_explicit(l, u, spectral, setup))):
        f_in = f_inverse_matrix(f_matrix(l.shifted(j, setup.eta), spectral, setup))
        twisted = f_l.mat @ t[(i, j)].mat @ f_in
        scale = max(1.0, float(np.max(np.abs(explicit))))
        worst = max(worst, float(np.max(np.abs(twisted - explicit))) / scale)
    return worst


def twisted_creation_explicit(m: WeightVector, bc: BoundaryConfig, u: complex,
                              spectral: SpectralConfig,
                              setup: ModularSetup) -> np.ndarray:
    """Completely symmetric polarization-free form of the creation operator.

    scalar * sum_i A[0, i] E_12^i (x) prod_{j != i} diag(B[0, j] G[i, j], 1)_j,
    with A, B, G the closed-form permutation-sum tables at the single point
    u, right-multiplied by a diagonal weight sigma(l12)/sigma(l12 - k eta)
    on input sectors with k up spins.
    Both the scalar sigma(m12)/sigma(l12) and the sector weight are fixed by
    direct conjugation with the factorizing twist (machine precision at
    N <= 4).
    """
    n = spectral.n
    at_u = SpectralGrids((u,), spectral.xi, setup)
    table_a, table_b = _permsum_ab(at_u, *_boundary_vectors(at_u, bc))
    table_g = spectral.grids(setup).xi_ratio
    lattice = bc.sigma_lattice(setup, -np.arange(n + 1))  # sigma(l12 - k eta)
    scalar = sigma(m.m12, setup) / lattice[0] * cmath.exp(_log_uxi_ratio(at_u))
    out = _raising_sum(table_a[0], table_b[0] * table_g, n)
    ups = n - _spin2(n).sum(axis=1)
    return scalar * (out * (lattice[0] / lattice[ups])[None, :])


def twisted_creation_residual(bc: BoundaryConfig, spectral: SpectralConfig,
                              setup: ModularSetup) -> float:
    """Largest relative gap, over the N creation operators, between a
    conjugated creation operator and its polarization-free form; one F(lambda)
    and one F(lambda)^-1 conjugate all N.

    Both conjugating twists carry the argument lambda: the inner twist
    arguments of the two monodromy factors cancel (e_hat_2 = -e_hat_1), so
    the products telescope with constant end caps, which the extremal-state
    invariance then removes.
    """
    n = spectral.n
    if n > 4:
        raise SizeError(f"twisted creation check limited to N <= 4, got {n}")
    lam = bc.weight
    f_lam = f_matrix(lam, spectral, setup)
    f_inv = f_inverse_matrix(f_lam)

    def gap(index):
        m = lam.shifted(1, setup.eta, n - 2 * (index + 1))
        twisted = f_lam.mat @ face_creation_operator(m, bc, index, spectral, setup).mat @ f_inv
        explicit = twisted_creation_explicit(m, bc, spectral.u[index], spectral, setup)
        return np.max(np.abs(twisted - explicit)) / max(1e-300, np.max(np.abs(explicit)))

    return float(np.max([gap(index) for index in range(n)]))
