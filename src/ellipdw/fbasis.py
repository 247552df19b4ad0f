"""Factorizing twist of the dynamical model at desk scale (N <= 5).

``r_s_operator`` applies the elementary dynamical R-factors of a reduced
word, each through ``rmatrices.apply_sos_R``, to the identity as a batch of
basis kets; ``f_matrix`` assembles the lower-triangular factorizing twist
as the projected permutation sum; the twisted one-row and double-row (creation)
operators are checked against their polarization-free tensor-product forms.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import permutations

import numpy as np
import scipy.linalg

from .boundary import BoundaryConfig
from .closedform import _boundary_vectors, _log_uxi_ratio, _permsum_ab
from .elliptic import ModularSetup, sigma
from .errors import SingularityError, SizeError
from .oracle import (SpectralConfig, SpectralGrids, face_creation_operator,
                     face_one_row_monodromy)
from .rmatrices import GENERICITY_FLOOR, WeightVector, apply_sos_R
from .tensor import DenseOperator, embed_matrix

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


def _apply_to_seq(base, rel):
    return tuple(base[r - 1] for r in rel)


def r_s_operator(s: PermutationWord, l: WeightVector, spectral: SpectralConfig,
                 setup: ModularSetup, base=None) -> DenseOperator:
    """Operator attached to a permutation by the composition law.

    ``base`` is the starting site sequence (identity by default); the word's
    positions act on the running sequence, so the operator for ``s`` built on
    a permuted base realizes the relabeling convention of the factorizing
    property.
    """
    n = spectral.n
    if n > MAX_F_N:
        raise SizeError(f"permutation operators limited to N <= {MAX_F_N}, got {n}")
    dim = 2 ** n
    # the identity as a batch of basis kets; letter beta is R on sites
    # (seq[beta], seq[beta+1]) shifted by the spins of seq[1..beta-1]
    op = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    seq = tuple(base) if base is not None else tuple(range(1, n + 1))
    target = _apply_to_seq(seq, s.seq)
    for beta in s.word:
        a, b = seq[beta - 1], seq[beta]
        op = apply_sos_R(op, spectral.xi[a - 1] - spectral.xi[b - 1], l, setup,
                         a - 1, b - 1, spectators=tuple(c - 1 for c in seq[:beta - 1]))
        seq = seq[:beta - 1] + (seq[beta], seq[beta - 1]) + seq[beta + 1:]
    if seq != target:
        raise ValueError(f"word {s.word} does not produce sequence {target}")
    return DenseOperator(tuple(range(1, n + 1)), op.reshape(dim, dim))


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


def f_matrix(l: WeightVector, spectral: SpectralConfig, setup: ModularSetup,
             base=None) -> DenseOperator:
    """The factorizing twist as the projected sum over permutations.

    ``base`` selects the site sequence the twist is built on (the relabeled
    twists entering the factorizing property); default is 1..N.
    """
    n = spectral.n
    if n > MAX_F_N:
        raise SizeError(f"twist construction limited to N <= {MAX_F_N}, got {n}")
    dim = 2 ** n
    base = tuple(base) if base is not None else tuple(range(1, n + 1))
    total = np.zeros((dim, dim), dtype=complex)
    for rel in permutations(range(1, n + 1)):
        seq = _apply_to_seq(base, rel)
        switches = _valid_chains(seq)
        if not switches:
            continue
        rs = r_s_operator(reduced_word(rel), l, spectral, setup, base=base).mat
        for d in switches:
            # positions 1..d carry spin 1, positions d+1..N spin 2
            row = 0
            for pos, site in enumerate(seq):
                spin = 0 if pos < d else 1
                row |= spin << (n - site)
            total[row, :] += rs[row, :]
    return DenseOperator(tuple(range(1, n + 1)), total)


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
    """Inverse via triangular solve in the sorted basis order."""
    n = f.n_sites
    order = basis_order(n)
    lower = f.mat[np.ix_(order, order)]
    diag = np.abs(np.diag(lower))
    if float(diag.min()) < GENERICITY_FLOOR:
        raise SingularityError(f"twist near-degenerate: min |diag| = {diag.min():.2e}")
    inv_sorted = scipy.linalg.solve_triangular(
        lower, np.eye(2 ** n, dtype=complex), lower=True, check_finite=False)
    out = np.empty_like(inv_sorted)
    out[np.ix_(order, order)] = inv_sorted
    return out


def extremal_invariance_residual(l: WeightVector, spectral: SpectralConfig,
                                 setup: ModularSetup) -> float:
    """max(||F|2..2> - |2..2>||, ||<1..1|F - <1..1|||)."""
    f = f_matrix(l, spectral, setup).mat
    n = int(np.log2(f.shape[0]))
    down = np.zeros(2 ** n, dtype=complex)
    down[-1] = 1.0
    up = np.zeros(2 ** n, dtype=complex)
    up[0] = 1.0
    return float(max(np.max(np.abs(f @ down - down)),
                     np.max(np.abs(up @ f - up))))


# ---------------------------------------------------------------------------
# Polarization-free forms of the twisted operators.
# ---------------------------------------------------------------------------

def _diag_dressing(values_by_site, n):
    """Diagonal operator prod_j diag(f_j, 1)_(j) from per-site factors."""
    diag = np.ones(2 ** n, dtype=complex)
    for j, fj in values_by_site.items():
        bit = (np.arange(2 ** n) >> (n - j)) & 1
        diag = diag * np.where(bit == 0, fj, 1.0)
    return diag


def twisted_t21_explicit(l: WeightVector, u: complex, spectral: SpectralConfig,
                         setup: ModularSetup) -> np.ndarray:
    """Polarization-free form of the twisted one-row operator T~^2_1."""
    n = spectral.n
    xi = spectral.xi
    eta = setup.eta
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(1, n + 1):
        coeff = (sigma(eta, setup) * sigma(u - xi[i - 1] + l.m12, setup)
                 / (sigma(u - xi[i - 1] + eta, setup) * sigma(l.m12, setup)))
        dress = _diag_dressing({
            j: (sigma(u - xi[j - 1], setup) * sigma(xi[i - 1] - xi[j - 1] + eta, setup)
                / (sigma(u - xi[j - 1] + eta, setup) * sigma(xi[i - 1] - xi[j - 1], setup)))
            for j in range(1, n + 1) if j != i}, n)
        e12 = embed_matrix(np.array([[0, 1], [0, 0]], dtype=complex), (i - 1,), n)
        out += coeff * (e12 * dress[None, :])
    return out


def twisted_t22_explicit(l: WeightVector, u: complex, spectral: SpectralConfig,
                         setup: ModularSetup) -> np.ndarray:
    """Polarization-free form of the twisted one-row operator T~^2_2.

    Diagonal: sigma(l21-eta)/sigma(l21-eta+eta*n_up) per weight sector,
    dressed with per-site ratios; fixed by direct conjugation with the twist.
    """
    n = spectral.n
    eta = setup.eta
    states = np.arange(2 ** n)
    n_up = np.zeros(2 ** n)
    for j in range(n):
        n_up += 1 - ((states >> (n - 1 - j)) & 1)
    pref = sigma(l.m21 - eta, setup) / sigma(l.m21 - eta + eta * n_up, setup)
    dress = _diag_dressing({
        j: sigma(u - spectral.xi[j - 1], setup)
        / sigma(u - spectral.xi[j - 1] + eta, setup)
        for j in range(1, n + 1)}, n)
    return np.diag(pref * dress)


def twisted_one_row_residual(l: WeightVector, u: complex,
                             spectral: SpectralConfig, setup: ModularSetup) -> float:
    """Conjugated one-row entries vs their polarization-free forms."""
    f_l = f_matrix(l, spectral, setup)
    t = face_one_row_monodromy(l, u, spectral, setup)
    worst = 0.0
    for (i, j), explicit in (((2, 1), twisted_t21_explicit(l, u, spectral, setup)),
                             ((2, 2), twisted_t22_explicit(l, u, spectral, setup))):
        f_out = f_l.mat
        f_in = f_inverse_matrix(f_matrix(l.shifted(j, setup.eta), spectral, setup))
        twisted = f_out @ t[(i, j)].mat @ f_in
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
    lam = bc.weight
    eta = setup.eta
    at_u = SpectralGrids((u,), spectral.xi, setup)
    table_a, table_b = _permsum_ab(at_u, *_boundary_vectors(at_u, bc))
    table_g = spectral.grids(setup).xi_ratio
    scalar = (sigma(m.m12, setup) / sigma(lam.m12, setup)
              * cmath.exp(_log_uxi_ratio(at_u)))
    out = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        dress = _diag_dressing({j + 1: table_b[0, j] * table_g[i, j]
                                for j in range(n) if j != i}, n)
        e12 = embed_matrix(np.array([[0, 1], [0, 0]], dtype=complex), (i,), n)
        out += table_a[0, i] * (e12 * dress[None, :])
    states = np.arange(2 ** n)
    ups = np.array([n - bin(x).count("1") for x in states])
    weight = np.array([sigma(lam.m12, setup) / sigma(lam.m12 - k * eta, setup)
                       for k in ups])
    return scalar * (out * weight[None, :])


def twisted_creation_residual(n_index: int, bc: BoundaryConfig,
                              spectral: SpectralConfig, setup: ModularSetup) -> float:
    """Conjugated creation operator vs its polarization-free form.

    Both conjugating twists carry the argument lambda: the inner twist
    arguments of the two monodromy factors cancel (e_hat_2 = -e_hat_1), so
    the products telescope with constant end caps, which the extremal-state
    invariance then removes.
    """
    n = spectral.n
    if n > 4:
        raise SizeError(f"twisted creation check limited to N <= 4, got {n}")
    lam = bc.weight
    m = lam.shifted(1, setup.eta, -(2 * n_index - n))
    u = spectral.u[n_index - 1]
    raw = face_creation_operator(m, bc, u, spectral, setup).mat
    f_lam = f_matrix(lam, spectral, setup)
    twisted = f_lam.mat @ raw @ f_inverse_matrix(f_lam)
    explicit = twisted_creation_explicit(m, bc, u, spectral, setup)
    return float(np.max(np.abs(twisted - explicit))
                 / max(1e-300, np.max(np.abs(explicit))))
