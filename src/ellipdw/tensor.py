"""Dense operators on labeled tensor products of 2-dimensional sites.

Basis conventions used package-wide: spin labels are 1 and 2, mapped to
tensor indices 0 and 1; site order in a ``DenseOperator`` is most-significant
first, matching ``np.kron``.  All contractions are bilinear (no complex
conjugation): bra vectors are row vectors of components.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class DenseOperator:
    """Complex square matrix acting on an ordered tuple of 2-dim sites."""

    sites: tuple
    mat: np.ndarray

    def __post_init__(self):
        if len(set(self.sites)) != len(self.sites):
            raise ValueError(f"duplicate site labels: {self.sites}")
        dim = 2 ** len(self.sites)
        if self.mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {self.mat.shape} != ({dim}, {dim})")

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def on_sites(self, sites) -> "DenseOperator":
        """Embed into the larger ordered site tuple ``sites`` (identity elsewhere)."""
        sites = tuple(sites)
        pos = tuple(sites.index(s) for s in self.sites)
        return DenseOperator(sites, embed_matrix(self.mat, pos, len(sites)))


def embed_matrix(mat: np.ndarray, pos, n: int) -> np.ndarray:
    """Embed ``mat`` (acting on site positions ``pos``) into n sites."""
    k = len(pos)
    rest = [q for q in range(n) if q not in pos]
    big = np.kron(mat, np.eye(2 ** (n - k), dtype=complex))
    order = list(pos) + rest
    idx = _basis_reindex(tuple(order), n)
    return big[np.ix_(idx, idx)]


@lru_cache(maxsize=None)
def _basis_reindex(order, n):
    """idx[x] = index of natural basis state x in the axis layout ``order``."""
    x = np.arange(2 ** n)
    out = np.zeros_like(x)
    for p, site in enumerate(order):
        bit = (x >> (n - 1 - site)) & 1
        out |= bit << (n - 1 - p)
    # out maps natural -> layout; we need the position of natural x inside
    # the layout-ordered matrix, which is exactly out.
    return out


def apply_two_site(tensor: np.ndarray, mat4: np.ndarray, ax1: int, ax2: int) -> np.ndarray:
    """Apply a 4x4 matrix to axes (ax1, ax2) of a (2,)*k state tensor.

    mat4 rows/cols are ordered with the ax1 index most significant.
    """
    m = mat4.reshape(2, 2, 2, 2)
    out = np.tensordot(m, tensor, axes=([2, 3], [ax1, ax2]))
    # tensordot puts the two output axes in front; move them back.
    return np.moveaxis(out, (0, 1), (ax1, ax2))


def apply_one_site(tensor: np.ndarray, mat2: np.ndarray, ax: int) -> np.ndarray:
    out = np.tensordot(mat2, tensor, axes=([1], [ax]))
    return np.moveaxis(out, 0, ax)


def product_state(factors) -> np.ndarray:
    """Kron of per-site 2-vectors, first factor most significant."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out

