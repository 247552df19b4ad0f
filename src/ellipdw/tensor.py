"""Dense operators on labeled tensor products of 2-dimensional sites.

Basis conventions used package-wide: spin labels are 1 and 2, mapped to
tensor indices 0 and 1; site order in a ``DenseOperator`` is most-significant
first, matching ``np.kron``.  All contractions are bilinear (no complex
conjugation): bra vectors are row vectors of components.  ``times`` and
``quotient`` multiply and divide complex arrays as Python rounds ``*`` and ``/``.
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
    """Embed ``mat`` (acting on site positions ``pos``) into n sites.

    ``mat`` may carry leading batch axes, (..., 2^k, 2^k); each matrix is
    embedded with the products ``np.kron(mat, eye)`` forms, so a stack gives
    the bits of its per-matrix embeddings."""
    k = len(pos)
    rest = [q for q in range(n) if q not in pos]
    dim, r = 2 ** k, 2 ** (n - k)
    eye = np.eye(r, dtype=complex)[None, :, None, :]
    big = (mat[..., :, None, :, None] * eye).reshape(mat.shape[:-2] + (dim * r, dim * r))
    order = list(pos) + rest
    idx = _basis_reindex(tuple(order), n)
    return big[..., idx, :][..., :, idx]


def times(w, z) -> np.ndarray:
    """w * z over broadcast complex arrays, rounded as Python's complex
    product whatever the host: numpy's complex loop fuses multiply-adds
    where the CPU can, so each part is formed here from real ufuncs."""
    w, z = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    re = w.real * z.real - w.imag * z.imag
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, w.real * z.imag + w.imag * z.real
    return out


def quotient(w, z) -> np.ndarray:
    """w / z over broadcast complex arrays, rounded as Python's complex
    quotient: Smith's algorithm as CPython's ``_Py_c_quot`` runs it, from real
    ufuncs (a zero z gives inf or nan, where Python raises)."""
    w, z = np.asarray(w, dtype=complex), np.asarray(z, dtype=complex)
    # scaling by Im z is scaling by Re z with the parts of w and z swapped, Im w/z negated
    swap = np.abs(z.real) < np.abs(z.imag)
    p, q = np.where(swap, z.imag, z.real), np.where(swap, z.real, z.imag)
    x, y = np.where(swap, w.imag, w.real), np.where(swap, w.real, w.imag)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = q / p
        denom = p + q * ratio
        re, im = (x + y * ratio) / denom, (y - x * ratio) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, np.where(swap, -im, im)
    return out


def max_abs(x, axes: int = 2):
    """Largest modulus over the trailing ``axes`` axes of ``x`` (0: none):
    a float when no batch axis is left, else an array over the batch axes.
    A nan entry gives nan."""
    out = np.abs(x).max(axis=tuple(range(-axes, 0)))
    return float(out) if np.ndim(out) == 0 else out


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


@lru_cache(maxsize=None)
def _front_axes(ndim: int, axes: tuple):
    """The permutation bringing ``axes`` to the front, the rest in order, and its inverse."""
    perm = axes + tuple(ax for ax in range(ndim) if ax not in axes)
    return perm, tuple(np.argsort(perm))


def _apply_front(tensor: np.ndarray, mat: np.ndarray, axes: tuple) -> np.ndarray:
    """``mat`` on ``axes`` of ``tensor`` as a view: ``np.tensordot``'s one zgemm,
    on the same operands in the same column order, without its bookkeeping."""
    perm, inverse = _front_axes(tensor.ndim, axes)
    t = tensor.transpose(perm)
    return np.dot(mat, t.reshape(len(mat), -1)).reshape(t.shape).transpose(inverse)


def apply_two_site(tensor: np.ndarray, mat4: np.ndarray, ax1: int, ax2: int) -> np.ndarray:
    """Apply a 4x4 matrix to axes (ax1, ax2) of a (2,)*k state tensor.

    mat4 rows/cols are ordered with the ax1 index most significant.  It makes
    the zgemm ``np.tensordot(mat4.reshape(2, 2, 2, 2), tensor, axes=([2, 3],
    [ax1, ax2]))`` makes, so the bruteforce route, whose rounding drift is most
    of its distance to the other routes at N >= 10, keeps its bits."""
    return _apply_front(tensor, mat4.reshape(4, 4), (ax1, ax2))


def apply_one_site(tensor: np.ndarray, mat2: np.ndarray, ax: int) -> np.ndarray:
    return _apply_front(tensor, mat2, (ax,))


def product_state(factors) -> np.ndarray:
    """Kron of per-site 2-vectors, first factor most significant; the empty
    product is [1].  Each step is one flat outer product, whose entries are
    the single complex products ``np.kron`` forms, so the bits are kron's."""
    if len(factors) == 0:
        return np.ones(1, dtype=complex)
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.multiply.outer(out, np.asarray(f, dtype=complex)).ravel()
    return out

