import numpy as np
import pytest

from ellipdw import BoundaryConfig, ModularSetup, WeightVector, runner
from ellipdw.config import draw_spectral
from ellipdw.rmatrices import _BLOCK, sos_R_matrix
from ellipdw.tensor import embed_matrix


@pytest.fixture(scope="session")
def setup():
    return ModularSetup(tau=1j, eta=0.31)


@pytest.fixture(scope="session")
def setup_complex_eta():
    return ModularSetup(tau=1j, eta=0.3 + 0.1j)


@pytest.fixture(scope="session")
def bc():
    return BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)


@pytest.fixture(scope="session")
def weight():
    return WeightVector(0.31 + 0.02j, -0.11 - 0.07j)


def spectral_draw(n, seed, setup, bc):
    return draw_spectral(n, seed, setup, bc)


@pytest.fixture(scope="session")
def draw():
    """Seeded spectral-configuration factory shared by the suites."""
    def _draw(n, seed, setup, bc):
        return spectral_draw(n, seed, setup, bc)
    return _draw


def random_points(rng, count):
    return runner._draw_points(rng, count)


def random_weight(rng, setup):
    return runner._draw_weight(rng, setup)


def sample_row(stacks, k):
    """Sample k of ``runner._sample_stacks``' stacks, as the scalar arguments
    of one residual call."""
    return tuple(WeightVector(complex(a.m1[k]), complex(a.m2[k]))
                 if isinstance(a, WeightVector) else a[k] for a in stacks)


def _popcount(k: int) -> np.ndarray:
    """The number of spins 2 on each of the 2^k states of k sites, (2,)*k."""
    return np.array([bin(i).count("1") for i in range(2 ** k)]).reshape((2,) * k)


def apply_R_stack(tensor: np.ndarray, mats: np.ndarray, ax1: int, ax2: int,
                  spectators=()) -> np.ndarray:
    """Apply ``mats[n2]`` to axes (ax1, ax2) of the slices whose ``spectators``
    axes hold n2 spins 2.

    ``mats`` is a stack of len(spectators) + 1 SOS R matrices, entry n2 at
    ``spectator_weight``, rows and columns ordered with the ax1 index most
    significant; ``tensor`` is a (2,)*k state tensor with any trailing batch
    axes.  Each matrix is the identity on |11> and |22>, so only the two
    mixed components change, by elementwise products and sums: every element
    gets the same bits whatever the batch shape.

    The library's general-axes kernel before ``rmatrices.apply_R_layer``,
    kept as an independent byte reference for it.
    """
    tensor = np.asarray(tensor)
    # the block of each slice, broadcast along the non-spectator axes
    shape = [2 if ax in spectators else 1
             for ax in range(tensor.ndim) if ax not in (ax1, ax2)]
    block = mats[:, _BLOCK[0], _BLOCK[1]][_popcount(len(spectators))].reshape(shape + [4])
    i12, i21 = [slice(None)] * tensor.ndim, [slice(None)] * tensor.ndim
    i12[ax1], i12[ax2], i21[ax1], i21[ax2] = 0, 1, 1, 0
    i12, i21 = tuple(i12), tuple(i21)
    x12, x21 = tensor[i12], tensor[i21]
    out = np.array(tensor, dtype=complex)
    out[i12] = block[..., 0] * x12 + block[..., 1] * x21
    out[i21] = block[..., 2] * x12 + block[..., 3] * x21
    return out


def dense_sos_R(n, u, m, setup, ax1, ax2, spectators=()):
    """Dense reference for ``apply_R_stack`` on n sites: the embedded
    R(u; m - (n1 - n2) eta e_hat_1) times the projector onto the spectator
    states with n2 spins 2, summed over n2."""
    dim = 2 ** n
    twos = np.zeros(dim, dtype=np.int64)
    for s in spectators:
        twos += (np.arange(dim) >> (n - 1 - s)) & 1
    k = len(spectators)
    out = np.zeros((dim, dim), dtype=complex)
    for n2 in range(k + 1):
        r = sos_R_matrix(u, m.shifted(1, setup.eta, (k - n2) - n2), setup)
        out += embed_matrix(r, (ax1, ax2), n) @ np.diag((twos == n2).astype(complex))
    return out


def dense_face_monodromy(l, u, spectral, setup):
    """T(l|u) on (aux, sites) as the product of dense shifted R factors,
    indexed [i-1, out, j-1, in]."""
    n = spectral.n
    out = np.eye(2 ** (n + 1), dtype=complex)
    for k in range(1, n + 1):
        out = dense_sos_R(n + 1, u - spectral.xi[k - 1], l, setup, 0, k,
                          range(1, k)) @ out
    return out.reshape(2, 2 ** n, 2, 2 ** n)
