import numpy as np
import pytest

from ellipdw import BoundaryConfig, ModularSetup, WeightVector
from ellipdw.config import draw_spectral
from ellipdw.rmatrices import sos_R_matrix
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
    return rng.uniform(-0.4, 0.4, count) + 1j * rng.uniform(-0.15, 0.15, count)


def random_weight(rng, setup, floor=1e-3):
    from ellipdw.errors import EllipdwError
    while True:
        m = WeightVector(rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.12, 0.12),
                         rng.uniform(-0.5, 0.5) + 1j * rng.uniform(-0.12, 0.12))
        try:
            m.require_generic(setup, floor)
            return m
        except EllipdwError:
            continue


def dense_sos_R(n, u, m, setup, ax1, ax2, spectators=()):
    """Dense reference for ``rmatrices.apply_R_stack`` on n sites: the embedded
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
