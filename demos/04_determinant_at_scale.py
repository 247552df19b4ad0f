"""O(N^3) versus O(2^N N^2): timing the two closed-form routes.

The determinant route reaches N = 256 in well under a second; the
permutation sum, a DP over subsets rather than a list of the N! terms,
stays near a millisecond up to its guard N = 9.
"""

import time

from ellipdw import BoundaryConfig, ModularSetup, SpectralConfig
from ellipdw.closedform import (_log_normalized_z_determinant,
                                normalized_z_permsum)
from ellipdw.config import draw_spectral
from ellipdw.runner import loglog_slope

setup = ModularSetup(tau=1j, eta=0.31)
bc = BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)

# warm-up so first-call setup does not pollute the smallest sizes
normalized_z_permsum(draw_spectral(2, 3, setup, bc), bc, setup)

print("Determinant route (log-space evaluation):")
ns, ts = [], []
for n in (16, 32, 64, 128, 256):
    spec = draw_spectral(n, 100 + n, setup, bc)
    # a fresh configuration: the draw has already evaluated its sigma grids
    fresh = SpectralConfig(spec.u, spec.xi)
    t0 = time.perf_counter()
    log_z = _log_normalized_z_determinant(fresh, bc, setup)
    dt = time.perf_counter() - t0
    ns.append(n)
    ts.append(dt)
    print(f"  N={n:4d}  {dt:7.3f}s   log|Z_norm| = {log_z.real:12.1f}")
print(f"  log-log slope over the sweep: {loglog_slope(ns, ts):.2f}")

print("\nPermutation sum (subset DP, O(2^N N^2)):")
prev = None
for n in (5, 6, 7, 8, 9):
    spec = draw_spectral(n, 200 + n, setup, bc)
    t0 = time.perf_counter()
    normalized_z_permsum(spec, bc, setup)
    dt = time.perf_counter() - t0
    note = f"   (x{dt / prev:.1f} over N-1)" if prev else ""
    print(f"  N={n}  {dt * 1e3:7.3f} ms{note}")
    prev = dt
