"""One partition function, five ways.

For a seeded N = 2 draw: configuration enumeration, monodromy contraction,
the face-type creation-operator product, and the closed-form permutation
sum and determinant (with the lambda prefactor), all of which must agree.
Then the proof-step checks behind the determinant formula.
"""

import time

from ellipdw import (BoundaryConfig, ModularSetup, full_z,
                     partition_bruteforce, partition_enumeration,
                     partition_face_route, pole_matching_pair, pole_scan,
                     recursion_residual)
from ellipdw.config import draw_spectral

setup = ModularSetup(tau=1j, eta=0.31)
bc = BoundaryConfig(lambda1=0.41, lambda2=-0.23, zeta=0.17)
spec = draw_spectral(2, 7, setup, bc)

routes = {
    "enumeration": lambda: partition_enumeration(spec, bc, setup),
    "bruteforce": lambda: partition_bruteforce(spec, bc, setup),
    "face": lambda: partition_face_route(spec, bc, setup),
    "permsum": lambda: full_z(spec, bc, setup, "permsum"),
    "determinant": lambda: full_z(spec, bc, setup, "determinant"),
}
print("N = 2, seeded draw:")
values = {}
for name, fn in routes.items():
    t0 = time.perf_counter()
    values[name] = fn()
    print(f"  {name:12s} Z = {values[name]:.12f}   ({time.perf_counter()-t0:.4f}s)")
ref = values["bruteforce"]
print("\nRelative spread against the monodromy contraction:")
for name, z in values.items():
    print(f"  {name:12s} {abs(z - ref) / abs(ref):.3e}")

print("\nProof steps at N = 4:")
spec4 = draw_spectral(4, 11, setup, bc)
print(f"  recursion residual          = {recursion_residual(spec4, bc, setup):.3e}")
b, f = pole_matching_pair(3, draw_spectral(5, 13, setup, bc), bc, setup)
print(f"  permsum/determinant pair    = {abs(b - f) / abs(f):.3e}")
scan = pole_scan(3, draw_spectral(5, 13, setup, bc), bc, setup)
print(f"  pole scan: {sum(1 for *_, reg in scan if reg)}/{len(scan)} "
      f"candidate points regular in the difference")
