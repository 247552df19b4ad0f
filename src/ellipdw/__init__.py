"""Domain-wall partition functions of the eight-vertex model with a
non-diagonal reflecting end.

Three independent evaluation routes (configuration enumeration / monodromy
contraction, face-type creation-operator products, and the closed-form
permutation-sum and single-determinant expressions) plus numerical residual
checks for every algebraic identity the closed form rests on: theta-function
identities, Yang-Baxter and reflection equations, the vertex-face dictionary,
and the factorizing-twist machinery.
"""

from .boundary import (BoundaryConfig, boundary_states, dual_intertwiners,
                       face_K, face_vertex_residual, intertwiner,
                       k_factorization_residual, re_residual, vertex_K)
from .closedform import (f_quasi_period_residual, full_z,
                         normalized_z_determinant, normalized_z_permsum,
                         partition_prefactor, pole_matching_pair, pole_scan,
                         recursion_residual, residue_estimate)
from .config import RunConfig, draw_spectral, parse_config
from .elliptic import (ModularSetup, ThetaChar, riemann_residual, sigma,
                       sigma_char, theta_char, theta_level2)
from .errors import (ConditioningWarning, ConvergenceError, DomainError,
                     EllipdwError, ParseError, SingularityError, SizeError,
                     ValidationError)
from .fbasis import (PermutationWord, extremal_invariance_residual, f_matrix,
                     r_s_operator, reduced_word, twisted_creation_residual)
from .oracle import (SpectralConfig, double_row_monodromy,
                     face_creation_operator, face_one_row_monodromy,
                     partition_bruteforce, partition_enumeration,
                     partition_face_route)
from .report import PartitionReport, RouteResult
from .rmatrices import (WeightVector, crossing_residual, dybe_residual,
                        qybe_residual, sos_R, unitarity_residual, vertex_R)
from .runner import run_bench, run_compare, run_identities
from .tensor import DenseOperator

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
