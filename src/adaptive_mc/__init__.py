"""
Adaptive low-rank matrix completion under bounded per-column noise.

The observable matrix is M = L + zeta with rank(L) = r, unit-norm columns
of L, and every noise column bounded by epsilon < 1/4 in Euclidean norm.
The algorithm reads entries through a counting oracle, tests each column's
sampled residual against a noise-aware threshold, fully observes only the
columns that carry a new direction, and reconstructs the rest by least
squares against the estimated subspace.  The sampling budget per column
adapts to a running upper bound on the angle between the estimated and
the clean subspace.

Subpackages
-----------
linalg      orthonormal bases, the restricted least-squares solver, coherence,
            angles
sampling    seeded Philox streams and uniform index-set sampling
synthetic   instance generation, bounded noise, the observation oracle
lrebn       the adaptive completion algorithm and its error certificate
verify      Monte-Carlo checks for the inequalities behind the analysis
cli         command-line front end (generate / run / sweep / verify)
"""

from .linalg import (
    OrthonormalBasis,
    RestrictedSolver,
    coherence,
    extend_basis,
    orthonormalize,
    project,
    subspace_subspace_angle,
    vector_coherence,
    vector_subspace_angle,
    vector_vector_angle,
)
from .lrebn import (
    LrebnConfig,
    RecoveryResult,
    angle_increment,
    column_test,
    initial_budget,
    recovery_errors,
    residual_threshold,
    run_lrebn,
    theorem_error_bound,
    updated_budget,
)
from .sampling import RngState, sample_uniform_subset
from .synthetic import (
    ObservationOracle,
    ProblemInstance,
    add_bounded_noise,
    generate_low_rank,
    load_instance,
    make_instance,
    read_matrix,
    save_instance,
    write_matrix,
)
from .verify import CHECK_NAMES, CheckReport, run_check

__version__ = "0.1.0"

__all__ = [
    "OrthonormalBasis",
    "RestrictedSolver",
    "coherence",
    "extend_basis",
    "orthonormalize",
    "project",
    "subspace_subspace_angle",
    "vector_coherence",
    "vector_subspace_angle",
    "vector_vector_angle",
    "LrebnConfig",
    "RecoveryResult",
    "angle_increment",
    "column_test",
    "initial_budget",
    "recovery_errors",
    "residual_threshold",
    "run_lrebn",
    "theorem_error_bound",
    "updated_budget",
    "RngState",
    "sample_uniform_subset",
    "ObservationOracle",
    "ProblemInstance",
    "add_bounded_noise",
    "generate_low_rank",
    "load_instance",
    "make_instance",
    "read_matrix",
    "save_instance",
    "write_matrix",
    "CHECK_NAMES",
    "CheckReport",
    "run_check",
]
