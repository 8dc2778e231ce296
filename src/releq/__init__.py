"""Relative equilibria of the power-law n-body problem.

Solve for, verify, and explore rigidly rotating point-mass configurations
whose pairwise force scales as a power of distance.
"""

from ._kernels import backend
from .criterion import (
    ClusterDiagnostics,
    ResidualReport,
    jacobian,
    lemma_identity_gap,
    lemma_identity_gaps,
    residual,
    residual_scale,
    weighted_centroid_residual,
)
from .documents import (
    ProblemDocument,
    dumps_document,
    load_document,
    parse_document,
    save_document,
)
from .dynamics import (
    ConservedQuantities,
    PhaseState,
    Trajectory,
    acceleration,
    conserved_quantities,
    integrate,
    potential_energy,
    relative_equilibrium_deviation,
    rigid_rotation_state,
)
from .errors import DocumentError, SingularityError
from .model import (
    Configuration,
    Problem,
    frequency_matrix,
    rotation_generator,
    rotation_matrix,
)
from .probe import ProbeReport, bound_probe, frequency_sweep
from .solver import (
    EquilibriumFingerprint,
    SolveOptions,
    SolveResult,
    Termination,
    canonicalize,
    continuation_in_exponent,
    exponent_schedule,
    fingerprint,
    multistart_search,
    sample_seed,
    seed_radius,
    solve_from_seed,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterDiagnostics",
    "Configuration",
    "ConservedQuantities",
    "DocumentError",
    "EquilibriumFingerprint",
    "PhaseState",
    "ProbeReport",
    "Problem",
    "ProblemDocument",
    "ResidualReport",
    "SingularityError",
    "SolveOptions",
    "SolveResult",
    "Termination",
    "Trajectory",
    "acceleration",
    "backend",
    "bound_probe",
    "canonicalize",
    "conserved_quantities",
    "continuation_in_exponent",
    "dumps_document",
    "exponent_schedule",
    "fingerprint",
    "frequency_matrix",
    "frequency_sweep",
    "integrate",
    "jacobian",
    "lemma_identity_gap",
    "lemma_identity_gaps",
    "load_document",
    "multistart_search",
    "parse_document",
    "potential_energy",
    "relative_equilibrium_deviation",
    "residual",
    "residual_scale",
    "rigid_rotation_state",
    "rotation_generator",
    "rotation_matrix",
    "sample_seed",
    "save_document",
    "seed_radius",
    "solve_from_seed",
    "weighted_centroid_residual",
]
