"""Lower bounds and exact rational nonnegativity certificates for sparse
polynomials, built from sums of nonnegative circuits and a second-order cone
relaxation over rational mediated sets."""

from .polyring import (
    Exponent,
    SparsePoly,
    SupportPartition,
    Circuit,
    is_even,
    support_partition,
    is_nonneg_circuit,
    poly_from_json,
    poly_to_json,
    poly_sha256,
)
from .mediated import (
    MediatedSet,
    med_seq,
    med_seq_elements,
    brute_min_med_seq,
    med_set,
    med_set_odd,
    is_valid_mediated_set,
)
from .cover import (
    CoverInfeasible,
    CoverResult,
    simplex_cover,
)
from .ipm import ConeSolve, solve_socp
from .socp import (
    ConeTriplePlan,
    LowerBoundResult,
    SocpProblem,
    SolverFailure,
    UncoveredSupport,
    assemble,
    build_plan,
    lower_bound,
    pn_companion,
    solve_problem,
)
from .certify import (
    BoundaryFailure,
    exact_sobs,
    project_slots,
)
from .verify import Certificate, CertTriple, VerifyResult, check_cone, verify_certificate
from .generate import POLY_CLASSES, GenInstance, random_instance

__all__ = [
    "Exponent",
    "SparsePoly",
    "SupportPartition",
    "Circuit",
    "is_even",
    "support_partition",
    "is_nonneg_circuit",
    "poly_from_json",
    "poly_to_json",
    "poly_sha256",
    "MediatedSet",
    "med_seq",
    "med_seq_elements",
    "brute_min_med_seq",
    "med_set",
    "med_set_odd",
    "is_valid_mediated_set",
    "CoverInfeasible",
    "CoverResult",
    "simplex_cover",
    "ConeSolve",
    "solve_socp",
    "ConeTriplePlan",
    "LowerBoundResult",
    "SocpProblem",
    "SolverFailure",
    "UncoveredSupport",
    "build_plan",
    "assemble",
    "lower_bound",
    "pn_companion",
    "solve_problem",
    "BoundaryFailure",
    "Certificate",
    "CertTriple",
    "VerifyResult",
    "project_slots",
    "check_cone",
    "exact_sobs",
    "verify_certificate",
    "POLY_CLASSES",
    "GenInstance",
    "random_instance",
]
