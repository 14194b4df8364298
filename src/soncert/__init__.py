"""Lower bounds and exact rational nonnegativity certificates for sparse
polynomials, built from sums of nonnegative circuits and a second-order cone
relaxation over rational mediated sets.

Every submodule, and every name exported from one, is imported on first use
(PEP 562): ``import soncert.verify`` loads the verifier and ``polyring``
alone, on the standard library."""

from importlib import import_module

# each submodule with the names the package exports from it
_EXPORTS = {
    "polyring": ("Exponent", "SparsePoly", "is_even", "pn_companion", "poly_from_json", "poly_to_json", "poly_sha256"),
    "cover": ("SupportPartition", "Circuit", "support_partition", "CoverInfeasible", "CoverResult", "simplex_cover"),
    "mediated": ("MediatedSet", "med_seq", "med_set", "med_set_odd"),
    "ipm": ("ConeSolve", "solve_socp"),
    "socp": (
        "ConeTriplePlan", "LowerBoundResult", "SocpProblem", "SolverFailure", "UncoveredSupport",
        "build_plan", "assemble", "lower_bound", "solve_problem",
    ),
    "certify": ("BoundaryFailure", "project_slots", "exact_sobs"),
    "verify": ("Certificate", "VerifyResult", "verify_certificate"),
    "generate": ("POLY_CLASSES", "GenInstance", "random_instance"),
    "exact": (),
    "cli": (),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
