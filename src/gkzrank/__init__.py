"""Exact rank certification for A-hypergeometric (GKZ) systems.

For an integer exponent matrix of full row rank, a rational parameter
vector and a rational coefficient fiber, this package certifies
nondegeneracy of the associated Laurent polynomial and computes the
holonomic rank three independent ways: normalized polytope volume, Koszul
cohomology of the graded semigroup ring, and the twisted de Rham cokernel.
It also emits the Euler and box operators of the hypergeometric system.
All arithmetic is exact over Q.

The public names below load their module on first use (PEP 562), so a
process pays only for the stages it runs; the checks of the paper's
intermediate claims, and the reference algebra that only they, the tests
and the demos use, live in ``oracles``, which ``gkz analyze`` never loads.
"""

import importlib

_EXPORTS = {
    "derham": "ReductionBasis connection_matrices h_top_dimension twisted_differential",
    "errors": """DegenerateFiber FaceContainsOrigin GammaNotNormalized GkzError
        MismatchAtDegree NotAFacePair NotARelation NotInCone RankDeficient
        ShapeMismatch TruncationTooSmall UnknownSubcommand""",
    "homology": "KouchnirenkoResult poincare_identity_check verify_kouchnirenko",
    "lattice": """ExponentMatrix Face Facet NewtonPolytope normalize_gamma
        validate_matrix""",
    "jsonio": "ProblemSpec",
    "linalg": "SparseRationalMatrix",
    "nondegeneracy": "FaceCertificate NondegeneracyReport is_nondegenerate",
    "operators": """BoxOperator EulerOperator box_operator euler_operators
        lattice_kernel render_box render_euler""",
    "oracles": """CochainComplexQ FaceComplex FreeRing GradedKoszulComplex
        LogForm PolyZ RationalFunctionQ RingElement check_face_complex_exactness
        check_gr_equals_koszul choose_spanning_subset derham_cohomology_dims
        face_polynomial face_projection filtration_level gr_multiply
        koszul_regular_sequence_check log_derivative_classes""",
    "pipeline": "RankReport run_analyze run_subcommand",
    "rings": "ConeRing poincare_series sequence_image",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
