"""Exact rank certification for A-hypergeometric (GKZ) systems.

For an integer exponent matrix of full row rank, a rational parameter
vector and a rational coefficient fiber, this package certifies
nondegeneracy of the associated Laurent polynomial and computes the
holonomic rank three independent ways: normalized polytope volume, Koszul
cohomology of the graded semigroup ring, and the twisted de Rham cokernel.
It also emits the Euler and box operators of the hypergeometric system.
All arithmetic is exact over Q.
"""

from .derham import (
    LogForm,
    ReductionBasis,
    check_gr_equals_koszul,
    connection_matrices,
    derham_cohomology_dims,
    filtration_level,
    h_top_dimension,
    reduce_to_basis,
    twisted_differential,
)
from .errors import (
    DegenerateFiber,
    FaceContainsOrigin,
    GammaNotNormalized,
    GkzError,
    MismatchAtDegree,
    NotAFacePair,
    NotARelation,
    NotInCone,
    RankDeficient,
    ShapeMismatch,
    TruncationTooSmall,
    UnknownSubcommand,
)
from .homology import (
    CochainComplexQ,
    FaceComplex,
    KoszulDatum,
    KouchnirenkoResult,
    build_face_complex,
    check_face_complex_exactness,
    cohomology_dims,
    koszul_complex,
    koszul_regular_sequence_check,
    poincare_identity_check,
    verify_kouchnirenko,
)
from .lattice import (
    ExponentCone,
    ExponentMatrix,
    Face,
    Facet,
    NewtonPolytope,
    exponent_cone,
    face_lattice,
    gauge,
    gauge_denominator,
    newton_polytope,
    normalize_gamma,
    normalized_volume,
    validate_matrix,
)
from .linalg import SparseRationalMatrix, rank_and_kernel
from .nondegeneracy import (
    FaceCertificate,
    NondegeneracyReport,
    choose_spanning_subset,
    face_polynomial,
    is_nondegenerate,
)
from .operators import (
    BoxOperator,
    EulerOperator,
    box_operator,
    euler_operators,
    lattice_kernel,
    render_box,
    render_euler,
)
from .pipeline import ProblemSpec, RankReport, run_analyze, run_subcommand
from .rings import (
    ConeRing,
    FaceRing,
    FreeRing,
    GradedRingHandle,
    RingElement,
    face_projection,
    facial_ring,
    gr_multiply,
    graded_piece,
    log_derivative_classes,
    poincare_series,
    sequence_image,
)
from .series import PolyZ, RationalFunctionQ

__version__ = "0.1.0"
