"""Face-by-face nondegeneracy certification of a coefficient fiber.

For every proper face of the hull avoiding the origin we form the facial
ring, quotient by a spanning subset of the leading log-derivative classes,
and compare the quotient's degree dimensions with the predicted polynomial
(the facial Poincare numerator over (1 - t^M) to the face-span dimension).
Facial rings are Cohen-Macaulay, so matching the polynomial through its
degree and vanishing over one generator window decides finiteness exactly:
a mismatch or any surviving dimension in the window certifies degeneracy.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FaceContainsOrigin
from .lattice import Face, NewtonPolytope
from .linalg import Echelon, SparseRationalMatrix, rank
from .rings import (
    FaceRing,
    RingElement,
    cone_numerator,
    integral_classes,
    log_derivative_classes,
    sequence_image,
)


class FaceCertificate:
    """Finiteness certificate for one face quotient."""

    def __init__(
        self,
        face_id,
        face_vertices,
        spanning_indices,
        quotient_dims,
        expected_dims,
        verdict,
        bound_used,
        failure_degree=None,
    ):
        self.face_id: int = face_id
        self.face_vertices: tuple = face_vertices
        self.spanning_indices: tuple[int, ...] = spanning_indices
        self.quotient_dims: tuple[int, ...] = quotient_dims
        self.expected_dims: tuple[int, ...] = expected_dims
        self.verdict: str = verdict  # "finite" | "infinite"
        self.bound_used: int = bound_used
        self.failure_degree: int | None = failure_degree

    def to_json(self):
        return {
            "face_id": self.face_id,
            "face_vertices": [list(v) for v in self.face_vertices],
            "spanning_indices": list(self.spanning_indices),
            "quotient_dims": list(self.quotient_dims),
            "expected_dims": list(self.expected_dims),
            "verdict": self.verdict,
            "bound_used": self.bound_used,
            "failure_degree": self.failure_degree,
        }


class NondegeneracyReport:
    def __init__(self, overall, certificates):
        self.overall: bool = overall
        self.certificates: list[FaceCertificate] = certificates

    def offending_faces(self):
        return [c for c in self.certificates if c.verdict == "infinite"]

    def to_json(self):
        return {
            "overall": self.overall,
            "faces": [c.to_json() for c in self.certificates],
        }


def face_polynomial(fiber, face: Face, polytope: NewtonPolytope) -> RingElement:
    """Restriction of the fiber polynomial to the columns on the face."""
    if face.contains_origin:
        raise FaceContainsOrigin(face.id)
    A = polytope.matrix
    fiber = [Fraction(c) for c in fiber]
    out = RingElement()
    for j, w in enumerate(A.columns):
        if polytope.point_on_face(w, face):
            out.add_term(w, fiber[j])
    return out


def choose_spanning_subset(fiber, face: Face, polytope: NewtonPolytope):
    """Row indices (1-based) whose log-derivatives span the full set, or None.

    The target size is the dimension of the linear span of the face; when
    the whole set has smaller rank the face is deficient and the fiber is
    degenerate, reported as None.
    """
    gs, _ = integral_classes(log_derivative_classes(fiber, face, polytope))
    return _spanning_subset(gs, face)


def _spanning_subset(gs, face: Face):
    """The first face.dim + 1 pivot columns of the classes, or None."""
    exps = sorted({w for g in gs for w in g.terms})
    index = {w: r for r, w in enumerate(exps)}
    entries = {(index[w], i): c for i, g in enumerate(gs) for w, c in g.terms.items()}
    pivots = Echelon(SparseRationalMatrix(len(exps), len(gs), entries)).pivots
    if len(pivots) <= face.dim:
        return None
    return tuple(j + 1 for _, j, _ in pivots[: face.dim + 1])


def _face_quotient_dims(ring: FaceRing, gs, bound: int):
    """Dimensions of the facial ring modulo the chosen classes, by degree."""
    M = ring.gauge_denominator
    dims = []
    for d in range(bound + 1):
        image = sequence_image(ring, gs, M, d)
        dims.append(image.rows - rank(image))
    return tuple(dims)


def certify_face(
    fiber, face: Face, polytope: NewtonPolytope, numerator=None
) -> FaceCertificate:
    """Decide finiteness of the quotient attached to one origin-free face;
    ``numerator`` is the face's ``cone_numerator`` if already computed."""
    M = polytope.gauge_denominator
    ring = FaceRing(polytope, face)
    expected_poly, k = numerator or cone_numerator(polytope, [face])
    assert k == face.dim + 1, "face pieces must have dim + 1 generators"
    # Semigroup generators of the face cone have gauge below the span
    # dimension, so this window certifies vanishing forever beyond it.
    bound = expected_poly.degree + k * M
    expected = tuple(expected_poly.coeff(d) for d in range(bound + 1))
    # In integers once; the pivots and quotient dimensions do not change.
    gs, _ = integral_classes(log_derivative_classes(fiber, face, polytope))
    chosen = _spanning_subset(gs, face)
    if chosen is None:
        return FaceCertificate(
            face_id=face.id,
            face_vertices=face.vertices,
            spanning_indices=(),
            quotient_dims=(),
            expected_dims=expected,
            verdict="infinite",
            bound_used=bound,
            failure_degree=None,
        )
    dims = _face_quotient_dims(ring, [gs[i - 1] for i in chosen], bound)
    failure = None
    for d, (got, want) in enumerate(zip(dims, expected)):
        if got != want:
            failure = d
            break
    return FaceCertificate(
        face_id=face.id,
        face_vertices=face.vertices,
        spanning_indices=chosen,
        quotient_dims=dims,
        expected_dims=expected,
        verdict="finite" if failure is None else "infinite",
        bound_used=bound,
        failure_degree=failure,
    )


def is_nondegenerate(matrix, fiber, polytope: NewtonPolytope | None = None):
    """Certify the fiber face by face; degeneracy is a result, not an error."""
    if polytope is None:
        polytope = NewtonPolytope(matrix)
    fiber = [Fraction(c) for c in fiber]
    if len(fiber) != polytope.matrix.num_columns:
        raise ValueError("fiber length does not match the column count")
    faces = polytope.origin_free_faces()
    numerators = [cone_numerator(polytope, [face]) for face in faces]
    # One point-table build, to the last degree any certificate reads.
    M = polytope.gauge_denominator
    polytope.points_of_degree(max(p.degree + k * M for p, k in numerators))
    certificates = [
        certify_face(fiber, face, polytope, nu)
        for face, nu in zip(faces, numerators)
    ]
    overall = all(c.verdict == "finite" for c in certificates)
    return NondegeneracyReport(overall, certificates)
