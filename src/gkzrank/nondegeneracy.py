"""Face-by-face nondegeneracy certification of a coefficient fiber.

For every proper face of the hull avoiding the origin we form the facial
ring, quotient by a spanning subset of the leading log-derivative classes,
and compare the quotient's degree dimensions with the predicted polynomial
(the facial Poincare series times (1 - t^M) to the face-span dimension).
Facial rings are Cohen-Macaulay, so matching the polynomial through its
degree and vanishing over one generator window decides finiteness exactly:
a mismatch or any surviving dimension in the window certifies degeneracy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import FaceContainsOrigin
from .lattice import Face, NewtonPolytope
from .linalg import RationalSpan, SparseRationalMatrix, rank
from .rings import (
    FaceRing,
    RingElement,
    log_derivative_classes,
    poincare_series,
)
from .series import PolyZ


@dataclass
class FaceCertificate:
    """Finiteness certificate for one face quotient."""

    face_id: int
    face_vertices: tuple
    spanning_indices: tuple[int, ...]
    quotient_dims: tuple[int, ...]
    expected_dims: tuple[int, ...]
    verdict: str  # "finite" | "infinite"
    bound_used: int
    failure_degree: int | None = None

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


@dataclass
class NondegeneracyReport:
    overall: bool
    certificates: list[FaceCertificate]

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
    gs = log_derivative_classes(fiber, face, polytope)
    exps = sorted({w for g in gs for w in g.terms})
    index = {w: i for i, w in enumerate(exps)}
    target = face.dim + 1
    span = RationalSpan(len(exps))
    chosen = []
    for i, g in enumerate(gs):
        vec = {index[w]: c for w, c in g.terms.items()}
        if vec and span.add(vec):
            chosen.append(i + 1)
        if len(chosen) == target:
            break
    if len(chosen) < target:
        return None
    return tuple(chosen)


def _face_quotient_dims(ring: FaceRing, gs, bound: int):
    """Dimensions of the facial ring modulo the chosen classes, by degree."""
    P = ring.polytope
    M = P.gauge_denominator
    dims = []
    for d in range(bound + 1):
        mono = ring.monomials_of_degree(d)
        index = {w: i for i, w in enumerate(mono)}
        entries: dict[tuple[int, int], Fraction] = {}
        row = 0
        for prev in ring.monomials_of_degree(d - M):
            for g in gs:
                for u, c in g.terms.items():
                    prod = ring.multiply_monomials(u, prev)
                    i = index.get(prod)
                    if i is None:
                        raise AssertionError("facial product left its cone slice")
                    entries[(row, i)] = entries.get((row, i), 0) + c
                row += 1
        taken = rank(SparseRationalMatrix(row, len(mono), entries)) if entries else 0
        dims.append(len(mono) - taken)
    return tuple(dims)


def certify_face(fiber, face: Face, polytope: NewtonPolytope) -> FaceCertificate:
    """Decide finiteness of the quotient attached to one origin-free face."""
    M = polytope.gauge_denominator
    target = face.dim + 1
    ring = FaceRing(polytope, face)
    expected_poly = (
        poincare_series(ring) * ((PolyZ([1]) - PolyZ.monomial(M)) ** target)
    ).as_polynomial()
    # Semigroup generators of the face cone have gauge below the span
    # dimension, so this window certifies vanishing forever beyond it.
    window = target * M
    bound = expected_poly.degree + window
    chosen = choose_spanning_subset(fiber, face, polytope)
    if chosen is None:
        return FaceCertificate(
            face_id=face.id,
            face_vertices=face.vertices,
            spanning_indices=(),
            quotient_dims=(),
            expected_dims=tuple(
                expected_poly.coeff(d) for d in range(bound + 1)
            ),
            verdict="infinite",
            bound_used=bound,
            failure_degree=None,
        )
    gs = log_derivative_classes(fiber, face, polytope)
    selected = [gs[i - 1] for i in chosen]
    dims = _face_quotient_dims(ring, selected, bound)
    expected = tuple(expected_poly.coeff(d) for d in range(bound + 1))
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
    certificates = []
    for face in polytope.origin_free_faces():
        certificates.append(certify_face(fiber, face, polytope))
    overall = all(c.verdict == "finite" for c in certificates)
    return NondegeneracyReport(overall, certificates)
