"""Face-by-face nondegeneracy certification of a coefficient fiber.

For every proper face of the hull avoiding the origin we form the facial
ring, quotient by a spanning subset of the leading log-derivative classes,
and compare the quotient's degree dimensions with the predicted polynomial
(the facial Poincare numerator over (1 - t^M) to the face-span dimension).
Facial rings are Cohen-Macaulay, so matching the polynomial through its
degree and vanishing over one generator window decides finiteness exactly:
a mismatch or any surviving dimension in the window certifies degeneracy.

The shift lemma: if the quotient is zero in degree d - M and each monomial
of degree d is a face vertex (of degree M) times one of degree d - M, it is
zero in degree d.  Past the numerator's degree every monomial is such a
product (a spare generator of its simplicial piece), so M zero degrees in a
row there stay zero forever.  The window therefore ends at the numerator's
degree plus M (``_window``): a quotient that matches the polynomial through
it is zero ever after, so no mismatch can sit past it.  Inside the window
the lemma also spares ranks: a degree it proves zero is not ranked.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import KouchnirenkoResult, _window
from .lattice import Face, NewtonPolytope, _rationals, _sub
from .linalg import Echelon, rank
from .rings import ConeRing, cone_numerator, leading_classes, sequence_image


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
    """The face certificates of one fiber, with the polytope, the fiber and
    the Koszul counts that certified the one origin-free facet (or None),
    which the Koszul stage reads off the report."""

    def __init__(self, overall, certificates, polytope, fiber, kouchnirenko):
        self.overall: bool = overall
        self.certificates: list[FaceCertificate] = certificates
        self.polytope: NewtonPolytope = polytope
        self.fiber: tuple[Fraction, ...] = fiber
        self.kouchnirenko: KouchnirenkoResult | None = kouchnirenko

    def offending_faces(self):
        return [c for c in self.certificates if c.verdict == "infinite"]

    def to_json(self):
        return {
            "overall": self.overall,
            "faces": [c.to_json() for c in self.certificates],
        }


def _spanning_subset(ring: ConeRing, gs):
    """The first face.dim + 1 pivot columns of the classes on the face's
    degree-M slice (each class times t^0), 1-based, or None."""
    M, dim = ring.gauge_denominator, ring.face.dim
    pivots = Echelon(sequence_image(ring, gs, M, M)).pivots
    if len(pivots) <= dim:
        return None
    return tuple(j + 1 for _, j, _ in pivots[: dim + 1])


def _face_quotient_dims(ring: ConeRing, gs, bound: int):
    """Dimensions of the facial ring modulo the chosen classes, by degree;
    a degree the shift lemma proves zero is not ranked."""
    M = ring.gauge_denominator
    dims = []
    for d in range(bound + 1):
        if d >= M and dims[d - M] == 0:
            below = set(ring.monomials_of_degree(d - M))
            if all(any(_sub(w, v) in below for v in ring.face.vertices)
                   for w in ring.monomials_of_degree(d)):
                dims.append(0)
                continue
        image = sequence_image(ring, gs, M, d)
        dims.append(image.rows - rank(image))
    return tuple(dims)


def certify_face(
    fiber, face: Face, polytope: NewtonPolytope, top=None
) -> FaceCertificate:
    """Decide finiteness of the quotient attached to one origin-free face,
    for a fiber of ``int``s or ``Fraction``s; ``top``, the full cone's
    ``KouchnirenkoResult``, certifies the facet when it is the only one."""
    M = polytope.gauge_denominator
    ring = ConeRing(polytope, face)
    expected_poly, k = cone_numerator(polytope, face)
    assert k == face.dim + 1, "face pieces must have dim + 1 generators"
    bound = _window(expected_poly, M)
    expected = tuple(expected_poly.coeff(d) for d in range(bound + 1))
    if top is None or k < polytope.n:
        # In integers; the scale changes no pivot and no quotient dimension.
        gs, _ = leading_classes(ring, fiber)
        # Without a spanning subset nothing is ranked and the face is degenerate.
        chosen = _spanning_subset(ring, gs) or ()
        dims = chosen and _face_quotient_dims(ring, [gs[i - 1] for i in chosen], bound)
    else:
        # All k classes span in degree M, or no subset does; S_k is the quotient.
        spans = len(ring.monomials_of_degree(M)) - top.per_degree.get(M, 0) == k
        chosen = tuple(range(1, k + 1)) if spans else ()
        dims = chosen and tuple(top.per_degree.get(d, 0) for d in range(bound + 1))
    mismatches = (d for d, (got, want) in enumerate(zip(dims, expected)) if got != want)
    failure = next(mismatches, None)
    return FaceCertificate(
        face_id=face.id,
        face_vertices=face.vertices,
        spanning_indices=chosen,
        quotient_dims=dims,
        expected_dims=expected,
        verdict="finite" if chosen and failure is None else "infinite",
        bound_used=bound,
        failure_degree=failure,
    )


def is_nondegenerate(fiber, polytope: NewtonPolytope) -> NondegeneracyReport:
    """Certify the fiber face by face; degeneracy is a result, not an error."""
    fiber = _rationals(fiber, polytope.matrix.num_columns)
    faces = polytope.origin_free_faces()
    # One origin-free facet: its cone is the full cone, whose counts certify it.
    top = None
    if len(polytope.index_set(polytope.n - 1)) == 1:
        expected, _ = cone_numerator(polytope)
        truncation = _window(expected, polytope.gauge_denominator)
        top = KouchnirenkoResult(ConeRing(polytope), fiber, expected, truncation)
    certificates = [certify_face(fiber, face, polytope, top) for face in faces]
    overall = all(c.verdict == "finite" for c in certificates)
    return NondegeneracyReport(overall, certificates, polytope, fiber, top)
