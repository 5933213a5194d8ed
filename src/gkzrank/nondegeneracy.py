"""Face-by-face nondegeneracy certification of a coefficient fiber.

For every proper face of the hull avoiding the origin we form the facial
ring, count its quotient by the leading log-derivative classes by degree,
and compare with the predicted polynomial (the facial Poincare numerator
over (1 - t^M) to the face-span dimension).  Facial rings are
Cohen-Macaulay, so matching the polynomial through its degree and
vanishing over one generator window decides finiteness exactly: a mismatch
or any surviving dimension in the window certifies degeneracy.  The counts
are a ``KouchnirenkoResult`` on the face's ring, truncated at its window.
The classes span at most face.dim + 1 forms of degree M: when that many
are independent (the spanning subset), the quotient by all of them is the
quotient by the subset; when fewer are, the face is degenerate.

The shift lemma fixes the window: if the quotient is zero in degree d - M
and each monomial of degree d is a face vertex (of degree M) times one of
degree d - M, it is zero in degree d.  Past the numerator's degree every
monomial is such a product (a spare generator of its simplicial piece), so
M zero degrees in a row there stay zero forever.  The window therefore ends
at the numerator's degree plus M (``_window``): a quotient that matches the
polynomial through it is zero ever after, so no mismatch can sit past it.
"""

from __future__ import annotations

from fractions import Fraction

from .homology import KouchnirenkoResult, _window
from .lattice import Face, NewtonPolytope, _rationals
from .rings import ConeRing, cone_numerator


class FaceCertificate:
    """Finiteness certificate for one face quotient; ``kouchnirenko`` holds
    the counts it was read off when the face's cone is the full cone."""

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
        kouchnirenko=None,
    ):
        self.face_id: int = face_id
        self.face_vertices: tuple = face_vertices
        self.spanning_indices: tuple[int, ...] = spanning_indices
        self.quotient_dims: tuple[int, ...] = quotient_dims
        self.expected_dims: tuple[int, ...] = expected_dims
        self.verdict: str = verdict  # "finite" | "infinite"
        self.bound_used: int = bound_used
        self.failure_degree: int | None = failure_degree
        self.kouchnirenko: KouchnirenkoResult | None = kouchnirenko

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
    the Koszul counts of the one face whose cone is the full cone (or None),
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


def certify_face(fiber, face: Face, polytope: NewtonPolytope) -> FaceCertificate:
    """Decide finiteness of the quotient attached to one origin-free face,
    for a fiber of ``int``s or ``Fraction``s, from the Koszul counts of its
    classes on the face's own ring, truncated at the face's window."""
    M, n = polytope.gauge_denominator, polytope.n
    expected_poly, k = cone_numerator(polytope, face)
    assert k == face.dim + 1, "face pieces must have dim + 1 generators"
    bound = _window(expected_poly, M)
    expected = tuple(expected_poly.coeff(d) for d in range(bound + 1))
    counts = KouchnirenkoResult(ConeRing(polytope, face), fiber, expected_poly, bound)
    # In degree M image column i is class i + 1 times t^0.  The classes span
    # at most k forms there, so k image pivots are a spanning subset, whose
    # quotient is S_n; fewer, and no subset spans.
    pivots = counts._top_slice(M)[2].pivots
    chosen = tuple(j + 1 for _, j, _ in pivots if j < n)
    if len(chosen) < k:
        chosen = ()
    dims = chosen and tuple(counts.per_degree.get(d, 0) for d in range(bound + 1))
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
        kouchnirenko=counts if k == n and polytope.index_set(n - 1) == [face] else None,
    )


def is_nondegenerate(fiber, polytope: NewtonPolytope) -> NondegeneracyReport:
    """Certify the fiber face by face; degeneracy is a result, not an error."""
    fiber = _rationals(fiber, polytope.matrix.num_columns)
    faces = polytope.origin_free_faces()
    certificates = [certify_face(fiber, face, polytope) for face in faces]
    overall = all(c.verdict == "finite" for c in certificates)
    full = next((c.kouchnirenko for c in certificates if c.kouchnirenko), None)
    return NondegeneracyReport(overall, certificates, polytope, fiber, full)
