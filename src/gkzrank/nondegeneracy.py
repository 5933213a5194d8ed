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
    """Finiteness certificate for one face quotient, read off the face's
    Koszul counts; ``kouchnirenko`` holds them when ``carry`` says the
    face's cone is the full cone."""

    def __init__(self, face: Face, counts: KouchnirenkoResult, carry: bool):
        self.face_id: int = face.id
        self.face_vertices: tuple = face.vertices
        # R_0 is the one monomial 1, so class j is one column of the degree-M
        # slice, a new form there exactly when S_j(M) < S_{j-1}(M).  The
        # classes span at most dim + 1 forms: that many are a spanning subset,
        # whose quotient is S_n; fewer, and no subset spans.
        S = counts.quotients[counts.ring.gauge_denominator]
        chosen = tuple(j for j in range(1, len(S)) if S[j] < S[j - 1])
        if len(chosen) <= face.dim:
            chosen = ()
        dims = chosen and tuple(T[-1] for T in counts.quotients)
        poly, bound = counts.expected_polynomial, counts.truncation
        expected = tuple(poly.coeff(d) for d in range(bound + 1))
        failure = next((d for d, q in enumerate(dims) if q != expected[d]), None)
        self.spanning_indices: tuple[int, ...] = chosen
        self.quotient_dims: tuple[int, ...] = dims
        self.expected_dims: tuple[int, ...] = expected
        self.verdict: str = "finite" if chosen and failure is None else "infinite"
        self.bound_used: int = bound
        self.failure_degree: int | None = failure
        self.kouchnirenko: KouchnirenkoResult | None = counts if carry else None

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
    the Koszul counts that a certificate carries (or None), which the Koszul
    stage reads off the report."""

    def __init__(self, certificates, polytope, fiber):
        self.overall: bool = all(c.verdict == "finite" for c in certificates)
        self.certificates: list[FaceCertificate] = certificates
        self.polytope: NewtonPolytope = polytope
        self.fiber: tuple[Fraction, ...] = fiber
        self.kouchnirenko: KouchnirenkoResult | None = next(
            (c.kouchnirenko for c in certificates if c.kouchnirenko), None
        )

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
    expected, k = cone_numerator(polytope, face)
    assert k == face.dim + 1, "face pieces must have dim + 1 generators"
    window = _window(expected, polytope.gauge_denominator)
    counts = KouchnirenkoResult(ConeRing(polytope, face), fiber, expected, window)
    return FaceCertificate(face, counts, polytope.index_set(polytope.n - 1) == [face])


def is_nondegenerate(fiber, polytope: NewtonPolytope) -> NondegeneracyReport:
    """Certify the fiber face by face; degeneracy is a result, not an error."""
    fiber = _rationals(fiber, polytope.matrix.num_columns)
    faces = polytope.origin_free_faces()
    certificates = [certify_face(fiber, face, polytope) for face in faces]
    return NondegeneracyReport(certificates, polytope, fiber)
