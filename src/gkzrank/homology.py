"""Top Koszul cohomology of the leading classes, and the proof that the
lower cohomology vanishes, both read off the factored top slices.

The Koszul complex of the leading log-derivative classes is internally
graded and its differential raises the grading by the gauge denominator M.
``KouchnirenkoResult`` builds none of its maps: the nested quotients
R/(g_1..g_j), counted by degree from the pivots of the top slices that the
monomial basis and the de Rham solves factor anyway, decide the lower
vanishing (see its docstring).  The predicted top polynomial is the
cone's numerator and the truncation is ``_window``, on the full cone here
and on each origin-free face's cone for its certificate.  The full complex,
with its d o d check, is the reference ``oracles.GradedKoszulComplex``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .errors import DegenerateFiber, MismatchAtDegree, TruncationTooSmall
from .linalg import Echelon, SparseRationalMatrix
from .rings import ConeRing, PolyZ, cone_numerator, leading_classes, sequence_image


def wedge_terms(I: tuple[int, ...], n: int):
    """Each (i, sign, J) with dlog t_i ^ dlog_I = sign * dlog_J, i not in I."""
    for i in range(n):
        if i not in I:
            yield i, (-1) ** sum(1 for k in I if k < i), tuple(sorted(I + (i,)))


def __getattr__(name):
    # The full complex is the reference in ``oracles``; it still resolves
    # here, on first use, because callers such as the benchmark's tracer
    # name it by this module.
    if name == "GradedKoszulComplex":
        from .oracles import GradedKoszulComplex

        return GradedKoszulComplex
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# -- the Kouchnirenko-style verification ----------------------------------------


def _window(numerator, M: int) -> int:
    """The last degree a face certificate reads, the numerator's degree
    plus M by the shift lemma (see ``nondegeneracy``); the Koszul stage's
    truncation, on the full cone's numerator."""
    return numerator.degree + M


class KouchnirenkoResult:
    """Koszul counts of one fiber's leading classes, read off the factored
    top slices behind its monomial basis and its solves.

    Let R be the cone ring, g_1..g_k the classes (homogeneous of degree M)
    and S_j = R/(g_1..g_j), so S_0 = R and S_k is the top cohomology.  The
    classes are kept once, as ``leading_classes`` builds them: ``classes``
    holds the integer maps s * g_i and ``scale`` the one s.  Scaling the
    image columns by s > 0 changes no support, pivot or normal form.  The
    top slice of degree d is [sequence image | identity] with the image
    columns class by class: column i * |R_{d-M}| + a holds s * g_i * t^v
    for v the a-th monomial of degree d - M.  ``Echelon`` takes columns in
    order, so dim S_j(d) is |R_d| minus the pivots in the first j blocks.

    ``vanishing`` is the nested criterion
    dim S_j(d) = dim S_{j-1}(d) - dim S_{j-1}(d - M)
    for every j and every d up to the truncation D, i.e. g_j is injective
    from S_{j-1}(d - M) to S_{j-1}(d).  The Koszul complex of (g_1..g_j) is
    the mapping cone of g_j on that of (g_1..g_{j-1}), and the long exact
    sequences of the cones hold degree by degree (Eisenbud, *Commutative
    Algebra*, 1995, 17.2-17.3; Bruns and Herzog, *Cohen-Macaulay Rings*,
    1993, 1.6).  Going up in j, the criterion in every degree up to D gives
    H^q = 0 for q < k in every degree d with d + M <= D; going down in j,
    by induction on d from below, H^q = 0 in those degrees gives the
    criterion back.  Those are exactly the q < k degrees that the full
    complex (``oracles.GradedKoszulComplex``) certifies, since its outgoing
    map from degree d must stay within D, so ``vanishing`` is its answer
    with no Koszul map built.  ``quotients[d]`` lists dim S_j(d) for
    j = 0..k, and ``per_degree`` and ``top_dim`` are those of S_k, in every
    degree d up to D.  The classes are those of ``fiber``, which the result
    keeps for the de Rham stage: ``int``s or ``Fraction``s, as a
    nondegeneracy report holds them.  The ring may be one origin-free
    face's, truncated at its window: ``FaceCertificate`` is read off that
    result, which never lists its monomial basis."""

    def __init__(self, ring: ConeRing, fiber, expected_polynomial, truncation):
        self.ring: ConeRing = ring
        self.fiber: tuple = tuple(fiber)
        self.classes, self.scale = leading_classes(ring, self.fiber)
        self.expected_polynomial: PolyZ = expected_polynomial
        self.truncation: int = truncation
        self._slices: dict[int, tuple] = {}
        quotients = [self._quotient_dims(d) for d in range(truncation + 1)]
        self.quotients: list[list[int]] = quotients
        # A zero sequence has no degree: the full complex then steps by 1,
        # not M, and so does the criterion.
        step = ring.gauge_denominator if any(self.classes) else 1
        self.vanishing: bool = all(
            S[j] == S[j - 1] - (quotients[d - step][j - 1] if d >= step else 0)
            for d, S in enumerate(quotients) for j in range(1, len(S))
        )
        self.per_degree: dict[int, int] = {
            d: S[-1] for d, S in enumerate(quotients) if S[-1]
        }
        self.top_dim: int = sum(self.per_degree.values())
        self.equals_volume: bool = self.top_dim == ring.polytope.normalized_volume

    @cached_property
    def monomial_basis(self) -> list:
        """The unit pivots through the numerator's degree, on first read."""
        top = self.expected_polynomial.degree
        return [w for d in range(top + 1) for w in self.top_basis(d)]

    def _quotient_dims(self, d: int) -> list[int]:
        """dim S_j(d) for j = 0..k; below degree M no class reaches d."""
        k, size = len(self.classes), len(self.ring.monomials_of_degree(d))
        blocks = [0] * (k + 1)
        if d >= self.ring.gauge_denominator:
            _, positions, echelon = self._top_slice(d)
            for _, c, _ in echelon.pivots:
                if c < k * len(positions):
                    blocks[c // len(positions) + 1] += 1
        return [size - p for p in accumulate(blocks)]

    def _top_slice(self, d: int) -> tuple:
        """Row index, the positions of the monomials of degree d - M and the
        factored integer matrix [sequence image | identity] of top degree d,
        built once.  Image column i * len(prev) + a holds s * g_i * t^v
        for v the a-th monomial of degree d - M, as ``sequence_image`` lays
        it out; unit column k * len(prev) + r stands for the r-th monomial
        of degree d."""
        if d not in self._slices:
            ring, M = self.ring, self.ring.gauge_denominator
            image = sequence_image(ring, self.classes, M, d)
            entries = image.entries
            entries.update(((r, image.cols + r), 1) for r in range(image.rows))
            mat = SparseRationalMatrix(image.rows, image.cols + image.rows, entries)
            index = {w: r for r, w in enumerate(ring.monomials_of_degree(d))}
            positions = {v: a for a, v in enumerate(ring.monomials_of_degree(d - M))}
            self._slices[d] = (index, positions, Echelon(mat))
        return self._slices[d]

    def top_basis(self, d: int) -> list:
        """The greedy basis monomials of top degree d: the first monomials
        that complete the span of the sequence image, the unit pivots."""
        _, positions, echelon = self._top_slice(d)
        mono = self.ring.monomials_of_degree(d)
        width = len(self.classes) * len(positions)
        return [mono[j - width] for _, j, _ in echelon.pivots if j >= width]

    def solve_top(self, w) -> tuple[dict, list, int]:
        """t^w against its degree's top slice, in integers: (units, images,
        D) with D * t^w = sum of x * t^u over units and of x * g_i * t^v
        over the (i, v, x) in images, for the unscaled g_i: x is s times
        the slice's coefficient of s * g_i * t^v.  The right-hand side is
        t^w's unit column, factored with the slice."""
        d = self.ring.degree(w)
        index, positions, echelon = self._top_slice(d)
        P = len(positions)
        width = len(self.classes) * P
        x, D = echelon.solve_column(width + index[w])
        mono = self.ring.monomials_of_degree(d)
        prev = self.ring.monomials_of_degree(d - self.ring.gauge_denominator)
        units = {mono[c - width]: xc for c, xc in x.items() if c >= width}
        images = [
            (c // P, prev[c % P], xc * self.scale)
            for c, xc in x.items() if c < width
        ]
        return units, images, D

    def top_column(self, i: int, v) -> dict:
        """The top slice's column s * g_i * t^v, monomial -> int."""
        d = self.ring.degree(v) + self.ring.gauge_denominator
        _, positions, echelon = self._top_slice(d)
        mono = self.ring.monomials_of_degree(d)
        column = echelon.column(i * len(positions) + positions[v])
        return {mono[r]: c for r, c in column}

    def to_json(self):
        return {
            "vanishing": self.vanishing,
            "top_dimension": self.top_dim,
            "equals_volume": self.equals_volume,
            "monomial_basis": [list(w) for w in self.monomial_basis],
            "per_degree": {str(d): v for d, v in sorted(self.per_degree.items())},
            "expected_polynomial": list(self.expected_polynomial.coeffs),
            "truncation": self.truncation,
        }


def verify_kouchnirenko(report, *, truncation_cap=None) -> KouchnirenkoResult:
    """Certify vanishing of the lower Koszul cohomology and count the top,
    for the fiber and polytope of a ``nondegeneracy.NondegeneracyReport``.

    The predicted top-cohomology polynomial is the full cone's numerator.
    The truncation degree is ``_window``, its degree plus M, which bounds
    the support because the fiber is nondegenerate: a report that is not
    raises DegenerateFiber.  A truncation above the int ``truncation_cap``
    raises TruncationTooSmall; only then are the slices factored, unless the
    report has one origin-free facet, whose certificate factored them: such
    a report carries that result, which is returned.
    """
    if not report.overall:
        bad = [c.face_id for c in report.offending_faces()]
        raise DegenerateFiber(f"degenerate fiber; offending faces {bad}")
    polytope = report.polytope
    expected, k = cone_numerator(polytope)
    assert k == polytope.n, "full-cone pieces must have n generators"
    truncation = _window(expected, polytope.gauge_denominator)
    if truncation_cap is not None and truncation > truncation_cap:
        raise TruncationTooSmall(truncation, truncation_cap)
    return report.kouchnirenko or KouchnirenkoResult(
        ConeRing(polytope), report.fiber, expected, truncation
    )


class PoincareCheck:
    def __init__(
        self, ok, polynomial, per_degree, coefficients_nonnegative, sums_to_volume
    ):
        self.ok: bool = ok
        self.polynomial: PolyZ = polynomial
        self.per_degree: dict[int, int] = per_degree
        self.coefficients_nonnegative: bool = coefficients_nonnegative
        self.sums_to_volume: bool = sums_to_volume

    def to_json(self):
        return {
            "ok": self.ok,
            "polynomial": list(self.polynomial.coeffs),
            "per_degree": {str(d): v for d, v in sorted(self.per_degree.items())},
            "coefficients_nonnegative": self.coefficients_nonnegative,
            "sums_to_volume": self.sums_to_volume,
        }


def poincare_identity_check(result: KouchnirenkoResult) -> PoincareCheck:
    """Check the top-cohomology series identity degree by degree.

    Raises MismatchAtDegree on the first disagreement between the computed
    top-cohomology dimensions and the predicted polynomial coefficients.
    """
    polytope = result.ring.polytope
    poly = result.expected_polynomial
    for d in range(result.truncation + 1):
        got = result.per_degree.get(d, 0)
        want = poly.coeff(d)
        if got != want:
            raise MismatchAtDegree(d, got, want)
    nonneg = all(c >= 0 for c in poly.coeffs)
    total = sum(poly.coeffs)
    return PoincareCheck(
        ok=nonneg and total == polytope.normalized_volume,
        polynomial=poly,
        per_degree=result.per_degree,
        coefficients_nonnegative=nonneg,
        sums_to_volume=total == polytope.normalized_volume,
    )


