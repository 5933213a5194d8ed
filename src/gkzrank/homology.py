"""Top Koszul cohomology of the leading classes, and the proof that the
lower cohomology vanishes, both read off the factored top slices.

The Koszul complex of the leading log-derivative classes is internally
graded and its differential raises the grading by the gauge denominator M.
``KouchnirenkoResult`` builds none of its maps: the nested quotients
R/(g_1..g_j), counted by degree from the pivots of the top slices that the
monomial basis and the de Rham solves factor anyway, decide the lower
vanishing (see its docstring).  The full complex, with its d o d check, is
the reference ``oracles.GradedKoszulComplex``.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import DegenerateFiber, MismatchAtDegree, TruncationTooSmall
from .lattice import NewtonPolytope
from .linalg import Echelon, SparseRationalMatrix
from .nondegeneracy import is_nondegenerate
from .rings import (
    ConeRing,
    cone_numerator,
    integral_classes,
    log_derivative_classes,
    sequence_image,
)
from .series import PolyZ


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


class KouchnirenkoResult:
    """Koszul counts of one fiber's leading classes, read off the factored
    top slices behind its monomial basis and its solves, all built in
    integers from ``integral_classes``.

    Let R be the cone ring, g_1..g_k the classes (homogeneous of degree M)
    and S_j = R/(g_1..g_j), so S_0 = R and S_k is the top cohomology.  The
    top slice of degree d is [sequence image | identity] with the image
    columns class by class: column i * |R_{d-M}| + a holds c_i * g_i * t^v
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
    with no Koszul map built.  ``per_degree`` and ``top_dim`` are those of
    S_k, in every degree up to D."""

    def __init__(self, ring: ConeRing, sequence, expected_polynomial, truncation):
        self.ring: ConeRing = ring
        self.sequence: list = sequence
        self.expected_polynomial: PolyZ = expected_polynomial
        self.truncation: int = truncation
        self._scaled, self._scales = integral_classes(sequence)
        self._slices: dict[int, tuple] = {}
        quotients = [self._quotient_dims(d) for d in range(truncation + 1)]
        # A zero sequence has no degree: the full complex then steps by 1,
        # not M, and so does the criterion.
        step = ring.gauge_denominator if any(g.terms for g in self._scaled) else 1
        self.vanishing: bool = all(
            S[j] == S[j - 1] - (quotients[d - step][j - 1] if d >= step else 0)
            for d, S in enumerate(quotients) for j in range(1, len(S))
        )
        self.per_degree: dict[int, int] = {
            d: S[-1] for d, S in enumerate(quotients) if S[-1]
        }
        self.top_dim: int = sum(self.per_degree.values())
        self.equals_volume: bool = self.top_dim == ring.polytope.normalized_volume
        self.monomial_basis: list = [
            w for d in range(expected_polynomial.degree + 1) for w in self.top_basis(d)
        ]

    def _quotient_dims(self, d: int) -> list[int]:
        """dim S_j(d) for j = 0..k; below degree M no class reaches d."""
        k, size = len(self._scaled), len(self.ring.monomials_of_degree(d))
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
        built once.  Image column i * len(prev) + a holds c_i * g_i * t^v
        for v the a-th monomial of degree d - M (``sequence_image``'s
        columns, regrouped class by class); unit column k * len(prev) + r
        stands for the r-th monomial of degree d."""
        if d not in self._slices:
            ring, M = self.ring, self.ring.gauge_denominator
            prev, k = ring.monomials_of_degree(d - M), len(self._scaled)
            image = sequence_image(ring, self._scaled, M, d)
            # sequence_image's column a * k + i goes to i * len(prev) + a.
            entries = {
                (r, c % k * len(prev) + c // k): v
                for (r, c), v in image.entries.items()
            }
            entries.update(((r, image.cols + r), 1) for r in range(image.rows))
            mat = SparseRationalMatrix(image.rows, image.cols + image.rows, entries)
            index = {w: r for r, w in enumerate(ring.monomials_of_degree(d))}
            positions = {v: a for a, v in enumerate(prev)}
            self._slices[d] = (index, positions, Echelon(mat))
        return self._slices[d]

    def top_basis(self, d: int) -> list:
        """The greedy basis monomials of top degree d: the first monomials
        that complete the span of the sequence image, the unit pivots."""
        _, positions, echelon = self._top_slice(d)
        mono = self.ring.monomials_of_degree(d)
        width = len(self.sequence) * len(positions)
        return [mono[j - width] for _, j, _ in echelon.pivots if j >= width]

    def solve_top(self, w) -> tuple[dict, list, int]:
        """t^w against its degree's top slice, in integers: (units, images,
        D) with D * t^w = sum of x * t^u over units and of x * g_i * t^v
        over the (i, v, x) in images, for the unscaled g_i: x is c_i times
        the slice's coefficient of c_i * g_i.  The right-hand side is t^w's
        unit column, factored with the slice."""
        d = self.ring.degree(w)
        index, positions, echelon = self._top_slice(d)
        P = len(positions)
        width = len(self.sequence) * P
        x, D = echelon.solve_column(width + index[w])
        mono = self.ring.monomials_of_degree(d)
        prev = self.ring.monomials_of_degree(d - self.ring.gauge_denominator)
        units = {mono[c - width]: xc for c, xc in x.items() if c >= width}
        images = [
            (c // P, prev[c % P], xc * self._scales[c // P])
            for c, xc in x.items() if c < width
        ]
        return units, images, D

    def top_column(self, i: int, v) -> tuple[int, dict]:
        """c_i and the top slice's column c_i * g_i * t^v, monomial -> int."""
        d = self.ring.degree(v) + self.ring.gauge_denominator
        _, positions, echelon = self._top_slice(d)
        mono = self.ring.monomials_of_degree(d)
        column = echelon.column(i * len(positions) + positions[v])
        return self._scales[i], {mono[r]: c for r, c in column}

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


def expected_top_polynomial(polytope: NewtonPolytope) -> PolyZ:
    """The series of the full ring times (1 - t^M)^n: the cone's numerator."""
    numerator, k = cone_numerator(polytope, polytope.index_set(polytope.n - 1))
    assert k == polytope.n, "full-cone pieces must have n generators"
    return numerator


def verify_kouchnirenko(
    matrix, fiber, polytope: NewtonPolytope | None = None, *,
    require_nondegenerate: bool = True,
    truncation_cap: int | None = None,
):
    """Certify vanishing of the lower Koszul cohomology and count the top.

    The truncation degree is the degree of the predicted top-cohomology
    polynomial plus one grading window, which bounds the support whenever
    the fiber is nondegenerate.  With ``require_nondegenerate`` the fiber is
    certified first and a degenerate one raises; without it the scan runs
    anyway and reports whatever failure signal appears.  A truncation above
    ``truncation_cap`` raises TruncationTooSmall before any slice is built.
    """
    if polytope is None:
        polytope = NewtonPolytope(matrix)
    if require_nondegenerate:
        report = is_nondegenerate(matrix, fiber, polytope)
        if not report.overall:
            bad = [c.face_id for c in report.offending_faces()]
            raise DegenerateFiber(f"degenerate fiber; offending faces {bad}")
    ring = ConeRing(polytope)
    expected = expected_top_polynomial(polytope)
    truncation = expected.degree + polytope.gauge_denominator
    if truncation_cap is not None and truncation > truncation_cap:
        raise TruncationTooSmall(truncation, truncation_cap)
    polytope.points_of_degree(truncation)  # size the point table once
    sequence = log_derivative_classes(fiber, None, polytope)
    return KouchnirenkoResult(ring, sequence, expected, truncation)


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


def poincare_identity_check(
    matrix, fiber, polytope=None, *, kouchnirenko: KouchnirenkoResult | None = None
) -> PoincareCheck:
    """Check the top-cohomology series identity degree by degree.

    Raises MismatchAtDegree on the first disagreement between the computed
    top-cohomology dimensions and the predicted polynomial coefficients.
    A ``kouchnirenko`` result already computed for this fiber is reused.
    """
    if polytope is None:
        polytope = NewtonPolytope(matrix)
    result = kouchnirenko or verify_kouchnirenko(matrix, fiber, polytope)
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


