"""Koszul complexes of the leading classes, and their cohomology counts.

The composite of two consecutive differentials is checked to be the zero
matrix.  The Koszul complex of the leading log-derivative classes is
internally graded and its differential raises the grading by the gauge
denominator; cohomology is computed strand by strand.
"""

from __future__ import annotations

import itertools

from .errors import DegenerateFiber, MismatchAtDegree, TruncationTooSmall
from .lattice import NewtonPolytope
from .linalg import Echelon, SparseRationalMatrix, rank
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


# -- Koszul complexes ----------------------------------------------------------


class GradedKoszulComplex:
    """Koszul complex of a homogeneous sequence, truncated in the grading.

    Bases are indexed by (wedge index set, monomial); the wedge set carries
    no degree, so the strand through K^q in internal degree d maps to
    internal degree d + step at q + 1.  New wedge factors multiply from the
    left, matching the twisted de Rham differential.  Composites are
    checked to vanish on construction.
    """

    def __init__(self, ring, sequence, truncation):
        self.ring = ring
        self.sequence = list(sequence)
        self.truncation = truncation
        degs = set()
        for g in self.sequence:
            for w in g.terms:
                degs.add(ring.degree(w))
        if len(degs) > 1:
            raise ValueError("sequence elements must share a single degree")
        self.step = degs.pop() if degs else 1
        self.m = len(self.sequence)
        self.bases: dict[tuple[int, int], list] = {}
        self.diffs: dict[tuple[int, int], SparseRationalMatrix] = {}
        self.images: dict[int, SparseRationalMatrix] = {}
        self._build()
        self.validate()

    def basis(self, q: int, d: int) -> list:
        return self.bases.get((q, d), [])

    def differential(self, q: int, d: int) -> SparseRationalMatrix:
        key = (q, d)
        if key not in self.diffs:
            return SparseRationalMatrix(
                len(self.basis(q + 1, d + self.step)), len(self.basis(q, d))
            )
        return self.diffs[key]

    def _build(self):
        ring, m, D, step = self.ring, self.m, self.truncation, self.step
        slices = {d: ring.monomials_of_degree(d) for d in range(D + 1)}
        wedges = [list(itertools.combinations(range(m), q)) for q in range(m + 1)]
        for q in range(m + 1):
            for d in range(D + 1):
                labels = [(I, w) for I in wedges[q] for w in slices[d]]
                if labels:
                    self.bases[(q, d)] = labels
        position = {J: k for level in wedges for k, J in enumerate(level)}
        # The sequence image on each slice, kept in ``images`` by target
        # degree and placed once per wedge set: the column of (I, w) gets,
        # for each i not in I, the signed column g_i * t^w in the rows of
        # J = I + {i}.
        for d in range(D + 1 - step):
            src, dst = len(slices[d]), len(slices[d + step])
            if not src or not dst:
                continue
            self.images[d + step] = sequence_image(ring, self.sequence, step, d + step)
            columns = self.images[d + step].columns()
            for q in range(m):
                entries = {}
                for a, I in enumerate(wedges[q]):
                    for i, sign, J in wedge_terms(I, m):
                        top = position[J] * dst
                        for k in range(src):
                            for r, c in columns[k * m + i].items():
                                entries[(top + r, a * src + k)] = sign * c
                self.diffs[(q, d)] = SparseRationalMatrix(
                    len(wedges[q + 1]) * dst, len(wedges[q]) * src, entries
                )

    def validate(self):
        for (q, d), mat in self.diffs.items():
            nxt = self.diffs.get((q + 1, d + self.step))
            if nxt is not None:
                if not nxt.matmul(mat).is_zero():
                    raise AssertionError(f"d o d != 0 at {(q, d)}")

    def cohomology_dims(self, known: dict | None = None) -> dict[int, dict]:
        """Per-degree and total cohomology dimensions.

        H^q at internal degree d uses the incoming differential from degree
        d - step; degrees whose outgoing map would leave the truncation are
        omitted for q < m (they are not certified).  ``known`` maps (q, d)
        to the rank of that map where the caller already has it.
        """
        out: dict[int, dict] = {}
        # Each map is ranked once, though it is the outgoing map at q and the
        # incoming one at q + 1; a map that was never stored is zero.
        known = known or {}
        ranks = {k: known[k] if k in known else rank(m) for k, m in self.diffs.items()}
        for q in range(self.m + 1):
            per = {}
            for d in range(self.truncation + 1):
                if q < self.m and d + self.step > self.truncation:
                    continue
                dim = len(self.basis(q, d))
                h = dim - ranks.get((q, d), 0) - ranks.get((q - 1, d - self.step), 0)
                if h:
                    per[d] = h
            out[q] = {"per_degree": per, "total": sum(per.values())}
        return out


# -- the facial resolution complex ---------------------------------------------


# -- the Kouchnirenko-style verification ----------------------------------------


class KouchnirenkoResult:
    """Koszul counts of one fiber's leading classes, and the factored top
    slices behind its monomial basis and its solves, all built in integers
    from ``integral_classes``.  Each top map is the sequence image of its
    target degree's slice up to the signs and order of its columns, so its
    rank is read off that slice and no top map is eliminated on its own."""

    def __init__(self, ring: ConeRing, sequence, expected_polynomial, truncation):
        self.ring: ConeRing = ring
        self.sequence: list = sequence
        self.expected_polynomial: PolyZ = expected_polynomial
        self.truncation: int = truncation
        self._scaled, self._scales = integral_classes(sequence)
        self._slices: dict[int, tuple] = {}
        cx = GradedKoszulComplex(ring, self._scaled, truncation)
        # A zero sequence has no degree, so its complex steps by 1, not M.
        self._images = cx.images if cx.step == ring.gauge_denominator else {}
        n = cx.m
        top = {(q, d): self._image_rank(d + cx.step) for q, d in cx.diffs if q == n - 1}
        dims = cx.cohomology_dims(top)
        self.lower_dims: dict[int, dict] = {q: dims[q] for q in range(n)}
        self.vanishing: bool = all(h["total"] == 0 for h in self.lower_dims.values())
        self.per_degree: dict[int, int] = dims[n]["per_degree"]
        self.top_dim: int = dims[n]["total"]
        self.equals_volume: bool = self.top_dim == ring.polytope.normalized_volume
        self.monomial_basis: list = [
            w for d in range(expected_polynomial.degree + 1) for w in self.top_basis(d)
        ]

    def _top_slice(self, d: int) -> tuple:
        """Row index, the slice of degree d - M and the factored integer
        matrix [sequence_image | identity] of top degree d, built once.
        Image column c holds c_i * g_i * t^v for i = c % k and v the
        (c // k)-th monomial of degree d - M; unit column k * len(prev) + r
        stands for the r-th monomial of degree d.  The Koszul build's image
        is reused where it made one."""
        if d not in self._slices:
            ring, M = self.ring, self.ring.gauge_denominator
            image = self._images.get(d) or sequence_image(ring, self._scaled, M, d)
            entries = dict(image.entries)
            entries.update(((r, image.cols + r), 1) for r in range(image.rows))
            mat = SparseRationalMatrix(image.rows, image.cols + image.rows, entries)
            index = {w: r for r, w in enumerate(ring.monomials_of_degree(d))}
            prev = ring.monomials_of_degree(d - M)
            self._slices[d] = (index, prev, Echelon(mat))
        return self._slices[d]

    def _image_rank(self, d: int) -> int:
        """Rank of the sequence image into degree d: its slice's pivots
        left of the unit columns, i.e. all of them but the unit pivots."""
        return self._top_slice(d)[2].rank - len(self.top_basis(d))

    def top_basis(self, d: int) -> list:
        """The greedy basis monomials of top degree d: the first monomials
        that complete the span of the sequence image, the unit pivots."""
        _, prev, echelon = self._top_slice(d)
        mono = self.ring.monomials_of_degree(d)
        width = len(self.sequence) * len(prev)
        return [mono[j - width] for _, j, _ in echelon.pivots if j >= width]

    def solve_top(self, w) -> tuple[dict, list, int]:
        """t^w against its degree's top slice, in integers: (units, images,
        D) with D * t^w = sum of x * t^u over units and of x * g_i * t^v
        over the (i, v, x) in images, for the unscaled g_i: x is c_i times
        the slice's coefficient of c_i * g_i.  The unit columns make every
        monomial solvable."""
        k = len(self.sequence)
        d = self.ring.degree(w)
        index, prev, echelon = self._top_slice(d)
        x, D = echelon.solve_integer({index[w]: 1})
        width = k * len(prev)
        mono = self.ring.monomials_of_degree(d)
        nonzero = sorted(x.items())
        units = {mono[c - width]: xc for c, xc in nonzero if c >= width}
        images = [
            (c % k, prev[c // k], xc * self._scales[c % k])
            for c, xc in nonzero if c < width
        ]
        return units, images, D

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
    ``truncation_cap`` raises TruncationTooSmall before the complex is built.
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


