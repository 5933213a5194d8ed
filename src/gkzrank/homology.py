"""Koszul complexes, the facial resolution complex, and cohomology counts.

All complexes live over Q and are validated exactly: the composite of two
consecutive differentials must be the zero matrix.  The Koszul complex of
the leading log-derivative classes is internally graded and its differential
raises the grading by the gauge denominator; cohomology is computed strand
by strand.
"""

from __future__ import annotations

import itertools

from .errors import DegenerateFiber, MismatchAtDegree, TruncationTooSmall
from .lattice import NewtonPolytope
from .linalg import Echelon, SparseRationalMatrix, rank
from .nondegeneracy import is_nondegenerate
from .rings import (
    ConeRing,
    GradedRingHandle,
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


class CochainComplexQ:
    """A finite complex of Q-vector spaces with labeled bases.

    ``bases[q]`` is the list of basis labels in cohomological degree q and
    ``diffs[q]`` the matrix of d: C^q -> C^{q+1} (one column per source basis
    label).  Composites are checked to vanish on construction.
    """

    def __init__(self, bases: dict[int, list], diffs: dict[int, SparseRationalMatrix]):
        self.bases = {q: list(b) for q, b in bases.items() if b}
        self.diffs = {}
        for q, m in diffs.items():
            src = len(self.bases.get(q, ()))
            dst = len(self.bases.get(q + 1, ()))
            if m.rows != dst or m.cols != src:
                raise ValueError(f"differential at {q} has wrong shape")
            self.diffs[q] = m
        self.validate()

    @property
    def degrees(self):
        return sorted(self.bases)

    def dim(self, q: int) -> int:
        return len(self.bases.get(q, ()))

    def validate(self):
        for q in list(self.diffs):
            if q + 1 in self.diffs:
                prod = self.diffs[q + 1].matmul(self.diffs[q])
                if not prod.is_zero():
                    raise AssertionError(f"d o d != 0 at degree {q}")

    def cohomology_dims(self) -> dict[int, int]:
        ranks = {q: rank(m) for q, m in self.diffs.items()}
        return {
            q: self.dim(q) - ranks.get(q, 0) - ranks.get(q - 1, 0)
            for q in self.degrees
        }


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
        # The sequence image on each slice, placed once per wedge set: the
        # column of (I, w) gets, for each i not in I, the signed column
        # g_i * t^w in the rows of J = I + {i}.
        for d in range(D + 1 - step):
            src, dst = len(slices[d]), len(slices[d + step])
            if not src or not dst:
                continue
            columns = sequence_image(ring, self.sequence, step, d + step).columns()
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


class FaceComplex:
    """The complex of facial rings indexed by origin-clear faces.

    Spot q collects the faces of dimension n-1-q; differentials are the
    signed facial projections, and when the origin is interior an
    augmentation to the ground field is appended.  The complex splits into
    finite weight pieces, one for each lattice point of the exponent cone.
    """

    def __init__(self, polytope: NewtonPolytope):
        self.polytope = polytope
        n = polytope.n
        self.levels = {q: polytope.index_set(n - 1 - q) for q in range(n)}
        self.augmented = polytope.origin_interior
        self.signs: dict[tuple[int, int], int] = {}
        for q in range(n - 1):
            next_ids = {f.id for f in self.levels[q + 1]}
            for face in self.levels[q]:
                for sub in polytope.subfaces(face):
                    if sub.id in next_ids:
                        self.signs[(face.id, sub.id)] = polytope.incidence_sign(
                            face, sub
                        )

    def weight_piece(self, w) -> CochainComplexQ:
        P = self.polytope
        n = P.n
        bases: dict[int, list] = {}
        for q in range(n):
            lbls = [
                f.id for f in self.levels[q] if P.face_cone_contains(w, f)
            ]
            if lbls:
                bases[q] = lbls
        if self.augmented and all(c == 0 for c in w):
            bases[n] = ["unit"]
        diffs: dict[int, SparseRationalMatrix] = {}
        for q in range(n - 1):
            src = bases.get(q, [])
            dst = bases.get(q + 1, [])
            mat = SparseRationalMatrix(len(dst), len(src))
            for col, fid in enumerate(src):
                for row, gid in enumerate(dst):
                    s = self.signs.get((fid, gid))
                    if s is not None:
                        mat.set(row, col, s)
            if src:
                diffs[q] = mat
        if self.augmented and n in bases:
            src = bases.get(n - 1, [])
            mat = SparseRationalMatrix(1, len(src))
            for col in range(len(src)):
                mat.set(0, col, 1)
            if src:
                diffs[n - 1] = mat
        return CochainComplexQ(bases, diffs)


class FaceComplexReport:
    def __init__(self, ok, weights_checked, weight_bound, failures=None):
        self.ok: bool = ok
        self.weights_checked: int = weights_checked
        self.weight_bound: int = weight_bound
        self.failures: list = [] if failures is None else failures

    def to_json(self):
        return {
            "ok": self.ok,
            "weights_checked": self.weights_checked,
            "weight_bound": self.weight_bound,
            "failures": [
                {"weight": list(w), "dims": dims} for w, dims in self.failures
            ],
        }


def check_face_complex_exactness(
    polytope: NewtonPolytope, weight_bound: int
) -> FaceComplexReport:
    """Verify the weight pieces are exact away from spot zero.

    Every lattice point w of the cone with scaled gauge at most the bound
    must give a piece with one-dimensional kernel at the left end and no
    higher cohomology.
    """
    if weight_bound < 0:
        raise ValueError(f"weight bound must be >= 0: {weight_bound}")
    fc = FaceComplex(polytope)
    ring = ConeRing(polytope)
    failures = []
    count = 0
    for d in range(weight_bound + 1):
        for w in ring.monomials_of_degree(d):
            count += 1
            piece = fc.weight_piece(w)
            dims = piece.cohomology_dims()
            good = dims.get(0, 0) == 1 and all(
                v == 0 for q, v in dims.items() if q != 0
            )
            if not good:
                failures.append((w, dims))
    return FaceComplexReport(not failures, count, weight_bound, failures)


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
        stands for the r-th monomial of degree d."""
        if d not in self._slices:
            ring, M = self.ring, self.ring.gauge_denominator
            image = sequence_image(ring, self._scaled, M, d)
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
        units = {mono[c - width]: xc for c, xc in enumerate(x[width:], width) if xc}
        images = [
            (c % k, prev[c // k], xc * self._scales[c % k])
            for c, xc in enumerate(x[:width]) if xc
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


class RegularSequenceCheck:
    def __init__(self, ok, vanishing_below, embeds_in_quotient, dims):
        self.ok: bool = ok
        self.vanishing_below: bool = vanishing_below
        self.embeds_in_quotient: bool = embeds_in_quotient
        self.dims: dict[int, dict] = dims


def koszul_regular_sequence_check(
    ring: GradedRingHandle, sequence, regular_length: int, truncation: int
) -> RegularSequenceCheck:
    """Vanishing below the regular length, and the top bound, on a toy module.

    For a sequence whose first ``regular_length`` entries act regularly the
    cohomology below that spot must vanish, and the dimension at the spot is
    bounded per degree by the quotient modulo those entries.
    """
    cx = GradedKoszulComplex(ring, sequence, truncation)
    dims = cx.cohomology_dims()
    d = regular_length
    vanishing = all(dims[q]["total"] == 0 for q in range(d))
    embeds = True
    if d <= cx.m:
        # per_degree holds the certified degrees with nonzero H^d only.
        for e, h in dims[d]["per_degree"].items():
            image = sequence_image(ring, cx.sequence[:d], cx.step, e)
            if h > image.rows - rank(image):
                embeds = False
    return RegularSequenceCheck(
        ok=vanishing and embeds,
        vanishing_below=vanishing,
        embeds_in_quotient=embeds,
        dims=dims,
    )
