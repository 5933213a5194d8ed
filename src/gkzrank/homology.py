"""Koszul complexes, the facial resolution complex, and cohomology counts.

All complexes live over Q and are validated exactly: the composite of two
consecutive differentials must be the zero matrix.  The Koszul complex of
the leading log-derivative classes is internally graded and its differential
raises the grading by the gauge denominator; cohomology is computed strand
by strand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DegenerateFiber, MismatchAtDegree, TruncationTooSmall
from .jsonio import format_rational
from .lattice import NewtonPolytope
from .linalg import RationalSpan, SparseRationalMatrix, rank
from .rings import (
    ConeRing,
    GradedRingHandle,
    RingElement,
    log_derivative_classes,
    poincare_series,
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

    def differential(self, q: int) -> SparseRationalMatrix:
        return self.diffs.get(
            q, SparseRationalMatrix(self.dim(q + 1), self.dim(q))
        )

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

    def to_json(self):
        return {
            "bases": {str(q): [str(lbl) for lbl in b] for q, b in sorted(self.bases.items())},
            "differentials": {
                str(q): [
                    [i, j, format_rational(v)] for i, j, v in m.triplets()
                ]
                for q, m in sorted(self.diffs.items())
            },
        }


def cohomology_dims(complex_):
    """Cohomology dimensions of a plain or internally graded complex."""
    return complex_.cohomology_dims()


# -- Koszul complexes ----------------------------------------------------------


@dataclass
class KoszulDatum:
    """Input bundle for a Koszul complex build."""

    ring: GradedRingHandle
    sequence: list[RingElement]
    truncation_degree: int


class GradedKoszulComplex:
    """Koszul complex of a homogeneous sequence, truncated in the grading.

    Bases are indexed by (wedge index set, monomial); the wedge set carries
    no degree, so the strand through K^q in internal degree d maps to
    internal degree d + step at q + 1.  New wedge factors multiply from the
    left, matching the twisted de Rham differential.
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
        ring, m, D = self.ring, self.m, self.truncation
        slices = {d: ring.monomials_of_degree(d) for d in range(D + 1)}
        for q in range(m + 1):
            for d in range(D + 1):
                labels = [
                    (I, w)
                    for I in itertools.combinations(range(m), q)
                    for w in slices[d]
                ]
                if labels:
                    self.bases[(q, d)] = labels
        for q in range(m):
            for d in range(D + 1 - self.step):
                src = self.basis(q, d)
                dst = self.basis(q + 1, d + self.step)
                if not src or not dst:
                    continue
                index = {lbl: i for i, lbl in enumerate(dst)}
                mat = SparseRationalMatrix(len(dst), len(src))
                for col, (I, w) in enumerate(src):
                    for i, sign, J in wedge_terms(I, m):
                        for u, coeff in self.sequence[i].terms.items():
                            prod = ring.multiply_monomials(u, w)
                            if prod is None:
                                continue
                            row = index.get((J, prod))
                            if row is None:
                                raise AssertionError(
                                    "product escaped the truncated basis"
                                )
                            mat.set(
                                row, col, mat.get(row, col) + sign * coeff
                            )
                self.diffs[(q, d)] = mat

    def validate(self):
        for (q, d), mat in self.diffs.items():
            nxt = self.diffs.get((q + 1, d + self.step))
            if nxt is not None:
                if not nxt.matmul(mat).is_zero():
                    raise AssertionError(f"d o d != 0 at {(q, d)}")

    def cohomology_dims(self) -> dict[int, dict]:
        """Per-degree and total cohomology dimensions.

        H^q at internal degree d uses the incoming differential from degree
        d - step; degrees whose outgoing map would leave the truncation are
        omitted for q < m (they are not certified).
        """
        out: dict[int, dict] = {}
        # Each map is ranked once, though it is the outgoing map at q and the
        # incoming one at q + 1; a map that was never stored is zero.
        ranks = {key: rank(mat) for key, mat in self.diffs.items()}
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

    def to_json(self):
        return {
            "step": self.step,
            "truncation": self.truncation,
            "bases": {
                f"{q},{d}": [f"{list(I)}|{','.join(map(str, w))}" for I, w in b]
                for (q, d), b in sorted(self.bases.items())
            },
            "differentials": {
                f"{q},{d}": [[i, j, format_rational(v)] for i, j, v in m.triplets()]
                for (q, d), m in sorted(self.diffs.items())
            },
        }


def koszul_complex(datum: KoszulDatum) -> GradedKoszulComplex:
    """Build and validate the truncated Koszul complex of the datum."""
    cx = GradedKoszulComplex(datum.ring, datum.sequence, datum.truncation_degree)
    cx.validate()
    return cx


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

    def to_json(self):
        return {
            "levels": {
                str(q): [list(map(list, f.vertices)) for f in faces]
                for q, faces in sorted(self.levels.items())
            },
            "augmented": self.augmented,
            "signs": {
                f"{a},{b}": s for (a, b), s in sorted(self.signs.items())
            },
        }


def build_face_complex(polytope: NewtonPolytope) -> FaceComplex:
    return FaceComplex(polytope)


@dataclass
class FaceComplexReport:
    ok: bool
    weights_checked: int
    weight_bound: int
    failures: list = field(default_factory=list)

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
    fc = build_face_complex(polytope)
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


@dataclass
class KouchnirenkoResult:
    vanishing: bool
    top_dim: int
    equals_volume: bool
    monomial_basis: list
    per_degree: dict[int, int]
    expected_polynomial: PolyZ
    truncation: int
    lower_dims: dict[int, dict]
    ring: ConeRing = field(repr=False, compare=False)

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
    """The series of the full ring times (1 - t^M)^n, always a polynomial."""
    M = polytope.gauge_denominator
    n = polytope.n
    ring = ConeRing(polytope)
    prod = poincare_series(ring) * ((PolyZ([1]) - PolyZ.monomial(M)) ** n)
    return prod.as_polynomial()


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
    from .nondegeneracy import is_nondegenerate  # local to avoid a cycle

    if polytope is None:
        polytope = NewtonPolytope(matrix)
    if require_nondegenerate:
        report = is_nondegenerate(matrix, fiber, polytope)
        if not report.overall:
            bad = [c.face_id for c in report.offending_faces()]
            raise DegenerateFiber(f"degenerate fiber; offending faces {bad}")
    n = polytope.n
    M = polytope.gauge_denominator
    ring = ConeRing(polytope)
    expected = expected_top_polynomial(polytope)
    truncation = expected.degree + M
    if truncation_cap is not None and truncation > truncation_cap:
        raise TruncationTooSmall(truncation, truncation_cap)
    sequence = log_derivative_classes(fiber, None, polytope)
    cx = koszul_complex(KoszulDatum(ring, sequence, truncation))
    dims = cx.cohomology_dims()
    lower = {q: dims[q] for q in range(n)}
    vanishing = all(d["total"] == 0 for d in lower.values())
    per_degree = dims[n]["per_degree"]
    top_dim = dims[n]["total"]
    # Greedy monomial basis of the top quotient, degree by degree.
    basis = []
    for d in range(expected.degree + 1):
        span = RationalSpan(len(ring.monomials_of_degree(d)))
        mono = ring.monomials_of_degree(d)
        index = {w: i for i, w in enumerate(mono)}
        for prev in ring.monomials_of_degree(d - M):
            for g in sequence:
                vec = {}
                for u, c in g.terms.items():
                    prod = ring.multiply_monomials(u, prev)
                    if prod is not None:
                        vec[index[prod]] = vec.get(index[prod], Fraction(0)) + c
                span.add(vec)
        for i, w in enumerate(mono):
            if span.add({i: Fraction(1)}):
                basis.append(w)
    return KouchnirenkoResult(
        vanishing=vanishing,
        top_dim=top_dim,
        equals_volume=top_dim == polytope.normalized_volume,
        monomial_basis=basis,
        per_degree=per_degree,
        expected_polynomial=expected,
        truncation=truncation,
        lower_dims=lower,
        ring=ring,
    )


@dataclass
class PoincareCheck:
    ok: bool
    polynomial: PolyZ
    per_degree: dict[int, int]
    coefficients_nonnegative: bool
    sums_to_volume: bool

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


@dataclass
class RegularSequenceCheck:
    ok: bool
    vanishing_below: bool
    embeds_in_quotient: bool
    dims: dict[int, dict]


def koszul_regular_sequence_check(
    ring: GradedRingHandle, sequence, regular_length: int, truncation: int
) -> RegularSequenceCheck:
    """Vanishing below the regular length, and the top bound, on a toy module.

    For a sequence whose first ``regular_length`` entries act regularly the
    cohomology below that spot must vanish, and the dimension at the spot is
    bounded per degree by the quotient modulo those entries.
    """
    cx = koszul_complex(KoszulDatum(ring, list(sequence), truncation))
    dims = cx.cohomology_dims()
    d = regular_length
    vanishing = all(dims[q]["total"] == 0 for q in range(d))
    embeds = True
    if d <= cx.m:
        step = cx.step
        for e in range(truncation + 1):
            if d < cx.m and e + step > truncation:
                continue
            h = dims.get(d, {}).get("per_degree", {}).get(e, 0)
            if h == 0:
                continue
            mono = ring.monomials_of_degree(e)
            index = {w: i for i, w in enumerate(mono)}
            span = RationalSpan(len(mono))
            for prev in ring.monomials_of_degree(e - step):
                for g in list(sequence)[:d]:
                    vec = {}
                    for u, c in g.terms.items():
                        prod = ring.multiply_monomials(u, prev)
                        if prod is not None:
                            vec[index[prod]] = vec.get(
                                index[prod], Fraction(0)
                            ) + c
                    span.add(vec)
            quotient_dim = len(mono) - span.rank
            if h > quotient_dim:
                embeds = False
    return RegularSequenceCheck(
        ok=vanishing and embeds,
        vanishing_below=vanishing,
        embeds_in_quotient=embeds,
        dims=dims,
    )
