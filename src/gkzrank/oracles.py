"""Checks of the paper's intermediate claims, which ``gkz analyze`` never runs.

Exactness of the facial resolution complex, the full graded Koszul complex
with its d o d check (the reference for the lower vanishing that ``homology``
reads off the top slices), gr of the twisted differential equal to the
Koszul differential, vanishing lower de Rham cohomology, regular sequences
on a free polynomial ring, the face-search graded product, and Poincare
series in lowest terms.  The reference algebra these checks and the tests
use lives here too, so that an ``analyze`` process never compiles it:
polynomial arithmetic (``PolyZ`` extends the coefficient holder of
``rings``), ring elements and the ``Fraction`` leading classes read off
``rings.leading_classes``, differential forms, sparse matrix products, and
the facets tight at a point with the face-cone membership, face edge bases
and orientation signs built on them.  The tests, the demos and
``gkz face-complex`` load this module; ``pipeline`` never imports it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

from . import rings
from .derham import _partial, _warn_if_not_normalized, twisted_differential
from .errors import FaceContainsOrigin, NotAFacePair, NotARelation, NotInCone
from .homology import KouchnirenkoResult, wedge_terms
from .lattice import (
    Face, NewtonPolytope, Vector, _check_length, _det, _dot, _integer_inverse,
    _rationals, _sub,
)
from .linalg import Echelon, SparseRationalMatrix, clear_denominators, rank
from .nondegeneracy import certify_face
from .operators import BoxOperator, _integer_vector, _row_hnf
from .rings import ConeRing, leading_classes, sequence_image


class PolyZ(rings.PolyZ):
    """``rings.PolyZ`` with arithmetic and printing."""

    __slots__ = ()

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "PolyZ":
        return cls([0] * degree + [coeff])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZ([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return PolyZ([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __neg__(self):
        return PolyZ([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return PolyZ([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return PolyZ()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyZ(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = PolyZ([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self) -> "PolyZ":
        g = self.content()
        if g <= 1:
            return self
        return PolyZ([c // g for c in self.coeffs])

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                if c == 1:
                    parts.append(t)
                elif c == -1:
                    parts.append(f"-{t}")
                else:
                    parts.append(f"{c}{t}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    __repr__ = __str__


def _poly_divmod_q(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        c = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = c
        for i, d in enumerate(den):
            num[shift + i] -= c * d
        num.pop()
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _poly_gcd_z(a: PolyZ, b: PolyZ) -> PolyZ:
    """Monic-free gcd over Q, returned primitive over Z."""
    fa = [Fraction(c) for c in a.coeffs]
    fb = [Fraction(c) for c in b.coeffs]
    while fb and any(fb):
        _, r = _poly_divmod_q(fa, fb)
        fa, fb = fb, r
    if not fa:
        return PolyZ()
    return PolyZ(clear_denominators(fa)[0]).primitive()


class RationalFunctionQ:
    """A fraction of integer polynomials, kept in lowest terms.

    The sign convention makes the lowest nonzero denominator coefficient
    positive, so series like 1/(1-t) print in the familiar orientation.
    Either part may be a bare ``rings.PolyZ``, such as a cone numerator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: rings.PolyZ, den: rings.PolyZ):
        num, den = PolyZ(num.coeffs), PolyZ(den.coeffs)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = PolyZ(), PolyZ([1])
            return
        g = _poly_gcd_z(num, den)
        if g.degree > 0:
            qn, rn = _poly_divmod_q(
                [Fraction(c) for c in num.coeffs], [Fraction(c) for c in g.coeffs]
            )
            qd, rd = _poly_divmod_q(
                [Fraction(c) for c in den.coeffs], [Fraction(c) for c in g.coeffs]
            )
            assert not any(rn) and not any(rd)
            num = PolyZ([int(c) for c in qn])
            den = PolyZ([int(c) for c in qd])
        cg = gcd(num.content(), den.content())
        if cg > 1:
            num = PolyZ([c // cg for c in num.coeffs])
            den = PolyZ([c // cg for c in den.coeffs])
        low = next(c for c in den.coeffs if c != 0)
        if low < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    def __eq__(self, other):
        if not isinstance(other, RationalFunctionQ):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def taylor(self, upto: int) -> list[int]:
        """Coefficients of the power series expansion through degree ``upto``."""
        d0 = self.den.coeff(0)
        if d0 == 0:
            raise ValueError("denominator vanishes at t=0")
        out: list[Fraction] = []
        for k in range(upto + 1):
            s = Fraction(self.num.coeff(k))
            for j in range(1, min(k, self.den.degree) + 1):
                s -= self.den.coeff(j) * out[k - j]
            out.append(s / d0)
        ints = []
        for c in out:
            if c.denominator != 1:
                raise ValueError("series has non-integer coefficients")
            ints.append(int(c))
        return ints

    def pole_order_at_one(self) -> int:
        """Multiplicity of the pole at t=1 (negative for a zero there)."""

        def one_multiplicity(poly: PolyZ) -> int:
            cs = [Fraction(c) for c in poly.coeffs]
            k = 0
            while cs and sum(cs) == 0:
                q, r = _poly_divmod_q(cs, [Fraction(1), Fraction(-1)])
                assert not any(r)
                cs = q
                k += 1
            return k

        return one_multiplicity(self.den) - one_multiplicity(self.num)

    def __str__(self):
        if self.den == PolyZ([1]):
            return str(self.num)
        return f"({self.num})/({self.den})"

    __repr__ = __str__


class RingElement:
    """Finite rational combination of lattice monomials, as its map
    ``terms`` from monomials to nonzero coefficients."""

    def __init__(self, terms=None):
        self.terms: dict[Vector, int | Fraction] = {} if terms is None else terms

    def add_term(self, w, coeff):
        w = tuple(w)
        new = self.terms.get(w, Fraction(0)) + Fraction(coeff)
        if new == 0:
            self.terms.pop(w, None)
        else:
            self.terms[w] = new

    @classmethod
    def monomial(cls, w, coeff=1) -> "RingElement":
        c = Fraction(coeff)
        return cls({tuple(w): c} if c != 0 else {})

    def is_zero(self) -> bool:
        return not self.terms

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        if c == 0:
            return RingElement()
        return RingElement({w: v * c for w, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.terms == other.terms


def log_derivative_classes(
    fiber, face: Face | None, polytope: NewtonPolytope
) -> list[RingElement]:
    """Leading classes of the logarithmic derivatives of the fiber polynomial,
    in ``Fraction``s: the integer classes of ``rings.leading_classes`` over
    their scale.

    For a face, sums run over the columns in its point set; for the full ring
    they run over the columns of gauge one, i.e. those on the boundary faces
    that avoid the origin.  Each output is homogeneous of degree equal to the
    gauge denominator.
    """
    fiber = _rationals(fiber, polytope.matrix.num_columns)
    classes, scale = leading_classes(ConeRing(polytope, face), fiber)
    return [
        RingElement({w: Fraction(c, scale) for w, c in g.items()}) for g in classes
    ]


class FreeRing:
    """Polynomial ring in k variables with positive integer weights."""

    def __init__(self, k: int, weights=None):
        self.k = k
        self.weights = tuple(weights) if weights else (1,) * k
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self._slices: dict[int, tuple[Vector, ...]] = {}

    def variable(self, i: int) -> RingElement:
        e = [0] * self.k
        e[i] = 1
        return RingElement.monomial(tuple(e))

    def degree(self, w) -> int:
        return _dot(self.weights, w)

    def monomials_of_degree(self, d: int) -> tuple[Vector, ...]:
        if d < 0:
            return ()
        cached = self._slices.get(d)
        if cached is None:
            out = []
            for combo in itertools.product(
                *(range(d // w + 1) for w in self.weights)
            ):
                if _dot(self.weights, combo) == d:
                    out.append(combo)
            cached = tuple(sorted(out))
            self._slices[d] = cached
        return cached

    def multiply_monomials(self, w1, w2) -> Vector:
        return tuple(a + b for a, b in zip(w1, w2))

    def poincare_series(self) -> RationalFunctionQ:
        den = PolyZ([1])
        for w in self.weights:
            den = den * (PolyZ([1]) - PolyZ.monomial(w))
        return RationalFunctionQ(PolyZ([1]), den)


def tight_facets(polytope: NewtonPolytope, w) -> frozenset[int] | None:
    """Facets on which w, scaled to gauge one, is tight; None off the cone:
    the positive facets attaining the scaled gauge and the zero-level
    facets through w."""
    if not polytope.cone_contains(w):
        return None
    top = polytope.graded_degree(w)
    return frozenset(
        [i for i, m, k in polytope._gauge_facets if k * _dot(m, w) == top]
        + [i for i, m in polytope._cone_facets if _dot(m, w) == 0]
    )


def face_cone_contains(polytope: NewtonPolytope, w, face: Face) -> bool:
    """Whether w lies in the cone spanned by a face avoiding the origin."""
    if face.contains_origin:
        raise FaceContainsOrigin(face.id)
    tight = tight_facets(polytope, w)
    return tight is not None and face.active <= tight


def _affine_basis(vertices) -> tuple[Vector, ...]:
    """The edges from the first vertex that the ordered greedy choice keeps."""
    edges = [_sub(v, vertices[0]) for v in vertices[1:]]
    entries = {(i, k): c for k, d in enumerate(edges) for i, c in enumerate(d)}
    m = SparseRationalMatrix(len(vertices[0]), len(edges), entries)
    return tuple(edges[j] for _, j, _ in Echelon(m).pivots)


def incidence_sign(
    polytope: NewtonPolytope, face: Face, sub: Face, bases: dict | None = None
) -> int:
    """Orientation sign of a codimension-one subface inside a face.

    Each face carries the reference orientation given by greedily chosen
    edge vectors from its lexicographically smallest vertex; the sign is
    the determinant comparing (outward direction, subface basis) with the
    face basis.  For simplices this reproduces the parity of the omitted
    vertex.  With (D, X, Z) the face basis's ``_integer_inverse``, X maps the
    frame to D > 0 times its coordinates in that basis, so the sign is that
    of det(X . frame); the outward direction is taken between barycentres
    scaled by both vertex counts, a positive multiple that keeps the sign.
    ``bases``, keyed by face id, keeps each face's edge vectors across calls.
    """
    if bases is None:
        bases = {}
    for f in (face, sub):
        if f.id not in bases:
            bases[f.id] = _affine_basis(f.vertices)
    nf, ns = len(face.vertices), len(sub.vertices)
    outward = tuple(
        nf * sum(v[k] for v in sub.vertices)
        - ns * sum(v[k] for v in face.vertices)
        for k in range(polytope.n)
    )
    _, adj, _ = _integer_inverse(bases[face.id])
    frame = (outward,) + bases[sub.id]
    return 1 if _det([[_dot(x, c) for c in frame] for x in adj]) > 0 else -1


def boundary_pyramid_volumes(polytope: NewtonPolytope) -> dict[int, int]:
    """Normalized volume under each top-index face, coned to the origin."""
    return {
        face.id: sum(abs(_det(s)) for s in polytope.triangulate_face(face))
        for face in polytope.index_set(polytope.n - 1)
    }


def gr_multiply(w1, w2, polytope: NewtonPolytope):
    """Product of two cone monomials in the associated graded ring.

    Returns the exponent sum when some origin-free face cone contains both
    factors, and None for a vanishing product.  This is the face-search form
    of the rule.  ConeRing uses the equivalent degree form: the product
    survives exactly when the gauges of the factors add.
    """
    w1, w2 = tuple(w1), tuple(w2)
    for w in (w1, w2):
        if not polytope.cone_contains(w):
            raise NotInCone(w)
    for face in polytope.origin_free_faces():
        if face_cone_contains(polytope, w1, face) and face_cone_contains(
            polytope, w2, face
        ):
            return tuple(a + b for a, b in zip(w1, w2))
    return None


def face_projection(
    x: RingElement, face: Face, subface: Face, polytope: NewtonPolytope
) -> RingElement:
    """Keep the terms whose exponents lie in the subface cone.

    The subface must be a codimension-one face of the given face; the map is
    a ring homomorphism for the graded multiplication.
    """
    if (
        subface.dim != face.dim - 1
        or not set(subface.vertices) < set(face.vertices)
    ):
        raise NotAFacePair((face.id, subface.id))
    out = RingElement()
    for w, c in x.terms.items():
        if face_cone_contains(polytope, w, subface):
            out.add_term(w, c)
    return out


def matmul(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    """The product in integers: each factor is scaled by the lcm of its
    denominators, and the result is divided by both scales once.  Two
    all-``int`` factors give ``int`` entries."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in matmul")
    whole = all(type(v) is int for m in (a, b) for v in m.entries.values())
    a_values, s = clear_denominators(a.entries.values())
    b_values, t = clear_denominators(b.entries.values())
    by_row: dict[int, list[tuple[int, int]]] = {}
    for (k, j), v in zip(b.entries, b_values):
        by_row.setdefault(k, []).append((j, v))
    acc: dict[tuple[int, int], int] = {}
    for (i, k), u in zip(a.entries, a_values):
        for j, v in by_row.get(k, ()):
            key = (i, j)
            acc[key] = acc.get(key, 0) + u * v
    out = SparseRationalMatrix(a.rows, b.cols)
    out.entries = {
        key: v if whole else Fraction(v, s * t) for key, v in acc.items() if v
    }
    return out


def sparse_columns(m: SparseRationalMatrix) -> list[dict[int, int | Fraction]]:
    """Every column as a sparse dict row -> value, in one pass."""
    out: list[dict[int, int | Fraction]] = [{} for _ in range(m.cols)]
    for (i, j), v in m.entries.items():
        out[j][i] = v
    return out


def to_dense(m: SparseRationalMatrix) -> list[list[int | Fraction]]:
    out = [[Fraction(0)] * m.cols for _ in range(m.rows)]
    for (i, j), v in m.entries.items():
        out[i][j] = v
    return out


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
            if q + 1 in self.diffs and matmul(self.diffs[q + 1], self.diffs[q]).entries:
                raise AssertionError(f"d o d != 0 at degree {q}")

    def cohomology_dims(self) -> dict[int, int]:
        ranks = {q: rank(m) for q, m in self.diffs.items()}
        return {
            q: self.dim(q) - ranks.get(q, 0) - ranks.get(q - 1, 0)
            for q in self.degrees
        }


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
        bases: dict[int, tuple[Vector, ...]] = {}
        for q in range(n - 1):
            next_ids = {f.id for f in self.levels[q + 1]}
            for face in self.levels[q]:
                for sub in polytope.subfaces(face):
                    if sub.id in next_ids:
                        sign = incidence_sign(polytope, face, sub, bases)
                        self.signs[(face.id, sub.id)] = sign

    def weight_piece(self, w) -> CochainComplexQ:
        P = self.polytope
        n = P.n
        bases: dict[int, list] = {}
        for q in range(n):
            lbls = [
                f.id for f in self.levels[q] if face_cone_contains(P, w, f)
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


class GradedKoszulComplex:
    """Koszul complex of a homogeneous sequence, truncated in the grading.

    Bases are indexed by (wedge index set, monomial); the wedge set carries
    no degree, so the strand through K^q in internal degree d maps to
    internal degree d + step at q + 1.  New wedge factors multiply from the
    left, matching the twisted de Rham differential.  Composites are
    checked to vanish on construction.  Every map is built and ranked: this
    is the reference for ``KouchnirenkoResult``'s nested criterion.
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
        terms = [g.terms for g in self.sequence]
        # The sequence image on each slice, placed once per wedge set: the
        # column of (I, w) gets, for each i not in I, the signed column
        # g_i * t^w in the rows of J = I + {i}.
        for d in range(D + 1 - step):
            src, dst = len(slices[d]), len(slices[d + step])
            if not src or not dst:
                continue
            image = sequence_image(ring, terms, step, d + step)
            columns = sparse_columns(image)
            for q in range(m):
                entries = {}
                for a, I in enumerate(wedges[q]):
                    for i, sign, J in wedge_terms(I, m):
                        top = position[J] * dst
                        for k in range(src):
                            for r, c in columns[i * src + k].items():
                                entries[(top + r, a * src + k)] = sign * c
                self.diffs[(q, d)] = SparseRationalMatrix(
                    len(wedges[q + 1]) * dst, len(wedges[q]) * src, entries
                )

    def validate(self):
        for (q, d), mat in self.diffs.items():
            nxt = self.diffs.get((q + 1, d + self.step))
            if nxt is not None and matmul(nxt, mat).entries:
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
        ranks = {k: rank(m) for k, m in self.diffs.items()}
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


class RegularSequenceCheck:
    def __init__(self, ok, vanishing_below, embeds_in_quotient, dims):
        self.ok: bool = ok
        self.vanishing_below: bool = vanishing_below
        self.embeds_in_quotient: bool = embeds_in_quotient
        self.dims: dict[int, dict] = dims


def koszul_regular_sequence_check(
    ring: FreeRing | ConeRing, sequence, regular_length: int, truncation: int
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
            image = sequence_image(ring, [g.terms for g in cx.sequence[:d]], cx.step, e)
            if h > image.rows - rank(image):
                embeds = False
    return RegularSequenceCheck(
        ok=vanishing and embeds,
        vanishing_below=vanishing,
        embeds_in_quotient=embeds,
        dims=dims,
    )


class LogForm:
    """A differential form with logarithmic monomial coefficients.

    ``terms`` maps (index set, exponent) to a rational coefficient; index
    sets are strictly increasing tuples of 0-based coordinate indices and
    every exponent must lie in the exponent cone.
    """

    def __init__(self, n, degree, terms=None):
        self.n: int = n
        self.degree: int = degree
        self.terms: dict[tuple[tuple[int, ...], Vector], Fraction] = (
            {} if terms is None else terms
        )

    @classmethod
    def monomial(cls, n, indices, w, coeff=1) -> "LogForm":
        indices = tuple(sorted(indices))
        if len(set(indices)) != len(indices):
            raise ValueError("repeated wedge index")
        c = Fraction(coeff)
        form = cls(n, len(indices))
        if c != 0:
            form.terms[(indices, tuple(w))] = c
        return form

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, indices, w, coeff):
        key = (tuple(indices), tuple(w))
        new = self.terms.get(key, Fraction(0)) + Fraction(coeff)
        if new == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        if self.degree != other.degree or self.n != other.n:
            raise ValueError("form degree mismatch")
        out = LogForm(self.n, self.degree, dict(self.terms))
        for (I, w), c in other.terms.items():
            out.add_term(I, w, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "LogForm":
        c = Fraction(c)
        if c == 0:
            return LogForm(self.n, self.degree)
        return LogForm(
            self.n, self.degree, {k: v * c for k, v in self.terms.items()}
        )


def filtration_level(form: LogForm, polytope: NewtonPolytope):
    """Least filtration spot containing the form; None for the zero form."""
    if form.is_zero():
        return None
    M = polytope.gauge_denominator
    levels = []
    for (I, w), _ in form.terms.items():
        levels.append(polytope.graded_degree(w) - M * len(I))
    return max(levels)


def _top_part(form: LogForm, polytope: NewtonPolytope, level: int) -> LogForm:
    M = polytope.gauge_denominator
    out = LogForm(form.n, form.degree)
    for (I, w), c in form.terms.items():
        if polytope.graded_degree(w) - M * len(I) == level:
            out.add_term(I, w, c)
    return out


class GrComparison:
    def __init__(self, ok, checked, first_failure=None):
        self.ok: bool = ok
        self.checked: int = checked
        self.first_failure: LogForm | None = first_failure


def check_gr_equals_koszul(
    gamma, fiber, polytope: NewtonPolytope, samples=None, degree_bound=None
) -> GrComparison:
    """Leading part of the twisted differential versus the Koszul rule.

    Samples must be homogeneous forms (all terms at one filtration level).
    By default every monomial form with coefficient degree up to two grading
    windows is tried.
    """
    n = polytope.n
    M = polytope.gauge_denominator
    ring = ConeRing(polytope)
    gs = log_derivative_classes(fiber, None, polytope)
    if samples is None:
        if degree_bound is None:
            degree_bound = 2 * M
        samples = []
        for q in range(n):
            for I in itertools.combinations(range(n), q):
                for d in range(degree_bound + 1):
                    for w in ring.monomials_of_degree(d):
                        samples.append(LogForm.monomial(n, I, w))
    checked = 0
    for form in samples:
        if form.is_zero():
            checked += 1
            continue
        level = filtration_level(form, polytope)
        if _top_part(form, polytope, level).terms != form.terms:
            raise ValueError("sample form is not homogeneous")
        d_form = twisted_differential(gamma, fiber, form, polytope)
        top = _top_part(d_form, polytope, level)
        koszul = LogForm(n, form.degree + 1)
        for (I, w), c in form.terms.items():
            for i, sign, J in wedge_terms(I, n):
                for u, coeff in gs[i].terms.items():
                    prod = ring.multiply_monomials(u, w)
                    if prod is not None:
                        koszul.add_term(J, prod, sign * c * coeff)
        checked += 1
        if top.terms != koszul.terms:
            return GrComparison(False, checked, form)
    return GrComparison(True, checked)


def derham_cohomology_dims(gamma, kz: KouchnirenkoResult, level_cap=None):
    """Truncated dimensions of every cohomology spot of the twisted complex,
    at the fiber and polytope of a Kouchnirenko result.

    Opt-in diagnostic: with the leading parts certified exact away from the
    top, every spot below the top must report zero at any cap, because a
    cocycle always bounds at its own filtration level.
    """
    polytope = kz.ring.polytope
    gamma = _rationals(gamma, polytope.n)
    _warn_if_not_normalized(gamma, polytope)
    fiber = [Fraction(c) for c in kz.fiber]
    n = polytope.n
    M = polytope.gauge_denominator
    ring = kz.ring
    if level_cap is None:
        level_cap = max(0, kz.truncation - M * n)

    def slice_basis(q):
        out = []
        bound = level_cap + M * q
        for I in itertools.combinations(range(n), q):
            for d in range(bound + 1):
                for w in ring.monomials_of_degree(d):
                    out.append((I, w))
        return out

    bases = {q: slice_basis(q) for q in range(n + 1)}
    columns = polytope.matrix.columns
    mats = {}
    for q in range(n):
        src = bases[q]
        dst = bases[q + 1]
        index = {lbl: i for i, lbl in enumerate(dst)}
        mat = SparseRationalMatrix(len(dst), len(src))
        for col, (I, w) in enumerate(src):
            for i, sign, J in wedge_terms(I, n):
                for u, c in _partial(w, i, 1, gamma[i], fiber, columns).items():
                    row = index.get((J, u))
                    if row is None:
                        raise AssertionError("filtration cap leaked")
                    mat.set(row, col, sign * c)
        mats[q] = mat
    return CochainComplexQ(bases, mats).cohomology_dims()


def face_polynomial(fiber, face: Face, polytope: NewtonPolytope) -> RingElement:
    """Restriction of the fiber polynomial to the columns on the face."""
    if face.contains_origin:
        raise FaceContainsOrigin(face.id)
    _check_length(fiber, polytope.matrix.num_columns)
    out = RingElement()
    for w, c in zip(polytope.matrix.columns, fiber):
        if w in face.points:
            out.add_term(w, c)
    return out


def choose_spanning_subset(fiber, face: Face, polytope: NewtonPolytope):
    """Row indices (1-based) whose log-derivatives span the full set, or None.

    The target size is the dimension of the linear span of the face; when
    the whole set has smaller rank the face is deficient and the fiber is
    degenerate, reported as None.
    """
    fiber = _rationals(fiber, polytope.matrix.num_columns)
    return certify_face(fiber, face, polytope).spanning_indices or None


def in_kernel_lattice(basis: list[BoxOperator], relation) -> bool:
    """Whether the relation is an integer combination of the basis."""
    v = list(_integer_vector(relation))
    if basis and len(v) != len(basis[0].relation):
        raise NotARelation("length does not match the column count")
    # The Hermite form spans the same lattice with strictly increasing
    # pivots, so eliminating each pivot in turn never disturbs an earlier one.
    for row in _row_hnf([list(b.relation) for b in basis]):
        pcol = next(k for k, c in enumerate(row) if c != 0)
        if v[pcol] % row[pcol] != 0:
            return False
        q = v[pcol] // row[pcol]
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)
