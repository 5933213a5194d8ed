"""Graded semigroup rings attached to the Newton polytope.

The full ring collects all lattice points of the exponent cone, graded by
the scaled gauge; its multiplication is the associated-graded rule where a
product of two monomials survives exactly when the factors sit in a common
face cone avoiding the origin.  Facial rings restrict to the cone over a
single origin-free face and multiply honestly.  A small free polynomial ring
is included for regular-sequence experiments.

Poincare series are computed exactly by triangulating the relevant faces,
taking half-open simplicial cones (opened away from a generic interior
point so the pieces tile without overlap) and enumerating lattice points in
the fundamental parallelepiped of each piece.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FaceContainsOrigin, NotAFacePair, NotInCone
from .lattice import Face, NewtonPolytope, Vector, _det, _dot
from .linalg import SparseRationalMatrix, solve
from .series import PolyZ, RationalFunctionQ


@dataclass
class RingElement:
    """Finite rational combination of lattice monomials."""

    terms: dict[Vector, Fraction] = field(default_factory=dict)

    @classmethod
    def monomial(cls, w, coeff=1) -> "RingElement":
        c = Fraction(coeff)
        return cls({tuple(w): c} if c != 0 else {})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, w, coeff):
        w = tuple(w)
        new = self.terms.get(w, Fraction(0)) + Fraction(coeff)
        if new == 0:
            self.terms.pop(w, None)
        else:
            self.terms[w] = new

    def __add__(self, other):
        out = RingElement(dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other):
        out = RingElement(dict(self.terms))
        for w, c in other.terms.items():
            out.add_term(w, -c)
        return out

    def scale(self, c) -> "RingElement":
        c = Fraction(c)
        if c == 0:
            return RingElement()
        return RingElement({w: v * c for w, v in self.terms.items()})

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.terms == other.terms

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for w, c in self.sorted_terms():
            bits.append(f"{c}*t^{w}")
        return " + ".join(bits)


class GradedRingHandle:
    """Common interface: degree slices, monomial products, grading."""

    ring_kind = "abstract"

    def monomials_of_degree(self, d: int) -> tuple[Vector, ...]:
        raise NotImplementedError

    def multiply_monomials(self, w1, w2) -> Vector | None:
        raise NotImplementedError

    def degree(self, w) -> int:
        raise NotImplementedError

    def multiply_element(self, x: RingElement, y: RingElement) -> RingElement:
        out = RingElement()
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                w = self.multiply_monomials(w1, w2)
                if w is not None:
                    out.add_term(w, c1 * c2)
        return out

    def is_homogeneous(self, x: RingElement, d: int | None = None):
        degs = {self.degree(w) for w in x.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return True if d is None else degs == {d}

    def poincare_series(self) -> RationalFunctionQ:
        raise NotImplementedError


class ConeRing(GradedRingHandle):
    """Associated-graded ring on the lattice points of the exponent cone."""

    ring_kind = "full"

    def __init__(self, polytope: NewtonPolytope):
        self.polytope = polytope

    @property
    def gauge_denominator(self) -> int:
        return self.polytope.gauge_denominator

    def degree(self, w) -> int:
        return self.polytope.graded_degree(w)

    def monomials_of_degree(self, d: int) -> tuple[Vector, ...]:
        return self.polytope.points_of_degree(d)

    def multiply_monomials(self, w1, w2) -> Vector | None:
        # The gauge is the largest of the positive-facet functionals, so it
        # is additive on w1, w2 exactly when one facet is tight at both:
        # the equality case of max-subadditivity.
        P = self.polytope
        t1, t2 = P.tight_facets(w1), P.tight_facets(w2)
        if t1 is None or t2 is None:
            raise NotInCone(w1 if t1 is None else w2)
        if P.positive_facets.isdisjoint(t1 & t2):
            return None
        return tuple(a + b for a, b in zip(w1, w2))

    def poincare_series(self) -> RationalFunctionQ:
        return _cone_poincare(self.polytope, self.polytope.index_set(
            self.polytope.n - 1))


class FaceRing(GradedRingHandle):
    """Semigroup ring on the lattice points of the cone over one face."""

    ring_kind = "facial"

    def __init__(self, polytope: NewtonPolytope, face: Face):
        if face.contains_origin:
            raise FaceContainsOrigin(face.id)
        self.polytope = polytope
        self.face = face

    @property
    def gauge_denominator(self) -> int:
        return self.polytope.gauge_denominator

    def degree(self, w) -> int:
        return self.polytope.graded_degree(w)

    def monomials_of_degree(self, d: int) -> tuple[Vector, ...]:
        P = self.polytope
        active = self.face.active
        return tuple(
            w for w in P.points_of_degree(d) if active <= P.tight_facets(w)
        )

    def multiply_monomials(self, w1, w2) -> Vector:
        # The face cone is closed under addition and avoids the origin, so
        # products never die here.
        return tuple(a + b for a, b in zip(w1, w2))

    def poincare_series(self) -> RationalFunctionQ:
        return _cone_poincare(self.polytope, [self.face])


class FreeRing(GradedRingHandle):
    """Polynomial ring in k variables with positive integer weights."""

    ring_kind = "free"

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


# -- spec-level operations ----------------------------------------------------


def graded_piece(ring: GradedRingHandle, d: int):
    """All monomial exponents of the ring in exact degree d."""
    return list(ring.monomials_of_degree(d))


def gr_multiply(w1, w2, polytope: NewtonPolytope):
    """Product of two cone monomials in the associated graded ring.

    Returns the exponent sum when some origin-free face cone contains both
    factors, and None for a vanishing product.  This is the face-search form
    of the rule.  ConeRing uses the equivalent tight-set form: the product
    survives exactly when some positive-level facet is tight at both
    factors, i.e. when their gauges add.
    """
    w1, w2 = tuple(w1), tuple(w2)
    for w in (w1, w2):
        if not polytope.cone_contains(w):
            raise NotInCone(w)
    for face in polytope.origin_free_faces():
        if polytope.face_cone_contains(w1, face) and polytope.face_cone_contains(
            w2, face
        ):
            return tuple(a + b for a, b in zip(w1, w2))
    return None


def facial_ring(face: Face, polytope: NewtonPolytope) -> FaceRing:
    return FaceRing(polytope, face)


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
        if polytope.face_cone_contains(w, subface):
            out.add_term(w, c)
    return out


def log_derivative_classes(
    fiber, face: Face | None, polytope: NewtonPolytope
) -> list[RingElement]:
    """Leading classes of the logarithmic derivatives of the fiber polynomial.

    For a face, sums run over the columns lying on it; for the full ring they
    run over the columns of gauge one, i.e. those on the boundary faces that
    avoid the origin.  Each output is homogeneous of degree equal to the
    gauge denominator.
    """
    A = polytope.matrix
    fiber = [Fraction(c) for c in fiber]
    if len(fiber) != A.num_columns:
        raise ValueError("fiber length does not match the column count")
    if face is not None and face.contains_origin:
        raise FaceContainsOrigin(face.id)
    selected = []
    for j, w in enumerate(A.columns):
        if face is None:
            if polytope.cone_contains(w) and polytope.gauge(w) == 1:
                selected.append(j)
        else:
            if polytope.point_on_face(w, face):
                selected.append(j)
    out = []
    for i in range(A.n):
        g = RingElement()
        for j in selected:
            w = A.column(j)
            g.add_term(w, fiber[j] * w[i])
        out.append(g)
    return out


def poincare_series(ring: GradedRingHandle) -> RationalFunctionQ:
    """Exact generating function of the degree-slice dimensions."""
    return ring.poincare_series()


# -- half-open simplicial cone decomposition ----------------------------------


def _simplicial_cones(polytope: NewtonPolytope, faces):
    """Triangulate the given origin-free faces into simplicial cone generators."""
    cones = []
    for face in sorted(faces, key=lambda f: f.id):
        for s in polytope.triangulate_face(face):
            cones.append(s)
    return cones


def _generic_point(cones):
    """A rational point interior to the first cone and off every wall."""
    first = cones[0]
    for denom in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
        z = [Fraction(0)] * len(first[0])
        scale = Fraction(1)
        for g in first:
            for k, c in enumerate(g):
                z[k] += scale * c
            scale /= denom
        ok = True
        for gens in cones:
            coords = _cone_coordinates(gens, z)
            if coords is None or any(c == 0 for c in coords):
                ok = False
                break
        if ok:
            return z
    raise AssertionError("no generic interior point found")


def _cone_coordinates(gens, point):
    """Coordinates of a point in the linear span of the generators, or None."""
    n = len(gens[0])
    m = SparseRationalMatrix(n, len(gens))
    for j, g in enumerate(gens):
        for i, c in enumerate(g):
            m.set(i, j, c)
    return solve(m, {i: c for i, c in enumerate(point)})


def _integer_inverse(gens):
    """Rows, determinant and adjugate of one nonsingular k x k minor.

    For a point w in the span of the k generators, the adjugate applied to
    w restricted to those rows gives det times its cone coordinates; the
    determinant is made positive.
    """
    n, k = len(gens[0]), len(gens)
    for rows in itertools.combinations(range(n), k):
        minor = [[g[r] for g in gens] for r in rows]
        det = int(_det(minor))
        if det != 0:
            break
    else:
        raise AssertionError("cone generators are linearly dependent")
    sign = 1 if det > 0 else -1
    adj = [
        [
            sign * (-1) ** (i + j) * int(_det(
                [row[:j] + row[j + 1:] for r, row in enumerate(minor) if r != i]
            ))
            for i in range(k)
        ]
        for j in range(k)
    ]
    return rows, sign * det, adj


def _parallelepiped_points(gens, half_open):
    """Lattice points of the fundamental parallelepiped of a simplicial cone.

    ``half_open[j]`` True means the coordinate of generator j runs over
    (0, 1]; otherwise over [0, 1).  The cone is inverted once, so every
    point of the bounding box is tested in integers.
    """
    n = len(gens[0])
    lo = [0] * n
    hi = [0] * n
    for g in gens:
        for k, c in enumerate(g):
            if c < 0:
                lo[k] += c
            else:
                hi[k] += c
    rows, det, adj = _integer_inverse(gens)
    others = [r for r in range(n) if r not in rows]
    out = []
    for w in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        ws = [w[r] for r in rows]
        x = [_dot(a, ws) for a in adj]
        if not all(
            0 < c <= det if h else 0 <= c < det for c, h in zip(x, half_open)
        ):
            continue
        # Off the chosen rows the point must lie in the span too.
        if all(
            sum(g[r] * c for g, c in zip(gens, x)) == det * w[r] for r in others
        ):
            out.append(w)
    return out


def _cone_poincare(polytope: NewtonPolytope, faces) -> RationalFunctionQ:
    """Poincare series of the semigroup of the cone over the given faces.

    Every simplicial piece has generators of gauge one, so each contributes
    numerator terms over the common denominator (1 - t^M)^k.
    """
    cones = _simplicial_cones(polytope, faces)
    k = len(cones[0])
    M = polytope.gauge_denominator
    z = _generic_point(cones)
    numerator = PolyZ()
    for gens in cones:
        zc = _cone_coordinates(gens, z)
        half_open = [c < 0 for c in zc]
        for p in _parallelepiped_points(gens, half_open):
            numerator = numerator + PolyZ.monomial(polytope.graded_degree(p))
    den = (PolyZ([1]) - PolyZ.monomial(M)) ** k
    return RationalFunctionQ(numerator, den)
