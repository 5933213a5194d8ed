"""Graded semigroup rings attached to the Newton polytope.

The full ring collects all lattice points of the exponent cone, graded by
the scaled gauge; its multiplication is the associated-graded rule where a
product of two monomials survives exactly when the factors sit in a common
face cone avoiding the origin.  Facial rings restrict to the cone over a
single origin-free face and multiply honestly.

Poincare series are computed exactly by triangulating the relevant faces,
taking half-open simplicial cones and counting the lattice points in the
fundamental parallelepiped of each piece, inverted once in integers.  The
pieces are opened lexicographically, away from z(eps) = g_1 + eps g_2 + ...
on the first piece, so they tile without overlap and no generic point is
searched for.  The count by degree is the numerator over (1 - t^M)^k.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import FaceContainsOrigin, NotInCone
from .lattice import Face, NewtonPolytope, Vector, _det, _dot, _nonsingular_minor
from .linalg import SparseRationalMatrix
from .series import PolyZ


class RingElement:
    """Finite rational combination of lattice monomials."""

    def __init__(self, terms=None):
        self.terms: dict[Vector, int | Fraction] = {} if terms is None else terms

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


# -- spec-level operations ----------------------------------------------------


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


def integral_classes(sequence) -> tuple[list[RingElement], list[int]]:
    """(c_1 g_1, .., c_k g_k) in ``int`` coefficients, c_i the lcm of the
    coefficient denominators of g_i, and the scales c_i.  Scaling a class
    scales one column of each matrix built from the sequence, so ranks,
    pivot columns and Koszul cohomology stay those of (g_1..g_k)."""
    scales = [lcm(*(c.denominator for c in g.terms.values())) for g in sequence]
    scaled = [
        RingElement({w: c.numerator * (s // c.denominator) for w, c in g.terms.items()})
        for g, s in zip(sequence, scales)
    ]
    return scaled, scales


def sequence_image(ring: GradedRingHandle, sequence, step: int, d: int):
    """The matrix of (g_1..g_k): R_{d-step}^k -> R_d on one degree slice.

    Rows follow ``ring.monomials_of_degree(d)``; column w * k + i holds
    g_i * t^w for the w-th monomial of degree d - step, so a sequence from
    ``integral_classes`` gives the columns c_i * g_i * t^w in integers.  A
    product that vanishes in the ring is dropped; one that leaves the slice
    means the sequence is not homogeneous of degree ``step`` and raises.
    Each product t^u * t^w is formed once, for all classes with u in their
    support.
    """
    index = {w: r for r, w in enumerate(ring.monomials_of_degree(d))}
    prev = ring.monomials_of_degree(d - step)
    # row_of[u]: the row of t^u * t^w for the current w, None if it vanishes.
    row_of = dict.fromkeys(u for g in sequence for u in g.terms)
    k = len(sequence)
    entries: dict[tuple[int, int], int | Fraction] = {}
    for a, w in enumerate(prev):
        for u in row_of:
            prod = ring.multiply_monomials(u, w)
            r = None if prod is None else index.get(prod, -1)
            if r == -1:
                raise AssertionError("product left its degree slice")
            row_of[u] = r
        for i, g in enumerate(sequence):
            for u, c in g.terms.items():
                r = row_of[u]
                if r is not None:
                    key = (r, a * k + i)
                    entries[key] = entries.get(key, 0) + c
    return SparseRationalMatrix(len(index), k * len(prev), entries)


def poincare_series(ring: GradedRingHandle) -> RationalFunctionQ:
    """Exact generating function of the degree-slice dimensions."""
    return ring.poincare_series()


# -- half-open simplicial cone decomposition ----------------------------------


def _integer_inverse(gens):
    """Rows, determinant and adjugate of one nonsingular k x k minor.

    For a point w in the span of the k generators, the adjugate applied to
    w restricted to those rows gives det times its cone coordinates; the
    determinant is made positive.
    """
    rows, det = _nonsingular_minor(gens)
    minor = [[g[r] for g in gens] for r in rows]
    sign, k = (1 if det > 0 else -1), len(gens)
    adj = [
        [
            sign * (-1) ** (i + j) * _det(
                [row[:j] + row[j + 1:] for r, row in enumerate(minor) if r != i]
            )
            for i in range(k)
        ]
        for j in range(k)
    ]
    return rows, sign * det, adj


def _parallelepiped_points(gens, inverse, half_open):
    """Lattice points of the fundamental parallelepiped of a simplicial cone.

    ``inverse`` is ``_integer_inverse(gens)``.  ``half_open[j]`` True means
    the coordinate of generator j runs over (0, 1]; otherwise over [0, 1).
    Every point of the bounding box is tested in integers.
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
    rows, det, adj = inverse
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


def _opens_below(adj_row, first, rows) -> bool:
    """Whether one cone coordinate of z(eps) is negative as eps -> 0+.

    The coordinate is det^-1 times the sum of eps^(i-1) adj_row . g_i over
    the first piece's generators g_i; its first nonzero term decides.
    """
    for g in first:
        c = _dot(adj_row, [g[r] for r in rows])
        if c:
            return c < 0
    raise AssertionError("perturbation lies on a wall of a simplicial piece")


def cone_numerator(polytope: NewtonPolytope, faces):
    """Numerator and exponent k of the cone's series over (1 - t^M)^k.

    Each simplicial piece has k generators of gauge one and contributes
    its half-open parallelepiped points, by degree.  The pieces are opened
    away from z(eps) = g_1 + eps g_2 + ... + eps^(k-1) g_k on the first
    piece, so they tile the cone without overlap.
    """
    cones = [
        s for face in sorted(faces, key=lambda f: f.id)
        for s in polytope.triangulate_face(face)
    ]
    first = cones[0]
    k = len(first)
    counts = []
    for gens in cones:
        assert len(gens) == k, "simplicial pieces of different sizes"
        inverse = _integer_inverse(gens)
        rows, _, adj = inverse
        half_open = [_opens_below(a, first, rows) for a in adj]
        for p in _parallelepiped_points(gens, inverse, half_open):
            d = polytope.graded_degree(p)
            counts.extend([0] * (d + 1 - len(counts)))
            counts[d] += 1
    return PolyZ(counts), k


def _cone_poincare(polytope: NewtonPolytope, faces) -> RationalFunctionQ:
    """Poincare series of the semigroup of the cone over the given faces."""
    from .oracles import RationalFunctionQ

    numerator, k = cone_numerator(polytope, faces)
    den = PolyZ([1]) - PolyZ.monomial(polytope.gauge_denominator)
    return RationalFunctionQ(numerator, den ** k)
