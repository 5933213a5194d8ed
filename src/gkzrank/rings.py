"""Graded semigroup rings attached to the Newton polytope.

``ConeRing(polytope)`` is the ring on the lattice points of the exponent
cone, ``ConeRing(polytope, face)`` the ring on the cone over one face, which
must avoid the origin.  Both are graded by the scaled gauge and list their
slices from the cone's half-open simplicial tiling.  A product t^u t^w
survives exactly when deg(u + w) = deg u + deg w.  The gauge is the largest
positive facet functional, so this is the equality case of its
subadditivity, some facet tight at both factors, and the full ring is the
associated graded ring.  On a face cone such a facet is tight on the whole
face: no product vanishes.

``leading_classes`` builds the leading log-derivative classes of a fiber on
one ring, once, in integers over one scale.

Poincare series are read off the same tiling: its parallelepiped points
counted by degree are the numerator, a ``PolyZ``, over (1 - t^M)^k; their
arithmetic and the lowest-terms series live in ``oracles``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FaceContainsOrigin
from .lattice import Face, NewtonPolytope, Vector
from .linalg import SparseRationalMatrix, clear_denominators


class ConeRing:
    """Graded ring on the lattice points of the exponent cone, or of the
    cone over one face, which must avoid the origin; a product survives
    exactly when the degrees of its factors add."""

    def __init__(self, polytope: NewtonPolytope, face: Face | None = None):
        if face is not None and face.contains_origin:
            raise FaceContainsOrigin(face.id)
        self.polytope = polytope
        self.face = face

    @property
    def gauge_denominator(self) -> int:
        return self.polytope.gauge_denominator

    def degree(self, w) -> int:
        return self.polytope.graded_degree(w)

    def monomials_of_degree(self, d: int) -> tuple[Vector, ...]:
        return self.polytope.points_of_degree(d, self.face)

    def multiply_monomials(self, w1, w2) -> Vector | None:
        degree = self.polytope.graded_degree
        w = tuple(a + b for a, b in zip(w1, w2))
        return w if degree(w1) + degree(w2) == degree(w) else None


# -- spec-level operations ----------------------------------------------------


def leading_classes(ring: ConeRing, fiber) -> tuple[list[dict[Vector, int]], int]:
    """The leading classes g_1..g_n of the logarithmic derivatives
    x_i df/dx_i of the fiber polynomial f in the ring, as integer
    coefficient maps s * g_i, and their one scale s.

    On a face ring the sums run over the columns in the face's point set; on
    the full ring over the columns of gauge one, i.e. those on the boundary
    faces that avoid the origin.  s is the lcm of those columns' fiber
    denominators, and the fiber holds ``int``s or ``Fraction``s, as a
    nondegeneracy report does.  Repeated columns add up; a coefficient that
    cancels is not stored.  Each class is homogeneous of degree M.
    """
    polytope, face = ring.polytope, ring.face
    selected = [
        (w, c)
        for w, c in zip(polytope.matrix.columns, fiber)
        if (polytope.gauge(w) == 1 if face is None else w in face.points)
    ]
    coeffs, scale = clear_denominators(c for _, c in selected)
    classes = []
    for i in range(polytope.n):
        g: dict[Vector, int] = {}
        for (w, _), c in zip(selected, coeffs):
            g[w] = g.get(w, 0) + c * w[i]
        classes.append({w: c for w, c in g.items() if c})
    return classes, scale


def sequence_image(ring, sequence, step: int, d: int):
    """The matrix of (g_1..g_k): R_{d-step}^k -> R_d on one degree slice of a
    graded ring (a ``ConeRing``, or ``oracles.FreeRing``), each g_i a
    coefficient map monomial -> value (``leading_classes`` gives them in
    integers, a ``RingElement`` holds one as its ``terms``).

    Rows follow ``ring.monomials_of_degree(d)``; the columns are grouped
    class by class, column i * |R_{d-step}| + a holding g_i * t^w for w the
    a-th monomial of degree d - step.  A product that vanishes in the ring
    is dropped; one that leaves the slice means the sequence is not
    homogeneous of degree ``step`` and raises.  Each product t^u * t^w is
    formed once, for all classes with u in their support.
    """
    index = {w: r for r, w in enumerate(ring.monomials_of_degree(d))}
    prev = ring.monomials_of_degree(d - step)
    # row_of[u]: the row of t^u * t^w for the current w, None if it vanishes.
    row_of = dict.fromkeys(u for g in sequence for u in g)
    size = len(prev)
    entries: dict[tuple[int, int], int | Fraction] = {}
    for a, w in enumerate(prev):
        for u in row_of:
            prod = ring.multiply_monomials(u, w)
            r = None if prod is None else index.get(prod, -1)
            if r == -1:
                raise AssertionError("product left its degree slice")
            row_of[u] = r
        for i, g in enumerate(sequence):
            for u, c in g.items():
                r = row_of[u]
                if r is not None:
                    key = (r, i * size + a)
                    entries[key] = entries.get(key, 0) + c
    return SparseRationalMatrix(len(index), len(sequence) * size, entries)


def poincare_series(ring):
    """Exact generating function of the degree-slice dimensions, as an
    ``oracles.RationalFunctionQ``: for a ``ConeRing`` the cone's numerator
    over (1 - t^M)^k, for any other graded ring (``oracles.FreeRing``) its
    own ``poincare_series()``."""
    if not isinstance(ring, ConeRing):
        return ring.poincare_series()
    from . import oracles

    numerator, k = cone_numerator(ring.polytope, ring.face)
    den = oracles.PolyZ([1]) - oracles.PolyZ.monomial(ring.gauge_denominator)
    return oracles.RationalFunctionQ(numerator, den ** k)


# -- Poincare series from the half-open tiling ---------------------------------


class PolyZ:
    """Univariate polynomial with integer coefficients, dense ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        return isinstance(other, PolyZ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)


def cone_numerator(polytope: NewtonPolytope, face: Face | None = None):
    """Numerator and exponent k of the series over (1 - t^M)^k of the cone
    over one face, or of the full cone when ``face`` is None: the tiling's
    parallelepiped points counted by degree, with k generators a piece."""
    pieces = polytope.cone_pieces(face)
    counts = []
    for _, points in pieces:
        for d, _ in points:
            counts.extend([0] * (d + 1 - len(counts)))
            counts[d] += 1
    return PolyZ(counts), len(pieces[0][0])
