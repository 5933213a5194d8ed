"""Integer-exact geometry of the Newton polytope and the exponent cone.

Given an integer matrix of full row rank, this module computes the convex
hull of the origin together with the column vectors (facets, vertices and
the whole face lattice), the cone positively spanned by the columns, the
piecewise-linear gauge that measures how deep a lattice vector sits inside
scaled copies of the hull, and the normalized volume.  All computations are
brute-force over candidate point subsets, which is exact and entirely
adequate at the intended scale (a handful of dimensions and columns).

The gauge is evaluated in integers: with L the lcm of the positive facet
levels, L times the gauge is the largest of the dot products with the
positive facet normals, each scaled by L over its level.  Degree slices of
the cone come from one table per polytope, built on the first request by a
single scan of the scaled bounding box and rebuilt, to at least twice its
top degree, only when a request goes past it.  The table also records, for
each point, the facets on which it is tight; face-cone membership and the
associated-graded product are set operations on those.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import FaceContainsOrigin, NotInCone, RankDeficient, ShapeMismatch
from .linalg import Echelon, RationalSpan, SparseRationalMatrix, solve

Vector = tuple[int, ...]


def _dot(u, v) -> Fraction | int:
    return sum(a * b for a, b in zip(u, v))


def _sub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _primitive(v):
    g = 0
    for c in v:
        g = gcd(g, c)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(c // g for c in v)


@dataclass(frozen=True)
class ExponentMatrix:
    """An n x N integer matrix of full row rank; columns are exponent vectors."""

    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        return len(self.rows[0])

    @property
    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self.rows))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)


def rational_rank(rows) -> int:
    """Rank over Q of a list of integer rows."""
    span = RationalSpan(len(rows[0]) if rows else 0)
    for row in rows:
        span.add({j: Fraction(c) for j, c in enumerate(row) if c != 0})
    return span.rank


def validate_matrix(rows) -> ExponentMatrix:
    """Check shape and full row rank, returning the validated matrix."""
    if not rows or not all(isinstance(r, (list, tuple)) for r in rows):
        raise ShapeMismatch("expected a nonempty list of integer rows")
    width = len(rows[0])
    if width == 0:
        raise ShapeMismatch("rows must be nonempty")
    clean = []
    for r in rows:
        if len(r) != width:
            raise ShapeMismatch(f"ragged row of length {len(r)}, expected {width}")
        for c in r:
            if not isinstance(c, int) or isinstance(c, bool):
                raise ShapeMismatch(f"non-integer entry {c!r}")
        clean.append(tuple(int(c) for c in r))
    n = len(clean)
    r = rational_rank(clean)
    if r < n:
        raise RankDeficient(r, n)
    return ExponentMatrix(tuple(clean))


@dataclass(frozen=True)
class Facet:
    """A facet inequality normal . w <= level with primitive integer normal."""

    normal: Vector
    level: int

    def value(self, w) -> Fraction | int:
        return _dot(self.normal, w)

    def contains_origin(self) -> bool:
        return self.level == 0


@dataclass
class Face:
    """A proper face of the hull, recorded by its vertex set.

    ``active`` lists the indices of all facets whose hyperplane contains the
    face.  ``contains_origin`` refers to the origin as a point of the face,
    which may happen even when the origin is not one of its vertices.
    """

    id: int
    dim: int
    vertices: tuple[Vector, ...]
    active: frozenset[int]
    contains_origin: bool
    on_origin_facet: bool
    _basis: tuple[Vector, ...] | None = field(
        default=None, repr=False, compare=False
    )


def _affine_basis(vertices) -> tuple[Vector, ...]:
    v0 = vertices[0]
    span = RationalSpan(len(v0))
    basis = []
    for v in vertices[1:]:
        d = _sub(v, v0)
        if span.add({j: Fraction(c) for j, c in enumerate(d) if c != 0}):
            basis.append(d)
    return tuple(basis)


def _kernel_normal(points, n):
    """Primitive normal of the hyperplane through the given points, if any."""
    base = points[0]
    diffs = [_sub(p, base) for p in points[1:]]
    span = RationalSpan(n)
    for d in diffs:
        span.add({j: Fraction(c) for j, c in enumerate(d) if c != 0})
    if span.rank != n - 1:
        return None
    # Find a kernel vector by completing to a square system.
    m = SparseRationalMatrix(len(diffs) + 1, n)
    for i, d in enumerate(diffs):
        for j, c in enumerate(d):
            m.set(i, j, c)
    for j in range(n):
        probe = m.copy()
        probe.set(len(diffs), j, 1)
        x = solve(probe, {len(diffs): 1})
        if x is not None:
            denom_lcm = 1
            for c in x:
                denom_lcm = denom_lcm * c.denominator // gcd(
                    denom_lcm, c.denominator
                )
            ints = tuple(int(c * denom_lcm) for c in x)
            if any(ints):
                return _primitive(ints)
    return None


class NewtonPolytope:
    """Hull of the origin and the exponent columns, with all gauge data."""

    def __init__(self, matrix: ExponentMatrix):
        self.matrix = matrix
        self.n = matrix.n
        origin = (0,) * self.n
        points = sorted(set(matrix.columns) | {origin})
        self.points = points
        self.facets = self._find_facets(points)
        self.vertices = self._find_vertices(points)
        self.origin_interior = all(f.level > 0 for f in self.facets)
        self.faces = self._build_face_lattice()
        self._faces_by_vertices = {f.vertices: f for f in self.faces}
        self._sign_cache: dict[tuple[int, int], int] = {}
        levels = [f.level for f in self.facets if f.level > 0]
        if not levels:
            raise AssertionError("hull has no positive-level facet")
        self.level_lcm = lcm(*levels)
        # (index, normal, L // level) for the positive facets; the scaled
        # gauge is the largest normal . w times its factor.
        self._gauge_facets = tuple(
            (i, f.normal, self.level_lcm // f.level)
            for i, f in enumerate(self.facets)
            if f.level > 0
        )
        self._cone_facets = tuple(
            (i, f.normal) for i, f in enumerate(self.facets) if f.level == 0
        )
        self.positive_facets = frozenset(i for i, _, _ in self._gauge_facets)
        self.gauge_denominator = self._compute_gauge_denominator()
        self.normalized_volume = self._compute_normalized_volume()
        # The point table: (top degree, points by degree, tight facets by
        # point), built on the first slice request.
        self._table = (-1, {}, {})

    # -- construction -----------------------------------------------------

    def _find_facets(self, points) -> tuple[Facet, ...]:
        n = self.n
        found: dict[tuple[Vector, int], Facet] = {}
        for combo in itertools.combinations(points, n):
            normal = _kernel_normal(combo, n)
            if normal is None:
                continue
            level = _dot(normal, combo[0])
            values = [_dot(normal, p) for p in points]
            if all(v <= level for v in values):
                key = (normal, level)
            elif all(v >= level for v in values):
                normal = tuple(-c for c in normal)
                key = (normal, -level)
            else:
                continue
            found.setdefault(key, Facet(key[0], key[1]))
        facets = tuple(sorted(found.values(), key=lambda f: (f.level, f.normal)))
        for f in facets:
            if f.level < 0:
                raise AssertionError("origin violates a facet inequality")
        return facets

    def _find_vertices(self, points) -> tuple[Vector, ...]:
        verts = []
        for p in points:
            active = [f.normal for f in self.facets if f.value(p) == f.level]
            if active and rational_rank(active) == self.n:
                verts.append(p)
        return tuple(sorted(verts))

    def _build_face_lattice(self) -> tuple[Face, ...]:
        vertexsets: set[frozenset[Vector]] = set()
        for f in self.facets:
            vs = frozenset(v for v in self.vertices if f.value(v) == f.level)
            vertexsets.add(vs)
        changed = True
        while changed:
            changed = False
            for a, b in itertools.combinations(list(vertexsets), 2):
                c = a & b
                if c and c not in vertexsets:
                    vertexsets.add(c)
                    changed = True
        faces = []
        for vs in vertexsets:
            verts = tuple(sorted(vs))
            dim = len(_affine_basis(verts)) if len(verts) > 1 else 0
            active = frozenset(
                i
                for i, f in enumerate(self.facets)
                if all(f.value(v) == f.level for v in verts)
            )
            contains_origin = all(self.facets[i].level == 0 for i in active)
            on_origin_facet = any(self.facets[i].level == 0 for i in active)
            faces.append(
                Face(0, dim, verts, active, contains_origin, on_origin_facet)
            )
        faces.sort(key=lambda f: (f.dim, f.vertices))
        for i, f in enumerate(faces):
            f.id = i
        return tuple(faces)

    # -- cone membership and gauge ----------------------------------------

    def cone_inequalities(self) -> tuple[Vector, ...]:
        """Covectors m with m . w >= 0 cutting out the exponent cone."""
        return tuple(
            tuple(-c for c in f.normal) for f in self.facets if f.level == 0
        )

    def cone_contains(self, w) -> bool:
        return all(_dot(m, w) <= 0 for _, m in self._cone_facets)

    def _scaled_gauge(self, w) -> int:
        """level_lcm times the gauge of a cone point: an integer."""
        return max(0, max(k * _dot(m, w) for _, m, k in self._gauge_facets))

    def _checked_scaled_gauge(self, w) -> int:
        if not self.cone_contains(w):
            raise NotInCone(f"{w} violates a zero-level facet inequality")
        return self._scaled_gauge(w)

    def gauge(self, w) -> Fraction:
        """Least r >= 0 with w inside r times the hull; w must be in the cone."""
        return Fraction(self._checked_scaled_gauge(w), self.level_lcm)

    def graded_degree(self, w) -> int:
        """The gauge scaled by the common denominator; an integer for lattice w."""
        d, r = divmod(
            self._checked_scaled_gauge(w),
            self.level_lcm // self.gauge_denominator,
        )
        if r:
            raise AssertionError(f"gauge denominator too small at {w}")
        return d

    def _tight_facets_of(self, w) -> frozenset[int]:
        """Facets tight at a cone point: the positive facets attaining its
        gauge and the zero-level facets through it."""
        values = [(i, k * _dot(m, w)) for i, m, k in self._gauge_facets]
        top = max(0, max(v for _, v in values))
        return frozenset(
            [i for i, v in values if v == top]
            + [i for i, m in self._cone_facets if _dot(m, w) == 0]
        )

    def tight_facets(self, w) -> frozenset[int] | None:
        """Facets on which w, scaled to gauge one, is tight; None off the cone.

        Table points read the set recorded when the table was built; any
        other point computes it on the spot and nothing is stored.
        """
        tight = self._table[2].get(w)
        if tight is None and self.cone_contains(w):
            tight = self._tight_facets_of(w)
        return tight

    def points_of_degree(self, d: int) -> tuple[Vector, ...]:
        """Sorted cone lattice points of graded degree d, read from the table.

        A request past the table's top degree rebuilds it by one scan up to
        at least twice that degree, so a run of increasing requests scans
        a logarithmic number of times.
        """
        if d < 0:
            return ()
        top, slices, _ = self._table
        if d > top:
            top, slices, _ = self._build_table(max(d, 2 * top))
        return slices.get(d, ())

    def _build_table(self, top: int):
        step = self.level_lcm // self.gauge_denominator
        slices: dict[int, list[Vector]] = {}
        tight: dict[Vector, frozenset[int]] = {}
        # Points share one object per distinct tight set (there are about
        # as many as faces), which keeps the table's memory near the points'.
        distinct: dict[frozenset[int], frozenset[int]] = {}
        bound = Fraction(top, self.gauge_denominator)
        for w in self.lattice_points_with_gauge_at_most(bound):
            slices.setdefault(self._scaled_gauge(w) // step, []).append(w)
            t = self._tight_facets_of(w)
            tight[w] = distinct.setdefault(t, t)
        # One assignment, so a reader never sees parts of two tables.
        self._table = (top, {d: tuple(p) for d, p in slices.items()}, tight)
        return self._table

    def point_on_face(self, w, face: Face) -> bool:
        """Whether w (a point of the hull) lies on the given face."""
        return all(
            self.facets[i].value(w) == self.facets[i].level for i in face.active
        )

    def face_cone_contains(self, w, face: Face) -> bool:
        """Whether w lies in the cone spanned by a face avoiding the origin."""
        if face.contains_origin:
            raise FaceContainsOrigin(face.id)
        tight = self.tight_facets(w)
        return tight is not None and face.active <= tight

    # -- face lattice queries ----------------------------------------------

    def faces_of_dim(self, p: int) -> list[Face]:
        return [f for f in self.faces if f.dim == p]

    def index_set(self, p: int) -> list[Face]:
        """Faces of dimension p clear of every origin-containing facet."""
        return [f for f in self.faces if f.dim == p and not f.on_origin_facet]

    def origin_free_faces(self) -> list[Face]:
        return [f for f in self.faces if not f.contains_origin]

    def subfaces(self, face: Face) -> list[Face]:
        """Codimension-one faces of the given face."""
        out = []
        for g in self.faces:
            if g.dim == face.dim - 1 and set(g.vertices) < set(face.vertices):
                out.append(g)
        return out

    def face_by_vertices(self, vertices) -> Face:
        return self._faces_by_vertices[tuple(sorted(vertices))]

    # -- orientation -------------------------------------------------------

    def _face_basis(self, face: Face) -> tuple[Vector, ...]:
        if face._basis is None:
            face._basis = _affine_basis(face.vertices)
        return face._basis

    def incidence_sign(self, face: Face, sub: Face) -> int:
        """Orientation sign of a codimension-one subface inside a face.

        Each face carries the reference orientation given by greedily chosen
        edge vectors from its lexicographically smallest vertex; the sign is
        the determinant comparing (outward direction, subface basis) with the
        face basis.  For simplices this reproduces the parity of the omitted
        vertex.
        """
        key = (face.id, sub.id)
        cached = self._sign_cache.get(key)
        if cached is not None:
            return cached
        p = face.dim
        fb = self._face_basis(face)
        sb = self._face_basis(sub)
        bary_f = [
            Fraction(sum(v[k] for v in face.vertices), len(face.vertices))
            for k in range(self.n)
        ]
        bary_s = [
            Fraction(sum(v[k] for v in sub.vertices), len(sub.vertices))
            for k in range(self.n)
        ]
        outward = [a - b for a, b in zip(bary_s, bary_f)]
        cols = [outward] + [list(map(Fraction, b)) for b in sb]
        # Express each column in the face basis: solve fb-matrix * x = col.
        mat = SparseRationalMatrix(self.n, p)
        for j, b in enumerate(fb):
            for i, c in enumerate(b):
                mat.set(i, j, c)
        echelon = Echelon(mat)
        coords = []
        for col in cols:
            x = echelon.solve(col)
            if x is None:
                raise AssertionError("subface direction outside face span")
            coords.append(x)
        det = _det([[coords[j][i] for j in range(p)] for i in range(p)])
        sign = 1 if det > 0 else -1
        self._sign_cache[key] = sign
        return sign

    # -- triangulation and volume -------------------------------------------

    def triangulate_face(self, face: Face) -> list[tuple[Vector, ...]]:
        """Simplices (as vertex tuples) triangulating the face.

        Uses the pulling rule from the lexicographically smallest vertex, so
        the result is deterministic.
        """
        verts = face.vertices
        if len(verts) == face.dim + 1:
            return [verts]
        v0 = verts[0]
        simplices = []
        for g in self.subfaces(face):
            if v0 not in g.vertices:
                for s in self.triangulate_face(g):
                    simplices.append((v0,) + s)
        return simplices

    def _compute_normalized_volume(self) -> int:
        v0 = self.vertices[0]
        total = 0
        for facet in self.facets:
            if facet.value(v0) == facet.level:
                continue
            face = self.face_by_vertices(
                [v for v in self.vertices if facet.value(v) == facet.level]
            )
            for s in self.triangulate_face(face):
                total += abs(int(_det([list(_sub(v, v0)) for v in s])))
        return total

    def boundary_pyramid_volumes(self) -> dict[int, int]:
        """Normalized volume under each top-index face, coned to the origin."""
        out = {}
        for face in self.index_set(self.n - 1):
            total = 0
            for s in self.triangulate_face(face):
                total += abs(int(_det([list(v) for v in s])))
            out[face.id] = total
        return out

    # -- gauge denominator ---------------------------------------------------

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(v[k] for v in self.vertices), max(v[k] for v in self.vertices))
            for k in range(self.n)
        )

    def lattice_points_with_gauge_at_most(self, bound: Fraction):
        """All cone lattice points w with gauge(w) <= bound, sorted.

        These are the lattice points of the dilate bound * hull, so the test
        is every facet inequality with its level scaled, in integers.
        """
        bound = Fraction(bound)
        num, den = bound.numerator, bound.denominator
        limits = [(f.normal, f.level * num) for f in self.facets]
        ranges = [
            range(min(0, floor(lo * bound)), max(0, ceil(hi * bound)) + 1)
            for lo, hi in self.bounding_box()
        ]
        return [
            w
            for w in itertools.product(*ranges)
            if all(_dot(m, w) * den <= limit for m, limit in limits)
        ]

    def _compute_gauge_denominator(self) -> int:
        # Reduce level_lcm by the gcd of scaled gauge values over a generating
        # sample: lattice points of gauge at most n cover a semigroup
        # generating set.
        m0 = self.level_lcm
        g = 0
        for w in self.lattice_points_with_gauge_at_most(Fraction(self.n)):
            g = gcd(g, self._scaled_gauge(w))
        if g == 0:
            return m0
        return m0 // gcd(m0, g)

    # -- summaries -----------------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        return tuple(
            len(self.faces_of_dim(p)) for p in range(self.n)
        )

    def __repr__(self):
        return (
            f"NewtonPolytope(n={self.n}, facets={len(self.facets)}, "
            f"vertices={len(self.vertices)}, M={self.gauge_denominator}, "
            f"nvol={self.normalized_volume})"
        )


def _det(rows) -> Fraction:
    """Exact determinant by fraction elimination; rows is a square list."""
    n = len(rows)
    a = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def newton_polytope(matrix: ExponentMatrix) -> NewtonPolytope:
    """Hull of the origin and the columns, with facets, faces and gauge data."""
    return NewtonPolytope(matrix)


@dataclass(frozen=True)
class ExponentCone:
    """The cone positively spanned by the exponent columns."""

    generators: tuple[Vector, ...]
    inequalities: tuple[Vector, ...]

    def contains(self, w) -> bool:
        return all(_dot(m, w) >= 0 for m in self.inequalities)

    @property
    def is_full_space(self) -> bool:
        return not self.inequalities


def exponent_cone(
    matrix: ExponentMatrix, polytope: NewtonPolytope | None = None
) -> ExponentCone:
    """Facet description of the cone spanned by the columns of the matrix."""
    if polytope is None:
        polytope = NewtonPolytope(matrix)
    return ExponentCone(matrix.columns, polytope.cone_inequalities())


def gauge(polytope: NewtonPolytope, w) -> Fraction:
    return polytope.gauge(w)


def gauge_denominator(polytope: NewtonPolytope) -> int:
    return polytope.gauge_denominator


def normalized_volume(polytope: NewtonPolytope) -> int:
    return polytope.normalized_volume


def face_lattice(polytope: NewtonPolytope):
    """All proper faces plus the index sets of origin-clear faces by dimension."""
    index_sets = {
        p: [f.id for f in polytope.index_set(p)] for p in range(polytope.n)
    }
    return list(polytope.faces), index_sets


def normalize_gamma(gamma, cone: ExponentCone):
    """Shift gamma by an integer vector into the negated exponent cone.

    The returned representative satisfies m(gamma') <= 0 for every covector m
    of the dual cone, which keeps every residue along any toric boundary
    divisor away from the strictly positive integers.
    """
    gamma = tuple(Fraction(g) for g in gamma)
    n = len(gamma)
    ms = cone.inequalities
    if all(_dot(m, gamma) <= 0 for m in ms):
        return gamma
    center = tuple(round(g) for g in gamma)
    radius = 0
    while True:
        for offset in itertools.product(range(-radius, radius + 1), repeat=n):
            if max(abs(o) for o in offset) != radius and radius > 0:
                continue
            k = tuple(c + o for c, o in zip(center, offset))
            shifted = tuple(g - kk for g, kk in zip(gamma, k))
            if all(_dot(m, shifted) <= 0 for m in ms):
                return shifted
        radius += 1
        if radius > 10_000:
            raise AssertionError("no integer shift found; cone not full?")
