"""Integer-exact geometry of the Newton polytope and the exponent cone.

Given an integer matrix of full row rank, this module computes the convex
hull of the origin together with the column vectors (facets, vertices and
the whole face lattice), the cone positively spanned by the columns, the
piecewise-linear gauge that measures how deep a lattice vector sits inside
scaled copies of the hull, and the normalized volume.  All computations are
brute-force over candidate point subsets, which is exact and entirely
adequate at the intended scale (a handful of dimensions and columns).

The gauge is evaluated in integers.  Its denominator M is the lcm of the
positive facet levels, read off the facets with no search: M times the
gauge is the largest of the dot products with the positive facet normals,
each scaled by M over its level.  Degree slices of the cone come from one
table per polytope, built to the requested degree when a request goes past
it.  A build visits only the points it keeps: the facet inequalities,
solved for the last coordinate, give its interval over each point of the
scaled box of the others; ``normalize_gamma`` searches its shells the same
way.  The table also records, for each point, the facets on which it is
tight; face-cone membership and the associated-graded product are set
operations on those.

Determinants are taken in integers by Bareiss elimination; they give the
normalized volume, the facet normals (as signed maximal minors) and each
incidence sign, the product of two minor signs on the first rows where the
face basis is nonsingular.  Ranks go through ``linalg.rank``; a face's edge
basis is the one greedy choice, kept in a ``RationalSpan``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd, lcm

from .errors import FaceContainsOrigin, NotInCone, RankDeficient, ShapeMismatch
from .linalg import RationalSpan, SparseRationalMatrix, rank

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


class ExponentMatrix:
    """An n x N integer matrix of full row rank; columns are exponent vectors."""

    def __init__(self, rows):
        self.rows: tuple[tuple[int, ...], ...] = rows

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
    return rank(SparseRationalMatrix.from_dense(rows))


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


class Facet:
    """A facet inequality normal . w <= level with primitive integer normal."""

    def __init__(self, normal, level):
        self.normal: Vector = normal
        self.level: int = level

    def value(self, w) -> Fraction | int:
        return _dot(self.normal, w)


class Face:
    """A proper face of the hull, recorded by its vertex set.

    ``active`` lists the indices of all facets whose hyperplane contains the
    face.  ``contains_origin`` refers to the origin as a point of the face,
    which may happen even when the origin is not one of its vertices.
    ``_basis`` caches the face's edge basis once it is needed.
    """

    def __init__(
        self, id, dim, vertices, active, contains_origin, on_origin_facet, _basis=None
    ):
        self.id: int = id
        self.dim: int = dim
        self.vertices: tuple[Vector, ...] = vertices
        self.active: frozenset[int] = active
        self.contains_origin: bool = contains_origin
        self.on_origin_facet: bool = on_origin_facet
        self._basis: tuple[Vector, ...] | None = _basis


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
    """Primitive normal of the hyperplane through n points, or None.

    The normal is the vector of signed maximal minors of the n - 1
    difference rows; it vanishes exactly when the points are dependent.
    """
    diffs = [_sub(p, points[0]) for p in points[1:]]
    minors = [
        (-1) ** j * _det([d[:j] + d[j + 1:] for d in diffs]) for j in range(n)
    ]
    return _primitive(minors) if any(minors) else None


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
        self.faces = self._build_faces()
        self._faces_by_vertices = {f.vertices: f for f in self.faces}
        levels = [f.level for f in self.facets if f.level > 0]
        if not levels:
            raise AssertionError("hull has no positive-level facet")
        # The cone over a positive facet is full-dimensional and its normal
        # is primitive, so its lattice points take every large value k of
        # normal . w, with gauge k / level: M is exactly the lcm of levels.
        self.gauge_denominator = lcm(*levels)
        # (index, normal, M // level) for the positive facets; the scaled
        # gauge is the largest normal . w times its factor.
        self._gauge_facets = tuple(
            (i, f.normal, self.gauge_denominator // f.level)
            for i, f in enumerate(self.facets)
            if f.level > 0
        )
        self._cone_facets = tuple(
            (i, f.normal) for i, f in enumerate(self.facets) if f.level == 0
        )
        self.positive_facets = frozenset(i for i, _, _ in self._gauge_facets)
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

    def _build_faces(self) -> tuple[Face, ...]:
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
        """Whether w lies in the exponent cone; the membership check that
        ``gauge``, ``graded_degree`` and ``tight_facets`` share, so a point
        of the wrong length is rejected here."""
        if len(w) != self.n:
            raise ShapeMismatch(
                f"point {tuple(w)} has length {len(w)}, expected {self.n}"
            )
        return all(_dot(m, w) <= 0 for _, m in self._cone_facets)

    def _checked_scaled_gauge(self, w) -> int:
        """gauge_denominator times the gauge of a cone point: an integer."""
        if not self.cone_contains(w):
            raise NotInCone(f"{w} violates a zero-level facet inequality")
        return max(0, max(k * _dot(m, w) for _, m, k in self._gauge_facets))

    def gauge(self, w) -> Fraction:
        """Least r >= 0 with w inside r times the hull; w must be in the cone."""
        return Fraction(self._checked_scaled_gauge(w), self.gauge_denominator)

    def graded_degree(self, w) -> int:
        """The gauge scaled by the common denominator; an integer for lattice w."""
        return self._checked_scaled_gauge(w)

    def _gauge_and_tight(self, w) -> tuple[int, frozenset[int]]:
        """The scaled gauge of a cone point and the facets tight at it: the
        positive facets attaining the gauge and the zero-level facets
        through it, from one pass over the facet values."""
        values = [(i, k * _dot(m, w)) for i, m, k in self._gauge_facets]
        top = max(0, max(v for _, v in values))
        return top, frozenset(
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
            tight = self._gauge_and_tight(w)[1]
        return tight

    def points_of_degree(self, d: int) -> tuple[Vector, ...]:
        """Sorted cone lattice points of graded degree d, read from the table.

        A request past the table's top degree rebuilds it to exactly that
        degree.  A consumer that knows its largest degree asks for it first
        (the face certificates their largest window, the Koszul stage its
        truncation), so each builds the table at most once.
        """
        if d < 0:
            return ()
        top, slices, _ = self._table
        if d > top:
            top, slices, _ = self._build_table(d)
        return slices.get(d, ())

    def _build_table(self, top: int):
        slices: dict[int, list[Vector]] = {}
        tight: dict[Vector, frozenset[int]] = {}
        # Points share one object per distinct tight set (there are about
        # as many as faces), which keeps the table's memory near the points'.
        distinct: dict[frozenset[int], frozenset[int]] = {}
        bound = Fraction(top, self.gauge_denominator)
        for w in self.lattice_points_with_gauge_at_most(bound):
            d, t = self._gauge_and_tight(w)
            slices.setdefault(d, []).append(w)
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
        vertex.  On the first rows where the face basis has a nonzero minor,
        that determinant is det(frame rows) / det(basis rows); the outward
        direction is taken between barycentres scaled by both vertex counts,
        a positive multiple that keeps the sign.
        """
        fb = self._face_basis(face)
        nf, ns = len(face.vertices), len(sub.vertices)
        outward = tuple(
            nf * sum(v[k] for v in sub.vertices)
            - ns * sum(v[k] for v in face.vertices)
            for k in range(self.n)
        )
        rows, det = _nonsingular_minor(fb)
        frame = (outward,) + self._face_basis(sub)
        return 1 if _det([[c[r] for c in frame] for r in rows]) * det > 0 else -1

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
                total += abs(_det([_sub(v, v0) for v in s]))
        return total

    def boundary_pyramid_volumes(self) -> dict[int, int]:
        """Normalized volume under each top-index face, coned to the origin."""
        out = {}
        for face in self.index_set(self.n - 1):
            total = 0
            for s in self.triangulate_face(face):
                total += abs(_det(s))
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

        These are the lattice points of the dilate bound * hull.  Over each
        point of the scaled box of the first n - 1 coordinates, the facet
        inequalities with their levels scaled bound the last coordinate.
        """
        bound = Fraction(bound)
        num, den = bound.numerator, bound.denominator
        rows = [
            ([c * den for c in f.normal[:-1]], f.normal[-1] * den, f.level * num)
            for f in self.facets
        ]
        box = [
            (min(0, floor(lo * bound)), max(0, ceil(hi * bound)))
            for lo, hi in self.bounding_box()
        ]
        return [
            p + (x,)
            for p in itertools.product(*(range(lo, hi + 1) for lo, hi in box[:-1]))
            for x in _last_interval(rows, p, *box[-1])
        ]

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


def _det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    After step k each remaining entry is a (k+1) x (k+1) minor, so the
    division by the previous pivot is exact and every entry stays an integer.
    """
    a = [list(row) for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk = a[k]
        for r in a[k + 1:]:
            r[k + 1:] = [
                (r[j] * pk[k] - r[k] * pk[j]) // prev for j in range(k + 1, n)
            ]
        prev = pk[k]
    return sign * prev


def _last_interval(rows, prefix, lo, hi) -> range:
    """The integers x in [lo, hi] with a . prefix + b x <= c for every row
    (a, b, c): Fourier-Motzkin elimination of the last coordinate."""
    for a, b, c in rows:
        r = c - _dot(a, prefix)
        if b > 0:
            hi = min(hi, r // b)
        elif b < 0:
            lo = max(lo, -(r // -b))
        elif r < 0:
            return range(0)
    return range(lo, hi + 1)


def _nonsingular_minor(columns) -> tuple[tuple[int, ...], int]:
    """The first rows (in lexicographic order) on which k independent
    columns have a nonzero k x k minor, with that minor."""
    k = len(columns)
    for rows in itertools.combinations(range(len(columns[0])), k):
        det = _det([[c[r] for c in columns] for r in rows])
        if det:
            return rows, det
    raise AssertionError("columns are linearly dependent")


class ExponentCone:
    """The cone positively spanned by the exponent columns."""

    def __init__(self, generators, inequalities):
        self.generators: tuple[Vector, ...] = generators
        self.inequalities: tuple[Vector, ...] = inequalities

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


def normalize_gamma(gamma, cone: ExponentCone):
    """Shift gamma by an integer vector into the negated exponent cone.

    The returned representative satisfies m(gamma') <= 0 for every covector m
    of the dual cone, which keeps every residue along any toric boundary
    divisor away from the strictly positive integers.

    The shift is center = round(gamma) plus the L-infinity-shortest integer
    offset o with every m . o >= ceil(m . gamma - m . center), first in
    product order on its shell.  The column sum c is interior to the cone, so t c is one
    such offset for t large enough; the search ends by its radius.
    """
    gamma = tuple(Fraction(g) for g in gamma)
    n = len(gamma)
    ms = cone.inequalities
    if all(_dot(m, gamma) <= 0 for m in ms):
        return gamma
    center = tuple(round(g) for g in gamma)
    needs = [(m, ceil(_dot(m, gamma) - _dot(m, center))) for m in ms]
    c = [sum(col) for col in zip(*cone.generators)]
    t = max([0] + [-(-need // _dot(m, c)) for m, need in needs])
    rows = [([-a for a in m[:-1]], -m[-1], -need) for m, need in needs]
    for r in range(t * max(abs(x) for x in c) + 1):
        for p in itertools.product(range(-r, r + 1), repeat=n - 1):
            xs = _last_interval(rows, p, -r, r)
            if max(map(abs, p), default=0) < r:
                xs = [x for x in (-r, r) if x in xs]
            if xs:
                k = tuple(a + o for a, o in zip(center, p + (xs[0],)))
                return tuple(g - a for g, a in zip(gamma, k))
