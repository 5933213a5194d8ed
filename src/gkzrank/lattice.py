"""Integer-exact geometry of the Newton polytope and the exponent cone.

Given an integer matrix of full row rank, this module computes the convex
hull of the origin together with the column vectors (facets, vertices and
the whole face lattice), the cone positively spanned by the columns, the
piecewise-linear gauge that measures how deep a lattice vector sits inside
scaled copies of the hull, and the normalized volume.  The facets are found
by brute force over candidate point subsets, which is exact and entirely
adequate at the intended scale (a handful of dimensions and columns); each
facet keeps the hull points on its hyperplane.  Every face is the
intersection of the facets containing it (Ziegler 1995, 2.1-2.2), so the
faces are folded in one facet at a time, as the sets of points they hold,
and each face keeps its set: the vertices are the faces on one point, a
face's facets are those whose sets contain its set, and it holds the origin
when its set does.  No face is tested by a dot product.

The gauge is evaluated in integers.  Its denominator M is the lcm of the
positive facet levels, read off the facets with no search: M times the
gauge is the largest of the dot products with the positive facet normals,
each scaled by M over its level.  Cone lattice points are listed from a
half-open simplicial tiling: the faces are triangulated, and each piece is
inverted once in integers and opened lexicographically, away from
z(eps) = g_1 + eps g_2 + ... on the first piece, so the pieces tile the
cone without overlap.  Each cone point is then exactly one
p + n_1 g_1 + ... + n_k g_k with p in one piece's half-open parallelepiped,
of degree deg p + M (n_1 + ... + n_k) (Stanley 1980; Koeppe and
Verdoolaege 2008), so a degree slice is listed with no search.  The cone
over each face avoiding the origin is tiled the same way from the face's
own triangulation, and its slices are listed from its own pieces.  Each
tiling is built once per polytope and kept, and each listed point's degree
is recorded.  ``normalize_gamma`` solves the facet inequalities for the
last coordinate over each point of its shells.

Determinants are taken in integers by Bareiss elimination; they give the
normalized volume, the facet normals (as signed maximal minors) and the
integer inverse of each simplicial piece.  Ranks go through
``rational_rank``, the one rank of integer vectors: it checks the matrix's
row rank and gives each face its dimension, the rank of its edges from one
vertex.  The facets tight at a point, face-cone membership, face edge bases,
incidence signs and boundary pyramid volumes, which no ``analyze`` run
needs, live in ``oracles``.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul

from .errors import FaceContainsOrigin, NotInCone, RankDeficient, ShapeMismatch
from .linalg import SparseRationalMatrix, rank

Vector = tuple[int, ...]


def _dot(u, v) -> Fraction | int:
    return sum(map(mul, u, v))


def _sub(u, v) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _check_length(w, n):
    """Reject a vector of the wrong length, which a dot product would truncate."""
    if len(w) != n:
        raise ShapeMismatch(f"vector {tuple(w)} has length {len(w)}, expected {n}")


# What Fraction reads on every supported Python, less exponents (it writes
# out every digit of "1e1000000000"): a sign, then digits with an optional
# /digits, or a decimal, with optional whitespace around.
RATIONAL = re.compile(r"\s*[+-]?(?:\d+(?:/\d+)?|\d+\.\d*|\.\d+)\s*")


def parse_rational(text) -> Fraction:
    """An ``int`` that is not a ``bool``, a ``Fraction``, or a string in
    ``RATIONAL``; a float, a ``Decimal`` or anything else is refused."""
    exact = type(text) in (int, Fraction)
    if exact or isinstance(text, str) and RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot parse rational from {text!r}")


def _rationals(values, n) -> tuple[Fraction, ...]:
    """A rational vector of length ``n``, such as gamma or a fiber, each entry
    read by ``parse_rational``."""
    _check_length(values, n)
    return tuple(map(parse_rational, values))


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
    """A facet inequality normal . w <= level with primitive integer normal;
    ``points`` are the hull points (columns and origin) on its hyperplane."""

    def __init__(self, normal, level, points):
        self.normal: Vector = normal
        self.level: int = level
        self.points: frozenset[Vector] = points


class Face:
    """A proper face of the hull, recorded by the hull points it holds.

    ``points`` is that set and ``vertices`` the hull vertices among them,
    sorted; ``dim`` is the rank of its edges from its first vertex.
    ``active`` lists the indices of the facets whose points contain the
    face's, and ``contains_origin`` whether the origin is one of its points,
    which may happen even when the origin is not one of its vertices.
    """

    def __init__(self, points, vertices, facets):
        self.id: int = 0  # its place among the polytope's sorted faces
        self.points: frozenset[Vector] = points
        self.vertices: tuple[Vector, ...] = tuple(sorted(points & vertices))
        v0 = self.vertices[0]
        self.dim: int = rational_rank([_sub(v, v0) for v in self.vertices[1:]])
        self.active: frozenset[int] = frozenset(
            i for i, f in enumerate(facets) if points <= f.points
        )
        self.contains_origin: bool = (0,) * len(v0) in points
        self.on_origin_facet: bool = any(facets[i].level == 0 for i in self.active)


def _kernel_normal(points, n):
    """Primitive normal of the hyperplane through n points, or None.

    The normal is the vector of signed maximal minors of the n - 1
    difference rows; it vanishes exactly when the points are dependent.
    """
    diffs = [_sub(p, points[0]) for p in points[1:]]
    minors = [
        (-1) ** j * _det([d[:j] + d[j + 1:] for d in diffs]) for j in range(n)
    ]
    g = gcd(*minors)
    return tuple(c // g for c in minors) if g else None


class NewtonPolytope:
    """Hull of the origin and the exponent columns, with all gauge data."""

    def __init__(self, matrix: ExponentMatrix):
        self.matrix = matrix
        self.n = matrix.n
        origin = (0,) * self.n
        points = sorted(set(matrix.columns) | {origin})
        self.points = points
        self.facets = self._find_facets(points)
        self.origin_interior = all(f.level > 0 for f in self.facets)
        self.vertices, self.faces = self._build_faces(points)
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
        self.normalized_volume = self._compute_normalized_volume()
        # Each cone's tiling and listed slices, keyed by the faces it is tiled
        # over (``_cone``), and the degree of every listed point.
        self._top_faces = tuple(self.index_set(self.n - 1))
        self._pieces: dict[tuple[Face, ...], list] = {}
        self._slices: dict[tuple[tuple[Face, ...], int], tuple[Vector, ...]] = {}
        self._degree: dict[Vector, int] = {}

    # -- construction -----------------------------------------------------

    def _find_facets(self, points) -> tuple[Facet, ...]:
        n = self.n
        found: dict[tuple[Vector, int], Facet] = {}
        # n-subsets inside a hyperplane already evaluated: each spans that
        # hyperplane or is dependent, so it is skipped untested.
        covered: set[tuple[int, ...]] = set()
        for combo in itertools.combinations(range(len(points)), n):
            if combo in covered:
                continue
            normal = _kernel_normal([points[k] for k in combo], n)
            if normal is None:
                continue
            level = _dot(normal, points[combo[0]])
            values = [_dot(normal, p) for p in points]
            on = [k for k, v in enumerate(values) if v == level]
            if len(on) > n:
                covered.update(itertools.combinations(on, n))
            if all(v <= level for v in values):
                key = (normal, level)
            elif all(v >= level for v in values):
                normal = tuple(-c for c in normal)
                key = (normal, -level)
            else:
                continue
            found.setdefault(key, Facet(*key, frozenset(points[k] for k in on)))
        facets = tuple(sorted(found.values(), key=lambda f: (f.level, f.normal)))
        for f in facets:
            if f.level < 0:
                raise AssertionError("origin violates a facet inequality")
        return facets

    def _build_faces(self, points) -> tuple[tuple[Vector, ...], tuple[Face, ...]]:
        """The vertices and the faces.  The faces' point sets are the nonempty
        proper intersections of the facets' point sets, folded in one facet
        at a time; the vertices are the faces on one point."""
        whole = frozenset(points)
        sets = {whole}
        for f in self.facets:
            sets |= {s & f.points for s in sets}
        sets -= {whole, frozenset()}
        vertices = frozenset(p for s in sets if len(s) == 1 for p in s)
        faces = sorted(
            (Face(s, vertices, self.facets) for s in sets),
            key=lambda f: (f.dim, f.vertices),
        )
        for i, f in enumerate(faces):
            f.id = i
        return tuple(sorted(vertices)), tuple(faces)

    # -- cone membership and gauge ----------------------------------------

    def cone_inequalities(self) -> tuple[Vector, ...]:
        """Covectors m with m . w >= 0 cutting out the exponent cone."""
        return tuple(
            tuple(-c for c in f.normal) for f in self.facets if f.level == 0
        )

    def cone_contains(self, w) -> bool:
        """Whether w lies in the exponent cone; the membership check that
        ``gauge`` and ``graded_degree`` share, so a point of the wrong length
        is rejected here."""
        _check_length(w, self.n)
        return all(_dot(m, w) <= 0 for _, m in self._cone_facets)

    def gauge(self, w) -> Fraction:
        """Least r >= 0 with w inside r times the hull; w must be in the cone."""
        return Fraction(self.graded_degree(w), self.gauge_denominator)

    def graded_degree(self, w) -> int:
        """The gauge scaled by the common denominator; an integer for lattice w.
        A listed point reads the degree recorded when its slice was listed."""
        d = self._degree.get(w) if type(w) is tuple else None
        if d is None:
            if not self.cone_contains(w):
                raise NotInCone(f"{w} violates a zero-level facet inequality")
            d = max(0, max(k * _dot(m, w) for _, m, k in self._gauge_facets))
        return d

    def points_of_degree(self, d: int, face: Face | None = None) -> tuple[Vector, ...]:
        """Sorted lattice points of graded degree d in the full cone, or in the
        cone over one face avoiding the origin: each p + n_1 g_1 + ... + n_k g_k
        with deg p + M (n_1 + ... + n_k) = d, over that cone's pieces.  A slice
        is listed on its first request and its points' degrees are recorded
        before it is published, so a concurrent reader sees the whole slice or
        none."""
        cone = self._cone(face)
        points = self._slices.get((cone, d))
        if points is None:
            M = self.gauge_denominator
            points = tuple(sorted(
                tuple(map(sum, zip(p, *chosen)))
                for gens, parallelepiped in self.cone_pieces(face)
                for dp, p in parallelepiped
                if dp <= d and (d - dp) % M == 0
                for chosen in itertools.combinations_with_replacement(
                    gens, (d - dp) // M
                )
            ))
            self._degree.update(dict.fromkeys(points, d))
            self._slices[cone, d] = points
        return points

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
        dim = face.dim - 1
        return [g for g in self.faces if g.dim == dim and g.points < face.points]

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

    def _cone(self, face: Face | None) -> tuple[Face, ...]:
        """The faces whose cones tile the full cone (``face`` None) or the
        cone over one face avoiding the origin: a full cone over one face is
        that face's cone, tiled and listed once."""
        if face is None:
            return self._top_faces
        if face.contains_origin:
            raise FaceContainsOrigin(face.id)
        return (face,)

    def cone_pieces(self, face: Face | None = None):
        """Half-open simplicial pieces tiling the full cone (``face`` None) or
        the cone over one face avoiding the origin, built once per polytope
        and kept: each piece's generators, of gauge one, and the (degree,
        point) pairs of its half-open parallelepiped."""
        cone = self._cone(face)
        pieces = self._pieces.get(cone)
        if pieces is None:
            pieces = self._pieces[cone] = self._tile(cone)
        return pieces

    def _tile(self, faces):
        cones = [s for face in faces for s in self.triangulate_face(face)]
        first = cones[0]
        pieces = []
        for gens in cones:
            assert len(gens) == len(first), "simplicial pieces of different sizes"
            inverse = _integer_inverse(gens)
            rows, _, adj = inverse
            half_open = [_opens_below(a, first, rows) for a in adj]
            points = _parallelepiped_points(gens, inverse, half_open)
            pieces.append((gens, [(self.graded_degree(p), p) for p in points]))
        return pieces

    def _compute_normalized_volume(self) -> int:
        v0 = self.vertices[0]
        return sum(
            abs(_det([_sub(v, v0) for v in s]))
            for face in self.faces_of_dim(self.n - 1)
            if v0 not in face.vertices
            for s in self.triangulate_face(face)
        )

    # -- gauge denominator ---------------------------------------------------

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (min(v[k] for v in self.vertices), max(v[k] for v in self.vertices))
            for k in range(self.n)
        )

    def lattice_points_with_gauge_at_most(self, bound: Fraction):
        """All cone lattice points w with gauge(w) <= bound, sorted: the
        lattice points of the dilate bound * hull, read from the slices."""
        top = floor(Fraction(bound) * self.gauge_denominator)
        return sorted(w for d in range(top + 1) for w in self.points_of_degree(d))

    # -- summaries -----------------------------------------------------------

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(self.faces_of_dim(p)) for p in range(self.n))


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


def normalize_gamma(gamma, polytope: NewtonPolytope):
    """Shift gamma by an integer vector into the negated exponent cone.

    The returned representative satisfies m(gamma') <= 0 for every covector m
    of the dual cone, which keeps every residue along any toric boundary
    divisor away from the strictly positive integers.

    The shift is center = round(gamma) plus the L-infinity-shortest integer
    offset o with every m . o >= ceil(m . gamma - m . center), first in
    product order on its shell.  The column sum c is interior to the cone, so t c is one
    such offset for t large enough; the search ends by its radius.
    """
    gamma = _rationals(gamma, polytope.n)
    if polytope.cone_contains([-g for g in gamma]):
        return gamma
    n = len(gamma)
    ms = polytope.cone_inequalities()
    center = tuple(round(g) for g in gamma)
    needs = [(m, ceil(_dot(m, gamma) - _dot(m, center))) for m in ms]
    c = [sum(col) for col in zip(*polytope.matrix.columns)]
    t = max([0] + [-(-need // _dot(m, c)) for m, need in needs])
    rows = [([-a for a in m[:-1]], -m[-1], -need) for m, need in needs]
    for r in range(t * max(abs(x) for x in c) + 1):
        for p in itertools.product(range(-r, r + 1), repeat=n - 1):
            xs = _last_interval(rows, p, -r, r)
            if xs:
                k = tuple(a + o for a, o in zip(center, p + (xs[0],)))
                return tuple(g - a for g, a in zip(gamma, k))
