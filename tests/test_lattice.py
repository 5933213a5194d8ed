import itertools
import math
import random
import sys
import threading
import time
from fractions import Fraction

import pytest

from gkzrank import (
    FaceContainsOrigin,
    NewtonPolytope,
    NotInCone,
    RankDeficient,
    ShapeMismatch,
    normalize_gamma,
    validate_matrix,
)
from gkzrank import lattice
from gkzrank.lattice import _kernel_normal, rational_rank
from gkzrank.oracles import boundary_pyramid_volumes, tight_facets
from gkzrank.rings import cone_numerator
from test_cli import GOLDEN_SPECS


def _value(f, w):
    """The facet functional normal . w, by a local dot product."""
    return sum(a * b for a, b in zip(f.normal, w))


class TestValidateMatrix:
    def test_identity_case(self):
        m = validate_matrix([[1]])
        assert m.n == 1 and m.num_columns == 1

    def test_gauss_rank_three(self):
        m = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
        assert rational_rank(m.rows) == 3

    def test_proportional_rows_rejected(self):
        with pytest.raises(RankDeficient) as err:
            validate_matrix([[1, 2], [2, 4]])
        assert err.value.actual_rank == 1

    def test_ragged_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matrix([[1, 2], [3]])

    def test_non_integer_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matrix([[1, 2.5]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeMismatch):
            validate_matrix([])

    def test_duplicate_and_zero_columns_allowed(self):
        m = validate_matrix([[1, 1, 0], [0, 0, 1]])
        assert m.num_columns == 3


class TestNewtonPolytope:
    def test_interval_hull(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert {(f.normal, f.level) for f in P.facets} == {((-1,), 0), ((1,), 2)}
        assert P.vertices == ((0,), (2,))

    def test_gauss_pyramid_f_vector(self):
        P = NewtonPolytope(validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))
        assert P.f_vector() == (5, 8, 5)

    def test_symmetric_interval(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        assert P.vertices == ((-1,), (1,))
        assert P.origin_interior

    def test_hull_soundness(self, polytopes):
        for name, (matrix, P, _) in polytopes.items():
            origin = (0,) * P.n
            for point in matrix.columns + (origin,):
                for f in P.facets:
                    assert _value(f, point) <= f.level
            for f in P.facets:
                on = [v for v in P.vertices if _value(f, v) == f.level]
                assert len(on) >= P.n
                diffs = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
                assert rational_rank(diffs) == P.n - 1 or P.n == 1


def _cone_contains(P, w):
    """Whether w satisfies every inequality m . w >= 0 of the exponent cone."""
    return all(sum(a * b for a, b in zip(m, w)) >= 0 for m in P.cone_inequalities())


class TestExponentCone:
    def test_single_ray(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        assert P.cone_inequalities() == ((1,),)
        assert _cone_contains(P, (3,)) and not _cone_contains(P, (-1,))

    def test_full_line(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        assert not P.cone_inequalities()
        assert _cone_contains(P, (-7,))

    def test_gauss_cone(self, gauss):
        _, P, _ = gauss
        # 0 <= w2 <= w1 and 0 <= w3 <= w1
        inside = [(1, 0, 0), (2, 1, 2), (5, 5, 0), (0, 0, 0)]
        outside = [(1, 2, 0), (0, 1, 0), (1, 0, -1), (-1, 0, 0)]
        for w in inside:
            assert _cone_contains(P, w) and P.cone_contains(w)
        for w in outside:
            assert not _cone_contains(P, w) and not P.cone_contains(w)

    def test_generators_inside(self, polytopes):
        for name, (matrix, P, _) in polytopes.items():
            for w in matrix.columns:
                assert _cone_contains(P, w) and P.cone_contains(w)


class TestGauge:
    def test_interval_midpoint(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert P.gauge((1,)) == Fraction(1, 2)
        P.points_of_degree(3)  # a listed point, also when given as a list
        assert P.gauge((1,)) == P.gauge([1]) == Fraction(1, 2)

    def test_origin(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert P.gauge((0,) * P.n) == 0

    def test_gauss_point(self, gauss):
        _, P, _ = gauss
        assert P.gauge((2, 1, 0)) == 2

    def test_not_in_cone(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        with pytest.raises(NotInCone):
            P.gauge((-1,))

    @pytest.mark.parametrize("w", [(1,), (1, 2, 3), [1], [1, 2, 3]])
    def test_wrong_length_point_is_rejected(self, w):
        P = NewtonPolytope(validate_matrix([[1] * 5, [0, 1, 2, 3, 4]]))
        members = (
            P.gauge, P.graded_degree, P.cone_contains, lambda w: tight_facets(P, w)
        )
        for listed in (False, True):  # before a slice is listed and after
            if listed:
                assert (2, 3) in P.points_of_degree(2)
            for member in members:
                with pytest.raises(ShapeMismatch, match="expected 2"):
                    member(w)
                # A list of the right length reads as its tuple.
                assert member([2, 3]) == member((2, 3))


class TestGaugeDenominator:
    @pytest.mark.parametrize(
        "rows,expected",
        [([[1, 2]], 2), ([[1]], 1), ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 1)],
    )
    def test_examples(self, rows, expected):
        assert NewtonPolytope(validate_matrix(rows)).gauge_denominator == expected

    def test_integrality_on_sample(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            M = P.gauge_denominator
            for w in P.lattice_points_with_gauge_at_most(Fraction(3)):
                assert (P.gauge(w) * M).denominator == 1


class TestNormalizedVolume:
    @pytest.mark.parametrize(
        "rows,expected",
        [
            ([[1, 2]], 2),
            ([[-1, 1]], 2),
            ([[1]], 1),
            ([[2]], 2),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 2),
        ],
    )
    def test_examples(self, rows, expected):
        assert NewtonPolytope(validate_matrix(rows)).normalized_volume == expected

    def test_volume_additivity(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            pyramids = boundary_pyramid_volumes(P)
            assert sum(pyramids.values()) == P.normalized_volume

    def test_square_volume(self):
        P = NewtonPolytope(validate_matrix([[1, 0, 1], [0, 1, 1]]))
        assert P.normalized_volume == 2


class TestFaceLattice:
    def test_interval_index_sets(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert [f.vertices for f in P.index_set(0)] == [((2,),)]

    def test_symmetric_interval_index_sets(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        assert len(P.index_set(0)) == 2

    def test_gauss_index_sets(self, gauss):
        # Every square edge and vertex lies on an apex facet through the
        # origin, so only the square facet survives in the index sets.
        _, P, _ = gauss
        assert len(P.index_set(2)) == 1
        square = P.index_set(2)[0]
        assert square.vertices == ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1))
        assert P.index_set(1) == [] and P.index_set(0) == []

    def test_contains_origin_flags(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            for face in P.faces:
                expected = all(P.facets[i].level == 0 for i in face.active)
                assert face.contains_origin == expected

    def test_face_through_the_origin_is_not_tiled(self):
        # Its simplices have the origin as a vertex, so no piece is
        # nonsingular; every route to its tiling names the face instead.
        P = NewtonPolytope(validate_matrix([[1, 0, -1], [0, 1, 1]]))
        through = [f for f in P.faces if f.contains_origin]
        assert [f.id for f in through] == [1, 4, 6]
        for face in through:
            for call in (
                P.cone_pieces,
                lambda face: cone_numerator(P, face),
                lambda face: P.points_of_degree(0, face),
                lambda face: P.points_of_degree(-1, face),
            ):
                with pytest.raises(FaceContainsOrigin, match=f"^{face.id}$"):
                    call(face)
        # The faces avoiding the origin are tiled, whether or not they lie on
        # a facet through it.
        for face in P.origin_free_faces():
            assert P.cone_pieces(face) is P.cone_pieces(face)
            assert cone_numerator(P, face)[1] == face.dim + 1

    def test_closed_under_intersection(self, gauss):
        _, P, _ = gauss
        sets = [set(f.vertices) for f in P.faces]
        for a in sets:
            for b in sets:
                c = a & b
                if c:
                    assert c in sets


class TestNormalizeGamma:
    def test_zero_unchanged(self, gauss):
        _, P, _ = gauss
        assert normalize_gamma([0, 0, 0], P) == (0, 0, 0)

    def test_integer_shift(self):
        P = NewtonPolytope(validate_matrix([[3]]))
        assert normalize_gamma([3], P) == (0,)

    def test_full_line_untouched(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        assert normalize_gamma([Fraction(5, 2)], P) == (Fraction(5, 2),)

    @pytest.mark.parametrize("gamma", [[Fraction(5, 2)], [0, 0, 0, 0], [1, 2, 3, 4]])
    def test_wrong_length_gamma_is_rejected(self, gauss, gamma):
        # A dot product with the cone inequalities would silently truncate
        # a gamma of the wrong length.
        _, P, _ = gauss
        with pytest.raises(ShapeMismatch, match=f"length {len(gamma)}, expected 3"):
            normalize_gamma(gamma, P)

    def test_output_contract(self, polytopes):
        for name, (matrix, P, _) in polytopes.items():
            gamma = [Fraction(5, 3)] * P.n
            out = normalize_gamma(gamma, P)
            for g, o in zip(gamma, out):
                assert (g - o).denominator == 1
            for m in P.cone_inequalities():
                assert sum(a * b for a, b in zip(m, out)) <= 0

    def test_roadmap_cone_is_searched_in_integers(self):
        # Shifting (1/2, 1/2, 1/2) into this cone needs offset radius 31;
        # the old cube search took about 10 s here.
        P = NewtonPolytope(validate_matrix([[30] * 4, [1, -1, 0, 0], [0, 0, 1, -1]]))
        start = time.perf_counter()
        out = normalize_gamma([Fraction(1, 2)] * 3, P)
        assert out == (Fraction(-61, 2), Fraction(1, 2), Fraction(1, 2))
        assert time.perf_counter() - start < 5.0


# -- the enumerations against the scans they replaced ---------------------------


def _ref_points_in_box(P, bound):
    """Every point of the scaled bounding box that passes every facet test."""
    bound = Fraction(bound)
    num, den = bound.numerator, bound.denominator
    ranges = [
        range(min(0, math.floor(lo * bound)), max(0, math.ceil(hi * bound)) + 1)
        for lo, hi in P.bounding_box()
    ]
    return [
        w
        for w in itertools.product(*ranges)
        if all(
            sum(a * b for a, b in zip(f.normal, w)) * den <= f.level * num
            for f in P.facets
        )
    ]


def _ref_cube_search(gamma, P):
    """The first feasible shift from round(gamma) on cubes of growing radius."""
    gamma = tuple(Fraction(g) for g in gamma)

    def inside(v):
        return all(sum(a * b for a, b in zip(m, v)) <= 0 for m in P.cone_inequalities())

    if inside(gamma):
        return gamma
    center = tuple(round(g) for g in gamma)
    for radius in itertools.count():
        for offset in itertools.product(range(-radius, radius + 1), repeat=len(gamma)):
            if radius and max(map(abs, offset)) != radius:
                continue
            shifted = tuple(g - c - o for g, c, o in zip(gamma, center, offset))
            if inside(shifted):
                return shifted


def _ref_all_subsets_facets(P):
    """(normal, level) of every supporting hyperplane through n independent
    points, testing every n-subset of the points, in the facets' order."""
    found = set()
    for combo in itertools.combinations(P.points, P.n):
        normal = _kernel_normal(combo, P.n)
        if normal is None:
            continue
        level = sum(a * b for a, b in zip(normal, combo[0]))
        values = [sum(a * b for a, b in zip(normal, p)) for p in P.points]
        if all(v <= level for v in values):
            found.add((normal, level))
        elif all(v >= level for v in values):
            found.add((tuple(-c for c in normal), -level))
    return sorted(found, key=lambda key: (key[1], key[0]))


def _collinear_coplanar_matrix(rnd, n):
    """Random columns plus whole lines and planes of lattice points, so that
    many n-subsets share one hyperplane; None when not of full rank."""
    def point():
        return [rnd.randint(-2, 2) for _ in range(n)]

    cols = [point() for _ in range(rnd.randint(1, 3))]
    for _ in range(rnd.randint(1, 2)):
        base, steps = point(), [point() for _ in range(min(2, n - 1) or 1)]
        for t in itertools.product(range(3), repeat=len(steps)):
            cols.append([b + sum(k * d[i] for k, d in zip(t, steps))
                         for i, b in enumerate(base)])
    cols = cols[:11]
    try:
        return validate_matrix([list(r) for r in zip(*cols)])
    except RankDeficient:
        return None


def _random_matrices(seed, count, dims, bound=2):
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.choice(dims)
        cols = [
            [rnd.randint(-bound, bound) for _ in range(n)]
            for _ in range(rnd.randint(n, n + 2))
        ]
        try:
            out.append(validate_matrix([list(r) for r in zip(*cols)]))
        except RankDeficient:
            pass
    return out


def test_concurrent_listing_matches_one_thread():
    # Four threads list the slices of one fresh polytope in different orders,
    # of the full cone and of each face cone; each reads a whole slice with
    # the degrees recorded and the tight facets.
    rows = [[1, -2, 1, 0], [2, 1, -2, 0], [2, 1, 0, -2]]

    def read(P, degrees):
        return {
            d: [(w, P.graded_degree(w), tight_facets(P, w)) for w in P.points_of_degree(d)]
            + [P.points_of_degree(d, face) for face in P.origin_free_faces()]
            for d in degrees
        }

    reference = NewtonPolytope(validate_matrix(rows))
    degrees = list(range(2 * reference.gauge_denominator + 1))
    expected = read(reference, degrees)
    P = NewtonPolytope(validate_matrix(rows))
    results = [None] * 4

    def work(i):
        order = degrees[:]
        random.Random(i).shuffle(order)
        results[i] = read(P, order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 4


def _ref_face_lattice(P):
    """The vertices by the rank test (a point on facets whose normals span),
    the faces by the pairwise closure of the facets' vertex sets, each as
    (id, dim, vertices, active, contains_origin, on_origin_facet, points),
    the facets' point sets, and the f-vector and the normalized volume read
    off them.  A point set is the points on every facet in question."""
    def on(f, p):
        return _value(f, p) == f.level

    vertices = tuple(sorted(
        p for p in P.points
        if rational_rank([f.normal for f in P.facets if on(f, p)] or [[0] * P.n])
        == P.n
    ))
    sets = {frozenset(v for v in vertices if on(f, v)) for f in P.facets}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(sets), 2):
            if a & b and a & b not in sets:
                sets.add(a & b)
                changed = True
    faces = []
    for vs in sets:
        verts = tuple(sorted(vs))
        dim = rational_rank([lattice._sub(v, verts[0]) for v in verts])
        active = frozenset(
            i for i, f in enumerate(P.facets) if all(on(f, v) for v in verts)
        )
        points = frozenset(
            p for p in P.points if all(on(P.facets[i], p) for i in active)
        )
        levels = [P.facets[i].level for i in active]
        faces.append((dim, verts, active, not any(levels), 0 in levels, points))
    faces = [(i,) + f for i, f in enumerate(sorted(faces, key=lambda f: f[:2]))]
    facet_points = [frozenset(p for p in P.points if on(f, p)) for f in P.facets]
    f_vector = tuple(sum(f[1] == p for f in faces) for p in range(P.n))

    def simplices(face):
        # The pulling triangulation from the smallest vertex.
        _, dim, verts = face[:3]
        if len(verts) == dim + 1:
            return [verts]
        return [
            (verts[0],) + s
            for g in faces
            if g[1] == dim - 1 and set(g[2]) < set(verts) and verts[0] not in g[2]
            for s in simplices(g)
        ]

    v0 = vertices[0]
    volume = sum(
        abs(lattice._det([lattice._sub(v, v0) for v in s]))
        for face in faces
        if face[1] == P.n - 1 and v0 not in face[2]
        for s in simplices(face)
    )
    return vertices, faces, facet_points, f_vector, volume


def _face_lattice_draws(seed, count):
    """Random matrices of dimension 1 to 4 with even base columns, midpoints
    of pairs of them (and of one and the origin), so that columns fall inside
    edges and facets, and repeated and zero columns."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = 1 + len(out) % 4
        base = [
            [2 * rnd.randint(-2, 2) for _ in range(n)]
            for _ in range(rnd.randint(n, n + 2))
        ]
        cols = base + [[0] * n] * (rnd.random() < 0.3)
        for _ in range(rnd.randint(1, 3)):
            a, b = rnd.choice(base), rnd.choice(base + [[0] * n])
            cols.append([(x + y) // 2 for x, y in zip(a, b)])
        if rnd.random() < 0.5:
            cols.append(rnd.choice(cols))
        try:
            out.append(validate_matrix([list(r) for r in zip(*cols)]))
        except RankDeficient:
            pass
    return out


def test_face_lattice_matches_the_pairwise_closure(polytopes):
    matrices = [matrix for matrix, _, _ in polytopes.values()]
    matrices += [
        validate_matrix(GOLDEN_SPECS[name]["matrix"]) for name in sorted(GOLDEN_SPECS)
    ]
    matrices += _face_lattice_draws(16, 120)
    seen = set()
    for matrix in matrices:
        P = NewtonPolytope(matrix)
        vertices, faces, facet_points, f_vector, volume = _ref_face_lattice(P)
        origin = (0,) * P.n
        assert P.vertices == vertices, matrix.rows
        assert [f.points for f in P.facets] == facet_points, matrix.rows
        assert [
            (f.id, f.dim, f.vertices, f.active, f.contains_origin,
             f.on_origin_facet, f.points)
            for f in P.faces
        ] == faces, matrix.rows
        for f in P.faces:
            assert f.contains_origin == (origin in f.points), matrix.rows
        assert P.f_vector() == f_vector, matrix.rows
        assert P.normalized_volume == volume, matrix.rows
        # What the draws cover: the smallest face holding each point that is
        # not a vertex, where the origin sits, and repeated and zero columns.
        for p in set(P.points) - set(vertices):
            dim = min((f[1] for f in faces if p in f[-1]), default=P.n)
            seen.add(("inside", dim, P.n))
        seen.add("origin vertex" if origin in vertices else
                 "origin interior" if P.origin_interior else "origin boundary")
        columns = matrix.columns
        seen.add(("repeated", len(set(columns)) < len(columns)))
        seen.add(("zero", origin in columns))
    assert {("inside", 1, n) for n in (2, 3, 4)} <= seen  # edges
    assert {("inside", n - 1, n) for n in (3, 4)} <= seen  # facets
    assert {("inside", n, n) for n in (1, 2, 3, 4)} <= seen  # the interior
    assert {"origin vertex", "origin interior", "origin boundary"} <= seen
    assert {("repeated", True), ("zero", True)} <= seen


class TestEnumerationsMatchReferences:
    BOUNDS = (0, Fraction(1, 3), 1, Fraction(5, 2), 3)

    def test_points_match_the_box_scan(self):
        matrices = _random_matrices(11, 90, (1, 2, 3)) + _random_matrices(
            12, 12, (4,), bound=1
        )
        # M = 60, with pieces whose parallelepipeds hold nonzero points.
        matrices.append(validate_matrix([[1, -2, 1, 0], [2, 1, -2, 0], [2, 1, 0, -2]]))
        origins = set()
        for matrix in matrices:
            P = NewtonPolytope(matrix)
            for bound in self.BOUNDS:
                assert P.lattice_points_with_gauge_at_most(bound) == (
                    _ref_points_in_box(P, bound)
                ), (matrix.rows, bound)
            if (0,) * P.n in P.vertices:
                origins.add("vertex")
            else:
                origins.add("interior" if P.origin_interior else "boundary")
        assert {m.n for m in matrices} == {1, 2, 3, 4}
        assert origins == {"vertex", "interior", "boundary"}

    def test_facets_match_the_all_subsets_search(self):
        rnd = random.Random(15)
        matrices = [GOLDEN_SPECS[name]["matrix"] for name in sorted(GOLDEN_SPECS)]
        while len(matrices) < len(GOLDEN_SPECS) + 48:
            m = _collinear_coplanar_matrix(rnd, 1 + len(matrices) % 4)
            if m is not None:
                matrices.append(m.rows)
        skipped = 0
        for rows in matrices:
            P = NewtonPolytope(validate_matrix(rows))
            assert [(f.normal, f.level) for f in P.facets] == (
                _ref_all_subsets_facets(P)
            ), rows
            shared = max(
                len({p for p in P.points if _value(f, p) == f.level}) for f in P.facets
            )
            skipped += shared > P.n
        assert skipped > len(matrices) // 2
        assert {len(rows) for rows in matrices} == {1, 2, 3, 4}

    def test_facet_search_skips_subsets_of_evaluated_hyperplanes(self, monkeypatch):
        # normal-curve-16: 16 pairs with the origin, each its own line, and
        # the first of the 120 pairs on x_0 = 1; the other 119 are skipped.
        calls = []

        def counted(points, n):
            calls.append(tuple(points))
            return _kernel_normal(points, n)

        monkeypatch.setattr(lattice, "_kernel_normal", counted)
        P = NewtonPolytope(validate_matrix([[1] * 16, list(range(16))]))
        assert len(calls) == 17
        assert [(f.normal, f.level) for f in P.facets] == [
            ((-15, 1), 0), ((0, -1), 0), ((1, 0), 1)
        ]

    def test_representative_matches_the_cube_search(self):
        rnd = random.Random(13)
        inside = 0
        for matrix in _random_matrices(14, 60, (1, 2, 3)):
            P = NewtonPolytope(matrix)
            for _ in range(6):
                gamma = [Fraction(rnd.randint(-12, 12), rnd.randint(1, 4))
                         for _ in range(matrix.n)]
                expected = _ref_cube_search(gamma, P)
                inside += expected == tuple(gamma)
                assert normalize_gamma(gamma, P) == expected, (matrix.rows, gamma)
            # A point of the negated cone is returned as it is.
            weights = [Fraction(rnd.randint(0, 3), rnd.randint(1, 3))
                       for _ in matrix.columns]
            gamma = [-sum(a * c[i] for a, c in zip(weights, matrix.columns))
                     for i in range(matrix.n)]
            assert normalize_gamma(gamma, P) == tuple(gamma)
        assert inside
