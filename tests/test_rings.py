import itertools
import math
import random
from fractions import Fraction

import pytest

from gkzrank import (
    ConeRing,
    FaceContainsOrigin,
    FaceRing,
    FreeRing,
    NotAFacePair,
    ProblemSpec,
    RingElement,
    face_projection,
    facial_ring,
    gr_multiply,
    graded_piece,
    log_derivative_classes,
    newton_polytope,
    poincare_series,
    run_analyze,
    validate_matrix,
)
from gkzrank.errors import RankDeficient
from gkzrank.jsonio import ring_element_from_json, ring_element_to_json
from gkzrank.lattice import NewtonPolytope
from gkzrank.rings import _cone_coordinates, _parallelepiped_points


class TestGradedPiece:
    def test_double_ray(self):
        P = newton_polytope(validate_matrix([[2]]))
        assert graded_piece(ConeRing(P), 3) == [(3,)]

    def test_gauss_slice(self, gauss):
        _, P, _ = gauss
        assert graded_piece(ConeRing(P), 1) == [
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_degree_zero_is_origin(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert graded_piece(ConeRing(P), 0) == [(0,) * P.n]

    def test_negative_degree_empty(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert graded_piece(ConeRing(P), -1) == []


class TestGrMultiply:
    def test_unit_element(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            w = P.matrix.columns[0]
            assert gr_multiply((0,) * P.n, w, P) == w

    def test_opposite_rays_vanish(self):
        P = newton_polytope(validate_matrix([[-1, 1]]))
        assert gr_multiply((1,), (-1,), P) is None

    def test_gauss_square_cone(self, gauss):
        _, P, _ = gauss
        assert gr_multiply((1, 0, 0), (1, 1, 0), P) == (2, 1, 0)

    def test_matches_gauge_shortcut(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            ring = ConeRing(P)
            pts = [w for d in range(3) for w in ring.monomials_of_degree(d)]
            for w1 in pts:
                for w2 in pts:
                    assert gr_multiply(w1, w2, P) == ring.multiply_monomials(w1, w2)


class TestFacialRing:
    def test_interval_vertex_ray(self):
        # The cone over the vertex {2} is the whole halfline, so every
        # degree has exactly one monomial.
        P = newton_polytope(validate_matrix([[1, 2]]))
        face = P.face_by_vertices([(2,)])
        ring = facial_ring(face, P)
        assert [graded_piece(ring, d) for d in range(4)] == [
            [(0,)],
            [(1,)],
            [(2,)],
            [(3,)],
        ]

    def test_gauss_square_is_full_cone(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        ring = facial_ring(square, P)
        full = ConeRing(P)
        for d in range(4):
            assert ring.monomials_of_degree(d) == full.monomials_of_degree(d)

    def test_gauss_vertex_ray(self, gauss):
        _, P, _ = gauss
        vertex = P.face_by_vertices([(1, 0, 0)])
        ring = facial_ring(vertex, P)
        for d in range(4):
            assert graded_piece(ring, d) == [(d, 0, 0)]

    def test_origin_face_rejected(self):
        P = newton_polytope(validate_matrix([[1, 2]]))
        origin_face = P.face_by_vertices([(0,)])
        with pytest.raises(FaceContainsOrigin):
            facial_ring(origin_face, P)


class TestFaceProjection:
    def test_gauss_square_to_edge(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        edge = P.face_by_vertices([(1, 0, 0), (1, 1, 0)])
        kept = face_projection(RingElement.monomial((2, 1, 0)), square, edge, P)
        killed = face_projection(RingElement.monomial((1, 0, 1)), square, edge, P)
        assert kept == RingElement.monomial((2, 1, 0))
        assert killed.is_zero()

    def test_not_a_face_pair(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        vertex = P.face_by_vertices([(1, 0, 0)])
        with pytest.raises(NotAFacePair):
            face_projection(RingElement.monomial((1, 0, 0)), square, vertex, P)

    def test_multiplicative(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        ring = facial_ring(square, P)
        edge = P.face_by_vertices([(1, 0, 0), (1, 1, 0)])
        xs = [
            RingElement({(1, 0, 0): Fraction(2), (1, 1, 0): Fraction(1)}),
            RingElement({(1, 0, 1): Fraction(1), (1, 1, 0): Fraction(-3)}),
        ]
        prod = ring.multiply_element(xs[0], xs[1])
        lhs = face_projection(prod, square, edge, P)
        rhs = ring.multiply_element(
            face_projection(xs[0], square, edge, P),
            face_projection(xs[1], square, edge, P),
        )
        assert lhs == rhs


class TestPoincareSeries:
    def test_unit_ray(self):
        P = newton_polytope(validate_matrix([[1]]))
        assert str(poincare_series(ConeRing(P))) == "(1)/(1 - t)"

    def test_symmetric_interval(self):
        P = newton_polytope(validate_matrix([[-1, 1]]))
        series = poincare_series(ConeRing(P))
        assert series.taylor(5) == [1, 2, 2, 2, 2, 2]

    def test_gauss(self, gauss):
        _, P, _ = gauss
        series = poincare_series(ConeRing(P))
        assert series.taylor(4) == [(d + 1) ** 2 for d in range(5)]

    def test_taylor_matches_enumeration(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            ring = ConeRing(P)
            bound = 3 * P.gauge_denominator * P.n
            tay = poincare_series(ring).taylor(bound)
            assert tay == [
                len(ring.monomials_of_degree(d)) for d in range(bound + 1)
            ]

    def test_pole_orders(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert poincare_series(ConeRing(P)).pole_order_at_one() == P.n
            for face in P.origin_free_faces():
                ring = FaceRing(P, face)
                assert (
                    poincare_series(ring).pole_order_at_one() == face.dim + 1
                )

    def test_facial_series_match_enumeration(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            for face in P.origin_free_faces():
                ring = FaceRing(P, face)
                bound = 3 * P.gauge_denominator
                tay = poincare_series(ring).taylor(bound)
                assert tay == [
                    len(ring.monomials_of_degree(d)) for d in range(bound + 1)
                ]

    def test_free_ring(self):
        ring = FreeRing(2)
        assert poincare_series(ring).taylor(4) == [1, 2, 3, 4, 5]

    def test_triangulation_independence(self, polytopes):
        # Pulling from the lexicographically largest vertex instead of the
        # smallest gives a different simplicial decomposition but must
        # produce the identical rational function.
        from gkzrank.rings import (
            _cone_coordinates,
            _generic_point,
            _parallelepiped_points,
        )
        from gkzrank.series import PolyZ, RationalFunctionQ

        def pull_max(P, face):
            verts = face.vertices
            if len(verts) == face.dim + 1:
                return [verts]
            v0 = verts[-1]
            out = []
            for g in P.subfaces(face):
                if v0 not in g.vertices:
                    for s in pull_max(P, g):
                        out.append((v0,) + s)
            return out

        for name, (_, P, _) in polytopes.items():
            cones = []
            for face in sorted(P.index_set(P.n - 1), key=lambda f: f.id):
                cones.extend(pull_max(P, face))
            M = P.gauge_denominator
            z = _generic_point(cones)
            numerator = PolyZ()
            for gens in cones:
                zc = _cone_coordinates(gens, z)
                half_open = [c < 0 for c in zc]
                for p in _parallelepiped_points(gens, half_open):
                    numerator = numerator + PolyZ.monomial(P.graded_degree(p))
            den = (PolyZ([1]) - PolyZ.monomial(M)) ** P.n
            alt = RationalFunctionQ(numerator, den)
            assert alt == poincare_series(ConeRing(P))


class TestLogDerivativeClasses:
    def test_double_ray(self):
        P = newton_polytope(validate_matrix([[2]]))
        (g,) = log_derivative_classes([1], None, P)
        assert g == RingElement({(2,): Fraction(2)})

    def test_symmetric_interval(self):
        P = newton_polytope(validate_matrix([[-1, 1]]))
        (g,) = log_derivative_classes([1, 1], None, P)
        assert g == RingElement({(-1,): Fraction(-1), (1,): Fraction(1)})

    def test_gauss_square_components(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        gs = log_derivative_classes([1, 1, 1, 1], square, P)
        assert gs[1] == RingElement({(1, 1, 0): Fraction(1), (1, 1, 1): Fraction(1)})
        assert gs[2] == RingElement({(1, 0, 1): Fraction(1), (1, 1, 1): Fraction(1)})

    def test_interior_column_dropped(self):
        # Column (1,) sits strictly inside the hull of [[1,2]], so only the
        # boundary column contributes to the leading classes.
        P = newton_polytope(validate_matrix([[1, 2]]))
        (g,) = log_derivative_classes([1, 1], None, P)
        assert g == RingElement({(2,): Fraction(2)})

    def test_homogeneous_of_degree_m(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            ring = ConeRing(P)
            for g in log_derivative_classes(fiber, None, P):
                assert ring.is_homogeneous(g, P.gauge_denominator)
            for face in P.origin_free_faces():
                for g in log_derivative_classes(fiber, face, P):
                    assert ring.is_homogeneous(g, P.gauge_denominator)


class TestRingElementJson:
    def test_round_trip(self):
        x = RingElement(
            {(1, -2): Fraction(3, 7), (0, 5): Fraction(-2)}
        )
        data = ring_element_to_json(x)
        assert data == {"1,-2": "3/7", "0,5": "-2"}
        assert ring_element_from_json(data) == x


# -- the integer kernel against Fraction references ----------------------------


def _random_polytopes(seed, count):
    """Seeded small polytopes: n <= 3, n to n + 2 columns, entries in [-2, 2]."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.choice((1, 2, 2, 3, 3))
        cols = [
            [rnd.randint(-2, 2) for _ in range(n)]
            for _ in range(rnd.randint(n, n + 2))
        ]
        if any(not any(c) for c in cols):
            continue
        try:
            matrix = validate_matrix([list(r) for r in zip(*cols)])
        except RankDeficient:
            continue
        out.append(newton_polytope(matrix))
    return out


# The last one has a cone facet (z = 0) meeting two origin-free facets, so
# factors over its two edges share only the cone facet and multiply to 0.
KERNEL_POLYTOPES = _random_polytopes(7, 16) + [
    newton_polytope(validate_matrix([[2, 2, 0, 0], [0, 2, 2, 0], [0, 0, 0, 1]]))
]


def _ref_gauge(P, w):
    """Fraction gauge from the facet inequalities; None off the cone."""
    if any(
        sum(a * b for a, b in zip(f.normal, w)) > 0 for f in P.facets if f.level == 0
    ):
        return None
    return max(
        [Fraction(0)]
        + [
            Fraction(sum(a * b for a, b in zip(f.normal, w)), f.level)
            for f in P.facets
            if f.level > 0
        ]
    )


def _ref_box(P, r):
    """Every lattice point of the bounding box scaled by r, origin included."""
    ranges = [
        range(min(0, math.floor(lo * r)), max(0, math.ceil(hi * r)) + 1)
        for lo, hi in P.bounding_box()
    ]
    return list(itertools.product(*ranges))


def _ref_face_cone_contains(P, w, face):
    r = _ref_gauge(P, w)
    return r is not None and all(
        sum(a * b for a, b in zip(P.facets[i].normal, w)) == P.facets[i].level * r
        for i in face.active
    )


def _ref_parallelepiped_points(gens, half_open):
    """The solve-based routine: cone coordinates of every box point."""
    n = len(gens[0])
    lo = [sum(min(0, g[k]) for g in gens) for k in range(n)]
    hi = [sum(max(0, g[k]) for g in gens) for k in range(n)]
    out = []
    for w in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        coords = _cone_coordinates(gens, w)
        if coords is not None and all(
            (0 < c <= 1) if h else (0 <= c < 1) for c, h in zip(coords, half_open)
        ):
            out.append(w)
    return out


class TestIntegerKernel:
    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_slices_match_box_filter(self, index):
        P0 = KERNEL_POLYTOPES[index]
        P = newton_polytope(P0.matrix)  # a fresh table
        M = P.gauge_denominator
        box = _ref_box(P, 2)
        degrees = list(range(2 * M + 1))
        random.Random(index).shuffle(degrees)  # rebuilds in any order
        for d in degrees:
            expected = tuple(
                w for w in box
                if _ref_gauge(P, w) is not None and _ref_gauge(P, w) * M == d
            )
            assert ConeRing(P).monomials_of_degree(d) == expected
            for w in expected:
                assert P.graded_degree(w) == d
                assert P.gauge(w) == _ref_gauge(P, w)

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_face_cone_contains(self, index):
        P = KERNEL_POLYTOPES[index]
        M = P.gauge_denominator
        ConeRing(P).monomials_of_degree(M)  # table points and others
        for w in _ref_box(P, 2):
            r = _ref_gauge(P, w)
            if r is not None and r * M > 2 * M:
                continue
            for face in P.origin_free_faces():
                assert P.face_cone_contains(w, face) == _ref_face_cone_contains(
                    P, w, face
                )
        for face in P.origin_free_faces():
            ring = FaceRing(P, face)
            for d in range(2 * M + 1):
                assert ring.monomials_of_degree(d) == tuple(
                    w for w in ConeRing(P).monomials_of_degree(d)
                    if _ref_face_cone_contains(P, w, face)
                )

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_multiply_matches_gauge_additivity(self, index):
        P0 = KERNEL_POLYTOPES[index]
        M = P0.gauge_denominator
        pts = [w for d in range(M + 1) for w in ConeRing(P0).monomials_of_degree(d)]
        # Factors from the table and, on a fresh polytope, computed directly.
        for P in (P0, newton_polytope(P0.matrix)):
            ring = ConeRing(P)
            for w1 in pts:
                for w2 in pts:
                    s = tuple(a + b for a, b in zip(w1, w2))
                    adds = _ref_gauge(P, w1) + _ref_gauge(P, w2) == _ref_gauge(P, s)
                    assert ring.multiply_monomials(w1, w2) == (s if adds else None)

    def test_parallelepiped_points_match_solve(self):
        rnd = random.Random(3)
        seen = set()
        for P in KERNEL_POLYTOPES:
            for face in P.origin_free_faces():
                for gens in P.triangulate_face(face):
                    half_open = [rnd.random() < 0.5 for _ in gens]
                    assert _parallelepiped_points(
                        gens, half_open
                    ) == _ref_parallelepiped_points(gens, half_open)
                    seen.add((len(gens) == P.n, P.n))
        # Full-dimensional cones and face cones with k < n, in 2-D and 3-D.
        assert {(True, 2), (False, 2), (True, 3), (False, 3)} <= seen


def test_analyze_scans_the_box_logarithmically(monkeypatch):
    scans = []
    scan = NewtonPolytope.lattice_points_with_gauge_at_most

    def counted(self, bound):
        scans.append(bound)
        return scan(self, bound)

    monkeypatch.setattr(NewtonPolytope, "lattice_points_with_gauge_at_most", counted)
    spec = ProblemSpec.from_json(
        {"matrix": [[3, 0, -2], [0, 2, -3]], "fiber": ["1", "2", "3"]}
    )
    report = run_analyze(spec, with_timings=False)
    assert report.to_json()["rank_agreement"] is True
    assert len(scans) <= 12


def test_bench_trace_targets_are_class_attributes():
    # The benchmark's tracer replaces these on the class itself.
    assert "gauge" in vars(NewtonPolytope)
    assert "lattice_points_with_gauge_at_most" in vars(NewtonPolytope)
    assert "multiply_monomials" in vars(ConeRing)
