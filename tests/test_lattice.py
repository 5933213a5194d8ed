import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from gkzrank import (
    NewtonPolytope,
    NotInCone,
    RankDeficient,
    ShapeMismatch,
    exponent_cone,
    normalize_gamma,
    validate_matrix,
)
from gkzrank.lattice import rational_rank


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
                    assert f.value(point) <= f.level
            for f in P.facets:
                on = [v for v in P.vertices if f.value(v) == f.level]
                assert len(on) >= P.n
                diffs = [tuple(a - b for a, b in zip(v, on[0])) for v in on[1:]]
                assert rational_rank(diffs) == P.n - 1 or P.n == 1


class TestExponentCone:
    def test_single_ray(self):
        cone = exponent_cone(validate_matrix([[2]]))
        assert cone.inequalities == ((1,),)
        assert cone.contains((3,)) and not cone.contains((-1,))

    def test_full_line(self):
        cone = exponent_cone(validate_matrix([[-1, 1]]))
        assert cone.is_full_space
        assert cone.contains((-7,))

    def test_gauss_cone(self, gauss):
        matrix, P, _ = gauss
        cone = exponent_cone(matrix, P)
        # 0 <= w2 <= w1 and 0 <= w3 <= w1
        inside = [(1, 0, 0), (2, 1, 2), (5, 5, 0), (0, 0, 0)]
        outside = [(1, 2, 0), (0, 1, 0), (1, 0, -1), (-1, 0, 0)]
        for w in inside:
            assert cone.contains(w)
        for w in outside:
            assert not cone.contains(w)

    def test_generators_inside(self, polytopes):
        for name, (matrix, P, _) in polytopes.items():
            cone = exponent_cone(matrix, P)
            for w in cone.generators:
                assert cone.contains(w)


class TestGauge:
    def test_interval_midpoint(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert P.gauge((1,)) == Fraction(1, 2)

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

    @pytest.mark.parametrize("w", [(1,), (1, 2, 3)])
    def test_wrong_length_point_is_rejected(self, w):
        P = NewtonPolytope(validate_matrix([[1] * 5, [0, 1, 2, 3, 4]]))
        for member in (P.gauge, P.graded_degree, P.tight_facets, P.cone_contains):
            with pytest.raises(ShapeMismatch, match="expected 2"):
                member(w)


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
            pyramids = P.boundary_pyramid_volumes()
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
        matrix, P, _ = gauss
        cone = exponent_cone(matrix, P)
        assert normalize_gamma([0, 0, 0], cone) == (0, 0, 0)

    def test_integer_shift(self):
        cone = exponent_cone(validate_matrix([[3]]))
        assert normalize_gamma([3], cone) == (0,)

    def test_full_line_untouched(self):
        cone = exponent_cone(validate_matrix([[-1, 1]]))
        assert normalize_gamma([Fraction(5, 2)], cone) == (Fraction(5, 2),)

    def test_output_contract(self, polytopes):
        for name, (matrix, P, _) in polytopes.items():
            cone = exponent_cone(matrix, P)
            gamma = [Fraction(5, 3)] * P.n
            out = normalize_gamma(gamma, cone)
            for g, o in zip(gamma, out):
                assert (g - o).denominator == 1
            for m in cone.inequalities:
                assert sum(a * b for a, b in zip(m, out)) <= 0

    def test_roadmap_cone_is_searched_in_integers(self):
        # Shifting (1/2, 1/2, 1/2) into this cone needs offset radius 31;
        # the old cube search took about 10 s here.
        cone = exponent_cone(validate_matrix([[30] * 4, [1, -1, 0, 0], [0, 0, 1, -1]]))
        start = time.perf_counter()
        out = normalize_gamma([Fraction(1, 2)] * 3, cone)
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


def _ref_cube_search(gamma, cone):
    """The first feasible shift from round(gamma) on cubes of growing radius."""
    gamma = tuple(Fraction(g) for g in gamma)

    def inside(v):
        return all(sum(a * b for a, b in zip(m, v)) <= 0 for m in cone.inequalities)

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


class TestEnumerationsMatchReferences:
    BOUNDS = (0, Fraction(1, 3), 1, Fraction(5, 2), 3)

    def test_points_match_the_box_scan(self):
        matrices = _random_matrices(11, 90, (1, 2, 3)) + _random_matrices(
            12, 12, (4,), bound=1
        )
        for matrix in matrices:
            P = NewtonPolytope(matrix)
            for bound in self.BOUNDS:
                assert P.lattice_points_with_gauge_at_most(bound) == (
                    _ref_points_in_box(P, bound)
                ), (matrix.rows, bound)
        assert {m.n for m in matrices} == {1, 2, 3, 4}

    def test_representative_matches_the_cube_search(self):
        rnd = random.Random(13)
        inside = 0
        for matrix in _random_matrices(14, 60, (1, 2, 3)):
            cone = exponent_cone(matrix)
            for _ in range(6):
                gamma = [Fraction(rnd.randint(-12, 12), rnd.randint(1, 4))
                         for _ in range(matrix.n)]
                expected = _ref_cube_search(gamma, cone)
                inside += expected == tuple(gamma)
                assert normalize_gamma(gamma, cone) == expected, (matrix.rows, gamma)
            # A point of the negated cone is returned as it is.
            weights = [Fraction(rnd.randint(0, 3), rnd.randint(1, 3))
                       for _ in cone.generators]
            gamma = [-sum(a * c[i] for a, c in zip(weights, cone.generators))
                     for i in range(matrix.n)]
            assert normalize_gamma(gamma, cone) == tuple(gamma)
        assert inside
