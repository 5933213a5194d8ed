import importlib
import itertools
import math
import random
import runpy
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from gkzrank import (
    ConeRing,
    FaceContainsOrigin,
    FreeRing,
    NotAFacePair,
    ProblemSpec,
    RingElement,
    face_projection,
    gr_multiply,
    log_derivative_classes,
    poincare_series,
    run_analyze,
    run_subcommand,
    sequence_image,
    validate_matrix,
)
from gkzrank.errors import RankDeficient
from gkzrank.homology import GradedKoszulComplex, wedge_terms
from gkzrank.lattice import (
    NewtonPolytope,
    _det,
    _gauss_jordan,
    _integer_inverse,
    _kernel_normal,
    _opens_below,
    _parallelepiped_points,
    rational_rank,
)
from gkzrank.linalg import RationalSpan, SparseRationalMatrix, rank, solve
from gkzrank.nondegeneracy import certify_face
from gkzrank.oracles import (
    PolyZ,
    _affine_basis,
    face_cone_contains,
    incidence_sign,
    sparse_columns,
    to_dense,
)
from gkzrank.rings import cone_numerator, leading_classes

from conftest import face_with_vertices, kouchnirenko_scan
from test_cli import GOLDEN_SPECS
from test_lattice import _face_lattice_draws


class TestGradedPiece:
    def test_double_ray(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        assert list(ConeRing(P).monomials_of_degree(3)) == [(3,)]

    def test_gauss_slice(self, gauss):
        _, P, _ = gauss
        assert list(ConeRing(P).monomials_of_degree(1)) == [
            (1, 0, 0),
            (1, 0, 1),
            (1, 1, 0),
            (1, 1, 1),
        ]

    def test_degree_zero_is_origin(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert list(ConeRing(P).monomials_of_degree(0)) == [(0,) * P.n]

    def test_negative_degree_empty(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            assert list(ConeRing(P).monomials_of_degree(-1)) == []


class TestGrMultiply:
    def test_unit_element(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            w = P.matrix.columns[0]
            assert gr_multiply((0,) * P.n, w, P) == w

    def test_opposite_rays_vanish(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
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
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = face_with_vertices(P, [(2,)])
        ring = ConeRing(P, face)
        assert [list(ring.monomials_of_degree(d)) for d in range(4)] == [
            [(0,)],
            [(1,)],
            [(2,)],
            [(3,)],
        ]

    def test_gauss_square_is_full_cone(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        ring = ConeRing(P, square)
        full = ConeRing(P)
        for d in range(4):
            assert ring.monomials_of_degree(d) == full.monomials_of_degree(d)

    def test_gauss_vertex_ray(self, gauss):
        _, P, _ = gauss
        vertex = face_with_vertices(P, [(1, 0, 0)])
        ring = ConeRing(P, vertex)
        for d in range(4):
            assert list(ring.monomials_of_degree(d)) == [(d, 0, 0)]

    def test_origin_face_rejected(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        origin_face = face_with_vertices(P, [(0,)])
        # Construction alone raises, before any slice is listed.
        with pytest.raises(FaceContainsOrigin, match=f"^{origin_face.id}$"):
            ConeRing(P, origin_face)


def _multiply_element(ring, x, y):
    """The product of two ring elements, term by term."""
    out = RingElement()
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = ring.multiply_monomials(w1, w2)
            if w is not None:
                out.add_term(w, c1 * c2)
    return out


class TestFaceProjection:
    def test_gauss_square_to_edge(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        edge = face_with_vertices(P, [(1, 0, 0), (1, 1, 0)])
        kept = face_projection(RingElement.monomial((2, 1, 0)), square, edge, P)
        killed = face_projection(RingElement.monomial((1, 0, 1)), square, edge, P)
        assert kept == RingElement.monomial((2, 1, 0))
        assert killed.is_zero()

    def test_not_a_face_pair(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        vertex = face_with_vertices(P, [(1, 0, 0)])
        with pytest.raises(NotAFacePair):
            face_projection(RingElement.monomial((1, 0, 0)), square, vertex, P)

    def test_multiplicative(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        ring = ConeRing(P, square)
        edge = face_with_vertices(P, [(1, 0, 0), (1, 1, 0)])
        xs = [
            RingElement({(1, 0, 0): Fraction(2), (1, 1, 0): Fraction(1)}),
            RingElement({(1, 0, 1): Fraction(1), (1, 1, 0): Fraction(-3)}),
        ]
        prod = _multiply_element(ring, xs[0], xs[1])
        lhs = face_projection(prod, square, edge, P)
        rhs = _multiply_element(
            ring,
            face_projection(xs[0], square, edge, P),
            face_projection(xs[1], square, edge, P),
        )
        assert lhs == rhs


class TestPoincareSeries:
    def test_unit_ray(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        assert str(poincare_series(ConeRing(P))) == "(1)/(1 - t)"

    def test_symmetric_interval(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
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
                ring = ConeRing(P, face)
                assert (
                    poincare_series(ring).pole_order_at_one() == face.dim + 1
                )

    def test_facial_series_match_enumeration(self, polytopes):
        for name, (_, P, _) in polytopes.items():
            for face in P.origin_free_faces():
                ring = ConeRing(P, face)
                bound = 3 * P.gauge_denominator
                tay = poincare_series(ring).taylor(bound)
                assert tay == [
                    len(ring.monomials_of_degree(d)) for d in range(bound + 1)
                ]

    def test_free_ring(self):
        ring = FreeRing(2)
        assert poincare_series(ring).taylor(4) == [1, 2, 3, 4, 5]

    def test_numerators_are_values(self, gauss):
        _, P, _ = gauss
        a, b = cone_numerator(P)[0], cone_numerator(NewtonPolytope(P.matrix))[0]
        assert a is not b and a == b and hash(a) == hash(b)
        same = PolyZ(a.coeffs)
        assert same == a and a == same and hash(same) == hash(a)
        assert len({a, b, same}) == 1
        assert a != PolyZ(a.coeffs + (1,)) and a != a.coeffs

    def test_triangulation_independence(self, polytopes, monkeypatch):
        # Pulling from the lexicographically largest vertex instead of the
        # smallest gives a different simplicial decomposition but must
        # produce the identical numerator, opened lexicographically or away
        # from the old generic point.
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
            facets = P.index_set(P.n - 1)
            expected = cone_numerator(P)
            cones = [
                s for f in sorted(facets, key=lambda f: f.id) for s in pull_max(P, f)
            ]
            assert _ref_numerator(P, cones) == expected[0]
            fresh = NewtonPolytope(P.matrix)  # its tiling is not built yet
            monkeypatch.setattr(
                fresh, "triangulate_face", lambda f, P=fresh: pull_max(P, f)
            )
            assert cone_numerator(fresh) == expected


class TestLogDerivativeClasses:
    def test_double_ray(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        (g,) = log_derivative_classes([1], None, P)
        assert g == RingElement({(2,): Fraction(2)})

    def test_symmetric_interval(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
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
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        (g,) = log_derivative_classes([1, 1], None, P)
        assert g == RingElement({(2,): Fraction(2)})

    def test_homogeneous_of_degree_m(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            ring = ConeRing(P)
            for g in log_derivative_classes(fiber, None, P):
                assert {ring.degree(w) for w in g.terms} <= {P.gauge_denominator}
            for face in P.origin_free_faces():
                for g in log_derivative_classes(fiber, face, P):
                    assert {ring.degree(w) for w in g.terms} <= {P.gauge_denominator}

    def test_columns_match_the_dot_product_selection(self, polytopes):
        # The reference picks the columns of gauge one for the full ring and
        # the columns on every active facet for a face, by dot products; a
        # positive fiber keeps repeated columns from cancelling.
        matrices = [matrix for matrix, _, _ in polytopes.values()]
        matrices += [
            validate_matrix(GOLDEN_SPECS[name]["matrix"]) for name in sorted(GOLDEN_SPECS)
        ]
        matrices += _face_lattice_draws(16, 120)
        off_vertex = 0
        for matrix in matrices:
            P = NewtonPolytope(matrix)
            rnd = random.Random(len(P.faces))
            fiber = [rnd.randint(1, 9) for _ in matrix.columns]

            def expected(chosen):
                weights = {}
                for j in chosen:
                    w = matrix.columns[j]
                    weights[w] = weights.get(w, 0) + fiber[j]
                return [
                    {w: Fraction(c * w[i]) for w, c in weights.items() if w[i]}
                    for i in range(P.n)
                ]

            gs = log_derivative_classes(fiber, None, P)
            assert [g.terms for g in gs] == expected(
                j for j, w in enumerate(matrix.columns) if _ref_gauge(P, w) == 1
            ), matrix.rows
            for face in P.origin_free_faces():
                chosen = [
                    j for j, w in enumerate(matrix.columns)
                    if all(
                        sum(a * b for a, b in zip(P.facets[i].normal, w))
                        == P.facets[i].level
                        for i in face.active
                    )
                ]
                gs = log_derivative_classes(fiber, face, P)
                assert [g.terms for g in gs] == expected(chosen), matrix.rows
                off_vertex += any(
                    matrix.columns[j] not in face.vertices for j in chosen
                )
        assert off_vertex


def _term_by_term_classes(fiber, P, face):
    """The leading classes accumulated one column at a time in
    ``Fraction``s, a coefficient that cancels dropped: the reference for
    ``leading_classes``."""
    classes = []
    for i in range(P.n):
        g = {}
        for w, c in zip(P.matrix.columns, fiber):
            if (_ref_gauge(P, w) == 1 if face is None else w in face.points):
                new = g.get(w, Fraction(0)) + Fraction(c) * w[i]
                if new:
                    g[w] = new
                else:
                    g.pop(w, None)
        classes.append(g)
    return classes


def _class_cases():
    """(name, rows, fiber): the golden specs, the seeded sweep draws with
    their degenerate ones, a repeated column off the gauge-one set, a
    repeated column whose terms cancel, and a fiber denominator 10^9 + 7."""
    for name, spec in sorted(GOLDEN_SPECS.items()):
        yield name, spec["matrix"], spec["fiber"]
    problems = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "bench" / "problems.py")
    )
    for seed in range(1, 6):
        for p in problems["sweep"](seed)[0]:
            yield f"sweep-{seed}-{p['id']}", p["spec"]["matrix"], p["spec"]["fiber"]
    yield "inner-repeat", [[1, 1, 2]], [1, -1, 1]
    yield "cancelling-repeat", [[2, 2, 1]], [1, -1, 1]
    p = 10**9 + 7
    yield "large-denominator", GOLDEN_SPECS["gauss"]["matrix"], [
        f"1/{p}", "2", f"-3/{p}", f"5/{3 * p}"
    ]


def test_integer_classes_over_their_scale_are_the_fraction_classes():
    # Every ring of every case: the full cone and each origin-free face.
    seen = {"rings": 0, "empty": 0, "scaled": 0}
    for name, rows, fiber in _class_cases():
        P = NewtonPolytope(validate_matrix(rows))
        fiber = [Fraction(c) for c in fiber]
        for face in [None, *P.origin_free_faces()]:
            classes, scale = leading_classes(ConeRing(P, face), fiber)
            assert type(scale) is int and scale > 0, (name, face)
            assert all(type(c) is int and c for g in classes for c in g.values())
            assert [
                {w: Fraction(c, scale) for w, c in g.items()} for g in classes
            ] == _term_by_term_classes(fiber, P, face), (name, face)
            seen["rings"] += 1
            seen["empty"] += not any(classes)
            seen["scaled"] += scale == 3 * 10**9 + 21
    assert seen["rings"] > 1000 and seen["empty"] and seen["scaled"], seen


# -- the integer kernel against Fraction references ----------------------------


def _random_polytopes(seed, count, bound=2):
    """Seeded small polytopes: n <= 3, n to n + 2 columns, entries in
    [-bound, bound]."""
    rnd = random.Random(seed)
    out = []
    while len(out) < count:
        n = rnd.choice((1, 2, 2, 3, 3))
        cols = [
            [rnd.randint(-bound, bound) for _ in range(n)]
            for _ in range(rnd.randint(n, n + 2))
        ]
        if any(not any(c) for c in cols):
            continue
        try:
            matrix = validate_matrix([list(r) for r in zip(*cols)])
        except RankDeficient:
            continue
        out.append(NewtonPolytope(matrix))
    return out


# The last one has a cone facet (z = 0) meeting two origin-free facets, so
# factors over its two edges share only the cone facet and multiply to 0.
KERNEL_POLYTOPES = _random_polytopes(7, 16) + [
    NewtonPolytope(validate_matrix([[2, 2, 0, 0], [0, 2, 2, 0], [0, 0, 0, 1]]))
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


def _ref_cone_coordinates(gens, point):
    """Coordinates of a point in the linear span of the generators, or None."""
    n = len(gens[0])
    m = SparseRationalMatrix(n, len(gens))
    for j, g in enumerate(gens):
        for i, c in enumerate(g):
            m.set(i, j, c)
    return solve(m, {i: c for i, c in enumerate(point)})


def _ref_generic_point(cones):
    """The old search: a rational point interior to the first cone, off every wall."""
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
            coords = _ref_cone_coordinates(gens, z)
            if coords is None or any(c == 0 for c in coords):
                ok = False
                break
        if ok:
            return z
    raise AssertionError("no generic interior point found")


def _ref_cones(P, faces):
    return [s for f in sorted(faces, key=lambda f: f.id) for s in P.triangulate_face(f)]


def _ref_numerator(P, cones):
    """The old numerator: pieces opened away from the searched generic point."""
    z = _ref_generic_point(cones)
    numerator = PolyZ()
    for gens in cones:
        half_open = [c < 0 for c in _ref_cone_coordinates(gens, z)]
        for p in _parallelepiped_points(gens, _integer_inverse(gens), half_open):
            numerator = numerator + PolyZ.monomial(P.graded_degree(p))
    return numerator


def _ref_parallelepiped_points(gens, half_open):
    """The solve-based routine: cone coordinates of every box point."""
    n = len(gens[0])
    lo = [sum(min(0, g[k]) for g in gens) for k in range(n)]
    hi = [sum(max(0, g[k]) for g in gens) for k in range(n)]
    out = []
    for w in itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        coords = _ref_cone_coordinates(gens, w)
        if coords is not None and all(
            (0 < c <= 1) if h else (0 <= c < 1) for c, h in zip(coords, half_open)
        ):
            out.append(w)
    return out


class TestIntegerKernel:
    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_slices_match_box_filter(self, index):
        P0 = KERNEL_POLYTOPES[index]
        P = NewtonPolytope(P0.matrix)  # no slice listed yet
        M = P.gauge_denominator
        box = _ref_box(P, 2)
        degrees = list(range(2 * M + 1))
        random.Random(index).shuffle(degrees)  # lists the slices in any order
        for d in degrees:
            expected = tuple(
                w for w in box
                if _ref_gauge(P, w) is not None and _ref_gauge(P, w) * M == d
            )
            assert ConeRing(P).monomials_of_degree(d) == expected
            for w in expected:
                assert P.graded_degree(w) == d
                assert P.gauge(w) == _ref_gauge(P, w)
        # The slices are keyed by (cone, degree), here the full cone's only,
        # and every listed point reads the degree recorded for it, which is
        # the facet maximum.
        slices, degree = P._slices, P._degree
        assert set(slices) == {(P._cone(None), d) for d in degrees}
        assert sorted(degree) == sorted(w for ws in slices.values() for w in ws)
        for w, d in degree.items():
            assert P.graded_degree(w) == d == _ref_gauge(P, w) * M

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_face_cone_contains(self, index):
        P = KERNEL_POLYTOPES[index]
        M = P.gauge_denominator
        ConeRing(P).monomials_of_degree(M)  # listed points and others
        for w in _ref_box(P, 2):
            r = _ref_gauge(P, w)
            if r is not None and r * M > 2 * M:
                continue
            for face in P.origin_free_faces():
                assert face_cone_contains(P, w, face) == _ref_face_cone_contains(
                    P, w, face
                )
        for face in P.origin_free_faces():
            ring = ConeRing(P, face)
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
        # Factors listed and, on a fresh polytope, computed directly.
        for P in (P0, NewtonPolytope(P0.matrix)):
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
                        gens, _integer_inverse(gens), half_open
                    ) == _ref_parallelepiped_points(gens, half_open)
                    seen.add((len(gens) == P.n, P.n))
        # Full-dimensional cones and face cones with k < n, in 2-D and 3-D.
        assert {(True, 2), (False, 2), (True, 3), (False, 3)} <= seen

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_cone_numerator_matches_generic_point(self, index):
        P = KERNEL_POLYTOPES[index]
        facets = P.index_set(P.n - 1)
        top, k = cone_numerator(P)
        assert k == P.n
        assert top == _ref_numerator(P, _ref_cones(P, facets))
        assert sum(top.coeffs) == P.normalized_volume  # the numerator at t = 1
        for face in P.origin_free_faces():
            numerator, k = cone_numerator(P, face)
            assert k == face.dim + 1
            assert numerator == _ref_numerator(P, _ref_cones(P, [face]))

    def test_kernel_polytopes_include_nonunit_gauge(self):
        assert {P.gauge_denominator > 1 for P in KERNEL_POLYTOPES} == {True, False}

    def test_perturbation_on_a_wall_raises(self):
        # A zero adjugate row would put z(eps) on a wall for every eps.
        with pytest.raises(AssertionError):
            _opens_below([0, 0], [(1, 0), (0, 1)])

    def test_analyze_runs_no_polynomial_gcd(self, monkeypatch):
        # The numerators are read from the decomposition, so reducing a
        # rational function (Euclid over Q) is never needed on this path.
        def forbidden(*args):
            raise AssertionError("polynomial gcd on the analyze path")

        monkeypatch.setattr("gkzrank.oracles._poly_gcd_z", forbidden)
        spec = ProblemSpec.from_json(
            {"matrix": [[3, 0, -2], [0, 2, -3]], "fiber": ["1", "2", "3"]}
        )
        report = run_analyze(spec).to_json()
        assert report["polytope"]["gauge_denominator"] == 36


# -- the slice primitive against the per-label loops it replaced ---------------


def _ref_koszul(ring, sequence, step, D):
    """The per-label Koszul builder: g_i * t^w formed once per wedge set."""
    m = len(sequence)
    slices = {d: ring.monomials_of_degree(d) for d in range(D + 1)}
    bases, diffs = {}, {}
    for q in range(m + 1):
        for d in range(D + 1):
            labels = [
                (I, w) for I in itertools.combinations(range(m), q) for w in slices[d]
            ]
            if labels:
                bases[(q, d)] = labels
    for q in range(m):
        for d in range(D + 1 - step):
            src = bases.get((q, d), [])
            dst = bases.get((q + 1, d + step), [])
            if not src or not dst:
                continue
            index = {lbl: i for i, lbl in enumerate(dst)}
            mat = SparseRationalMatrix(len(dst), len(src))
            for col, (I, w) in enumerate(src):
                for i, sign, J in wedge_terms(I, m):
                    for u, coeff in sequence[i].terms.items():
                        prod = ring.multiply_monomials(u, w)
                        if prod is not None:
                            row = index[(J, prod)]
                            old = mat.entries.get((row, col), 0)
                            mat.set(row, col, old + sign * coeff)
            diffs[(q, d)] = mat
    return bases, diffs


def _ref_greedy_basis(ring, sequence, M, top):
    """The greedy Kouchnirenko basis, re-multiplying every slice product."""
    basis = []
    for d in range(top + 1):
        mono = ring.monomials_of_degree(d)
        index = {w: i for i, w in enumerate(mono)}
        span = RationalSpan(len(mono))
        for prev in ring.monomials_of_degree(d - M):
            for g in sequence:
                vec = {}
                for u, c in g.terms.items():
                    prod = ring.multiply_monomials(u, prev)
                    if prod is not None:
                        vec[index[prod]] = vec.get(index[prod], Fraction(0)) + c
                span.add(vec)
        for i, w in enumerate(mono):
            if span.add({i: Fraction(1)}):
                basis.append(w)
    return basis


def _ref_face_quotient_dims(ring, gs, bound):
    """The face quotient loop: one row per (monomial, class) product."""
    M = ring.polytope.gauge_denominator
    dims = []
    for d in range(bound + 1):
        mono = ring.monomials_of_degree(d)
        index = {w: i for i, w in enumerate(mono)}
        entries = {}
        row = 0
        for prev in ring.monomials_of_degree(d - M):
            for g in gs:
                for u, c in g.items():
                    i = index[ring.multiply_monomials(u, prev)]
                    entries[(row, i)] = entries.get((row, i), 0) + c
                row += 1
        taken = rank(SparseRationalMatrix(row, len(mono), entries)) if entries else 0
        dims.append(len(mono) - taken)
    return tuple(dims)


def _seeded_fiber(P, seed):
    rnd = random.Random(seed)
    return [rnd.choice((-3, -2, -1, 1, 2, 3, 5)) for _ in range(P.matrix.num_columns)]


def _koszul_cases(index):
    """(ring, sequence) pairs on one seeded polytope: the cone ring, every
    facial ring and a free ring with as many variables."""
    P = KERNEL_POLYTOPES[index]
    fiber = _seeded_fiber(P, index)
    yield ConeRing(P), log_derivative_classes(fiber, None, P)
    for face in P.origin_free_faces():
        yield ConeRing(P, face), log_derivative_classes(fiber, face, P)
    free = FreeRing(P.n)
    rnd = random.Random(index)
    yield free, [
        RingElement({w: Fraction(rnd.randint(-2, 2)) for w in free.monomials_of_degree(1)})
        for _ in range(P.n)
    ]


class TestSequenceImage:
    def test_layout(self):
        # Rows follow the slice; the columns go class by class, column
        # i * |R_1| + a holding g_i * t^w for w the a-th monomial of degree 1.
        ring = FreeRing(2)
        x, y = ring.variable(0), ring.variable(1)
        image = sequence_image(ring, [x.terms, y.scale(3).terms], 1, 2)
        assert ring.monomials_of_degree(2) == ((0, 2), (1, 1), (2, 0))
        assert ring.monomials_of_degree(1) == ((0, 1), (1, 0))
        assert (image.rows, image.cols) == (3, 4)
        assert to_dense(image) == [[0, 0, 3, 0], [1, 0, 0, 3], [0, 1, 0, 0]]

    def test_vanishing_products_are_dropped(self):
        # Two edges of the last polytope meet only on a cone facet, so some
        # products of degree-M monomials vanish.
        P = KERNEL_POLYTOPES[-1]
        ring = ConeRing(P)
        M = P.gauge_denominator
        slice_ = ring.monomials_of_degree(M)
        g = {u: k + 1 for k, u in enumerate(slice_)}
        image = sequence_image(ring, [g], M, 2 * M)
        index = {w: r for r, w in enumerate(ring.monomials_of_degree(2 * M))}
        dropped = 0
        for column, w in zip(sparse_columns(image), slice_):
            expected = {}
            for u, c in g.items():
                prod = ring.multiply_monomials(u, w)
                if prod is None:
                    dropped += 1
                else:
                    expected[index[prod]] = c
            assert column == expected
        assert dropped

    def test_each_product_is_formed_once(self, monkeypatch):
        # Classes sharing a support monomial share its product t^u * t^w.
        P = KERNEL_POLYTOPES[-1]
        ring = ConeRing(P)
        M = P.gauge_denominator
        gs, _ = leading_classes(ring, _seeded_fiber(P, 0))
        support = {u for g in gs for u in g}
        assert len(gs) > 1 and sum(len(g) for g in gs) > len(support)
        calls = []
        multiply = ConeRing.multiply_monomials

        def counted(self, u, w):
            calls.append((u, w))
            return multiply(self, u, w)

        monkeypatch.setattr(ConeRing, "multiply_monomials", counted)
        sequence_image(ring, gs, M, 2 * M)
        assert len(calls) == len(set(calls)) == len(support) * len(
            ring.monomials_of_degree(M)
        )

    def test_product_leaving_the_slice_raises(self):
        ring = FreeRing(2)
        with pytest.raises(AssertionError):
            sequence_image(ring, [ring.variable(0).terms], 2, 3)

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_koszul_maps_match_per_label_builder(self, index):
        M = KERNEL_POLYTOPES[index].gauge_denominator
        for ring, sequence in _koszul_cases(index):
            step = M if not isinstance(ring, FreeRing) else 1
            cx = GradedKoszulComplex(ring, sequence, 2 * step + 1)
            bases, diffs = _ref_koszul(ring, sequence, cx.step, cx.truncation)
            assert cx.step == step
            assert cx.bases == bases
            assert {k: (m.rows, m.cols, m.entries) for k, m in cx.diffs.items()} == {
                k: (m.rows, m.cols, m.entries) for k, m in diffs.items()
            }

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_kouchnirenko_basis_matches_greedy_loop(self, index):
        P = KERNEL_POLYTOPES[index]
        fiber = _seeded_fiber(P, index)
        result = kouchnirenko_scan(P, fiber)
        sequence = log_derivative_classes(fiber, None, P)
        assert result.monomial_basis == _ref_greedy_basis(
            ConeRing(P), sequence, P.gauge_denominator, result.expected_polynomial.degree
        )

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_face_quotient_dims_match_row_loop(self, index):
        P = KERNEL_POLYTOPES[index]
        _check_face_quotient_dims(P, _seeded_fiber(P, index))

    def test_face_quotient_dims_match_row_loop_on_the_workloads(self):
        # The golden specs and the sweep draws of seeds 1-5, degenerate
        # ones included.
        seen = {"chosen": 0, "none": 0}
        for _, rows, fiber in _class_cases():
            P = NewtonPolytope(validate_matrix(rows))
            for chosen in _check_face_quotient_dims(P, [Fraction(c) for c in fiber]):
                seen["chosen" if chosen else "none"] += 1
        assert seen["chosen"] > 1000 and seen["none"] >= 1, seen


def _check_face_quotient_dims(P, fiber):
    """Check each origin-free face's certificate against the row loop, by all
    the classes and by its spanning subset (none: no dims), over its window,
    and return the spanning subsets, one per face."""
    spans = []
    for face in P.origin_free_faces():
        cert = certify_face(fiber, face, P)
        ring = ConeRing(P, face)
        gs, _ = leading_classes(ring, fiber)
        chosen = [gs[i - 1] for i in cert.spanning_indices]
        if chosen:
            want = _ref_face_quotient_dims(ring, gs, cert.bound_used)
            assert cert.quotient_dims == want, face.id
            assert _ref_face_quotient_dims(ring, chosen, cert.bound_used) == want
        else:
            assert cert.quotient_dims == (), face.id
        spans.append(cert.spanning_indices)
    return spans


# -- integer determinants against the Fraction routines they replaced ----------


def _fraction_det(rows):
    """Exact determinant by Fraction elimination."""
    n = len(rows)
    a = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def _ref_kernel_normal(points, n):
    """The solve-based normal: rank test, then one probe solve per axis."""
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points[1:]]
    span = RationalSpan(n)
    for d in diffs:
        span.add({j: Fraction(c) for j, c in enumerate(d) if c != 0})
    if span.rank != n - 1:
        return None
    m = SparseRationalMatrix(len(diffs) + 1, n)
    for i, d in enumerate(diffs):
        for j, c in enumerate(d):
            m.set(i, j, c)
    for j in range(n):
        probe = SparseRationalMatrix(m.rows, m.cols, m.entries)
        probe.set(len(diffs), j, 1)
        x = solve(probe, {len(diffs): 1})
        if x is not None:
            scale = math.lcm(*(c.denominator for c in x))
            ints = tuple(int(c * scale) for c in x)
            if any(ints):
                g = math.gcd(*ints)
                return tuple(c // g for c in ints)
    return None


def _ref_incidence_sign(P, face, sub):
    """Sign of the Fraction determinant of the subface frame in face coordinates."""
    p = face.dim
    bary = [
        [Fraction(sum(v[k] for v in f.vertices), len(f.vertices)) for k in range(P.n)]
        for f in (face, sub)
    ]
    outward = [a - b for a, b in zip(bary[1], bary[0])]
    mat = SparseRationalMatrix(P.n, p)
    for j, b in enumerate(_affine_basis(face.vertices)):
        for i, c in enumerate(b):
            mat.set(i, j, c)
    coords = [
        solve(mat, col)
        for col in [outward] + [list(map(Fraction, b)) for b in _affine_basis(sub.vertices)]
    ]
    det = _fraction_det([[coords[j][i] for j in range(p)] for i in range(p)])
    return 1 if det > 0 else -1


def _seeded_matrices():
    """Square integer matrices: 0 x 0 to 6 x 6, entries up to 10^6, some made
    singular by a repeated combination, some with a zero leading column
    entry so elimination must swap rows."""
    rnd = random.Random(11)
    out = [[], [[0]], [[7]], [[-10**6]], [[0, 1], [1, 0]], [[0, 0], [0, 5]]]
    for _ in range(120):
        n = rnd.randint(1, 6)
        bound = rnd.choice((3, 100, 10**6))
        a = [[rnd.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        kind = rnd.random()
        if n > 1 and kind < 0.3:
            # One row becomes a combination of two others (or a multiple).
            k = rnd.randint(-3, 3)
            a[0] = [k * y + (z if n > 2 else 0) for y, z in zip(a[1], a[-1])]
            rnd.shuffle(a)
        elif n > 1 and kind < 0.6:
            a[0][0] = 0
            if rnd.random() < 0.5:
                a[1][0] = 0
        out.append(a)
    return out


def _rectangular_matrices():
    """(rows, width) pairs: 1 to 6 rows pivoted on 1 to 6 columns with up to
    3 more columns carried along, some rank deficient (a row combined from
    two others, or a zero column among the first ``width``), some with a
    zero leading entry so elimination must swap rows."""
    rnd = random.Random(12)
    out = [([[0, 0, 1], [0, 0, 2]], 2), ([[0, 3], [0, 0], [2, 1]], 2)]
    for _ in range(150):
        m, width, extra = rnd.randint(1, 6), rnd.randint(1, 6), rnd.randint(0, 3)
        bound = rnd.choice((2, 100, 10**6))
        a = [[rnd.randint(-bound, bound) for _ in range(width + extra)]
             for _ in range(m)]
        kind = rnd.random()
        if m > 2 and kind < 0.3:
            a[0] = [2 * y - z for y, z in zip(a[1], a[-1])]
            rnd.shuffle(a)
        elif kind < 0.5:
            c = rnd.randrange(width)
            for row in a:
                row[c] = 0
        elif m > 1 and kind < 0.7:
            a[0][0] = 0
        out.append((a, width))
    return out


def _ref_pivot_order(rows, width):
    """The input row at each place after the elimination, and the pivot
    columns, from Fraction elimination with the same swaps: the pivot of a
    column is the first row at or past the pivots found that is nonzero
    there (the fraction-free rows past the pivots are these rows times the
    last pivot minor, so they are zero in the same places)."""
    a = [[Fraction(c) for c in row] for row in rows]
    order, pivots = list(range(len(rows))), []
    for c in range(width):
        k = len(pivots)
        r = next((r for r in range(k, len(a)) if a[r][c]), None)
        if r is None:
            continue
        a[k], a[r] = a[r], a[k]
        order[k], order[r] = order[r], order[k]
        for row in a[k + 1:]:
            f = row[c] / a[k][c]
            row[:] = [x - f * y for x, y in zip(row, a[k])]
        pivots.append(c)
    return order, pivots


def _parity(order):
    """The sign of a permutation: -1 to the number of its inversions."""
    pairs = itertools.combinations(order, 2)
    return (-1) ** sum(i > j for i, j in pairs)


class TestGaussJordan:
    def test_pivot_rows_hold_the_pivot_minor(self):
        cases = [(a, len(a)) for a in _seeded_matrices()] + _rectangular_matrices()
        kinds = {"deficient": 0, "odd swaps": 0, "carried": 0}
        for a, width in cases:
            copy = [row[:] for row in a]
            rows, pivots, d, sign = _gauss_jordan(a, width)
            assert a == copy  # the input is left as it was
            order, want = _ref_pivot_order(a, width)
            assert pivots == want
            assert len(rows) == len(a)
            assert all(type(x) is int for row in rows for x in row)
            for i, c in enumerate(pivots):
                assert [rows[i][j] for j in pivots] == [d * (j == c) for j in pivots]
            for row in rows[len(pivots):]:
                assert not any(row[:width])
            minor = [[a[r][c] for c in pivots] for r in order[:len(pivots)]]
            assert d == _fraction_det(minor)
            assert sign == _parity(order)
            kinds["deficient"] += len(pivots) < min(len(a), width)
            kinds["odd swaps"] += sign < 0 and d not in (0, 1, -1)
            kinds["carried"] += bool(a) and len(a[0]) > width
        assert _gauss_jordan([], 0) == ([], [], 1, 1)
        assert min(kinds.values()) >= 10, kinds

    def test_integer_inverse_reads_coordinates_and_span(self):
        # X maps each generator to D times its unit vector, and Z vanishes
        # exactly on the generators' span.
        def dot(u, v):
            return sum(x * y for x, y in zip(u, v))

        seen = set()
        for P in KERNEL_POLYTOPES:
            for face in P.origin_free_faces():
                for gens in P.triangulate_face(face):
                    D, X, Z = _integer_inverse(gens)
                    assert D > 0 and len(X) == len(gens) == P.n - len(Z)
                    for j, g in enumerate(gens):
                        unit = [D * (i == j) for i in range(len(X))]
                        assert [dot(x, g) for x in X] == unit
                        assert not any(dot(z, g) for z in Z)
                    assert not Z or rational_rank(Z) == len(Z)
                    seen.add(bool(Z))
        assert seen == {True, False}  # face cones with k < n, and full ones


class TestIntegerDeterminant:
    def test_det_matches_fraction_reference(self):
        matrices = _seeded_matrices()
        kinds = {"zero": 0, "swap": 0}
        for a in matrices:
            det = _det(a)
            assert type(det) is int
            assert det == _fraction_det(a)
            kinds["zero"] += det == 0
            kinds["swap"] += bool(a) and a[0][0] == 0 and det != 0
        assert _det([]) == 1
        assert kinds["zero"] >= 10 and kinds["swap"] >= 10

    def test_det_does_not_touch_its_input(self):
        a = [[0, 2, 1], [3, 1, 4], [1, 5, 9]]
        copy = [row[:] for row in a]
        assert _det(a) == _fraction_det(copy)
        assert a == copy

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_kernel_normal_matches_solve_routine(self, index):
        # The same line, up to orientation, which the facet search fixes.
        # Doubled points make dependent sets such as (0, p, 2p) in 3-D.
        P = KERNEL_POLYTOPES[index]
        points = P.points + [tuple(2 * c for c in p) for p in P.points if any(p)]
        dependent = 0
        for combo in itertools.combinations(points, P.n):
            new, old = _kernel_normal(combo, P.n), _ref_kernel_normal(combo, P.n)
            if old is None:
                dependent += 1
                assert new is None
            else:
                assert new in (old, tuple(-c for c in old))
        assert dependent or P.n < 3

    def test_kernel_normal_of_dependent_points_is_none(self):
        for points in (
            ((0, 0), (0, 0)),
            ((0, 0, 0), (1, 1, 1), (2, 2, 2)),
            ((1, 0, 0), (2, 1, 0), (3, 2, 0)),
        ):
            assert _ref_kernel_normal(points, len(points)) is None
            assert _kernel_normal(points, len(points)) is None

    @pytest.mark.parametrize("index", range(len(KERNEL_POLYTOPES)))
    def test_incidence_sign_matches_fraction_routine(self, index):
        P = NewtonPolytope(KERNEL_POLYTOPES[index].matrix)
        pairs = 0
        for face in P.faces:
            for sub in P.subfaces(face):
                pairs += 1
                assert incidence_sign(P, face, sub) == _ref_incidence_sign(P, face, sub)
        assert pairs or P.n == 1


def _ref_gauge_denominator(P):
    """The scan that fixed M before it was read off the facets: the lcm L of
    the positive levels, reduced by the gcd of L times every gauge up to n."""
    L = math.lcm(*(f.level for f in P.facets if f.level > 0))
    g = 0
    for w in P.lattice_points_with_gauge_at_most(P.n):
        g = math.gcd(g, int(L * _ref_gauge(P, w)))
    return L // math.gcd(L, g) if g else L


class TestGaugeDenominatorByConstruction:
    def test_lcm_of_levels_matches_box_scan(self):
        polytopes = KERNEL_POLYTOPES + _random_polytopes(13, 200, bound=3)
        for P in polytopes:
            assert P.gauge_denominator == _ref_gauge_denominator(P)
        # Several distinct values, some from two or more distinct levels.
        assert len({P.gauge_denominator for P in polytopes}) >= 4
        assert any(
            len({f.level for f in P.facets if f.level > 0}) > 1 for P in polytopes
        )

    def test_polytope_and_volume_enumerate_no_points(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("lattice points enumerated")

        monkeypatch.setattr(NewtonPolytope, "points_of_degree", refuse)
        monkeypatch.setattr(NewtonPolytope, "cone_pieces", refuse)
        rows = [[1, -2, 1, 0], [2, 1, -2, 0], [2, 1, 0, -2]]
        assert NewtonPolytope(validate_matrix(rows)).gauge_denominator == 60
        spec = ProblemSpec.from_json({"matrix": rows, "fiber": ["6", "7", "11", "19"]})
        assert run_subcommand("volume", spec) == {"normalized_volume": 34}


def test_analyze_lists_each_slice_once_within_its_windows(monkeypatch):
    # One polytope per run tiles each cone once (the full cone and the cone
    # over each face avoiding the origin) and lists each slice of each cone
    # once, none past the largest face window or, for a nondegenerate fiber,
    # the truncation; no tight set is computed and no box of lattice points
    # is scanned.
    slices, tilings = {}, []
    points_of_degree, tile = NewtonPolytope.points_of_degree, NewtonPolytope._tile

    def recorded(self, d, face=None):
        points = points_of_degree(self, d, face)
        if d >= 0:
            assert slices.setdefault((self, face, d), points) is points, (face, d)
        return points

    def tiled(self, faces):
        tilings.append((self, tuple(f.id for f in faces)))
        return tile(self, faces)

    def refuse(self, *args):
        raise AssertionError("lattice points scanned or a tight set computed")

    assert not hasattr(NewtonPolytope, "_gauge_and_tight")
    assert not hasattr(NewtonPolytope, "tight_facets")
    monkeypatch.setattr(NewtonPolytope, "points_of_degree", recorded)
    monkeypatch.setattr(NewtonPolytope, "_tile", tiled)
    monkeypatch.setattr(NewtonPolytope, "lattice_points_with_gauge_at_most", refuse)
    problems = runpy.run_path(
        str(Path(__file__).resolve().parents[1] / "bench" / "problems.py")
    )
    specs = dict(GOLDEN_SPECS)
    specs.update((p["id"], p["spec"]) for p in problems["cohomology"]())
    for name, spec in specs.items():
        slices.clear()
        tilings.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_analyze(ProblemSpec.from_json(spec), with_timings=False)
        body = report.to_json()
        assert body.get("rank_agreement", True) is True, name
        windows = [f["bound_used"] for f in body["nondegeneracy"]["faces"]]
        if body["koszul"] is not None:
            windows.append(body["koszul"]["truncation"])
        assert len({P for P, _, _ in slices}) == 1, name
        assert max(d for _, _, d in slices) <= max(windows), name
        assert len(tilings) == len(set(tilings)), name
        # A full cone over one face is listed once, as that face's cone.
        listed = {}
        for (P, face, d), points in slices.items():
            assert listed.setdefault((P._cone(face), d), points) is points, name
        if name == "octahedron":
            assert {d for _, face, d in slices if face is None} == set(range(5))
            assert len(tilings) == len(P.origin_free_faces()) + 1
    assert {"gauss-degenerate", "octahedron"} <= set(specs)


def test_bench_trace_targets_are_class_attributes():
    # The benchmark's tracer replaces each target by name: a function on its
    # module, a method on the class that defines it.
    path = Path(__file__).resolve().parents[1] / "bench" / "trace_child.py"
    targets = runpy.run_path(str(path), run_name="trace_child")["TARGETS"]
    assert targets
    for _, modname, attr, _ in targets:
        owner = importlib.import_module(modname)
        owner_name, _, name = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name)
        assert callable(vars(owner).get(name)), f"{modname}.{attr}"
