from fractions import Fraction

import pytest

from gkzrank import (
    CochainComplexQ,
    ConeRing,
    DegenerateFiber,
    FreeRing,
    KoszulDatum,
    MismatchAtDegree,
    RingElement,
    SparseRationalMatrix,
    TruncationTooSmall,
    build_face_complex,
    check_face_complex_exactness,
    cohomology_dims,
    koszul_complex,
    koszul_regular_sequence_check,
    log_derivative_classes,
    newton_polytope,
    poincare_identity_check,
    rank_and_kernel,
    validate_matrix,
    verify_kouchnirenko,
)
from gkzrank.homology import expected_top_polynomial


class TestRankAndKernel:
    def test_empty(self):
        assert rank_and_kernel(SparseRationalMatrix(0, 0)) == (0, 0)

    def test_identity(self):
        m = SparseRationalMatrix.from_dense(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert rank_and_kernel(m) == (3, 0)

    def test_proportional_rows(self):
        m = SparseRationalMatrix.from_dense([[1, 2], [2, 4]])
        assert rank_and_kernel(m) == (1, 1)

    def test_rank_nullity(self):
        m = SparseRationalMatrix.from_dense(
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        )
        r, k = rank_and_kernel(m)
        assert r + k == 3 and r == 2


class TestKoszulComplex:
    def test_double_ray_multiplication(self):
        P = newton_polytope(validate_matrix([[2]]))
        ring = ConeRing(P)
        seq = log_derivative_classes([1], None, P)
        cx = koszul_complex(KoszulDatum(ring, seq, 6))
        # two-term complex; the map at degree d is multiplication by 2 t^2
        mat = cx.differential(0, 2)
        assert mat.to_dense() == [[Fraction(2)]]
        dims = cohomology_dims(cx)
        assert dims[0]["total"] == 0
        assert dims[1]["total"] == 2
        assert dims[1]["per_degree"] == {0: 1, 1: 1}

    def test_empty_sequence(self):
        ring = FreeRing(1)
        cx = koszul_complex(KoszulDatum(ring, [], 3))
        dims = cohomology_dims(cx)
        assert dims[0]["per_degree"] == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_classical_regular_pair(self):
        ring = FreeRing(2)
        u, v = ring.variable(0), ring.variable(1)
        cx = koszul_complex(KoszulDatum(ring, [u, v], 6))
        dims = cohomology_dims(cx)
        assert dims[0]["total"] == 0
        assert dims[1]["total"] == 0
        assert dims[2]["total"] == 1  # one class, in the bottom degree

    def test_d_squared_zero(self, gauss):
        matrix, P, fiber = gauss
        ring = ConeRing(P)
        seq = log_derivative_classes(fiber, None, P)
        cx = koszul_complex(KoszulDatum(ring, seq, 3))
        cx.validate()

    def test_mixed_degree_sequence_rejected(self):
        ring = FreeRing(2, weights=(1, 2))
        with pytest.raises(ValueError):
            koszul_complex(
                KoszulDatum(ring, [ring.variable(0), ring.variable(1)], 4)
            )

    def test_euler_characteristic_audit(self, polytopes):
        # Alternating sums of chain dimensions match those of cohomology,
        # strand by strand through the top spot.
        for name, (matrix, P, fiber) in polytopes.items():
            ring = ConeRing(P)
            seq = log_derivative_classes(fiber, None, P)
            n = P.n
            M = P.gauge_denominator
            D = expected_top_polynomial(P).degree + M
            cx = koszul_complex(KoszulDatum(ring, seq, D))
            dims = cohomology_dims(cx)
            for d in range(D + 1):
                chain = sum(
                    (-1) ** q * len(cx.basis(q, d - (n - q) * M))
                    for q in range(n + 1)
                )
                cohom = sum(
                    (-1) ** q
                    * dims[q]["per_degree"].get(d - (n - q) * M, 0)
                    for q in range(n + 1)
                )
                assert chain == cohom


class TestCochainComplex:
    def test_exact_two_term(self):
        cx = CochainComplexQ(
            {0: ["a"], 1: ["b"]},
            {0: SparseRationalMatrix.from_dense([[1]])},
        )
        assert cohomology_dims(cx) == {0: 0, 1: 0}

    def test_zero_differentials(self):
        cx = CochainComplexQ(
            {0: ["a", "b"], 1: ["c"]},
            {0: SparseRationalMatrix(1, 2)},
        )
        assert cohomology_dims(cx) == {0: 2, 1: 1}

    def test_composition_checked(self):
        with pytest.raises(AssertionError):
            CochainComplexQ(
                {0: ["a"], 1: ["b"], 2: ["c"]},
                {
                    0: SparseRationalMatrix.from_dense([[1]]),
                    1: SparseRationalMatrix.from_dense([[1]]),
                },
            )


class TestFaceComplex:
    def test_interval_single_summand(self):
        P = newton_polytope(validate_matrix([[1, 2]]))
        fc = build_face_complex(P)
        assert len(fc.levels[0]) == 1
        assert not fc.augmented
        for w in [(0,), (1,), (5,)]:
            dims = fc.weight_piece(w).cohomology_dims()
            assert dims == {0: 1}

    def test_symmetric_interval_augmented(self):
        P = newton_polytope(validate_matrix([[-1, 1]]))
        fc = build_face_complex(P)
        assert fc.augmented
        piece = fc.weight_piece((0,))
        assert piece.dim(0) == 2 and piece.dim(1) == 1
        assert piece.cohomology_dims() == {0: 1, 1: 0}

    def test_gauss_square_only(self, gauss):
        _, P, _ = gauss
        fc = build_face_complex(P)
        assert [len(fc.levels[q]) for q in range(3)] == [1, 0, 0]
        dims = fc.weight_piece((1, 1, 0)).cohomology_dims()
        assert dims == {0: 1}

    @pytest.mark.parametrize(
        "rows",
        [
            [[1]],
            [[2]],
            [[1, 2]],
            [[-1, 1]],
            [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
            [[1, 0, 1], [0, 1, 1]],
            [[1, 0, -1, 0], [0, 1, 0, -1]],
            [[2, 0, 1], [0, 3, 1]],
        ],
    )
    def test_exactness_up_to_weight_six(self, rows):
        P = newton_polytope(validate_matrix(rows))
        report = check_face_complex_exactness(P, 6)
        assert report.ok, report.failures

    def test_octahedron_sphere_exactness(self):
        # A genuine two-sphere: the augmented complex over all faces of the
        # octahedron (origin interior, simplicial cells).
        rows = [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
        P = newton_polytope(validate_matrix(rows))
        assert P.f_vector() == (6, 12, 8)
        report = check_face_complex_exactness(P, 4)
        assert report.ok, report.failures

    def test_cube_square_cell_exactness(self):
        # Square facets exercise the orientation convention on
        # non-simplicial cells.
        cols = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        rows = [[col[i] for col in cols] for i in range(3)]
        P = newton_polytope(validate_matrix(rows))
        assert P.f_vector() == (8, 12, 6)
        report = check_face_complex_exactness(P, 3)
        assert report.ok, report.failures

    def test_json_surface(self, gauss):
        _, P, _ = gauss
        data = build_face_complex(P).to_json()
        assert "levels" in data and "augmented" in data
        piece = build_face_complex(P).weight_piece((1, 0, 0)).to_json()
        assert set(piece) == {"bases", "differentials"}


class TestVerifyKouchnirenko:
    def test_double_ray(self):
        matrix = validate_matrix([[2]])
        result = verify_kouchnirenko(matrix, [1])
        assert result.vanishing
        assert result.top_dim == 2
        assert result.equals_volume
        assert result.monomial_basis == [(0,), (1,)]

    def test_symmetric_interval(self):
        matrix = validate_matrix([[-1, 1]])
        result = verify_kouchnirenko(matrix, [1, 1])
        assert result.top_dim == 2
        assert result.vanishing

    def test_gauss(self, gauss):
        matrix, P, fiber = gauss
        result = verify_kouchnirenko(matrix, fiber, P)
        assert result.vanishing and result.top_dim == 2 == P.normalized_volume

    def test_degenerate_raises(self, gauss):
        matrix, P, _ = gauss
        with pytest.raises(DegenerateFiber):
            verify_kouchnirenko(matrix, [1, 1, 1, 1], P)

    def test_degenerate_scan_signals(self, gauss):
        matrix, P, _ = gauss
        result = verify_kouchnirenko(
            matrix, [1, 1, 1, 1], P, require_nondegenerate=False
        )
        poly = result.expected_polynomial
        excess = any(
            result.per_degree.get(d, 0) > poly.coeff(d)
            for d in range(result.truncation + 1)
        )
        assert (not result.vanishing) or excess

    def test_truncation_cap(self, gauss):
        matrix, P, fiber = gauss
        with pytest.raises(TruncationTooSmall):
            verify_kouchnirenko(matrix, fiber, P, truncation_cap=1)


class TestPoincareIdentity:
    @pytest.mark.parametrize(
        "rows,fiber",
        [
            ([[2]], [1]),
            ([[-1, 1]], [1, 1]),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
        ],
    )
    def test_one_plus_t(self, rows, fiber):
        matrix = validate_matrix(rows)
        check = poincare_identity_check(matrix, fiber)
        assert check.ok
        assert list(check.polynomial.coeffs) == [1, 1]

    def test_polynomial_properties(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            check = poincare_identity_check(matrix, fiber, P)
            assert check.coefficients_nonnegative
            assert check.sums_to_volume

    def test_mismatch_raises(self, gauss):
        # Force the comparison on a degenerate fiber by bypassing the gate.
        matrix, P, _ = gauss
        result = verify_kouchnirenko(
            matrix, [1, 1, 1, 1], P, require_nondegenerate=False
        )
        poly = result.expected_polynomial
        bad = [
            d
            for d in range(result.truncation + 1)
            if result.per_degree.get(d, 0) != poly.coeff(d)
        ]
        assert bad  # the signal poincare_identity_check would raise on
        with pytest.raises((MismatchAtDegree, DegenerateFiber)):
            poincare_identity_check(matrix, [1, 1, 1, 1], P)


class TestRegularSequenceCheck:
    def test_classical_pair(self):
        ring = FreeRing(2)
        u, v = ring.variable(0), ring.variable(1)
        check = koszul_regular_sequence_check(ring, [u, v], 2, 6)
        assert check.ok and check.vanishing_below
        assert check.dims[2]["total"] == 1

    def test_padded_with_zero(self):
        ring = FreeRing(1)
        u = ring.variable(0)
        zero = RingElement()
        check = koszul_regular_sequence_check(ring, [u, zero], 1, 6)
        assert check.ok
        assert check.dims[0]["total"] == 0

    def test_empty_sequence_vacuous(self):
        ring = FreeRing(1)
        check = koszul_regular_sequence_check(ring, [], 0, 4)
        assert check.ok
