from fractions import Fraction

import pytest

import gkzrank.homology as homology
from gkzrank import (
    CochainComplexQ,
    ConeRing,
    DegenerateFiber,
    FaceComplex,
    FreeRing,
    GradedKoszulComplex,
    MismatchAtDegree,
    NewtonPolytope,
    RingElement,
    SparseRationalMatrix,
    TruncationTooSmall,
    check_face_complex_exactness,
    is_nondegenerate,
    koszul_regular_sequence_check,
    log_derivative_classes,
    poincare_identity_check,
    validate_matrix,
    verify_kouchnirenko,
)
from gkzrank.linalg import rank
from gkzrank.oracles import to_dense
from gkzrank.rings import cone_numerator, sequence_image
from conftest import kouchnirenko_scan
from test_cli import GOLDEN_SPECS

GAUSS = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


class TestRankAndKernel:
    def test_empty(self):
        assert rank(SparseRationalMatrix(0, 0)) == 0

    def test_identity(self):
        m = SparseRationalMatrix.from_dense(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        )
        assert rank(m) == 3

    def test_proportional_rows(self):
        m = SparseRationalMatrix.from_dense([[1, 2], [2, 4]])
        assert rank(m) == 1 and m.cols - rank(m) == 1

    def test_rank_nullity(self):
        m = SparseRationalMatrix.from_dense(
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        )
        assert rank(m) == 2 and m.cols - rank(m) == 1


class TestKoszulComplex:
    def test_double_ray_multiplication(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        ring = ConeRing(P)
        seq = log_derivative_classes([1], None, P)
        cx = GradedKoszulComplex(ring, seq, 6)
        # two-term complex; the map at degree d is multiplication by 2 t^2
        mat = cx.differential(0, 2)
        assert to_dense(mat) == [[Fraction(2)]]
        dims = cx.cohomology_dims()
        assert dims[0]["total"] == 0
        assert dims[1]["total"] == 2
        assert dims[1]["per_degree"] == {0: 1, 1: 1}

    def test_empty_sequence(self):
        ring = FreeRing(1)
        cx = GradedKoszulComplex(ring, [], 3)
        dims = cx.cohomology_dims()
        assert dims[0]["per_degree"] == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_classical_regular_pair(self):
        ring = FreeRing(2)
        u, v = ring.variable(0), ring.variable(1)
        cx = GradedKoszulComplex(ring, [u, v], 6)
        dims = cx.cohomology_dims()
        assert dims[0]["total"] == 0
        assert dims[1]["total"] == 0
        assert dims[2]["total"] == 1  # one class, in the bottom degree

    def test_d_squared_zero(self, gauss):
        matrix, P, fiber = gauss
        ring = ConeRing(P)
        seq = log_derivative_classes(fiber, None, P)
        cx = GradedKoszulComplex(ring, seq, 3)
        cx.validate()

    def test_mixed_degree_sequence_rejected(self):
        ring = FreeRing(2, weights=(1, 2))
        with pytest.raises(ValueError):
            GradedKoszulComplex(ring, [ring.variable(0), ring.variable(1)], 4)

    def test_euler_characteristic_audit(self, polytopes):
        # Alternating sums of chain dimensions match those of cohomology,
        # strand by strand through the top spot.
        for name, (matrix, P, fiber) in polytopes.items():
            ring = ConeRing(P)
            seq = log_derivative_classes(fiber, None, P)
            n = P.n
            M = P.gauge_denominator
            D = cone_numerator(P)[0].degree + M
            cx = GradedKoszulComplex(ring, seq, D)
            dims = cx.cohomology_dims()
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
        assert cx.cohomology_dims() == {0: 0, 1: 0}

    def test_zero_differentials(self):
        cx = CochainComplexQ(
            {0: ["a", "b"], 1: ["c"]},
            {0: SparseRationalMatrix(1, 2)},
        )
        assert cx.cohomology_dims() == {0: 2, 1: 1}

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
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        fc = FaceComplex(P)
        assert len(fc.levels[0]) == 1
        assert not fc.augmented
        for w in [(0,), (1,), (5,)]:
            dims = fc.weight_piece(w).cohomology_dims()
            assert dims == {0: 1}

    def test_symmetric_interval_augmented(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        fc = FaceComplex(P)
        assert fc.augmented
        piece = fc.weight_piece((0,))
        assert piece.dim(0) == 2 and piece.dim(1) == 1
        assert piece.cohomology_dims() == {0: 1, 1: 0}

    def test_gauss_square_only(self, gauss):
        _, P, _ = gauss
        fc = FaceComplex(P)
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
        P = NewtonPolytope(validate_matrix(rows))
        report = check_face_complex_exactness(P, 6)
        assert report.ok, report.failures

    def test_octahedron_sphere_exactness(self):
        # A genuine two-sphere: the augmented complex over all faces of the
        # octahedron (origin interior, simplicial cells).
        rows = [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
        P = NewtonPolytope(validate_matrix(rows))
        assert P.f_vector() == (6, 12, 8)
        report = check_face_complex_exactness(P, 4)
        assert report.ok, report.failures

    def test_cube_square_cell_exactness(self):
        # Square facets exercise the orientation convention on
        # non-simplicial cells.
        cols = [(a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)]
        rows = [[col[i] for col in cols] for i in range(3)]
        P = NewtonPolytope(validate_matrix(rows))
        assert P.f_vector() == (8, 12, 6)
        report = check_face_complex_exactness(P, 3)
        assert report.ok, report.failures

    def test_negative_weight_bound_is_rejected(self):
        # it would check no weight and still report exactness
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert check_face_complex_exactness(P, 0).weights_checked == 1
        with pytest.raises(ValueError, match="weight bound"):
            check_face_complex_exactness(P, -1)


def _record_slices(monkeypatch):
    """The (ring's face, degree) of each top slice, as it is imaged."""
    built = []

    def recorded(ring, gs, M, d):
        built.append((ring.face, d))
        return sequence_image(ring, gs, M, d)

    monkeypatch.setattr(homology, "sequence_image", recorded)
    return built


class TestVerifyKouchnirenko:
    def test_double_ray(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        result = verify_kouchnirenko(is_nondegenerate([1], P))
        assert result.vanishing
        assert result.top_dim == 2
        assert result.equals_volume
        assert result.monomial_basis == [(0,), (1,)]

    def test_symmetric_interval(self):
        P = NewtonPolytope(validate_matrix([[-1, 1]]))
        result = verify_kouchnirenko(is_nondegenerate([1, 1], P))
        assert result.top_dim == 2
        assert result.vanishing

    def test_gauss(self, gauss):
        _, P, fiber = gauss
        result = verify_kouchnirenko(is_nondegenerate(fiber, P))
        assert result.vanishing and result.top_dim == 2 == P.normalized_volume

    def test_degenerate_raises(self, gauss):
        # The stage takes the report, so a fiber that failed certification
        # is refused by the faces the report found, before the cap is read.
        _, P, _ = gauss
        report = is_nondegenerate([1, 1, 1, 1], P)
        bad = [c.face_id for c in report.offending_faces()]
        assert bad and not report.overall
        with pytest.raises(DegenerateFiber) as info:
            verify_kouchnirenko(report, truncation_cap=0)
        assert str(info.value) == f"degenerate fiber; offending faces {bad}"

    def test_degenerate_scan_signals(self, gauss):
        _, P, _ = gauss
        result = kouchnirenko_scan(P, [1, 1, 1, 1])
        poly = result.expected_polynomial
        excess = any(
            result.per_degree.get(d, 0) > poly.coeff(d)
            for d in range(result.truncation + 1)
        )
        assert (not result.vanishing) or excess

    def test_truncation_cap(self, gauss):
        _, P, fiber = gauss
        with pytest.raises(TruncationTooSmall):
            verify_kouchnirenko(is_nondegenerate(fiber, P), truncation_cap=1)

    def test_truncation_cap_refuses_before_the_full_cone_is_factored(
        self, monkeypatch
    ):
        # The octahedron has 8 origin-free facets, so its report carries no
        # counts: the cap refuses before any slice of the full cone is built.
        spec = GOLDEN_SPECS["octahedron"]
        P = NewtonPolytope(validate_matrix(spec["matrix"]))
        report = is_nondegenerate(spec["fiber"], P)
        assert report.overall and report.kouchnirenko is None
        built = _record_slices(monkeypatch)
        with pytest.raises(TruncationTooSmall):
            verify_kouchnirenko(report, truncation_cap=0)
        assert built == []
        verify_kouchnirenko(report)
        assert built and {face for face, _ in built} == {None}

    def test_truncation_cap_on_one_facet_comes_after_its_counts(self, monkeypatch):
        # With one origin-free facet, the facet's cone is the full cone and
        # is_nondegenerate has already factored its counts, each degree from
        # M to the truncation once; the cap refuses with no slice of its own.
        built = _record_slices(monkeypatch)
        P = NewtonPolytope(validate_matrix(GAUSS))
        (facet,) = P.index_set(P.n - 1)
        report = is_nondegenerate([1, 2, 3, 4], P)
        kz = report.kouchnirenko
        assert kz.ring.face is facet and kz.truncation == 2
        assert [d for face, d in built if face is facet] == [1, 2]
        built.clear()
        with pytest.raises(TruncationTooSmall):
            verify_kouchnirenko(report, truncation_cap=0)
        assert built == []


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
        P = NewtonPolytope(validate_matrix(rows))
        check = poincare_identity_check(verify_kouchnirenko(is_nondegenerate(fiber, P)))
        assert check.ok
        assert list(check.polynomial.coeffs) == [1, 1]

    def test_polynomial_properties(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            check = poincare_identity_check(verify_kouchnirenko(is_nondegenerate(fiber, P)))
            assert check.coefficients_nonnegative
            assert check.sums_to_volume

    def test_mismatch_raises(self, gauss):
        # Force the comparison on a degenerate fiber by bypassing the gate.
        _, P, _ = gauss
        result = kouchnirenko_scan(P, [1, 1, 1, 1])
        poly = result.expected_polynomial
        bad = [
            d
            for d in range(result.truncation + 1)
            if result.per_degree.get(d, 0) != poly.coeff(d)
        ]
        assert bad  # the signal poincare_identity_check would raise on
        with pytest.raises(MismatchAtDegree):
            poincare_identity_check(result)


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
