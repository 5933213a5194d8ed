from fractions import Fraction

import pytest

from gkzrank import (
    FaceContainsOrigin,
    NewtonPolytope,
    RingElement,
    choose_spanning_subset,
    face_polynomial,
    is_nondegenerate,
    validate_matrix,
    verify_kouchnirenko,
)

GAUSS = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


class TestFacePolynomial:
    def test_single_monomial(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = P.face_by_vertices([(2,)])
        assert face_polynomial([5, 7], face, P) == RingElement(
            {(2,): Fraction(7)}
        )

    def test_gauss_square(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        f = face_polynomial([1, 2, 3, 4], square, P)
        assert f == RingElement(
            {
                (1, 0, 0): Fraction(1),
                (1, 1, 0): Fraction(2),
                (1, 0, 1): Fraction(3),
                (1, 1, 1): Fraction(4),
            }
        )

    def test_zero_coefficient(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = P.face_by_vertices([(2,)])
        assert face_polynomial([1, 0], face, P).is_zero()

    def test_duplicate_columns_sum(self):
        P = NewtonPolytope(validate_matrix([[2, 2]]))
        face = P.face_by_vertices([(2,)])
        assert face_polynomial([1, -1], face, P).is_zero()
        assert face_polynomial([1, 2], face, P) == RingElement(
            {(2,): Fraction(3)}
        )

    def test_origin_face_rejected(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        origin_face = P.face_by_vertices([(0,)])
        with pytest.raises(FaceContainsOrigin):
            face_polynomial([1, 1], origin_face, P)


class TestChooseSpanningSubset:
    def test_rank_one(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        face = P.face_by_vertices([(2,)])
        assert choose_spanning_subset([1], face, P) == (1,)

    def test_gauss_square_full_rank(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        assert choose_spanning_subset([1, 1, 1, 1], square, P) == (1, 2, 3)

    def test_deficient(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = P.face_by_vertices([(2,)])
        assert choose_spanning_subset([1, 0], face, P) is None

    def test_edge_rank_two(self, gauss):
        _, P, _ = gauss
        edge = P.face_by_vertices([(1, 0, 0), (1, 1, 0)])
        chosen = choose_spanning_subset([1, 2, 3, 4], edge, P)
        assert chosen is not None and len(chosen) == 2


class TestIsNondegenerate:
    def test_interval_examples(self):
        matrix = validate_matrix([[1, 2]])
        assert is_nondegenerate(matrix, [0, 1]).overall
        assert is_nondegenerate(matrix, [1, 1]).overall
        assert not is_nondegenerate(matrix, [1, 0]).overall

    def test_gauss_unit_fiber_degenerate(self, gauss):
        matrix, P, _ = gauss
        report = is_nondegenerate(matrix, [1, 1, 1, 1], P)
        assert not report.overall
        offenders = report.offending_faces()
        square = P.index_set(2)[0]
        assert [c.face_id for c in offenders] == [square.id]

    def test_gauss_generic_fiber(self, gauss):
        matrix, P, fiber = gauss
        report = is_nondegenerate(matrix, fiber, P)
        assert report.overall
        assert all(c.verdict == "finite" for c in report.certificates)

    def test_scanned_faces_are_origin_free(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            report = is_nondegenerate(matrix, fiber, P)
            scanned = {c.face_id for c in report.certificates}
            expected = {f.id for f in P.origin_free_faces()}
            assert scanned == expected

    def test_vanishing_vertex_coefficient_degenerate(self, gauss):
        # Killing the coefficient on any nonzero vertex kills that vertex's
        # face polynomial outright.
        matrix, P, _ = gauss
        for j in range(4):
            fiber = [1, 1, 1, 1]
            fiber[j] = 0
            assert not is_nondegenerate(matrix, fiber, P).overall

    def test_scaling_invariance_spot(self, polytopes):
        for name, (matrix, P, fiber) in polytopes.items():
            base = is_nondegenerate(matrix, fiber, P).overall
            scaled = is_nondegenerate(
                matrix, [Fraction(-7, 3) * Fraction(c) for c in fiber], P
            ).overall
            assert base == scaled

    def test_consistency_with_koszul(self, gauss):
        # A degenerate verdict must show up as a failed scan signal.
        matrix, P, _ = gauss
        result = verify_kouchnirenko(
            matrix, [1, 1, 1, 1], P, require_nondegenerate=False
        )
        poly = result.expected_polynomial
        mismatch = any(
            result.per_degree.get(d, 0) != poly.coeff(d)
            for d in range(result.truncation + 1)
        )
        assert mismatch or not result.vanishing

    def test_report_serialization(self, gauss):
        matrix, P, _ = gauss
        data = is_nondegenerate(matrix, [1, 1, 1, 1], P).to_json()
        assert data["overall"] is False
        bad = [f for f in data["faces"] if f["verdict"] == "infinite"]
        assert bad and bad[0]["quotient_dims"] != bad[0]["expected_dims"]


class TestCertificateShape:
    def test_finite_certificates_match_polynomial(self, gauss):
        matrix, P, fiber = gauss
        report = is_nondegenerate(matrix, fiber, P)
        for cert in report.certificates:
            assert cert.verdict == "finite"
            assert cert.quotient_dims == cert.expected_dims
            assert cert.bound_used == len(cert.quotient_dims) - 1
