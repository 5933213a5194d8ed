import warnings
from fractions import Fraction

import pytest

from gkzrank import (
    DegenerateFiber,
    GammaNotNormalized,
    LogForm,
    check_gr_equals_koszul,
    connection_matrices,
    derham_cohomology_dims,
    filtration_level,
    h_top_dimension,
    newton_polytope,
    reduce_to_basis,
    twisted_differential,
    validate_matrix,
)

F = Fraction


def form(n, indices, w, coeff=1):
    return LogForm.monomial(n, indices, w, coeff)


class TestTwistedDifferential:
    def test_unit_ray_constant(self):
        P = newton_polytope(validate_matrix([[1]]))
        d = twisted_differential([0], [1], form(1, (), (0,)), P)
        assert d.terms == {((0,), (1,)): F(1)}

    def test_zero_form(self):
        P = newton_polytope(validate_matrix([[1]]))
        d = twisted_differential([0], [1], LogForm(1, 0), P)
        assert d.is_zero()

    def test_double_ray_on_t(self):
        P = newton_polytope(validate_matrix([[2]]))
        d = twisted_differential([0], [1], form(1, (), (1,)), P)
        assert d.terms == {((0,), (1,)): F(1), ((0,), (3,)): F(2)}

    def test_gamma_term(self):
        P = newton_polytope(validate_matrix([[1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GammaNotNormalized)
            d = twisted_differential([F(1, 3)], [2], form(1, (), (0,)), P)
        assert d.terms == {((0,), (0,)): F(1, 3), ((0,), (1,)): F(2)}

    def test_warning_for_unnormalized(self):
        P = newton_polytope(validate_matrix([[5]]))
        with pytest.warns(GammaNotNormalized):
            twisted_differential([F(7, 2)], [1], form(1, (), (0,)), P)

    def test_warning_on_every_call(self):
        P = newton_polytope(validate_matrix([[3]]))
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", GammaNotNormalized)
                twisted_differential([F(5, 2)], [1], form(1, (), (0,)), P)
            assert [w.category for w in caught] == [GammaNotNormalized]


class TestFiltrationLevel:
    def test_constant(self):
        P = newton_polytope(validate_matrix([[2]]))
        assert filtration_level(form(1, (), (0,)), P) == 0

    def test_one_form_drop(self):
        P = newton_polytope(validate_matrix([[2]]))
        assert filtration_level(form(1, (0,), (2,)), P) == 0

    def test_zero_form_has_no_level(self):
        P = newton_polytope(validate_matrix([[2]]))
        assert filtration_level(LogForm(1, 0), P) is None

    def test_cube_degree(self):
        P = newton_polytope(validate_matrix([[2]]))
        assert filtration_level(form(1, (), (3,)), P) == 3


class TestGrEqualsKoszul:
    @pytest.mark.parametrize(
        "rows,gamma,fiber",
        [
            ([[2]], [0], [1]),
            ([[1, 2]], [0], [1, 1]),
            ([[-1, 1]], [0], [1, 1]),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [0, 0, 0], [1, 2, 3, 4]),
        ],
    )
    def test_default_samples(self, rows, gamma, fiber):
        P = newton_polytope(validate_matrix(rows))
        result = check_gr_equals_koszul(gamma, fiber, P)
        assert result.ok and result.checked > 0

    def test_interior_term_drops(self):
        # For [[1,2]] the twisted differential of 1 contains t + 2t^2 but
        # only the boundary monomial survives at the leading level.
        P = newton_polytope(validate_matrix([[1, 2]]))
        omega = form(1, (), (0,))
        d = twisted_differential([0], [1, 1], omega, P)
        assert d.terms == {((0,), (1,)): F(1), ((0,), (2,)): F(2)}
        level = filtration_level(omega, P)
        top = {
            key: c
            for key, c in d.terms.items()
            if P.graded_degree(key[1]) - P.gauge_denominator * len(key[0]) == level
        }
        assert top == {((0,), (2,)): F(2)}


class TestTopDimension:
    @pytest.mark.parametrize(
        "rows,gamma,fiber,expected",
        [
            ([[1]], [0], [1], 1),
            ([[2]], [0], [1], 2),
            ([[1, 2]], [0], [1, 1], 2),
            ([[-1, 1]], [F(1, 2)], [1, 1], 2),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [0, 0, 0], [1, 2, 3, 4], 2),
        ],
    )
    def test_fixtures(self, rows, gamma, fiber, expected):
        P = newton_polytope(validate_matrix(rows))
        dim, basis = h_top_dimension(gamma, fiber, P)
        assert dim == expected == P.normalized_volume
        assert basis.dimension == expected

    def test_degenerate_rejected(self, gauss):
        matrix, P, _ = gauss
        with pytest.raises(DegenerateFiber):
            h_top_dimension([0, 0, 0], [1, 1, 1, 1], P)


class TestReduceToBasis:
    def test_basis_element_cache_hit(self):
        P = newton_polytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], [1], P)
        for k, w in enumerate(basis.basis):
            coords = reduce_to_basis(form(1, (0,), w), basis)
            expected = tuple(
                F(1) if i == k else F(0) for i in range(basis.dimension)
            )
            assert coords == expected

    def test_unit_ray_relation(self):
        P = newton_polytope(validate_matrix([[1]]))
        _, basis = h_top_dimension([0], [1], P)
        assert reduce_to_basis(form(1, (0,), (1,)), basis) == (F(0),)

    def test_double_ray_relation(self):
        P = newton_polytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], [1], P)
        assert reduce_to_basis(form(1, (0,), (3,)), basis) == (F(0), F(-1, 2))

    def test_exact_form_reduces_to_zero(self, gauss):
        matrix, P, fiber = gauss
        _, basis = h_top_dimension([0, 0, 0], fiber, P)
        eta = form(3, (0, 1), (1, 1, 0), F(3, 2)) + form(3, (1, 2), (2, 1, 1), F(-1))
        d_eta = twisted_differential([0, 0, 0], fiber, eta, P)
        coords = reduce_to_basis(d_eta, basis)
        assert all(c == 0 for c in coords)


class TestConnectionMatrices:
    def test_unit_ray_closed_form(self):
        P = newton_polytope(validate_matrix([[1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GammaNotNormalized)
            _, basis = h_top_dimension([F(1, 3)], [2], P)
            mats = connection_matrices([F(1, 3)], [2], basis)
        assert mats == [[[F(-1, 6)]]]

    def test_gamma_zero_unit_ray(self):
        P = newton_polytope(validate_matrix([[1]]))
        _, basis = h_top_dimension([0], [1], P)
        assert connection_matrices([0], [1], basis) == [[[F(0)]]]

    def test_double_ray_diagonal(self):
        P = newton_polytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], [1], P)
        mats = connection_matrices([0], [1], basis)
        assert mats == [[[F(0), F(0)], [F(0), F(-1, 2)]]]

    def test_shapes_for_gauss(self, gauss):
        matrix, P, fiber = gauss
        _, basis = h_top_dimension([0, 0, 0], fiber, P)
        mats = connection_matrices([0, 0, 0], fiber, basis)
        assert len(mats) == 4
        assert all(len(m) == 2 and len(m[0]) == 2 for m in mats)


class TestLowerCohomology:
    @pytest.mark.parametrize(
        "rows,gamma,fiber",
        [
            ([[2]], [0], [1]),
            ([[-1, 1]], [F(-1, 2)], [1, 1]),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [0, 0, 0], [1, 2, 3, 4]),
        ],
    )
    def test_vanishing_below_top(self, rows, gamma, fiber):
        P = newton_polytope(validate_matrix(rows))
        dims = derham_cohomology_dims(gamma, fiber, P, level_cap=2)
        n = P.n
        for q in range(n):
            assert dims[q] == 0
        assert dims[n] > 0
