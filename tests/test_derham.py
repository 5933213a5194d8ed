import math
import random
import sys
import warnings
from fractions import Fraction

import pytest

from gkzrank import (
    DegenerateFiber,
    GammaNotNormalized,
    LogForm,
    NewtonPolytope,
    RankDeficient,
    ReductionBasis,
    ShapeMismatch,
    check_gr_equals_koszul,
    connection_matrices,
    derham,
    derham_cohomology_dims,
    filtration_level,
    h_top_dimension,
    is_nondegenerate,
    linalg,
    log_derivative_classes,
    twisted_differential,
    validate_matrix,
    verify_kouchnirenko,
)
from gkzrank.linalg import SparseRationalMatrix, solve

F = Fraction


def form(n, indices, w, coeff=1):
    return LogForm.monomial(n, indices, w, coeff)


def _kz(fiber, P):
    """The certified Kouchnirenko result that the de Rham stage takes."""
    return verify_kouchnirenko(is_nondegenerate(fiber, P))


class TestTwistedDifferential:
    def test_unit_ray_constant(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        d = twisted_differential([0], [1], form(1, (), (0,)), P)
        assert d.terms == {((0,), (1,)): F(1)}

    def test_zero_form(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        d = twisted_differential([0], [1], LogForm(1, 0), P)
        assert d.is_zero()

    def test_double_ray_on_t(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        d = twisted_differential([0], [1], form(1, (), (1,)), P)
        assert d.terms == {((0,), (1,)): F(1), ((0,), (3,)): F(2)}

    def test_gamma_term(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GammaNotNormalized)
            d = twisted_differential([F(1, 3)], [2], form(1, (), (0,)), P)
        assert d.terms == {((0,), (0,)): F(1, 3), ((0,), (1,)): F(2)}

    def test_warning_for_unnormalized(self):
        P = NewtonPolytope(validate_matrix([[5]]))
        with pytest.warns(GammaNotNormalized):
            twisted_differential([F(7, 2)], [1], form(1, (), (0,)), P)

    def test_warning_on_every_call(self):
        P = NewtonPolytope(validate_matrix([[3]]))
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", GammaNotNormalized)
                twisted_differential([F(5, 2)], [1], form(1, (), (0,)), P)
            assert [w.category for w in caught] == [GammaNotNormalized]

    @pytest.mark.parametrize(
        "gamma,fiber,length,expected",
        [([0], [1, 2, 3, 4], 1, 3), ([0, 0, 0], [1, 2], 2, 4)],
    )
    def test_wrong_length_gamma_or_fiber_is_rejected(
        self, gauss, gamma, fiber, length, expected
    ):
        # A short gamma would be indexed past its end, a short fiber
        # silently truncated against the columns.
        _, P, _ = gauss
        omega = form(3, (), (1, 0, 0))
        message = f"length {length}, expected {expected}"
        with pytest.raises(ShapeMismatch, match=message):
            twisted_differential(gamma, fiber, omega, P)


class TestFiltrationLevel:
    def test_constant(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        assert filtration_level(form(1, (), (0,)), P) == 0

    def test_one_form_drop(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        assert filtration_level(form(1, (0,), (2,)), P) == 0

    def test_zero_form_has_no_level(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        assert filtration_level(LogForm(1, 0), P) is None

    def test_cube_degree(self):
        P = NewtonPolytope(validate_matrix([[2]]))
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
        P = NewtonPolytope(validate_matrix(rows))
        result = check_gr_equals_koszul(gamma, fiber, P)
        assert result.ok and result.checked > 0

    def test_interior_term_drops(self):
        # For [[1,2]] the twisted differential of 1 contains t + 2t^2 but
        # only the boundary monomial survives at the leading level.
        P = NewtonPolytope(validate_matrix([[1, 2]]))
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
        P = NewtonPolytope(validate_matrix(rows))
        dim, basis = h_top_dimension(gamma, _kz(fiber, P))
        assert dim == expected == P.normalized_volume
        assert basis.dimension == expected

    def test_degenerate_rejected(self, gauss):
        # The de Rham stage takes a Kouchnirenko result, which a degenerate
        # fiber never gets.
        _, P, _ = gauss
        with pytest.raises(DegenerateFiber):
            _kz([1, 1, 1, 1], P)

    @pytest.mark.parametrize("gamma", [[0], [0, 0, 0, 0]])
    def test_wrong_length_gamma_is_rejected(self, gauss, gamma):
        # A short gamma would be indexed past its end, a long one truncated.
        _, P, fiber = gauss
        kz = _kz(fiber, P)
        for call in (
            lambda: h_top_dimension(gamma, kz),
            lambda: ReductionBasis(gamma, kz),
            lambda: derham_cohomology_dims(gamma, kz, level_cap=1),
        ):
            with pytest.raises(ShapeMismatch, match=f"length {len(gamma)}, expected 3"):
                call()


class TestReduceToBasis:
    def test_basis_element_cache_hit(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], _kz([1], P))
        for k, w in enumerate(basis.basis):
            coords = basis.reduce(form(1, (0,), w))
            expected = tuple(
                F(1) if i == k else F(0) for i in range(basis.dimension)
            )
            assert coords == expected

    def test_unit_ray_relation(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        _, basis = h_top_dimension([0], _kz([1], P))
        assert basis.reduce(form(1, (0,), (1,))) == (F(0),)

    def test_double_ray_relation(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], _kz([1], P))
        assert basis.reduce(form(1, (0,), (3,))) == (F(0), F(-1, 2))

    def test_exact_form_reduces_to_zero(self, gauss):
        _, P, fiber = gauss
        _, basis = h_top_dimension([0, 0, 0], _kz(fiber, P))
        eta = form(3, (0, 1), (1, 1, 0), F(3, 2)) + form(3, (1, 2), (2, 1, 1), F(-1))
        d_eta = twisted_differential([0, 0, 0], fiber, eta, P)
        coords = basis.reduce(d_eta)
        assert all(c == 0 for c in coords)

    def test_basis_reads_its_fiber_off_the_kouchnirenko_result(self, gauss):
        # Neither basis.reduce nor connection_matrices takes a gamma or a
        # fiber that could disagree with the basis: the fiber is the one the
        # certified classes were built from.
        _, P, fiber = gauss
        kz = _kz(fiber, P)
        _, basis = h_top_dimension(["0", 0, F(0)], kz)
        assert basis.kouchnirenko is kz and basis.polytope is P
        assert basis.fiber == kz.fiber == tuple(map(F, fiber))
        assert basis.gamma == (0, 0, 0)


class TestConnectionMatrices:
    def test_unit_ray_closed_form(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GammaNotNormalized)
            _, basis = h_top_dimension([F(1, 3)], _kz([2], P))
            mats = connection_matrices(basis)
        assert mats == [[[F(-1, 6)]]]

    def test_gamma_zero_unit_ray(self):
        P = NewtonPolytope(validate_matrix([[1]]))
        _, basis = h_top_dimension([0], _kz([1], P))
        assert connection_matrices(basis) == [[[F(0)]]]

    def test_double_ray_diagonal(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        _, basis = h_top_dimension([0], _kz([1], P))
        mats = connection_matrices(basis)
        assert mats == [[[F(0), F(0)], [F(0), F(-1, 2)]]]

    def test_shapes_for_gauss(self, gauss):
        _, P, fiber = gauss
        _, basis = h_top_dimension([0, 0, 0], _kz(fiber, P))
        mats = connection_matrices(basis)
        assert len(mats) == 4
        assert all(len(m) == 2 and len(m[0]) == 2 for m in mats)


class TestLowerCohomology:
    @pytest.mark.parametrize(
        "rows,gamma,fiber",
        [
            ([[2]], [0], [1]),
            ([[-1, 1]], [F(-1, 2)], [1, 1]),
            ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [0, 0, 0], [1, 2, 3, 4]),
            (
                [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
                [F(-4, 3), F(-1, 2), F(-2, 3)],
                [F(1, 2), 2, F(-3, 4), F(5, 3)],
            ),
        ],
    )
    def test_vanishing_below_top(self, rows, gamma, fiber):
        P = NewtonPolytope(validate_matrix(rows))
        dims = derham_cohomology_dims(gamma, _kz(fiber, P), level_cap=2)
        n = P.n
        for q in range(n):
            assert dims[q] == 0
        assert dims[n] > 0

    def test_one_warning_per_call(self):
        P = NewtonPolytope(validate_matrix([[3]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dims = derham_cohomology_dims([F(5, 2)], _kz([1], P), level_cap=2)
        assert [w.category for w in caught] == [GammaNotNormalized]
        assert dims == {0: 0, 1: 3}


# -- the memoized reduction against a step-by-step reference --------------------


def _reference_reduce(basis, form):
    """Reduce a top form one top part at a time, as a fresh linear system.

    Each step builds its degree's matrix from the basis units and the Koszul
    images, solves it from scratch, and subtracts the twisted differential of
    the lift it found.
    """
    P = basis.polytope
    n, M = P.n, P.gauge_denominator
    full = tuple(range(n))
    ring = basis.ring
    seq = log_derivative_classes(basis.fiber, None, P)
    coords = {w: F(0) for w in basis.basis}
    work = LogForm(n, n, dict(form.terms))
    while not work.is_zero():
        e = max(P.graded_degree(w) for (_, w) in work.terms)
        mono = ring.monomials_of_degree(e)
        index = {w: k for k, w in enumerate(mono)}
        here = [w for w in basis.basis if P.graded_degree(w) == e]
        cols = [{index[w]: F(1)} for w in here]
        lifts = []
        for prev in ring.monomials_of_degree(e - M):
            for i in range(n):
                vec = {}
                for u, c in seq[i].terms.items():
                    prod = ring.multiply_monomials(u, prev)
                    if prod is not None:
                        k = index[prod]
                        vec[k] = vec.get(k, F(0)) + (-1) ** i * c
                if vec:
                    cols.append(vec)
                    lifts.append((tuple(j for j in full if j != i), prev))
        mat = SparseRationalMatrix(len(mono), len(cols), {
            (k, j): v for j, col in enumerate(cols) for k, v in col.items()
        })
        rhs = {index[w]: c for (_, w), c in work.terms.items() if w in index}
        x = solve(mat, rhs)
        assert x is not None
        lift = LogForm(n, n - 1)
        for k, w in enumerate(here):
            coords[w] += x[k]
            work.add_term(full, w, -x[k])
        for k, (I, prev) in enumerate(lifts):
            lift.add_term(I, prev, x[len(here) + k])
        work = work - twisted_differential(basis.gamma, basis.fiber, lift, P)
        assert all(P.graded_degree(w) < e for (_, w) in work.terms)
    return tuple(coords[w] for w in basis.basis)


def _random_draws(seed, dims):
    """Seeded nondegenerate problems, one per entry of ``dims``: n + 1 or
    n + 2 columns with entries in [-2, 2] and normalized volume at most 4."""
    rnd = random.Random(seed)
    out = []
    while len(out) < len(dims):
        n = dims[len(out)]
        cols = [
            [rnd.randint(-2, 2) for _ in range(n)]
            for _ in range(rnd.randint(n + 1, n + 2))
        ]
        if any(not any(c) for c in cols):
            continue
        try:
            matrix = validate_matrix([list(r) for r in zip(*cols)])
        except RankDeficient:
            continue
        P = NewtonPolytope(matrix)
        fiber = [rnd.randint(1, 9) for _ in cols]
        if P.normalized_volume <= 4 and is_nondegenerate(fiber, P).overall:
            out.append((matrix.rows, [0] * n, fiber))
    return out


_SIMPLEX3 = [(a, b) for a in range(4) for b in range(4 - a)]
REDUCTION_CASES = [
    ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [0, 0, 0], [1, 2, 3, 4]),
    ([[1] * 5, list(range(5))], [0, 0], [1, 8, 2, 9, 3]),
    (
        [[1] * 10, [p[0] for p in _SIMPLEX3], [p[1] for p in _SIMPLEX3]],
        [0, 0, 0],
        [(7 * i) % 13 + 1 for i in range(10)],
    ),
    # non-integral (normalized) gamma and a rational fiber
    (
        [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
        [F(-4, 3), F(-1, 2), F(-2, 3)],
        [F(1, 2), 2, F(-3, 4), F(5, 3)],
    ),
    # large coprime denominators: the images are scaled by 997 * 1009
    (
        [[1] * 5, list(range(5))],
        [F(-700, 997), F(-1200, 1009)],
        [F(3, 997), 2, F(-5, 1009), 1, F(7, 997)],
    ),
] + _random_draws(5, (1, 2, 2, 3, 3, 3, 2))


class TestMemoizedReduction:
    @pytest.mark.parametrize("rows,gamma,fiber", REDUCTION_CASES)
    def test_matches_stepwise_reference(self, rows, gamma, fiber):
        P = NewtonPolytope(validate_matrix(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GammaNotNormalized)
            _, basis = h_top_dimension(gamma, _kz(fiber, P))
        n, M = P.n, P.gauge_denominator
        top = basis.kouchnirenko.expected_polynomial.degree + M
        cone = [w for d in range(top + 1) for w in basis.ring.monomials_of_degree(d)]
        rnd = random.Random(f"{rows}")
        for _ in range(3):
            form = LogForm(n, n)
            for _ in range(4):
                w = cone[rnd.randrange(len(cone))]
                c = F(rnd.randint(-5, 5), rnd.randint(1, 4))
                form.add_term(tuple(range(n)), w, c)
            assert basis.reduce(form) == _reference_reduce(basis, form)

    @pytest.mark.parametrize("rows,fiber", [
        ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
        ([[1] * 5, list(range(5))], [1, 8, 2, 9, 3]),
    ])
    def test_each_image_built_once_each_monomial_solved_once(
        self, monkeypatch, rows, fiber
    ):
        matrix = validate_matrix(rows)
        P = NewtonPolytope(matrix)
        gamma = [0] * P.n
        kz = _kz(fiber, P)
        built, solved = [], []
        partial = derham._partial
        column_solve = linalg.Echelon.solve_column

        def counted_partial(w, i, *args):
            built.append((i, w))
            return partial(w, i, *args)

        def counted_solve(self, c):
            solved.append((id(self), c))
            return column_solve(self, c)

        monkeypatch.setattr(derham, "_partial", counted_partial)
        monkeypatch.setattr(linalg.Echelon, "solve_column", counted_solve)
        _, basis = h_top_dimension(gamma, kz)
        assert solved == []
        connection_matrices(basis)
        assert built and len(built) == len(set(built))
        assert len(solved) == len(set(solved)) == len(basis.normal_forms)

    def test_perturbed_leading_coefficient_raises(self):
        # Only the tails of the chosen images are subtracted, so each image
        # is checked once against its top-slice column: one leading
        # coefficient off by one raises instead of reducing wrongly.
        P = NewtonPolytope(validate_matrix([[1] * 5, list(range(5))]))
        _, basis = h_top_dimension([0, 0], _kz([1, 8, 2, 9, 3], P))
        kz = basis.kouchnirenko
        w = next(
            w for d in range(kz.truncation, -1, -1)
            for w in basis.ring.monomials_of_degree(d) if kz.solve_top(w)[1]
        )
        i, v, _ = kz.solve_top(w)[1][0]
        image = basis.image(i, v)
        e = P.graded_degree(v) + P.gauge_denominator
        image[next(u for u in image if P.graded_degree(u) == e)] += 1
        with pytest.raises(AssertionError, match="leading part"):
            basis.reduce_monomial(w)

    @pytest.mark.parametrize("rows,gamma,fiber", REDUCTION_CASES)
    def test_integer_images_match_fraction_terms(self, rows, gamma, fiber):
        # The images are built from scale * gamma and scale * fiber in
        # integers; they are the wedge sign times scale times the Fraction
        # terms of the unscaled differential.
        P = NewtonPolytope(validate_matrix(rows))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GammaNotNormalized)
            _, basis = h_top_dimension(gamma, _kz(fiber, P))
        gamma, fiber = [F(g) for g in gamma], [F(c) for c in fiber]
        columns = P.matrix.columns
        monomials = [
            w for d in range(basis.kouchnirenko.truncation + 1)
            for w in basis.ring.monomials_of_degree(d)
        ]
        for i in range(P.n):
            for w in monomials:
                terms = derham._partial(w, i, 1, gamma[i], fiber, columns)
                expected = {
                    u: (-1) ** i * basis.scale * c for u, c in terms.items() if c
                }
                image = basis.image(i, w)
                assert image == expected
                assert all(type(c) is int for c in image.values())

    @pytest.mark.parametrize("rows,gamma,fiber", REDUCTION_CASES)
    def test_normal_forms_in_lowest_common_terms(self, rows, gamma, fiber):
        P = NewtonPolytope(validate_matrix(rows))
        _, basis = h_top_dimension(gamma, _kz(fiber, P))
        connection_matrices(basis)
        assert basis.normal_forms
        for w, (N, D) in basis.normal_forms.items():
            assert len(N) == basis.dimension
            assert D > 0 and math.gcd(D, *N) == 1
            assert basis.reduce_monomial(w) == tuple(F(y, D) for y in N)

    def test_wrong_length_monomial_is_rejected(self):
        P = NewtonPolytope(validate_matrix([[1] * 5, [0, 1, 2, 3, 4]]))
        _, basis = h_top_dimension([0, 0], _kz([1, 8, 2, 9, 3], P))
        with pytest.raises(ShapeMismatch, match="expected 2"):
            basis.reduce_monomial((1,))

    def test_long_chain_closed_form(self):
        # On [[1]], t^(k+1) = -(k + gamma) t^k in cohomology, so reaching the
        # basis monomial 1 from t^1500 takes a chain longer than the
        # recursion limit.
        assert sys.getrecursionlimit() < 1500
        P = NewtonPolytope(validate_matrix([[1]]))
        gamma = F(-1, 2)
        _, basis = h_top_dimension([gamma], _kz([1], P))
        expected = math.prod(-(k + gamma) for k in range(1500))
        assert basis.reduce_monomial((1500,)) == (expected,)

    def test_one_warning_per_basis(self):
        P = NewtonPolytope(validate_matrix([[3]]))
        gamma, fiber = [F(5, 2)], [1]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GammaNotNormalized)
            _, basis = h_top_dimension(gamma, _kz(fiber, P))
        assert [w.category for w in caught] == [GammaNotNormalized]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GammaNotNormalized)
            connection_matrices(basis)
        assert caught == []
