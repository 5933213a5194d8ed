"""Cross-route agreement on matrices beyond the named fixtures."""

import pytest

from gkzrank import derham, homology, linalg, nondegeneracy, pipeline
from gkzrank import (
    GradedKoszulComplex,
    NewtonPolytope,
    ProblemSpec,
    TruncationTooSmall,
    h_top_dimension,
    is_nondegenerate,
    run_analyze,
    run_subcommand,
    validate_matrix,
    verify_kouchnirenko,
)

EXTRA_CASES = [
    # rows, fiber
    ([[1, 0, 1], [0, 1, 1]], [1, 1, -1]),
    ([[1, 0, 0], [0, 1, 0]], [1, 2, 3]),  # zero column allowed
    ([[2, 0, 1], [0, 3, 1]], [1, 1, 5]),
    ([[1, 0, -1, 0], [0, 1, 0, -1]], [1, 2, 3, 5]),
    ([[3]], [2]),
    ([[1, 3]], [7, 5]),
    ([[-2]], [1]),  # negative orthant
    ([[2, 0], [0, 1]], [1, 1]),  # gauge denominator 2 in two dimensions
    ([[2, 0], [0, 3]], [5, -7]),  # gauge denominator 6
    # octahedron: origin interior in three dimensions, rank 2^3
    ([[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]], [1] * 6),
]


def test_large_gauge_denominator_polynomial():
    matrix = validate_matrix([[2, 0], [0, 3]])
    P = NewtonPolytope(matrix)
    assert P.gauge_denominator == 6
    assert P.normalized_volume == 6
    kz = verify_kouchnirenko(matrix, [1, 1], P)
    assert list(kz.expected_polynomial.coeffs) == [1, 0, 1, 1, 1, 1, 0, 1]
    assert kz.top_dim == 6


def test_octahedron_rank_eight():
    rows = [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]]
    matrix = validate_matrix(rows)
    P = NewtonPolytope(matrix)
    assert P.normalized_volume == 8
    kz = verify_kouchnirenko(matrix, [1] * 6, P)
    assert kz.top_dim == 8 and kz.vanishing
    assert list(kz.expected_polynomial.coeffs) == [1, 3, 3, 1]
    dim, _ = h_top_dimension([0, 0, 0], [1] * 6, P)
    assert dim == 8


@pytest.mark.parametrize("rows,fiber", EXTRA_CASES)
def test_three_routes_agree(rows, fiber):
    matrix = validate_matrix(rows)
    P = NewtonPolytope(matrix)
    report = is_nondegenerate(matrix, fiber, P)
    assert report.overall, "expected these fibers to certify nondegenerate"
    kz = verify_kouchnirenko(matrix, fiber, P)
    dim, basis = h_top_dimension([0] * P.n, fiber, P)
    assert P.normalized_volume == kz.top_dim == dim
    assert len(kz.monomial_basis) == kz.top_dim
    assert basis.dimension == dim


def test_zero_column_contributes_nothing():
    matrix = validate_matrix([[1, 0, 0], [0, 1, 0]])
    P = NewtonPolytope(matrix)
    from gkzrank import log_derivative_classes

    gs = log_derivative_classes([1, 1, 7], None, P)
    exponents = {w for g in gs for w in g.terms}
    assert (0, 0) not in exponents


def test_options_truncation_cap():
    spec = ProblemSpec.from_json(
        {
            "matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
            "fiber": ["1", "2", "3", "4"],
            "options": {"truncation_cap": 1},
        }
    )
    with pytest.raises(TruncationTooSmall):
        run_subcommand("koszul", spec)


def _gauss_spec(**options):
    return ProblemSpec.from_json(
        {
            "matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
            "fiber": ["1", "2", "3", "4"],
            "options": options,
        }
    )


def test_truncation_cap_stays_with_its_run(monkeypatch):
    # An uncapped run started while a capped one is in progress must not
    # inherit the cap.
    inner = []
    certify = pipeline.is_nondegenerate

    def nested(*args):
        inner.append(run_subcommand("koszul", _gauss_spec()))
        return certify(*args)

    monkeypatch.setattr(pipeline, "is_nondegenerate", nested)
    with pytest.raises(TruncationTooSmall):
        run_analyze(_gauss_spec(truncation_cap=1))
    assert [r["top_dimension"] for r in inner] == [2]


def test_analyze_computes_each_object_once(monkeypatch):
    calls = {"certify_face": 0, "koszul": 0}
    certify_face = nondegeneracy.certify_face
    koszul_init = homology.GradedKoszulComplex.__init__

    def counted_certify(*args):
        calls["certify_face"] += 1
        return certify_face(*args)

    def counted_init(self, *args):
        calls["koszul"] += 1
        koszul_init(self, *args)

    monkeypatch.setattr(nondegeneracy, "certify_face", counted_certify)
    monkeypatch.setattr(homology.GradedKoszulComplex, "__init__", counted_init)
    body = run_analyze(_gauss_spec(), with_timings=False).to_json()
    assert body["rank_agreement"] is True
    assert calls == {
        "certify_face": len(body["nondegeneracy"]["faces"]),
        "koszul": 1,
    }


def test_derham_dims_reuse_the_kouchnirenko_result(monkeypatch, gauss):
    from gkzrank import derham_cohomology_dims

    matrix, P, fiber = gauss
    gamma = [0, 0, 0]
    kz = verify_kouchnirenko(matrix, fiber, P)
    expected = derham_cohomology_dims(gamma, fiber, P, level_cap=1)
    calls = {"certify_face": 0, "koszul": 0}
    certify_face = nondegeneracy.certify_face
    koszul_init = homology.GradedKoszulComplex.__init__

    def counted_certify(*args):
        calls["certify_face"] += 1
        return certify_face(*args)

    def counted_init(self, *args):
        calls["koszul"] += 1
        koszul_init(self, *args)

    monkeypatch.setattr(nondegeneracy, "certify_face", counted_certify)
    monkeypatch.setattr(homology.GradedKoszulComplex, "__init__", counted_init)
    dims = derham_cohomology_dims(gamma, fiber, P, level_cap=1, kouchnirenko=kz)
    assert dims == expected
    assert calls == {"certify_face": 0, "koszul": 0}


@pytest.mark.parametrize(
    "rows,fiber",
    [
        ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
        # rational normal curve, M = 1 with five columns
        ([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]], [1, 8, 2, 9, 3]),
    ],
)
def test_reduction_factors_each_degree_once(monkeypatch, rows, fiber):
    from gkzrank import connection_matrices

    P = NewtonPolytope(validate_matrix(rows))
    gamma = [0] * P.n
    _, basis = h_top_dimension(gamma, fiber, P)
    built, solved, steps = [], [], []
    echelon_init = linalg.Echelon.__init__
    echelon_solve = linalg.Echelon.solve_integer
    degree_data = derham.ReductionBasis._data

    def counted_init(self, m):
        built.append(self)
        echelon_init(self, m)

    def counted_solve(self, rhs):
        solved.append(self)
        return echelon_solve(self, rhs)

    def counted_data(self, e):
        steps.append(e)
        return degree_data(self, e)

    monkeypatch.setattr(linalg.Echelon, "__init__", counted_init)
    monkeypatch.setattr(linalg.Echelon, "solve_integer", counted_solve)
    monkeypatch.setattr(derham.ReductionBasis, "_data", counted_data)
    connection_matrices(gamma, fiber, basis)
    # Every reduction step solves once, against its degree's one factorization.
    assert len(solved) == len(steps) > len(set(steps)) == len(built)
    assert {id(e) for e in solved} == {id(e) for e in built}


def test_cohomology_ranks_each_map_once(monkeypatch, gauss):
    from gkzrank import derham_cohomology_dims, log_derivative_classes

    matrix, P, fiber = gauss
    kz = verify_kouchnirenko(matrix, fiber, P)
    seq = log_derivative_classes(fiber, None, P)
    cx = GradedKoszulComplex(kz.ring, seq, kz.truncation)
    ranked = []

    def counted_rank(m):
        ranked.append(m)
        return linalg.rank(m)

    monkeypatch.setattr(homology, "rank", counted_rank)
    dims = cx.cohomology_dims()
    assert dims[P.n]["total"] == kz.top_dim
    assert sorted(map(id, ranked)) == sorted(map(id, cx.diffs.values()))

    ranked.clear()
    # The twisted complex is a CochainComplexQ, ranked through homology.rank;
    # derham.rank is counted too, so a second ranking route would show.
    monkeypatch.setattr(derham, "rank", counted_rank)
    dims = derham_cohomology_dims([0] * P.n, fiber, P, level_cap=1, kouchnirenko=kz)
    assert len(ranked) == P.n
    assert all(dims[q] == 0 for q in range(P.n))
