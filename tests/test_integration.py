"""Cross-route agreement on matrices beyond the named fixtures."""

from collections import Counter
from fractions import Fraction as F

import pytest

from gkzrank import derham, homology, linalg, nondegeneracy, oracles, pipeline
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
from gkzrank.rings import integral_classes

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
    # classes with different denominators: c_1 = 4, c_2 = 3
    ([[1, 0, -1, 0], [0, 1, 0, -1]], [F(1, 2), F(2, 3), F(3, 4), 5]),
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
    # Each face is certified once, and the lower Koszul vanishing is read
    # off the top slices: no Koszul complex is built and no map multiplied.
    calls = {"certify_face": 0, "koszul": 0, "matmul": 0}
    certify_face = nondegeneracy.certify_face
    koszul_init = homology.GradedKoszulComplex.__init__
    matmul = linalg.SparseRationalMatrix.matmul

    def counted_certify(*args):
        calls["certify_face"] += 1
        return certify_face(*args)

    def counted_init(self, *args):
        calls["koszul"] += 1
        koszul_init(self, *args)

    def counted_matmul(self, other):
        calls["matmul"] += 1
        return matmul(self, other)

    monkeypatch.setattr(nondegeneracy, "certify_face", counted_certify)
    monkeypatch.setattr(homology.GradedKoszulComplex, "__init__", counted_init)
    monkeypatch.setattr(linalg.SparseRationalMatrix, "matmul", counted_matmul)
    body = run_analyze(_gauss_spec(), with_timings=False).to_json()
    assert body["rank_agreement"] is True and body["koszul"]["vanishing"] is True
    assert calls == {
        "certify_face": len(body["nondegeneracy"]["faces"]),
        "koszul": 0,
        "matmul": 0,
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


GAUSS_AND_NORMAL_CURVE = [
    ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
    # rational normal curve, M = 1 with five columns
    ([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]], [1, 8, 2, 9, 3]),
]


@pytest.mark.parametrize("rows,fiber", GAUSS_AND_NORMAL_CURVE)
def test_top_maps_are_ranked_off_their_slices(monkeypatch, rows, fiber):
    # Every Koszul count is read off the factored top slices: each top
    # degree from M to the truncation is imaged and factored exactly once,
    # and nothing else is ranked or factored on the way.
    matrix = validate_matrix(rows)
    P = NewtonPolytope(matrix)
    ranked, factored, images = [], [], []
    rank = linalg.rank
    make = homology.Echelon
    image = homology.sequence_image

    def counted_image(ring, sequence, step, d):
        images.append(d)
        return image(ring, sequence, step, d)

    def counted_rank(m):
        ranked.append(m)
        return rank(m)

    def counted_echelon(m):
        factored.append(make(m))
        return factored[-1]

    for module in (linalg, nondegeneracy, derham, oracles):
        monkeypatch.setattr(module, "rank", counted_rank)
    monkeypatch.setattr(homology, "Echelon", counted_echelon)
    monkeypatch.setattr(homology, "sequence_image", counted_image)
    kz = verify_kouchnirenko(matrix, fiber, P, require_nondegenerate=False)
    monkeypatch.undo()
    M = P.gauge_denominator
    assert set(Counter(images).values()) == {1} and set(kz._slices) == set(images)
    assert set(range(M, kz.truncation + 1)) <= set(kz._slices)
    assert [id(e) for e in factored] == [id(s[2]) for s in kz._slices.values()]
    assert ranked == []
    # The counts read off the slices are those of the full complex.
    seq, _ = integral_classes(kz.sequence)
    cx = GradedKoszulComplex(kz.ring, seq, kz.truncation)
    full = cx.cohomology_dims()
    assert kz.vanishing is all(full[q]["total"] == 0 for q in range(cx.m))
    assert full[cx.m] == {"per_degree": kz.per_degree, "total": kz.top_dim}


def test_koszul_maps_and_slices_hold_integers(monkeypatch):
    # The gauss-rational fiber gives classes with denominators; the
    # matrices built from them hold ints all the same.
    matrix = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    P = NewtonPolytope(matrix)
    fiber = [F(1, 2), 2, F(-3, 4), F(5, 3)]
    matrices = []

    def recorded_image(*args):
        matrices.append(image(*args))
        return matrices[-1]

    def recorded_echelon(m):
        matrices.append(m)
        return make(m)

    image, make = homology.sequence_image, homology.Echelon
    for module in (homology, nondegeneracy):
        monkeypatch.setattr(module, "sequence_image", recorded_image)
        monkeypatch.setattr(module, "Echelon", recorded_echelon)
    kz = verify_kouchnirenko(matrix, fiber, P)
    assert any(c.denominator > 1 for g in kz.sequence for c in g.terms.values())
    assert len(matrices) > 2 * len(kz._slices)
    assert all(type(v) is int for m in matrices for v in m.entries.values())


@pytest.mark.parametrize("rows,fiber", GAUSS_AND_NORMAL_CURVE)
def test_reduction_factors_each_degree_once(monkeypatch, rows, fiber):
    from gkzrank import connection_matrices

    matrix = validate_matrix(rows)
    P = NewtonPolytope(matrix)
    gamma = [0] * P.n
    factored, degrees, solved = [], [], []
    make = homology.Echelon
    step = derham.ReductionBasis._step
    column_solve = linalg.Echelon.solve_column

    def counted_echelon(m):
        factored.append(make(m))
        return factored[-1]

    def counted_step(self, w):
        degrees.append(P.graded_degree(w))
        return step(self, w)

    def counted_solve(self, c):
        solved.append((degrees[-1], self))
        return column_solve(self, c)

    monkeypatch.setattr(homology, "Echelon", counted_echelon)
    monkeypatch.setattr(derham.ReductionBasis, "_step", counted_step)
    monkeypatch.setattr(linalg.Echelon, "solve_column", counted_solve)
    kz = verify_kouchnirenko(matrix, fiber, P)
    basis_degrees = set(kz._slices)
    _, basis = h_top_dimension(gamma, fiber, P, kouchnirenko=kz)
    connection_matrices(gamma, fiber, basis)
    slices = {d: data[2] for d, data in kz._slices.items()}
    # The basis and the reduction share one factorization per degree.
    assert [id(e) for e in factored] == [id(e) for e in slices.values()]
    assert basis_degrees & {d for d, _ in solved}
    # Every reduction step solves once, against its own degree's slice.
    assert len(solved) == len(degrees) > len(set(degrees))
    assert all(e is slices[d] for d, e in solved)


@pytest.mark.parametrize("rows,fiber", EXTRA_CASES)
def test_solve_top_rewrites_each_monomial(rows, fiber):
    # D * t^w is the sum of the unit terms and of the sequence products
    # that solve_top reports, and only basis monomials appear as units.
    matrix = validate_matrix(rows)
    P = NewtonPolytope(matrix)
    kz = verify_kouchnirenko(matrix, fiber, P)
    ring, basis = kz.ring, set(kz.monomial_basis)
    for d in range(kz.truncation + 1):
        assert kz.top_basis(d) == [w for w in kz.monomial_basis if P.graded_degree(w) == d]
        for w in ring.monomials_of_degree(d):
            units, images, D = kz.solve_top(w)
            assert D > 0 and set(units) <= basis
            total = dict(units)
            for i, v, x in images:
                for u, c in kz.sequence[i].terms.items():
                    prod = ring.multiply_monomials(u, v)
                    if prod is not None:
                        total[prod] = total.get(prod, 0) + x * c
            assert {u: c for u, c in total.items() if c} == {w: D}


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

    monkeypatch.setattr(oracles, "rank", counted_rank)
    dims = cx.cohomology_dims()
    assert dims[P.n]["total"] == kz.top_dim
    assert sorted(map(id, ranked)) == sorted(map(id, cx.diffs.values()))

    ranked.clear()
    # The twisted complex is a CochainComplexQ, ranked through oracles.rank;
    # derham.rank is counted too, so a second ranking route would show.
    monkeypatch.setattr(oracles, "rank", counted_rank)
    monkeypatch.setattr(derham, "rank", counted_rank)
    dims = derham_cohomology_dims([0] * P.n, fiber, P, level_cap=1, kouchnirenko=kz)
    assert len(ranked) == P.n
    assert all(dims[q] == 0 for q in range(P.n))
