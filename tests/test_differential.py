"""Seeded differential sweep: the three rank routes on random small problems.

Every nondegenerate draw must give the same rank by normalized volume, top
Koszul cohomology and the de Rham cokernel, with the lower Koszul
cohomology zero; a degenerate draw is an answer, not an error.  Two
families with closed-form ranks pin the common value itself.  On the same
draws, degenerate fibers included, the Koszul counts read off the top
slices are compared with the full complex, each face cone's slices with
the full slices filtered by face-cone membership, the face certificates with
certificates over the longer window numerator degree + k * M, the column
solves of the top slices with a ``Fraction`` elimination, and the de Rham
normal forms with a reduction that subtracts whole images.
"""

import random
import warnings
from fractions import Fraction as F

import pytest
from conftest import FIXTURES, GAUSS_ROWS, kouchnirenko_scan
from test_derham import _reference_reduce
from test_exact_core import _FractionEchelon
from test_nondegeneracy import _ref_spanning_subset
from test_properties import PROPERTY_MATRICES

from gkzrank import (
    GradedKoszulComplex,
    KouchnirenkoResult,
    LogForm,
    NewtonPolytope,
    ProblemSpec,
    RankDeficient,
    RingElement,
    connection_matrices,
    h_top_dimension,
    is_nondegenerate,
    run_analyze,
    validate_matrix,
)
from gkzrank.linalg import rank
from gkzrank.oracles import face_cone_contains
from gkzrank.rings import ConeRing, cone_numerator, leading_classes, sequence_image

# Cost caps on a draw's normalized volume, by dimension, which keep the
# whole sweep near a second.
VOLUME_CAP = {1: 4, 2: 8, 3: 12}


def _analyze(rows, fiber):
    spec = ProblemSpec.from_json({"matrix": rows, "fiber": [str(c) for c in fiber]})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_analyze(spec, with_timings=False).to_json()


def _draws(seed, count):
    """Full-rank A with n <= 3, N <= n + 3 and entries in [-2, 2], with a
    random positive fiber."""
    rnd = random.Random(seed)
    while count:
        n = rnd.randint(1, 3)
        num_columns = rnd.randint(n, n + 3)
        rows = [[rnd.randint(-2, 2) for _ in range(num_columns)] for _ in range(n)]
        fiber = [rnd.randint(1, 9) for _ in range(num_columns)]
        try:
            volume = NewtonPolytope(validate_matrix(rows)).normalized_volume
        except RankDeficient:
            continue
        if volume <= VOLUME_CAP[n]:
            count -= 1
            yield rows, fiber, volume


def test_random_draws_agree_on_the_rank():
    dims = set()
    for rows, fiber, volume in _draws(2026, 40):
        report = _analyze(rows, fiber)
        assert report["polytope"]["normalized_volume"] == volume
        if report["koszul"] is None:
            continue
        dims.add(len(rows))
        assert report["rank_agreement"] is True, rows
        assert report["koszul"]["vanishing"] is True, rows
        assert report["koszul"]["top_dimension"] == volume, rows
    assert dims == {1, 2, 3}


def _cross_polytope(n):
    return [
        [1 if j == 2 * i else -1 if j == 2 * i + 1 else 0 for j in range(2 * n)]
        for i in range(n)
    ]


def _dilated_simplex(n, k):
    return [[k if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize(
    "rows,rank",
    [(_cross_polytope(n), 2**n) for n in (1, 2, 3)]
    + [(_dilated_simplex(n, k), k**n) for n in (1, 2, 3) for k in (2, 3)],
)
def test_closed_form_ranks(rows, rank):
    fiber = [1, 2, 3, 5, 7, 11][: len(rows[0])]
    report = _analyze(rows, fiber)
    assert report["rank_agreement"] is True
    assert report["koszul"]["vanishing"] is True
    assert report["derham"]["dimension"] == rank


# Fibers degenerate by construction: the Gauss product fiber (1, a, b, ab),
# whose square face polynomial factors; (1, 2a, a^2) on a collinear edge, a
# perfect square there, alone and inside a 3-D polytope; and a zero fiber,
# whose classes are all zero.
DEGENERATE = [
    (GAUSS_ROWS, [1, 2, 3, 6]),
    ([[1, 1, 1], [0, 1, 2]], [1, 6, 9]),
    ([[1, 1, 1, 1], [0, 1, 2, 0], [0, 0, 0, 1]], [1, 4, 4, 5]),
    ([[1, 2]], [0, 0]),
]


def _differential_cases():
    """The Tier-1 fixtures, the seeded draws above and the degenerate fibers."""
    yield from FIXTURES.values()
    yield from ((rows, fiber) for rows, fiber, _ in _draws(2026, 40))
    yield from DEGENERATE


def _full_complex_counts(kz):
    """(vanishing, per_degree, top_dim) of the full graded Koszul complex."""
    seq = [RingElement(g) for g in kz.classes]
    cx = GradedKoszulComplex(kz.ring, seq, kz.truncation)
    dims = cx.cohomology_dims()
    lower = all(dims[q]["total"] == 0 for q in range(cx.m))
    return lower, dims[cx.m]["per_degree"], dims[cx.m]["total"]


def test_nested_criterion_matches_the_full_koszul_complex():
    seen = []
    for rows, fiber in _differential_cases():
        kz = kouchnirenko_scan(NewtonPolytope(validate_matrix(rows)), fiber)
        want = _full_complex_counts(kz)
        got = (kz.vanishing, kz.per_degree, kz.top_dim)
        assert got == want, (rows, fiber)
        seen.append(kz.vanishing)
    assert seen.count(False) >= len(DEGENERATE) and seen.count(True) > 30


@pytest.mark.parametrize("rows,fiber", list(FIXTURES.values()) + DEGENERATE)
def test_nested_criterion_matches_at_every_truncation(rows, fiber):
    # The criterion is checked in every degree up to D, the full complex
    # certifies its lower degrees d with d + M <= D: the two agree at any D.
    kz = kouchnirenko_scan(NewtonPolytope(validate_matrix(rows)), fiber)
    for truncation in range(kz.truncation + 2):
        cut = KouchnirenkoResult(kz.ring, kz.fiber, kz.expected_polynomial, truncation)
        want = _full_complex_counts(cut)
        assert (cut.vanishing, cut.per_degree, cut.top_dim) == want, truncation


def test_face_slices_match_the_filtered_full_slices():
    # The old route to a face cone's slice, kept as the reference: the full
    # cone's slice filtered by face-cone membership.  The face's own tiling
    # must list the same sorted points in every degree through the face's
    # window, on a polytope that has listed no full slice.
    cases = list(_differential_cases()) + list(PROPERTY_MATRICES.values())
    faces = multi_piece = 0
    for rows, _ in cases:
        P, ref = (NewtonPolytope(validate_matrix(rows)) for _ in range(2))
        M = P.gauge_denominator
        for face, ref_face in zip(P.origin_free_faces(), ref.origin_free_faces()):
            window = cone_numerator(P, face)[0].degree + M
            for d in range(window + 1):
                got = P.points_of_degree(d, face)
                assert got == tuple(
                    w for w in ref.points_of_degree(d)
                    if face_cone_contains(ref, w, ref_face)
                ), (rows, face.id, d)
                assert all(P.graded_degree(w) == d for w in got)
            faces += 1
            multi_piece += len(P.cone_pieces(face)) > 1
    assert faces > 200 and multi_piece >= 3


def _certify_over_the_long_window(fiber, face, P):
    """(verdict, failure degree, spanning indices, quotient dims, expected
    dims) of one face over the window numerator degree + k * M that
    ``certify_face`` read before the shift lemma cut it short, with every
    degree ranked."""
    numerator, k = cone_numerator(P, face)
    M = P.gauge_denominator
    bound = numerator.degree + k * M
    expected = tuple(numerator.coeff(d) for d in range(bound + 1))
    ring = ConeRing(P, face)
    gs, _ = leading_classes(ring, fiber)
    chosen = _ref_spanning_subset(gs, face)
    if chosen is None:
        return "infinite", None, (), (), expected
    gs = [gs[i - 1] for i in chosen]
    dims = []
    for d in range(bound + 1):
        image = sequence_image(ring, gs, M, d)
        dims.append(image.rows - rank(image))
    mismatches = (d for d, (got, want) in enumerate(zip(dims, expected)) if got != want)
    failure = next(mismatches, None)
    verdict = "finite" if failure is None else "infinite"
    return verdict, failure, chosen, tuple(dims), expected


def test_face_windows_end_at_numerator_degree_plus_m():
    # M zero degrees past the numerator's degree persist (the shift lemma),
    # so the short window decides every face as the long one does.
    verdicts = []
    for rows, fiber in _differential_cases():
        P = NewtonPolytope(validate_matrix(rows))
        fiber = [F(c) for c in fiber]
        report = is_nondegenerate(fiber, P)
        for face, cert in zip(P.origin_free_faces(), report.certificates):
            verdict, failure, chosen, dims, expected = _certify_over_the_long_window(
                fiber, face, P
            )
            assert (cert.verdict, cert.failure_degree, cert.spanning_indices) == (
                verdict, failure, chosen
            ), (rows, fiber, face.id)
            numerator, _ = cone_numerator(P, face)
            assert cert.bound_used == numerator.degree + P.gauge_denominator
            assert cert.expected_dims == expected[: cert.bound_used + 1]
            assert cert.quotient_dims == dims[: len(cert.quotient_dims)]
            verdicts.append((verdict, failure is None, bool(chosen)))
    # Finite faces, mismatches and deficient spanning sets all occur.
    assert set(verdicts) == {
        ("finite", True, True), ("infinite", False, True), ("infinite", True, False)
    }


def test_column_solves_and_normal_forms_match_their_references():
    # Every unit column of every top slice, solved over the pivot columns,
    # is the solution of [G | I] x = e_r with free variables zero that a
    # Fraction elimination finds; and on each nondegenerate fiber
    # every normal form the connection matrices need is the one found by
    # subtracting whole twisted images, one fresh system per degree.
    slices = forms = 0
    for rows, fiber in _differential_cases():
        P = NewtonPolytope(validate_matrix(rows))
        kz = kouchnirenko_scan(P, fiber)
        for d in range(P.gauge_denominator, kz.truncation + 1):
            echelon = kz._top_slice(d)[2]
            m = echelon._matrix
            ref = _FractionEchelon(m)
            width = m.cols - m.rows
            for r in range(m.rows):
                X, D = echelon.solve_column(width + r)
                x = [F(X.get(j, 0), D) for j in range(m.cols)]
                assert x == ref.solve({r: 1}), (rows, fiber, d, r)
            slices += 1
        if not is_nondegenerate(fiber, P).overall:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, basis = h_top_dimension([0] * P.n, kz)
            connection_matrices(basis)
            for w in basis.normal_forms:
                top = LogForm.monomial(P.n, range(P.n), w)
                assert basis.reduce_monomial(w) == _reference_reduce(basis, top)
                forms += 1
    assert slices > 200 and forms > 500
