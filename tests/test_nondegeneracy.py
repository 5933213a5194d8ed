import ast
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import gkzrank.homology as homology
from gkzrank import (
    FaceContainsOrigin,
    LogForm,
    NewtonPolytope,
    ReductionBasis,
    RingElement,
    ShapeMismatch,
    choose_spanning_subset,
    euler_operators,
    face_polynomial,
    is_nondegenerate,
    log_derivative_classes,
    normalize_gamma,
    twisted_differential,
    validate_matrix,
    verify_kouchnirenko,
)
from gkzrank.linalg import Echelon, SparseRationalMatrix, rank
from gkzrank.nondegeneracy import certify_face
from gkzrank.rings import ConeRing, leading_classes, sequence_image
from conftest import FIXTURES, face_with_vertices, kouchnirenko_scan
from test_cli import GOLDEN_SPECS
from test_rings import (
    KERNEL_POLYTOPES, _class_cases, _ref_face_quotient_dims, _seeded_fiber,
)

GAUSS = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]


class TestFacePolynomial:
    def test_single_monomial(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = face_with_vertices(P, [(2,)])
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
        face = face_with_vertices(P, [(2,)])
        assert face_polynomial([1, 0], face, P).is_zero()

    def test_duplicate_columns_sum(self):
        P = NewtonPolytope(validate_matrix([[2, 2]]))
        face = face_with_vertices(P, [(2,)])
        assert face_polynomial([1, -1], face, P).is_zero()
        assert face_polynomial([1, 2], face, P) == RingElement(
            {(2,): Fraction(3)}
        )

    def test_origin_face_rejected(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        origin_face = face_with_vertices(P, [(0,)])
        with pytest.raises(FaceContainsOrigin):
            face_polynomial([1, 1], origin_face, P)


class TestChooseSpanningSubset:
    def test_rank_one(self):
        P = NewtonPolytope(validate_matrix([[2]]))
        face = face_with_vertices(P, [(2,)])
        assert choose_spanning_subset([1], face, P) == (1,)

    def test_gauss_square_full_rank(self, gauss):
        _, P, _ = gauss
        square = P.index_set(2)[0]
        assert choose_spanning_subset([1, 1, 1, 1], square, P) == (1, 2, 3)

    def test_deficient(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        face = face_with_vertices(P, [(2,)])
        assert choose_spanning_subset([1, 0], face, P) is None

    def test_edge_rank_two(self, gauss):
        _, P, _ = gauss
        edge = face_with_vertices(P, [(1, 0, 0), (1, 1, 0)])
        chosen = choose_spanning_subset([1, 2, 3, 4], edge, P)
        assert chosen is not None and len(chosen) == 2


class TestIsNondegenerate:
    def test_wrong_length_fiber_or_gamma_is_rejected(self, gauss):
        # The stages and the operators share one length check with gamma.
        matrix, P, _ = gauss
        for call, length, expected in (
            (lambda: is_nondegenerate([1, 2, 3], P), 3, 4),
            (lambda: log_derivative_classes([1, 2, 3], None, P), 3, 4),
            (lambda: face_polynomial([1, 2, 3], P.index_set(2)[0], P), 3, 4),
            (lambda: euler_operators(matrix, [0, 0]), 2, 3),
        ):
            message = f"length {length}, expected {expected}"
            with pytest.raises(ShapeMismatch, match=message):
                call()

    def test_exponent_strings_are_refused(self, gauss):
        # A gamma or fiber entry is read by the problem files' one rule: an
        # int that is not a bool, a Fraction, or a string of the one grammar,
        # which has no exponents.  Fraction would write out every digit of
        # "1e99999999" or of Decimal("1e1000000") before any stage could
        # start, and reads 0.1 as 3602879701896397/36028797018963968 and
        # True as 1; each is refused at once at every stage entry point.
        matrix, P, fiber = gauss
        kz = verify_kouchnirenko(is_nondegenerate(fiber, P))
        for entry in ("1e5", 0.1, True, Decimal("1e1000000")):
            for call in (
                lambda: is_nondegenerate([entry, "2", "3", "4"], P),
                lambda: normalize_gamma([entry, "0", "0"], P),
                lambda: ReductionBasis(["0", entry, "0"], kz),
                lambda: euler_operators(matrix, ["0", "0", entry]),
                lambda: twisted_differential(
                    [0, 0, 0], [1, entry, 3, 4], LogForm(3, 0), P
                ),
            ):
                start = perf_counter()
                message = f"^cannot parse rational from {re.escape(repr(entry))}$"
                with pytest.raises(ValueError, match=message):
                    call()
                assert perf_counter() - start < 1, entry
        assert is_nondegenerate(["1/2", " 2", "3.5", "-4"], P).overall
        assert is_nondegenerate([Fraction(1, 2), 2, Fraction(7, 2), -4], P).overall

    def test_interval_examples(self):
        P = NewtonPolytope(validate_matrix([[1, 2]]))
        assert is_nondegenerate([0, 1], P).overall
        assert is_nondegenerate([1, 1], P).overall
        assert not is_nondegenerate([1, 0], P).overall

    def test_gauss_unit_fiber_degenerate(self, gauss):
        _, P, _ = gauss
        report = is_nondegenerate([1, 1, 1, 1], P)
        assert not report.overall
        offenders = report.offending_faces()
        square = P.index_set(2)[0]
        assert [c.face_id for c in offenders] == [square.id]

    def test_gauss_generic_fiber(self, gauss):
        _, P, fiber = gauss
        report = is_nondegenerate(fiber, P)
        assert report.overall
        assert all(c.verdict == "finite" for c in report.certificates)

    def test_scanned_faces_are_origin_free(self, polytopes):
        for name, (_, P, fiber) in polytopes.items():
            report = is_nondegenerate(fiber, P)
            scanned = {c.face_id for c in report.certificates}
            expected = {f.id for f in P.origin_free_faces()}
            assert scanned == expected

    def test_vanishing_vertex_coefficient_degenerate(self, gauss):
        # Killing the coefficient on any nonzero vertex kills that vertex's
        # face polynomial outright.
        _, P, _ = gauss
        for j in range(4):
            fiber = [1, 1, 1, 1]
            fiber[j] = 0
            assert not is_nondegenerate(fiber, P).overall

    def test_scaling_invariance_spot(self, polytopes):
        for name, (_, P, fiber) in polytopes.items():
            base = is_nondegenerate(fiber, P).overall
            scaled = is_nondegenerate(
                [Fraction(-7, 3) * Fraction(c) for c in fiber], P
            ).overall
            assert base == scaled

    def test_consistency_with_koszul(self, gauss):
        # A degenerate verdict must show up as a failed scan signal.
        _, P, _ = gauss
        result = kouchnirenko_scan(P, [1, 1, 1, 1])
        poly = result.expected_polynomial
        mismatch = any(
            result.per_degree.get(d, 0) != poly.coeff(d)
            for d in range(result.truncation + 1)
        )
        assert mismatch or not result.vanishing

    def test_report_serialization(self, gauss):
        _, P, _ = gauss
        data = is_nondegenerate([1, 1, 1, 1], P).to_json()
        assert data["overall"] is False
        bad = [f for f in data["faces"] if f["verdict"] == "infinite"]
        assert bad and bad[0]["quotient_dims"] != bad[0]["expected_dims"]


class TestCertificateShape:
    def test_finite_certificates_match_polynomial(self, gauss):
        _, P, fiber = gauss
        report = is_nondegenerate(fiber, P)
        for cert in report.certificates:
            assert cert.verdict == "finite"
            assert cert.quotient_dims == cert.expected_dims
            assert cert.bound_used == len(cert.quotient_dims) - 1


# -- the shift lemma ---------------------------------------------------------


def _rank_every_degree(ring, gs, bound):
    """The face quotient ranked in every degree of the window: the oracle."""
    M = ring.gauge_denominator
    dims = []
    for d in range(bound + 1):
        image = sequence_image(ring, gs, M, d)
        dims.append(image.rows - rank(image))
    return tuple(dims)


def _ref_spanning_subset(gs, face):
    """The first face.dim + 1 pivot columns of the exponent x class matrix,
    the classes' own support as rows, or None."""
    exps = sorted({w for g in gs for w in g})
    index = {w: r for r, w in enumerate(exps)}
    entries = {(index[w], i): c for i, g in enumerate(gs) for w, c in g.items()}
    pivots = Echelon(SparseRationalMatrix(len(exps), len(gs), entries)).pivots
    if len(pivots) <= face.dim:
        return None
    return tuple(j + 1 for _, j, _ in pivots[: face.dim + 1])


def test_spanning_subset_matches_the_exponent_by_class_pivots():
    # The degree-M slice holds every exponent of the classes, with more rows
    # that are zero in every class; pivot columns do not depend on the rows.
    # A zero coefficient on a vertex leaves that vertex no class: None.
    cases = [(name, m, f) for name, (m, f) in FIXTURES.items()] + list(_class_cases())
    for j in range(4):
        cases.append((f"gauss-zero-{j}", GAUSS, [int(i != j) for i in range(4)]))
    polytopes = [(name, NewtonPolytope(validate_matrix(m)), f) for name, m, f in cases]
    for i, P in enumerate(KERNEL_POLYTOPES):
        polytopes.append((f"kernel-{i}", P, _seeded_fiber(P, i)))
    seen = {"chosen": 0, "none": 0}
    for name, P, fiber in polytopes:
        fiber = [Fraction(c) for c in fiber]
        for face in P.origin_free_faces():
            chosen = certify_face(fiber, face, P).spanning_indices or None
            gs, _ = leading_classes(ConeRing(P, face), fiber)
            assert chosen == _ref_spanning_subset(gs, face), (name, face.id)
            seen["none" if chosen is None else "chosen"] += 1
    assert seen["chosen"] > 1000 and seen["none"] >= 4, seen


def test_one_facet_certificate_from_the_koszul_counts_is_the_ranked_one():
    # With one origin-free facet, the facet's cone is the full cone: its
    # certificate's counts are the full cone's Koszul counts, which the
    # report carries to the Koszul stage.  The certificate matches the
    # ranked references; nondegenerate and degenerate fibers, and two facets
    # with no spanning subset: Gauss with fiber (1, 0, 0, 0) and the vertex
    # whose repeated column cancels.
    cases = list(_class_cases()) + [("gauss-no-span", GAUSS, [1, 0, 0, 0])]
    seen = {"finite": 0, "infinite": 0, "no-span": 0, "multi-facet": 0}
    for name, rows, fiber in cases:
        P = NewtonPolytope(validate_matrix(rows))
        report = is_nondegenerate([Fraction(c) for c in fiber], P)
        facets = P.index_set(P.n - 1)
        if len(facets) > 1:
            assert report.kouchnirenko is None, name
            assert all(c.kouchnirenko is None for c in report.certificates), name
            seen["multi-facet"] += 1
            continue
        (facet,) = facets
        (got,) = [c for c in report.certificates if c.face_id == facet.id]
        assert [c for c in report.certificates if c.kouchnirenko] == [got], name
        kz = report.kouchnirenko
        assert got.kouchnirenko is kz and kz.truncation == got.bound_used, name
        ring = ConeRing(P, facet)
        gs, _ = leading_classes(ring, report.fiber)
        chosen = _ref_spanning_subset(gs, facet)
        assert got.spanning_indices == (chosen or ()), name
        if chosen:
            want = _ref_face_quotient_dims(ring, gs, got.bound_used)
            assert got.quotient_dims == want, name
        # The facet ring's counts are those of the full cone's ring.
        full = kouchnirenko_scan(P, report.fiber)
        assert (kz.classes, kz.scale, kz.expected_polynomial, kz.truncation) == (
            full.classes, full.scale, full.expected_polynomial, full.truncation
        ), name
        assert (kz.vanishing, kz.per_degree, kz.monomial_basis) == (
            full.vanishing, full.per_degree, full.monomial_basis
        ), name
        if report.overall:
            assert verify_kouchnirenko(report) is kz, name
        seen["no-span" if not got.spanning_indices else got.verdict] += 1
    assert seen["finite"] >= 100 and seen["infinite"] >= 30, seen
    assert seen["no-span"] == 2 and seen["multi-facet"] >= 40, seen


def _factored_degrees(monkeypatch):
    """The degrees each top slice is imaged at and the factorizations, as
    they are made."""
    images, factored = [], []

    def recorded(ring, gs, M, d):
        images.append(d)
        return sequence_image(ring, gs, M, d)

    def counted(m):
        factored.append(m)
        return Echelon(m)

    monkeypatch.setattr(homology, "sequence_image", recorded)
    monkeypatch.setattr(homology, "Echelon", counted)
    return images, factored


class TestShiftLemma:
    def test_matches_ranking_every_degree(self):
        # Nondegenerate and degenerate faces alike: the counts read off the
        # factored slices are the quotient by the spanning subset, ranked in
        # every degree of the window.
        seen = {"vanishing": 0, "surviving": 0}
        for name, rows, fiber in _class_cases():
            P = NewtonPolytope(validate_matrix(rows))
            fiber = [Fraction(c) for c in fiber]
            for face in P.origin_free_faces():
                cert = certify_face(fiber, face, P)
                if not cert.spanning_indices:
                    continue
                ring = ConeRing(P, face)
                gs, _ = leading_classes(ring, fiber)
                chosen = [gs[i - 1] for i in cert.spanning_indices]
                want = _rank_every_degree(ring, chosen, cert.bound_used)
                assert cert.quotient_dims == want, (name, face.id)
                seen["surviving" if want[-1] else "vanishing"] += 1
        assert seen["vanishing"] > 100 and seen["surviving"] > 5, seen

    def test_top_degrees_of_simplex_points_facet_are_not_ranked(self, monkeypatch):
        spec = GOLDEN_SPECS["simplex-points-3"]
        images, factored = _factored_degrees(monkeypatch)
        P = NewtonPolytope(validate_matrix(spec["matrix"]))
        (facet,) = [f for f in P.origin_free_faces() if f.dim == P.n - 1]
        cert = certify_face([Fraction(c) for c in spec["fiber"]], facet, P)
        # The window ends at the numerator's degree 2 plus M = 1: degrees 4
        # and 5, which the shift lemma proved zero unranked when the window
        # ran to 2 + k * M, are not read at all.  Each degree from M to the
        # window is imaged and factored once; degree M's slice also gives the
        # spanning subset.
        assert (cert.verdict, cert.bound_used) == ("finite", 3)
        assert cert.quotient_dims == (1, 7, 1, 0)
        assert images == [1, 2, 3] and len(factored) == 3

    def test_degenerate_tail_is_ranked(self, monkeypatch):
        # Gauss with the product fiber (1, a, b, ab): the facet quotient never
        # vanishes, and every degree from M to the window is factored once.
        images, factored = _factored_degrees(monkeypatch)
        P = NewtonPolytope(validate_matrix(GAUSS))
        (facet,) = [f for f in P.origin_free_faces() if f.dim == P.n - 1]
        cert = certify_face([1, 2, 3, 6], facet, P)
        assert (cert.verdict, cert.failure_degree) == ("infinite", 2)
        assert cert.quotient_dims == (1, 1, 1)
        assert images == list(range(1, cert.bound_used + 1)) == [1, 2]
        assert len(factored) == 2


def test_nondegeneracy_reads_no_private_attribute_of_another_object():
    # A certificate is read off the public counts of a KouchnirenkoResult,
    # never off its factored slices or their column layout.
    import gkzrank.nondegeneracy as nondegeneracy

    tree = ast.parse(Path(nondegeneracy.__file__).read_text(encoding="utf-8"))
    private = [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert private == []
