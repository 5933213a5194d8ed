"""Acceptance criteria, one test per criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
All assertions are exact; the timing budgets are generous upper bounds.
"""

import time
import warnings
from fractions import Fraction

import test_properties as props
from conftest import face_with_vertices

from gkzrank import (
    GammaNotNormalized,
    NewtonPolytope,
    check_face_complex_exactness,
    connection_matrices,
    h_top_dimension,
    is_nondegenerate,
    lattice_kernel,
    render_box,
    validate_matrix,
    verify_kouchnirenko,
)
from gkzrank.cli import main
from gkzrank.operators import euler_operators
from gkzrank.oracles import in_kernel_lattice

F = Fraction

FIXTURES = [
    ("[[1]]", [[1]], [1], 1),
    ("[[2]]", [[2]], [1], 2),
    ("[[1,2]]", [[1, 2]], [1, 1], 2),
    ("[[-1,1]]", [[-1, 1]], [1, 1], 2),
    ("gauss", [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4], 2),
]


def verdict(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {label}{suffix}")
    assert ok, f"criterion {number}: {label}{suffix}"


def test_criterion_1_rank_triple_agreement():
    details = []
    ok = True
    for name, rows, fiber, expected in FIXTURES:
        t0 = time.perf_counter()
        P = NewtonPolytope(validate_matrix(rows))
        vol = P.normalized_volume
        kz = verify_kouchnirenko(is_nondegenerate(fiber, P))
        dim, _ = h_top_dimension([0] * P.n, kz)
        elapsed = time.perf_counter() - t0
        agree = vol == kz.top_dim == dim == expected
        ok = ok and agree and elapsed < 10.0
        details.append(f"{name}: vol={vol} koszul={kz.top_dim} derham={dim} {elapsed:.2f}s")
    verdict(1, "rank triple agreement on all fixtures", ok, "; ".join(details))


def test_criterion_2_kouchnirenko_vanishing():
    t0 = time.perf_counter()
    ok = True
    for name, rows, fiber, _ in FIXTURES:
        P = NewtonPolytope(validate_matrix(rows))
        result = verify_kouchnirenko(is_nondegenerate(fiber, P))
        ok = ok and result.vanishing
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    verdict(2, "lower Koszul cohomology vanishes within truncation", ok,
            f"total {elapsed:.2f}s")


def test_criterion_3_poincare_identity():
    ok = True
    details = []
    for name, rows, fiber, _ in FIXTURES:
        P = NewtonPolytope(validate_matrix(rows))
        result = verify_kouchnirenko(is_nondegenerate(fiber, P))
        poly = result.expected_polynomial
        match = all(
            result.per_degree.get(d, 0) == poly.coeff(d)
            for d in range(result.truncation + 1)
        )
        ok = ok and match
        if name in ("[[2]]", "[[-1,1]]", "gauss"):
            ok = ok and list(poly.coeffs) == [1, 1]
        details.append(f"{name}: {poly}")
    verdict(3, "per-degree top dimensions match the series polynomial", ok,
            "; ".join(details))


def test_criterion_4_face_complex_exactness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for name, rows, fiber, _ in FIXTURES:
        P = NewtonPolytope(validate_matrix(rows))
        report = check_face_complex_exactness(P, 6)
        ok = ok and report.ok
        details.append(f"{name}: {report.weights_checked} weights")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    verdict(4, "facial complex exact for all weights up to 6", ok,
            f"{'; '.join(details)}; total {elapsed:.2f}s")


def test_criterion_5_degeneracy_detection(tmp_path):
    import json

    gauss_rows = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
    P = NewtonPolytope(validate_matrix(gauss_rows))
    report = is_nondegenerate([1, 1, 1, 1], P)
    square = P.index_set(2)[0]
    gauss_ok = (not report.overall) and [
        c.face_id for c in report.offending_faces()
    ] == [square.id]

    P2 = NewtonPolytope(validate_matrix([[1, 2]]))
    report2 = is_nondegenerate([1, 0], P2)
    vertex = face_with_vertices(P2, [(2,)])
    interval_ok = (not report2.overall) and [
        c.face_id for c in report2.offending_faces()
    ] == [vertex.id]

    spec = tmp_path / "degenerate.json"
    spec.write_text(json.dumps({"matrix": gauss_rows, "fiber": ["1", "1", "1", "1"]}))
    exit_code = main(["analyze", str(spec), "--no-timings",
                      "--out", str(tmp_path / "report.json")])
    verdict(
        5,
        "degenerate fibers detected with offending face, exit code 2",
        gauss_ok and interval_ok and exit_code == 2,
        f"gauss face {square.id}, interval face {vertex.id}, exit {exit_code}",
    )


def test_criterion_6_connection_closed_forms():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GammaNotNormalized)
        P1 = NewtonPolytope(validate_matrix([[1]]))
        _, basis1 = h_top_dimension([F(1, 3)], verify_kouchnirenko(is_nondegenerate([2], P1)))
        mats1 = connection_matrices(basis1)
    P2 = NewtonPolytope(validate_matrix([[2]]))
    _, basis2 = h_top_dimension([0], verify_kouchnirenko(is_nondegenerate([1], P2)))
    mats2 = connection_matrices(basis2)
    ok = mats1 == [[[F(-1, 6)]]] and mats2 == [[[F(0), F(0)], [F(0), F(-1, 2)]]]
    verdict(6, "connection matrices match the closed forms", ok,
            f"B1={mats1[0]}, B2={mats2[0]}")


def test_criterion_7_property_suites():
    suites = [
        ("d o d = 0 (twisted and Koszul)", props.suite_d_squared_zero),
        ("filtration preservation", props.suite_filtration_preserved),
        ("leading part equals Koszul", props.suite_gr_equals_koszul),
        ("gauge homogeneity and subadditivity", props.suite_gauge_laws),
        ("graded multiplication laws", props.suite_gr_multiply_laws),
        ("reduction linearity and exact-form invariance", props.suite_reduction_laws),
        ("toy regular sequence vanishing", props.suite_toy_regular_sequences),
        ("unimodular and scaling verdict invariance", props.suite_verdict_invariance),
    ]
    ok = True
    details = []
    for label, fn in suites:
        count = fn()
        ok = ok and count >= 200
        details.append(f"{label}: {count} cases")
    verdict(7, "property suites each ran at least 200 exact cases", ok,
            "; ".join(details))


def test_criterion_8_gkz_emission():
    gauss = validate_matrix([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    boxes = lattice_kernel(gauss)
    box_ok = [render_box(b) for b in boxes] == ["∂₁∂₄ − ∂₂∂₃"]
    eulers = euler_operators(gauss, [0, 0, 0])
    euler_ok = tuple(op.row_weights for op in eulers) == gauss.rows and len(eulers) == 3
    # kernel-basis property: every small relation lies in the emitted lattice
    import itertools

    saturated = True
    for cand in itertools.product(range(-2, 3), repeat=4):
        if not any(cand):
            continue
        if all(sum(r * c for r, c in zip(row, cand)) == 0 for row in gauss.rows):
            saturated = saturated and in_kernel_lattice(boxes, cand)
    verdict(8, "operator emission and kernel basis property",
            box_ok and euler_ok and saturated,
            f"box={[render_box(b) for b in boxes]}")
