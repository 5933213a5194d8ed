"""Independent brute-force oracles for the headline numbers.

The volume oracle counts lattice points in dilates of the hull and takes
the n-th finite difference of the Ehrhart counts, never touching the
triangulation code.  The cohomology oracle rebuilds the top Koszul spot
with dense lists and its own row reduction.
"""

import itertools
from fractions import Fraction
from math import comb

from gkzrank import (
    ConeRing, NewtonPolytope, is_nondegenerate, validate_matrix, verify_kouchnirenko,
)

FIXTURES = [
    ([[1]], [1]),
    ([[2]], [1]),
    ([[1, 2]], [1, 1]),
    ([[-1, 1]], [1, 1]),
    ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], [1, 2, 3, 4]),
    ([[1, 0, 1], [0, 1, 1]], [1, 1, -1]),
    ([[2, 0, 1], [0, 3, 1]], [1, 1, 5]),
]


def lattice_count_in_dilate(P, k):
    """Number of integer points in k times the hull, by direct scanning."""
    if k == 0:
        return 1
    box = []
    for lo, hi in P.bounding_box():
        box.append(range(k * min(lo, 0), k * max(hi, 0) + 1))
    count = 0
    for w in itertools.product(*box):
        if all(
            sum(a * b for a, b in zip(f.normal, w)) <= k * f.level for f in P.facets
        ):
            count += 1
    return count


def ehrhart_normalized_volume(P):
    """n! times the leading Ehrhart coefficient via finite differences."""
    n = P.n
    counts = [lattice_count_in_dilate(P, k) for k in range(n + 1)]
    return sum((-1) ** (n - j) * comb(n, j) * counts[j] for j in range(n + 1))


def dense_rank(rows):
    rows = [[Fraction(c) for c in row] for row in rows if any(row)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        piv = next((r for r in rows if r[col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        for r in rows:
            if r[col] != 0:
                f = r[col] / piv[col]
                for j in range(col, width):
                    r[j] -= f * piv[j]
        rows = [r for r in rows if any(r)]
        rank += 1
        col += 1
    return rank


def dense_top_dims(matrix, fiber, P, truncation):
    """Per-degree top-quotient dimensions from scratch.

    Multiplication survives exactly when the gauge adds up; the rule is
    recomputed here straight from the facet data.
    """
    ring = ConeRing(P)  # reused only to enumerate degree slices
    M = P.gauge_denominator
    boundary = [
        (j, w)
        for j, w in enumerate(matrix.columns)
        if P.cone_contains(w) and P.gauge(w) == 1
    ]
    dims = {}
    for d in range(truncation + 1):
        mono = list(ring.monomials_of_degree(d))
        index = {w: i for i, w in enumerate(mono)}
        rows = []
        for prev in ring.monomials_of_degree(d - M):
            for i in range(P.n):
                row = [Fraction(0)] * len(mono)
                for j, wj in boundary:
                    coeff = Fraction(fiber[j]) * wj[i]
                    if coeff == 0:
                        continue
                    s = tuple(a + b for a, b in zip(wj, prev))
                    if P.gauge(s) == P.gauge(wj) + P.gauge(prev):
                        row[index[s]] += coeff
                if any(row):
                    rows.append(row)
        dims[d] = len(mono) - dense_rank(rows)
    return dims


def test_volume_matches_ehrhart_differences():
    for rows, _ in FIXTURES:
        P = NewtonPolytope(validate_matrix(rows))
        assert P.normalized_volume == ehrhart_normalized_volume(P)


def test_top_dims_match_dense_elimination():
    for rows, fiber in FIXTURES:
        matrix = validate_matrix(rows)
        P = NewtonPolytope(matrix)
        result = verify_kouchnirenko(is_nondegenerate(fiber, P))
        oracle = dense_top_dims(matrix, fiber, P, result.truncation)
        for d in range(result.truncation + 1):
            assert result.per_degree.get(d, 0) == oracle[d], (rows, d)
        assert sum(oracle.values()) == P.normalized_volume
