"""Correctness checks on one ``gkz analyze --no-timings`` report.

The checks never ask the program under test for the answer: the expected
exit code and rank come from the problem record (closed forms, the
independent volume, degenerate-by-construction fibers).  Every set of
connection matrices must satisfy the Euler relations of the problem, and
where values were recorded they are compared by trace and determinant,
which do not depend on the choice of monomial basis.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


def trace_and_det(matrix):
    """Exact trace and determinant of a square matrix of rational strings."""
    m = [[Fraction(x) for x in row] for row in matrix]
    size = len(m)
    trace = sum((m[i][i] for i in range(size)), Fraction(0))
    det = Fraction(1)
    for col in range(size):
        piv = next((i for i in range(col, size) if m[i][col] != 0), None)
        if piv is None:
            return trace, Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        p = m[col][col]
        det *= p
        for i in range(col + 1, size):
            f = m[i][col] / p
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return trace, det


def invariants(report):
    """Trace and determinant of each connection matrix, as rational strings."""
    out = {"trace": [], "det": []}
    for mat in report["derham"]["connection_matrices"]:
        t, d = trace_and_det(mat)
        out["trace"].append(str(t))
        out["det"].append(str(d))
    return out


def euler_errors(spec, report):
    """Where the connection matrices break the Euler relations.

    The top form ``t^w dt/t`` is cohomologous to zero after the twisted
    derivative along each coordinate i, which gives, for every basis
    monomial ``w_l`` and every row i of the matrix A,

        sum_j c_j A[i][j] B_j e_l = -(w_l[i] + gamma'_i) e_l,

    with c the fiber, B_j the j-th connection matrix and gamma' the
    normalized parameter.  gamma' may differ from the given gamma only by
    an integer vector.
    """
    rows = spec["matrix"]
    fiber = [Fraction(c) for c in spec["fiber"]]
    gamma = [Fraction(g) for g in spec["gamma"]]
    shifted = [Fraction(g) for g in report["gamma_normalized"]]
    if len(shifted) != len(rows) or any(
        (a - b).denominator != 1 for a, b in zip(shifted, gamma)
    ):
        return [f"gamma_normalized {report['gamma_normalized']} is not gamma "
                f"plus an integer vector"]
    basis = report["derham"]["basis"]
    mats = [[[Fraction(x) for x in row] for row in m]
            for m in report["derham"]["connection_matrices"]]
    size = len(basis)
    errors = []
    for i, row in enumerate(rows):
        weights = [(c * a, m) for c, a, m in zip(fiber, row, mats) if c * a]
        for k, l in itertools.product(range(size), repeat=2):
            got = sum((f * m[k][l] for f, m in weights), Fraction(0))
            want = -(basis[l][i] + shifted[i]) if k == l else 0
            if got != want:
                errors.append(f"Euler relation of row {i} fails at entry "
                              f"({k}, {l}): {got} != {want}")
                break
    return errors


def check_report(problem, exit_code, stdout, recorded=None):
    """Reasons the run is wrong; an empty list means the report is correct.

    ``recorded`` holds the traces and determinants of the connection
    matrices for problems that have them.
    """
    expect = problem["expect"]
    if exit_code != expect["exit"]:
        return [f"exit code {exit_code}, expected {expect['exit']}"]
    try:
        return _check(problem, json.loads(stdout), recorded)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__} {exc}"]


def _check(problem, report, recorded):
    expect = problem["expect"]
    errors = []
    volume = expect["volume"]
    if report["polytope"]["normalized_volume"] != volume:
        errors.append(
            f"normalized volume {report['polytope']['normalized_volume']}, "
            f"expected {volume}"
        )
    if expect["exit"] == 2:
        if report["nondegeneracy"]["overall"] is not False:
            errors.append("degenerate fiber certified nondegenerate")
        return errors
    if report["nondegeneracy"]["overall"] is not True:
        errors.append("nondegenerate fiber not certified")
    if report.get("rank_agreement") is not True:
        errors.append("rank_agreement is not true")
    if report["koszul"]["vanishing"] is not True:
        errors.append("koszul.vanishing is not true")
    if report["poincare"]["ok"] is not True:
        errors.append("poincare.ok is not true")
    for route, rank in (
        ("koszul.top_dimension", report["koszul"]["top_dimension"]),
        ("derham.dimension", report["derham"]["dimension"]),
    ):
        if rank != volume:
            errors.append(f"{route} is {rank}, expected {volume}")
    mats = report["derham"]["connection_matrices"]
    num_columns = len(problem["spec"]["matrix"][0])
    if len(mats) != num_columns or any(
        len(m) != volume or any(len(r) != volume for r in m) for m in mats
    ):
        errors.append(f"expected {num_columns} connection matrices of size {volume}")
        return errors
    if len(report["derham"]["basis"]) != volume:
        errors.append(f"derham.basis has {len(report['derham']['basis'])} "
                      f"monomials, expected {volume}")
        return errors
    errors.extend(euler_errors(problem["spec"], report))
    if recorded is not None:
        got = invariants(report)
        for key in ("trace", "det"):
            if got[key] != recorded[key]:
                errors.append(f"connection matrix {key}s {got[key]} != {recorded[key]}")
    return errors
