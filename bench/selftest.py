"""Tests of the benchmark itself: checker, generator, volume oracle, tracer.

Run from the root of a checkout::

    python3 -m pytest -q bench/selftest.py

The file name keeps these tests out of the library's own test run.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import problems  # noqa: E402


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def _problem(pid):
    return next(
        p for name in ("cohomology", "derham")
        for p in problems.workload(name, 0)[0] if p["id"] == pid
    )


@pytest.fixture(scope="module")
def simplex_report(tmp_path_factory):
    problem = _problem("dilated-simplex-2")
    path = tmp_path_factory.mktemp("bench") / "problem.json"
    path.write_text(json.dumps(problem["spec"]))
    out = subprocess.run(
        [sys.executable, "-m", "gkzrank.cli", "analyze", "--no-timings", str(path)],
        capture_output=True, env=_env(), check=False,
    )
    recorded = json.loads((BENCH / "expected.json").read_text())[problem["id"]]
    return problem, out.returncode, json.loads(out.stdout), recorded


def _errors(problem, code, report, recorded):
    return check.check_report(problem, code, json.dumps(report).encode(), recorded)


def test_checker_accepts_the_seed_report(simplex_report):
    assert _errors(*simplex_report) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["derham"].__setitem__("dimension", 9),
        lambda r: r["koszul"].__setitem__("top_dimension", 7),
        lambda r: r["polytope"].__setitem__("normalized_volume", 9),
        lambda r: r["koszul"].__setitem__("vanishing", False),
        lambda r: r["poincare"].__setitem__("ok", False),
        lambda r: r.__setitem__("rank_agreement", False),
        lambda r: r["derham"]["connection_matrices"][1][0].__setitem__(0, "5/7"),
        lambda r: r["derham"]["connection_matrices"].pop(),

        lambda r: r.pop("koszul"),
    ],
    ids=[
        "derham-rank", "koszul-rank", "volume", "vanishing", "poincare",
        "agreement", "matrix-trace", "matrix-count", "missing-key",
    ],
)
def test_checker_rejects_a_tampered_report(simplex_report, tamper):
    problem, code, report, recorded = simplex_report
    bad = copy.deepcopy(report)
    tamper(bad)
    assert _errors(problem, code, bad, recorded)


@pytest.mark.parametrize(
    "tamper",
    [
        lambda r: r["derham"]["connection_matrices"][0][1].__setitem__(0, "1/3"),
        lambda r: r["derham"]["connection_matrices"][2][0].__setitem__(0, "1/5"),
        lambda r: r["derham"]["basis"].reverse(),
        lambda r: r.__setitem__("gamma_normalized", ["1/2"] * 3),
    ],
    ids=["off-diagonal", "diagonal", "basis-order", "gamma-shift"],
)
def test_euler_relations_need_no_recorded_values(simplex_report, tamper):
    problem, code, report, _ = simplex_report
    assert _errors(problem, code, report, None) == []
    bad = copy.deepcopy(report)
    tamper(bad)
    errors = _errors(problem, code, bad, None)
    assert errors and all("Euler" in e or "gamma" in e for e in errors)


def test_checker_rejects_a_wrong_exit_code(simplex_report):
    problem, _, report, recorded = simplex_report
    assert _errors(problem, 2, report, recorded)
    assert _errors(problem, 1, report, recorded)


def test_trace_and_det_are_basis_independent():
    # The second matrix is [[1,1],[0,1]] m [[1,-1],[0,1]] for the first, m.
    assert check.trace_and_det([["1", "2"], ["3", "4"]]) == (5, -2)
    assert check.trace_and_det([["4", "2"], ["3", "1"]]) == (5, -2)
    assert check.trace_and_det([["1/2", "0"], ["0", "0"]]) == (Fraction(1, 2), 0)


def test_sweep_is_stable_per_seed():
    assert problems.sweep(11) == problems.sweep(11)
    assert problems.sweep(11)[0] != problems.sweep(12)[0]


def test_sweep_composition_is_fixed():
    for seed in range(5):
        draws, stats = problems.sweep(seed)
        dims = [len(p["spec"]["matrix"]) for p in draws if p["expect"]["exit"] == 0]
        assert {n: dims.count(n) for n in set(dims)} == problems.SWEEP_RANDOM_PER_DIM
        assert stats["degenerate"] == problems.SWEEP_DEGENERATE
        assert sum(p["expect"]["exit"] == 2 for p in draws) == problems.SWEEP_DEGENERATE
        assert stats["rejected_volume"] > 0
        for p in draws:
            if p["expect"]["exit"] == 0:
                n = len(p["spec"]["matrix"])
                assert p["expect"]["volume"] <= problems.VOLUME_CAP[n]
                assert problems.box_points(p["spec"]["matrix"]) <= problems.BOX_CAP[n]


@pytest.mark.parametrize(
    "rows, volume",
    [
        ([[1, -1]], 2),
        ([[1, -1, 0, 0], [0, 0, 1, -1]], 4),
        ([[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]], 8),
        ([[3, 0], [0, 3]], 9),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 8),
        ([[1] * 7, list(range(7))], 6),
        ([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 2),
        ([[2, 0, -1], [0, 3, -1]], 11),
    ],
)
def test_independent_volume_matches_closed_forms(rows, volume):
    assert problems.normalized_volume(rows) == volume


def test_degenerate_draws_exit_two(tmp_path):
    draws, _ = problems.sweep(3)
    for p in [p for p in draws if p["expect"]["exit"] == 2][:3]:
        path = tmp_path / f"{p['id']}.json"
        path.write_text(json.dumps(p["spec"]))
        out = subprocess.run(
            [sys.executable, "-m", "gkzrank.cli", "analyze", "--no-timings", str(path)],
            capture_output=True, env=_env(), check=False,
        )
        assert check.check_report(p, out.returncode, out.stdout) == []


def test_wrappers_see_every_call(tmp_path):
    """A profiler hook counts the original functions; the wrappers must agree."""
    problem = _problem("octahedron")
    path = tmp_path / "octahedron.json"
    path.write_text(json.dumps(problem["spec"]))
    summary_path = tmp_path / "summary.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "trace_child.py"), str(SRC), str(path),
         "octahedron", str(summary_path), "--audit"],
        capture_output=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    summary = json.loads(summary_path.read_text())
    assert summary["missing"] == []
    assert summary["calls"] == summary["audit"]
    totals = summary["totals"]
    assert totals["homology.kouchnirenko_calls"] >= 1
    assert totals["nondegeneracy.certify_face_calls"] >= totals["nondegeneracy.faces"] == 26
    assert check.check_report(problem, 0, out.stdout) == []
