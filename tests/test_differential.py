"""Seeded differential sweep: the three rank routes on random small problems.

Every nondegenerate draw must give the same rank by normalized volume, top
Koszul cohomology and the de Rham cokernel, with the lower Koszul
cohomology zero; a degenerate draw is an answer, not an error.  Two
families with closed-form ranks pin the common value itself.
"""

import random
import warnings

import pytest

from gkzrank import ProblemSpec, RankDeficient, NewtonPolytope, run_analyze, validate_matrix

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
