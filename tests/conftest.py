import os
from pathlib import Path

import pytest

import gkzrank
from gkzrank import ConeRing, KouchnirenkoResult, NewtonPolytope, validate_matrix
from gkzrank.rings import cone_numerator


def pytest_configure(config):
    # pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so a run
    # aimed at another tree's gkzrank would silently test this checkout.
    first = os.environ.get("PYTHONPATH", "").split(os.pathsep)[0]
    wanted = Path(first, "gkzrank").resolve()
    imported = Path(gkzrank.__file__).resolve().parent
    if first and (wanted / "__init__.py").is_file() and wanted != imported:
        raise pytest.UsageError(
            f"PYTHONPATH starts with the gkzrank in {wanted}, but the tests "
            f"imported the one in {imported}; to test that tree, run its own "
            "tests from inside it"
        )


def kouchnirenko_scan(P, fiber):
    """The Koszul scan of any fiber, degenerate or not, at the truncation
    ``verify_kouchnirenko`` uses; that stage refuses a fiber whose report is
    not nondegenerate, so a scan of a degenerate one is built directly."""
    expected = cone_numerator(P)[0]
    truncation = expected.degree + P.gauge_denominator
    return KouchnirenkoResult(ConeRing(P), fiber, expected, truncation)


def face_with_vertices(P, vertices):
    """The face of P whose vertex set is ``vertices``, in any order."""
    wanted = tuple(sorted(vertices))
    return next(f for f in P.faces if f.vertices == wanted)


GAUSS_ROWS = [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]

# The acceptance fixtures: matrix rows and a nondegenerate fiber for each.
FIXTURES = {
    "unit": ([[1]], [1]),
    "double": ([[2]], [1]),
    "interval": ([[1, 2]], [1, 1]),
    "symmetric": ([[-1, 1]], [1, 1]),
    "gauss": (GAUSS_ROWS, [1, 2, 3, 4]),
}

EXPECTED_RANKS = {
    "unit": 1,
    "double": 2,
    "interval": 2,
    "symmetric": 2,
    "gauss": 2,
}


@pytest.fixture(scope="session")
def polytopes():
    out = {}
    for name, (rows, fiber) in FIXTURES.items():
        matrix = validate_matrix(rows)
        out[name] = (matrix, NewtonPolytope(matrix), fiber)
    return out


@pytest.fixture(scope="session")
def gauss(polytopes):
    return polytopes["gauss"]
