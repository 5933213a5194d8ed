import pytest

from gkzrank import NewtonPolytope, validate_matrix

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
