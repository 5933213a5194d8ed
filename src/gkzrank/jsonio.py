"""Problem files and the exact-rational JSON conventions of the library.

Numbers serialize as integer strings or "p/q".  A problem file is a JSON
object with a matrix, a parameter vector and a coefficient fiber, plus
optional knobs.  The geometry-only subcommands are answered here, without
the cohomology stack.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ShapeMismatch
from .lattice import ExponentMatrix, NewtonPolytope, parse_rational, validate_matrix

DEFAULT_WEIGHT_BOUND = 6
GEOMETRY_SUBCOMMANDS = ("volume", "faces")


def format_rational(value) -> str:
    """An ``int`` or a ``Fraction`` prints as is, anything else as a ``Fraction``."""
    if type(value) is int or isinstance(value, Fraction):
        return str(value)
    return str(Fraction(value))


OPTION_KEYS = ("truncation_cap", "weight_bound")


def check_options(options: dict) -> None:
    """Known, nonnegative integer options only: a misspelt key would run
    without its budget, a negative weight bound would check no weight and
    still report the face complex exact, and a negative truncation cap is
    one no run can meet."""
    for key in options:
        if key not in OPTION_KEYS:
            raise ShapeMismatch(
                f"unknown option {key!r}; options are {', '.join(OPTION_KEYS)}"
            )
    for key in OPTION_KEYS:
        value = options.get(key, 0)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ShapeMismatch(f"option '{key}' must be an integer: {value!r}")
        if value < 0:
            raise ShapeMismatch(f"option '{key}' must be >= 0: {value}")


def polytope_summary_json(polytope) -> dict:
    return {
        "n": polytope.n,
        "num_columns": polytope.matrix.num_columns,
        "facets": [
            {"normal": list(f.normal), "level": f.level} for f in polytope.facets
        ],
        "vertices": [list(v) for v in polytope.vertices],
        "f_vector": list(polytope.f_vector()),
        "index_sets": {
            str(p): [f.id for f in polytope.index_set(p)]
            for p in range(polytope.n)
        },
        "origin_interior": polytope.origin_interior,
        "gauge_denominator": polytope.gauge_denominator,
        "normalized_volume": polytope.normalized_volume,
    }


class ProblemSpec:
    """Validated problem input: matrix, parameter vector, fiber, options."""

    def __init__(self, matrix_rows, gamma, fiber, options):
        self.matrix_rows: list[list[int]] = matrix_rows
        self.gamma: list[Fraction] = gamma
        self.fiber: list[Fraction] = fiber
        self.options: dict = options

    @classmethod
    def from_json(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict) or "matrix" not in data:
            raise ShapeMismatch("problem spec must be an object with a 'matrix'")
        rows = data["matrix"]
        if not isinstance(rows, list):
            raise ShapeMismatch("'matrix' must be a list of rows")
        n = len(rows)
        width = len(rows[0]) if rows and isinstance(rows[0], list) else 0
        gamma = data.get("gamma", ["0"] * n)
        fiber = data.get("fiber", ["1"] * width)
        options = data.get("options", {})
        for key, value, size, what in (
            ("gamma", gamma, n, "rows"), ("fiber", fiber, width, "columns")
        ):
            if not isinstance(value, list):
                raise ShapeMismatch(f"'{key}' must be a list: {value!r}")
            # a matrix with no first row to measure is validate_matrix's to report
            if width and len(value) != size:
                raise ShapeMismatch(
                    f"{key} has length {len(value)}, matrix has {size} {what}"
                )
        if not isinstance(options, dict):
            raise ShapeMismatch(f"'options' must be an object: {options!r}")
        check_options(options)
        return cls(
            rows,
            [parse_rational(g) for g in gamma],
            [parse_rational(c) for c in fiber],
            dict(options),
        )

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix_rows],
            "gamma": [format_rational(g) for g in self.gamma],
            "fiber": [format_rational(c) for c in self.fiber],
            "options": dict(self.options),
        }


def _validated(spec: ProblemSpec) -> tuple[ExponentMatrix, NewtonPolytope]:
    matrix = validate_matrix(spec.matrix_rows)
    return matrix, NewtonPolytope(matrix)


def geometry_answer(name: str, spec: ProblemSpec) -> dict:
    """``gkz volume`` or ``gkz faces``: read off the Newton polytope alone."""
    _, polytope = _validated(spec)
    if name == "volume":
        return {"normalized_volume": polytope.normalized_volume}
    return polytope_summary_json(polytope)


def error_json(stage: str, exc: Exception) -> dict:
    return {
        "error": {
            "stage": stage,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }
