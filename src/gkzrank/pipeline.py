"""Problem files and the end-to-end rank report.

A problem file is a JSON object with a matrix, a parameter vector and a
coefficient fiber, plus optional knobs.  The full pipeline certifies the
fiber, runs the Koszul and de Rham computations and bundles everything into
one serializable report; a degenerate fiber short-circuits the cohomology
stages but is still a legitimate answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .derham import connection_matrices, h_top_dimension
from .errors import ShapeMismatch, UnknownSubcommand
from .homology import (
    check_face_complex_exactness,
    poincare_identity_check,
    verify_kouchnirenko,
)
from .jsonio import format_rational, parse_rational, polytope_summary_json
from .lattice import (
    ExponentMatrix,
    NewtonPolytope,
    exponent_cone,
    normalize_gamma,
    validate_matrix,
)
from .nondegeneracy import is_nondegenerate
from .operators import (
    euler_operators,
    lattice_kernel,
    render_box,
    render_euler,
)

DEFAULT_WEIGHT_BOUND = 6


@dataclass
class ProblemSpec:
    """Validated problem input: matrix, parameter vector, fiber, options."""

    matrix_rows: list[list[int]]
    gamma: list[Fraction]
    fiber: list[Fraction]
    options: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict) -> "ProblemSpec":
        if not isinstance(data, dict) or "matrix" not in data:
            raise ShapeMismatch("problem spec must be an object with a 'matrix'")
        rows = data["matrix"]
        if not isinstance(rows, list):
            raise ShapeMismatch("'matrix' must be a list of rows")
        n = len(rows)
        width = len(rows[0]) if rows and isinstance(rows[0], list) else 0
        gamma = [parse_rational(g) for g in data.get("gamma", ["0"] * n)]
        fiber = [parse_rational(c) for c in data.get("fiber", ["1"] * width)]
        options = dict(data.get("options", {}))
        return cls(rows, gamma, fiber, options)

    def to_json(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix_rows],
            "gamma": [format_rational(g) for g in self.gamma],
            "fiber": [format_rational(c) for c in self.fiber],
            "options": dict(self.options),
        }


@dataclass
class RankReport:
    """Everything the pipeline certifies about one problem."""

    spec: ProblemSpec
    degenerate: bool
    body: dict
    timings: dict | None

    def to_json(self) -> dict:
        out = {"spec": self.spec.to_json()}
        out.update(self.body)
        if self.timings is not None:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


class _Clock:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.timings: dict[str, float] = {}

    def stage(self, name):
        return _Stage(self, name)


class _Stage:
    def __init__(self, clock, name):
        self.clock = clock
        self.name = name

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.clock.enabled:
            self.clock.timings[self.name] = time.perf_counter() - self.t0
        return False


def _validated(spec: ProblemSpec) -> tuple[ExponentMatrix, NewtonPolytope]:
    matrix = validate_matrix(spec.matrix_rows)
    if len(spec.gamma) != matrix.n:
        raise ShapeMismatch(
            f"gamma has length {len(spec.gamma)}, matrix has {matrix.n} rows"
        )
    if len(spec.fiber) != matrix.num_columns:
        raise ShapeMismatch(
            f"fiber has length {len(spec.fiber)}, matrix has "
            f"{matrix.num_columns} columns"
        )
    return matrix, NewtonPolytope(matrix)


def _operators_json(matrix: ExponentMatrix, gamma):
    eulers = euler_operators(matrix, gamma)
    boxes = lattice_kernel(matrix)
    return {
        "euler": [
            {**op.to_json(), "text": render_euler(op)} for op in eulers
        ],
        "box": [
            {**box.to_json(), "text": render_box(box)} for box in boxes
        ],
    }


def _kouchnirenko(spec: ProblemSpec, matrix, polytope, **kwargs):
    cap = spec.options.get("truncation_cap")
    return verify_kouchnirenko(
        matrix,
        spec.fiber,
        polytope,
        truncation_cap=None if cap is None else int(cap),
        **kwargs,
    )


def _derham_json(gamma_norm, fiber, polytope, kz) -> dict:
    dim, basis = h_top_dimension(gamma_norm, fiber, polytope, kouchnirenko=kz)
    mats = connection_matrices(gamma_norm, fiber, basis)
    return {
        "dimension": dim,
        "basis": [list(w) for w in basis.basis],
        "connection_matrices": [
            [[format_rational(v) for v in row] for row in mat] for mat in mats
        ],
    }


def run_analyze(spec: ProblemSpec, with_timings: bool = True) -> RankReport:
    """Full pipeline: geometry, certification, cohomology, operators.

    Each stage's result is passed on to the stages that need it, so the
    fiber is certified once and the Koszul complex is built once.
    """
    clock = _Clock(with_timings)
    body: dict = {}
    with clock.stage("validate"):
        matrix, polytope = _validated(spec)
    with clock.stage("polytope"):
        body["polytope"] = polytope_summary_json(polytope)
    with clock.stage("normalize_gamma"):
        cone = exponent_cone(matrix, polytope)
        gamma_norm = normalize_gamma(spec.gamma, cone)
        body["gamma_normalized"] = [format_rational(g) for g in gamma_norm]
    with clock.stage("nondegeneracy"):
        report = is_nondegenerate(matrix, spec.fiber, polytope)
        body["nondegeneracy"] = report.to_json()
    degenerate = not report.overall
    if degenerate:
        body["koszul"] = None
        body["poincare"] = None
        body["derham"] = None
    else:
        with clock.stage("koszul"):
            kz = _kouchnirenko(
                spec, matrix, polytope, require_nondegenerate=False
            )
            body["koszul"] = kz.to_json()
        with clock.stage("poincare"):
            body["poincare"] = poincare_identity_check(
                matrix, spec.fiber, polytope, kouchnirenko=kz
            ).to_json()
        with clock.stage("derham"):
            body["derham"] = _derham_json(gamma_norm, spec.fiber, polytope, kz)
        body["rank_agreement"] = (
            polytope.normalized_volume
            == kz.top_dim
            == body["derham"]["dimension"]
        )
    with clock.stage("operators"):
        body["gkz"] = _operators_json(matrix, gamma_norm)
    return RankReport(spec, degenerate, body, clock.timings if with_timings else None)


SUBCOMMANDS = (
    "volume",
    "faces",
    "nondegenerate",
    "koszul",
    "derham",
    "gkz-ops",
    "poincare",
    "face-complex",
)


def run_subcommand(name: str, spec: ProblemSpec) -> dict:
    """Run only the pipeline prefix needed for one focused question."""
    if name not in SUBCOMMANDS:
        raise UnknownSubcommand(name)
    matrix, polytope = _validated(spec)
    if name == "volume":
        return {"normalized_volume": polytope.normalized_volume}
    if name == "faces":
        return polytope_summary_json(polytope)
    if name == "nondegenerate":
        return is_nondegenerate(matrix, spec.fiber, polytope).to_json()
    if name == "koszul":
        return _kouchnirenko(spec, matrix, polytope).to_json()
    if name == "poincare":
        return poincare_identity_check(
            matrix,
            spec.fiber,
            polytope,
            kouchnirenko=_kouchnirenko(spec, matrix, polytope),
        ).to_json()
    if name == "face-complex":
        bound = int(spec.options.get("weight_bound", DEFAULT_WEIGHT_BOUND))
        return check_face_complex_exactness(polytope, bound).to_json()
    gamma_norm = normalize_gamma(spec.gamma, exponent_cone(matrix, polytope))
    if name == "derham":
        kz = _kouchnirenko(spec, matrix, polytope)
        return _derham_json(gamma_norm, spec.fiber, polytope, kz)
    return _operators_json(matrix, gamma_norm)  # gkz-ops


def error_json(stage: str, exc: Exception) -> dict:
    return {
        "error": {
            "stage": stage,
            "type": type(exc).__name__,
            "message": str(exc),
        }
    }


__all__ = [
    "ProblemSpec",
    "RankReport",
    "run_analyze",
    "run_subcommand",
    "SUBCOMMANDS",
    "error_json",
]
