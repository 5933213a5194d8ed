"""The end-to-end rank report and the focused subcommands.

The full pipeline certifies the fiber, runs the Koszul and de Rham
computations and bundles everything into one serializable report; a
degenerate fiber short-circuits the cohomology stages but is still a
legitimate answer.  Problem files are read in ``jsonio``.
"""

from __future__ import annotations

import time

from .derham import connection_matrices, h_top_dimension
from .errors import UnknownSubcommand
from .homology import poincare_identity_check, verify_kouchnirenko
from .jsonio import (
    DEFAULT_WEIGHT_BOUND,
    GEOMETRY_SUBCOMMANDS,
    ProblemSpec,
    _validated,
    format_rational,
    geometry_answer,
    polytope_summary_json,
)
from .lattice import ExponentMatrix, normalize_gamma
from .nondegeneracy import is_nondegenerate
from .operators import (
    euler_operators,
    lattice_kernel,
    render_box,
    render_euler,
)


class RankReport:
    """Everything the pipeline certifies about one problem."""

    def __init__(self, spec, degenerate, body, timings):
        self.spec: ProblemSpec = spec
        self.degenerate: bool = degenerate
        self.body: dict = body
        self.timings: dict | None = timings

    def to_json(self) -> dict:
        out = {"spec": self.spec.to_json()}
        out.update(self.body)
        if self.timings is not None:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out


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


def _derham_json(gamma_norm, kz) -> dict:
    dim, basis = h_top_dimension(gamma_norm, kz)
    mats = connection_matrices(basis)
    return {
        "dimension": dim,
        "basis": [list(w) for w in basis.basis],
        "connection_matrices": [
            [[format_rational(v) for v in row] for row in mat] for mat in mats
        ],
    }


def run_analyze(spec: ProblemSpec, with_timings: bool = True) -> RankReport:
    """Full pipeline: geometry, certification, cohomology, operators.

    Each stage takes the result of the stage before it, so the fiber is
    certified once and each top Koszul slice factored once.  Each stage's
    time is the lap since the previous stage ended.
    """
    timings: dict[str, float] = {}
    last = time.perf_counter()

    def lap(stage):
        nonlocal last
        now = time.perf_counter()
        timings[stage], last = now - last, now

    body: dict = {}
    matrix, polytope = _validated(spec)
    lap("validate")
    body["polytope"] = polytope_summary_json(polytope)
    lap("polytope")
    gamma_norm = normalize_gamma(spec.gamma, polytope)
    body["gamma_normalized"] = [format_rational(g) for g in gamma_norm]
    lap("normalize_gamma")
    report = is_nondegenerate(spec.fiber, polytope)
    body["nondegeneracy"] = report.to_json()
    lap("nondegeneracy")
    degenerate = not report.overall
    if degenerate:
        body.update(koszul=None, poincare=None, derham=None)
    else:
        cap = spec.options.get("truncation_cap")
        kz = verify_kouchnirenko(report, truncation_cap=cap)
        body["koszul"] = kz.to_json()
        lap("koszul")
        body["poincare"] = poincare_identity_check(kz).to_json()
        lap("poincare")
        body["derham"] = _derham_json(gamma_norm, kz)
        lap("derham")
        body["rank_agreement"] = (
            polytope.normalized_volume
            == kz.top_dim
            == body["derham"]["dimension"]
        )
    body["gkz"] = _operators_json(matrix, gamma_norm)
    lap("operators")
    return RankReport(spec, degenerate, body, timings if with_timings else None)


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
    if name in GEOMETRY_SUBCOMMANDS:
        return geometry_answer(name, spec)
    matrix, polytope = _validated(spec)
    if name == "face-complex":
        from .oracles import check_face_complex_exactness

        bound = spec.options.get("weight_bound", DEFAULT_WEIGHT_BOUND)
        return check_face_complex_exactness(polytope, bound).to_json()
    if name == "gkz-ops":
        return _operators_json(matrix, normalize_gamma(spec.gamma, polytope))
    report = is_nondegenerate(spec.fiber, polytope)
    if name == "nondegenerate":
        return report.to_json()
    cap = spec.options.get("truncation_cap")
    kz = verify_kouchnirenko(report, truncation_cap=cap)
    if name == "koszul":
        return kz.to_json()
    if name == "poincare":
        return poincare_identity_check(kz).to_json()
    return _derham_json(normalize_gamma(spec.gamma, polytope), kz)
