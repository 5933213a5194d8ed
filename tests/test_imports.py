"""What each entry point loads and runs: the package surface is lazy,
``gkz volume`` and ``gkz faces`` stay clear of the cohomology stack and the
claim checks, ``gkz analyze`` loads exactly the 12 modules it runs and runs
every function in them but an explained few, only ``gkz face-complex``
loads ``gkzrank.oracles``, no ``gkz`` process loads ``dataclasses``,
``inspect``, ``argparse``, ``gettext`` or ``locale``, and ``pipeline`` still
loads every module the benchmark's tracer wraps."""

import importlib
import inspect
import json
import os
import runpy
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import gkzrank
from gkzrank import cli
from test_cli import GOLDEN, GOLDEN_SPECS

ROOT = Path(__file__).resolve().parents[1]
COHOMOLOGY_STACK = {
    f"gkzrank.{m}"
    for m in ("derham", "homology", "nondegeneracy", "operators", "rings")
}
# The checks of the paper's claims; the tracer wraps nothing in it, so it is
# kept apart from the stack that test_pipeline_loads_every_traced_module reads.
ORACLES = "gkzrank.oracles"
ANALYZE_MODULES = {"gkzrank"} | COHOMOLOGY_STACK | {
    f"gkzrank.{m}" for m in ("cli", "errors", "jsonio", "lattice", "linalg", "pipeline")
}
GAUSS_SPEC = {
    "matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]], "fiber": ["1", "2", "3", "4"]
}

# The public names: one per object, no alias functions beside the classes
# they call.
EXPORTS = """
BoxOperator CochainComplexQ ConeRing DegenerateFiber EulerOperator ExponentMatrix Face FaceCertificate FaceComplex FaceContainsOrigin Facet
FreeRing GammaNotNormalized GkzError GradedKoszulComplex
KouchnirenkoResult LogForm MismatchAtDegree NewtonPolytope NondegeneracyReport
NotAFacePair NotARelation NotInCone PolyZ ProblemSpec RankDeficient RankReport
RationalFunctionQ ReductionBasis RingElement ShapeMismatch SparseRationalMatrix
TruncationTooSmall UnknownSubcommand box_operator check_face_complex_exactness
check_gr_equals_koszul choose_spanning_subset connection_matrices
derham_cohomology_dims euler_operators face_polynomial
face_projection filtration_level gr_multiply h_top_dimension is_nondegenerate
koszul_regular_sequence_check lattice_kernel log_derivative_classes
normalize_gamma poincare_identity_check poincare_series
render_box render_euler run_analyze run_subcommand sequence_image
twisted_differential validate_matrix verify_kouchnirenko
""".split()


def _loaded_after(code, prefix="gkzrank"):
    """The modules named ``prefix...`` a fresh interpreter holds after
    running ``code``; the empty prefix lists every module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code += f"\nimport sys; print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_package_import_loads_no_module():
    assert _loaded_after("import gkzrank") == {"gkzrank"}


@pytest.mark.parametrize("command", ["volume", "faces"])
def test_geometry_subcommands_skip_the_cohomology_stack(command, tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps({"matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]}))
    out = tmp_path / "out.json"
    loaded = _loaded_after(
        "from gkzrank.cli import main\n"
        f"assert main([{command!r}, {str(spec)!r}, '--out', {str(out)!r}]) == 0"
    )
    assert "gkzrank.pipeline" not in loaded
    assert not loaded & (COHOMOLOGY_STACK | {ORACLES})
    assert json.loads(out.read_text())["normalized_volume"] == 2


@pytest.mark.parametrize(
    "argv,code",
    [(["analyze"], 0), (["analyze", "--fiber", "1,1,1,1"], 2)]
    + [([c], 0) for c in ("nondegenerate", "koszul", "derham", "gkz-ops", "poincare")]
    + [(["face-complex"], 0)],
    ids=["analyze-nondegenerate", "analyze-degenerate", "nondegenerate", "koszul",
         "derham", "gkz-ops", "poincare", "face-complex"],
)
def test_only_face_complex_loads_the_claim_checks(argv, code, tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps(GAUSS_SPEC))
    out = tmp_path / "out.json"
    loaded = _loaded_after(
        "from gkzrank.cli import main\n"
        f"assert main({argv[:1] + [str(spec)] + argv[1:] + ['--out', str(out)]!r})"
        f" == {code}"
    )
    assert json.loads(out.read_text())
    if argv[0] == "analyze":
        assert loaded == ANALYZE_MODULES
    assert (ORACLES in loaded) == (argv[0] == "face-complex")


def test_the_full_koszul_complex_resolves_from_homology_on_first_use():
    # It lives in ``oracles``, which an ``analyze`` run never loads; the
    # benchmark's tracer still names it as ``gkzrank.homology``'s.
    loaded = _loaded_after(
        "import sys\n"
        "from gkzrank import ProblemSpec, homology, pipeline\n"
        f"pipeline.run_analyze(ProblemSpec.from_json({GAUSS_SPEC!r}))\n"
        f"assert {ORACLES!r} not in sys.modules\n"
        "from gkzrank.oracles import GradedKoszulComplex\n"
        "assert homology.GradedKoszulComplex is GradedKoszulComplex\n"
    )
    assert ORACLES in loaded


# The records are plain classes: a dataclass import costs every process the
# ``inspect``/``ast``/``dis`` chain plus code generation per record class.
# The argv parser is a loop: ``argparse`` brings ``gettext``, and building its
# parsers ``locale``, several milliseconds per process in all.
@pytest.mark.parametrize(
    "command,fiber,code",
    [("analyze", "1,2,3,4", 0), ("analyze", "1,1,1,1", 2), ("volume", "1,2,3,4", 0)],
    ids=["analyze-nondegenerate", "analyze-degenerate", "volume"],
)
def test_cli_runs_load_no_dataclass_machinery(command, fiber, code, tmp_path):
    spec = tmp_path / "problem.json"
    spec.write_text(json.dumps({"matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]]}))
    out = tmp_path / "out.json"
    loaded = _loaded_after(
        "from gkzrank.cli import main\n"
        f"assert main([{command!r}, {str(spec)!r}, '--fiber', {fiber!r}, "
        f"'--out', {str(out)!r}]) == {code}",
        prefix="",
    )
    assert "gkzrank.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert json.loads(out.read_text())


def test_pipeline_loads_every_traced_module():
    # bench/trace_child.py wraps only the modules loaded once it has run
    # ``import gkzrank; from gkzrank import pipeline``.
    path = ROOT / "bench" / "trace_child.py"
    targets = runpy.run_path(str(path), run_name="trace_child")["TARGETS"]
    wanted = {modname for _, modname, _, _ in targets}
    assert wanted >= COHOMOLOGY_STACK
    assert wanted <= _loaded_after("import gkzrank\nfrom gkzrank import pipeline")


def test_public_names_are_unchanged_and_resolve_to_their_modules():
    assert sorted(gkzrank.__all__) == sorted(EXPORTS)
    for name in gkzrank.__all__:
        value = getattr(gkzrank, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert set(EXPORTS) <= set(dir(gkzrank))
    with pytest.raises(AttributeError):
        gkzrank.no_such_name
    from gkzrank import derham

    assert derham is sys.modules["gkzrank.derham"]


# Every function in the 12 ``analyze`` modules that no ``gkz analyze`` run
# below calls, each for one of five reasons.  A process compiles every line
# of the modules it loads, so anything else belongs in ``oracles`` or the
# tests.  ``tracer`` names a function that bench/trace_child.py wraps or
# calls (``RationalSpan`` whole, for its traced ``add``); ``value type``
# names the equality and hash that make a returned polynomial a value.
TRACER, ERROR, OTHER, PEP562, VALUE = (
    "tracer target", "usage/error path", "other subcommand", "PEP 562 hook",
    "value type",
)
NOT_RUN_BY_ANALYZE = {
    "__init__.__dir__": PEP562,
    "__init__.__getattr__": PEP562,
    "cli._help": ERROR,
    "cli._parse.fail": ERROR,
    "derham.ReductionBasis.reduce": TRACER,
    "derham.twisted_differential": TRACER,
    "errors.MismatchAtDegree.__init__": ERROR,
    "errors.RankDeficient.__init__": ERROR,
    "errors.TruncationTooSmall.__init__": ERROR,
    "homology.__getattr__": PEP562,
    "jsonio.error_json": ERROR,
    "jsonio.geometry_answer": OTHER,
    "lattice.NewtonPolytope.bounding_box": TRACER,
    "lattice.NewtonPolytope.lattice_points_with_gauge_at_most": TRACER,
    "linalg.RationalSpan.__init__": TRACER,
    "linalg.RationalSpan.add": TRACER,
    "linalg.RationalSpan.contains": TRACER,
    "linalg.RationalSpan.rank": TRACER,
    "linalg.RationalSpan.residue": TRACER,
    "linalg.SparseRationalMatrix.nnz": TRACER,
    "linalg.solve": TRACER,
    "nondegeneracy.NondegeneracyReport.offending_faces": OTHER,
    "pipeline.run_subcommand": OTHER,
    "rings.poincare_series": TRACER,
    "rings.PolyZ.__eq__": VALUE,
    "rings.PolyZ.__hash__": VALUE,
}


def _functions(code, path, out):
    """(file, first line, name) -> dotted path of every def under ``code``;
    class bodies extend the path, and comprehensions and lambdas are not
    defs."""
    for c in code.co_consts:
        if isinstance(c, types.CodeType) and not c.co_name.startswith("<"):
            if c.co_flags & inspect.CO_OPTIMIZED:
                out[c.co_filename, c.co_firstlineno, c.co_name] = ".".join(
                    path + (c.co_name,)
                )
            _functions(c, path + (c.co_name,), out)
    return out


def test_analyze_runs_every_function_it_compiles(tmp_path):
    defs = {}
    for name in ANALYZE_MODULES:
        module = importlib.import_module(name)
        source = Path(module.__file__).read_text(encoding="utf-8")
        code = compile(source, module.__file__, "exec")
        _functions(code, (name.partition(".")[2] or "__init__",), defs)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            c = frame.f_code
            called.add((c.co_filename, c.co_firstlineno, c.co_name))

    # The golden specs include the degenerate Gauss fiber and
    # diamond-pyramid-4 with gamma 1/2, run once more through the options.
    runs = [(name, [], GOLDEN[name][0]) for name in GOLDEN_SPECS] + [
        ("gauss", ["--fiber", "1,1,1,1"], 2),
        ("diamond-pyramid-4", ["--gamma", "1/2,1/2,1/2"], 0),
    ]
    for name, options, expected_code in runs:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(GOLDEN_SPECS[name]))
        argv = ["analyze", str(path), "--no-timings", "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys.setprofile(profile)
            try:
                code = cli.main(argv + options)
            finally:
                sys.setprofile(None)
        assert code == expected_code, name
    assert set(NOT_RUN_BY_ANALYZE.values()) <= {TRACER, ERROR, OTHER, PEP562, VALUE}
    not_run = {qualname for key, qualname in defs.items() if key not in called}
    assert not_run == set(NOT_RUN_BY_ANALYZE)


def test_a_foreign_gkzrank_first_on_pythonpath_fails_the_session(tmp_path):
    foreign = tmp_path / "src" / "gkzrank"
    foreign.mkdir(parents=True)
    (foreign / "__init__.py").write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--collect-only", "tests/test_demos.py"],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(foreign.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == pytest.ExitCode.USAGE_ERROR, proc.stdout + proc.stderr
    for path in (foreign, ROOT / "src" / "gkzrank"):
        assert str(path.resolve()) in proc.stderr
