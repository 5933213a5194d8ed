import hashlib
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from gkzrank import ProblemSpec, UnknownSubcommand, run_analyze, run_subcommand
from gkzrank.cli import _emit, _load_spec, main

GAUSS_SPEC = {
    "matrix": [[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    "gamma": ["0", "0", "0"],
    "fiber": ["1", "2", "3", "4"],
}


def write_spec(tmp_path, data, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestRunAnalyze:
    def test_nondegenerate_report(self):
        spec = ProblemSpec.from_json({"matrix": [[2]], "gamma": ["0"], "fiber": ["1"]})
        report = run_analyze(spec)
        body = report.to_json()
        assert not report.degenerate
        assert body["polytope"]["normalized_volume"] == 2
        assert body["nondegeneracy"]["overall"] is True
        assert body["koszul"]["top_dimension"] == 2
        assert body["derham"]["dimension"] == 2
        assert body["rank_agreement"] is True
        assert "timings" in body

    def test_degenerate_skips_cohomology(self):
        spec = ProblemSpec.from_json(
            {"matrix": GAUSS_SPEC["matrix"], "fiber": ["1", "1", "1", "1"]}
        )
        report = run_analyze(spec)
        body = report.to_json()
        assert report.degenerate
        assert body["koszul"] is None and body["derham"] is None
        assert body["gkz"]["box"]  # operators still emitted

    @pytest.mark.parametrize(
        "fiber,degenerate", [(["1", "2", "3", "4"], False), (["1"] * 4, True)]
    )
    def test_timings_name_the_stages_in_order(self, fiber, degenerate):
        spec = ProblemSpec.from_json(dict(GAUSS_SPEC, fiber=fiber))
        report = run_analyze(spec)
        cohomology = [] if degenerate else ["koszul", "poincare", "derham"]
        stages = ["validate", "polytope", "normalize_gamma", "nondegeneracy"]
        assert report.degenerate is degenerate
        assert list(report.to_json()["timings"]) == stages + cohomology + ["operators"]
        assert all(t >= 0 for t in report.timings.values())
        assert "timings" not in run_analyze(spec, with_timings=False).to_json()

    def test_rank_numbers_agree(self):
        report = run_analyze(ProblemSpec.from_json(GAUSS_SPEC))
        body = report.to_json()
        vol = body["polytope"]["normalized_volume"]
        assert vol == body["koszul"]["top_dimension"] == body["derham"]["dimension"]

    def test_spec_round_trip(self):
        spec = ProblemSpec.from_json(GAUSS_SPEC)
        echoed = run_analyze(spec).to_json()["spec"]
        reparsed = ProblemSpec.from_json(echoed)
        assert reparsed.matrix_rows == spec.matrix_rows
        assert reparsed.gamma == spec.gamma
        assert reparsed.fiber == spec.fiber


class TestRunSubcommand:
    def test_volume(self):
        spec = ProblemSpec.from_json(GAUSS_SPEC)
        assert run_subcommand("volume", spec) == {"normalized_volume": 2}

    def test_faces(self):
        spec = ProblemSpec.from_json({"matrix": [[1, 2]]})
        out = run_subcommand("faces", spec)
        assert out["f_vector"] == [2]
        assert out["index_sets"]["0"] == [1]

    def test_gkz_ops(self):
        spec = ProblemSpec.from_json(
            {"matrix": [[2, 3]], "gamma": ["0"], "fiber": ["1", "1"]}
        )
        out = run_subcommand("gkz-ops", spec)
        assert out["box"][0]["text"] == "∂₁^3 − ∂₂^2"
        assert out["euler"][0]["text"] == "2x₁∂₁ + 3x₂∂₂"

    def test_unknown(self):
        spec = ProblemSpec.from_json({"matrix": [[1]]})
        with pytest.raises(UnknownSubcommand):
            run_subcommand("frobnicate", spec)

    def test_face_complex_bound(self):
        spec = ProblemSpec.from_json(
            {"matrix": [[1, 2]], "options": {"weight_bound": 4}}
        )
        out = run_subcommand("face-complex", spec)
        assert out["ok"] is True and out["weight_bound"] == 4


class TestCliExitCodes:
    def test_analyze_ok(self, tmp_path, capsys):
        path = write_spec(tmp_path, GAUSS_SPEC)
        assert main(["analyze", path, "--no-timings"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["rank_agreement"] is True

    def test_analyze_degenerate_exit_two(self, tmp_path, capsys):
        data = dict(GAUSS_SPEC, fiber=["1", "1", "1", "1"])
        path = write_spec(tmp_path, data)
        assert main(["analyze", path, "--no-timings"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["nondegeneracy"]["overall"] is False

    def test_malformed_matrix_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[1, 2], [2]]})
        assert main(["analyze", path]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ShapeMismatch"

    def test_rank_deficient_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[1, 2], [2, 4]]})
        assert main(["volume", path]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "RankDeficient"

    def test_missing_file_exit_one(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 1

    def test_matrix_only_spec_uses_defaults(self, tmp_path, capsys):
        # gamma defaults to zeros and the fiber to ones
        path = write_spec(tmp_path, {"matrix": [[2]]})
        assert main(["analyze", path, "--no-timings"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["gamma"] == ["0"]
        assert report["spec"]["fiber"] == ["1"]

    def test_inconsistent_gamma_length_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[2]], "gamma": ["0", "0"]})
        assert main(["analyze", path]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "ShapeMismatch"

    def test_degenerate_koszul_subcommand(self, tmp_path, capsys):
        data = dict(GAUSS_SPEC, fiber=["1", "1", "1", "1"])
        path = write_spec(tmp_path, data)
        assert main(["koszul", path]) == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "DegenerateFiber"

    def test_nondegenerate_subcommand_exit(self, tmp_path, capsys):
        data = dict(GAUSS_SPEC, fiber=["1", "1", "1", "1"])
        path = write_spec(tmp_path, data)
        assert main(["nondegenerate", path]) == 2
        capsys.readouterr()

    def test_bad_usage_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x.json"])
        assert exc.value.code == 1
        capsys.readouterr()


# Usage errors print the usage line and ``gkz: error:`` to stderr, nothing to
# stdout, and exit 1; "SPEC" stands for a problem file that exists.
USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["frobnicate", "SPEC"],
    "missing-spec": ["analyze", "--no-timings"],
    "second-spec": ["analyze", "SPEC", "SPEC"],
    "unknown-option": ["analyze", "SPEC", "--bogus"],
    "abbreviated-switch": ["analyze", "SPEC", "--no-tim"],
    "abbreviated-option": ["analyze", "SPEC", "--o", "report.json"],
    "missing-value": ["analyze", "SPEC", "--out"],
    "missing-value-before-spec": ["volume", "--fiber"],
    "empty-fiber": ["analyze", "SPEC", "--fiber", ""],
    "empty-fiber-joined": ["analyze", "SPEC", "--fiber="],
    "empty-gamma": ["analyze", "SPEC", "--gamma", ""],
    "empty-gamma-joined": ["analyze", "SPEC", "--gamma="],
    "empty-out": ["analyze", "SPEC", "--out", ""],
    "empty-out-joined": ["analyze", "SPEC", "--out="],
    "word-weight-bound": ["face-complex", "SPEC", "--weight-bound", "x"],
    "fraction-weight-bound": ["face-complex", "SPEC", "--weight-bound=2.5"],
    "switch-with-value": ["analyze", "SPEC", "--no-timings=yes"],
    "switch-of-analyze-to-volume": ["volume", "SPEC", "--no-timings"],
    "bound-of-face-complex-to-analyze": ["analyze", "SPEC", "--weight-bound", "3"],
}


@pytest.mark.parametrize("name", sorted(USAGE_ERRORS))
def test_usage_error_exits_one(name, tmp_path, capsys):
    path = write_spec(tmp_path, GAUSS_SPEC)
    argv = [path if word == "SPEC" else word for word in USAGE_ERRORS[name]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == "" and "\ngkz: error: " in err and err.startswith("usage: gkz ")
    if name.startswith("empty-"):
        flag = USAGE_ERRORS[name][2].partition("=")[0]
        assert err.endswith(f"gkz: error: {flag} needs a value\n")


@pytest.mark.parametrize(
    "argv", [["--help"], ["analyze", "--help"], ["analyze", "SPEC", "--out", "x", "-h"]]
)
def test_help_exits_zero(argv, tmp_path, capsys):
    argv = [write_spec(tmp_path, GAUSS_SPEC) if w == "SPEC" else w for w in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert not (tmp_path / "x").exists()
    if argv == ["--help"]:
        commands = ["analyze", "volume", "faces", "nondegenerate", "koszul",
                    "derham", "gkz-ops", "poincare", "face-complex"]
        assert all(f"\n  {c} " in out for c in commands)
    else:
        assert "--no-timings" in out and "--weight-bound" not in out


def test_option_forms_and_places_give_the_same_report(tmp_path, capsys):
    path = write_spec(tmp_path, GAUSS_SPEC)
    a, b, c = (tmp_path / f"{k}.json" for k in "abc")
    assert main(["analyze", path, "--no-timings", "--out", str(a)]) == 0
    assert main(["analyze", path, "--no-timings", f"--out={b}"]) == 0
    assert main(["analyze", "--out", str(c), "--no-timings", path]) == 0
    assert capsys.readouterr().out == ""
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()
    assert json.loads(a.read_text())["rank_agreement"] is True


MALFORMED_SPECS = {
    "string-fiber": {"matrix": [[1, 2]], "fiber": "12"},
    "string-gamma": {"matrix": [[1, 2]], "gamma": "0"},
    "number-gamma": {"matrix": [[1, 2]], "gamma": 5},
    "object-fiber": {"matrix": [[1, 2]], "fiber": {"1": "2"}},
    "number-options": {"matrix": [[1, 2]], "options": 3},
    "string-cap": {"matrix": [[1, 2]], "options": {"truncation_cap": "x"}},
    "bool-cap": {"matrix": [[1, 2]], "options": {"truncation_cap": True}},
    "float-bound": {"matrix": [[1, 2]], "options": {"weight_bound": 2.0}},
    "negative-bound": {"matrix": [[1, 2]], "options": {"weight_bound": -3}},
    # a cap no run can meet
    "negative-cap": {"matrix": [[1, 2]], "options": {"truncation_cap": -1}},
    # a misspelt key would run without its budget
    "unknown-option": {"matrix": [[1, 2]], "options": {"truncaton_cap": 3}},
}


def _run_cli(*args, **options):
    # A real process, so an uncaught exception would show on stderr, with
    # stdout buffered as it is by default when it is a pipe or a file.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE,
               "text": True, "timeout": 120, **options}
    return subprocess.run(
        [sys.executable, "-m", "gkzrank.cli", *args], env=env, **options
    )


@pytest.mark.parametrize("name", sorted(MALFORMED_SPECS))
def test_malformed_spec_is_an_input_error(name, tmp_path):
    path = write_spec(tmp_path, MALFORMED_SPECS[name])
    proc = _run_cli("analyze", path, "--no-timings")
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert (err["stage"], err["type"]) == ("input", "ShapeMismatch")
    assert "Traceback" not in proc.stderr


# JSON booleans are not numbers, and a zero denominator or a word is no
# rational, in the problem file and in the --fiber / --gamma overrides alike;
# every one reports the same message.  Exponent notation is refused as well,
# at once: Fraction would write out every digit of 10^999999999.  Digit
# separators and a spaced slash, which only newer Pythons' Fraction reads,
# are refused on every Python.
BAD_RATIONALS = {
    "bool-fiber": ({"matrix": [[1, 2]], "fiber": [True, 2]}, "analyze"),
    "bool-gamma": ({"matrix": [[1, 2]], "gamma": [False]}, "analyze"),
    "zero-denominator-fiber": ({"matrix": [[1, 2]], "fiber": ["1/0", "2"]}, "analyze"),
    "zero-denominator-gamma": ({"matrix": [[1, 2]], "gamma": ["1/0"]}, "analyze"),
    "zero-denominator-fiber-flag": ({"matrix": [[1, 2]]}, "volume --fiber 1/0,2"),
    "zero-denominator-gamma-flag": ({"matrix": [[1, 2]]}, "analyze --gamma 1/0"),
    "word-fiber": ({"matrix": [[1, 2]], "fiber": ["x", "2"]}, "analyze"),
    "word-gamma-flag": ({"matrix": [[1, 2]]}, "analyze --gamma x"),
    "exponent-fiber": ({"matrix": [[1, 2]], "fiber": ["1e400", "2"]}, "analyze"),
    "exponent-gamma-flag": ({"matrix": [[1, 2]]}, "analyze --gamma 1e999999999"),
    "separator-fiber": ({"matrix": [[1, 2]], "fiber": ["1_0", "2"]}, "analyze"),
    "spaced-slash-fiber-flag": ({"matrix": [[1, 2]]}, 'volume --fiber "1 /2,2"'),
}


@pytest.mark.parametrize("name", sorted(BAD_RATIONALS))
def test_bad_rational_is_an_input_error(name, tmp_path):
    data, command = BAD_RATIONALS[name]
    subcommand, *flags = shlex.split(command)
    proc = _run_cli(subcommand, write_spec(tmp_path, data), *flags)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert err["stage"] == "input"
    assert err["message"].startswith("cannot parse rational from ")
    assert "Traceback" not in proc.stderr


# A gamma or fiber of the wrong length, from the file or from a flag, is a
# fault of the input, found when the file is read.
WRONG_LENGTHS = {
    "file-gamma": (
        {"matrix": [[2]], "gamma": ["0", "0"]}, "analyze",
        "gamma has length 2, matrix has 1 rows",
    ),
    "file-fiber": (
        dict(GAUSS_SPEC, fiber=["1", "2", "3"]), "analyze",
        "fiber has length 3, matrix has 4 columns",
    ),
    "gamma-flag": (
        {"matrix": [[2]]}, "analyze --gamma 1,2",
        "gamma has length 2, matrix has 1 rows",
    ),
    "fiber-flag": (
        {"matrix": [[1, 2]]}, "volume --fiber 1",
        "fiber has length 1, matrix has 2 columns",
    ),
}


@pytest.mark.parametrize("name", sorted(WRONG_LENGTHS))
def test_wrong_length_is_an_input_error(name, tmp_path):
    data, command, message = WRONG_LENGTHS[name]
    subcommand, *flags = command.split()
    proc = _run_cli(subcommand, write_spec(tmp_path, data), *flags)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert err == {"stage": "input", "type": "ShapeMismatch", "message": message}
    assert "Traceback" not in proc.stderr


def test_deeply_nested_file_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    proc = _run_cli("volume", str(path))
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert (err["stage"], err["type"]) == ("input", "RecursionError")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["volume", "analyze"])
def test_unwritable_out_path_is_an_output_error(command, tmp_path):
    path = write_spec(tmp_path, GAUSS_SPEC)
    out = str(tmp_path / "missing-dir" / "x.json")
    proc = _run_cli(command, path, "--out", out)
    assert proc.returncode == 1
    err = json.loads(proc.stdout)["error"]
    assert (err["stage"], err["type"]) == ("output", "FileNotFoundError")
    assert out in err["message"]
    assert "Traceback" not in proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("name", ["gauss", "octahedron"])
def test_failed_write_to_stdout_is_an_output_error(name, tmp_path):
    # Gauss's report (under 8 KB) fails at the final flush, the octahedron's
    # (25 KB) partway through the streamed dump.
    path = write_spec(tmp_path, GOLDEN_SPECS[name])
    with open("/dev/full", "w") as full:
        proc = _run_cli("analyze", path, "--no-timings", stdout=full)
    assert proc.returncode == 1
    assert proc.stderr == "gkz: error: output: [Errno 28] No space left on device\n"


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 before exec")
@pytest.mark.parametrize("command", ["volume", "analyze"])
def test_closed_stdout_is_an_output_error(command, tmp_path):
    # Started with fd 1 closed, Python sets sys.stdout to None: the report
    # has nowhere to go, which is reported as a full stdout is.
    path = write_spec(tmp_path, GAUSS_SPEC)
    proc = _run_cli(command, path, stdout=None, preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1
    assert proc.stderr == "gkz: error: output: [Errno 9] stdout is closed\n"


@pytest.mark.parametrize("name,flags,code", [
    # 302 KB, more than a pipe buffer holds, so the child writes while the
    # parent reads
    ("normal-curve-16", (), 0),
    ("gauss", ("--fiber", "1,1,1,1"), 2),
    ("gauss", ("--gamma", "1,2"), 1),
])
def test_piped_report_is_whole_at_exit(name, flags, code, tmp_path, capsys):
    # The process ends without the interpreter's teardown, so every byte must
    # be out before it does: through a pipe and through --out, the bytes and
    # the exit code are the in-process ones, and stderr stays empty.
    args = ["analyze", write_spec(tmp_path, GOLDEN_SPECS[name]), "--no-timings", *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args) == code
    expected = capsys.readouterr().out.encode()
    piped = _run_cli(*args, text=False)
    assert (piped.returncode, piped.stderr, piped.stdout) == (code, b"", expected)
    out = tmp_path / "report.json"
    written = _run_cli(*args, "--out", str(out), text=False)
    assert (written.returncode, written.stderr, written.stdout) == (code, b"", b"")
    assert out.read_bytes() == expected


@pytest.mark.parametrize("name,truncation", [("gauss", 2), ("octahedron", 4)])
def test_binding_truncation_cap_is_an_analyze_error(name, truncation, tmp_path):
    # Gauss has one origin-free facet, whose certificate has factored the
    # full cone's slices before the cap is read; the octahedron has 8, and
    # the cap refuses before any slice of the full cone is built.
    spec = dict(GOLDEN_SPECS[name], options={"truncation_cap": 0})
    proc = _run_cli("analyze", write_spec(tmp_path, spec), "--no-timings")
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": {
        "stage": "analyze", "type": "TruncationTooSmall",
        "message": f"truncation degree {truncation} exceeds cap 0",
    }}


def test_emit_streams_the_report(tmp_path):
    # The report is written as it is encoded, never held whole; held as one
    # string and a copy with its newline, it peaked at 5 times its length.
    spec = ProblemSpec.from_json(GOLDEN_SPECS["normal-curve-16"])
    payload = run_analyze(spec, with_timings=False).to_json()
    size = len(json.dumps(payload, indent=2, ensure_ascii=False).encode())
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert _emit(payload, str(out), 0) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.stat().st_size == size + 1
    assert peak < size / 4, (peak, size)


class TestCliOutput:
    def test_deterministic_bytes(self, tmp_path, capsys):
        path = write_spec(tmp_path, GAUSS_SPEC)
        main(["analyze", path, "--no-timings"])
        first = capsys.readouterr().out
        main(["analyze", path, "--no-timings"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        path = write_spec(tmp_path, GAUSS_SPEC)
        out = tmp_path / "report.json"
        assert main(["analyze", path, "--no-timings", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["polytope"]["normalized_volume"] == 2

    def test_fiber_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, GAUSS_SPEC)
        code = main(["nondegenerate", path, "--fiber", "1,1,1,1"])
        assert code == 2
        capsys.readouterr()

    def test_gamma_override(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[1]], "fiber": ["1"]})
        assert main(["gkz-ops", path, "--gamma", "1/3"]) == 0
        out = json.loads(capsys.readouterr().out)
        # 1/3 normalizes by an integer shift into the nonpositive halfline
        assert out["euler"][0]["gamma_shift"] == "-2/3"

    def test_weight_bound_flag(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[1, 2]]})
        assert main(["face-complex", path, "--weight-bound", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["weight_bound"] == 3

    def test_overrides_replace_malformed_file_fields(self, tmp_path, capsys):
        # An override is written over the file's field before it is checked.
        path = write_spec(tmp_path, {**GAUSS_SPEC, "fiber": "12", "gamma": 5})
        argv = ["nondegenerate", path, "--fiber", "1,2,3,4", "--gamma", "0,0,0"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["overall"] is True

    def test_weight_bound_flag_keeps_the_file_options(self, tmp_path):
        options = {"truncation_cap": 5, "weight_bound": 1}
        path = write_spec(tmp_path, {"matrix": [[1, 2]], "options": options})
        spec = _load_spec({"spec": path, "weight_bound": 3})
        assert spec.options == {"truncation_cap": 5, "weight_bound": 3}

    def test_negative_weight_bound_flag_exit_one(self, tmp_path, capsys):
        path = write_spec(tmp_path, {"matrix": [[1, 2]]})
        assert main(["face-complex", path, "--weight-bound", "-2"]) == 1
        err = json.loads(capsys.readouterr().out)["error"]
        assert (err["stage"], err["type"]) == ("input", "ShapeMismatch")


# SHA-256 of the ``gkz analyze --no-timings`` stdout and the exit code;
# any change to these bytes is a change to the reports.  All but triple-ray
# were re-recorded when the face windows were cut from numerator degree
# + k * M to numerator degree + M, which shortened only each face's
# ``bound_used``, ``expected_dims`` and ``quotient_dims`` (triple-ray, in
# one dimension, has k = 1); the notes below on when a digest was recorded
# date its bytes apart from those three fields.
GOLDEN_SPECS = {
    "gauss": GAUSS_SPEC,
    "normal-curve-5": {
        "matrix": [[1] * 5, [0, 1, 2, 3, 4]],
        "gamma": ["0", "0"],
        "fiber": ["1", "8", "2", "9", "3"],
    },
    # rational gamma and fiber: the de Rham rows need scaling to integers
    "gauss-rational": dict(
        GAUSS_SPEC, gamma=["-4/3", "-1/2", "-2/3"], fiber=["1/2", "2", "-3/4", "5/3"]
    ),
    "sweep-draw-3d": {
        "matrix": [[1, 0, 1, 2], [1, 1, 1, 2], [2, 0, 1, 2]],
        "gamma": ["2", "-1", "2/3"],
        "fiber": ["250", "732", "322/3", "872"],
    },
    "triple-ray": {"matrix": [[3]], "gamma": ["5/2"], "fiber": ["1"]},
    "gauss-degenerate": dict(GAUSS_SPEC, fiber=["1", "1", "1", "1"]),
    # M = 60, truncation 240; recorded while the Poincare numerators still
    # went through lowest-terms rational functions
    "rank-34": {
        "matrix": [[1, -2, 1, 0], [2, 1, -2, 0], [2, 1, 0, -2]],
        "gamma": ["0", "0", "0"],
        "fiber": ["6", "7", "11", "19"],
    },
    # the derham ladder's largest problem: connection matrix entries reach
    # 129 bits, so the integer reduction carries large numerators
    "normal-curve-16": {
        "matrix": [[1] * 16, list(range(16))],
        "gamma": ["0", "0"],
        "fiber": [str((7 * i) % 13 + 1) for i in range(16)],
    },
    # rank 16; recorded while Echelon still picked Markowitz pivots, before
    # its columns were taken in order
    "cross-polytope-4": {
        "matrix": [
            [1, -1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, -1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, -1],
        ],
        "gamma": ["0", "0", "0", "0"],
        "fiber": ["1", "2", "3", "5", "7", "11", "13", "17"],
    },
    # the 10 homogenized lattice points of 3 * simplex_2, the derham
    # ladder's slowest problem; recorded while the sequence images still
    # carried Fraction entries
    "simplex-points-3": {
        "matrix": [
            [1] * 10,
            [0, 0, 0, 0, 1, 1, 1, 2, 2, 3],
            [0, 1, 2, 3, 0, 1, 2, 0, 1, 0],
        ],
        "gamma": ["0", "0", "0"],
        "fiber": [str((7 * i) % 13 + 1) for i in range(10)],
    },
    # the 9 homogenized points of the 2 x 2 square: three collinear points
    # on each edge and all nine on the hyperplane x_0 = 1
    "square-grid-2": {
        "matrix": [
            [1] * 9,
            [0, 0, 0, 1, 1, 1, 2, 2, 2],
            [0, 1, 2, 0, 1, 2, 0, 1, 2],
        ],
        "gamma": ["0", "0", "0"],
        "fiber": [str((7 * i) % 13 + 1) for i in range(9)],
    },
    # M = 4 with gamma 1/2, so the de Rham images are scaled by 2; the slices
    # are listed to the Koszul truncation 15
    "diamond-pyramid-4": {
        "matrix": [[4, 4, 4, 4], [1, -1, 0, 0], [0, 0, 1, -1]],
        "gamma": ["1/2", "1/2", "1/2"],
        "fiber": ["1", "2", "3", "5"],
    },
    "octahedron": {
        "matrix": [[1, -1, 0, 0, 0, 0], [0, 0, 1, -1, 0, 0], [0, 0, 0, 0, 1, -1]],
        "gamma": ["0", "0", "0"],
        "fiber": ["1", "2", "3", "5", "7", "11"],
    },
}
GOLDEN = {
    "gauss": (
        0, "b41929a809a0da8005de3ee190e4e60123f8d20a15709684e96a69a02ee86f45"
    ),
    "normal-curve-5": (
        0, "f8bfe7b6d3682686f81c23252f93fa6a752a39ed0487901d5858ed19b6a61742"
    ),
    "gauss-rational": (
        0, "7fed6a47ac49abc4a0cb1f8f0a0d17b74fc0f8fb2cc0a930bc14aed9603a6020"
    ),
    "sweep-draw-3d": (
        0, "2bdf2a4d2b4e1231325f86bfe3e67486180ed72f31b3197587924d32a21bd5dd"
    ),
    "triple-ray": (
        0, "f03e987c9e7e61553f0bfd0866cb42d0dfa4c03aa60cba5dcdb2a8a509f47f4e"
    ),
    "gauss-degenerate": (
        2, "5571dce02b888c2f2712fcbd984ec2132257cc726b71a21ea1ccc23e12b60a50"
    ),
    "rank-34": (
        0, "346d331be1dc293a023a3af27f8bbb359c8aad52d1a2637033e816ee98eec386"
    ),
    "normal-curve-16": (
        0, "48568afed732f22a8ae87a9654e9e25b69f72cabfa640e001d7e950a4fa96ff6"
    ),
    "cross-polytope-4": (
        0, "664264915ba3469ebdafb600f95b2a30fcc82ead323e0597485ce39b2a04a020"
    ),
    "simplex-points-3": (
        0, "bbb7fd561ea06702a52d4f8a5b5c25101e99b51147cdd2da4ecee5f87b00898c"
    ),
    # recorded before the de Rham images, the facet search and the degree
    # lookups moved to integer kernels
    "square-grid-2": (
        0, "b05c4533cc56a0fdfc7ae7fe8d83939a8f7d7c0582302f75853eadf9f52e3901"
    ),
    "diamond-pyramid-4": (
        0, "5259c3b49a813f81b888599d983f4aed1b7319f4588a762b6511a8262282e9a5"
    ),
    "octahedron": (
        0, "e73617deacf780cf71d991faffc6a67ee5fbbda5128ffd57c9f7a14b1471ca95"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name, tmp_path, capsys):
    path = write_spec(tmp_path, GOLDEN_SPECS[name])
    out = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["analyze", path, "--no-timings"])
        assert main(["analyze", path, "--no-timings", "--out", str(out)]) == code
    stdout = capsys.readouterr().out.encode()
    assert (code, hashlib.sha256(stdout).hexdigest()) == GOLDEN[name]
    assert out.read_bytes() == stdout


# One grammar on every supported Python: a sign, digits with an optional
# /digits, or a decimal, with whitespace around; Unicode digits read as
# Fraction reads them.
@pytest.mark.parametrize(
    "text,ok",
    [(x, True) for x in (" 1/2 ", "+3", "-3/4", "1.", ".5", "2.25", "١٢", 7)]
    + [(x, False) for x in (True, "1e3", "1_0", "1 /2", "1/0", "0x10", "½")],
)
def test_parse_rational_reads_one_grammar(text, ok):
    from fractions import Fraction

    from gkzrank.jsonio import parse_rational

    if ok:
        assert parse_rational(text) == Fraction(text)
    else:
        with pytest.raises(ValueError, match="^cannot parse rational from "):
            parse_rational(text)


def test_format_rational_prints_ints_and_fractions_as_they_are():
    from fractions import Fraction

    from gkzrank.jsonio import format_rational

    values = (3, -7, Fraction(6, 4), Fraction(5, 1), "6/4", 2.5)
    assert [format_rational(v) for v in values] == ["3", "-7", "3/2", "5", "3/2", "5/2"]


# SHA-256 of the ``gkz face-complex`` and ``gkz gkz-ops`` stdout for the same
# fixtures (all exit 0), recorded before M was read off the facet levels,
# the incidence signs off two minors and the box basis off one Hermite form.
# The face complex carries the incidence signs; the operators the box basis.
# The ``gkz volume`` and ``gkz faces`` digests were recorded while both were
# still answered through ``pipeline.run_subcommand``.  The ``nondegenerate``,
# ``koszul``, ``poincare`` and ``derham`` digests, with their exit codes (2
# and the ``DegenerateFiber`` JSON for gauss-degenerate), were recorded
# while each stage still took the matrix and fiber and rebuilt any result
# it was not handed.
GOLDEN_SUBCOMMANDS = {
    ("face-complex", "gauss"): (0, "7d6c6e4c1ce156c66c92e2290337302b10b895872a6b224646118db251c51214"),
    ("face-complex", "gauss-degenerate"): (0, "7d6c6e4c1ce156c66c92e2290337302b10b895872a6b224646118db251c51214"),
    ("face-complex", "gauss-rational"): (0, "7d6c6e4c1ce156c66c92e2290337302b10b895872a6b224646118db251c51214"),
    ("face-complex", "normal-curve-5"): (0, "59f369d43ba11a5b3ba42f2f98849d75d677c2125a3b3fd204341033814e01ee"),
    ("face-complex", "rank-34"): (0, "5dcbe86f81d893e3b4ae00791907059e33977cb7f16024f571a9d22dfcad69cd"),
    ("face-complex", "sweep-draw-3d"): (0, "a960bc0d4fe625c60b99b20fe4b1bd3fe0e93005208b52802d91025e0221aecd"),
    ("face-complex", "triple-ray"): (0, "1c3aec287afbb3f7495bc878eb0dd46df277612fbf1725a67c7d8886f6842569"),
    ("gkz-ops", "gauss"): (0, "d16a75d0c65e11a7a9f8ec4b56fdc28b6bc14573522c3eceb04c4384a824e3fe"),
    ("gkz-ops", "gauss-degenerate"): (0, "d16a75d0c65e11a7a9f8ec4b56fdc28b6bc14573522c3eceb04c4384a824e3fe"),
    ("gkz-ops", "gauss-rational"): (0, "7048df1c204be267715d2622660479fe2bab0dace0091fefa41d67814b4c4c93"),
    ("gkz-ops", "normal-curve-5"): (0, "9900b4788ce8649b60fa5266e6cac21b170ed26e6a015d79358ca51455ec5db8"),
    ("gkz-ops", "rank-34"): (0, "3da73dda23cf25f8d909cda6e9d99dfbe8805c8051f56f59e838fe1369d00ad1"),
    ("gkz-ops", "sweep-draw-3d"): (0, "ce57a30ff630647d765989468ce16d5ceff1e9675e6df2c9d432a3ba15da6d43"),
    ("gkz-ops", "triple-ray"): (0, "42cfd2516d38972c55da6413e5728ba68e40f0bd90a9ad13f028e8df9b9c3ee1"),
    ("volume", "gauss"): (0, "bf8fd1b19cdb0b728ac35a04a927a2170cc7c8094a733ae7a81bb228901cec67"),
    ("volume", "gauss-degenerate"): (0, "bf8fd1b19cdb0b728ac35a04a927a2170cc7c8094a733ae7a81bb228901cec67"),
    ("volume", "gauss-rational"): (0, "bf8fd1b19cdb0b728ac35a04a927a2170cc7c8094a733ae7a81bb228901cec67"),
    ("volume", "normal-curve-5"): (0, "622ba8f13717284c4e008af47dcb447817555f1d0f56162684fb31e5fc1cd41d"),
    ("volume", "rank-34"): (0, "587e8cfc89ee98341a1fa7ca575650ecaf4176f7cee141fc14667cdfc7af400f"),
    ("volume", "sweep-draw-3d"): (0, "bf8fd1b19cdb0b728ac35a04a927a2170cc7c8094a733ae7a81bb228901cec67"),
    ("volume", "triple-ray"): (0, "722c609bfb180ecbda9b60d43af523481c5f48740b41ca079a82d87623a17cfd"),
    ("faces", "gauss"): (0, "f92152c42ed74a698d614950e3f668ee3a6032f1292a9be2963b8b5e90f01ca8"),
    ("faces", "gauss-degenerate"): (0, "f92152c42ed74a698d614950e3f668ee3a6032f1292a9be2963b8b5e90f01ca8"),
    ("faces", "gauss-rational"): (0, "f92152c42ed74a698d614950e3f668ee3a6032f1292a9be2963b8b5e90f01ca8"),
    ("faces", "normal-curve-5"): (0, "57cbac992b57fb9909d05d2bf18c3a5a2838d76a870b1e4b3cb146abecb136b5"),
    ("faces", "rank-34"): (0, "03401233aed70e519109bf9f8ae63cfea9f5c319e4e097ce43555168f8ebab18"),
    ("faces", "sweep-draw-3d"): (0, "a30ef408063dea656edfcabbbf03da7d144e201e61158c77782a06674d7185dd"),
    ("faces", "triple-ray"): (0, "70a107542113e33e814e2a444b6f773bb58b9095049d2ab8b816dd2feeec7a34"),
    ("derham", "gauss"): (0, "54942d361e26f2c346f6ee9a503a2ed4207e35bfdcf8305b3978ea9f6dc01c28"),
    ("derham", "gauss-degenerate"): (2, "8b6aecaae578c47ed672f84d897e15f9e29318b63848bbd3a4b9a00bebe3d653"),
    ("derham", "gauss-rational"): (0, "d059731b0a6bda142b9666a66b4c4243b3ec49b7dcc1d389b89396d76fb8adfd"),
    ("derham", "normal-curve-5"): (0, "427a6600aab26f88dd0a7155833814bdc8b24675ad993d4401103f81f210dffd"),
    ("derham", "rank-34"): (0, "d48940e307ce56a13f2eff6c3313a77a7176173b596f4c0ed4d46edf691ee8b5"),
    ("derham", "sweep-draw-3d"): (0, "df818306f75b913f4b470442e78d15a24f095fbe5c57c7b9dbdee65062fb02e7"),
    ("derham", "triple-ray"): (0, "daac1afd11bf20a8f261d1e92cc81ba505a61a4b67553d3056f2d361952ec20b"),
    ("koszul", "gauss"): (0, "fca993acad13340ca20f0efeb14e7553dffc79b15f9f05b6665c60792137ab29"),
    ("koszul", "gauss-degenerate"): (2, "3ee86b2479a194338d1ad3f99a8dae3bf41527e2dac47cc4659b84c690ed13a6"),
    ("koszul", "gauss-rational"): (0, "fca993acad13340ca20f0efeb14e7553dffc79b15f9f05b6665c60792137ab29"),
    ("koszul", "normal-curve-5"): (0, "7c2105f539de1ed05de6489aebe668975016bb5570aee3e24a038d2068930740"),
    ("koszul", "rank-34"): (0, "8480e359effaa555f8ccf60759b7820af77bfd2769c29c8130f87c4b9c05dc92"),
    ("koszul", "sweep-draw-3d"): (0, "e4684d17728daa53a0952f0f5c4bf4632ed1ee395d47efd7c2fdccbc41b62532"),
    ("koszul", "triple-ray"): (0, "49618998493121e7ee6987201cfad1d1703e16a7ecd6170bb6bfa0b36d929562"),
    ("nondegenerate", "gauss"): (0, "5453429f95ac2c1b76a09df29df93a392690fb67e797bc0c351b2800d63df240"),
    ("nondegenerate", "gauss-degenerate"): (2, "5377e71f645dc82047ca0fe92bd6d2b796892ed13dcc1a8b36c9763b1786e478"),
    ("nondegenerate", "gauss-rational"): (0, "5453429f95ac2c1b76a09df29df93a392690fb67e797bc0c351b2800d63df240"),
    ("nondegenerate", "normal-curve-5"): (0, "1b5aa9bac07bb7a47c0f09a345944f468d14d153c0f0abacaeb0103db6dce5e8"),
    ("nondegenerate", "rank-34"): (0, "59b59218fbcb306ee10d0499904006478d7cc76e2c17a5e1ab0d164bc93fb208"),
    ("nondegenerate", "sweep-draw-3d"): (0, "f65808789ba5e08211a89f5fe233919ead52e541c9985b5f0ed0f9d39ffa9e56"),
    ("nondegenerate", "triple-ray"): (0, "55b068383ae1768bc624851204950238b3fd92329fc64ef82a8b4c39871a4dd9"),
    ("poincare", "gauss"): (0, "12e534577563e5fc9a754e16fb76ef29d165a1202e45beaf39358889ee2f0681"),
    ("poincare", "gauss-degenerate"): (2, "b3b2d674d5e5dc5ba15de67cc9b03accd42cf326f3fc5e2923d5f3ab153ae999"),
    ("poincare", "gauss-rational"): (0, "12e534577563e5fc9a754e16fb76ef29d165a1202e45beaf39358889ee2f0681"),
    ("poincare", "normal-curve-5"): (0, "5a7049d84d0a93cacc0b291c84214c7f0edb2029b9f0f502a8eab2be5014e7b9"),
    ("poincare", "rank-34"): (0, "d855d253beb91349c2c6e4b67dd6864cdf016a536315d322e12e5a54a23be84f"),
    ("poincare", "sweep-draw-3d"): (0, "12e534577563e5fc9a754e16fb76ef29d165a1202e45beaf39358889ee2f0681"),
    ("poincare", "triple-ray"): (0, "c4d94ca3cc48b78748db62ba0a798b17035dc3e15994b891dae0c3ff184d1c92"),
}


@pytest.mark.parametrize("command,name", sorted(GOLDEN_SUBCOMMANDS))
def test_golden_subcommand_bytes(command, name, tmp_path, capsys):
    path = write_spec(tmp_path, GOLDEN_SPECS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main([command, path])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN_SUBCOMMANDS[command, name]
