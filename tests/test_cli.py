import hashlib
import json
import warnings

import pytest

from gkzrank import ProblemSpec, UnknownSubcommand, run_analyze, run_subcommand
from gkzrank.cli import main

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

    def test_truncation_cap_variable(self, tmp_path, capsys, monkeypatch):
        path = write_spec(tmp_path, GAUSS_SPEC)
        monkeypatch.setenv("GKZ_TRUNCATION_CAP", "1")
        assert main(["koszul", path]) == 1
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["type"] == "TruncationTooSmall"

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


# SHA-256 of the ``gkz analyze --no-timings`` stdout and the exit code,
# recorded before the elimination engine moved from ``Fraction`` to integer
# rows; any change to these bytes is a change to the reports.
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
}
GOLDEN = {
    "gauss": (
        0, "e6f4ded08ba69b0466f4d9b0790eed79d22f2972044eac72dda47ca5d1ac6f0c"
    ),
    "normal-curve-5": (
        0, "d896cf4cded37e7841a5675f8936b2760244febf8c1adf00b29f0bace83cbcba"
    ),
    "gauss-rational": (
        0, "614a1ed3d81a6f42e87af41b2bfb79f10f135b559d5622dbcfd81b1a4c4ff899"
    ),
    "sweep-draw-3d": (
        0, "9037062fa98890324bb8ab367b8ae01256fa2897e4228db542a87821ce0198ba"
    ),
    "triple-ray": (
        0, "f03e987c9e7e61553f0bfd0866cb42d0dfa4c03aa60cba5dcdb2a8a509f47f4e"
    ),
    "gauss-degenerate": (
        2, "8e7db5fb6cdee676c648301b93b9484e3e8afddfb72e6537f2d629be2a273e6c"
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_report_bytes(name, tmp_path, capsys):
    path = write_spec(tmp_path, GOLDEN_SPECS[name])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = main(["analyze", path, "--no-timings"])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == GOLDEN[name]
