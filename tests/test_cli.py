import json
import math
import subprocess
import sys
from functools import partial

import numpy as np
import pytest
from click.testing import CliRunner

from coneproj import cones, isotonic, kernels
from coneproj.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_cone(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture
def orthant3(tmp_path):
    return write_cone(tmp_path, "orthant3.json", {"type": "orthant", "dim": 3})


@pytest.fixture
def orthant2(tmp_path):
    return write_cone(tmp_path, "orthant2.json", {"type": "orthant", "dim": 2})


@pytest.fixture
def lorentz2(tmp_path):
    return write_cone(tmp_path, "lorentz2.json", {"type": "lorentz", "dim": 2})


@pytest.fixture
def lorentz3(tmp_path):
    return write_cone(tmp_path, "lorentz3.json", {"type": "lorentz", "dim": 3})


# Pairwise-obtuse generators: Gram off-diagonals -0.4.
_G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
TRIANGLE = {"type": "simplicial", "columns": np.linalg.cholesky(_G).tolist()}


def report_of(result):
    return json.loads(result.output)


class TestProject:
    def test_orthant(self, runner, orthant3):
        result = runner.invoke(main, ["project", orthant3, "--point", "1,-2,3"])
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["verdict"] == "value"
        assert rep["point"] == [1.0, 0.0, 3.0]

    def test_lorentz(self, runner, lorentz3):
        result = runner.invoke(main, ["project", lorentz3, "--point", "[0, 4, 3]"])
        assert result.exit_code == 0
        rep = report_of(result)
        np.testing.assert_allclose(rep["point"], [0.0, 3.5, 3.5])
        assert abs(rep["moreau_gap"]) < 1e-9

    @pytest.mark.parametrize("data", [
        {"type": "simplicial", "columns": [[2.0, 1.0, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]]},
        {"type": "halfspaces", "dim": 3,
         "normals": [[1.0, 0.0, -1.0], [0.0, 1.0, -1.0], [-1.0, 0.0, -1.0], [0.0, -1.0, -1.0]]},
        {"type": "generators", "dim": 3,
         "generators": [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 0.0, 2.0]]},
        {"type": "lorentz", "dim": 3},
    ], ids=["simplicial", "halfspaces", "generators", "lorentz"])
    def test_moreau_gap_is_relative_and_finite(self, runner, tmp_path, data):
        # The gap is <p/s, q/s> with s = max|x|, so it stays finite at 1e200.
        cone = write_cone(tmp_path, "cone.json", data)
        result = runner.invoke(main, ["project", cone, "--point", "1e200,-3e200,2e200"])
        assert result.exit_code == 0
        assert "Infinity" not in result.output
        rep = report_of(result)
        assert math.isfinite(rep["moreau_gap"]) and abs(rep["moreau_gap"]) < 1e-9

    def test_moreau_gap_of_zero_point(self, runner, orthant3):
        result = runner.invoke(main, ["project", orthant3, "--point", "0,0,0"])
        assert result.exit_code == 0
        assert report_of(result)["moreau_gap"] == 0.0

    def test_point_in_minus_dual_projects_to_zero(self, runner, tmp_path):
        cone = write_cone(
            tmp_path, "simp.json",
            {"type": "simplicial", "columns": [[2.0, 0.0], [1.0, 1.0]]},
        )
        result = runner.invoke(main, ["project", cone, "--point", "-1,-1"])
        assert result.exit_code == 0
        np.testing.assert_allclose(report_of(result)["point"], [0.0, 0.0], atol=1e-12)

    def test_bad_point(self, runner, orthant3):
        result = runner.invoke(main, ["project", orthant3, "--point", "a,b"])
        assert result.exit_code == 3

    def test_dim_mismatch(self, runner, orthant3):
        result = runner.invoke(main, ["project", orthant3, "--point", "1,2"])
        assert result.exit_code == 3

    def test_malformed_cone(self, runner, tmp_path):
        bad = write_cone(tmp_path, "bad.json", {"type": "orthant"})
        result = runner.invoke(main, ["project", bad, "--point", "1"])
        assert result.exit_code == 3

    @pytest.mark.parametrize("dim", [3.7, True, "3"])
    def test_non_integer_dim(self, runner, tmp_path, dim):
        bad = write_cone(tmp_path, "bad.json", {"type": "orthant", "dim": dim})
        result = runner.invoke(main, ["project", bad, "--point", "1,-2,3"])
        assert result.exit_code == 3
        assert "dim must be an integer" in result.output


class TestCertify:
    def test_orthant_self_inconclusive(self, runner, orthant3):
        result = runner.invoke(main, ["certify", orthant3, orthant3])
        assert result.exit_code == 2
        rep = report_of(result)
        assert rep["verdict"] == "inconclusive"
        cert = rep["certificate"]
        assert cert["k_in_l"] and cert["l_in_k_dual"] and cert["k_subdual"]

    def test_orthant_vs_lorentz2_refuted(self, runner, orthant2, lorentz2):
        result = runner.invoke(main, ["certify", orthant2, lorentz2])
        assert result.exit_code == 1
        assert report_of(result)["verdict"] == "refuted"

    def test_triangle_fast_path(self, runner, tmp_path, orthant3):
        cone = write_cone(tmp_path, "triangle.json", TRIANGLE)
        result = runner.invoke(main, ["certify", cone, orthant3])
        assert result.exit_code == 1
        assert report_of(result)["certificate"]["kind"] == "obstruction"

    @pytest.mark.parametrize("k_data, l_data, message", [
        (TRIANGLE, {"type": "orthant", "dim": 5}, "K and L dimensions disagree"),
        # e1 and -e1 both generate it: not pointed.
        (TRIANGLE, {"type": "generators", "dim": 3,
                    "generators": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]]},
         "certify_necessary requires proper cones"),
        ({"type": "orthant", "dim": 3}, {"type": "orthant", "dim": 5}, "vector of size 3"),
    ], ids=["triangle-dim-mismatch", "triangle-improper", "orthant-dim-mismatch"])
    def test_unusable_l_exits_3(self, runner, tmp_path, k_data, l_data, message):
        # The triangle's triple obstruction reads K alone; L is checked all the same.
        K = write_cone(tmp_path, "k.json", k_data)
        result = runner.invoke(main, ["certify", K, write_cone(tmp_path, "l.json", l_data)])
        assert result.exit_code == 3
        assert message in result.output

    def test_thin_cones_are_proper(self, runner, tmp_path, orthant2):
        # |x1| <= 1e-3 x2 is proper.  In halfspace form certify stops at the
        # missing generator form; its dual, the wide cone on (+-1, 1e-3) in
        # generator form, is certified.
        thin = write_cone(tmp_path, "thin.json", {
            "type": "halfspaces", "dim": 2, "normals": [[1.0, -1e-3], [-1.0, -1e-3]]})
        result = runner.invoke(main, ["certify", thin, orthant2])
        assert result.exit_code == 3
        assert "no generator representation" in result.output
        wide = write_cone(tmp_path, "wide.json", {
            "type": "generators", "dim": 2, "generators": [[1.0, 1e-3], [-1.0, 1e-3]]})
        result = runner.invoke(main, ["certify", wide, orthant2])
        assert result.exit_code == 1
        cert = report_of(result)["certificate"]
        assert cert["interior_kdual_l"] and not cert["k_in_l"]


class TestSignFlip:
    def test_witness(self, runner, tmp_path):
        cone = write_cone(
            tmp_path, "id.json",
            {"type": "simplicial", "columns": [[1.0, 0.0], [0.0, 1.0]]},
        )
        result = runner.invoke(main, ["sign-flip", cone])
        assert result.exit_code == 0
        cert = report_of(result)["certificate"]
        assert cert["kind"] == "subdual_witness"
        assert cert["epsilon"] == [1, 1]

    def test_obstruction(self, runner, tmp_path):
        G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
        E = np.linalg.cholesky(G).T
        cone = write_cone(
            tmp_path, "triangle.json",
            {"type": "simplicial", "columns": E.T.tolist()},
        )
        result = runner.invoke(main, ["sign-flip", cone])
        assert result.exit_code == 1
        assert sorted(report_of(result)["certificate"]["cycle"]) == [0, 1, 2]

    def test_non_simplicial(self, runner, orthant3):
        result = runner.invoke(main, ["sign-flip", orthant3])
        assert result.exit_code == 3


class TestFalsify:
    def test_orthant_self(self, runner, orthant3):
        result = runner.invoke(
            main, ["falsify", orthant3, orthant3, "--trials", "2000"]
        )
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["verdict"] == "inconclusive"
        assert "not a proof" in rep["note"]

    def test_orthant_vs_lorentz2(self, runner, orthant2, lorentz2):
        result = runner.invoke(main, ["falsify", orthant2, lorentz2, "--seed", "42"])
        assert result.exit_code == 1
        assert report_of(result)["certificate"]["kind"] == "counterexample"

    def test_reports_byte_identical(self, runner, orthant2, lorentz2):
        args = ["falsify", orthant2, lorentz2, "--seed", "42"]
        a = report_of(runner.invoke(main, args))
        b = report_of(runner.invoke(main, args))
        a.pop("timing_ms")
        b.pop("timing_ms")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_huge_scale_refuted(self, runner, orthant2, lorentz2):
        result = runner.invoke(main, ["falsify", orthant2, lorentz2, "--trials", "1000",
                                      "--seed", "42", "--scale", "1e160"])
        assert result.exit_code == 1
        assert report_of(result)["verdict"] == "refuted"

    def test_dim_mismatch(self, runner, orthant3, lorentz2):
        result = runner.invoke(main, ["falsify", orthant3, lorentz2])
        assert result.exit_code == 3

    def test_overflowing_scale_exits_3(self, runner, orthant3):
        with np.errstate(over="ignore", invalid="ignore"):
            result = runner.invoke(main, ["falsify", orthant3, orthant3, "--scale", "1.7e308"])
        assert result.exit_code == 3
        assert "overflow at scale" in result.output

    def test_needle_order_refuted(self, runner, tmp_path, orthant3):
        # Directions are projections onto the order, however thin it is.
        eps = 1e-4
        needle = write_cone(tmp_path, "needle.json", {
            "type": "halfspaces", "dim": 3,
            "normals": [[1.0, 0.0, -eps], [-1.0, 0.0, -eps],
                        [0.0, 1.0, -eps], [0.0, -1.0, -eps]],
        })
        result = runner.invoke(main, ["falsify", orthant3, needle, "--trials", "10"])
        assert result.exit_code == 1
        assert report_of(result)["certificate"]["kind"] == "counterexample"


class TestRecognize:
    def test_monotone(self, runner, tmp_path):
        cone = write_cone(
            tmp_path, "mono.json", {"type": "monotone_nonneg", "dim": 3}
        )
        result = runner.invoke(main, ["recognize-orthant-isotone", cone])
        assert result.exit_code == 0
        rep = report_of(result)
        assert rep["verdict"] == "certified"
        assert rep["alternatives"] == {"in_orthant": True, "interior_disjoint": False}
        assert rep["certificate"] == {"kind": "orthant_isotone_report", "isotone": True,
                                      "offending_normal": None, "facet_count": 3}

    def test_orthant(self, runner, orthant3):
        result = runner.invoke(main, ["recognize-orthant-isotone", orthant3])
        assert result.exit_code == 0

    def test_three_nonzero_refuted(self, runner, tmp_path):
        s = 1 / np.sqrt(3)
        cone = write_cone(
            tmp_path, "bad.json",
            {
                "type": "halfspaces",
                "dim": 3,
                "normals": [[s, s, -s], [0.0, 0.0, -1.0]],
            },
        )
        result = runner.invoke(main, ["recognize-orthant-isotone", cone])
        assert result.exit_code == 1
        rep = report_of(result)
        assert rep["verdict"] == "refuted"
        assert rep["certificate"] == {"kind": "orthant_isotone_report", "isotone": False,
                                      "offending_normal": [s, s, -s], "facet_count": 2}

    def test_lorentz_unsupported(self, runner, lorentz3):
        result = runner.invoke(main, ["recognize-orthant-isotone", lorentz3])
        assert result.exit_code == 3


class TestDual:
    def test_orthant_self(self, runner, orthant3):
        result = runner.invoke(main, ["dual", orthant3])
        assert result.exit_code == 0
        assert report_of(result)["dual"] == {"type": "orthant", "dim": 3}

    def test_lorentz_self(self, runner, lorentz3):
        result = runner.invoke(main, ["dual", lorentz3])
        assert report_of(result)["dual"] == {"type": "lorentz", "dim": 3}

    def test_simplicial_writes_file(self, runner, tmp_path):
        cone = write_cone(
            tmp_path, "simp.json",
            {"type": "simplicial", "columns": [[2.0, 0.0], [1.0, 1.0]]},
        )
        out = tmp_path / "dual.json"
        result = runner.invoke(main, ["dual", cone, "--cone-out", str(out)])
        assert result.exit_code == 0
        data = json.loads(out.read_text())
        assert data["type"] == "simplicial"
        # Dual generators are biorthogonal to the primal ones.
        E = np.array([[2.0, 1.0], [0.0, 1.0]])
        E = E / np.linalg.norm(E, axis=0)
        F = np.array(data["columns"]).T
        prod = F.T @ E
        assert np.max(np.abs(prod - np.diag(np.diag(prod)))) < 1e-10


# The certificate object of each kind as the CLI printed it before the
# certificate classes serialized themselves, byte for byte once re-encoded
# with sorted keys (floats re-encode to the same digits), with the exit code.
GOLDEN_CERTIFICATES = [
    (["sign-flip", "identity"], 0,
     '{"epsilon": [1, 1], "index_set": [0, 1], "kind": "subdual_witness"}'),
    (["sign-flip", "triangle"], 1, '{"cycle": [1, 0, 2], "kind": "obstruction"}'),
    (["certify", "orthant2", "orthant2"], 2,
     '{"interior_kdual_l": true, "interior_kdual_ldual": true, "k_in_l": true, '
     '"k_subdual": true, "kind": "containment_report", "l_in_k_dual": true}'),
    (["certify", "orthant2", "lorentz2"], 1,
     '{"interior_kdual_l": true, "interior_kdual_ldual": true, "k_in_l": false, '
     '"k_subdual": true, "kind": "containment_report", "l_in_k_dual": false}'),
    (["falsify", "orthant2", "lorentz2"], 1,
     '{"kind": "counterexample", "margin": -5.428367892712613, '
     '"px": [3.5635777257934267, 0.0], "py": [15.901835579959076, 6.909889961453038], '
     '"trial": 9, "violation": [12.33825785416565, 6.909889961453038], '
     '"x": [3.5635777257934267, -7.187157523965803], '
     '"y": [15.901835579959076, 6.909889961453038]}'),
]


@pytest.mark.parametrize("args, code, expected", GOLDEN_CERTIFICATES,
                         ids=["-".join(args) for args, _, _ in GOLDEN_CERTIFICATES])
def test_certificate_json_golden(runner, tmp_path, orthant2, lorentz2, args, code, expected):
    G = np.eye(3) - 0.4 * (np.ones((3, 3)) - np.eye(3))
    files = {
        "identity": write_cone(tmp_path, "id.json", {
            "type": "simplicial", "columns": [[1.0, 0.0], [0.0, 1.0]]}),
        "triangle": write_cone(tmp_path, "triangle.json", {
            "type": "simplicial", "columns": np.linalg.cholesky(G).tolist()}),
        "orthant2": orthant2,
        "lorentz2": lorentz2,
    }
    result = runner.invoke(main, args[:1] + [files[name] for name in args[1:]])
    assert result.exit_code == code
    assert json.dumps(report_of(result)["certificate"], sort_keys=True) == expected


class TestReportOutput:
    def test_out_file(self, runner, orthant3, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["project", orthant3, "--point", "1,2,3", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert json.loads(out.read_text())["verdict"] == "value"

    def test_inputs_have_digests(self, runner, orthant3):
        result = runner.invoke(main, ["project", orthant3, "--point", "1,2,3"])
        digest = report_of(result)["inputs"][orthant3]
        assert len(digest) == 64


def test_cli_import_leaves_scipy_optimize_out():
    # Importing scipy.optimize costs about a third of `import coneproj.cli`;
    # feasibility runs on the library's own solver, so no module needs it.
    code = "import sys, coneproj.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "False"


def _cap_nnls(monkeypatch):
    monkeypatch.setattr(cones, "nnls", partial(kernels.nnls, max_iter=0))


def _fail_verification(monkeypatch):
    monkeypatch.setattr(isotonic, "verify_certificate", lambda *args, **kwargs: False)


# (arguments, fault, exit code): every library and usage error ends in its
# documented exit code, never in a traceback.
ERROR_EXITS = [
    pytest.param(["project", "simplicial3", "--point", "1,-2,3"], _cap_nnls, 2,
                 id="project-nnls-cap"),
    pytest.param(["falsify", "simplicial3", "orthant3", "--trials", "10"], _cap_nnls, 2,
                 id="falsify-nnls-cap"),
    pytest.param(["certify", "orthant2", "lorentz2"], _fail_verification, 2,
                 id="certify-unverified"),
    pytest.param(["sign-flip", "identity"], _fail_verification, 2, id="sign-flip-unverified"),
    pytest.param(["falsify", "orthant2", "lorentz2"], _fail_verification, 2,
                 id="falsify-unverified"),
    pytest.param(["recognize-orthant-isotone", "orthant3"], _fail_verification, 2,
                 id="recognize-unverified"),
    *[pytest.param([*args, "--tol", tol], None, 3, id=f"{args[0]}-tol-{tol}")
      for args in (["certify", "orthant3", "orthant3"], ["sign-flip", "identity"],
                   ["falsify", "orthant2", "lorentz2"], ["recognize-orthant-isotone", "orthant3"])
      for tol in ("nan", "inf", "-1")],
    pytest.param(["falsify", "orthant2", "orthant2", "--scale", "nan"], None, 3,
                 id="falsify-scale-nan"),
    pytest.param(["falsify", "orthant2", "orthant2", "--scale", "inf"], None, 3,
                 id="falsify-scale-inf"),
    pytest.param(["project", "missing", "--point", "1"], None, 3, id="missing-cone-file"),
    pytest.param(["falsify", "orthant2", "lorentz2", "--trials", "abc"], None, 3,
                 id="unparsable-trials"),
    pytest.param(["certify", "orthant2"], None, 3, id="missing-argument"),
    pytest.param(["no-such-command"], None, 3, id="unknown-command"),
    pytest.param(["project", "orthant3", "--point", '[{"a": 1}]'], None, 3,
                 id="point-of-objects"),
    pytest.param(["project", "orthant3", "--point", "1,2,3", "--out", "unwritable"], None, 3,
                 id="unwritable-out"),
    # Cone files whose vectors are not finite (json reads NaN and Infinity).
    *[pytest.param(command.format(cone).split(), None, 3, id=f"{command.split()[0]}-{cone}")
      for cone in ("nan_halfspaces", "inf_generators")
      for command in ("recognize-orthant-isotone {}", "dual {}", "project {} --point 1,2",
                      "falsify {} orthant2 --trials 10")],
]


@pytest.mark.parametrize("args, fault, code", ERROR_EXITS)
def test_error_exit_codes(runner, monkeypatch, tmp_path, orthant2, orthant3, lorentz2,
                          args, fault, code):
    files = {
        "orthant2": orthant2,
        "orthant3": orthant3,
        "lorentz2": lorentz2,
        "identity": write_cone(tmp_path, "id.json", {
            "type": "simplicial", "columns": [[1.0, 0.0], [0.0, 1.0]]}),
        "simplicial3": write_cone(tmp_path, "simp.json", {
            "type": "simplicial", "columns": [[2.0, 1.0, 0.0], [0.0, 1.0, 0.3], [0.1, 0.0, 1.0]]}),
        "nan_halfspaces": write_cone(tmp_path, "nan.json", {
            "type": "halfspaces", "dim": 2, "normals": [[math.nan, 1.0], [1.0, -1.0]]}),
        "inf_generators": write_cone(tmp_path, "inf.json", {
            "type": "generators", "dim": 2, "generators": [[1.0, 0.0], [math.inf, 1.0]]}),
        "missing": str(tmp_path / "missing.json"),
        "unwritable": str(tmp_path / "no-such-dir" / "report.json"),
    }
    if fault is not None:
        fault(monkeypatch)
    result = runner.invoke(main, [files.get(a, a) for a in args])
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == code


@pytest.mark.parametrize("args", [["--help"], ["falsify", "--help"]], ids=["main", "falsify"])
def test_help_exits_zero(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0
    assert "Usage:" in result.output
