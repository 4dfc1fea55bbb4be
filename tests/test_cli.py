import argparse
import csv
import json
import math
import os
import re
import runpy
import subprocess
import sys
import warnings
from importlib import resources

import numpy as np
import pytest

import awilt
from awilt import catalog, cli, diagnostics
from awilt.cli import (_error_rows, _fixed_methods, _parse_method, main,
                       save_model)
from awilt.domains import discretize, parse_domain
from awilt.errors import NumericalError
from awilt.invert import invert
from awilt.methods import (AWMethod, euler_method, load_method,
                           method_to_json, save_method, talbot_method,
                           to_full)
from awilt.queueing import make_experiment_model, solve_psi
from awilt.tame import preset_tame


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_import_loads_no_scipy():
    # scipy is imported by the functions that use it, so that `aw` starts
    # without it; mpmath is not a runtime dependency at all
    src = os.path.dirname(os.path.dirname(awilt.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, awilt.cli; print(sorted("
         "m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_module_runs_as_a_script(monkeypatch, capsys):
    # `python -m awilt.cli`; runpy warns that the module is imported already
    monkeypatch.setattr(sys, "argv", ["aw", "--help"])
    with pytest.warns(RuntimeWarning, match="found in sys.modules"):
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("awilt.cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aw")


class TestGen:
    def test_classical_generator(self, tmp_path, capsys):
        out = tmp_path / "e3.json"
        code, stdout, _ = run(capsys, "gen", "--method", "euler",
                              "--nprime", "3", "--out", str(out))
        assert code == 0
        info = json.loads(stdout)
        assert info["entries"] == 3 and info["n"] == 5
        m, _ = load_method(out)
        assert m.reduced and m.n_entries == 3

    def test_tame_with_domain(self, tmp_path, capsys):
        out = tmp_path / "t5.json"
        code, stdout, _ = run(capsys, "gen", "--method", "tame",
                              "--nprime", "5", "--domain", "disc:-4:4",
                              "--out", str(out))
        assert code == 0
        info = json.loads(stdout)
        assert info["epsilon"] < 1e-11
        assert info["termination"] in ("max_order", "tolerance",
                                       "no_room_for_pair")
        assert info["refits"] == [] and info["pruned"] == 0
        m, meta = load_method(out)
        assert meta.epsilon == pytest.approx(info["epsilon"])

    def test_tame_rejects_asymmetric_domain(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "--method", "tame",
                              "--nprime", "4", "--domain", "rect:-5:1:-2:3",
                              "--out", str(tmp_path / "x.json"))
        assert code == 2
        err = json.loads(stderr.splitlines()[0])
        assert err["error"] == "ValueError"
        assert err["message"].startswith("Rectangle(")
        assert "not symmetric" in err["message"]
        assert not (tmp_path / "x.json").exists()

    def test_tame_grid_too_small(self, tmp_path, capsys):
        # 20 points are one too few for a budget of 10 support points
        code, _, stderr = run(capsys, "gen", "--method", "tame",
                              "--nprime", "5", "--domain", "rseg:4",
                              "--count", "20", "--out",
                              str(tmp_path / "x.json"))
        assert code == 2
        assert json.loads(stderr) == {
            "error": "ValueError",
            "message": "need |Z| >= 2 * max_order + 1"}
        assert not (tmp_path / "x.json").exists()

    def test_tame_overflowing_domain_prints_one_line(self, tmp_path, capsys):
        # e^z overflows on disc:700:20; the library warns of nothing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout, stderr = run(
                capsys, "gen", "--method", "tame", "--nprime", "3",
                "--domain", "disc:700:20", "--out", str(tmp_path / "x.json"))
        assert code == 2 and stdout == "" and caught == []
        assert stderr.count("\n") == 1
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": "F is non-finite on Z"}

    @pytest.mark.filterwarnings("error")
    def test_zakian_overflowing_companion_matrix_prints_one_line(
            self, tmp_path, capsys):
        # N' = 135: the Pade denominator's companion matrix overflows
        code, stdout, stderr = run(capsys, "gen", "--method", "zakian",
                                   "--nprime", "135", "--out",
                                   str(tmp_path / "x.json"))
        assert code == 1 and stdout == "" and stderr.count("\n") == 1
        assert json.loads(stderr) == {"error": "NumericalError",
                                      "message": "companion matrix is not "
                                                 "finite"}

    def test_zakian_beyond_its_range_exits_1(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "--method", "zakian",
                              "--nprime", "27", "--out",
                              str(tmp_path / "x.json"))
        assert code == 1
        assert json.loads(stderr) == {"error": "NumericalError",
                                      "message": "root polish did not converge"}
        assert not (tmp_path / "x.json").exists()

    def test_tame_requires_domain(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "gen", "--method", "tame",
                              "--nprime", "5", "--out",
                              str(tmp_path / "x.json"))
        assert code == 2
        assert "domain" in json.loads(stderr.splitlines()[0])["message"]

    def test_unknown_method(self, tmp_path, capsys):
        code, _, _ = run(capsys, "gen", "--method", "nope", "--nprime", "3",
                         "--out", str(tmp_path / "x.json"))
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--domain", "disc:-1:1"], ["--count", "5"],
        ["--domain", "disc:-1:1", "--count", "5"]])
    def test_classical_method_refuses_tame_options(self, tmp_path, capsys,
                                                   extra):
        out = tmp_path / "x.json"
        code, stdout, stderr = run(capsys, "gen", "--method", "euler",
                                   "--nprime", "15", *extra, "--out",
                                   str(out))
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {
            "error": "ValueError",
            "message": "--domain and --count need --method tame"}
        assert not out.exists()

    def test_figures_in_the_order_of_the_method_file(self, tmp_path, capsys):
        out = tmp_path / "t3.json"
        code, stdout, _ = run(capsys, "gen", "--method", "tame", "--nprime",
                              "3", "--domain", "disc:-1:1", "--out",
                              str(out))
        assert code == 0
        info = json.loads(stdout)
        figures = ["epsilon", "max_abs_weight", "eta"]
        assert list(info)[3:6] == figures
        stored = json.loads(out.read_text())["metadata"]
        assert list(stored) == figures + ["domain"]
        assert [float(stored[k]) for k in figures] == [info[k]
                                                       for k in figures]

    def test_malformed_flags_exit_2(self, capsys):
        code, _, _ = run(capsys, "gen", "--method", "euler")
        assert code == 2
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        # argparse reads -1:0 as an option, so --entry has no argument
        (["fluid", "--model", "m.json", "--t", "1", "--entry", "-1:0"],
         "aw fluid: argument --entry: expected one argument"),
        ([], "aw: the following arguments are required: command"),
        (["gen", "--method", "euler", "--nprime", "3"],
         "aw gen: the following arguments are required: --out"),
    ])
    def test_parser_error_is_one_json_line(self, capsys, argv, message):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": message}

    @pytest.mark.parametrize("argv", [["--help"], ["gen", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        code, stdout, stderr = run(capsys, *argv)
        assert code == 0 and stdout.startswith("usage: aw") and stderr == ""

    def test_paired_flags_disagreeing_with_nodes(self, tmp_path, capsys):
        obj = method_to_json(euler_method(5))
        obj["paired"][0] = True  # the first node is real
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, stdout, stderr = run(capsys, "invert", "--params", str(path),
                                   "--transform", "builtin:exp_sum:c=1,a=-1",
                                   "--t", "1.0")
        assert code == 2 and stdout == ""
        assert "paired flags" in json.loads(stderr)["message"]

    @pytest.mark.parametrize("argv,code,error", [
        (["invert", "--params", "list.json", "--transform",
          "builtin:exp_sum:c=1,a=-1", "--t", "1"], 2, "ValueError"),
        (["diag", "--params", "list.json"], 2, "ValueError"),
        (["invert", "--params", "int_node.json", "--transform",
          "builtin:exp_sum:c=1,a=-1", "--t", "1"], 2, "ValueError"),
        (["diag", "--params", "int_node.json"], 2, "ValueError"),
        (["fluid", "--model", "list.json", "--t", "1"], 2, "ValueError"),
        (["invert", "--params", "t8.json", "--transform",
          "builtin:monomial_exp:b=200,a=-1", "--t", "1"], 2, "ValueError"),
        # the first N' whose nodes or weights overflow binary64
        (["gen", "--method", "euler", "--nprime", "1851", "--out",
          "out.json"], 1, "OverflowError"),
        (["gen", "--method", "talbot", "--nprime", "1775", "--out",
          "out.json"], 1, "OverflowError"),
    ])
    def test_no_traceback(self, tmp_path, monkeypatch, capsys, argv, code,
                          error):
        # a file of the wrong structure is a usage error, an overflow a
        # numerical one; each is one JSON line
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]")
        obj = method_to_json(talbot_method(8))
        save_method(tmp_path / "t8.json", talbot_method(8))
        obj["nodes"][0] = 1
        (tmp_path / "int_node.json").write_text(json.dumps(obj))
        got, stdout, stderr = run(capsys, *argv)
        assert got == code and stdout == ""
        assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr
        assert json.loads(stderr)["error"] == error


class TestParseMethod:
    def test_params_file(self, tmp_path, capsys):
        path = tmp_path / "e5.json"
        run(capsys, "gen", "--method", "euler", "--nprime", "5",
            "--out", str(path))
        assert _parse_method(str(path)) == euler_method(5)

    def test_tame_radius(self):
        assert _parse_method("tame:4.0") == preset_tame(4.0)
        assert _parse_method("tame", r_hint=4.0) == preset_tame(4.0)

    @pytest.mark.parametrize("spec,message", [
        ("euler", "method 'euler' needs a node count, e.g. euler:8"),
        ("tame", "tame preset selection needs a radius, e.g. tame:4.0"),
        ("nope:3", "unknown method spec 'nope:3'"),
    ])
    def test_errors(self, spec, message):
        with pytest.raises(ValueError) as exc:
            _parse_method(spec)
        assert str(exc.value) == message


class TestInvert:
    @pytest.fixture
    def euler_params(self, tmp_path, capsys):
        out = tmp_path / "e3.json"
        run(capsys, "gen", "--method", "euler", "--nprime", "15",
            "--out", str(out))
        return str(out)

    def test_single_t(self, euler_params, capsys):
        code, stdout, _ = run(capsys, "invert", "--params", euler_params,
                              "--transform", "builtin:exp_sum:c=1,a=-1",
                              "--t", "1.0")
        assert code == 0
        assert float(stdout) == pytest.approx(math.exp(-1.0), abs=1e-5)

    def test_grid_csv(self, euler_params, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run(capsys, "invert", "--params", euler_params,
                         "--transform", "builtin:exp_sum:c=1,a=-1",
                         "--t-grid", "0.5:2.0:4", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["t"]) for r in rows] == [0.5, 1.0, 1.5, 2.0]
        for r in rows:
            assert float(r["value"]) == pytest.approx(
                math.exp(-float(r["t"])), abs=1e-5)

    @pytest.mark.filterwarnings("error")
    def test_tiny_t_exits_1_without_warnings(self, euler_params, capsys):
        # beta/t overflows: the transform value flags the t
        code, stdout, stderr = run(capsys, "invert", "--params", euler_params,
                                   "--transform", "builtin:exp_sum:c=1,a=-1",
                                   "--t", "1e-320")
        assert code == 1 and stdout == ""
        assert json.loads(stderr) == {
            "error": "NumericalError",
            "message": "transform value at s=(inf+infj) is not finite "
                       "(t=1e-320)"}

    @pytest.mark.filterwarnings("error")
    def test_tiny_t_on_a_grid_is_flagged(self, euler_params, capsys):
        code, stdout, stderr = run(capsys, "invert", "--params", euler_params,
                                   "--transform", "builtin:exp_sum:c=1,a=-1",
                                   "--t-grid", "1e-320:1:3")
        assert code == 0
        assert json.loads(stderr) == {
            "notice": "t=1e-320: transform value at s=(inf+infj) is not "
                      "finite (t=1e-320)"}
        rows = list(csv.DictReader(stdout.splitlines()))
        assert [r["value"] == "" for r in rows] == [True, False, False]

    def test_grid_full_form_to_stdout(self, tmp_path, capsys):
        # zakian:1 is a full-form method: its values are complex and are
        # written as repr; its node collides with the pole at t = 1
        params = tmp_path / "z1.json"
        run(capsys, "gen", "--method", "zakian", "--nprime", "1",
            "--out", str(params))
        code, stdout, stderr = run(capsys, "invert", "--params", str(params),
                                   "--transform", "builtin:exp_sum:c=1,a=1",
                                   "--t-grid", "0.5:2.0:4")
        assert code == 0
        rows = list(csv.reader(stdout.splitlines()))
        assert rows[0] == ["t", "value"]
        assert [r[0] for r in rows[1:]] == ["0.5", "1", "1.5", "2"]
        assert rows[2][1] == ""
        for r in rows[1:2] + rows[3:]:
            assert r[1].startswith("(") and r[1].endswith("j)")
            assert complex(r[1]).imag == 0.0
        notices = [json.loads(line)["notice"] for line in stderr.splitlines()]
        assert len(notices) == 1 and notices[0].startswith("t=1.0:")

    def test_single_t_to_file(self, euler_params, tmp_path, capsys):
        out = tmp_path / "value.txt"
        code, stdout, _ = run(capsys, "invert", "--params", euler_params,
                              "--transform", "builtin:exp_sum:c=1,a=-1",
                              "--t", "1.0", "--out", str(out))
        assert code == 0 and stdout == ""
        want = invert(load_method(euler_params)[0], catalog.parse_transform(
            "builtin:exp_sum:c=1,a=-1").transform, 1.0)
        text = out.read_text()
        assert text.endswith("\n") and float(text) == want

    def test_requires_exactly_one_time_spec(self, euler_params, capsys):
        code, _, _ = run(capsys, "invert", "--params", euler_params,
                         "--transform", "builtin:exp_sum:c=1,a=-1")
        assert code == 2
        code, _, _ = run(capsys, "invert", "--params", euler_params,
                         "--transform", "builtin:exp_sum:c=1,a=-1",
                         "--t", "1", "--t-grid", "1:2:2")
        assert code == 2

    @pytest.mark.parametrize("grid,message", [
        ("0.1:1", "bad t-grid '0.1:1': expected a:b:n"),
        ("0.1:1:0", "t-grid needs at least one point"),
    ])
    def test_bad_t_grid(self, euler_params, capsys, grid, message):
        code, stdout, stderr = run(capsys, "invert", "--params", euler_params,
                                   "--transform", "builtin:exp_sum:c=1,a=-1",
                                   "--t-grid", grid)
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": message}

    def test_bad_transform_spec(self, euler_params, capsys):
        code, _, _ = run(capsys, "invert", "--params", euler_params,
                         "--transform", "builtin:nope", "--t", "1")
        assert code == 2

    def test_missing_params_file(self, capsys):
        code, _, _ = run(capsys, "invert", "--params", "/nonexistent.json",
                         "--transform", "builtin:exp_sum:c=1,a=-1",
                         "--t", "1")
        assert code == 2

    def test_numerical_failure_exit_1(self, tmp_path, capsys):
        # zakian:1 node sits at s=1 for t=1; collide it with the pole of
        # the transform at a=1 (growing exponential)
        out = tmp_path / "z1.json"
        run(capsys, "gen", "--method", "zakian", "--nprime", "1",
            "--out", str(out))
        code, _, stderr = run(capsys, "invert", "--params", str(out),
                              "--transform", "builtin:exp_sum:c=1,a=1",
                              "--t", "1.0")
        assert code == 1
        assert "error" in json.loads(stderr.splitlines()[0])


class TestNonFiniteDomain:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("spec,field", [
        ("disc:nan:1", "center"), ("disc:inf:1", "center"),
        ("rseg:inf", "length"), ("iseg:nan", "half_width"),
        ("rect:nan:0:-1:1", "x_min"), ("rect:-1:inf:-1:1", "x_max")])
    @pytest.mark.parametrize("command", ["diag", "gen"])
    def test_refused(self, tmp_path, capsys, spec, field, command):
        if command == "diag":
            argv = ["diag", "--params", str(resources.files("awilt")
                                            / "presets" / "tame_r7_n6.json")]
        else:
            argv = ["gen", "--method", "tame", "--nprime", "3", "--out",
                    str(tmp_path / "x.json")]
        code, stdout, stderr = run(capsys, *argv, "--domain", spec)
        assert code == 2 and stdout == "" and stderr.count("\n") == 1
        err = json.loads(stderr)
        assert err["error"] == "ValueError"
        assert err["message"].startswith(f"bad domain spec {spec!r}: "
                                         f"{field} must be finite, got ")

    def test_method_file_refused(self, tmp_path, capsys):
        obj = method_to_json(euler_method(5))
        obj["metadata"]["domain"] = {"kind": "real_segment", "length": "inf"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, stdout, stderr = run(capsys, "diag", "--params", str(path),
                                   "--moments")
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {
            "error": "ValueError", "message": "length must be finite, got inf"}


class TestNonFiniteMethod:
    @pytest.fixture
    def nan_file(self, tmp_path):
        obj = method_to_json(euler_method(5))
        obj["weights"][1]["re"] = "nan"
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["invert", "--transform", "builtin:exp_sum:c=1,a=-1", "--t", "1"],
        ["diag", "--moments"],
    ])
    def test_refused(self, nan_file, capsys, argv):
        code, stdout, stderr = run(capsys, *argv, "--params", nan_file)
        assert code == 2 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "ValueError"
        assert err["message"].startswith("entry 1 is not finite: weight "
                                         "(nan")


class TestNonFiniteNumbers:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv,message", [
        (["invert", "--t-grid", "1:inf:3"],
         "bad t-grid '1:inf:3': a, b and b - a must be finite"),
        # b - a overflows in np.linspace
        (["invert", "--t-grid=-1e308:1e308:3"],
         "bad t-grid '-1e308:1e308:3': a, b and b - a must be finite"),
        (["diag", "--dirac-grid=0:inf:3"],
         "bad t-grid '0:inf:3': a, b and b - a must be finite"),
        (["diag", "--dirac-grid=nan:0:3"],
         "bad t-grid 'nan:0:3': a, b and b - a must be finite"),
        (["invert", "--t", "inf"], "t must be positive and finite"),
        (["fluid", "--t", "inf"], "t must be positive and finite"),
        (["diag", "--bounds", "ls:eps=nan,eta=1,mu_total=1"],
         "value not finite in 'eps=nan'"),
        (["invert", "--t", "1", "--transform",
          "builtin:exp_sum:c=nan,a=-1"], "value not finite in 'c=nan'"),
        (["invert", "--t", "1", "--transform",
          "builtin:exp_sum:c=1|1,a=-1|infj"],
         "value not finite in 'a=-1|infj'"),
    ])
    def test_usage_error(self, tmp_path, capsys, argv, message):
        params = tmp_path / "e15.json"
        save_method(params, euler_method(15))
        model = tmp_path / "model.json"
        save_model(model, make_experiment_model(5, 10, seed=1))
        if argv[0] == "fluid":
            argv = argv + ["--model", str(model)]
        else:
            argv = argv + ["--params", str(params)]
        if argv[0] == "invert" and "--transform" not in argv:
            argv += ["--transform", "builtin:exp_sum:c=1,a=-1"]
        code, stdout, stderr = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": message}


class TestDiag:
    @pytest.fixture
    def zakian_params(self, tmp_path, capsys):
        out = tmp_path / "z3.json"
        run(capsys, "gen", "--method", "zakian", "--nprime", "3",
            "--out", str(out))
        return str(out)

    def test_domain_and_moments(self, zakian_params, capsys):
        code, stdout, _ = run(capsys, "diag", "--params", zakian_params,
                              "--domain", "disc:-0.5:0.5", "--moments")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["epsilon"] < 1e-3  # low-order fit on a small disc
        assert rep["eta"] >= rep["epsilon"]
        assert rep["moments"]["mu0"] == pytest.approx(1.0, abs=1e-10)

    def test_domain_report_is_the_library_one(self, capsys):
        # the stored method is reduced; the report's counts are its own,
        # and epsilon is that of the library on the same grid
        path = str(resources.files("awilt") / "presets" / "tame_r7_n6.json")
        m = load_method(path)[0]
        code, stdout, _ = run(capsys, "diag", "--params", path,
                              "--domain", "disc:-7:7", "--count", "500")
        assert code == 0
        rep = json.loads(stdout)
        assert (rep["entries"], rep["n"]) == (6, 12) == (m.n_entries,
                                                         m.n_full)
        assert rep["epsilon"] == diagnostics.epsilon_accuracy(
            m, discretize(parse_domain("disc:-7:7"), 500))
        assert rep["max_abs_weight"] == max(
            abs(w) for w in to_full(m).weights)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_epsilon_exits_1(self, capsys):
        # e^z overflows on the disc; no warning, and no "Infinity" report
        path = str(resources.files("awilt") / "presets" / "tame_r7_n6.json")
        code, stdout, stderr = run(capsys, "diag", "--params", path,
                                   "--domain", "disc:705:10")
        assert code == 1 and stdout == ""
        assert json.loads(stderr) == {
            "error": "NumericalError",
            "message": "e^z - r(z) is not finite at the grid point "
                       "(715+0j)"}

    @pytest.mark.filterwarnings("error")
    def test_ls_bound_reports_the_quadrature_error(self, capsys):
        # quad misses its 1e-12 on the r=7 preset: the estimate is in the
        # report, and nothing is written to stderr
        path = str(resources.files("awilt") / "presets" / "tame_r7_n6.json")
        code, stdout, stderr = run(capsys, "diag", "--params", path,
                                   "--bounds", "ls:eps=0,eta=1,mu_total=1")
        assert code == 0 and stderr == ""
        dirac_l1, abserr = diagnostics.dirac_l1_estimate(
            load_method(path)[0])
        assert json.loads(stdout)["bounds"] == [
            {"class": "ls", "bound": 1.0 + dirac_l1,
             "dirac_l1_abserr": abserr}]
        assert abserr > 1e-3

    def test_node_on_the_grid_exits_2(self, tmp_path, capsys):
        # Zakian-1 has its one node at z = 1, a point of disc:0:1
        params = tmp_path / "z1.json"
        run(capsys, "gen", "--method", "zakian", "--nprime", "1",
            "--out", str(params))
        code, stdout, stderr = run(capsys, "diag", "--params", str(params),
                                   "--domain", "disc:0:1")
        assert code == 2 and stdout == ""
        assert json.loads(stderr)["message"] == ("node (1+0j) lies on the "
                                                 "evaluation grid")

    def test_bounds(self, zakian_params, capsys):
        code, stdout, _ = run(capsys, "diag", "--params", zakian_params,
                              "--bounds", "se:eps=1e-12,c=2|3",
                              "--bounds", "me:eps=1e-12,norm_v=1,norm_u=2")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["bounds"][0]["bound"] == pytest.approx(5e-12)
        assert rep["bounds"][1]["bound"] == pytest.approx(
            (1 + math.sqrt(2)) * 2e-12)

    def test_dirac_grid(self, zakian_params, tmp_path, capsys):
        out = tmp_path / "dirac.csv"
        code, _, _ = run(capsys, "diag", "--params", zakian_params,
                         "--dirac-grid", "0.1:3.0:30", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert {"y", "value"} <= set(rows[0])

    def test_dirac_grid_failure_writes_no_file(self, tmp_path, capsys):
        # Talbot nodes have Re(beta) <= 0, so the Dirac approximant fails
        params, out = tmp_path / "t8.json", tmp_path / "d.csv"
        run(capsys, "gen", "--method", "talbot", "--nprime", "8",
            "--out", str(params))
        code, _, stderr = run(capsys, "diag", "--params", str(params),
                              "--dirac-grid", "0.1:1:5", "--out", str(out))
        assert code == 2
        assert json.loads(stderr.splitlines()[0])["error"] == "ValueError"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_dirac_grid_overflow_exits_1(self, tmp_path, capsys):
        # e^(-beta y) overflows at y = -1000: no warning and no NaN rows
        params, out = tmp_path / "e15.json", tmp_path / "d.csv"
        run(capsys, "gen", "--method", "euler", "--nprime", "15",
            "--out", str(params))
        code, stdout, stderr = run(capsys, "diag", "--params", str(params),
                                   "--dirac-grid=-1000:0:3", "--out",
                                   str(out))
        assert code == 1 and stdout == ""
        assert json.loads(stderr) == {
            "error": "NumericalError",
            "message": "delta_hat is not finite at y=-1000.0"}
        assert not out.exists()

    def test_repeated_calls_do_not_share_arguments(self, zakian_params,
                                                   capsys):
        # the parser is built once per process; parsed values must not leak
        code, stdout, _ = run(capsys, "diag", "--params", zakian_params,
                              "--bounds", "se:eps=1e-12,c=2",
                              "--bounds", "se:eps=1e-12,c=3")
        assert code == 0 and len(json.loads(stdout)["bounds"]) == 2
        code, stdout, _ = run(capsys, "diag", "--params", zakian_params,
                              "--moments")
        assert code == 0
        rep = json.loads(stdout)
        assert "bounds" not in rep and "moments" in rep

    def test_each_bound_class_is_its_library_function(self, zakian_params,
                                                      capsys):
        m = load_method(zakian_params)[0]
        dirac_l1, abserr = diagnostics.dirac_l1_estimate(m)
        specs = {
            "phase_type:eps=1e-12,q_l1=3,d=4,mean=2.5": {
                "pdf": (b := diagnostics.bound_phase_type(
                    1e-12, 3.0, d=4.0, alpha_Qinv_one=2.5)).pdf,
                "cdf_dimension": b.cdf_dimension,
                "cdf_moment": b.cdf_moment},
            "phase_type:eps=1e-12,q_l1=3": {
                "pdf": diagnostics.bound_phase_type(1e-12, 3.0).pdf,
                "cdf_dimension": None, "cdf_moment": None},
            "fluid:eps=1e-12,lam=7,psi_inf=0.5": {
                "bound": diagnostics.bound_fluid(1e-12, 7.0, 0.5)},
            "fluid_cdf:eps=1e-12,lam=7,F_inf=0.9,first_moment=2": {
                "bound": diagnostics.bound_fluid_cdf(1e-12, 7.0, 0.9, 2.0)},
            "ls:eps=1e-12,eta=2e-12,mu_total=1,dirac_l1=3.5": {
                "bound": diagnostics.bound_ls(1e-12, 2e-12, 1.0, 3.5)},
            "ls:eps=1e-12,eta=2e-12,mu_total=1": {
                "bound": diagnostics.bound_ls(1e-12, 2e-12, 1.0, dirac_l1),
                "dirac_l1_abserr": abserr},
            "lipschitz:H=1,L=2,t=3,scv=1e-6": {
                "bound": diagnostics.bound_lipschitz(1.0, 2.0, 3.0, 1e-6)},
            "moment_estimate:f=0.5,fprime=-0.25,t=2": {
                "estimate": diagnostics.moment_error_estimate(m, 0.5, -0.25,
                                                              2.0)},
        }
        argv = ["diag", "--params", zakian_params]
        for spec in specs:
            argv += ["--bounds", spec]
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        got = json.loads(stdout)["bounds"]
        assert got == [{"class": spec.partition(":")[0], **want}
                       for spec, want in specs.items()]

    def test_readme_lists_the_bound_table(self):
        with open(os.path.join(os.path.dirname(__file__), os.pardir,
                               "README.md")) as fh:
            table = fh.read().split("| class | keys |")[1].split("\n\n")[0]
        got = {}
        for tag, cell in re.findall(r"^\| `(\w+)` \| ([^|]*) \|", table,
                                    re.M):
            keys = re.findall(r"`(\w+)`", cell)
            got[tag] = (keys, [k for k in keys if f"[`{k}`]" not in cell])
        assert got == {tag: cli._bound_keys(tag)[:2] for tag in cli._BOUNDS}

    def test_unknown_bound_class(self, zakian_params, capsys):
        code, _, _ = run(capsys, "diag", "--params", zakian_params,
                         "--bounds", "zz:eps=1")
        assert code == 2

    @pytest.mark.parametrize("spec,message", [
        ("se:eps", "bad key=value pair 'eps'"),
        ("se:eps=1,zz=2", "unknown se bound arguments ['zz']"),
        ("se:eps=1", "missing se bound arguments ['c']"),
        ("phase_type:eps=1", "missing phase_type bound arguments ['q_l1']"),
        ("me", "missing me bound arguments ['eps', 'norm_v', 'norm_u']"),
        ("ls:eps=1,mu_total=1", "missing ls bound arguments ['eta']"),
        ("me:eps=1|2,norm_v=1,norm_u=1",
         "list-valued me bound arguments ['eps']"),
        ("se:eps=1|2,c=2", "list-valued se bound arguments ['eps']"),
    ])
    def test_bad_bound_arguments(self, zakian_params, capsys, spec, message):
        code, stdout, stderr = run(capsys, "diag", "--params", zakian_params,
                                   "--bounds", spec)
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": message}


class TestFluid:
    @pytest.fixture
    def model_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, make_experiment_model(2, 3, seed=9))
        return str(path)

    def test_entry_value(self, model_file, capsys):
        code, stdout, _ = run(capsys, "fluid", "--model", model_file,
                              "--quantity", "psi", "--t", "1.0",
                              "--entry", "0:1", "--method", "talbot:20")
        assert code == 0
        got = float(stdout)
        assert 0.0 <= got <= 1.0

    def test_all_entries_csv(self, model_file, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        code, _, _ = run(capsys, "fluid", "--model", model_file,
                         "--t", "2.0", "--entry", "all",
                         "--method", "tame", "--out", str(out))
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        vals = np.array([float(r["value"]) for r in rows])
        assert np.all(vals >= -1e-10)

    @pytest.mark.parametrize("obj,message", [
        ({"Q": [[-1.0, 1.0]], "rates": [1.0]}, "Q must be square"),
        ({"Q": [[-1.0, 1.0], [1.0, -1.0]], "rates": [1.0, -1.0],
          "kind": "markov"}, "unknown kind 'markov'"),
        ({"Q": [[-1.0, 1.0], [1.0, -1.0]], "rates": [1.0, -1.0, 2.0]},
         "rates length must match generator dimension"),
    ])
    def test_bad_model_file(self, tmp_path, capsys, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, stdout, stderr = run(capsys, "fluid", "--model", str(path),
                                   "--t", "1.0")
        assert code == 2 and stdout == ""
        assert json.loads(stderr) == {"error": "ValueError",
                                      "message": message}

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text,message", [
        # a NaN state is in neither plus_idx nor minus_idx
        ('{"Q": [[-2, 1, 1], [1, -2, 1], [1, 1, -2]], '
         '"rates": [1, -1, NaN]}', "rates must be finite"),
        # a NaN in Q would reach H(s) and exit 1, as a numerical failure
        ('{"Q": [[-1, NaN], [1, -1]], "rates": [1, -1]}',
         "Q must be finite"),
        # lam sets the preset radius --method tame asks for
        ('{"Q": [[-1, 1], [1, -1]], "rates": [1, -1], "lam": NaN}',
         "lam must be finite"),
        ('{"Q": [[-1, 1], [1, -1]], "rates": [1, -1], "lam": Infinity}',
         "lam must be finite"),
    ])
    def test_non_finite_model_entry_exits_2(self, tmp_path, capsys, text,
                                            message):
        # json reads NaN and Infinity literals; each method exits 2
        path = tmp_path / "bad.json"
        path.write_text(text)
        for method in ("talbot:20", "tame"):
            code, stdout, stderr = run(capsys, "fluid", "--model", str(path),
                                       "--t", "1.0", "--method", method)
            assert code == 2 and stdout == ""
            assert json.loads(stderr) == {"error": "ValueError",
                                          "message": message}

    @pytest.mark.filterwarnings("error")
    def test_overflowing_hamiltonian_exits_1(self, tmp_path, capsys):
        # at t = 1e-306, Talbot-24's nodes beta / t overflow H(s)
        path = tmp_path / "two_state.json"
        path.write_text(json.dumps({"Q": [[-1.0, 1.0], [1.0, -1.0]],
                                    "rates": [1.0, -1.0]}))
        code, stdout, stderr = run(capsys, "fluid", "--model", str(path),
                                   "--t", "1e-306", "--method", "talbot:24")
        assert code == 1 and stdout == ""
        err = json.loads(stderr)
        assert err["error"] == "RiccatiError"
        assert err["message"].startswith("H(s) is not finite at s=")

    def test_bad_t(self, model_file, capsys):
        code, _, _ = run(capsys, "fluid", "--model", model_file,
                         "--t", "-1.0")
        assert code == 2

    @pytest.mark.parametrize("entry", ["2:0", "0:3", "9:0", "0:-1", "-1:0",
                                       "1", "a:b", "0:1:2"])
    def test_bad_entry(self, model_file, capsys, entry):
        # psi is 2x3: an index outside it, a negative index (which numpy
        # would wrap) and a malformed entry all exit 2, before inverting
        code, stdout, stderr = run(capsys, "fluid", "--model", model_file,
                                   "--t", "1.0", f"--entry={entry}",
                                   "--method", "talbot:20")
        assert code == 2
        assert stdout == ""
        assert json.loads(stderr)["error"] == "ValueError"


class TestBench:
    def test_fixed_methods_take_the_cme_file(self, tmp_path, capsys):
        path = tmp_path / "cme.json"
        save_method(path, euler_method(5))
        methods = _fixed_methods(argparse.Namespace(
            quick=True, nprime_max=25, cme_params=str(path)))
        assert methods[-1] == ("cme", euler_method(5), None)
        assert capsys.readouterr().err == ""

    def test_fixed_methods_omit_what_cannot_be_built(self, capsys):
        # zakian stops at N' = 26 in binary64; N' = 27 gets a notice
        methods = _fixed_methods(argparse.Namespace(
            quick=False, nprime_max=27, cme_params=None))
        zakian = [m.n_full for label, m, _ in methods if label == "zakian"]
        assert zakian == list(range(1, 27))
        assert [json.loads(line) for line in
                capsys.readouterr().err.splitlines()] == [
            {"notice": "zakian N'=27: root polish did not converge"},
            {"notice": "no --cme-params file given; CME rows omitted"}]

    def test_fixed_methods_note_an_overflow(self, monkeypatch, capsys):
        # a build that overflows binary64 gets a notice, as zakian's does
        def talbot(nprime):
            if nprime == 3:
                raise OverflowError("math range error")
            return talbot_method(nprime)
        monkeypatch.setitem(cli._GENERATORS, "talbot", talbot)
        methods = _fixed_methods(argparse.Namespace(
            quick=True, nprime_max=25, cme_params=None))
        assert [m for label, m, _ in methods if label == "talbot"] == [
            talbot_method(n) for n in (2, 4, 5, 6)]
        assert json.loads(capsys.readouterr().err.splitlines()[0]) == {
            "notice": "talbot N'=3: math range error"}

    def test_error_rows_skip_failed_inversions(self, capsys):
        # a node on the transform's pole fails to invert and gets a
        # notice; a node at 0 inverts, but has no moments to estimate from
        transform = catalog.entry("exp_sum", {"c": 1.0, "a": -1.0}).transform
        methods = [("euler", euler_method(5), None),
                   ("on_pole", AWMethod("p", (1.0,), (-1.0,), False), None),
                   ("at_zero", AWMethod("z", (1.0,), (0.0,), False), None)]
        rows = _error_rows(transform, 1.0, np.array([math.exp(-1.0)]),
                           math.exp(-1.0), methods)
        assert [r[0] for r in rows] == ["euler", "at_zero"]
        assert rows[0][5] is not None and rows[1][5] is None
        assert rows[1][3] == pytest.approx(1.0 - math.exp(-1.0))
        notice = json.loads(capsys.readouterr().err)["notice"]
        assert notice.startswith("on_pole N'=1: node (-1+0j)/t collides")

    def test_experiment_b_skips_failed_inversions(self, tmp_path, capsys,
                                                  monkeypatch):
        def failing(m, transform, t):
            if m.name.endswith("@disc:-0.5:0.5"):
                raise NumericalError("no value")
            return invert(m, transform, t)

        monkeypatch.setattr(cli, "invert", failing)
        code, _, stderr = run(capsys, "bench", "--experiment", "B", "--quick",
                              "--out-dir", str(tmp_path))
        assert code == 0
        assert [json.loads(line)["notice"] for line in stderr.splitlines()] \
            == [f"tame r=0.5 t={t}: no value" for t in (1.0, 3.0)
                for _ in (4, 8)]
        with open(tmp_path / "expB.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["r"] != "0.5" for r in rows)

    def test_quick_experiment_a(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, stdout, stderr = run(capsys, "bench", "--experiment", "A",
                                   "--out-dir", str(out_dir), "--quick")
        assert code == 0
        info = json.loads(stdout)
        assert len(info["files"]) == 2
        # CME rows are omitted with a notice when no file is supplied
        assert any("cme" in line.lower() for line in stderr.splitlines())
        with open(os.path.join(out_dir, "expA_pdf.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert {"method", "nprime", "n", "error", "bound",
                "estimate"} <= set(rows[0])
        methods = {r["method"] for r in rows}
        assert {"talbot", "gaver", "zakian", "tame"} <= methods
        tame_errs = [float(r["error"]) for r in rows if r["method"] == "tame"]
        assert min(tame_errs) < 1e-8

    def test_quick_experiment_a_tame_within_bound(self, tmp_path, capsys):
        # against a Talbot-32 reference the N'=4 row read 6.27e-12, above
        # its bound of 2.97e-12
        out_dir = tmp_path / "bench"
        code, _, _ = run(capsys, "bench", "--experiment", "A", "--quick",
                         "--seed", "1", "--out-dir", str(out_dir))
        assert code == 0
        with open(os.path.join(out_dir, "expA_pdf.csv")) as fh:
            rows = list(csv.DictReader(fh))
        tame = [r for r in rows if r["method"] == "tame"]
        assert [r["nprime"] for r in tame] == ["1", "2", "3", "4"]
        for r in tame:
            assert float(r["error"]) <= float(r["bound"]), r
        # ||Talbot-24 - Talbot-20||, the same on every row
        assert len({r["reference_error"] for r in rows}) == 1
        assert float(rows[0]["reference_error"]) < 1e-12

    def test_quick_experiment_b(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, _, _ = run(capsys, "bench", "--experiment", "B",
                         "--out-dir", str(out_dir), "--quick")
        assert code == 0
        with open(os.path.join(out_dir, "expB.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["method", "r", "t", "nprime", "error",
                                 "budget"]
        # two budgets can build the same entry count; the requested
        # budget tells their rows apart
        built = {(r["method"], r["r"], r["t"], r["nprime"]) for r in rows}
        assert len(built) < len(rows)
        keys = [(r["method"], r["r"], r["t"], r["budget"]) for r in rows]
        assert len(set(keys)) == len(keys)
        tame = [r for r in rows if r["method"] == "tame"]
        assert {r["budget"] for r in tame} == {"4", "8"}
        assert all(int(r["nprime"]) <= int(r["budget"]) for r in tame)
        presets = [r for r in rows if r["method"] == "tame_preset"]
        assert presets and all(int(r["nprime"]) <= int(r["budget"])
                               for r in presets)

    def test_quick_experiment_c(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, stdout, stderr = run(capsys, "bench", "--experiment", "C",
                                   "--out-dir", str(out_dir), "--quick")
        assert code == 0
        assert json.loads(stdout)["files"] == [
            os.path.join(str(out_dir), "expC.csv")]
        assert any("cme" in line.lower() for line in stderr.splitlines())
        with open(os.path.join(out_dir, "expC.csv")) as fh:
            rows = list(csv.DictReader(fh))
        methods = {r["method"] for r in rows}
        assert {"talbot", "tame_preset", "tame_circle", "tame_rect",
                "tame_fov"} <= methods
        bounded = [r for r in rows if r["bound"]]
        assert len(bounded) == 6
        for r in bounded:
            assert float(r["error"]) <= float(r["bound"])

    def test_quick_experiment_d(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, stdout, _ = run(capsys, "bench", "--experiment", "D",
                              "--out-dir", str(out_dir), "--quick")
        assert code == 0
        with open(os.path.join(out_dir, "expD_triangular.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        errs = [float(r["error"]) for r in rows if r["error"]]
        assert max(errs) < 0.2

    def test_quick_experiment_e(self, tmp_path, capsys):
        out_dir = tmp_path / "bench"
        code, stdout, _ = run(capsys, "bench", "--experiment", "E",
                              "--out-dir", str(out_dir), "--quick")
        assert code == 0
        assert len(json.loads(stdout)["files"]) == 2
        for label in ("talbot", "tame"):
            with open(os.path.join(out_dir, f"expE_{label}.csv")) as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 50
            for r in rows:
                assert abs(float(r["value"]) - float(r["reference"])) == \
                    pytest.approx(float(r["error"]), abs=1e-12)
            assert max(float(r["error"]) for r in rows) < 1e-10
