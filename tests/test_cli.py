import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import awilt
from awilt import catalog, diagnostics
from awilt.cli import _parse_method, main, save_model
from awilt.invert import invert
from awilt.methods import euler_method, load_method, method_to_json
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

    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_each_bound_class_is_its_library_function(self, zakian_params,
                                                      capsys):
        m = load_method(zakian_params)[0]
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
                "bound": diagnostics.bound_ls(1e-12, 2e-12, 1.0,
                                              diagnostics.dirac_l1_norm(m))},
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

    def test_unknown_bound_class(self, zakian_params, capsys):
        code, _, _ = run(capsys, "diag", "--params", zakian_params,
                         "--bounds", "zz:eps=1")
        assert code == 2


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
