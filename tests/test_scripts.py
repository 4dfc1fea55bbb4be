import importlib.util
import json
import os
import shutil

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.fixture
def record_bench(tmp_path, monkeypatch):
    """scripts/record_bench.py, rooted at tmp_path, which holds a copy of
    BENCHMARK.json."""
    spec = importlib.util.spec_from_file_location(
        "record_bench", os.path.join(SCRIPTS, "record_bench.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    shutil.copy(os.path.join(mod.ROOT, "BENCHMARK.json"), tmp_path)
    monkeypatch.setattr(mod, "ROOT", str(tmp_path))
    monkeypatch.setattr(mod, "head_commit", lambda: "abc123-dirty")
    return mod


def _stdout(correct, metrics):
    """A run's stdout: a stray line, then its two result lines."""
    info = {"environment": {"python": "3.11.7", "nproc": 2},
            "round_call_s": [0.5], "calls": 4}
    result = {"correct": correct, "attempted": 10, "failed": 2,
              "metrics": metrics}
    return "\n".join(["check failed: x: 1 result(s)", json.dumps(info),
                      json.dumps(result)]) + "\n"


def test_record_bench_writes_the_two_lines_of_each_run(record_bench,
                                                       monkeypatch, capsys):
    e2e = {"ops_per_s": {"value": 40.5, "unit": "1/s"}}
    layers = {"catalog.eval_ms": {"value": 0.0, "unit": "ms"}}
    runs = []

    def run_workload(workload, seconds, trace):
        runs.append((workload, seconds, trace))
        return _stdout(workload != "fluid" or not trace,
                       layers if trace else e2e)

    monkeypatch.setattr(record_bench, "run_workload", run_workload)
    assert record_bench.main(["26"]) == 0
    path = os.path.join(record_bench.ROOT, "BENCH_26.json")
    assert capsys.readouterr().out == path + "\n"
    with open(os.path.join(record_bench.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    assert runs == [(w, seconds, t) for w in ("design", "curve", "fluid")
                    for t in (0, 1)]
    with open(path) as fh:
        got = json.load(fh)
    workload = {"correct": True, "attempted": 10, "failed": 2,
                "end_to_end": e2e, "per_layer": layers}
    assert got == {
        "commit": "abc123-dirty",
        "environment": {"python": "3.11.7", "nproc": 2},
        "seed": 1, "seconds": seconds,
        "reads_zero": record_bench.READS_ZERO,
        "workloads": {"design": workload, "curve": workload,
                      "fluid": {**workload, "correct": False}}}
    assert "catalog.eval_ms" in got["reads_zero"]


def test_reads_zero_names_benchmark_metrics(record_bench):
    with open(os.path.join(record_bench.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(record_bench.READS_ZERO) <= {m["name"]
                                            for m in bench["per_layer"]}


def test_count_lines_leaves_out_blanks_comments_and_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "count_lines", os.path.join(SCRIPTS, "count_lines.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    path = tmp_path / "fixture.py"
    path.write_text('''"""Module docstring,
on two lines."""

import os  # a comment after code


class A:
    """Class docstring."""
    # a comment alone

    def f(self, x):
        """Function
        docstring."""
        text = """a string that
is no docstring"""
        return (x +
                len(text))
''')
    # 17 lines, 7 of code: the import, the class and def lines, and the
    # two lines each of the string `text` and of the sum
    assert mod.count(str(path)) == (17, 7)
