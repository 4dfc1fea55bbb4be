#!/usr/bin/env python3
"""Record the benchmark of this checkout in BENCH_<PR>.json.

Usage: python scripts/record_bench.py PR

For each workload of BENCHMARK.json, runs
``perfbench/run.py --workload W --seed 1 --seconds S`` as a subprocess,
once with ``--trace 0`` and once with ``--trace 1``, where S is the
file's ``run_seconds``.  Of each run it reads only the last two lines
printed: the run information, with the environment, and the result.
Writes BENCH_<PR>.json at the repository root: the commit (suffixed
"-dirty" when tracked files differ from it), the environment of the
first run, the run length, the per-layer metrics known to read 0
(`READS_ZERO`, with the reason), and per workload the end-to-end metrics
and the ``attempted`` and ``failed`` counts of the untraced run, the
per-layer metrics of the traced one, and ``correct`` when both runs are.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1

#: per-layer metrics that read 0 whatever the program does, because the
#: tracer wraps functions the workloads no longer reach
READS_ZERO = {
    "invert.transform_evals": "the transforms are evaluated through "
                              "Transform.at_rows, which is not counted",
    "invert.evals_per_point": "the quotient of invert.transform_evals",
    "catalog.eval_ms": "Transform.at_rows is not timed",
    "queueing.phase_type.eval_ms": "Transform.at_rows is not timed",
    "invert.invert.calls": "on curve: it inverts through invert_curve "
                           "alone",
    "diagnostics.dirac_eval.calls": "aw diag --bounds ls does not call "
                                    "dirac_eval",
    "diagnostics.dirac_l1_norm.ms": "the CLI calls dirac_l1_estimate",
    "queueing.solve_psi.continuation.ms": "sweep_psi does not call "
                                          "solve_psi",
    "queueing.solve_psi.continuation.calls": "sweep_psi does not call "
                                             "solve_psi",
    "queueing.solve_psi.sorted.ms": "sweep_psi does not call solve_psi",
    "queueing.solve_psi.sorted.calls": "sweep_psi does not call solve_psi",
}


def last_two_lines(stdout):
    """The (run information, result) objects of a run's stdout."""
    info, result = stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def head_commit():
    """HEAD, suffixed "-dirty" when tracked files differ from it."""
    return subprocess.run(["git", "describe", "--always", "--dirty",
                           "--abbrev=40"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_workload(workload, seconds, trace):
    """stdout of one perfbench run in a subprocess."""
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout


def record(commit, seconds, outputs):
    """The BENCH record of outputs, which maps each workload to the stdout
    of its untraced and of its traced run."""
    workloads, environment = {}, None
    for workload, (plain, traced) in outputs.items():
        (info, result), (_, layers) = map(last_two_lines, (plain, traced))
        environment = environment or info["environment"]
        workloads[workload] = {
            "correct": result["correct"] and layers["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "end_to_end": result["metrics"], "per_layer": layers["metrics"]}
    return {"commit": commit, "environment": environment,
            "seed": SEED, "seconds": seconds, "reads_zero": READS_ZERO,
            "workloads": workloads}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pr", type=int)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    outputs = {w["name"]: tuple(run_workload(w["name"], seconds, trace)
                                for trace in (0, 1))
               for w in bench["workloads"]}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(record(head_commit(), seconds, outputs), fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
