#!/usr/bin/env python3
"""Write a fixed set of method builds and fluid-queue inversions, for a
byte-for-byte comparison.

Usage: PYTHONPATH=src python scripts/snapshot_builds.py OUT_DIR

Writes the rebuilt preset family to OUT_DIR/presets/ and, for each
`aw gen --method tame` build listed below, its method file NAME.json and
NAME.out (exit code, stdout and stderr of the command) to OUT_DIR.  Then
writes to OUT_DIR/fluid/ the two models of FLUID_MODELS and, for each
`aw fluid --entry all` run on them (psi and Psi, each t of FLUID_TS, each
method of FLUID_METHODS), its CSV NAME.csv and NAME.out.  Last, writes to
OUT_DIR/diag/ the method files of DIAG_METHODS and, for them, the presets
and the builds, the `aw diag --moments` output NAME_moments.out and, where
every node has Re(beta) > 0, the `aw diag --bounds LS_BOUND` output
NAME_ls.out.  Every warning is written, without its source location.
BLAS is held to one thread.  Two source trees made the same
builds, inversions and diagnostics when `diff -r OUT_A OUT_B` prints
nothing.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import awilt.cli
from awilt.domains import (fov_circle_bound, fov_hermitian_bound,
                           fov_rectangle_bound)
from awilt.methods import load_method
from awilt.queueing import (FluidQueueModel, GeneratorMatrix,
                            make_experiment_model)
from awilt.tame import build_presets

#: (name, domain spec, N', extra `aw gen` arguments)
BUILDS = (
    ("iseg80_n20_count4000", "iseg:80", 20, ["--count", "4000"]),
    ("rseg100_n33", "rseg:100", 33, []),
    ("disc31.6_n13", "disc:-31.6:31.6", 13, []),
    ("rect3_n4", "rect:-3:0:-2:2", 4, []),
    ("disc0.5_n12", "disc:-0.5:0.5", 12, []),
)
#: field-of-values domains of make_experiment_model(5, 10, seed) at t = 1
FOV_SEEDS = (1, 12, 14)
FOV_NPRIMES = (2, 3, 4, 6)
#: the seeded 15-state model and the 2-state model with a closed form
FLUID_MODELS = {
    "model1": make_experiment_model(5, 10, 1),
    "two_state": FluidQueueModel(
        GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])),
        np.array([1.0, -1.0])),
}
FLUID_TS = (1.0, 3.0, 10.0, 30.0)
FLUID_METHODS = ("talbot:24", "euler:15", "tame")
#: classical methods for the diagnostics, as (method, N') of `aw gen`
DIAG_METHODS = (("euler", 15), ("gaver", 12), ("zakian", 10), ("talbot", 20))
#: the Laplace-Stieltjes bound with eps = 0 and eta = 1: 1 + ||delta_hat||_1
LS_BOUND = "ls:eps=0,eta=1,mu_total=1"


def fov_specs(seed):
    """Domain specs of the circle, rectangle and Hermitian box at t = 1."""
    gen = make_experiment_model(5, 10, seed).gen
    circle = fov_circle_bound(gen.dim, gen.lam)
    specs = {"circle": f"disc:{circle.center.real!r}:{circle.radius!r}"}
    for label, rect in (("rect", fov_rectangle_bound(gen.dim, gen.lam)),
                        ("herm", fov_hermitian_bound(gen.Q, generator=True))):
        specs[label] = (f"rect:{rect.x_min!r}:{rect.x_max!r}:"
                        f"{rect.y_min!r}:{rect.y_max!r}")
    return specs


def aw(name, argv):
    """Run one `aw` command in-process; write NAME.out."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        code = awilt.cli.main(argv)
    with open(f"{name}.out", "w") as fh:
        fh.write(f"$ aw {' '.join(argv)}\nexit {code}\n"
                 f"-- stdout\n{out.getvalue()}-- stderr\n{err.getvalue()}")


def gen(name, spec, nprime, extra):
    """`aw gen --method tame` into NAME.json."""
    aw(name, ["gen", "--method", "tame", "--domain", spec,
              "--nprime", str(nprime), *extra, "--out", f"{name}.json"])


def fluid():
    """`aw fluid --entry all` into fluid/NAME.csv; yields the CSV paths."""
    os.makedirs("fluid", exist_ok=True)
    for label, model in FLUID_MODELS.items():
        path = f"fluid/{label}.json"
        awilt.cli.save_model(path, model)
        # "cdf" for Psi: file names must not differ by case alone
        for quantity, tag in (("psi", "psi"), ("Psi", "cdf")):
            for t in FLUID_TS:
                for method in FLUID_METHODS:
                    name = (f"fluid/{label}_{tag}_t{t:g}_"
                            f"{method.replace(':', '')}")
                    aw(name, ["fluid", "--model", path, "--quantity",
                              quantity, "--t", repr(t), "--entry", "all",
                              "--method", method, "--out", f"{name}.csv"])
                    yield f"{name}.csv"


def diag(paths):
    """`aw diag` of the DIAG_METHODS and of each method file in paths into
    diag/NAME_moments.out and, where every node has Re(beta) > 0,
    diag/NAME_ls.out; yields the .out paths."""
    os.makedirs("diag", exist_ok=True)
    classical = []
    for method, nprime in DIAG_METHODS:
        name = f"diag/{method}{nprime}"
        aw(name, ["gen", "--method", method, "--nprime", str(nprime),
                  "--out", f"{name}.json"])
        classical.append(f"{name}.json")
    for path in classical + paths:
        if not os.path.exists(path):  # a build that failed
            continue
        name = "diag/" + os.path.basename(path)[:-len(".json")]
        aw(f"{name}_moments", ["diag", "--params", path, "--moments"])
        yield f"{name}_moments.out"
        if all(b.real > 0 for b in load_method(path)[0].nodes):
            aw(f"{name}_ls", ["diag", "--params", path, "--bounds", LS_BOUND])
            yield f"{name}_ls.out"


def main():
    warnings.formatwarning = (
        lambda message, category, *_: f"{category.__name__}: {message}\n")
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    paths = build_presets("presets")
    for path in paths:
        print(path)
    builds = list(BUILDS)
    for seed in FOV_SEEDS:
        for label, spec in fov_specs(seed).items():
            builds += [(f"model{seed}_fov_{label}_n{n}", spec, n, [])
                       for n in FOV_NPRIMES]
    for build in builds:
        gen(*build)
        print(f"{build[0]}.json")
        paths.append(f"{build[0]}.json")
    for path in fluid():
        print(path)
    for path in diag(paths):
        print(path)


if __name__ == "__main__":
    main()
