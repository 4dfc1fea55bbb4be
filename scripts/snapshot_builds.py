#!/usr/bin/env python3
"""Write a fixed set of method builds and fluid-queue inversions, for a
byte-for-byte comparison.

Usage: PYTHONPATH=src python scripts/snapshot_builds.py OUT_DIR

Writes the rebuilt preset family to OUT_DIR/presets/ and, for each
`aw gen --method tame` build listed below, its method file NAME.json and
NAME.out (exit code, stdout and stderr of the command) to OUT_DIR.  Then
writes to OUT_DIR/fluid/ the models of FLUID_MODELS and, for each
`aw fluid --entry all` run on them (psi and Psi, each t of FLUID_TS, each
method of FLUID_METHODS), its CSV NAME.csv and NAME.out.  Last, writes to
OUT_DIR/diag/ the method files of DIAG_METHODS and, for them, the presets
and the builds, the `aw diag --domain` output NAME_eps.out (epsilon on the
method's own domain: DIAG_DOMAIN for DIAG_METHODS, the built one for the
presets and the builds), the `aw diag --moments` output NAME_moments.out
and, where every node has Re(beta) > 0, the `aw diag --bounds LS_BOUND`
output NAME_ls.out.  Then writes to OUT_DIR/invert/ the `aw invert --t-grid`
CSV NAME.csv and NAME.out of each transform of INVERT_TRANSFORMS with
each method of INVERT_METHODS, and to OUT_DIR/library/ the `invert_curve`
CSV NAME.csv of each transform of `library_transforms` (the library ones
the CLI cannot reach) with each method of INVERT_METHODS.  Every warning
is written, without its source location.  BLAS is held to one thread.
`scripts/compare_snapshots.py OUT_A OUT_B` compares the outputs of two
source trees: every file byte for byte, except the fluid, invert and
library CSVs, which it compares numerically.
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
from awilt.catalog import matrix_exp
from awilt.domains import (fov_circle_bound, fov_hermitian_bound,
                           fov_rectangle_bound)
from awilt.invert import invert_curve
from awilt.methods import load_method
from awilt.queueing import (FluidQueueModel, GeneratorMatrix, PhaseType,
                            make_experiment_model, phase_type_transform)
from awilt.tame import PRESET_ROWS, build_presets

#: (name, domain spec, N', extra `aw gen` arguments)
BUILDS = (
    ("iseg80_n20_count4000", "iseg:80", 20, ["--count", "4000"]),
    ("rseg100_n33", "rseg:100", 33, []),
    ("disc31.6_n13", "disc:-31.6:31.6", 13, []),
    ("rect3_n4", "rect:-3:0:-2:2", 4, []),
    ("disc0.5_n12", "disc:-0.5:0.5", 12, []),
    # two refits; a pole inside the segment (exit 1)
    ("iseg40_n16", "iseg:40", 16, []),
    ("rseg1000_n12", "rseg:1000", 12, []),
)
#: field-of-values domains of make_experiment_model(5, 10, seed) at t = 1
FOV_SEEDS = (1, 12, 14)
FOV_NPRIMES = (2, 3, 4, 6)
#: the seeded 15-state model, the 2-state model with a closed form, and
#: two chains with all jump rates 1 and fluid rates +1 on the first
#: states, -1 on the rest: a 6-state birth-death chain (3 plus states),
#: and a 10-state cycle (4 plus states), where the eigenvectors of H(s)
#: the sorted solve uses have condition numbers up to about 1e5
FLUID_MODELS = {
    "model1": make_experiment_model(5, 10, 1),
    "two_state": FluidQueueModel(
        GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])),
        np.array([1.0, -1.0])),
    "birth_death": FluidQueueModel(
        GeneratorMatrix(np.eye(6, k=1) + np.eye(6, k=-1)
                        - np.diag([1.0, 2.0, 2.0, 2.0, 2.0, 1.0])),
        np.array([1.0] * 3 + [-1.0] * 3)),
    "cycle": FluidQueueModel(
        GeneratorMatrix(np.roll(np.eye(10), 1, axis=1) - np.eye(10)),
        np.array([1.0] * 4 + [-1.0] * 6)),
}
#: t = 0.3 puts two Talbot-24 nodes of the cycle, s = -731.79 +- 96.34i,
#: where its tracked eigenvectors are nearly parallel: they are solved from
#: their Schur bases
FLUID_TS = (0.3, 1.0, 3.0, 10.0, 30.0)
FLUID_METHODS = ("talbot:24", "euler:15", "tame")
#: classical methods for the diagnostics, as (method, N') of `aw gen`;
#: Zakian at every n = 1..20 pins its polished roots and residues
DIAG_METHODS = (("euler", 15), ("gaver", 12), ("talbot", 20),
                *(("zakian", n) for n in range(1, 21)))
#: the domain on which `aw diag --domain` measures epsilon of DIAG_METHODS
DIAG_DOMAIN = "disc:-1:1"
#: the Laplace-Stieltjes bound with eps = 0 and eta = 1: 1 + ||delta_hat||_1
LS_BOUND = "ls:eps=0,eta=1,mu_total=1"
#: every CLI catalog entry, as (name, transform spec, t-grid); bs_call on
#: both of its branches, Q < K and Q >= K
INVERT_TRANSFORMS = (
    ("exp_sum", "builtin:exp_sum:c=1|0.5|0.5,a=-1|-1+2j|-1-2j",
     "0.05:4:40"),
    ("monomial_exp", "builtin:monomial_exp:b=2,a=-1.5", "0.05:6:40"),
    ("triangular_wave", "builtin:triangular_wave", "0.05:5.95:60"),
    ("square_wave", "builtin:square_wave", "0.05:5.95:60"),
    ("bs_call_otm", "builtin:bs_call:q_price=80,strike=100,rate=0.05,"
     "sigma=0.1", "0.1:50:50"),
    ("bs_call_itm", "builtin:bs_call:q_price=120,strike=100,rate=0.05,"
     "sigma=0.2", "0.1:50:50"),
    ("completely_monotone_demo", "builtin:completely_monotone_demo",
     "0.001:10:50"),
)
#: (label, method file under OUT_DIR, `aw gen` arguments or None)
INVERT_METHODS = (
    ("euler15", "invert/euler15.json", ["--method", "euler", "--nprime",
                                        "15"]),
    ("talbot20", "invert/talbot20.json", ["--method", "talbot", "--nprime",
                                          "20"]),
    ("tame_r31.6", "presets/tame_r31.6_n10.json", None),
)


def library_transforms():
    """(name, transform, t-grid) of the library transforms that no `aw`
    command builds: the pdf and cdf of a 3-phase distribution, and
    P(X_t = 14 | X_0 = 0) of make_experiment_model(5, 10, 1) by
    `catalog.matrix_exp`."""
    ph = PhaseType(np.array([0.2, 0.5, 0.3]),
                   np.array([[-3.0, 1.0, 0.5], [0.5, -2.0, 1.0],
                             [0.0, 0.5, -1.0]]))
    pdf, cdf = phase_type_transform(ph)
    Q = make_experiment_model(5, 10, 1).gen.Q
    e = np.eye(len(Q))
    grid = list(np.linspace(0.05, 6.0, 40))
    return (("phase_type_pdf", pdf, grid), ("phase_type_cdf", cdf, grid),
            ("matrix_exp", matrix_exp(e[0], Q, e[-1]).transform, grid))


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


def diag(methods):
    """`aw diag` of the DIAG_METHODS and of each (method file, domain spec)
    in methods into diag/NAME_eps.out, diag/NAME_moments.out and, where
    every node has Re(beta) > 0, diag/NAME_ls.out; yields the .out
    paths."""
    os.makedirs("diag", exist_ok=True)
    classical = []
    for method, nprime in DIAG_METHODS:
        name = f"diag/{method}{nprime}"
        aw(name, ["gen", "--method", method, "--nprime", str(nprime),
                  "--out", f"{name}.json"])
        classical.append((f"{name}.json", DIAG_DOMAIN))
    for path, spec in classical + methods:
        if not os.path.exists(path):  # a build that failed
            continue
        name = "diag/" + os.path.basename(path)[:-len(".json")]
        aw(f"{name}_eps", ["diag", "--params", path, "--domain", spec])
        yield f"{name}_eps.out"
        aw(f"{name}_moments", ["diag", "--params", path, "--moments"])
        yield f"{name}_moments.out"
        if all(b.real > 0 for b in load_method(path)[0].nodes):
            aw(f"{name}_ls", ["diag", "--params", path, "--bounds", LS_BOUND])
            yield f"{name}_ls.out"


def invert():
    """`aw invert --t-grid` into invert/NAME.csv; yields the CSV paths."""
    os.makedirs("invert", exist_ok=True)
    for label, path, argv in INVERT_METHODS:
        if argv is not None:
            aw(path[:-len(".json")], ["gen", *argv, "--out", path])
        for name, spec, grid in INVERT_TRANSFORMS:
            out = f"invert/{name}_{label}"
            aw(out, ["invert", "--params", path, "--transform", spec,
                     "--t-grid", grid, "--out", f"{out}.csv"])
            yield f"{out}.csv"


def library():
    """`invert_curve` of the library transforms into library/NAME.csv, in
    the CSV format of `aw invert --t-grid`; yields the CSV paths.  Runs
    after `invert`, which writes the method files."""
    os.makedirs("library", exist_ok=True)
    transforms = library_transforms()
    for label, path, _ in INVERT_METHODS:
        m, _ = load_method(path)
        for name, transform, ts in transforms:
            out = f"library/{name}_{label}.csv"
            awilt.cli._write_csv(out, ["t", "value"],
                                 ([p.t, p.value]
                                  for p in invert_curve(m, transform, ts)))
            yield out


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
    methods = [(path, f"disc:{-r!r}:{r!r}")
               for path, (r, _) in zip(paths, PRESET_ROWS)]
    builds = list(BUILDS)
    for seed in FOV_SEEDS:
        for label, spec in fov_specs(seed).items():
            builds += [(f"model{seed}_fov_{label}_n{n}", spec, n, [])
                       for n in FOV_NPRIMES]
    for build in builds:
        gen(*build)
        print(f"{build[0]}.json")
        methods.append((f"{build[0]}.json", build[1]))
    for path in fluid():
        print(path)
    for path in diag(methods):
        print(path)
    for path in invert():
        print(path)
    for path in library():
        print(path)


if __name__ == "__main__":
    main()
