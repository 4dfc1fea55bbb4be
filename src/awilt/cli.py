"""Command-line surface: method generation, inversion, diagnostics,
fluid-queue queries, and the benchmark experiment harness.

Exit codes: 0 success, 1 numerical failure, 2 usage error.  Failures are
reported as one-line JSON objects on stderr, and so are notices about
rows or points left out of an otherwise successful output.

The experiments: A (fluid psi/Psi) and C (matrix exponential) compare
methods against a reference matrix at one t (`_error_rows`), B sweeps
TAME budgets over t, and D (waves) and E (Black-Scholes) compare
inverted curves against ground truth (`_curve_csv`).
"""

import argparse
import contextlib
import csv
import dataclasses
import functools
import inspect
import json
import math
import os
import sys

import numpy as np

from . import catalog, diagnostics
from .domains import (Disc, _fmt, fov_circle_bound, parse_domain,
                      select_domain)
from .errors import NumericalError
from .invert import Transform, invert, invert_curve
from .methods import (FIGURES, euler_method, gaver_method, load_method,
                      save_method, talbot_method, to_full, zakian_method)
from .numerics import matrix_exponential
from .queueing import (FluidQueueModel, GeneratorMatrix, fluid_psi_transform,
                       make_experiment_model, psi_infinity)
from .tame import PRESET_ROWS, build_tame, preset_entry, preset_tame


def _fail(obj):
    print(json.dumps(obj), file=sys.stderr)


def _cell(x):
    if isinstance(x, float):
        return _fmt(x)
    if x is None:
        return ""
    return x if isinstance(x, (str, int)) else repr(x)


def _write_csv(path, header, rows):
    """CSV to path, or to stdout when path is None.  Cells: None empty,
    str and int as they are, float by `_fmt`, anything else (the complex
    values of full-form methods) as its repr."""
    with (open(path, "w", newline="") if path
          else contextlib.nullcontext(sys.stdout)) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(x) for x in row])
    return path


def _write_text(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_tgrid(text):
    """a:b:n -> n equispaced points from a to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad t-grid {text!r}: expected a:b:n")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError("t-grid needs at least one point")
    # b - a is not finite if a or b is not, or if the span overflows
    if not math.isfinite(b - a):
        raise ValueError(f"bad t-grid {text!r}: a, b and b - a must be "
                         "finite")
    return np.linspace(a, b, n)


_GENERATORS = {
    "euler": euler_method,
    "talbot": talbot_method,
    "gaver": gaver_method,
    "zakian": zakian_method,
}


def _parse_method(spec, r_hint=None):
    """name:nprime for built-in generators, 'tame' (preset by r_hint),
    or a path to a saved parameter file."""
    if os.path.exists(spec) or spec.endswith(".json"):
        return load_method(spec)[0]
    name, _, arg = spec.partition(":")
    if name in _GENERATORS:
        if not arg:
            raise ValueError(f"method {name!r} needs a node count, "
                             f"e.g. {name}:8")
        return _GENERATORS[name](int(arg))
    if name == "tame":
        if arg:
            return preset_tame(float(arg))
        if r_hint is None:
            raise ValueError("tame preset selection needs a radius, "
                             "e.g. tame:4.0")
        return preset_tame(r_hint)
    raise ValueError(f"unknown method spec {spec!r}")


# -- gen ---------------------------------------------------------------------

def cmd_gen(args):
    meta, build = None, {}
    if args.method == "tame":
        if args.domain is None:
            raise ValueError("gen --method tame needs --domain")
        domain = parse_domain(args.domain)
        count = 1000 if args.count is None else args.count
        m, meta, report = build_tame(domain, args.nprime, count=count)
        build = {**{k: getattr(meta, k) for k in FIGURES},
                 "termination": report.termination,
                 "refits": list(report.refits), "pruned": report.pruned}
    elif args.method in _GENERATORS:
        if args.domain is not None or args.count is not None:
            raise ValueError("--domain and --count need --method tame")
        m = _GENERATORS[args.method](args.nprime)
    else:
        raise ValueError(f"unknown method {args.method!r}")
    save_method(args.out, m, meta)
    print(json.dumps({"out": args.out, "entries": m.n_entries,
                      "n": m.n_full, **build}))
    return 0


# -- invert ------------------------------------------------------------------

def _curve_notices(points):
    """Yield the points, with a notice for each flagged t."""
    for p in points:
        if p.error is not None:
            _fail({"notice": f"t={p.t}: {p.error}"})
        yield p


def cmd_invert(args):
    m, _ = load_method(args.params)
    transform = catalog.parse_transform(args.transform).transform
    if (args.t is None) == (args.t_grid is None):
        raise ValueError("give exactly one of --t and --t-grid")
    if args.t is not None:
        _write_text(args.out, _cell(invert(m, transform, args.t)))
        return 0
    points = invert_curve(m, transform, _parse_tgrid(args.t_grid))
    _write_csv(args.out, ["t", "value"],
               ([p.t, p.value] for p in _curve_notices(points)))
    return 0


# -- diag --------------------------------------------------------------------

def _se_bound(m, eps, c: list):
    return {"bound": diagnostics.bound_se(eps, np.atleast_1d(c))}


def _ls_bound(m, eps, eta, mu_total, dirac_l1=None):
    extra = {}
    if dirac_l1 is None:
        dirac_l1, extra["dirac_l1_abserr"] = diagnostics.dirac_l1_estimate(m)
    return {"bound": diagnostics.bound_ls(eps, eta, mu_total, dirac_l1),
            **extra}


#: `--bounds` class -> the report fields of the method m.  Each entry's
#: parameters after m are the class's keys; one with a default may be left
#: out.  A value given with '|' is a list, taken only by a key annotated
#: `list`.
_BOUNDS = {
    "se": _se_bound,
    "me": lambda m, eps, norm_v, norm_u: {
        "bound": diagnostics.bound_me(eps, norm_v, norm_u)},
    "phase_type": lambda m, eps, q_l1, d=None, mean=None: dataclasses.asdict(
        diagnostics.bound_phase_type(eps, q_l1, d=d, alpha_Qinv_one=mean)),
    "fluid": lambda m, eps, lam, psi_inf: {
        "bound": diagnostics.bound_fluid(eps, lam, psi_inf)},
    "fluid_cdf": lambda m, eps, lam, F_inf, first_moment: {
        "bound": diagnostics.bound_fluid_cdf(eps, lam, F_inf, first_moment)},
    "ls": _ls_bound,
    "lipschitz": lambda m, H, L, t, scv: {
        "bound": diagnostics.bound_lipschitz(H, L, t, scv)},
    "moment_estimate": lambda m, f, fprime, t: {
        "estimate": diagnostics.moment_error_estimate(m, f, fprime, t)},
}


def _bound_keys(tag):
    """The keys of a bound class, those of them it needs, and those that
    take a '|' list."""
    params = list(inspect.signature(_BOUNDS[tag]).parameters.values())[1:]
    return ([p.name for p in params],
            [p.name for p in params if p.default is p.empty],
            [p.name for p in params if p.annotation is list])


def _eval_bound(m, spec):
    tag, _, blob = spec.partition(":")
    if tag not in _BOUNDS:
        raise ValueError(f"unknown bound class {tag!r}; "
                         f"known: {sorted(_BOUNDS)}")
    kv = catalog.parse_kv(blob) if blob else {}
    keys, needed, lists = _bound_keys(tag)
    for problem, bad in (
            ("unknown", sorted(set(kv) - set(keys))),
            ("missing", [k for k in needed if k not in kv]),
            ("list-valued", [k for k, v in kv.items()
                             if isinstance(v, list) and k not in lists])):
        if bad:
            raise ValueError(f"{problem} {tag} bound arguments {bad}")
    return {"class": tag, **_BOUNDS[tag](m, **kv)}


def cmd_diag(args):
    m, _ = load_method(args.params)
    if args.dirac_grid:
        # the whole grid first, so a failure leaves no file
        ys = _parse_tgrid(args.dirac_grid)
        values = diagnostics.dirac_eval(m, ys)
        _write_csv(args.out, ["y", "value"], zip(ys.tolist(), values.tolist()))
        return 0
    report = {"name": m.name, "entries": m.n_entries, "n": m.n_full}
    full = to_full(m)
    if args.domain:
        meta = diagnostics.method_metadata(full, parse_domain(args.domain),
                                           args.count)
        report.update((k, getattr(meta, k)) for k in FIGURES)
    if args.moments:
        mom = diagnostics.moments(full)
        report["moments"] = {"mu0": mom.mu0, "mu1": mom.mu1, "mu2": mom.mu2,
                             "nu2": mom.nu2, "scv": mom.scv}
    if args.bounds:
        report["bounds"] = [_eval_bound(full, spec) for spec in args.bounds]
    _write_text(args.out, json.dumps(report, indent=2))
    return 0


# -- fluid -------------------------------------------------------------------

def _load_model(path):
    """The fluid-queue model in a `save_model` file.  JSON of the wrong
    type (a list for the object) raises ValueError."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        gen = GeneratorMatrix(np.asarray(obj["Q"], dtype=float),
                              kind=obj.get("kind", "generator"),
                              lam=obj.get("lam"))
        return FluidQueueModel(gen=gen, rates=np.asarray(obj["rates"],
                                                         dtype=float))
    except (AttributeError, TypeError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from None


def save_model(path, model):
    """Write a fluid-queue model in the JSON format `aw fluid` reads."""
    obj = {"Q": model.gen.Q.tolist(), "rates": model.rates.tolist(),
           "kind": model.gen.kind, "lam": model.gen.lam}
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def cmd_fluid(args):
    model = _load_model(args.model)
    if not args.t > 0:
        raise ValueError("t must be positive")
    if args.entry != "all":
        parts = args.entry.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad entry {args.entry!r}: expected i:j or all")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < model.d_plus and 0 <= j < model.d_minus):
            raise ValueError(f"entry {args.entry!r} is outside the "
                             f"{model.d_plus}x{model.d_minus} matrix")
    psi, Psi = fluid_psi_transform(model)
    transform = psi if args.quantity == "psi" else Psi
    m = _parse_method(args.method, r_hint=model.gen.lam * args.t)
    val = np.asarray(invert(m, transform, args.t)).real
    if args.entry != "all":
        print(_fmt(val[i, j]))
        return 0
    _write_csv(args.out, ["i", "j", "value"],
               ([i, j, v] for i, row in enumerate(val.tolist())
                for j, v in enumerate(row)))
    return 0


# -- bench -------------------------------------------------------------------

_ERROR_HEADER = ["method", "nprime", "n", "error", "bound", "estimate"]


def _matrix_err(ref, val):
    return float(np.linalg.norm(np.asarray(ref) - np.asarray(val), np.inf))


def _fixed_methods(args):
    """(label, method, None) for each built-in generator at each N' it
    supports, then the --cme-params method or a notice that it is absent.
    An N' a generator cannot build in binary64 (zakian above 26, or one
    whose build overflows) gets a notice instead."""
    methods = []
    for label, gen in _GENERATORS.items():
        for np_ in range(1, (6 if args.quick else args.nprime_max) + 1):
            try:
                methods.append((label, gen(np_), None))
            except ValueError:
                continue
            except (NumericalError, OverflowError) as exc:
                _fail({"notice": f"{label} N'={np_}: {exc}"})
    if args.cme_params:
        methods.append(("cme", load_method(args.cme_params)[0], None))
    else:
        _fail({"notice": "no --cme-params file given; CME rows omitted"})
    return methods


def _error_rows(transform, t, ref, dref_norm, methods):
    """Rows of `_ERROR_HEADER` for each (label, method, bound): the
    inf-norm error at t against ref and the moment error estimate (None
    where undefined).  A method whose inversion fails gets a notice."""
    ref_norm = float(np.linalg.norm(ref, np.inf))
    rows = []
    for label, m, bound in methods:
        try:
            err = _matrix_err(ref, invert(m, transform, t))
        except NumericalError as exc:
            _fail({"notice": f"{label} N'={m.n_entries}: {exc}"})
            continue
        try:
            estimate = diagnostics.moment_error_estimate(m, ref_norm,
                                                         dref_norm, t)
        except (ValueError, NumericalError):
            estimate = None
        rows.append([label, m.n_entries, m.n_full, err, bound, estimate])
    return rows


def _bench_a(args, out_dir):
    model = make_experiment_model(5, 10, args.seed)
    lam = model.gen.lam
    t = 1.0
    ref_m = talbot_method(24)
    psi_inf_norm = float(np.linalg.norm(psi_infinity(model), np.inf))
    fixed = _fixed_methods(args)
    disc = select_domain("fluid_queue", lam=lam, t=t)
    tame = []
    for np_ in range(1, (4 if args.quick else args.tame_nprime_max) + 1):
        m, meta, _ = build_tame(disc, np_)
        tame.append((m, diagnostics.bound_fluid(meta.eta, lam, psi_inf_norm)))
    paths = []
    for key, transform in zip(("pdf", "cdf"), fluid_psi_transform(model)):
        ref = invert(ref_m, transform, t)
        # how far the reference itself is from Talbot-20
        ref_err = _matrix_err(ref, invert(talbot_method(20), transform, t))
        # reference time-derivative for the moment estimate, by a central
        # difference of the reference curve (display aid only)
        h = 1e-3
        dref = (invert(ref_m, transform, t + h)
                - invert(ref_m, transform, t - h)) / (2 * h)
        methods = fixed + [("tame", m, bound if key == "pdf" else None)
                           for m, bound in tame]
        rows = _error_rows(transform, t, ref,
                           float(np.linalg.norm(dref, np.inf)), methods)
        paths.append(_write_csv(os.path.join(out_dir, f"expA_{key}.csv"),
                                _ERROR_HEADER + ["reference_error"],
                                (row + [ref_err] for row in rows)))
    return paths


def _bench_b(args, out_dir):
    model = make_experiment_model(5, 10, args.seed)
    psi, _ = fluid_psi_transform(model)
    ts = (1.0, 3.0) if args.quick else (1.0, 3.0, 10.0, 30.0, 100.0)
    radii = (0.5, 1.0) if args.quick else (0.5, 1.0, 3.0, 10.0, 100.0)
    nprimes = (4, 8) if args.quick else (4, 8, 12, 16)
    refs = {t: invert(talbot_method(24), psi, t) for t in ts}
    # (label, r, requested N', method): budgets can build the same count
    methods = [("tame", r, np_, build_tame(Disc(complex(-r), r), np_)[0])
               for r in radii for np_ in nprimes]
    methods += [("tame_preset", r_max, np_, preset_entry(r_max)[0])
                for r_max, np_ in PRESET_ROWS]
    rows = []
    for t in ts:
        for label, r, budget, m in methods:
            try:
                err = _matrix_err(refs[t], invert(m, psi, t))
            except NumericalError as exc:
                _fail({"notice": f"{label} r={r} t={t}: {exc}"})
                continue
            rows.append([label, r, t, m.n_entries, err, budget])
    return [_write_csv(os.path.join(out_dir, "expB.csv"),
                       ["method", "r", "t", "nprime", "error", "budget"],
                       rows)]


def _bench_c(args, out_dir):
    model = make_experiment_model(5, 10, args.seed)
    Q = model.gen.Q
    lam = model.gen.lam
    d = Q.shape[0]
    t = 1.0
    eye = np.eye(d)
    transform = Transform(
        evaluator=lambda S: np.linalg.solve(
            S[:, :, None, None] * eye - Q, eye),
        conjugate_symmetric=True,
        singularities=tuple(np.linalg.eigvals(Q)), name="resolvent")
    ref = matrix_exponential(t * Q).real
    methods = _fixed_methods(args)
    presets = PRESET_ROWS[:2] if args.quick else PRESET_ROWS
    methods += [("tame_preset", preset_entry(r_max)[0], None)
                for r_max, _ in presets]
    variants = (("tame_circle", fov_circle_bound(d, lam)),
                ("tame_rect", select_domain("matrix_exponential", d=d,
                                            lam=lam, t=t)),
                ("tame_fov", select_domain("matrix_exponential", Q=Q, t=t,
                                           generator=True)))
    for label, domain in variants:
        for np_ in (2, 4) if args.quick else (2, 4, 6, 8, 10, 12):
            m, meta, _ = build_tame(domain, np_)
            methods.append((label, m, (1 + math.sqrt(2)) * meta.eta))
    rows = _error_rows(transform, t, ref,
                       float(np.linalg.norm(Q @ ref, np.inf)), methods)
    return [_write_csv(os.path.join(out_dir, "expC.csv"), _ERROR_HEADER,
                       rows)]


def _curve_csv(path, m, entry, ts):
    """Invert the entry's transform on ts and write t, value, reference
    and error; a flagged t gets empty value and error cells.  The ground
    truth must be defined at every t: experiments D and E pass
    `_offset_grid` points, which keep off the waves' jump points."""
    ts = [float(t) for t in ts]
    refs = [entry.f(t) for t in ts]
    points = _curve_notices(invert_curve(m, entry.transform, ts))
    return _write_csv(path, ["t", "value", "reference", "error"],
                      ([t, p.value, ref,
                        None if p.error is not None else abs(p.value - ref)]
                       for t, ref, p in zip(ts, refs, points)))


def _offset_grid(upper, n):
    return upper * (np.arange(n) + 0.5) / n


def _bench_d(args, out_dir):
    upper = 6.0
    ts = _offset_grid(upper, 100 if args.quick else 600)
    # the waves' recipe, a long imaginary segment, needs a denser boundary
    # sampling than the default for the fit to resolve the oscillatory
    # target
    domain = catalog.entry("triangular_wave").domain_recipe(upper)
    m, _, _ = build_tame(domain, 20, count=4000)
    return [_curve_csv(os.path.join(out_dir, f"expD_{name.split('_')[0]}.csv"),
                       m, catalog.entry(name), ts)
            for name in ("triangular_wave", "square_wave")]


def _bench_e(args, out_dir):
    upper = 50.0
    ts = _offset_grid(upper, 50 if args.quick else 500)
    e = catalog.entry("bs_call", {"q_price": 80.0, "strike": 100.0,
                                  "rate": 0.05, "sigma": 0.1})
    tame, _, _ = build_tame(e.domain_recipe(upper), 33)
    return [_curve_csv(os.path.join(out_dir, f"expE_{label}.csv"), m, e, ts)
            for label, m in (("talbot", talbot_method(20)), ("tame", tame))]


_EXPERIMENTS = {"A": _bench_a, "B": _bench_b, "C": _bench_c,
                "D": _bench_d, "E": _bench_e}


def cmd_bench(args):
    os.makedirs(args.out_dir, exist_ok=True)
    paths = _EXPERIMENTS[args.experiment](args, args.out_dir)
    print(json.dumps({"experiment": args.experiment, "files": paths}))
    return 0


# -- entry point ---------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, for `main` to report as one
    JSON line with exit code 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    """The `aw` parser, built once per process (parse_args keeps no state
    in it)."""
    p = _Parser(
        prog="aw", description="Inverse Laplace transforms with "
        "Abate-Whitt methods")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate method parameters")
    g.add_argument("--method", required=True,
                   help="euler|talbot|gaver|zakian|tame")
    g.add_argument("--nprime", type=int, required=True,
                   help="reduced node count (full count for zakian)")
    g.add_argument("--domain", help="tame only: disc:c:R | rseg:L | iseg:r "
                   "| rect:x0:x1:y0:y1")
    g.add_argument("--count", type=int, help="tame only (default 1000)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    i = sub.add_parser("invert", help="invert a transform at t")
    i.add_argument("--params", required=True, help="method parameter file")
    i.add_argument("--transform", required=True,
                   help="builtin:name[:k=v,...]")
    i.add_argument("--t", type=float)
    i.add_argument("--t-grid", help="a:b:n")
    i.add_argument("--out")
    i.set_defaults(func=cmd_invert)

    d = sub.add_parser("diag", help="method quality diagnostics")
    d.add_argument("--params", required=True)
    d.add_argument("--domain", help="measure epsilon on this domain")
    d.add_argument("--count", type=int, default=4000)
    d.add_argument("--moments", action="store_true")
    d.add_argument("--dirac-grid", help="a:b:n (CSV output)")
    d.add_argument("--bounds", action="append",
                   help="class:k=v,... (repeatable); classes: "
                   + ",".join(sorted(_BOUNDS)))
    d.add_argument("--out")
    d.set_defaults(func=cmd_diag)

    f = sub.add_parser("fluid", help="fluid-queue first-return quantities")
    f.add_argument("--model", required=True, help="model JSON file")
    f.add_argument("--quantity", choices=("psi", "Psi"), default="psi")
    f.add_argument("--t", type=float, required=True)
    f.add_argument("--method", default="talbot:20",
                   help="name:nprime | tame | tame:r | params file")
    f.add_argument("--entry", default="all", help="i:j or all")
    f.add_argument("--out")
    f.set_defaults(func=cmd_fluid)

    b = sub.add_parser("bench", help="experiment harness (CSV output)")
    b.add_argument("--experiment", required=True,
                   choices=sorted(_EXPERIMENTS))
    b.add_argument("--out-dir", required=True)
    b.add_argument("--seed", type=int, default=1)
    b.add_argument("--nprime-max", type=int, default=25)
    b.add_argument("--tame-nprime-max", type=int, default=12)
    b.add_argument("--cme-params", help="optional CME method file for A/C")
    b.add_argument("--quick", action="store_true",
                   help="smaller sweeps and grids")
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code
    except (NumericalError, OverflowError) as exc:
        _fail({"error": type(exc).__name__, "message": str(exc)})
        return 1
    except (ValueError, OSError, KeyError) as exc:
        _fail({"error": type(exc).__name__, "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
