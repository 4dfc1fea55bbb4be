"""The three workloads: fixed work lists made from a seed, and their checks.

A workload's ``setup`` makes or loads its inputs (this is what setup_s
times); ``verify`` checks the loaded inputs apart from the program;
``ops`` is the fixed work list of one round.  Each ``Op`` makes one or
more timed calls into the program and then checks its results; a result
is one method built and assessed (design), one t-point (curve) or one
psi(t) or Psi(t) matrix (fluid).
"""

import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import checks

#: the paper's preset family: (r_max, N')
PRESET_ROWS = ((0.6, 3), (1.8, 4), (4.0, 5), (7.0, 6),
               (11.2, 7), (16.8, 8), (22.7, 9), (31.6, 10))

METHOD_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "methods")

#: The failures that known faults of the program cause.  A result that
#: fails only in one of these ways carries its name, and counts as a kept
#: failure only in an Op that declares it; any other failure makes the
#: run incorrect.
ACCURACY_LOST = "a larger N' loses accuracy"
DIRAC_L1 = "dirac_l1_norm off its integral"
CM_OVERFLOW = "completely_monotone_demo not finite"


def preset_for(r):
    return next(row for row in PRESET_ROWS if row[0] >= r)


def preset_spec(row):
    return f"disc:{-row[0]!r}:{row[0]!r}"


def preset_file(row):
    """Path of the shipped preset file for one (r_max, N') row."""
    import awilt
    return os.path.join(os.path.dirname(awilt.__file__), "presets",
                        f"tame_r{row[0]:g}_n{row[1]}.json")


def cli(argv):
    """Run one `aw` command in-process; (exit code, stdout, stderr)."""
    import awilt.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = awilt.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Op:
    """One entry of a work list.

    ``calls`` are functions of the outputs so far that return an argv
    list (an `aw` command), a zero-argument callable (a library call) or
    None (no call for this input; its output is None).
    ``check(outputs, state)`` returns one ``(True, digits)`` or
    ``(False, mode)`` per result, where ``mode`` is one of the failure
    modes above when that alone failed the result, and None otherwise;
    ``state`` lives for one round.  ``fault`` is the failure mode this
    entry keeps, because a known fault of the program makes it fail every
    time, on inputs that do not depend on the seed.
    """

    def __init__(self, label, calls, results, check, fault=None):
        self.label, self.calls, self.results = label, calls, results
        self.check, self.fault = check, fault


def _verdicts(n, ok, why=""):
    if not ok and why:
        print(why.strip(), file=sys.stderr)
    return [(ok, None)] * n


# -- design ----------------------------------------------------------------------

class Design:
    """`aw gen` then `aw diag` per method: presets, rseg:100, field-of-values
    domains of a seeded fluid model (experiment C) and three classical
    methods.  No transform is evaluated."""

    name = "design"

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny

    def setup(self):
        # (label, gen args, domain spec, group, fault, LS bound allowed)
        items = []

        def tame(label, spec, n, fault=None, ls=True):
            items.append((label, ["--method", "tame", "--domain", spec,
                                  "--nprime", str(n)], spec, spec, fault,
                          ls))

        rows = PRESET_ROWS[3::4] if self.tiny else PRESET_ROWS
        for row in rows:
            # Known fault: dirac_l1_norm's quad misses its tolerance on
            # the r=7 preset and returns 3.605211 for an integral of
            # 3.604871, so the L1 check fails.
            tame(f"preset r={row[0]}", preset_spec(row), row[1],
                 DIRAC_L1 if row == (7.0, 6) else None)
        # Known fault: after the order-26 fit fails, build_tame caps the
        # refit at an iteration index of the residual history, which it
        # treats as a support-point order, and returns 7 entries.
        tame("disc:-31.6:31.6 N'=13", preset_spec(PRESET_ROWS[-1]), 13,
             ACCURACY_LOST)
        if not self.tiny:
            tame("rseg:100 N'=33", "rseg:100", 33)
        for method, n in (("euler", 15), ("gaver", 12), ("zakian", 10)):
            items.append((f"{method}{n}", ["--method", method, "--nprime",
                                           str(n)], "disc:-1.0:1.0", None,
                          None, True))
        # Past the roundoff floor (N'=4 for the small Hermitian box, about
        # 7 for the others) a larger N' loses accuracy on some seeds only,
        # so the seeded sizes stay below it; and the seeded domains skip
        # the LS bound, whose dirac_l1_norm fault also shows on some seeds
        # only.  Both are kept instead on the domains of two fixed models,
        # where they show on every run.
        # The seeded sizes give every seed more digits than Gaver-12, so
        # the fixed inputs set digits_min; and their calls fall on the
        # same side of the median call for every seed, so the seed does
        # not move call_ms_p50.
        dom = self._fov_domains(self.seed)
        sweeps = {"fov circle": (6,), "fov rect": (6,), "fov herm": (2, 3)}
        for label, spec in dom.items():
            for n in sweeps[label][:1 if self.tiny else None]:
                tame(f"{label} N'={n}", spec, n, ls=False)
        herm = self._fov_domains(12)["fov herm"]
        tame("fov herm (model 12) N'=4", herm, 4)
        # Known fault: the fit past the floor puts a spurious pole with a
        # tiny weight inside the box; build_tame prunes it by its weight
        # alone and returns epsilon 3.5e-11, where N'=4 gives 1.3e-13.
        tame("fov herm (model 12) N'=6", herm, 6, ACCURACY_LOST)
        # Known fault: dirac_l1_norm is off by 1.4e-6 relative.
        tame("fov rect (model 14) N'=2", self._fov_domains(14)["fov rect"],
             2, DIRAC_L1)
        self.items = items

    @staticmethod
    def _fov_domains(seed):
        """Experiment C's field-of-values domains of a seeded model."""
        from awilt.domains import (fov_circle_bound, fov_hermitian_bound,
                                   fov_rectangle_bound)
        from awilt.queueing import make_experiment_model
        model = make_experiment_model(5, 10, seed)
        rng = np.random.default_rng([seed, 3])
        t = float(rng.uniform(0.5, 2.0))
        lam, d = model.gen.lam * t, model.gen.dim
        circle = fov_circle_bound(d, lam)
        out = {"fov circle": f"disc:{circle.center.real!r}:"
                             f"{circle.radius!r}"}
        for label, rect in (("fov rect", fov_rectangle_bound(d, lam)),
                            ("fov herm", fov_hermitian_bound(
                                t * model.gen.Q, generator=True))):
            out[label] = (f"rect:{rect.x_min!r}:{rect.x_max!r}:"
                          f"{rect.y_min!r}:{rect.y_max!r}")
        return out

    def verify(self):
        pass

    @property
    def ops(self):
        # gen, then diag for epsilon, for the moments and, when it applies,
        # for the LS bound, as three commands: the quick ones are then more
        # than half of all calls, so the median call is one of them for
        # every seed instead of falling in the sparse middle of the builds
        ops = []
        for k, (label, gen_args, spec, group, fault, ls) in enumerate(
                self.items):
            path = os.path.join(self.workdir, f"design{k}.json")
            diag = ["diag", "--params", path]
            ops.append(Op(label,
                          [lambda outs, a=gen_args, p=path:
                           ["gen"] + a + ["--out", p],
                           lambda outs, d=diag, s=spec: d + ["--domain", s],
                           lambda outs, d=diag: d + ["--moments"],
                           lambda outs, d=diag, p=path, ls=ls:
                           self._ls_argv(d, p) if ls else None],
                          1, self._checker(path, spec, group,
                                           gen_args[1] == "tame"),
                          fault))
        return ops

    @staticmethod
    def _ls_argv(diag, path):
        """diag argv for the LS bound, or None unless every Re(beta) > 0."""
        try:
            nodes = checks.Method.load(path).nodes
        except (OSError, ValueError, KeyError):
            return None
        if not np.all(nodes.real > 0):
            return None
        # the Laplace-Stieltjes bound with eps=0, eta=1 is 1 + ||delta||_1
        return diag + ["--bounds", "ls:eps=0,eta=1,mu_total=1"]

    def _checker(self, path, spec, group, tame):
        memo = {}

        def check(outs, state):
            done = [out for out in outs if out is not None]
            if any(code for code, _, _ in done):
                return _verdicts(1, False,
                                 why="".join(err for _, _, err in done))
            out_gen = outs[0][1]
            diag = json.loads(outs[1][1])
            diag["moments"] = json.loads(outs[2][1])["moments"]
            if outs[3] is not None:
                diag["bounds"] = json.loads(outs[3][1])["bounds"]
            with open(path) as fh:
                text = fh.read()
            key = (text, out_gen, json.dumps(diag))
            if key not in memo:
                memo[key] = self._assess(text, spec, out_gen, diag, tame)
            problems, eps, scale = memo[key]
            if group is not None:
                prev = state.get(group)
                # a larger budget on the same domain must not lose accuracy
                if prev is not None and eps > max(10.0 * prev, 1e-12 * scale):
                    problems = problems + [
                        (ACCURACY_LOST, f"epsilon {eps:.3g} after "
                         f"{prev:.3g} with a smaller N'")]
                state[group] = eps
            if problems:
                faults = {fault for fault, _ in problems}
                print("; ".join(msg for _, msg in problems), file=sys.stderr)
                return [(False, faults.pop() if len(faults) == 1 else None)]
            return [(True, checks.digits(eps, scale))]
        return check

    @staticmethod
    def _assess(text, spec, out_gen, diag, tame):
        """(problems, eps, scale) for one built and assessed method; each
        problem is (known fault or None, message)."""
        m = checks.Method(json.loads(text))
        dom = checks.Domain(spec)
        try:
            eps, scale = checks.epsilon_on(m, dom)
        except AssertionError as exc:
            return [(None, str(exc))], math.inf, 1.0
        problems = []
        if not m.conjugate_closed():
            problems.append((None, "nodes not closed under conjugation"))
        stated = [diag["epsilon"]]
        if tame:
            stated.append(json.loads(out_gen)["epsilon"])
        slack = 1e-15 * scale
        for s in stated:
            if not (s <= 2 * eps + slack and eps <= 2 * s + slack):
                problems.append((None, f"stated epsilon {s:.3g}, "
                                 f"re-measured {eps:.3g}"))
        mu0 = diag["moments"]["mu0"]
        # r(0) = mu0, and |e^0 - r(0)| <= eps by the maximum principle
        if dom.contains(0.0) and abs(mu0 - 1.0) > 1.5 * eps + 1e-14:
            problems.append((None, f"mu0 - 1 = {mu0 - 1.0:.3g} exceeds "
                             f"epsilon"))
        if "bounds" in diag:
            l1 = diag["bounds"][0]["bound"] - 1.0
            ref = checks.dirac_l1(m)
            if abs(l1 - ref) > 1e-6 * max(1.0, ref):
                problems.append((DIRAC_L1, f"Dirac L1 norm {l1!r}, "
                                 f"integral {ref!r}"))
            if l1 < abs(mu0) - 1e-12:
                problems.append((None, f"Dirac L1 norm {l1!r} below "
                                 f"|mu0|"))
        return problems, eps, scale


# -- curve -----------------------------------------------------------------------

def _fmt_complex(z):
    return f"{z.real!r}{z.imag:+.17g}j"


class Curve:
    """`aw invert --t-grid` over catalog transforms with classical methods
    and stored TAME files, and library invert_curve on a seeded
    phase-type pdf and cdf.  No method is built."""

    name = "curve"

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny
        self.n = 10 if tiny else 100

    def setup(self):
        import awilt
        rng = np.random.default_rng([self.seed, 1])
        w = self.workdir
        self.files = {
            "iseg80": os.path.join(METHOD_DIR, "tame_iseg80_n20.json"),
            "rseg100": os.path.join(METHOD_DIR, "tame_rseg100_n33.json"),
            "talbot20": os.path.join(w, "talbot20.json"),
            "euler15": os.path.join(w, "euler15.json"),
        }
        for name, n in (("talbot", 20), ("euler", 15)):
            code, _, err = cli(["gen", "--method", name, "--nprime", str(n),
                                "--out", self.files[f"{name}{n}"]])
            if code:
                raise RuntimeError(f"aw gen {name} failed: {err}")
        self.methods = {k: awilt.load_method(p)[0]
                        for k, p in self.files.items()}

        # Black-Scholes call (experiment E)
        self.bs = dict(q_price=float(rng.uniform(80.0, 120.0)),
                       strike=100.0, rate=float(rng.uniform(0.02, 0.06)),
                       sigma=float(rng.uniform(0.1, 0.3)))
        self.bs_grid = (float(rng.uniform(0.1, 0.5)), 50.0, self.n)
        # a real exponential and a conjugate pair (SE class)
        c = rng.uniform(0.2, 1.0, 2)
        a_re = -rng.uniform(0.2, 2.0)
        pair = complex(-rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.5))
        self.es_c = [float(c[0]), float(c[1]), float(c[1])]
        self.es_a = [complex(a_re), pair, pair.conjugate()]
        self.es_grid = (float(rng.uniform(0.05, 0.2)),
                        float(rng.uniform(3.0, 4.0)), self.n)
        ts = np.linspace(*self.es_grid)
        r_es = checks.disc_radius_covering(
            [a * t for a in self.es_a for t in ts])
        self.es_row = preset_for(r_es)
        self.files["es_preset"] = preset_file(self.es_row)
        self.es_r = r_es
        # completely monotone demo on the stored rseg:100 method (t <= 10)
        self.cm_grid = (float(rng.uniform(0.1, 0.3)), 10.0, self.n)
        # phase-type distribution whose field of values lies in Re z < 0:
        # the Hermitian part of Q is diagonally dominant
        d = 5
        R = rng.uniform(0.0, 1.0, (d, d))
        np.fill_diagonal(R, 0.0)
        exit_rates = rng.uniform(0.2, 0.5, d)
        Q = R - np.diag(np.maximum(R.sum(axis=1), R.sum(axis=0))
                        + exit_rates)
        Q /= np.max(np.abs(np.diag(Q)))
        alpha = rng.dirichlet(np.ones(d))
        self.ph = (alpha, Q)
        self.ph_ts = np.linspace(float(rng.uniform(0.05, 0.2)),
                                 float(rng.uniform(3.0, 5.0)),
                                 6 if self.tiny else 60)
        x0, x1, y = checks.numerical_range_rectangle(Q)
        tmax = float(self.ph_ts[-1])
        r_ph = checks.disc_radius_covering(
            [tmax * complex(x, s * y) for x in (x0, x1) for s in (1, -1)])
        self.ph_row = preset_for(r_ph)
        self.methods["ph_preset"] = awilt.load_method(
            preset_file(self.ph_row))[0]
        self.ph_transforms = awilt.phase_type_transform(
            awilt.PhaseType(alpha, Q))

    def verify(self):
        """Stored and preset methods: epsilon re-measured on their domain."""
        self.ref_methods = {k: checks.Method.load(p)
                            for k, p in self.files.items()}
        for key in ("iseg80", "rseg100", "es_preset"):
            m = self.ref_methods[key]
            with open(self.files[key]) as fh:
                meta = json.load(fh)["metadata"]
            dom = checks.Domain(_domain_spec(meta["domain"]))
            eps, scale = checks.epsilon_on(m, dom)
            stated = float(meta["epsilon"])
            if not (stated <= 2 * eps + 1e-15 * scale
                    and eps <= 2 * stated + 1e-15 * scale):
                raise AssertionError(f"{key}: stated epsilon {stated:.3g} "
                                     f"but re-measured {eps:.3g}")
        self.ref_methods["ph_preset"] = checks.Method.load(
            preset_file(self.ph_row))
        self.eps_cache = {}

    def _eps(self, key, spec, count=checks.FINE_COUNT):
        if (key, spec) not in self.eps_cache:
            self.eps_cache[(key, spec)] = checks.epsilon_on(
                self.ref_methods[key], checks.Domain(spec), count)[0]
        return self.eps_cache[(key, spec)]

    # -- work list ---------------------------------------------------------

    @property
    def ops(self):
        ops = []

        def grid(a, b, n):
            return f"{a!r}:{b!r}:{n}"

        def invert(label, params, transform, g, check, fault=None):
            argv = ["invert", "--params", self.files[params], "--transform",
                    transform, "--t-grid", grid(*g)]
            ops.append(Op(label, [lambda outs: argv], g[2],
                          self._curve_check(g[2], check), fault))

        bs = self.bs
        bs_spec = ("builtin:bs_call:" + ",".join(
            f"{k}={v!r}" for k, v in bs.items()))
        for params in ("talbot20", "rseg100"):
            invert(f"bs_call {params}", params, bs_spec, self.bs_grid,
                   self._bs_check)
        es_spec = ("builtin:exp_sum:c=" + "|".join(repr(c) for c in self.es_c)
                   + ",a=" + "|".join(_fmt_complex(a) for a in self.es_a))
        for params in ("euler15", "es_preset"):
            invert(f"exp_sum {params}", params, es_spec, self.es_grid,
                   self._es_check(params))
        # waves away from their jumps (experiment D); the grids are fixed
        # so that the worst point, which sets digits_min, is the same
        for wave, tol in (("triangular_wave", 0.05), ("square_wave", 0.15)):
            for k in range(2 if self.tiny else 6):
                g = (k + 0.1, k + 0.9, 5 if self.tiny else 17)
                invert(f"{wave} [{k}, {k + 1}]", "iseg80",
                       f"builtin:{wave}", g, self._wave_check(wave, tol))
        # Known fault: completely_monotone_demo evaluates exp(s) * E1(s),
        # which overflows (flagged) for t below ~0.011 and gives NaN up to
        # t ~ 0.2 with Talbot-20.  Fixed grid, so the count never varies.
        cm_fail = (0.001, 0.2, 5 if self.tiny else 50)
        invert("completely_monotone talbot20 small t", "talbot20",
               "builtin:completely_monotone_demo", cm_fail,
               self._cm_check("talbot20"), CM_OVERFLOW)
        invert("completely_monotone rseg100", "rseg100",
               "builtin:completely_monotone_demo", self.cm_grid,
               self._cm_check("rseg100"))
        pdf, cdf = self.ph_transforms
        for key in ("euler15", "ph_preset"):
            for which, tr in ((0, pdf), (1, cdf)):
                ops.append(Op(f"phase-type {'pdf cdf'.split()[which]} {key}",
                              [self._invert_curve(key, tr)], len(self.ph_ts),
                              self._ph_check(key, which)))
        return ops

    def _invert_curve(self, key, transform):
        import awilt
        m, ts = self.methods[key], self.ph_ts

        def call(outs):
            return lambda: awilt.invert_curve(m, transform, ts)
        return call

    # -- checks ------------------------------------------------------------

    @staticmethod
    def _curve_check(n, check):
        def run(outs, state):
            code, out, _ = outs[0]
            if code:
                return _verdicts(n, False)
            return [check(t, v) for t, v in checks.curve_rows(out)]
        return run

    def _bs_check(self, t, v):
        ref = checks.black_scholes(t=t, **self.bs)
        # experiment E reaches ~1e-11 with both methods; a millionth of the
        # strike still catches any wrong sum or wrong branch
        return _point(v, ref, 1e-6 * self.bs["strike"], self.bs["strike"])

    def _es_check(self, params):
        key = params
        spec = (f"disc:{-self.es_r!r}:{self.es_r!r}" if key == "euler15"
                else preset_spec(self.es_row))

        def check(t, v):
            # the paper's SE bound sum |c| eta, eta = eps + u max|w|
            eta = self.ref_methods[key].eta(self._eps(key, spec))
            bound = sum(abs(c) for c in self.es_c) * eta
            return _point(v, checks.exp_sum(self.es_c, self.es_a, t), bound,
                          sum(abs(c) for c in self.es_c))
        return check

    @staticmethod
    def _wave_check(wave, tol):
        f = getattr(checks, wave)

        def check(t, v):
            if checks.jump_distance(t) < 0.1 - 1e-9:
                return False, None
            return _point(v, f(t), tol, 1.0)
        return check

    def _cm_check(self, key):
        if key != "rseg100":
            def check(t, v):
                # the overflow fault: a flagged point, or NaN from 0 * inf
                if v is None or not math.isfinite(v):
                    return False, CM_OVERFLOW
                # Talbot-20 is held to Criterion 07's cross-method agreement
                return _point(v, checks.completely_monotone(t), 1e-8, 1.0)
            return check
        m = self.ref_methods[key]
        L = 100.0
        eps = self._eps(key, "rseg:100")
        # sup over z <= -L of |r(z) - e^z|, for the mixing tail x > L/t
        z = -L * (1.0 + np.logspace(-6, 8, 4000))
        tail = float(np.max(np.abs(m.rational(z) - np.exp(z))))
        # |e^s E1(s)| <= 1 / dist(s, (-inf, 0]), so each term of the sum is
        # at most |w| / dist(beta, (-inf, 0]) in magnitude; the transform
        # (scipy's complex E1) is good to about 1e-12 relative, which
        # dominates the error here, so that is the rounding allowance
        b = m.nodes
        dist = np.where(b.real >= 0, np.abs(b), np.abs(b.imag))
        rounding = 1e-12 * float(np.sum(np.abs(m.weights) / dist))

        def check(t, v):
            # f_N(t) - f(t) = int (r(-xt) - e^{-xt}) e^{-x} dx over x >= 0
            q = math.exp(-L / t)
            bound = eps * (1.0 - q) + tail * q + rounding
            return _point(v, checks.completely_monotone(t), bound, 1.0)
        return check

    def _ph_check(self, key, which):
        alpha, Q = self.ph
        x0, _, y = checks.numerical_range_rectangle(Q)
        norm_a = float(np.linalg.norm(alpha))
        norm_q = float(np.linalg.norm(-Q.sum(axis=1)))
        d = len(alpha)
        m = self.ref_methods[key]
        refs = {}

        def check(outs, state):
            points = outs[0]
            if "scale" not in refs:
                refs["scale"] = max(abs(checks.phase_type(alpha, Q, t)[which])
                                    for t in self.ph_ts)
            scale = refs["scale"]
            res = []
            for p in points:
                if p.error is not None:
                    res.append((False, None))
                    continue
                t = p.t
                if t not in refs:
                    # W(tQ) lies in t [x0, 0] x [-y, y]; the maximum
                    # principle and Crouzeix-Palencia give the bounds
                    spec = f"rect:{t * x0!r}:0.0:{-t * y!r}:{t * y!r}"
                    eta = m.eta(self._eps(key, spec, 4000))
                    bounds = (checks.SQRT2P1 * eta * norm_a * norm_q,
                              eta * (1.0 + checks.SQRT2P1 * norm_a
                                     * math.sqrt(d)))
                    refs[t] = (checks.phase_type(alpha, Q, t), bounds)
                ref, bounds = refs[t]
                res.append(_point(p.value, ref[which], bounds[which], scale))
            return res
        return check


def _point(value, ref, tol, scale):
    if value is None or not math.isfinite(value):
        return False, None
    err = abs(value - ref)
    if err > tol:
        return False, None
    return True, checks.digits(err, scale)


def _domain_spec(obj):
    if obj["kind"] == "imag_segment":
        return f"iseg:{obj['half_width']}"
    if obj["kind"] == "real_segment":
        return f"rseg:{obj['length']}"
    if obj["kind"] == "disc":
        return f"disc:{obj['center_re']}:{obj['radius']}"
    raise ValueError(f"unexpected domain {obj}")


# -- fluid -----------------------------------------------------------------------

class Fluid:
    """`aw fluid --entry all` for psi and Psi of a seeded 15-state model and
    of the 2-state model with a closed form, at t = 1, 3, 10 and 30, with
    Talbot-24, Euler-15 and the TAME preset for lambda t."""

    name = "fluid"
    TS = (1.0, 3.0, 10.0, 30.0)
    METHODS = ("talbot:24", "euler:15", "tame")
    #: Talbot-24's allowance: the preset/Talbot agreement Criterion 07 asks
    TALBOT_TOL = 1e-8

    def __init__(self, seed, workdir, tiny=False):
        self.seed, self.workdir, self.tiny = seed, workdir, tiny

    def setup(self):
        from awilt.queueing import make_experiment_model
        model = make_experiment_model(5, 10, self.seed)
        self.models = {}
        for name, Q, rates in (
                ("seeded", model.gen.Q, model.rates),
                ("two-state", np.array([[-1.0, 1.0], [1.0, -1.0]]),
                 np.array([1.0, -1.0]))):
            path = os.path.join(self.workdir, f"model_{name}.json")
            with open(path, "w") as fh:
                json.dump({"Q": Q.tolist(), "rates": rates.tolist(),
                           "kind": "generator"}, fh)
            self.models[name] = (path, float(np.max(np.abs(np.diag(Q)))))

    def verify(self):
        euler = os.path.join(self.workdir, "euler15_ref.json")
        code, _, err = cli(["gen", "--method", "euler", "--nprime", "15",
                            "--out", euler])
        if code:
            raise RuntimeError(err)
        self.ref = {"euler:15": checks.Method.load(euler)}
        self.bound_cache = {}

    def _tol(self, method, lam, t, quantity):
        """Stated accuracy of one method for psi or Psi at lambda t."""
        if method == "talbot:24":
            return self.TALBOT_TOL
        key = (method, lam * t, quantity)
        if key not in self.bound_cache:
            r = lam * t
            if method == "tame":
                m = checks.Method.load(preset_file(preset_for(r)))
            else:
                m = self.ref[method]
            eps, _ = checks.epsilon_on(m, checks.Domain(f"disc:{-r!r}:{r!r}"))
            # the paper's fluid bound (1 + sqrt 2) eta lambda Psi_inf with
            # Psi_inf <= 1; for Psi an allowance (1 + lambda t) for the
            # integration over [0, t]
            bound = checks.SQRT2P1 * m.eta(eps) * lam
            if quantity == "Psi":
                bound *= 1.0 + r
            self.bound_cache[key] = bound
        return self.bound_cache[key]

    @property
    def ops(self):
        ops = []
        ts = self.TS[::2] if self.tiny else self.TS
        for name, (path, lam) in self.models.items():
            for t in ts:
                for quantity in ("psi", "Psi"):
                    calls = [lambda outs, m=m, q=quantity, t=t, p=path:
                             ["fluid", "--model", p, "--quantity", q,
                              "--t", repr(t), "--entry", "all",
                              "--method", m] for m in self.METHODS]
                    ops.append(Op(f"{name} {quantity} t={t}", calls,
                                  len(calls),
                                  self._checker(name, lam, t, quantity)))
        return ops

    def _checker(self, name, lam, t, quantity):
        def check(outs, state):
            if any(code for code, _, _ in outs):
                return [(code == 0, None) for code, _, _ in outs]
            vals = [checks.matrix_csv(out) for _, out, _ in outs]
            tols = [self._tol(m, lam, t, quantity) for m in self.METHODS]
            ok = [bool(np.all(np.isfinite(v))) for v in vals]
            for k, (v, tol) in enumerate(zip(vals, tols)):
                ok[k] &= bool(np.all(v >= -tol))
                if quantity == "Psi":
                    ok[k] &= bool(np.all(v.sum(axis=1) <= 1.0 + v.shape[1]
                                         * tol))
            # digits on the scale of the paper's bound, lambda Psi_inf
            # with Psi_inf <= 1 for psi, and probability 1 for Psi
            scale = lam if quantity == "psi" else 1.0
            if name == "two-state":
                f = (checks.fluid_two_state_psi if quantity == "psi"
                     else checks.fluid_two_state_Psi)
                ref = f(t)
                out = []
                for v, tol, good in zip(vals, tols, ok):
                    err = float(abs(v[0, 0] - ref))
                    good &= err <= tol
                    out.append((good, checks.digits(err, scale)
                                if good else None))
                return out
            # 15-state: pairwise agreement within the two stated accuracies
            for i in range(3):
                for j in range(i + 1, 3):
                    if np.max(np.abs(vals[i] - vals[j])) > tols[i] + tols[j]:
                        ok[i] = ok[j] = False
            refs = (2, 2, 0)  # Talbot and Euler against the preset; the
            out = []          # preset against Talbot
            for k, good in enumerate(ok):
                err = float(np.max(np.abs(vals[k] - vals[refs[k]])))
                out.append((good, checks.digits(err, scale) if good
                            else None))
            return out
        return check


WORKLOADS = {cls.name: cls for cls in (Design, Curve, Fluid)}
