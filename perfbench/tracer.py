"""Per-layer tracing from outside the program.

``Tracer.install`` replaces every public function of every ``awilt``
module, in each module namespace that binds it, with a wrapper that
records calls, inclusive time and self time (inclusive time minus the
time of wrapped calls made inside it).  ``Transform.__call__`` is wrapped
too, so transform evaluations are counted and timed per transform family,
and ``solve_psi`` is split by the sign of Re s into its sorted path and
its continuation path.  ``uninstall`` restores the originals, so untraced
rounds run the program exactly as shipped.  The times of one timed call
are held until ``commit`` scales them as run.py scales the call's time.
"""

import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("catalog", "cli", "diagnostics", "domains", "errors", "invert",
           "methods", "numerics", "queueing", "tame")

#: transform names -> the layer their evaluations are charged to
_EVAL_LAYER = {"phase_type_pdf": "queueing.phase_type.eval",
               "phase_type_cdf": "queueing.phase_type.eval",
               "fluid_psi": "queueing.fluid.eval",
               "fluid_Psi": "queueing.fluid.eval"}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_ = defaultdict(float)
        self._pending = []  # (key, inclusive s, self s) of the open call
        self.aaa_iterations = 0
        self.active = False
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _span(self, key, fn, args, kwargs):
        self._stack.append(0.0)
        t0 = time.process_time()  # the clock run.py times calls with
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.process_time() - t0
            child = self._stack.pop()
            self.calls[key] += 1
            self._pending.append((key, dt, dt - child))
            if self._stack:
                self._stack[-1] += dt

    def commit(self, factor):
        """Add the spans of the call just timed, scaled by factor."""
        for key, incl, self_ in self._pending:
            self.incl[key] += factor * incl
            self.self_[key] += factor * self_
        self._pending.clear()

    def _wrap(self, key, fn):
        tracer = self

        if key == "queueing.solve_psi":
            def wrapper(model, s, *args, **kwargs):
                if not tracer.active:
                    return fn(model, s, *args, **kwargs)
                path = "sorted" if complex(s).real >= 0 else "continuation"
                return tracer._span(f"{key}.{path}", fn,
                                    (model, s) + args, kwargs)
        elif key == "tame.aaa_fit":
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                out = tracer._span(key, fn, args, kwargs)
                tracer.aaa_iterations += len(out[1].residuals)
                return out
        elif key == "invert.Transform.__call__":
            def wrapper(transform, s):
                if not tracer.active:
                    return fn(transform, s)
                layer = _EVAL_LAYER.get(transform.name, "catalog.eval")
                return tracer._span(layer, fn, (transform, s), {})
        else:
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                return tracer._span(key, fn, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("awilt")
        mods = {name: importlib.import_module(f"awilt.{name}")
                for name in MODULES}
        namespaces = [pkg] + list(mods.values())
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{short}.{name}", obj)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is obj:
                            self._patches.append((ns, attr, obj))
                            setattr(ns, attr, wrapper)
        transform = mods["invert"].Transform
        original = transform.__call__
        self._patches.append((transform, "__call__", original))
        transform.__call__ = self._wrap("invert.Transform.__call__",
                                        original)

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)
        self._patches.clear()

    # -- derived metrics -------------------------------------------------------

    def _module_self_ms(self, module):
        return 1e3 * sum(v for k, v in self.self_.items()
                         if k.startswith(module + ".") and k.count(".") == 1)

    def self_ms_by_layer(self, rounds):
        """Self time per round of each module, and of each transform family
        (``catalog.eval``, ``queueing.*.eval``) and ``solve_psi`` path."""
        out = defaultdict(float)
        for key, v in self.self_.items():
            layer = (key if key.endswith(".eval") or "solve_psi" in key
                     else key.split(".")[0])
            out[layer] += 1e3 * v / rounds
        return dict(sorted(out.items()))

    def layer_metrics(self, rounds, traced_s, untraced_s):
        """Per-layer values per round of the work list."""
        def ms(key):
            return 1e3 * self.incl[key] / rounds

        def calls(key):
            return self.calls[key] / rounds

        evals = sum(self.calls[k] for k in ("catalog.eval",
                                            "queueing.phase_type.eval",
                                            "queueing.fluid.eval"))
        points = self.calls["invert.invert"]
        builds = self.calls["tame.build_tame"]
        fits = self.calls["tame.aaa_fit"]
        out = {
            "tame.extract_poles.ms": (ms("tame.extract_poles"), "ms"),
            "numerics.dense_eigenvalues.ms":
                (ms("numerics.dense_eigenvalues"), "ms"),
            "tame.aaa_fit.calls": (calls("tame.aaa_fit"), "count"),
            "tame.aaa_fit.iterations": (self.aaa_iterations / rounds,
                                        "count"),
            "tame.fit_yield": (builds / fits if fits else 0.0, "ratio"),
            "tame.extract_residues.ms": (ms("tame.extract_residues"), "ms"),
            "tame.build_tame.self_ms":
                (1e3 * self.self_["tame.build_tame"] / rounds, "ms"),
            "numerics.smallest_singular_vector.ms":
                (ms("numerics.smallest_singular_vector"), "ms"),
            "domains.discretize.ms": (ms("domains.discretize"), "ms"),
            "diagnostics.dirac_l1_norm.ms":
                (ms("diagnostics.dirac_l1_norm"), "ms"),
            "diagnostics.dirac_eval.calls":
                (calls("diagnostics.dirac_eval"), "count"),
            "diagnostics.moments.ms": (ms("diagnostics.moments"), "ms"),
            "diagnostics.epsilon_accuracy.ms":
                (ms("diagnostics.epsilon_accuracy"), "ms"),
            "invert.invert_curve.ms": (ms("invert.invert_curve"), "ms"),
            "invert.invert.calls": (calls("invert.invert"), "count"),
            "invert.self_ms": (self._module_self_ms("invert") / rounds, "ms"),
            "invert.transform_evals": (evals / rounds, "count"),
            "invert.evals_per_point": (evals / points if points else 0.0,
                                       "count"),
            "catalog.eval_ms": (ms("catalog.eval"), "ms"),
            "queueing.phase_type.eval_ms":
                (ms("queueing.phase_type.eval"), "ms"),
            "queueing.solve_psi.continuation.ms":
                (ms("queueing.solve_psi.continuation"), "ms"),
            "queueing.solve_psi.continuation.calls":
                (calls("queueing.solve_psi.continuation"), "count"),
            "queueing.solve_psi.sorted.ms":
                (ms("queueing.solve_psi.sorted"), "ms"),
            "queueing.solve_psi.sorted.calls":
                (calls("queueing.solve_psi.sorted"), "count"),
            "methods.save_method.ms": (ms("methods.save_method"), "ms"),
            "methods.load_method.ms": (ms("methods.load_method"), "ms"),
            "cli.self_ms": (self._module_self_ms("cli") / rounds, "ms"),
            "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
