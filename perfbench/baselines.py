"""Times the single-call baselines listed under ROADMAP item 1.

    python3 perfbench/baselines.py

Each case is timed in this process with BLAS held to one thread, as in
run.py, and reported as the median of REPEATS calls (the iseg:80 build,
about 12 s, runs once).  Prints one JSON object of milliseconds.
"""

import run  # sets the BLAS thread count before numpy is imported

import json
import statistics
import sys
import time

REPEATS = 5


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return round(1e3 * statistics.median(times), 2)


def main():
    sys.path.insert(0, run.SRC)
    import numpy as np
    import warnings
    from awilt import (Disc, ImagSegment, build_tame, dirac_l1_norm,
                       euler_method, fluid_psi_transform, invert,
                       invert_curve, make_experiment_model, moments,
                       preset_tame, solve_psi, talbot_method)
    from awilt.catalog import entry

    n = REPEATS
    model = make_experiment_model(5, 10, seed=1)
    psi, _ = fluid_psi_transform(model)
    expo = entry("exp_sum", {"c": 1.0, "a": -1.0})
    out = {
        "build_tame disc r=4 N'=5": _median_ms(
            lambda: build_tame(Disc(-4.0 + 0j, 4.0), 5), n),
        "build_tame disc r=31.6 N'=10": _median_ms(
            lambda: build_tame(Disc(-31.6 + 0j, 31.6), 10), n),
        "build_tame iseg:80 N'=20 count=4000": _median_ms(
            lambda: build_tame(ImagSegment(80.0), 20, count=4000), 1),
        "invert_curve talbot20 on 1000 t (e^-t)": _median_ms(
            lambda: invert_curve(talbot_method(20), expo.transform,
                                 np.linspace(0.01, 10.0, 1000)), n),
        "fluid psi t=3 talbot24": _median_ms(
            lambda: invert(talbot_method(24), psi, 3.0), n),
        "fluid psi t=3 preset": _median_ms(
            lambda: invert(preset_tame(model.gen.lam * 3.0), psi, 3.0), n),
        "solve_psi Re s > 0": _median_ms(
            lambda: solve_psi(model, 2.0 + 3.0j), n),
        "solve_psi Re s < 0": _median_ms(
            lambda: solve_psi(model, -2.0 + 3.0j), n),
        "moments talbot20": _median_ms(
            lambda: moments(talbot_method(20)), n),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's IntegrationWarning
        out["dirac_l1_norm euler15"] = _median_ms(
            lambda: dirac_l1_norm(euler_method(15)), n)
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
