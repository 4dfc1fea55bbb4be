"""Fast self-check of the harness: every workload at tiny size, all checks on.

    python3 perfbench/selfcheck.py

Runs one untraced and one traced round of each workload in this process
and fails unless every result passes its checks, except the failures
that an entry keeps for a known fault, which must show; unless the
traced round reports every per-layer metric named in BENCHMARK.json; and
unless the tracer leaves the program as it found it.
"""

import json
import os
import sys
import tempfile
import time

import run  # sets the BLAS thread count before numpy is imported


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        layer_names = {m["name"] for m in json.load(fh)["per_layer"]}
    problems = []
    for name in ("design", "curve", "fluid"):
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                         dir=run.ROOT) as workdir:
            args = run._parse(["--workload", name, "--seed", "7",
                               "--seconds", "0", "--tiny"])
            wl, _ = run._setup(args, workdir)
            wl.verify()
            import awilt.cli
            from tracer import Tracer
            main_before = awilt.cli.main
            tracer = Tracer()
            ops = wl.ops
            _, plain = run._round(ops)
            tracer.install()
            try:
                times, traced = run._round(ops, tracer)
            finally:
                tracer.uninstall()
            if awilt.cli.main is not main_before:
                problems.append(f"{name}: tracer left awilt.cli.main wrapped")
            for op, (label, _, failed, unexpected) in zip(ops + ops,
                                                          plain + traced):
                if unexpected:
                    problems.append(f"{name}: {label}: {unexpected} "
                                    f"unexpected failure(s)")
                elif op.fault and not failed:
                    problems.append(f"{name}: {label}: the known fault "
                                    f"({op.fault}) did not show")
            metrics = tracer.layer_metrics(1, sum(times), sum(times))
            missing = layer_names - set(metrics)
            if missing:
                problems.append(f"{name}: no value for {sorted(missing)}")
        print(f"{name}: {sum(len(r) for _, r, _, _ in plain)} results per "
              f"round, {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
