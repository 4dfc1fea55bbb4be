"""Benchmark of the `aw` commands and the awilt library, run in-process.

    python3 perfbench/run.py --workload design|curve|fluid --seed N \
        --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``awilt`` from its
``src``.  Each workload is a fixed work list made from the seed; the run
repeats whole rounds of it for about S seconds in this one process, with
BLAS held to one thread, and checks every result apart from the program.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The line before it
records the library versions, the BLAS and the processor count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import cmath
import gc
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: set-ups made in fresh interpreters, besides the one in this process;
#: one set-up varies by +-20% here, mostly in loading numpy and scipy,
#: which the scaling below does not steady
SETUP_REPEATS = 6
#: Calls and set-ups are timed in CPU time of this process.  The program
#: runs single-threaded here (BLAS held to one thread), so that is the wall
#: time of a call on an unshared core.  On a shared 2-vCPU VM the wall time
#: also holds the intervals the host takes the vCPU away; over sets of runs
#: made back to back there, the spread of ops_per_s was 8-21% in wall time
#: and 2-10% in CPU time.
CLOCK = time.process_time
#: CPU seconds of `reference_kernel` on the core the times are scaled to.
#: The speed of a vCPU of a shared host swings by up to 2x in spells of a
#: fraction of a second to minutes (the same round of curve took 0.29 to
#: 0.67 CPU seconds within two minutes), which CPU time does not remove.
#: So the kernel runs right before and right after every timed call, and
#: the call's CPU time is scaled by REFERENCE_S over the mean of the two.
#: Over 30 s stretches of one curve run this cut the range of the round
#: time from 28% to 1.2%.  The kernel does not touch awilt, so a change to
#: the program moves the scaled times as it moves the CPU times.
REFERENCE_S = 0.0015


def reference_kernel():
    """CPU seconds of a fixed pure-Python loop of complex arithmetic."""
    t0 = CLOCK()
    acc = 0j
    for k in range(4000):
        z = complex(-1e-4 * k, 1e-3 * k)
        acc += cmath.exp(z) / (z - 3.0)
    return CLOCK() - t0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("design", "curve", "fluid"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a few items per workload, for the self-check")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print the seconds")
    return p.parse_args(argv)


def _setup(args, workdir):
    """Import the program and make the workload's inputs; (workload, s),
    with s in CPU seconds scaled as the calls are (see REFERENCE_S)."""
    k0 = reference_kernel()
    t0 = CLOCK()
    sys.path.insert(0, SRC)
    import awilt
    import awilt.cli  # noqa: F401  (the entry point every command uses)
    if not os.path.abspath(awilt.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"awilt was imported from {awilt.__file__}, "
                         f"not from {SRC}")
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir, args.tiny)
    wl.setup()
    dt = CLOCK() - t0
    return wl, dt * REFERENCE_S / ((k0 + reference_kernel()) / 2.0)


def _setup_samples(args):
    """Set-up seconds measured in fresh interpreters."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--setup-only"] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"set-up failed with exit code "
                             f"{proc.returncode}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _round(ops, tracer=None):
    """Run the work list once.

    Returns the call seconds, scaled (see REFERENCE_S), and, per entry of
    the work list, (label, results, failed, unexpected), where unexpected
    counts the failures that are not due to the known fault the entry
    keeps.
    """
    import workloads
    times, verdicts = [], []
    state = {}
    for op in ops:
        outs = []
        before = None  # the kernel's seconds right before the next call
        for make in op.calls:
            call = make(outs)
            if call is None:  # a call that does not apply to this input
                outs.append(None)
                continue
            if before is None:
                before = reference_kernel()
            if tracer is not None:
                tracer.active = True
            t0 = CLOCK()
            out = call() if callable(call) else workloads.cli(call)
            dt = CLOCK() - t0
            if tracer is not None:
                tracer.active = False
            after = reference_kernel()
            scale = REFERENCE_S / ((before + after) / 2.0)
            if tracer is not None:
                tracer.commit(scale)
            times.append(dt * scale)
            before = after
            outs.append(out)
        res = op.check(outs, state)
        if len(res) != op.results:
            raise AssertionError(f"{op.label}: {len(res)} results, "
                                 f"expected {op.results}")
        failed = sum(not ok for ok, _ in res)
        unexpected = sum(not ok and (fault is None or fault != op.fault)
                         for ok, fault in res)
        verdicts.append((op.label, res, failed, unexpected))
    return times, verdicts


def _environment():
    import mpmath
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": len(os.sched_getaffinity(0))}


def main(argv=None):
    args = _parse(argv)
    # end on SIGTERM through SystemExit, so the work directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "awilt", "__init__.py")):
        print(f"no awilt sources under {SRC}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.setup_only:
            print(_setup(args, workdir)[1])
            return 0
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    samples = _setup_samples(args)
    wl, setup_s = _setup(args, workdir)
    samples.append(setup_s)
    wl.verify()
    ops = wl.ops

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    times = []  # one list of call seconds per untraced round
    round_s = {False: [], True: []}
    # verdicts are tallied as they come, so that the harness's memory does
    # not grow with the number of rounds and move peak_rss_mb
    attempted = failed = 0
    unexpected = {}  # label -> failures not due to the entry's known fault
    digits = {}  # (entry, result) -> fewest digits over the rounds
    start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if traced:
            tracer.install()
        try:
            t, v = _round(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        # collect the reference cycles the calls leave, outside the timed
        # calls: left to the collector's schedule, they grew the heap by
        # 2.7 MB over 40 rounds of curve, so peak_rss_mb rose with the
        # number of rounds, which a faster program makes larger
        gc.collect()
        round_s[traced].append(sum(t))
        if not traced:
            times.append(t)
        for i, (label, res, f, n) in enumerate(v):
            attempted += len(res)
            failed += f
            if n:
                unexpected[label] = unexpected.get(label, 0) + n
            for j, (ok, d) in enumerate(res):
                if ok:
                    digits[i, j] = min(d, digits.get((i, j), d))
        k += 1
        # stop at the whole round that ends nearest to --seconds; traced
        # runs stop after an even number of rounds
        elapsed = time.perf_counter() - start
        if (elapsed * (1.0 + 0.5 / k) >= args.seconds
                and (k % 2 == 0 or not args.trace)):
            break

    for label, n in unexpected.items():
        print(f"check failed: {label}: {n} result(s)", file=sys.stderr)
    digits = list(digits.values())

    if args.trace:
        metrics = tracer.layer_metrics(len(round_s[True]),
                                       sum(round_s[True]),
                                       sum(round_s[False]))
    else:
        n_results = sum(op.results for op in ops) * len(times)
        # each call of the work list, timed as its median over the rounds:
        # the scaling misses a change of the host's speed in the middle of
        # a call, and the median drops those calls
        per_call = [statistics.median(ts) for ts in zip(*times)]
        metrics = {
            "ops_per_s": (n_results / sum(round_s[False]), "1/s"),
            "call_ms_p50": (1e3 * statistics.median(per_call), "ms"),
            "digits_p50": (statistics.median(digits), "digits"),
            "digits_min": (min(digits), "digits"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in metrics.items()}
    info = {"environment": _environment(), "round_call_s": round_s[False],
            "traced_round_call_s": round_s[True],
            "calls": sum(map(len, times))}
    if args.trace:
        info["self_ms_by_layer"] = tracer.self_ms_by_layer(
            len(round_s[True]))
    print(json.dumps(info))
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
