#!/usr/bin/env python3
"""Compare two outputs of scripts/snapshot_builds.py.

Usage: python scripts/compare_snapshots.py OUT_A OUT_B

Every file must be in both trees.  Every file but the fluid/*.csv,
invert/*.csv and library/*.csv ones must be byte-identical.  A
fluid/*.csv file is a matrix, one "i,j,value" row per entry; for each
such file that is not byte-identical, prints max|A - B| / max(1,
||A||_inf), with ||.||_inf the largest absolute row sum.  An invert/*.csv
or library/*.csv file is a curve, one "t,value" row per t, with an empty
value where the t was flagged; for each such file that is not
byte-identical, prints max|A - B| / max(1, max|A|) over the values,
which must be flagged at the same t, under the same t column.  Exits 1
if a file is missing from one tree, differs where it must be
byte-identical, or has a deviation above TOL; else exits 0.
"""

import filecmp
import os
import sys

import numpy as np

#: the largest CSV deviation, relative to its scale, allowed
TOL = 1e-10


def files(root):
    """Paths of every file under root, relative to it."""
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def matrix(path):
    """The matrix of a fluid CSV (columns i, j, value)."""
    ijv = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    i, j = ijv[:, 0].astype(int), ijv[:, 1].astype(int)
    X = np.zeros((i.max() + 1, j.max() + 1))
    X[i, j] = ijv[:, 2]
    return X


def deviation(path_a, path_b):
    """max|A - B| / max(1, ||A||_inf) of two fluid CSVs."""
    A, B = matrix(path_a), matrix(path_b)
    if A.shape != B.shape:
        return float("inf")
    scale = max(1.0, float(np.max(np.abs(A).sum(axis=1))))
    return float(np.max(np.abs(A - B))) / scale


def curve(path):
    """The t cells and the values of an invert CSV (None where flagged)."""
    with open(path) as fh:
        rows = [line.rstrip("\n").split(",") for line in fh][1:]
    return ([t for t, _ in rows],
            [complex(v) if v else None for _, v in rows])


def curve_deviation(path_a, path_b):
    """max|A - B| / max(1, max|A|) of two invert CSVs; inf if their t or
    their flagged points differ."""
    (ta, A), (tb, B) = curve(path_a), curve(path_b)
    if ta != tb or [a is None for a in A] != [b is None for b in B]:
        return float("inf")
    pairs = [(a, b) for a, b in zip(A, B) if a is not None]
    if not pairs:
        return 0.0
    scale = max(1.0, max(abs(a) for a, _ in pairs))
    return max(abs(a - b) for a, b in pairs) / scale


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    a, b = sys.argv[1:]
    fa, fb = files(a), files(b)
    bad = 0
    for rel in sorted(fa ^ fb):
        print(f"only in {a if rel in fa else b}: {rel}")
        bad += 1
    worst = {deviation: 0.0, curve_deviation: 0.0}
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if filecmp.cmp(pa, pb, shallow=False):
            continue
        compare = {"fluid": deviation, "invert": curve_deviation,
                   "library": curve_deviation}.get(
            rel.split(os.sep)[0]) if rel.endswith(".csv") else None
        if compare is None:
            print(f"differs: {rel}")
            bad += 1
            continue
        dev = compare(pa, pb)
        worst[compare] = max(worst[compare], dev)
        print(f"{rel}: {dev:.3e}")
        bad += not dev <= TOL
    print(f"{len(fa | fb)} files, largest fluid deviation "
          f"{worst[deviation]:.3e}, largest curve deviation "
          f"{worst[curve_deviation]:.3e}, {bad} failing")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
