#!/usr/bin/env python3
"""Compare two outputs of scripts/snapshot_builds.py.

Usage: python scripts/compare_snapshots.py OUT_A OUT_B

Every file must be in both trees.  Every file but the fluid/*.csv ones
must be byte-identical.  A fluid/*.csv file is a matrix, one "i,j,value"
row per entry; for each such file that is not byte-identical, prints
max|A - B| / max(1, ||A||_inf), with ||.||_inf the largest absolute row
sum.  Exits 1 if a file is missing from one tree, differs where it must
be byte-identical, or has a fluid deviation above TOL; else exits 0.
"""

import filecmp
import os
import sys

import numpy as np

#: the largest fluid CSV deviation, relative to max(1, ||X||_inf), allowed
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


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    a, b = sys.argv[1:]
    fa, fb = files(a), files(b)
    bad = 0
    for rel in sorted(fa ^ fb):
        print(f"only in {a if rel in fa else b}: {rel}")
        bad += 1
    worst = 0.0
    for rel in sorted(fa & fb):
        pa, pb = os.path.join(a, rel), os.path.join(b, rel)
        if filecmp.cmp(pa, pb, shallow=False):
            continue
        if rel.startswith("fluid" + os.sep) and rel.endswith(".csv"):
            dev = deviation(pa, pb)
            worst = max(worst, dev)
            print(f"{rel}: {dev:.3e}")
            bad += not dev <= TOL
        else:
            print(f"differs: {rel}")
            bad += 1
    print(f"{len(fa | fb)} files, largest fluid deviation {worst:.3e}, "
          f"{bad} failing")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
