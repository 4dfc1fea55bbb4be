"""Reference Riccati solves of a node set, node by node.

`sweep_psi` as it was before its nodes were solved as one stack: each
Re s >= 0 node alone, from the eigenvectors of H(s) for its d-
eigenvalues of smallest real part, then `_newton_refine`, whose every
step is a Bartels-Stewart Sylvester solve (`_solve_sylvester`).  Each
Re s < 0 node is warm started: refined from the solution at the node
before it in the walk, or, if it has none or that fails, continued from
|s| along the arc by `arc_psi`, a fixed-step Newton continuation that
shares no step rule with `queueing`.  The tests compare `sweep_psi` and
`solve_psi` with them.
"""

import cmath
import math

import numpy as np

from awilt import queueing
from awilt.errors import RiccatiError, SpectralGapError
from awilt.queueing import GAP_RTOL, _hamiltonian, _riccati_blocks


def sorted_psi(model, s, refine=None):
    """The sorted solve at one s with Re(s) >= 0: the invariant subspace
    of H(s) for its d- eigenvalues of smallest real part, then
    refine(blocks, X, s), by default `queueing._newton_refine`."""
    return sorted_node(_hamiltonian(model)([s])[0], s, model.d_minus, refine)


def sorted_node(H, s, dm, refine=None):
    """`sorted_psi` from H = H(s), whose first dm states are the minus
    states."""
    refine = refine or queueing._newton_refine
    vals, vecs = np.linalg.eig(H)
    order = np.argsort(vals.real, kind="stable")
    spread = max(float(vals.real.max() - vals.real.min()), 1.0)
    gap = vals.real[order[dm]] - vals.real[order[dm - 1]]
    if gap <= GAP_RTOL * spread:
        raise SpectralGapError(
            f"ambiguous eigenvalue splitting at s={s}: gap {gap:.3e}")
    V = vecs[:, order[:dm]]
    try:
        X = V[dm:, :] @ np.linalg.inv(V[:dm, :])
    except np.linalg.LinAlgError as exc:
        raise RiccatiError(f"singular subspace basis at s={s}: {exc}") from None
    return refine(_riccati_blocks(H, dm), X, s)


def arc_psi(model, s, steps=1024):
    """psi_hat at one s, continued from the sorted solve at |s| along the
    arc |z| = |s| (through the half-plane of the sign of Im s, -0.0
    included) in steps equal steps.  Each step is refined by
    `queueing._newton_refine` from the quadratic extrapolation of the
    three solutions before it (the solution before it, for the first two
    steps), so that one Newton step usually meets the gate.  A step whose
    refinement misses the 1e-12 gate raises RiccatiError; no step is
    halved."""
    H = _hamiltonian(model)
    radius, theta = abs(s), math.atan2(s.imag, s.real)
    Xs = [sorted_psi(model, complex(radius))]
    for k in range(1, steps + 1):
        z = s if k == steps else radius * cmath.exp(1j * theta * k / steps)
        X = 3 * Xs[-1] - 3 * Xs[-2] + Xs[-3] if k > 2 else Xs[-1]
        Xs.append(queueing._newton_refine(
            _riccati_blocks(H([z])[0], model.d_minus), X, z))
    return Xs[-1]


def sweep_psi(model, ss):
    """psi_hat at each s of ss, in the order of ss, each Re s >= 0 node
    by `sorted_psi`."""
    ss = [complex(s) for s in ss]
    H = _hamiltonian(model)
    dm = model.d_minus
    halves = ([], [])
    for k, s in enumerate(ss):
        halves[math.copysign(1.0, s.imag) < 0].append(k)
    out = [None] * len(ss)
    for half in halves:
        X = None
        for k in sorted(half, key=lambda k: abs(math.atan2(ss[k].imag,
                                                           ss[k].real))):
            s = ss[k]
            if s.real >= 0:
                X = sorted_psi(model, s)
            elif X is None:
                X = arc_psi(model, s)
            else:
                try:
                    X = queueing._newton_refine(
                        _riccati_blocks(H([s])[0], dm), X, s)
                except RiccatiError:
                    X = arc_psi(model, s)
            out[k] = X
    return out
