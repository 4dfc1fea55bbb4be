"""Reference for the sorted Riccati solve of a node set (Re s >= 0).

`sweep_psi` as it was before its Re s >= 0 nodes were solved as one
stack: each such node alone, from the eigenvectors of H(s) for its d-
eigenvalues of smallest real part, then `_newton_refine`, whose every
step is a Bartels-Stewart Sylvester solve (`_solve_sylvester`).  The
nodes with Re s < 0 are walked as `sweep_psi` walks them.  The tests
compare `sweep_psi` with it.  A node that the stacked solve's one
eigenbasis step does not settle is refined from X0 by `_newton_refine`,
so for such a node the reference is also the exact value, or error, that
`sweep_psi` must give.
"""

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
                X = queueing._continue_arc(model, s, H)
            else:
                try:
                    X = queueing._newton_refine(
                        _riccati_blocks(H([s])[0], dm), X, s)
                except RiccatiError:
                    X = queueing._continue_arc(model, s, H)
            out[k] = X
    return out
