"""Reference for the epsilon re-measure.

`epsilon_accuracy` as it was before it made one pass over one points x
nodes array: it built the node-point differences once for the on-grid
check, reduced their moduli along the points, and built them again
inside the array path of `rational_approximant` for the pole sum.  A
grid on which e^z - r(z) is not finite gave inf or nan (with numpy's
RuntimeWarning), and an empty grid raised numpy's zero-size-reduction
ValueError.  The tests compare `epsilon_accuracy` with it bit for bit.
"""

import numpy as np

from awilt.methods import to_full


def rational_approximant_reference(m, z):
    """The array path of `rational_approximant`."""
    full = to_full(m)
    zs = np.asarray(z, dtype=complex)
    w = np.asarray(full.weights)
    b = np.asarray(full.nodes)
    return (w[None, :] / (b[None, :] - zs[:, None])).sum(axis=1)


def epsilon_accuracy_reference(m, Z):
    """max over Z of |e^z - sum w/(beta - z)| (full-form evaluation)."""
    pts = np.asarray(Z, dtype=complex)
    full = to_full(m)
    b = np.asarray(full.nodes)
    on_grid = (np.min(np.abs(pts[:, None] - b), axis=0)
               <= 1e-13 * (1.0 + np.abs(b)))
    if on_grid.any():
        node = full.nodes[int(np.argmax(on_grid))]
        raise ValueError(f"node {node} lies on the evaluation grid")
    R = rational_approximant_reference(full, pts)
    return float(np.max(np.abs(np.exp(pts) - R)))
