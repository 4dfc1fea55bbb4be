"""Evaluate an Abate-Whitt method against a Laplace-transform callable."""

from dataclasses import dataclass

import numpy as np

from .errors import NodeCollisionError, NumericalError

#: transform failures that flag a point of a curve instead of aborting it
_FLAGGED = (NumericalError, FloatingPointError, ZeroDivisionError,
            OverflowError)

#: elements of one node-singularity distance block in the collision check
_COLLISION_BLOCK = 1 << 16


@dataclass(frozen=True)
class Transform:
    """A Laplace transform 𝓛f as a callable s -> complex (or matrix).

    ``conjugate_symmetric`` declares 𝓛f(conj s) = conj 𝓛f(s), which holds
    whenever f is real-valued; it is required for reduced-form inversion.
    ``singularities`` lists known poles/branch points of 𝓛f used for
    node-collision checks.  ``array_evaluator``, when given, takes a 1-D
    complex array of s and returns their values stacked along axis 0; it
    lets a transform share work between the nodes of one t (see
    :meth:`at_nodes`).
    """
    evaluator: object
    conjugate_symmetric: bool = False
    singularities: tuple = ()
    name: str = ""
    array_evaluator: object = None

    def __call__(self, s):
        return self.evaluator(s)

    def at_nodes(self, ss):
        """The values at the sequence of complex s, and the failure that
        stopped them: ``(values, error)``.

        ``values`` holds the values of the leading s that were evaluated,
        in order, and ``error`` is None or the exception of a type in
        ``_FLAGGED`` that stopped the evaluation.  With an
        ``array_evaluator`` it is one call, all of ss or nothing (a value
        count other than len(ss) raises ValueError); otherwise the scalar
        evaluator is called on each s in order, up to the first that fails.
        """
        if self.array_evaluator is not None:
            try:
                values = list(self.array_evaluator(np.array(ss,
                                                            dtype=complex)))
            except _FLAGGED as exc:
                return [], exc
            if len(values) != len(ss):
                raise ValueError(f"array evaluator gave {len(values)} values "
                                 f"for {len(ss)} s")
            return values, None
        values = []
        try:
            for s in ss:
                values.append(self(s))
        except _FLAGGED as exc:
            return values, exc
        return values, None


def _scaled_nodes(m, ts):
    """The (T x N) array of beta_n / t.

    Rounded as CPython's ``complex / float`` (which divides by t + 0j):
    the ``* 0.0`` terms only set the sign of a zero part.
    """
    b = np.asarray(m.nodes)
    S = np.empty((len(ts), len(b)), dtype=complex)
    S.real = (b.real + b.imag * 0.0) / ts[:, None]
    S.imag = (b.imag - b.real * 0.0) / ts[:, None]
    return S


def _collisions(m, transform, S, ts, errors):
    """Flag in ``errors`` each row of S where a scaled node, or for reduced
    methods its conjugate, lies within 1e-10 max(1, |s0|) of a declared
    singularity s0."""
    sing = list(transform.singularities)
    if not sing:
        return
    tol = np.array([1e-10 * max(1.0, abs(s0)) for s0 in sing])
    targets = np.asarray(sing, dtype=complex)
    if m.reduced:
        # |conj(s) - s0| == |s - conj(s0)| exactly
        targets = np.concatenate([targets, targets.conjugate()])
        tol = np.concatenate([tol, tol])
    T, N = S.shape
    rows = max(1, _COLLISION_BLOCK // (N * len(targets)))
    for lo in range(0, T, rows):
        near = np.abs(S[lo:lo + rows, :, None] - targets) <= tol
        for i in np.flatnonzero(near.any(axis=(1, 2))):
            r = lo + i
            # the first node that collides, its direct hits before its
            # conjugate ones
            j = int(np.argmax(near[i].any(axis=1)))
            k = int(np.argmax(near[i, j]))
            b, t = m.nodes[j], ts[r]
            if k < len(sing):
                msg = f"node {b}/t collides with singularity {sing[k]}"
            else:
                msg = (f"node conj({b})/t collides with singularity "
                       f"{sing[k - len(sing)]}")
            errors[r] = NodeCollisionError(f"{msg} at t={t}")


def _grid(m, transform, ts):
    """The weighted sums of m at every t of ts, and the failure of each.

    Returns ``(values, errors)``, one entry per t.  A failed t has value
    None and, as its error, the exception it raised: a node collision, a
    transform failure of a type in ``_FLAGGED``, or a non-finite transform
    value.  The transform is called once per t, through
    :meth:`Transform.at_nodes`, on that t's distinct s = beta/t that no
    earlier t evaluated, in node order; an s is evaluated once and its
    value shared.  A t stops at its first failing s (with an array
    evaluator: at its one call), and an s that failed is tried again by
    each later t that reaches it.
    """
    if m.reduced and not transform.conjugate_symmetric:
        raise ValueError("reduced-form inversion needs a conjugate-symmetric "
                         "transform")
    tv = np.asarray(ts, dtype=float)
    S = _scaled_nodes(m, tv)
    T, N = S.shape
    errors = [None] * T
    _collisions(m, transform, S, ts, errors)

    points = S.ravel().tolist()
    # first appearances, by complex equality (so -0.0 and 0.0 are one s)
    distinct = list(dict.fromkeys(points))
    shared = len(distinct) < len(points)
    if shared:
        index = {s: u for u, s in enumerate(distinct)}
        ids = [index[s] for s in points]
    else:
        ids = range(len(points))
    raw = [None] * len(distinct)
    for r in range(T):
        if errors[r] is not None:
            continue
        lo = r * N
        if shared:  # the row's s that no earlier row evaluated
            pending = [u for u in dict.fromkeys(ids[lo:lo + N])
                       if raw[u] is None]
            ss = [distinct[u] for u in pending]
        else:
            pending, ss = ids[lo:lo + N], points[lo:lo + N]
        if ss:
            values, errors[r] = transform.at_nodes(ss)
            for u, v in zip(pending, values):
                raw[u] = v
    shape = np.shape(next((v for v in raw if v is not None), 0j))
    zero = np.zeros(shape, dtype=complex)
    F = np.array([zero if v is None else v for v in raw], dtype=complex)
    finite = np.isfinite(F).all(axis=tuple(range(1, F.ndim)))
    idx = np.array(ids).reshape(T, N)
    for r in np.flatnonzero(~finite[idx].all(axis=1)):
        if errors[r] is None:
            u = idx[r, np.argmin(finite[idx[r]])]
            errors[r] = NumericalError(f"transform value at s={distinct[u]} "
                                       f"is not finite (t={ts[r]})")
    F[~finite] = 0.0  # only flagged t use them

    # terms (T x N x value shape), summed over the node axis
    trail = (1,) * len(shape)
    terms = np.asarray(m.weights).reshape((-1,) + trail) * F[idx]
    sums = (np.sum(terms.real if m.reduced else terms, axis=1)
            / tv.reshape((-1,) + trail))
    values = list(sums) if shape else sums.tolist()
    return [None if e is not None else v
            for v, e in zip(values, errors)], errors


def invert(m, transform, t):
    """f_N(t): full form sum (w/t) F(b/t); reduced form sum Re((w'/t) F(b/t)).

    Returns a real scalar / real array for reduced methods, a complex
    scalar / complex array for full-form methods.  A node collision or a
    non-finite transform value raises a `NumericalError`.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    (value,), (error,) = _grid(m, transform, [t])
    if error is not None:
        raise error
    return value


@dataclass(frozen=True)
class CurvePoint:
    t: float
    value: object = None
    error: str = None


def invert_curve(m, transform, ts):
    """Inversion over a t-grid, with the values of :func:`invert`.

    All of ts is done at once: the (T x N) array of scaled nodes, the
    collision check, the transform evaluations, and the weighted sum.  The
    transform sees one t at a time, in the order of ts: one call of
    :meth:`Transform.at_nodes` with the s = beta/t of that t that no
    earlier t evaluated, in node order (exactly equal values share one
    evaluation).  A scalar evaluator is called on them one by one; an
    ``array_evaluator`` gets them in one array.  A t whose inversion fails
    is flagged in the output (``error`` set, ``value`` None) instead of
    aborting the curve: a node collision, a non-finite transform value,
    or a transform that raises `NumericalError`, `FloatingPointError`,
    `ZeroDivisionError` or `OverflowError`.  Such a raise stops the
    evaluations of its t (a scalar evaluator's at the failing s), and a
    later t that reaches a failed s tries it again.  Other exceptions
    propagate.
    """
    ts = list(ts)
    if not ts:
        raise ValueError("empty t-grid")
    if any(not t > 0 for t in ts):
        raise ValueError("all t must be positive")
    values, errors = _grid(m, transform, ts)
    return [CurvePoint(t=float(t), value=v,
                       error=None if e is None else str(e))
            for t, v, e in zip(ts, values, errors)]
