"""Evaluate an Abate-Whitt method against a Laplace-transform callable."""

from dataclasses import dataclass

import numpy as np

from .errors import NodeCollisionError, NumericalError
from .numerics import U

#: transform failures that flag a point of a curve instead of aborting it
_FLAGGED = (NumericalError, FloatingPointError, ZeroDivisionError,
            OverflowError)

#: elements of one node-singularity distance block in the collision check
_COLLISION_BLOCK = 1 << 16
#: most s in one call of an evaluator
_EVAL_BLOCK = 4096


@dataclass(frozen=True)
class Transform:
    """A Laplace transform 𝓛f, evaluated on arrays of s.

    ``evaluator`` takes a 2-D complex array S, one row per t and one
    column per node, and returns the values, of shape ``S.shape + value
    shape`` (a complex scalar or a matrix per s); it lets a transform
    share work between all the nodes of a t-grid (see :meth:`at_rows`).
    :func:`pointwise` makes one from a function of one s.
    ``conjugate_symmetric`` declares 𝓛f(conj s) = conj 𝓛f(s), which
    holds whenever f is real-valued; it is required for reduced-form
    inversion.  ``singularities`` lists known poles/branch points of 𝓛f
    used for node-collision checks.
    """
    evaluator: object
    conjugate_symmetric: bool = False
    singularities: tuple = ()
    name: str = ""

    def __call__(self, s):
        return self.at_rows(np.array([[s]], dtype=complex))[0, 0]

    def at_rows(self, S):
        """The evaluator's values at the 2-D complex array S, as an array
        of shape ``S.shape + value shape``; values of another leading
        shape raise ValueError.

        numpy's floating-point warnings are off during the call: a value
        that overflows or is undefined comes out non-finite, for the
        inversion to flag.
        """
        with np.errstate(all="ignore"):
            values = np.asarray(self.evaluator(S), dtype=complex)
        if values.shape[:2] != S.shape:
            raise ValueError(f"evaluator gave values of shape "
                             f"{values.shape} for s of shape {S.shape}")
        return values


def pointwise(f):
    """The evaluator that calls f, a function of one complex s, on each s
    of S in row order."""
    return lambda S: [[f(s) for s in row] for row in S.tolist()]


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
    singularity s0.

    |s - s0| <= tol implies |Re s - Re s0| <= tol, so an s is tested only
    against the singularities whose real parts lie within the largest tol
    of its own, widened by a few ulp for the rounding of the bounds: a
    window of the singularities sorted by real part."""
    sing = list(transform.singularities)
    if not sing:
        return
    tol = np.array([1e-10 * max(1.0, abs(s0)) for s0 in sing])
    targets = np.asarray(sing, dtype=complex)
    if m.reduced:
        # |conj(s) - s0| == |s - conj(s0)| exactly
        targets = np.concatenate([targets, targets.conjugate()])
        tol = np.concatenate([tol, tol])
    order = np.argsort(targets.real, kind="stable")
    x = targets.real[order]
    T, N = S.shape
    rows = max(1, _COLLISION_BLOCK // (N * len(targets)))
    for lo in range(0, T, rows):
        s = S[lo:lo + rows].ravel()
        reach = tol.max() + 4 * U * (tol.max() + np.abs(s.real))
        first = np.searchsorted(x, s.real - reach, side="left")
        count = np.searchsorted(x, s.real + reach, side="right") - first
        # (s, singularity) pairs of the windows
        i = np.repeat(np.arange(len(s)), count)
        k = order[np.arange(len(i))
                  - np.repeat(np.cumsum(count) - count - first, count)]
        near = np.abs(s[i] - targets[k]) <= tol[k]
        i, k = i[near], k[near]
        # the first node that collides, its direct hits before its
        # conjugate ones
        by_node = np.lexsort((k, i))
        i, k = i[by_node], k[by_node]
        hit_rows, at = np.unique(i // N, return_index=True)
        for r, a in zip(hit_rows, at):
            j, k_a = i[a] % N, k[a]
            b, t = m.nodes[j], ts[lo + r]
            if k_a < len(sing):
                msg = f"node {b}/t collides with singularity {sing[k_a]}"
            else:
                msg = (f"node conj({b})/t collides with singularity "
                       f"{sing[k_a - len(sing)]}")
            errors[lo + r] = NodeCollisionError(f"{msg} at t={t}")


def _values(transform, S, rows, errors):
    """The transform's values at S, on the given rows, as an array
    ``S.shape + value shape``.

    The rows go to :meth:`Transform.at_rows` in blocks of at most
    ``_EVAL_BLOCK`` s.  If a block's call raises an error of a type in
    ``_FLAGGED``, each of its rows is called again on its own, and a row
    that fails then gets that error.  Values of failed rows are zero.
    """
    T, N = S.shape
    done, parts = [], []
    step = max(1, _EVAL_BLOCK // N)
    for lo in range(0, len(rows), step):
        block = rows[lo:lo + step]
        try:
            parts.append(transform.at_rows(S[block]))
            done += block
            continue
        except _FLAGGED:
            pass
        for r in block:
            try:
                parts.append(transform.at_rows(S[r:r + 1]))
                done.append(r)
            except _FLAGGED as exc:
                errors[r] = exc
    shape = parts[0].shape[2:] if parts else ()
    F = np.zeros((T, N) + shape, dtype=complex)
    if parts:
        F[done] = np.concatenate(parts)
    return F


def _grid(m, transform, ts):
    """The weighted sums of m at every t of ts, and the failure of each.

    Returns ``(values, errors)``, one entry per t.  A failed t has value
    None and, as its error, the exception it raised: a node collision, a
    transform failure of a type in ``_FLAGGED``, or a non-finite transform
    value.  The rows of the (T x N) array of s = beta/t that pass the
    collision check are evaluated all at once, in calls of whole blocks
    of rows, one row at a time only after a block fails (:func:`_values`).
    """
    if m.reduced and not transform.conjugate_symmetric:
        raise ValueError("reduced-form inversion needs a conjugate-symmetric "
                         "transform")
    tv = np.asarray(ts, dtype=float)
    S = _scaled_nodes(m, tv)
    errors = [None] * len(tv)
    _collisions(m, transform, S, ts, errors)
    rows = [r for r, e in enumerate(errors) if e is None]
    F = _values(transform, S, rows, errors)
    shape = F.shape[2:]
    finite = np.isfinite(F).all(axis=tuple(range(2, F.ndim)))
    for r in np.flatnonzero(~finite.all(axis=1)):
        if errors[r] is None:
            s = complex(S[r, np.argmin(finite[r])])
            errors[r] = NumericalError(f"transform value at s={s} "
                                       f"is not finite (t={ts[r]})")
    F[~finite] = 0.0  # only flagged t use them

    # terms (T x N x value shape), summed over the node axis
    trail = (1,) * len(shape)
    terms = np.asarray(m.weights).reshape((-1,) + trail) * F
    sums = (np.sum(terms.real if m.reduced else terms, axis=1)
            / tv.reshape((-1,) + trail))
    values = list(sums) if shape else sums.tolist()
    return [None if e is not None else v
            for v, e in zip(values, errors)], errors


def invert(m, transform, t):
    """f_N(t): full form sum (w/t) F(b/t); reduced form sum Re((w'/t) F(b/t)).

    Returns a real scalar / real array for reduced methods, a complex
    scalar / complex array for full-form methods.  The evaluator gets the
    s = beta/t as one row.  A node collision or a non-finite transform
    value raises a `NumericalError`, and a failing evaluator its own
    error.
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
    evaluator gets the s = beta/t of every t that passed the collision
    check in one 2-D array, a row per t in the order of ts (in blocks of
    rows on a long grid).  A t whose inversion fails is flagged in the
    output (``error`` set, ``value`` None) instead of aborting the curve:
    a node collision, a non-finite transform value, or a transform that
    raises `NumericalError`, `FloatingPointError`, `ZeroDivisionError` or
    `OverflowError`.  When a call raises one of these, each of its t is
    called again on its own, and only the t that fail again are flagged.
    Other exceptions propagate.
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
