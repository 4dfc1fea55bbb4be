"""CTMC utilities, phase-type distributions, and fluid-queue transforms.

The fluid-queue first-return density transform psi_hat(s) is the minimal
solution of a nonsymmetric algebraic Riccati equation.  For Re(s) >= 0 it
comes from the stable invariant subspace of H(s) = diag(r)^{-1}(sI - Q),
the states ordered minus-first; for Re(s) < 0 it is the solution
continued from there (see :func:`solve_psi`).  Every solve ends in Newton
refinement, which stops once the residual is within 1e-12 of the scale
of the equation's terms.

Nodes are solved as a set (:func:`sweep_psi`; :func:`solve_psi` is the
set of one), taken in order of |arg s| within each half-plane.  H(s) is
formed for all of them at once, and one stacked eigen-solve selects
each node's invariant subspace: by the real parts of the eigenvalues at
Re(s) >= 0, and at Re(s) < 0 by nearness to the subspace the node before
it selected.  Every node then takes one of three routes:

1. one Newton step in the eigenbasis of its subspace, one stacked
   np.linalg.solve for all nodes (:func:`_stacked_solve`);
2. if that does not settle it, Newton refinement (:func:`_newton_refine`,
   Bartels-Stewart Sylvester solves) from the Schur basis of the same
   subspace (:func:`_schur_solve`);
3. at Re(s) < 0, if its selection is ambiguous or missing, or route 2
   fails, a path from the node before it, bisected where the selection
   is in doubt, whose nodes take routes 1 and 2 (:func:`_refined_path`).

Phase-type transforms solve (sI - Q) at all nodes of a t-grid in one
stacked call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import resolvent
from .errors import RiccatiError, SpectralGapError
from .invert import Transform
from .numerics import matrix_exponential

#: relative eigenvalue gap below which the sorted subspace split is ambiguous
GAP_RTOL = 1e-8
#: at Re(s) < 0, the choice of the d- eigenvectors nearest to the tracked
#: subspace is ambiguous unless the d-th distance is below this share of the
#: (d+1)-th
TRACK_RATIO = 0.2
#: the bisections of a refined path's step beyond which it gives up: near
#: the resolution of a double in log z
PATH_DEPTH = 50
#: Newton (Sylvester) steps beyond which a Riccati refinement gives up
NEWTON_STEPS = 12


@dataclass(frozen=True)
class GeneratorMatrix:
    Q: np.ndarray
    kind: str = "generator"          # generator | subgenerator
    lam: float = None                # uniformization rate

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        object.__setattr__(self, "Q", Q)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        scale = max(np.linalg.norm(Q), 1e-300)
        off = Q - np.diag(np.diag(Q))
        if np.min(off) < -1e-12 * scale:
            raise ValueError("off-diagonal entries must be nonnegative")
        rs = Q.sum(axis=1)
        if self.kind == "generator":
            if np.max(np.abs(rs)) > 1e-12 * scale:
                raise ValueError("generator rows must sum to zero")
        elif self.kind == "subgenerator":
            if np.max(rs) > 1e-12 * scale:
                raise ValueError("subgenerator rows must sum to <= 0")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        lam = self.lam
        dmax = float(np.max(np.abs(np.diag(Q))))
        if lam is None:
            lam = dmax
        elif lam < dmax * (1.0 - 1e-12):
            raise ValueError("uniformization rate below max |Q_ii|")
        object.__setattr__(self, "lam", float(lam))

    @property
    def dim(self):
        return self.Q.shape[0]


@dataclass(frozen=True)
class PhaseType:
    alpha: np.ndarray
    Q: np.ndarray                    # subgenerator

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        object.__setattr__(self, "alpha", alpha)
        GeneratorMatrix(self.Q, kind="subgenerator")  # validates
        object.__setattr__(self, "Q", np.asarray(self.Q, dtype=float))
        if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-12:
            raise ValueError("alpha must be a stochastic vector")
        if np.any(self.exit_rates < -1e-12 * max(np.linalg.norm(self.Q), 1)):
            raise ValueError("exit rates must be nonnegative")

    @property
    def exit_rates(self):
        return -self.Q.sum(axis=1)

    @property
    def dim(self):
        return self.Q.shape[0]


def phase_type_transform(p):
    """(pdf transform, cdf transform) of a phase-type distribution: the
    pdf is alpha^T (sI - Q)^{-1} q, the cdf that over s.  Each evaluator
    solves (sI - Q) at all the s of its array, the nodes of a whole
    t-grid, in one stacked call."""
    eigs = tuple(np.linalg.eigvals(p.Q))
    pdf = resolvent(p.alpha, p.Q, p.exit_rates)

    def cdf(S):
        return pdf(S) / S

    return (Transform(evaluator=pdf, conjugate_symmetric=True,
                      singularities=eigs, name="phase_type_pdf"),
            Transform(evaluator=cdf, conjugate_symmetric=True,
                      singularities=eigs + (0.0,), name="phase_type_cdf"))


def phase_type_ground_truth(p, t):
    """(pdf(t), cdf(t)) via the matrix exponential."""
    E = matrix_exponential(t * p.Q).real
    pdf = float(p.alpha @ E @ p.exit_rates)
    cdf = 1.0 - float(p.alpha @ E @ np.ones(p.dim))
    return pdf, cdf


@dataclass(frozen=True)
class FluidQueueModel:
    gen: GeneratorMatrix
    rates: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", r)
        if len(r) != self.gen.dim:
            raise ValueError("rates length must match generator dimension")
        if np.any(r == 0):
            raise ValueError("rates must be nonzero")
        if not (np.any(r > 0) and np.any(r < 0)):
            raise ValueError("need at least one positive and one negative rate")

    @property
    def plus_idx(self):
        return np.flatnonzero(self.rates > 0)

    @property
    def minus_idx(self):
        return np.flatnonzero(self.rates < 0)

    @property
    def d_plus(self):
        return len(self.plus_idx)

    @property
    def d_minus(self):
        return len(self.minus_idx)


def _hamiltonian(model):
    """The function ss -> H(s) at each s of ss, stacked along axis 0:
    H(s) = diag(r)^{-1}(sI - Q) with the states ordered minus-first.

    Its entries are computed as C^{-1}(Q - sI), C = diag(|r_i|), with the
    rows of the plus states negated, so each is that entry, or its exact
    negative, bit for bit (signed zeros included).  The model's constants
    are taken here, once per solve.
    """
    order = np.concatenate([model.minus_idx, model.plus_idx])
    Q = model.gen.Q[np.ix_(order, order)]
    c_inv = (1.0 / np.abs(model.rates[order]))[:, None]
    eye = np.eye(len(order))
    dm = model.d_minus

    def H(ss):
        out = c_inv * (Q - np.asarray(ss, dtype=complex)[:, None, None] * eye)
        np.negative(out[:, dm:], out=out[:, dm:])
        return out

    return H


def _riccati_blocks(H, dm):
    """(A_pp, A_pm, A_mp, A_mm) of the NARE: slices of H(s)
    (:func:`_hamiltonian`), whose first dm states are the minus states,
    at one s or along a stack of them."""
    return (-H[..., dm:, dm:], -H[..., dm:, :dm], H[..., :dm, dm:],
            H[..., :dm, :dm])


def _solve_sylvester(a, b, q):
    """X with a X + X b = q (Bartels-Stewart)."""
    from scipy.linalg import solve_sylvester
    return solve_sylvester(a, b, q)


def _norm_inf(B):
    # np.linalg.norm(B, np.inf), without its dispatch; per node of a stack
    return np.abs(B).sum(axis=-1).max(axis=-1)


def _residual(blocks, norms, X):
    """The NARE residual R at X, its inf-norm, and the scale of the terms
    the Newton gate holds it to, at one node or along a stack of them;
    norms are the inf-norms of (A_pm, A_pp, A_mm, A_mp).

    The gate is a backward error: the residual can only be expected to
    reach roundoff relative to the magnitude of the NARE terms, which is
    much larger than ||A|| when ||X|| is large (continuation at Re s < 0
    can make X big)."""
    App, Apm, Amp, Amm = blocks
    n_pm, n_pp, n_mm, n_mp = norms
    R = Apm + App @ X + X @ Amm + X @ Amp @ X
    nx = _norm_inf(X)
    return R, _norm_inf(R), n_pm + n_pp * nx + nx * n_mm + nx * n_mp * nx


def _newton_refine(blocks, X, s):
    """Newton steps on the NARE from X at one s, each a Bartels-Stewart
    Sylvester solve: at least one and at most NEWTON_STEPS, stopping once
    the residual is within 1e-12 of the scale of the terms
    (:func:`_residual`), else RiccatiError.

    That gate bounds the backward error only.  The forward error can reach
    about 1e-12 kappa, kappa the term scale over the separation of the
    Newton (Sylvester) operator, which grows near branch points of psi_hat
    at Re(s) < 0.  Two solutions that both pass the gate, from different
    starts, can differ by as much.
    """
    App, Apm, Amp, Amm = blocks
    norms = tuple(_norm_inf(B) for B in (Apm, App, Amm, Amp))
    for k in range(NEWTON_STEPS + 1):
        R, res, scale = _residual(blocks, norms, X)
        if k >= 1 and res <= 1e-12 * scale:
            return X
        if k == NEWTON_STEPS or not np.isfinite(res):
            raise RiccatiError(
                f"Riccati residual {res:.3e} exceeds 1e-12 of the term scale "
                f"at s={s}")
        try:
            delta = _solve_sylvester(App + X @ Amp, Amm + Amp @ X, -R)
        except (ValueError, np.linalg.LinAlgError) as exc:
            raise RiccatiError(f"Newton step failed at s={s}: {exc}") from None
        X = X + delta


def _solve_sylvester_eig(a, mu, q):
    """Y with a Y + Y diag(mu) = q at each node of a stack: column j of a
    node solves (a + mu_j I) y = q[:, j], all in one np.linalg.solve."""
    shifted = a[:, None] + mu[:, :, None, None] * np.eye(a.shape[-1])
    y = np.linalg.solve(shifted, q.swapaxes(1, 2)[..., None])
    return y[..., 0].swapaxes(1, 2)


def _each_node(f, *stacks):
    """f of stacks of nodes, in one call or, if that raises LinAlgError,
    in one call per node, NaN for a node that raises.  The values are
    shaped as the last stack."""
    try:
        return f(*stacks)
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan, dtype=complex)
    for i, args in enumerate(zip(*stacks)):
        try:
            out[i] = f(*(a[None] for a in args))[0]
        except np.linalg.LinAlgError:
            pass
    return out


def _track(U, V, dm):
    """The indices of the dm columns of V (unit eigenvectors) nearest to
    the span of the columns of U, or None if that choice is ambiguous: if
    the dm-th of the distances is not below TRACK_RATIO times the
    (dm+1)-th."""
    Q = np.linalg.qr(U)[0]
    dist = np.linalg.norm(V - Q @ (Q.conj().T @ V), axis=0)
    order = np.argsort(dist, kind="stable")
    if dist[order[dm - 1]] < TRACK_RATIO * dist[order[dm]]:
        return order[:dm]
    return None


def _select(vals, vecs, ss, halves, dm, start=None):
    """Each node's dm eigenvectors, as indices into the eigen-solve
    (vals, vecs) of H(s) along the stack, the nodes of each half of
    halves taken in its order.

    A node with Re(s) >= 0 takes the eigenvalues of smallest real part,
    or gets SpectralGapError if no gap follows them; at Re(s) < 0 that
    split can pick another branch than the continuation.  A node with
    Re(s) < 0 takes the eigenvectors nearest (:func:`_track`) to the
    subspace the node before it took or, first in its half, to the span
    of start.  It gets None if that choice is ambiguous or missing.
    """
    order = np.argsort(vals.real, axis=-1, kind="stable")
    re = np.take_along_axis(vals.real, order, axis=-1)
    gap = re[:, dm] - re[:, dm - 1]
    live = gap > GAP_RTOL * np.maximum(re[:, -1] - re[:, 0], 1.0)
    sel = [None] * len(ss)
    for half in halves:
        U = start
        for k in half:
            if ss[k].real >= 0 and live[k]:
                sel[k] = order[k, :dm]
            elif ss[k].real >= 0:
                sel[k] = SpectralGapError(f"ambiguous eigenvalue splitting "
                                          f"at s={ss[k]}: gap {gap[k]:.3e}")
            elif U is not None:
                sel[k] = _track(U, vecs[k], dm)
            U = (vecs[k][:, sel[k]] if isinstance(sel[k], np.ndarray)
                 else None)
    return sel


def _schur_solve(H, mu, dm, s):
    """The NARE solution at one s for the invariant subspace of H = H(s)
    with eigenvalues mu: :func:`_newton_refine` from X0 = Q_bot Q_top^{-1},
    Q the complex Schur basis reordered (LAPACK ztrsen) so that the
    eigenvalues matched one to one to mu come first.  Q is unitary, so
    Q_top stays well conditioned where the eigenvectors are nearly
    parallel.  Raises RiccatiError."""
    from scipy.linalg import schur
    from scipy.linalg.lapack import ztrsen
    try:
        T, Q = schur(H, output="complex")
        diag = np.diag(T)
        free = np.ones(len(diag), dtype=bool)
        for m in mu:
            free[np.argmin(np.where(free, np.abs(diag - m), np.inf))] = False
        _, Q, *_, info = ztrsen((~free).astype(np.int32), T, Q, job="N")
        if info:
            raise np.linalg.LinAlgError(f"ztrsen info {info}")
        X0 = Q[dm:, :dm] @ np.linalg.inv(Q[:dm, :dm])
    except (ValueError, np.linalg.LinAlgError) as exc:
        raise RiccatiError(f"no Schur basis at s={s}: {exc}") from None
    return _newton_refine(_riccati_blocks(H, dm), X0, s)


def _stacked_solve(Hs, ss, dm, halves, start=None):
    """Each node s of ss from its eigenvectors of H(s) along the stack Hs,
    all nodes as one stack.  Returns, per node, its solution, the error
    it raises, or None: a node with Re(s) < 0 that gets no selection.

    One eigen-solve gives each node's dm eigenvalues mu and eigenvectors
    V = [T; V_bot] (:func:`_select`, walking halves from start), and
    X0 = V_bot T^{-1}.  One Newton step follows, in the eigenbasis:
    B = A_mm + A_mp X0 is T diag(mu) T^{-1}, so the step A D + D B = -R,
    A = A_pp + X0 A_mp, is (A + mu_j I) Y_j = -(R T)_j with D = Y T^{-1},
    one stacked solve for all nodes (:func:`_solve_sylvester_eig`).  A
    node whose X1 = X0 + D meets the 1e-12 gate of :func:`_newton_refine`
    returns X1; any other (a singular T, a failed shifted solve, an unmet
    gate) is solved alone from its Schur basis (:func:`_schur_solve`).
    """
    vals, vecs = np.linalg.eig(Hs)
    sel = _select(vals, vecs, ss, halves, dm, start)
    out = [c if isinstance(c, Exception) else None for c in sel]
    nodes = np.array([i for i, choice in enumerate(sel)
                      if isinstance(choice, np.ndarray)], dtype=int)
    idx = np.array([sel[i] for i in nodes], dtype=int).reshape(-1, dm)
    mu = np.take_along_axis(vals[nodes], idx, axis=-1)
    V = np.take_along_axis(vecs[nodes], idx[:, None, :], axis=-1)
    T, Tinv = V[:, :dm], _each_node(np.linalg.inv, V[:, :dm])
    X0 = V[:, dm:] @ Tinv
    blocks = _riccati_blocks(Hs[nodes], dm)
    App, Apm, Amp, Amm = blocks
    norms = tuple(_norm_inf(B) for B in (Apm, App, Amm, Amp))
    R = _residual(blocks, norms, X0)[0]
    Y = _each_node(_solve_sylvester_eig, App + X0 @ Amp, mu, -(R @ T))
    X1 = X0 + Y @ Tinv
    _, res, scale = _residual(blocks, norms, X1)
    for j, i in enumerate(nodes):
        if res[j] <= 1e-12 * scale[j]:
            out[i] = X1[j]
            continue
        try:
            out[i] = _schur_solve(Hs[i], mu[j], dm, ss[i])
        except RiccatiError as exc:
            out[i] = exc
    return out


def _refined_path(H, dm, s, before):
    """psi_hat at one s with Re(s) < 0, tracked along a path to it from
    before, the node before s and its solution (z0, X0), or, if there is
    none or z0 is 0, from the sorted solve at z0 = +-i|s| (then the path is
    the arc of :func:`solve_psi`).  A step of the path solves its end alone
    by :func:`_stacked_solve`, tracking the span of [I; X] at its start.
    A step that this does not settle is bisected, linearly in log z, and
    a step still in doubt after PATH_DEPTH bisections raises RiccatiError.
    """
    if before is None or before[0] == 0:
        z0 = complex(0.0, math.copysign(abs(s), s.imag))
        X0 = _stacked_solve(H([z0]), [z0], dm, [[0]])[0]
        if isinstance(X0, Exception):
            raise X0
    else:
        z0, X0 = before

    def step(za, Xa, zb, depth):
        Xb = _stacked_solve(H([zb]), [zb], dm, [[0]],
                            np.concatenate([np.eye(dm), Xa]))[0]
        if isinstance(Xb, np.ndarray):
            return Xb
        if depth == PATH_DEPTH:
            raise RiccatiError(
                f"no tracked path to s={s}: the step from z={za} to z={zb} "
                f"is in doubt after {PATH_DEPTH} bisections")
        # math.atan2 keeps the half-plane of -0.0 (and has no underflow)
        zm = cmath.rect(math.sqrt(abs(za)) * math.sqrt(abs(zb)),
                        (math.atan2(za.imag, za.real)
                         + math.atan2(zb.imag, zb.real)) / 2)
        return step(zm, step(za, Xa, zm, depth + 1), zb, depth + 1)

    return step(z0, X0, s, 0)


def solve_psi(model, s):
    """psi_hat(s): the d+ x d- minimal-solution matrix of the NARE.

    Solves A_pm + A_pp X + X A_mm + X A_mp X = 0 where A(s) is
    C^{-1}(Q - sI) partitioned by rate sign, C = diag(|r_i|).  For
    Re(s) >= 0 the solution comes from the invariant subspace of
    H(s) = diag(r)^{-1}(sI - Q) = [[A_mm, A_mp], [-A_pm, -A_pp]] (states
    ordered minus-first) for the d- eigenvalues of smallest real part:
    one Newton step in its eigenbasis or, if that misses the 1e-12 gate,
    Newton refinement from its Schur basis (:func:`_stacked_solve`).

    For Re(s) < 0 that splitting no longer tracks the analytic continuation
    of psi_hat.  The sorted solve is then taken at z0 = +-i|s|, where the
    arc |z| = |s| crosses the imaginary axis on the side of s (the sign of
    Im s, -0.0 included), and the subspace is tracked along that arc to s,
    bisecting each step whose choice is in doubt (:func:`_refined_path`).
    This is the branch that continuing from |s| on the real axis gives:
    the arc from |s| to z0 stays in Re z >= 0, where psi_hat is analytic
    and the sorted solve is the minimal solution.

    This is :func:`sweep_psi` of the one node s.
    """
    return sweep_psi(model, [s])[0]


def sweep_psi(model, ss):
    """psi_hat at each s of one node set.

    The nodes are split by the sign of Im s (-0.0 counts as negative, as
    in :func:`solve_psi`) and, within each half-plane, taken in order of
    |arg s|: first those with Re s >= 0, then those with Re s < 0.  All
    are solved as one stack (:func:`_stacked_solve`), from one eigen-solve
    of H(s).  A node with Re s >= 0 takes the sorted split, and gets the
    same value as when it is solved alone.  A node with Re s < 0 takes the
    d- eigenvectors nearest to the subspace the node before it took, so
    that the branch is followed from the sorted nodes to it.  One whose
    choice is ambiguous or missing, or that its Schur basis does not
    solve, is tracked along a bisected path from the node before it, or
    from +-i|s| if it is the first of its half (:func:`_refined_path`).

    Returns the list of solutions in the order of ss.  A node that fails
    raises its error; of several, the first in that walk (upper
    half-plane first) is raised.
    """
    ss = [complex(s) for s in ss]
    H = _hamiltonian(model)
    halves = ([], [])
    for k, s in enumerate(ss):
        halves[math.copysign(1.0, s.imag) < 0].append(k)
    # math.atan2 is cmath.phase without its underflow error
    halves = [sorted(half, key=lambda k: abs(math.atan2(ss[k].imag,
                                                       ss[k].real)))
              for half in halves]
    out = _stacked_solve(H(ss), ss, model.d_minus, halves)
    for half in halves:
        for prev, k in zip([None] + half, half):
            if isinstance(out[k], np.ndarray):
                continue
            if ss[k].real >= 0:
                raise out[k]
            before = None if prev is None else (ss[prev], out[prev])
            out[k] = _refined_path(H, model.d_minus, ss[k], before)
    return out


def fluid_psi_transform(model):
    """(psi_hat transform, Psi_hat = psi_hat/s transform), matrix-valued.

    The evaluators solve each row of their array of s, the nodes of one
    t, by one :func:`sweep_psi`; a single s is thus solved as
    :func:`solve_psi` solves it.  The rows are swept one by one, so that
    each node tracks its subspace from a node of its own t's contour.
    """
    def psi(S):
        return np.array([sweep_psi(model, row) for row in S])

    def Psi(S):
        return psi(S) / S[:, :, None, None]

    return (Transform(evaluator=psi, conjugate_symmetric=True,
                      name="fluid_psi"),
            Transform(evaluator=Psi, conjugate_symmetric=True,
                      singularities=(0.0,), name="fluid_Psi"))


def psi_infinity(model):
    """Psi(inf) = lim_{s->0+} psi_hat(s), approximated at s = 1e-8."""
    return solve_psi(model, 1e-8)


def make_experiment_model(d_plus, d_minus, seed):
    """Reproducible random fluid-queue model.

    Off-diagonal rates are |N(0,1)| draws (numpy default_rng, portable),
    diagonals are set for zero row sums, and the generator is rescaled in
    time so that the uniformization rate is 1, matching the reference
    experiment setup; fluid rates are uniform on (0, 1] for the first
    d_plus states and [-1, 0) for the rest.
    """
    rng = np.random.default_rng(seed)
    d = d_plus + d_minus
    Q = np.abs(rng.standard_normal((d, d)))
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    Q = Q / np.max(np.abs(np.diag(Q)))
    rates = np.concatenate([1.0 - rng.random(d_plus),
                            -(1.0 - rng.random(d_minus))])
    return FluidQueueModel(gen=GeneratorMatrix(Q, kind="generator"),
                           rates=rates)
