"""CTMC utilities, phase-type distributions, and fluid-queue transforms.

The fluid-queue first-return density transform psi_hat(s) is the minimal
solution of a nonsymmetric algebraic Riccati equation.  For Re(s) >= 0 it
comes from the stable invariant subspace of H(s) = diag(r)^{-1}(sI - Q),
the states ordered minus-first; for Re(s) < 0 that solution is continued
along an arc of constant |s| (see :func:`solve_psi`).  Every solve ends in
Newton refinement, which stops once the residual is within 1e-12 of the
scale of the equation's terms.  A node with Re(s) >= 0 takes one Newton
step in the eigenbasis of the subspace, one stacked np.linalg.solve for
all such nodes.  Any node that step does not settle is refined from the
subspace solution by :func:`_newton_refine`, as every point with
Re(s) < 0 is: at least one and at most NEWTON_STEPS steps, each a
Sylvester solve by LAPACK gees and trsyl (Bartels-Stewart).

Nodes are solved as a set (:func:`sweep_psi`; :func:`solve_psi` is the
set of one).  H(s) is formed for all of them at once, and the nodes with
Re(s) >= 0 are solved as one stack, from one stacked eigen-solve.  Taken
in order of |arg s| within each half-plane, a node with Re(s) < 0 starts
Newton from the solution at the node before it, and takes the arc only
when it has none or that Newton fails.  Phase-type transforms solve
(sI - Q) at all nodes of a t-grid in one stacked call.
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
#: the continuation's step count beyond which step halving gives up
MAX_ARC_STEPS = 4096
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


def _schur(a):
    # scipy.linalg.schur(a, output="real"): LAPACK gees, workspace queried
    from scipy.linalg import lapack
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    gees, = lapack.get_lapack_funcs(("gees",), (a,))
    lwork = gees(_no_sort, a, lwork=-1)[-2][0].real.astype(np.int_)
    result = gees(_no_sort, a, lwork=lwork, sort_t=0)
    info = result[-1]
    if info < 0:
        raise ValueError(
            f"illegal value in {-info}-th argument of internal gees")
    if info > 0:
        raise np.linalg.LinAlgError(
            "Schur form not found. Possibly ill-conditioned.")
    return result[0], result[-3]


def _no_sort(*_):
    return None


def _solve_sylvester(a, b, q):
    """X with a X + X b = q (Bartels-Stewart).

    The calls of scipy.linalg.solve_sylvester: LAPACK gees for the Schur
    forms of a and of b^H, then trsyl, with its workspace sizes and
    arguments and in its order, so X has the same bits.  Its failures are
    kept: non-finite a or b raises ValueError, a Schur form that gees does
    not find or an illegal trsyl argument raises LinAlgError.
    """
    from scipy.linalg import lapack
    r, u = _schur(a)
    s, v = _schur(b.conj().transpose())
    f = np.dot(np.dot(u.conj().transpose(), q), v)
    trsyl, = lapack.get_lapack_funcs(("trsyl",), (r, s, f))
    y, scale, info = trsyl(r, s, f, tranb="C")
    y = scale * y
    if info < 0:
        raise np.linalg.LinAlgError(
            f"Illegal value encountered in the {-info} term")
    return np.dot(np.dot(u, y), v.conj().transpose())


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
    in one call per node.  Returns the values, shaped as the last stack
    (NaN for a node that raised), and each node's LinAlgError or None."""
    try:
        return f(*stacks), [None] * len(stacks[0])
    except np.linalg.LinAlgError:
        pass
    out = np.full(stacks[-1].shape, np.nan, dtype=complex)
    errors = []
    for i, args in enumerate(zip(*stacks)):
        try:
            out[i] = f(*(a[None] for a in args))[0]
            errors.append(None)
        except np.linalg.LinAlgError as exc:
            errors.append(exc)
    return out, errors


def _sorted_solve(Hs, ss, dm):
    """The sorted solve of each node s of ss, Re(s) >= 0, from H(s) along
    the stack Hs, all nodes as one stack.  Returns, per node, its solution
    or the error it raises; each is what solving the node alone gives.

    A node's eigenvalues are sorted by real part, the spectral-gap check
    asks for a gap after the first dm, and X0 = V_bot T^{-1} comes from
    the eigenvectors V = [T; V_bot] of those dm eigenvalues mu.  One
    Newton step follows, in the eigenbasis: B = A_mm + A_mp X0 is
    T diag(mu) T^{-1}, so the step A D + D B = -R, A = A_pp + X0 A_mp, is
    (A + mu_j I) Y_j = -(R T)_j with D = Y T^{-1}, one stacked solve for
    all nodes (:func:`_solve_sylvester_eig`).  A node whose X1 = X0 + D
    meets the 1e-12 gate of :func:`_newton_refine` returns X1; any other
    node (a non-finite residual, a failed shifted solve, an unmet gate) is
    refined from X0 by :func:`_newton_refine`, as it would be alone.

    This is the minimal solution for Re(s) >= 0; for Re(s) < 0 the sorted
    selection can silently pick a different branch than the analytic
    continuation, so :func:`sweep_psi` does not use it there.
    """
    out = [None] * len(ss)
    vals, vecs = np.linalg.eig(Hs)
    order = np.argsort(vals.real, axis=-1, kind="stable")
    re = np.take_along_axis(vals.real, order, axis=-1)
    gap = re[:, dm] - re[:, dm - 1]
    live = gap > GAP_RTOL * np.maximum(re[:, -1] - re[:, 0], 1.0)
    for i in np.flatnonzero(~live):
        out[i] = SpectralGapError(f"ambiguous eigenvalue splitting at "
                                  f"s={ss[i]}: gap {gap[i]:.3e}")
    nodes = np.flatnonzero(live)
    sel = order[nodes, :dm]
    mu = np.take_along_axis(vals[nodes], sel, axis=-1)
    V = np.take_along_axis(vecs[nodes], sel[:, None, :], axis=-1)
    Tinv, errors = _each_node(np.linalg.inv, V[:, :dm])
    for i, exc in zip(nodes, errors):
        if exc is not None:
            out[i] = RiccatiError(f"singular subspace basis at s={ss[i]}: "
                                  f"{exc}")
    ok = np.array([exc is None for exc in errors], dtype=bool)
    nodes, T, Tinv, mu = nodes[ok], V[ok, :dm], Tinv[ok], mu[ok]
    X0 = V[ok, dm:] @ Tinv
    blocks = _riccati_blocks(Hs[nodes], dm)
    App, Apm, Amp, Amm = blocks
    norms = tuple(_norm_inf(B) for B in (Apm, App, Amm, Amp))
    R = _residual(blocks, norms, X0)[0]
    Y, _ = _each_node(_solve_sylvester_eig, App + X0 @ Amp, mu, -(R @ T))
    X1 = X0 + Y @ Tinv
    _, res, scale = _residual(blocks, norms, X1)
    for j, i in enumerate(nodes):
        if res[j] <= 1e-12 * scale[j]:
            out[i] = X1[j]
            continue
        try:
            out[i] = _newton_refine(tuple(B[j] for B in blocks), X0[j], ss[i])
        except RiccatiError as exc:
            out[i] = exc
    return out


def _continue_arc(model, s, H):
    """psi_hat at one s with Re(s) < 0, continued along |z| = |s| from
    the sorted solve at +-i|s| (:func:`solve_psi`)."""
    dm = model.d_minus
    radius = abs(s)
    theta = math.atan2(s.imag, s.real)
    start = math.copysign(math.pi / 2, theta)
    X = solve_psi(model, complex(0.0, math.copysign(radius, theta)))
    steps = max(1, math.ceil(64 * (abs(theta) - math.pi / 2) / abs(theta)))
    k = 0
    while k < steps:
        k += 1
        angle = start + (theta - start) * k / steps
        sk = s if k == steps else radius * cmath.exp(1j * angle)
        try:
            X = _newton_refine(_riccati_blocks(H([sk])[0], dm), X, sk)
        except RiccatiError as exc:
            if steps >= MAX_ARC_STEPS:
                raise RiccatiError(
                    f"continuation to s={s} failed at z={sk} with {steps} "
                    f"arc steps: {exc}") from exc
            # halve the step size and restart the failed step
            k = 2 * (k - 1)
            steps *= 2
    return X


def solve_psi(model, s):
    """psi_hat(s): the d+ x d- minimal-solution matrix of the NARE.

    Solves A_pm + A_pp X + X A_mm + X A_mp X = 0 where A(s) is
    C^{-1}(Q - sI) partitioned by rate sign, C = diag(|r_i|).  For
    Re(s) >= 0 the solution comes from the invariant subspace of
    H(s) = diag(r)^{-1}(sI - Q) = [[A_mm, A_mp], [-A_pm, -A_pp]] (states
    ordered minus-first) for the d- eigenvalues of smallest real part.
    One Newton step follows, its Sylvester equation solved in the
    eigenbasis of that subspace, column by column (:func:`_sorted_solve`).
    If that does not bring the residual within 1e-12 of the scale of the
    equation's terms, the subspace solution is refined by Bartels-Stewart
    Newton steps instead: at least one and at most NEWTON_STEPS, stopping
    once the residual meets that gate, else RiccatiError.

    For Re(s) < 0 that splitting no longer tracks the analytic continuation
    of psi_hat.  The sorted solve is then taken at z0 = +-i|s|, where the
    arc |z| = |s| crosses the imaginary axis on the side of s (the sign of
    Im s, -0.0 included), and continued along that arc to s, with the same
    Newton refinement at each point.  This is the branch that continuing
    from |s| on the real axis gives: the arc from |s| to z0 stays in
    Re z >= 0, where psi_hat is analytic and the sorted solve is the minimal
    solution.  The angular step is at most |arg s|/64; a step where Newton
    fails is halved, up to MAX_ARC_STEPS steps, and the last step ends at s
    itself.  Newton steps on the arc solve their Sylvester equations with
    LAPACK gees and trsyl, as scipy.linalg.solve_sylvester does.

    This is :func:`sweep_psi` of the one node s.
    """
    return sweep_psi(model, [s])[0]


def sweep_psi(model, ss):
    """psi_hat at each s of one node set.

    H(s) is formed for all nodes at once, and the nodes with Re s >= 0
    are solved as one stack (:func:`_sorted_solve`): one eigen-solve, the
    subspace split with its spectral-gap check, and one Newton step, one
    stacked solve in the eigenbasis.  A node that step does not settle is
    refined from the subspace solution by :func:`_newton_refine`.  Each
    node gets the same value as when it is solved alone.

    The nodes are split by the sign of Im s (-0.0 counts as negative, as
    in :func:`solve_psi`) and, within each half-plane, taken in order of
    |arg s|.  A node with Re s < 0 starts the Newton refinement from its
    predecessor's solution in that order, with the same 1e-12 residual
    gate, and gets :func:`solve_psi`'s arc if it has no predecessor or
    that Newton raises RiccatiError.  Returns the list of solutions in the
    order of ss.  A node that fails raises its error; of several, the
    first in that walk (upper half-plane first) is raised.
    """
    ss = [complex(s) for s in ss]
    H = _hamiltonian(model)
    Hs = H(ss)
    dm = model.d_minus
    halves = ([], [])
    for k, s in enumerate(ss):
        halves[math.copysign(1.0, s.imag) < 0].append(k)
    # math.atan2 is cmath.phase without its underflow error
    halves = [sorted(half, key=lambda k: abs(math.atan2(ss[k].imag,
                                                       ss[k].real)))
              for half in halves]
    right = [k for half in halves for k in half if ss[k].real >= 0]
    solved = dict(zip(right, _sorted_solve(Hs[right], [ss[k] for k in right],
                                           dm)))
    out = [None] * len(ss)
    for half in halves:
        X = None
        for k in half:
            s = ss[k]
            if s.real >= 0:
                X = solved[k]
                if isinstance(X, Exception):
                    raise X
            elif X is None:
                X = _continue_arc(model, s, H)
            else:
                try:
                    X = _newton_refine(_riccati_blocks(Hs[k], dm), X, s)
                except RiccatiError:
                    X = _continue_arc(model, s, H)
            out[k] = X
    return out


def fluid_psi_transform(model):
    """(psi_hat transform, Psi_hat = psi_hat/s transform), matrix-valued.

    The evaluators solve each row of their array of s, the nodes of one
    t, by one :func:`sweep_psi`; a single s is thus solved as
    :func:`solve_psi` solves it.  The rows are swept one by one, so that
    each warm start stays on its t's contour.
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
