"""CTMC utilities, phase-type distributions, and fluid-queue transforms.

The fluid-queue first-return density transform psi_hat(s) is the minimal
solution of a nonsymmetric algebraic Riccati equation.  For Re(s) >= 0 it
comes from the stable invariant subspace of H(s) = diag(r)^{-1}(sI - Q),
the states ordered minus-first; for Re(s) < 0 that solution is continued
along an arc of constant |s| (see :func:`solve_psi`).  Every solve ends in
the same Newton refinement: at least one and at most NEWTON_STEPS steps,
each a Sylvester solve by LAPACK gees and trsyl, stopping once the
residual is within 1e-12 of the scale of the equation's terms.

Nodes are solved as a set (:func:`sweep_psi`; :func:`solve_psi` is the
set of one).  H(s) is formed for all of them at once, and the nodes with
Re(s) >= 0 share one stacked eigen-solve.  Taken in order of |arg s|
within each half-plane, a node with Re(s) < 0 starts Newton from the
solution at the node before it, and takes the arc only when it has none
or that Newton fails.  Phase-type transforms likewise solve (sI - Q) at
all nodes of a t in one stacked call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import resolvent_evaluators
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
    pdf is alpha^T (sI - Q)^{-1} q, the cdf that over s."""
    eigs = tuple(np.linalg.eigvals(p.Q))
    pdf, pdf_nodes = resolvent_evaluators(p.alpha, p.Q, p.exit_rates)

    def cdf(s):
        return pdf(s) / s

    def cdf_nodes(ss):
        return pdf_nodes(ss) / ss

    return (Transform(evaluator=pdf, conjugate_symmetric=True,
                      singularities=eigs, name="phase_type_pdf",
                      array_evaluator=pdf_nodes),
            Transform(evaluator=cdf, conjugate_symmetric=True,
                      singularities=eigs + (0.0,), name="phase_type_cdf",
                      array_evaluator=cdf_nodes))


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
    """(A_pp, A_pm, A_mp, A_mm) of the NARE at one s: slices of H(s)
    (:func:`_hamiltonian`), whose first dm states are the minus states."""
    return -H[dm:, dm:], -H[dm:, :dm], H[:dm, dm:], H[:dm, :dm]


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
    # np.linalg.norm(B, np.inf), without its dispatch
    return np.abs(B).sum(axis=1).max()


def _newton_refine(blocks, X, s):
    App, Apm, Amp, Amm = blocks
    n_pm, n_pp, n_mm, n_mp = (_norm_inf(B) for B in (Apm, App, Amm, Amp))
    for k in range(NEWTON_STEPS + 1):
        R = Apm + App @ X + X @ Amm + X @ Amp @ X
        res = _norm_inf(R)
        # Backward-error denominator: the residual can only be expected to
        # reach roundoff relative to the magnitude of the NARE terms, which
        # is much larger than ||A|| when ||X|| is large (continuation at
        # Re s < 0 can make X big).
        nx = _norm_inf(X)
        scale = n_pm + n_pp * nx + nx * n_mm + nx * n_mp * nx
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


def _subspace_solve(H, vals, vecs, s, dm):
    """The sorted solve at one s with Re(s) >= 0, from the eigenvalues and
    eigenvectors of H(s): the invariant subspace of the dm eigenvalues of
    smallest real part, then the Newton refinement every solve ends in.

    This is the minimal solution for Re(s) >= 0; for Re(s) < 0 the sorted
    selection can silently pick a different branch than the analytic
    continuation, so :func:`sweep_psi` does not use it there.
    """
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
    return _newton_refine(_riccati_blocks(H, dm), X, s)


def _solve_psi_sorted(model, s):
    """The sorted solve at one s with Re(s) >= 0 (:func:`sweep_psi`)."""
    return sweep_psi(model, [s])[0]


def _continue_arc(model, s, H):
    """psi_hat at one s with Re(s) < 0, continued along |z| = |s| from
    the sorted solve at +-i|s| (:func:`solve_psi`)."""
    dm = model.d_minus
    radius = abs(s)
    theta = math.atan2(s.imag, s.real)
    start = math.copysign(math.pi / 2, theta)
    X = _solve_psi_sorted(model, complex(0.0, math.copysign(radius, theta)))
    steps = max(1, math.ceil(16 * (abs(theta) - math.pi / 2) / abs(theta)))
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
    ordered minus-first) for the d- eigenvalues of smallest real part,
    refined by Newton steps: at least one and at most NEWTON_STEPS,
    stopping once the residual is within 1e-12 of the scale of the
    equation's terms, else RiccatiError.  Each step solves a Sylvester
    equation with LAPACK gees and trsyl, as scipy.linalg.solve_sylvester
    does.

    For Re(s) < 0 that splitting no longer tracks the analytic continuation
    of psi_hat.  The sorted solve is then taken at z0 = +-i|s|, where the
    arc |z| = |s| crosses the imaginary axis on the side of s (the sign of
    Im s, -0.0 included), and continued along that arc to s, with the same
    Newton refinement at each point.  This is the branch that continuing
    from |s| on the real axis gives: the arc from |s| to z0 stays in
    Re z >= 0, where psi_hat is analytic and the sorted solve is the minimal
    solution.  The angular step is at most |arg s|/16; a step where Newton
    fails is halved, up to MAX_ARC_STEPS steps, and the last step ends at s
    itself.

    This is :func:`sweep_psi` of the one node s.
    """
    return sweep_psi(model, [s])[0]


def sweep_psi(model, ss):
    """psi_hat at each s of one node set.

    H(s) is formed for all nodes at once, and the nodes with Re s >= 0
    get one stacked eigen-solve; each of them then gets the subspace
    split, its spectral-gap check and the Newton refinement of
    :func:`solve_psi`, with the same values as solving it alone.

    The nodes are split by the sign of Im s (-0.0 counts as negative, as
    in :func:`solve_psi`) and, within each half-plane, taken in order of
    |arg s|.  A node with Re s < 0 starts the Newton refinement from its
    predecessor's solution in that order, with the same 1e-12 residual
    gate, and gets :func:`solve_psi`'s arc if it has no predecessor or
    that Newton raises RiccatiError.  Returns the list of solutions in the
    order of ss.
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
    vals, vecs = np.linalg.eig(Hs[right])
    eigs = dict(zip(right, zip(vals, vecs)))
    out = [None] * len(ss)
    for half in halves:
        X = None
        for k in half:
            s = ss[k]
            if s.real >= 0:
                X = _subspace_solve(Hs[k], *eigs[k], s, dm)
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

    A single s is solved by :func:`solve_psi`; the nodes of one t are
    solved together by :func:`sweep_psi`.
    """
    def psi(s):
        return solve_psi(model, s)

    def Psi(s):
        return solve_psi(model, s) / s

    def psi_nodes(ss):
        return sweep_psi(model, ss)

    def Psi_nodes(ss):
        return [X / s for X, s in zip(sweep_psi(model, ss), ss)]

    return (Transform(evaluator=psi, conjugate_symmetric=True,
                      name="fluid_psi", array_evaluator=psi_nodes),
            Transform(evaluator=Psi, conjugate_symmetric=True,
                      singularities=(0.0,), name="fluid_Psi",
                      array_evaluator=Psi_nodes))


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
