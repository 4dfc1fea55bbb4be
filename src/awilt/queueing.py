"""CTMC utilities, phase-type distributions, and fluid-queue transforms.

The fluid-queue first-return density transform psi_hat(s) is the minimal
solution of a nonsymmetric algebraic Riccati equation.  For Re(s) >= 0 it
comes from the stable invariant subspace of a 2x2-block matrix; for
Re(s) < 0 that solution is continued along an arc of constant |s| (see
:func:`solve_psi`).  Every solve ends in the same Newton refinement: at
least one and at most NEWTON_STEPS steps, stopping once the residual is
within 1e-12 of the scale of the equation's terms.

An inversion solves the nodes of one t together (:func:`sweep_psi`):
taken in order of |arg s| within each half-plane, a node with Re(s) < 0
starts Newton from the solution at the node before it, and takes the arc
only when it has none or that Newton fails.  Phase-type transforms
likewise solve (sI - Q) at all nodes of a t in one stacked call.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def _riccati_blocks(model, s):
    Q = model.gen.Q
    C_inv = 1.0 / np.abs(model.rates)
    A = C_inv[:, None] * (Q - s * np.eye(model.gen.dim))
    ip, im = model.plus_idx, model.minus_idx
    return (A[np.ix_(ip, ip)], A[np.ix_(ip, im)],
            A[np.ix_(im, ip)], A[np.ix_(im, im)])


def _newton_refine(blocks, X, s):
    App, Apm, Amp, Amm = blocks
    n_pm, n_pp, n_mm, n_mp = (np.linalg.norm(B, np.inf)
                              for B in (Apm, App, Amm, Amp))
    for k in range(NEWTON_STEPS + 1):
        R = Apm + App @ X + X @ Amm + X @ Amp @ X
        res = np.linalg.norm(R, np.inf)
        # Backward-error denominator: the residual can only be expected to
        # reach roundoff relative to the magnitude of the NARE terms, which
        # is much larger than ||A|| when ||X|| is large (continuation at
        # Re s < 0 can make X big).
        nx = np.linalg.norm(X, np.inf)
        scale = n_pm + n_pp * nx + nx * n_mm + nx * n_mp * nx
        if k >= 1 and res <= 1e-12 * scale:
            return X
        if k == NEWTON_STEPS or not np.isfinite(res):
            raise RiccatiError(
                f"Riccati residual {res:.3e} exceeds 1e-12 of the term scale "
                f"at s={s}")
        try:
            delta = scipy.linalg.solve_sylvester(App + X @ Amp,
                                                 Amm + Amp @ X, -R)
        except Exception as exc:
            raise RiccatiError(f"Newton step failed at s={s}: {exc}") from None
        X = X + delta


def _solve_psi_sorted(model, s):
    """Subspace solve selecting the d- eigenvalues of smallest real part,
    then the Newton refinement every solve ends in (:func:`solve_psi`).

    This is the minimal solution for Re(s) >= 0; for Re(s) < 0 the sorted
    selection can silently pick a different branch than the analytic
    continuation, so callers use :func:`solve_psi` instead.
    """
    App, Apm, Amp, Amm = _riccati_blocks(model, s)
    dm = model.d_minus
    H = np.block([[Amm, Amp], [-Apm, -App]])
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
    return _newton_refine((App, Apm, Amp, Amm), X, s)


def solve_psi(model, s):
    """psi_hat(s): the d+ x d- minimal-solution matrix of the NARE.

    Solves A_pm + A_pp X + X A_mm + X A_mp X = 0 where A(s) is
    C^{-1}(Q - sI) partitioned by rate sign, C = diag(|r_i|).  For
    Re(s) >= 0 the solution comes from the invariant subspace of
    H = [[A_mm, A_mp], [-A_pm, -A_pp]] for the d- eigenvalues of smallest
    real part, refined by Newton steps (Sylvester solves): at least one and
    at most NEWTON_STEPS, stopping once the residual is within 1e-12 of the
    scale of the equation's terms, else RiccatiError.

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

    This solves one s on its own.  The fluid transforms solve the nodes of
    one t with :func:`sweep_psi`, which gives the same values for
    Re(s) >= 0 and starts the Newton refinement of a Re(s) < 0 node from
    its neighbour's solution instead of continuing along the arc.
    """
    s = complex(s)
    if s.real >= 0:
        return _solve_psi_sorted(model, s)
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
            X = _newton_refine(_riccati_blocks(model, sk), X, sk)
        except RiccatiError as exc:
            if steps >= MAX_ARC_STEPS:
                raise RiccatiError(
                    f"continuation to s={s} failed at z={sk} with {steps} "
                    f"arc steps: {exc}") from exc
            # halve the step size and restart the failed step
            k = 2 * (k - 1)
            steps *= 2
    return X


def sweep_psi(model, ss):
    """psi_hat at each s of one node set, as :func:`solve_psi` gives it.

    The nodes are split by the sign of Im s (-0.0 counts as negative, as
    in :func:`solve_psi`) and, within each half-plane, taken in order of
    |arg s|.  A node with Re s >= 0, or with no predecessor in that order,
    gets :func:`solve_psi`.  Any other node (Re s < 0) starts the Newton
    refinement from its predecessor's solution, with the same 1e-12
    residual gate, and gets :func:`solve_psi`'s arc only if that Newton
    raises RiccatiError.  Returns the list of solutions in the order of ss.
    """
    ss = [complex(s) for s in ss]
    out = [None] * len(ss)
    halves = ([], [])
    for k, s in enumerate(ss):
        halves[math.copysign(1.0, s.imag) < 0].append(k)
    for half in halves:
        X = None
        for k in sorted(half, key=lambda k: abs(cmath.phase(ss[k]))):
            s = ss[k]
            if s.real >= 0 or X is None:
                X = solve_psi(model, s)
            else:
                try:
                    X = _newton_refine(_riccati_blocks(model, s), X, s)
                except RiccatiError:
                    X = solve_psi(model, s)
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
