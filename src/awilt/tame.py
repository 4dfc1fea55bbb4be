"""Construction of TAME methods via a modified AAA rational approximation.

The approximant is kept strictly proper (it vanishes at infinity) by
augmenting the barycentric denominator with a constant term u0:

    r(z) = (sum_k u_k f_k / (z - z_k)) / (u0 + sum_k u_k / (z - z_k))

The fit is conjugate-symmetric by contract, as e^z is real: `aaa_fit` and
`build_tame` refuse a grid not closed under conjugation or target values
with f(conj z) != conj f(z), so support, weights, poles and residues pair
up.

The greedy loop and the pole eigenproblem run in binary64 (the loop's
working precision acts as a safeguard against weight growth).  The
binary64 poles are then polished all at once by Newton's method on the
barycentric denominator, and the residues of all poles are computed at
once, both in the double-double arithmetic of `numerics.DoubleDouble`
(about 106 bits): weights of about 1e4 cancel to O(1) in these sums.
"""

import os
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np

from .diagnostics import method_metadata
from .domains import (Disc, discretize, distance_to, domain_scale,
                      format_domain)
from .errors import NumericalError, PoleInsideDomainError
from .methods import (AWMethod, _is_real, load_method, pair_conjugates,
                      save_method, to_reduced)
from .numerics import (DoubleDouble, U, dense_eigenvalues, newton_polish,
                       smallest_singular_vector)


@dataclass(frozen=True)
class BarycentricApproximant:
    support: np.ndarray   # z_1 .. z_K
    values: np.ndarray    # f_1 .. f_K
    weights: np.ndarray   # u_0, u_1 .. u_K


@dataclass(frozen=True)
class AAAReport:
    residuals: tuple          # max residual on Z after each iteration
    epsilon: float
    termination: str          # tolerance | max_order | no_room_for_pair
    refits: tuple = ()        # orders of the fits build_tame abandoned
    pruned: int = 0           # poles build_tame's prune dropped
    # the weights u after each iteration; build_tame reads its refits off
    iterates: tuple = field(default=(), repr=False, compare=False)


def barycentric_eval(b, z):
    """Evaluate r(z); interpolates exactly at support points."""
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    pts = np.atleast_1d(zs)
    if len(b.support) == 0:
        out = np.zeros(len(pts), dtype=complex)
        return complex(out[0]) if scalar else out
    diffs = pts[:, None] - b.support[None, :]
    exact = diffs == 0
    hit = exact.any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        num, den = _barycentric_sums(1.0 / diffs, b.weights, b.values)
    out = np.empty(len(pts), dtype=complex)
    free = ~hit
    if np.any(den[free] == 0):
        raise NumericalError("barycentric denominator vanishes (pole hit)")
    out[free] = num[free] / den[free]
    for i in np.flatnonzero(hit):
        out[i] = b.values[int(np.argmax(exact[i]))]
    return complex(out[0]) if scalar else out


def _barycentric_sums(C, weights, values):
    """Numerator and denominator of r at the rows of the Cauchy matrix
    C[i, k] = 1/(z_i - z_k)."""
    return C @ (weights[1:] * values), weights[0] + C @ weights[1:]


class _NotConjugateSymmetric(ValueError):
    """`aaa_fit`'s input breaks its conjugate-symmetry precondition."""


def _conjugate_partners(pts, F):
    """For each point the index of the first point equal to its conjugate,
    or None unless the points are closed under conjugation and
    F(conj z) = conj F(z) on them to 1e-12 max(1, max |F|)."""
    keys, first = np.unique(pts, return_index=True)
    conj = pts.conj()
    at = np.minimum(np.searchsorted(keys, conj), len(keys) - 1)
    if np.any(keys[at] != conj):
        return None
    partner = first[at]
    fscale = max(1.0, float(np.max(np.abs(F))))
    if np.any(np.abs(F[partner] - F.conj()) > 1e-12 * fscale):
        return None
    return partner


def aaa_fit(F, Z, max_order, tol=0.0):
    """Greedy AAA fit of the values ``F`` on the points Z.

    Z is an array of points, as `discretize` returns, and ``F`` holds the
    target's value at each of them, in their order (for a TAME build,
    ``np.exp(Z)``).  Preconditions (a ValueError otherwise, checked in
    this order): ``max_order >= 2``; one value per point; Z has at least
    ``2 * max_order + 1`` points, since at K support points the
    least-squares matrix is (|Z| - K) x (K + 1); F is finite; Z is closed
    under conjugation and F(conj z) = conj F(z) on Z.  Support points are
    added at the residual argmax (lowest index on ties); a non-real point
    is added together with its conjugate, and the weights are
    symmetrised, so the fit is conjugate-symmetric.  The loop stops with
    termination reason ``no_room_for_pair`` if a pair is next and only
    one slot is left.  The Cauchy and Loewner matrices are kept over all
    of Z for the whole fit: a support point's columns are computed once,
    when it is added, and each iteration takes the rows of the points not
    yet in support.  They are float64 when Z and F have no imaginary
    part (a real segment's grid and e^z on it), so each least-squares
    step is real, and complex128 otherwise; the fit is complex128 either
    way.  A new column that is not finite on those rows (Z holds a
    support point twice, say) raises ValueError in the iteration that
    adds it.  Returns ``(BarycentricApproximant, AAAReport)``; the
    report keeps the weights of every iteration (``iterates``), so a fit
    at a smaller budget or a larger tolerance can be read off it.
    """
    if max_order < 2:
        raise ValueError("max_order must be >= 2")
    pts = np.asarray(Z, dtype=complex)
    F = np.asarray(F, dtype=complex)
    if F.shape != pts.shape:
        raise ValueError("F needs one value per point of Z")
    if len(pts) < 2 * max_order + 1:
        raise ValueError("need |Z| >= 2 * max_order + 1")
    if not np.all(np.isfinite(F)):
        raise ValueError("F is non-finite on Z")
    partner = _conjugate_partners(pts, F)
    if partner is None:
        raise _NotConjugateSymmetric("Z is not closed under conjugation, or "
                                     "F is not conjugate-symmetric on Z")
    # real data (a real segment's grid) keep the matrices real
    fit_pts, fit_F = pts, F
    if not (pts.imag.any() or F.imag.any()):
        pts, F = pts.real, F.real

    # Column 0 holds the u0 term (a constant 1 in the Cauchy matrix, and a
    # support column's expression at f = 0 in the Loewner matrix), and
    # column 1 + k the k-th support point, filled once when it is added.
    cauchy = np.ones((len(pts), max_order + 1), dtype=pts.dtype)
    loewner = np.empty_like(cauchy)
    loewner[:, 0] = F * cauchy[:, 0] - cauchy[:, 0] * 0
    support = []          # indices into pts
    pairs = []            # positions in u of a conjugate pair's first point
    active = np.ones(len(pts), dtype=bool)
    residual = np.abs(F).astype(float)
    history = []
    iterates = []         # u after each iteration

    while True:
        resmax = float(residual[active].max())
        j = int(np.argmax(np.where(active, residual, -np.inf)))
        new = [j] if _is_real(complex(pts[j])) else [j, int(partner[j])]
        if _termination(resmax, len(support), len(new), max_order, tol):
            break
        if len(new) == 2:
            pairs.append(1 + len(support))
        for k in new:
            support.append(k)
            active[k] = False
            col = len(support)
            # rows of support points (here 1/0) are never read
            with np.errstate(divide="ignore", invalid="ignore"):
                cauchy[:, col] = 1.0 / (pts - pts[k])
                loewner[:, col] = F * cauchy[:, col] - cauchy[:, col] * F[k]

        K = len(support)
        fs = F[support]
        rows = np.flatnonzero(active)
        # the earlier columns were finite on a superset of these rows
        if not np.all(np.isfinite(loewner[rows, K + 1 - len(new):K + 1])):
            raise ValueError("non-finite entries")
        u = smallest_singular_vector(loewner[rows, :K + 1])
        first = np.array(pairs, dtype=int)
        mean = 0.5 * (u[first] + u[first + 1].conjugate())
        real = np.ones(K + 1, dtype=bool)
        real[first] = real[first + 1] = False
        u[real] = u[real].real
        u[first], u[first + 1] = mean, mean.conjugate()
        nrm = np.linalg.norm(u)
        if nrm > 0:
            u = u / nrm

        with np.errstate(divide="ignore", invalid="ignore"):
            num, den = _barycentric_sums(cauchy[rows, 1:K + 1], u, fs)
            r = num / den
        residual = np.zeros(len(pts))
        err = np.abs(F[rows] - r)
        err[~np.isfinite(err)] = np.inf
        residual[rows] = err
        history.append(float(residual[rows].max()))
        iterates.append(u.astype(complex, copy=False))

    return _read_fit(fit_pts[support], fit_F[support], iterates, history,
                     float(np.max(np.abs(F))), max_order, tol)


def _termination(resmax, order, width, max_order, tol):
    """Why the AAA loop stops at ``order`` support points, with residual
    max ``resmax`` and ``width`` points (1, or 2 for a conjugate pair) to
    add next; None if it goes on."""
    if resmax <= tol:
        return "tolerance"
    if order >= max_order:
        return "max_order"
    if order + width > max_order:
        return "no_room_for_pair"
    return None


def _read_fit(support, values, iterates, residuals, fmax, max_order, tol):
    """``aaa_fit(F, Z, max_order, tol)``, read off a run of its loop on the
    same F and Z at a budget of at least ``max_order`` and a tolerance of
    at most ``tol``: the support points and their values in the order
    added, u and the residual max after each iteration, and fmax = max |F|,
    the residual max before the first.

    AAA is greedy, so the two loops take the same steps, bit for bit,
    until the one with the smaller budget or the larger tolerance stops:
    its fit is the run cut after the first iteration at which
    `_termination` stops.  The run stopped there or later.  At its last
    iteration the next addition is not recorded, and a pair is taken to
    be next: at the run's budget that stops the read as the run stopped,
    and a smaller budget stops it by ``max_order`` first.
    """
    orders = [0] + [len(u) - 1 for u in iterates]
    for i, order in enumerate(orders):
        resmax = residuals[i - 1] if i else fmax
        width = orders[i + 1] - order if i < len(iterates) else 2
        termination = _termination(resmax, order, width, max_order, tol)
        if termination:
            break
    b = BarycentricApproximant(
        support=support[:order], values=values[:order],
        weights=iterates[i - 1] if i else np.array([1.0 + 0j]))
    report = AAAReport(residuals=tuple(residuals[:i]),
                       epsilon=residuals[i - 1] if i else fmax,
                       termination=termination,
                       iterates=tuple(iterates[:i]))
    return b, report


def extract_poles(b):
    """Poles of r: the K finite eigenvalues of the arrowhead pencil.

    The pencil is solved in binary64 and its two structurally infinite
    eigenvalues are discarded.  Each eigenvalue is then polished by
    Newton's method on the denominator d(z) = u0 + sum_k u_k/(z - z_k) in
    double-double and rounded back to binary64.  The approximant must be
    conjugate-symmetric, as `aaa_fit` makes it: the poles come from
    `pair_conjugates`, real ones first, then exact pairs.  Raises
    NumericalError if a pole does not converge within
    `numerics.POLISH_STEPS` steps or two poles coincide.
    """
    K = len(b.support)
    u = b.weights
    if K == 0:
        return np.empty(0, dtype=complex)
    if abs(u[0]) <= 1e2 * U * np.linalg.norm(u):
        raise ValueError("u0 vanishes: approximant is not strictly proper")
    finite = _pencil_eigenvalues(b)
    if len(finite) != K:
        raise NumericalError(
            f"expected {K} finite eigenvalues, got {len(finite)}")
    poles = _polish_poles(b, finite)
    merged = _first_close_pair(poles)
    if merged is not None:
        raise NumericalError(f"poles merge near {poles[merged]}")
    poles, _ = pair_conjugates(poles, poles)
    return np.asarray(poles, dtype=complex)


def _pencil_eigenvalues(b):
    """Finite eigenvalues of the arrowhead pencil of r, in binary64."""
    K = len(b.support)
    A = np.zeros((K + 2, K + 2), dtype=complex)
    A[0, 1:] = b.weights
    A[1, 0] = 1.0
    A[1, 1] = -1.0
    for k in range(K):
        A[2 + k, 0] = 1.0
        A[2 + k, 2 + k] = b.support[k]
    B = np.diag([0.0, 0.0] + [1.0] * K).astype(complex)
    return dense_eigenvalues(A, B)


def _coincide(x, y):
    """Whether x[i] and y[j] coincide, |x[i] - y[j]| <= 1e-12 (1 + |x[i]|),
    for each i (rows) and j (columns)."""
    return np.abs(x[:, None] - y) <= 1e-12 * (1.0 + np.abs(x))[:, None]


def _first_close_pair(points):
    """Lowest i such that points[i] and some points[j], j > i, coincide
    (:func:`_coincide`), or None."""
    hit = np.triu(_coincide(points, points), k=1).any(axis=1)
    return int(np.argmax(hit)) if hit.any() else None


def _polish_poles(b, guesses):
    """Newton on the barycentric denominator from all guesses at once.

    Only q_k = 1/(z - z_k) and d(z) are evaluated in double-double; the
    derivative -sum_k u_k q_k^2 stays binary64 (`newton_polish`).  Each
    guess stops on its own and may take up to `numerics.POLISH_STEPS`
    steps.  Raises NumericalError for the first guess, in input order,
    that does not converge or whose iterate lands on a support point or a
    zero of d'.
    """
    u0, u, zs = b.weights[0], b.weights[1:], b.support

    def denominator(z):
        q = 1.0 / (z[:, None] - zs)
        return (q * u).sum(axis=1) + u0, -(u * q.hi ** 2).sum(axis=1)

    poles, status = newton_polish(denominator, guesses)
    if np.any(status):
        i = int(np.argmax(status > 0))
        what = ("hit a singularity" if status[i] == 1
                else "did not converge")
        raise NumericalError(f"pole polish {what} from {guesses[i]}")
    return poles


def extract_residues(b, poles):
    """Abate-Whitt weights w with r(z) = sum w / (pole - z), via d'.

    w = -n(p)/d'(p) for all poles p at once, with n the barycentric
    numerator.  The sums cancel heavily (weights of magnitude ~1e4 summing
    to O(1) values), so they are evaluated in double-double and only w is
    rounded to binary64.  For a conjugate-symmetric approximant, conjugate
    poles get conjugate weights up to rounding; `pair_conjugates` makes
    them exact."""
    poles = np.asarray(poles, dtype=complex)
    near = _coincide(poles, b.support).any(axis=1)
    merged = _first_close_pair(poles)
    if near.any() and (merged is None or np.argmax(near) <= merged):
        raise NumericalError("pole coincides with a support point")
    if merged is not None:
        raise ValueError("poles must be distinct")
    u = b.weights[1:]
    q = 1.0 / (DoubleDouble(poles[:, None]) - b.support)
    n = (q * (DoubleDouble(u) * b.values)).sum(axis=1)
    dprime = -(q * q * u).sum(axis=1)
    return (-(n / dprime)).to_complex()


def build_tame(domain, n_reduced_target, count=1000):
    """Fit e^z on the domain boundary and package poles/residues as a method.

    The domain must be symmetric about the real axis (a ValueError
    otherwise), so that its grid meets `aaa_fit`'s precondition.
    ``n_reduced_target`` is the targeted number of reduced-form entries;
    the AAA loop gets a budget of twice that many support points.  Every
    pole must end up strictly outside the closed domain.  Returns
    ``(method, metadata, report)`` with the method in reduced form and
    the metadata's epsilon re-measured on a 4x finer boundary grid.

    The AAA loop runs once, to the full budget.  When a pole solve fails,
    the build refits with AAA's tolerance at the roundoff floor
    1e2 u max|e^z| on the grid and a budget 2 below the failed fit's
    order: its support count if it stopped at the floor, else its budget.
    AAA is greedy, so each refit is a prefix of the first fit, and it is
    read off that fit's iterations (`_read_fit`) with no least-squares step
    of its own.  The failure is re-raised once that order is at most 2.
    The report is that of the final fit: ``termination`` is ``tolerance``
    when it stopped at the floor, ``refits`` lists the orders of the
    failed fits (whose reports are not kept), and ``pruned`` counts the
    poles dropped for tiny weights.
    """
    if n_reduced_target < 1:
        raise ValueError("n_reduced_target must be >= 1")
    Z = discretize(domain, count)
    with np.errstate(over="ignore"):
        F = np.exp(Z)
    fmax = float(np.max(np.abs(F)))
    max_order = 2 * n_reduced_target
    try:
        b, report = aaa_fit(F, Z, max_order=max_order)
    except _NotConjugateSymmetric:
        raise ValueError(f"{domain} is not symmetric about the real axis "
                         "(a rect domain needs y0 = -y1)") from None
    run = (b.support, b.values, report.iterates, report.residuals, fmax)
    refits = []
    while True:
        try:
            poles = extract_poles(b)
            break
        except (ValueError, NumericalError):
            # Support points past the roundoff floor are spurious and can
            # degenerate the denominator (u0 -> 0) or the pole pencil.
            # Each refit stops at the floor or 2 points before the failed
            # fit's end, so it is the first fit's first iterations.
            if report.termination == "tolerance":
                max_order = len(b.support)
            if max_order <= 2:
                raise
            refits.append(max_order)
            max_order -= 2
            b, report = _read_fit(*run, max_order, 1e2 * U * fmax)
    nodes, ws = map(np.array,
                    pair_conjugates(poles, extract_residues(b, poles)))
    # |w| is equal on a conjugate pair, so a pair is kept or dropped whole
    keep = np.abs(ws) >= 1e2 * U * np.max(np.abs(ws), initial=0.0)
    pruned = len(ws) - int(np.count_nonzero(keep))
    nodes, ws = nodes[keep], ws[keep]
    scale = domain_scale(domain)
    for p in nodes:
        if distance_to(domain, complex(p)) <= 1e-10 * scale:
            raise PoleInsideDomainError(
                f"pole {p} lies inside or on the domain {domain}")
    name = f"tame{n_reduced_target}@{format_domain(domain)}"
    full = AWMethod(name=name, weights=tuple(ws), nodes=tuple(nodes),
                    reduced=False)
    report = replace(report, refits=tuple(refits), pruned=pruned)
    return to_reduced(full), method_metadata(full, domain, 4 * count), report


# -- Table of precomputed quasi-optimal methods ------------------------------

#: (r_max, n_reduced) rows of the shipped preset family
PRESET_ROWS = ((0.6, 3), (1.8, 4), (4.0, 5), (7.0, 6),
               (11.2, 7), (16.8, 8), (22.7, 9), (31.6, 10))


def preset_filename(r_max, n_reduced):
    return f"tame_r{r_max:g}_n{n_reduced}.json"


def _preset_path(r_max, n_reduced):
    override = os.environ.get("AW_PRESET_DIR")
    if override:
        return os.path.join(override, preset_filename(r_max, n_reduced))
    return resources.files("awilt").joinpath("presets").joinpath(
        preset_filename(r_max, n_reduced))


def preset_entry(r_needed):
    """(method, metadata, r_max) for the smallest preset with r_max >= r."""
    if not r_needed > 0:
        raise ValueError("r_needed must be positive")
    for r_max, nprime in PRESET_ROWS:
        if r_max >= r_needed:
            m, meta = load_method(_preset_path(r_max, nprime))
            return m, meta, r_max
    raise ValueError(
        f"r_needed={r_needed} exceeds the largest preset radius "
        f"{PRESET_ROWS[-1][0]}; call build_tame for a custom domain")


def preset_tame(r_needed):
    return preset_entry(r_needed)[0]


def build_presets(out_dir):
    """Regenerate the preset family; returns the written paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for r_max, nprime in PRESET_ROWS:
        method, meta, _ = build_tame(Disc(complex(-r_max), r_max), nprime)
        path = os.path.join(out_dir, preset_filename(r_max, nprime))
        save_method(path, method, meta)
        paths.append(path)
    return paths
