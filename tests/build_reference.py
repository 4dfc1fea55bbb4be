"""Reference for the refit loop of a TAME build.

`build_tame` as it was before its refits stopped at the roundoff floor
through AAA's own tolerance: every fit ran with ``tol=0``, and after the
first failed pole solve the refit budget came from the first iteration
of the failed fit's residual history at or below the floor, turned into
a count of support points by `_support_count`; later refits stepped the
budget down by 2.  The tests compare `build_tame` with it.

Also `aaa_fit_reference`: the AAA loop as it was before it kept its
Cauchy and Loewner matrices across iterations.  It rebuilds both on the
free rows every iteration and takes a plain SVD of the Loewner matrix.
The tests compare `aaa_fit` with it bit for bit.
"""

from dataclasses import replace

import numpy as np

from awilt.domains import discretize, distance_to, domain_scale
from awilt.errors import NumericalError, PoleInsideDomainError
from awilt.methods import _is_real, pair_conjugates
from awilt.numerics import U
from awilt.tame import (AAAReport, BarycentricApproximant,
                        _conjugate_partners, aaa_fit, extract_poles,
                        extract_residues)


def _support_count(report, iterations):
    """Support points after the first ``iterations`` AAA iterations; an
    iteration adds one real point or a conjugate pair."""
    n = 0
    for _ in range(iterations):
        n += 1 if _is_real(report.support_order[n]) else 2
    return n


def build_tame(domain, n_reduced_target, count=1000):
    """``(nodes, weights, report)`` of the full method, before the
    reduction and the epsilon re-measure."""
    Z = discretize(domain, count)
    F = np.exp(Z.points)
    max_order = 2 * n_reduced_target
    refits = []
    while True:
        b, report = aaa_fit(F, Z, max_order=max_order)
        try:
            poles = extract_poles(b)
        except (ValueError, NumericalError):
            if max_order <= 2:
                raise
            refits.append(max_order)
            if len(refits) == 1:
                floor = 1e2 * U * float(np.max(np.abs(F)))
                hit = [k for k, r in enumerate(report.residuals, start=1)
                       if r <= floor]
                cap = (_support_count(report, hit[0]) if hit
                       else max_order - 2)
                max_order = min(max_order - 2, max(2, cap))
            else:
                max_order -= 2
            continue
        break
    nodes, ws = map(np.array,
                    pair_conjugates(poles, extract_residues(b, poles)))
    keep = np.abs(ws) >= 1e2 * U * np.max(np.abs(ws), initial=0.0)
    pruned = len(ws) - int(np.count_nonzero(keep))
    nodes, ws = nodes[keep], ws[keep]
    for p in nodes:
        if distance_to(domain, complex(p)) <= 1e-10 * domain_scale(domain):
            raise PoleInsideDomainError(
                f"pole {p} lies inside or on the domain {domain}")
    return nodes, ws, replace(report, refits=tuple(refits), pruned=pruned)


def aaa_fit_reference(F, Z, max_order, tol=0.0):
    """`aaa_fit` with every matrix rebuilt each iteration, for inputs that
    meet its preconditions."""
    pts = np.asarray(Z.points, dtype=complex)
    F = np.asarray(F, dtype=complex)
    partner = _conjugate_partners(pts, F)
    support = []          # indices into pts
    groups = []           # positions in `support` added together (1 or 2)
    u = None
    active = np.ones(len(pts), dtype=bool)
    residual = np.abs(F).astype(float)
    history = []
    termination = None

    while True:
        resmax = float(residual[active].max())
        if resmax <= tol:
            termination = "tolerance"
            break
        if len(support) >= max_order:
            termination = "max_order"
            break
        masked = np.where(active, residual, -np.inf)
        j = int(np.argmax(masked))
        z_new = complex(pts[j])
        if _is_real(z_new):
            new = [j]
        else:
            if len(support) + 2 > max_order:
                termination = "no_room_for_pair"
                break
            new = [j, int(partner[j])]
        pos = len(support)
        support.extend(new)
        groups.append(tuple(range(pos, pos + len(new))))
        for k in new:
            active[k] = False

        zs = pts[support]
        fs = F[support]
        rows = np.flatnonzero(active)
        C = 1.0 / (pts[rows, None] - zs[None, :])
        Ct = np.concatenate([np.ones((len(rows), 1)), C], axis=1)
        d2 = np.concatenate([[0.0], fs])
        Atil = F[rows, None] * Ct - Ct * d2[None, :]
        u = np.linalg.svd(Atil, full_matrices=False)[2][-1].conj()
        for g in groups:
            if len(g) == 2:
                a = 0.5 * (u[1 + g[0]] + u[1 + g[1]].conjugate())
                u[1 + g[0]] = a
                u[1 + g[1]] = a.conjugate()
            else:
                u[1 + g[0]] = complex(u[1 + g[0]].real)
        u[0] = complex(u[0].real)
        nrm = np.linalg.norm(u)
        if nrm > 0:
            u = u / nrm

        with np.errstate(divide="ignore", invalid="ignore"):
            num = C @ (u[1:] * fs)
            den = u[0] + C @ u[1:]
            r = num / den
        residual = np.zeros(len(pts))
        err = np.abs(F[rows] - r)
        err[~np.isfinite(err)] = np.inf
        residual[rows] = err
        history.append(float(residual[rows].max()))

    if u is None:
        u = np.array([1.0 + 0j])
    eps = history[-1] if history else float(np.max(np.abs(F)))
    b = BarycentricApproximant(support=pts[support].copy(),
                               values=F[support].copy(),
                               weights=np.asarray(u, dtype=complex))
    report = AAAReport(residuals=tuple(history), epsilon=eps,
                       support_order=tuple(complex(z) for z in pts[support]),
                       termination=termination)
    return b, report
