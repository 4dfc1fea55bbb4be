"""Reference for the refit loop of a TAME build.

`build_tame` as it was before its refits stopped at the roundoff floor
through AAA's own tolerance: every fit ran with ``tol=0``, and after the
first failed pole solve the refit budget came from the first iteration
of the failed fit's residual history at or below the floor, turned into
a count of support points by `_support_count`; later refits stepped the
budget down by 2.  The tests compare `build_tame` with it.
"""

from dataclasses import replace

import numpy as np

from awilt.domains import discretize, distance_to, domain_scale
from awilt.errors import NumericalError, PoleInsideDomainError
from awilt.methods import _is_real, pair_conjugates
from awilt.numerics import U
from awilt.tame import aaa_fit, extract_poles, extract_residues


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
