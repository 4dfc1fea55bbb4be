"""Numerical inverse Laplace transforms with Abate-Whitt methods.

Classical generators (Euler, Talbot, Gaver-Stehfest, Zakian), adapted
methods built by rational approximation of the exponential on a problem
domain, rigorous per-class error bounds, moment diagnostics, and
queueing applications (phase-type distributions, fluid queues).
"""

from .errors import (NodeCollisionError, NumericalError,
                     PoleInsideDomainError, RiccatiError, SpectralGapError)
from .domains import (Disc, ImagSegment, RealSegment, Rectangle,
                      Discretization, contains, discretize, distance_to,
                      fov_circle_bound, fov_hermitian_bound,
                      fov_rectangle_bound, parse_domain, format_domain,
                      select_domain)
from .methods import (AWMethod, MethodMetadata, euler_method, gaver_method,
                      talbot_method, zakian_method, load_method, save_method,
                      method_from_json, method_to_json, pair_conjugates,
                      to_full, to_reduced)
from .tame import (AAAReport, BarycentricApproximant, aaa_fit, barycentric_eval,
                   build_tame, extract_poles, extract_residues, preset_entry,
                   preset_tame, PRESET_ROWS)
from .invert import (CurvePoint, Transform, invert, invert_curve,
                     pointwise)
from .diagnostics import (MomentSet, bound_fluid, bound_fluid_cdf, bound_ls,
                          bound_lipschitz, bound_me, bound_phase_type,
                          bound_se, dirac_eval, dirac_l1_norm,
                          epsilon_accuracy, eta_proxy, moment_error_estimate,
                          moments, nu2_tilde, rational_approximant)
from .queueing import (FluidQueueModel, GeneratorMatrix, PhaseType,
                       fluid_psi_transform, make_experiment_model,
                       phase_type_ground_truth, phase_type_transform,
                       psi_infinity, solve_psi, sweep_psi)
from .catalog import CatalogEntry, entry, parse_transform

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
