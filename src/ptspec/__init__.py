"""Spectra of PT-symmetric oscillators three ways.

The eigenproblem -eps^2 f''(z) - (i z)^p f(z) = f(z) (and the quartic
variant -eps^2 f'' + (z^4 + i a z) f = f) is solved by classical WKB
quantisation, by the exponentially corrected eigenvalue condition whose
branch-point term closes the bifurcation fingers for p < 2, and by direct
shooting along complex contours.  The geometry module traces the Stokes
lines that decide which exponentially small terms switch on.
"""

from .action import (action_between, action_scale, action_to_turning_points,
                     quartic_action, quartic_critical_a, singulant)
from .asymptotic import (EigRecord, SolveError, condition_spectrum,
                         corrected_condition, delta_estimate, E_to_eps,
                         eps_to_E, lowest_branch_path, quartic_closeoff,
                         quartic_condition, solve_condition, solve_quartic,
                         switched_terms, wkb_condition, wkb_eigenvalue)
from .geometry import (ModelSpec, QuarticRoots, StokesTrace, TraceError,
                       path_crosses_cut, quartic_turning_points,
                       seed_directions, trace_matching_path, trace_stokes_line,
                       turning_points, wedge_angles)
from .shooting import (ShootConfig, ShootState, ShootingError, find_eigen,
                       integrate_ray, mismatch, scan_spectrum, wkb_init)
from .special import BranchAmbiguityError, principal_power, recip_gamma
from .verify import (ConvergenceReport, HSequence, branch_point_prefactor,
                     h_sequence, quantization_equivalence,
                     turning_point_matching_ratio, turning_point_prefactor)

__version__ = "0.1.0"
