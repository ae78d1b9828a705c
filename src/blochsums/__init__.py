"""Numerical verification lab for sharp weighted coefficient sums of
Bloch-class functions.

The package certifies, at controlled floating-point tolerances, a family of
sharp inequalities for the coefficient sums of functions whose derivative is
dominated by 1/(1 - |z|^2): Parseval-type growth bounds, tail bounds with
explicit contact radii, the sharp quadratic bound with first-coefficient
correction, and the product bound coupling the first coefficient with the
area functional.  Closed-form right-hand sides live in :mod:`.bounds`, the
extremal families attaining them in :mod:`.families`, series arithmetic in
:mod:`.series`, scalar numerics in :mod:`.numerics`, the certification
suites in :mod:`.verify`, and the command-line runner in :mod:`.cli`.
"""

from .bounds import (
    R_HI,
    R_THM5,
    THM2_R_LO,
    THM3_R_LO,
    BoundEvaluation,
    bound_basic,
    bound_cor1,
    bound_prop1,
    bound_thm1_B,
    bound_thm1_B2,
    r_admissible,
    r_star,
    remark6_poly,
    thm_rhs,
    validity_interval,
)
from .families import (
    X_SUP,
    a_of_x,
    b2_max,
    bloch_membership_scan,
    f_n_prime,
    g_prime_coeffs,
    h_series,
    rational_expand_g,
    x_of_a,
)
from .numerics import RootResult, bisect, golden_max, sign_changes, trapezoid
from .series import (
    CoefficientSeries,
    circle_mean_square,
    derivative_series,
    integrate_series,
    tail_majorant_extremal,
    weighted_power_sum,
)
from .verify import (
    ALL_SUITES,
    ScanGrid,
    SchwarzSpec,
    VerdictReport,
    crossing_radius,
    make_subordinate,
    run_suite,
    sharpness_scan,
    verify_thm1,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "CoefficientSeries",
    "derivative_series",
    "integrate_series",
    "weighted_power_sum",
    "circle_mean_square",
    "tail_majorant_extremal",
    # families
    "X_SUP",
    "a_of_x",
    "b2_max",
    "x_of_a",
    "g_prime_coeffs",
    "rational_expand_g",
    "f_n_prime",
    "h_series",
    "bloch_membership_scan",
    # bounds
    "BoundEvaluation",
    "bound_basic",
    "bound_prop1",
    "bound_thm1_B",
    "bound_thm1_B2",
    "bound_cor1",
    "thm_rhs",
    "validity_interval",
    "r_star",
    "r_admissible",
    "remark6_poly",
    "R_HI",
    "R_THM5",
    "THM2_R_LO",
    "THM3_R_LO",
    # numerics
    "RootResult",
    "bisect",
    "sign_changes",
    "golden_max",
    "trapezoid",
    # verify
    "ALL_SUITES",
    "SchwarzSpec",
    "ScanGrid",
    "VerdictReport",
    "make_subordinate",
    "verify_thm1",
    "sharpness_scan",
    "crossing_radius",
    "run_suite",
]
