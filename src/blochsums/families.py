"""The explicit extremal families and the boundary parametrization.

Three families recur throughout the suite:

* the boundary family G'_x(z) = -(a/x) (z - x) / (1 - z x)^3, whose Taylor
  coefficients realize the extremal coefficient sums of the sharp bounds;
* the monomial family F'_n(z) = ((n+2)/2) ((n+2)/n)^(n/2) z^n, which attains
  the tail bound with equality at every radius up to r_n = sqrt(n/(n+2));
* the Moebius majorant H(z) = (3/2) (z + 2a/3) / (1 + (2a/3) z), the
  subordination envelope used by the logarithmic bound.

The boundary parametrization maps x in (0, 1/sqrt(3)) to the attainable
first two coefficient moduli

    a(x)      = (3 sqrt(3)/2) x (1 - x^2)        (= |b_1|, increasing in x)
    b2max(x)  = (3 sqrt(3)/4) (1 - 3 x^2)(1 - x^2)  (= extremal |b_2|).

Membership of a series in the class {|F'(z)| <= 1/(1-|z|^2)} can be probed
numerically on a polar grid; that scan is a necessary-condition check only
and is never used to claim membership (test functions are instead built by
Schwarz composition, which preserves membership by construction).
"""

from __future__ import annotations

import numpy as np

from .bounds import R_HI, SQRT3
from .numerics import bisect
from .series import KIND_DERIVATIVE, CoefficientSeries

__all__ = [
    "X_SUP",
    "X_GUARD",
    "a_of_x",
    "b2_max",
    "x_of_a",
    "g_prime_coeffs",
    "rational_expand_g",
    "f_n_prime",
    "h_series",
    "bloch_membership_scan",
]

X_SUP = R_HI  # the parameter interval ends where the radius interval does

# Family constructors clamp x into [X_GUARD, X_SUP - X_GUARD]: the endpoints
# are degenerate (a -> 0, or the second-coefficient boundary collapses) and
# the k = 1, 2 coefficient formulas divide by x.
X_GUARD = 1e-6


def a_of_x(x: float) -> float:
    """First boundary coefficient a = (3 sqrt(3)/2) x (1 - x^2) on [0, X_SUP].

    Strictly increasing, 0 at x = 0 and exactly 1 at x = X_SUP.
    """
    if not 0.0 <= x <= X_SUP:
        raise ValueError("x must lie in [0, 1/sqrt(3)]")
    return _a_of_x_raw(x)


def _a_of_x_raw(x):
    """``a_of_x`` without the range check; x a float or an array."""
    return 1.5 * SQRT3 * x * (1.0 - x * x)


def b2_max(x: float) -> float:
    """Extremal second coefficient (3 sqrt(3)/4) (1 - 3x^2)(1 - x^2)."""
    if not 0.0 <= x <= X_SUP:
        raise ValueError("x must lie in [0, 1/sqrt(3)]")
    return _b2_max_raw(x)


def _b2_max_raw(x):
    """``b2_max`` without the range check; x a float or an array."""
    return 0.75 * SQRT3 * (1.0 - 3.0 * x * x) * (1.0 - x * x)


def x_of_a(a: float, tol: float = 1e-14) -> float:
    """Inverse of ``a_of_x`` on (0, 1), by bisection.

    Monotonicity of a_of_x makes bisection unconditionally convergent; the
    bracket is tightened until the forward residual |a_of_x(x) - a| is at
    most ``tol`` (or the bracket hits floating-point resolution).
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    # a_of_x has slope at most 3 sqrt(3)/2 < 2.6, so a bracket of width
    # tol/2.6 guarantees the forward residual; cap at fp resolution.
    width = max(tol / 2.6, 4e-17)
    result = bisect(lambda t: a_of_x(t) - a, 0.0, X_SUP, tol=width, max_iter=200)
    return result.root


def _clamp_x(x: float) -> float:
    if not 0.0 <= x <= X_SUP:
        raise ValueError("x must lie in [0, 1/sqrt(3)]")
    return min(max(x, X_GUARD), X_SUP - X_GUARD)


def g_prime_coeffs(x: float, n: int) -> CoefficientSeries:
    """Derivative series of the boundary family member at parameter x.

    Entry k-1 is k * A_k where A_k is the k-th function coefficient:
    A_1 = a, A_2 = (a/2)(3x^2 - 1)/x, and for k >= 3
    A_k = (a/2) x^(k-3) (2x^2 + (k-1)(x^2 - 1)).  Entry 0 equals a exactly
    and |A_2| equals the boundary value b2max(x).
    """
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    xc = _clamp_x(x)
    a = a_of_x(xc)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a
    out[1] = a * (3.0 * xc * xc - 1.0) / xc  # 2 * A_2
    if n >= 2:
        k = np.arange(3, n + 2, dtype=np.float64)
        powers = xc ** (k - 3.0)
        a_k = 0.5 * a * powers * (2.0 * xc * xc + (k - 1.0) * (xc * xc - 1.0))
        out[2:] = k * a_k
    return CoefficientSeries(out, KIND_DERIVATIVE)


def rational_expand_g(x: float, n: int) -> CoefficientSeries:
    """Independent expansion of -(a/x)(z - x)/(1 - z x)^3 via binomial series.

    (1 - x z)^(-3) = sum of C(k+2, 2) x^k z^k; multiplying by -(a/x)(z - x)
    gives entry j = (a/x) (x c_j - c_{j-1}) with c_j the binomial weights.
    Serves as the cross-validation oracle for ``g_prime_coeffs``.
    """
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    xc = _clamp_x(x)
    a = a_of_x(xc)
    j = np.arange(n + 1, dtype=np.float64)
    binom = (j + 2.0) * (j + 1.0) / 2.0  # C(j+2, 2)
    c = binom * xc**j
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a * c[0]
    out[1:] = (a / xc) * (xc * c[1:] - c[:-1])
    return CoefficientSeries(out, KIND_DERIVATIVE)


def f_n_prime(n: int) -> CoefficientSeries:
    """Monomial family derivative: ((n+2)/2) ((n+2)/n)^(n/2) z^n.

    The single coefficient is tuned so that max over r of (1 - r^2) c r^n
    equals exactly 1, attained at r_n = sqrt(n/(n+2)); the family therefore
    sits on the class boundary.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    c = 0.5 * (n + 2.0) * ((n + 2.0) / n) ** (n / 2.0)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[n] = c
    return CoefficientSeries(out, KIND_DERIVATIVE)


def h_series(a: float, n: int) -> CoefficientSeries:
    """Taylor series of the Moebius majorant H(z) = (3/2)(z + 2a/3)/(1 + 2az/3).

    Entry 0 is a; entries from index 1 form a geometric sequence with first
    term (9 - 4a^2)/6 and ratio -2a/3.  H maps the unit circle onto the
    circle of radius 3/2.
    """
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if n < 1:
        raise ValueError("truncation order must be at least 1")
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a
    lead = 1.5 * (9.0 - 4.0 * a * a) / 9.0
    ratio = -2.0 * a / 3.0
    out[1:] = lead * ratio ** np.arange(n, dtype=np.float64)
    return CoefficientSeries(out, KIND_DERIVATIVE)


def bloch_membership_scan(
    s: CoefficientSeries,
    r_nodes: int = 64,
    theta_nodes: int = 128,
) -> float:
    """Grid maximum of (1 - r^2) |s(r e^{i theta})| over the disc.

    A value at most 1, plus a slack the caller picks, is consistent with
    membership in the class {|F'| <= 1/(1 - |z|^2)}.  Necessary-condition
    check only: a truncated series understates the true function, so the
    scan can never prove membership, only flag clear violations.
    """
    if s.kind != KIND_DERIVATIVE:
        raise ValueError("membership scan expects a derivative-kind series")
    if r_nodes < 8 or theta_nodes < 8:
        raise ValueError("need at least 8 nodes in each direction")
    radii = np.linspace(0.0, 0.999, r_nodes)
    theta = 2.0 * np.pi * np.arange(theta_nodes) / theta_nodes
    z = radii[:, None] * np.exp(1j * theta)[None, :]
    vals = np.abs(s.evaluate(z))
    weighted = (1.0 - radii * radii)[:, None] * vals
    return float(np.max(weighted))
