"""Closed-form right-hand sides and named constants of the coefficient bounds.

Every inequality the suite certifies compares a coefficient sum against one
of the closed forms collected here:

* ``bound_basic``     1/(1 - r^2)^2, the Parseval envelope;
* ``bound_prop1``     the tail constant ((n+2)^(n+2) / (4 n^n)) r^(2n),
                      valid up to r_n = sqrt(n/(n+2));
* ``bound_thm1_B``    the boundary-family area sum  B(x, r)  (weight k^2 r^{2k});
* ``bound_thm1_B2``   its integrated companion      B2(x, r) (weight k r^{2k});
* ``bound_cor1``      the logarithmic envelope B_a(r) for the k >= 2 area sum;
* ``thm_rhs``         the quartic right-hand sides c r^4 with their validity
                      intervals (27/4 for thm2 and thm3, 27/8 for cor2 and thm5);
* ``remark6_poly``    the degree-8 polynomial whose positive root rho gives the
                      empirical threshold sqrt(rho) = 0.39466... .

Validity intervals are enforced by raising, never by clamping: each claim is
interval-conditional and silently evaluating outside would corrupt verdicts.
Each gated bound is declared once, as an ungated ``_*_raw`` closed form and
an ``_*_inside`` radius predicate, both taking a float or an array of radii:
the public function raises when its predicate is false, and ``table``
evaluates a whole column with the same two in one call.  A predicate raises
on a parameter outside its domain (x, a, n or the bound id).  All surd
constants are evaluated once from integers at import time; ``SQRT3`` and
``R_HI`` = 1/sqrt(3) are the package's one definition of each.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from .numerics import _horner, _is_integer, _log1m_tail, _pow

__all__ = [
    "SQRT3",
    "R_THM5",
    "THM2_R_LO",
    "THM3_R_LO",
    "R_HI",
    "RHS_SCALE",
    "VALIDITY",
    "REMARK6_COEFFS",
    "BoundEvaluation",
    "bound_basic",
    "r_star",
    "bound_prop1",
    "r_admissible",
    "bound_thm1_B",
    "bound_thm1_B2",
    "bound_cor1",
    "thm_rhs",
    "validity_interval",
    "remark6_poly",
]

SQRT3 = math.sqrt(3.0)

# Sharp threshold radius of the product bound: (1/(4 sqrt(3))) sqrt(59 - sqrt(2713)).
R_THM5 = math.sqrt(59.0 - math.sqrt(2713.0)) / (4.0 * SQRT3)

# Interval endpoints of the quartic bounds.
THM2_R_LO = math.sqrt(4.0 / 15.0)
_THM3_R2 = (9.0 - math.sqrt(65.0)) / 6.0  # thm3's squared lower endpoint
THM3_R_LO = math.sqrt(_THM3_R2)
R_HI = 1.0 / SQRT3

# Quartic right-hand sides: scale * r^4 on [lo, hi].
RHS_SCALE: Dict[str, float] = {
    "thm2": 27.0 / 4.0,
    "thm3": 27.0 / 4.0,
    "cor2": 27.0 / 8.0,
    "thm5": 27.0 / 8.0,
}
VALIDITY: Dict[str, Tuple[float, float]] = {
    "thm2": (THM2_R_LO, R_HI),
    "thm3": (THM3_R_LO, R_HI),
    "cor2": (0.0, R_HI),
    "thm5": (R_THM5, R_HI),
}

# Degree-8 polynomial with the empirical threshold root, low order first.
REMARK6_COEFFS: Tuple[float, ...] = (
    -4.0,
    -1.0,
    81.0,
    642.0,
    -564.0,
    1188.0,
    -82.0,
    -5809.0,
    4581.0,
)

# Absolute slop for interval-endpoint comparisons, so that a radius computed
# as the endpoint itself (e.g. sqrt(1/3)) is not rejected by one rounding ulp.
_EDGE = 1e-12


@dataclass
class BoundEvaluation:
    """One inequality instance: lhs <= rhs claimed, with a tail certificate.

    ``slack`` is rhs - lhs, computed on construction.  An instance is
    accepted when slack >= -(tol * (1 + |rhs|) + tail_certificate): the
    relative part absorbs double-precision noise, the additive part is the
    explicit truncation-error budget of the lhs.
    """

    bound_id: str
    instance_id: str
    params: Dict[str, float]
    lhs: float
    rhs: float
    tail_certificate: float = 0.0
    slack: float = field(init=False)

    def __post_init__(self) -> None:
        self.slack = self.rhs - self.lhs
        if not math.isfinite(self.slack):
            raise ValueError("slack must be finite")
        if self.tail_certificate < 0.0:
            raise ValueError("tail certificate must be nonnegative")

    def margin(self, tol: float) -> float:
        """Signed acceptance margin; nonnegative means the instance passes."""
        return self.slack + tol * (1.0 + abs(self.rhs)) + self.tail_certificate

    def passes(self, tol: float) -> bool:
        return self.margin(tol) >= 0.0


def bound_basic(r: float) -> float:
    """Parseval envelope 1/(1 - r^2)^2 on [0, 1)."""
    if not _basic_inside(r):
        raise ValueError("r must lie in [0, 1)")
    return _basic_raw(r)


def _basic_inside(r):
    """``bound_basic``'s gate 0 <= r < 1; r a float or an array."""
    return (0.0 <= r) & (r < 1.0)


def _basic_raw(r):
    """1/(1 - r^2)^2 with no gate; r a float or an array."""
    one = 1.0 - r * r
    return 1.0 / (one * one)


def r_star(n: int) -> float:
    """Contact radius r_n = sqrt(n/(n+2)) of the tail bound."""
    if not _is_integer(n) or n < 1:
        raise ValueError("n must be a positive integer")
    return math.sqrt(n / (n + 2.0))


def bound_prop1(n: int, r: float) -> float:
    """Tail constant ((n+2)^(n+2) / (4 n^n)) r^(2n), valid for r <= r_n.

    At r = r_n the value coincides with ``bound_basic(r_n)`` = ((n+2)/2)^2.
    """
    if not _prop1_inside(n, r):
        raise ValueError(
            f"r={r} outside the validity interval [0, {r_star(n)}] for n={n}"
        )
    return _prop1_raw(n, r)


def _prop1_inside(n: int, r):
    """``bound_prop1``'s gate 0 <= r <= r_n; r a float or an array.  Raises
    unless n is an integer >= 1."""
    return (0.0 <= r) & (r <= r_star(n) + _EDGE)


def _prop1_raw(n: int, r):
    """Tail constant times r^(2n) with no gate; r a float or an array."""
    constant = (n + 2.0) ** (n + 2) / (4.0 * float(n) ** n)
    return constant * _pow(r, 2 * n)


def r_admissible(x: float) -> float:
    """Admissible radius (sqrt(1/3) - x)/(1 - x sqrt(1/3)) of the family bound.

    Decreasing in x, equal to sqrt(1/3) at x = 0 and to 0 at x = 1/sqrt(3);
    as a Moebius map of the interval it is its own inverse.
    """
    if not 0.0 <= x <= R_HI:
        raise ValueError("x must lie in [0, 1/sqrt(3)]")
    return (R_HI - x) / (1.0 - x * R_HI)


def _thm1_B_raw(x, r):
    """Family area sum (weight k^2 r^{2k}) as a closed form, no interval gate.

    Equals the coefficient sum of the family member for every x r < 1; the
    admissibility gate below applies only when the value is used as a bound
    for the whole class.  x or r may be a float or an array; an array gives
    each element the bits of the scalar call, its powers taken by ``_pow``.
    """
    x2 = x * x
    r2 = r * r
    one_m_x2 = 1.0 - x2
    d = 1.0 - r2 * x2
    numerator = (r2 + x2) * d * d - 6.0 * r2 * x2 * one_m_x2 * (1.0 - r2)
    return 27.0 * r2 * one_m_x2 * one_m_x2 * numerator / (4.0 * _pow(d, 5))


def _thm1_B2_raw(x, r):
    """Family area sum (weight k r^{2k}) as a closed form, no interval gate;
    x or r a float or an array, as for ``_thm1_B_raw``, or r complex (the
    form is + - * / and integer powers, analytic in r)."""
    x2 = x * x
    r2 = r * r
    one_m_x2 = 1.0 - x2
    d = 1.0 - r2 * x2
    numerator = 3.0 * x2 * _pow(1.0 - r2, 2) + d * (r2 - x2)
    return 27.0 * r2 * one_m_x2 * one_m_x2 * numerator / (8.0 * _pow(d, 4))


def _thm1_inside(x: float, r):
    """The family bounds' gate 0 <= r <= r_admissible(x); r a float or an
    array.  Raises unless 0 < x < 1/sqrt(3)."""
    if not 0.0 < x < R_HI:
        raise ValueError("x must lie in (0, 1/sqrt(3))")
    return (0.0 <= r) & (r <= r_admissible(x) + _EDGE)


def _check_thm1_domain(x: float, r: float) -> None:
    if not _thm1_inside(x, r):
        raise ValueError(
            f"r={r} outside the admissible interval [0, {r_admissible(x)}] for x={x}"
        )


def bound_thm1_B(x: float, r: float) -> float:
    """Sharp bound for the k^2 r^{2k} sum, valid for r up to r_admissible(x).

    Tends to a(x)^2 r^2 as r -> 0 (the k = 1 term dominates).
    """
    _check_thm1_domain(x, r)
    return _thm1_B_raw(x, r)


def bound_thm1_B2(x: float, r: float) -> float:
    """Sharp bound for the k r^{2k} sum, valid for r up to r_admissible(x).

    Obtained from ``bound_thm1_B`` by integrating B(x, sqrt(u))/u over
    [0, r^2]; also tends to a(x)^2 r^2 as r -> 0.
    """
    _check_thm1_domain(x, r)
    return _thm1_B2_raw(x, r)


def bound_cor1(a: float, r: float) -> float:
    """Logarithmic envelope B_a(r) for the k >= 2 portion of the k r^{2k} sum.

    B_a(r) = (3 (9 - 4a^2)^2 / (64 a^4)) (-log(1 - 4a^2 r^2/3) - 4a^2 r^2/3),
    nonnegative, zero at r = 0, increasing in r on [0, 1/sqrt(3)]; it tends
    to 27 r^4 / 8 as a -> 0.
    """
    if not _cor1_inside(a, r):
        raise ValueError("r must lie in [0, 1/sqrt(3)]")
    return _cor1_raw(a, r)


def _cor1_inside(a: float, r):
    """``bound_cor1``'s gate 0 <= r <= 1/sqrt(3); r a float or an array.
    Raises unless 0 < a < 1.  Inside, 4 a^2 r^2 / 3 < 4/9 + 2e-12."""
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    return (0.0 <= r) & (r <= R_HI + _EDGE)


def _cor1_raw(a: float, r):
    """B_a(r) with no gate; r a float or an array.

    B_a(r) is scale * tail(t), with t = 4 a^2 r^2 / 3 and
    tail(t) = -log(1 - t) - t, wherever tail(t) is a normal float.  Elsewhere
    (where a r is below about 1.3e-77) that form would divide by a^4 = 0,
    overflow, or round a subnormal tail, and B_a(r) is evaluated as
    (3 (9 - 4a^2)^2 / 64) (16 r^4 / 9) (tail(t) / t^2): there t < 1e-153, so
    the series tail(t) / t^2 = 1/2 + t/3 + t^2/4 + ... is 1/2 + t/3 to double
    precision.
    """
    t = 4.0 * a * a * r * r / 3.0
    tail = _log1m_tail(t)
    num = 3.0 * (9.0 - 4.0 * a * a) ** 2
    small = tail < sys.float_info.min
    if not np.any(small):
        return num / (64.0 * a**4) * tail
    r2 = r * r
    near = num / 64.0 * (16.0 * r2 * r2 / 9.0) * (0.5 + t / 3.0)
    if np.all(small):
        return near
    return np.where(small, near, num / (64.0 * a**4) * tail)


def validity_interval(bound_id: str) -> Tuple[float, float]:
    """Validity interval [lo, hi] of a quartic right-hand side."""
    if bound_id not in VALIDITY:
        raise ValueError(f"unknown quartic bound id {bound_id!r}")
    return VALIDITY[bound_id]


def thm_rhs(bound_id: str, r: float) -> float:
    """Quartic right-hand side scale * r^4 with interval enforcement."""
    _check_thm_interval(bound_id, r)
    return _thm_rhs_raw(bound_id, r)


def _thm_rhs_inside(bound_id: str, r):
    """``thm_rhs``'s gate lo <= r <= hi; r a float or an array.  Raises on
    an unknown bound id."""
    lo, hi = validity_interval(bound_id)
    return (lo - _EDGE <= r) & (r <= hi + _EDGE)


def _check_thm_interval(bound_id: str, r: float) -> None:
    if not _thm_rhs_inside(bound_id, r):
        lo, hi = VALIDITY[bound_id]
        raise ValueError(
            f"r={r} outside the validity interval [{lo}, {hi}] of {bound_id}"
        )


def _thm_rhs_raw(bound_id: str, r):
    """scale * r^4 with no gate; r a float or an array."""
    return RHS_SCALE[bound_id] * _pow(r, 4)


def remark6_poly(y: float) -> float:
    """Horner evaluation of the degree-8 threshold polynomial."""
    return _horner(REMARK6_COEFFS, y)
