"""Truncated complex power-series arithmetic and weighted coefficient sums.

A function F analytic on the unit disc is represented by the truncated
coefficient list of either F itself (kind "function", entry k is the z^k
coefficient b_k) or of its derivative F' (kind "derivative", entry k is the
z^k coefficient of F', i.e. (k+1) b_{k+1}).  The two central quantities are

    weighted_power_sum:  sum over k of k^p |b_k|^2 r^{2k}        (mode r2k)
                         or of k^p |b_k|^2 r^{2k-2}              (mode r2k_minus_2)
    circle_mean_square:  (1/2 pi) integral of |F'(r e^{i theta})|^2 d theta,

which agree for p = 2 in the r^{2k-2} normalization: that is Parseval's
identity, and the trapezoid rule computes the circle average exactly because
the integrand is a trigonometric polynomial.

Tail control: every equality assertion made at a finite truncation order
carries an explicit majorant for the discarded tail of the boundary-family
coefficients, provided here as ``tail_majorant_extremal``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import R_HI, SQRT3

__all__ = [
    "KIND_FUNCTION",
    "KIND_DERIVATIVE",
    "CoefficientSeries",
    "derivative_series",
    "integrate_series",
    "weighted_power_sum",
    "circle_mean_square",
    "tail_majorant_extremal",
]

KIND_FUNCTION = "function"
KIND_DERIVATIVE = "derivative"

_KINDS = (KIND_FUNCTION, KIND_DERIVATIVE)


@dataclass
class CoefficientSeries:
    """Truncated Taylor coefficients c_0 .. c_N of a function or a derivative.

    ``kind`` records what entry k means: b_k for a function series, the z^k
    coefficient of F' for a derivative series.
    """

    coeffs: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        arr = np.atleast_1d(np.asarray(self.coeffs, dtype=np.complex128))
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("coefficients must be finite")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def evaluate(self, z: complex | np.ndarray) -> complex | np.ndarray:
        """Horner evaluation of the truncated series at z (scalar or array)."""
        return np.polynomial.polynomial.polyval(z, self.coeffs)


def derivative_series(f: CoefficientSeries) -> CoefficientSeries:
    """Coefficientwise derivative: entry k of the result is (k+1) c_{k+1}.

    An order-0 input has derivative identically zero, returned as the
    order-0 zero series.
    """
    if f.kind != KIND_FUNCTION:
        raise ValueError("derivative_series expects a function-kind series")
    if f.order == 0:
        return CoefficientSeries(np.zeros(1, dtype=np.complex128), KIND_DERIVATIVE)
    k = np.arange(1, f.order + 1)
    return CoefficientSeries(k * f.coeffs[1:], KIND_DERIVATIVE)


def integrate_series(g: CoefficientSeries, c0: complex = 0.0) -> CoefficientSeries:
    """Inverse of ``derivative_series``: entry 0 is c0, entry k is g_{k-1}/k."""
    if g.kind != KIND_DERIVATIVE:
        raise ValueError("integrate_series expects a derivative-kind series")
    k = np.arange(1, g.coeffs.size + 1)
    out = np.empty(g.coeffs.size + 1, dtype=np.complex128)
    out[0] = c0
    out[1:] = g.coeffs / k
    return CoefficientSeries(out, KIND_FUNCTION)


def weighted_power_sum(
    s: CoefficientSeries,
    p: int,
    r: float,
    mode: str = "r2k",
    k_min: int = 1,
) -> float:
    """Sum of k^p |b_k|^2 r^{2k} (mode "r2k") or r^{2k-2} (mode "r2k_minus_2").

    The series must be function-kind so that entry k is the coefficient b_k.
    The sum runs over k from k_min to the truncation order; it is nonnegative
    and monotone nondecreasing in both the order and r.
    """
    if s.kind != KIND_FUNCTION:
        raise ValueError("weighted_power_sum expects a function-kind series")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    if k_min < 1:
        raise ValueError("k_min must be at least 1")
    if mode not in ("r2k", "r2k_minus_2"):
        raise ValueError("mode must be 'r2k' or 'r2k_minus_2'")
    if k_min > s.order:
        return 0.0
    k = np.arange(k_min, s.order + 1, dtype=np.float64)
    mags = np.abs(s.coeffs[k_min:]) ** 2
    exponent = 2.0 * k if mode == "r2k" else 2.0 * k - 2.0
    # At r = 0 only the r^0 = 1 term survives: NumPy takes 0.0**0.0 as 1.0.
    return float(np.sum(k**p * mags * r**exponent))


def circle_mean_square(s: CoefficientSeries, r: float, m: int) -> float:
    """Trapezoidal average of |s(r e^{i theta})|^2 over m equispaced nodes.

    The integrand is a trigonometric polynomial of degree at most twice the
    truncation order, so for m >= 2*order + 2 the equispaced rule is exact
    and the average equals the Parseval coefficient sum of the integrated
    series to rounding error.  Smaller m would alias silently and is
    rejected.
    """
    if s.kind != KIND_DERIVATIVE:
        raise ValueError("circle_mean_square expects a derivative-kind series")
    if m < 2 * s.order + 2:
        raise ValueError(
            f"m={m} is below the exactness threshold {2 * s.order + 2} "
            "for this truncation order"
        )
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    theta = 2.0 * np.pi * np.arange(m) / m
    z = r * np.exp(1j * theta)
    vals = s.evaluate(z)
    return float(np.mean(np.abs(vals) ** 2))


def _geometric_power_tail(m: int, q: float, n: int) -> float:
    """Closed form of sum over k > n of k^m q^k, for 0 <= q < 1 and m <= 4.

    Shifted to t = k - (n+1) and expanded binomially, the sum is
    q^{n+1} * sum_i C(m, i) (n+1)^{m-i} T_i(q) with T_i the polylog-type
    sums of t^i q^t from t = 0, which are rational in q.
    """
    if m > 4:
        raise ValueError("power moments above 4 are not needed nor supported")
    one = 1.0 - q
    t_tables = (
        1.0 / one,
        q / one**2,
        q * (1.0 + q) / one**3,
        q * (1.0 + 4.0 * q + q * q) / one**4,
        q * (1.0 + 11.0 * q + 11.0 * q * q + q**3) / one**5,
    )
    base = n + 1.0
    total = 0.0
    for i in range(m + 1):
        total += math.comb(m, i) * base ** (m - i) * t_tables[i]
    return q ** (n + 1) * total


def tail_majorant_extremal(x: float, r: float, p: int, n: int) -> float:
    """Upper bound for the discarded tail sum over k > n of k^p |A_k|^2 r^{2k}.

    A_k are the function coefficients of the boundary family at parameter x.
    They obey |A_k| <= (a/2) x^{k-3} (2x^2 + (k-1)(1-x^2)), so with
    q = (x r)^2 the tail is dominated by a combination of closed-form sums
    of k^m q^k for m up to p+2.  The bound is guaranteed to be at least the
    true tail; it underflows to zero exactly when the true tail does.
    """
    if not 0.0 < x < R_HI:
        raise ValueError("x must lie in (0, 1/sqrt(3))")
    if not 0.0 <= r < 1.0:
        raise ValueError("r must lie in [0, 1)")
    if p not in (1, 2):
        raise ValueError("p must be 1 or 2")
    if n < 2:
        raise ValueError("n must be at least 2")
    q = (x * r) ** 2  # below 1/3
    if q == 0.0:
        return 0.0
    # Leading boundary-family coefficient; see the family constructors.
    a = 1.5 * SQRT3 * x * (1.0 - x * x)
    u = 1.0 - x * x
    s_p = _geometric_power_tail(p, q, n)
    s_p1 = _geometric_power_tail(p + 1, q, n)
    s_p2 = _geometric_power_tail(p + 2, q, n)
    scale = a * a / (4.0 * x**6)
    return scale * (4.0 * x**4 * s_p + 4.0 * x * x * u * s_p1 + u * u * s_p2)
