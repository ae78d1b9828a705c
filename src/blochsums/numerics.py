"""Scalar numerical kernel: bracketing root finder, sign-change scanner,
golden-section maximizer, and composite trapezoid quadrature.  Two private
helpers, ``_pow`` and ``_log1m_tail``, take a float or an array, so that a
closed form written once takes a radius or a whole grid in one call.  The
trapezoid adds its node values left to right in ``_trapezoid_sum``, which
``trapezoid`` and callers that evaluate the nodes in one array call share.

Everything here is pure and deterministic.  Bisection is preferred wherever
a bracket exists because its convergence is unconditional, and none of the
objectives in this package is expensive enough to justify derivative-based
methods.  Quadrature is a plain composite trapezoid rule: the integrands we
meet are either smooth on the closed interval or trigonometric polynomials,
for which the rule is exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Tuple

import numpy as np
from numpy import ndarray

__all__ = [
    "RootResult",
    "bisect",
    "sign_changes",
    "golden_max",
    "trapezoid",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _straddles(a: float, b: float) -> bool:
    """True when a and b have strictly opposite signs.  Compares signs, not
    the product a * b, which underflows to zero for tiny values."""
    return (a < 0.0 < b) or (b < 0.0 < a)


def _log1m_tail(t):
    """-log(1 - t) - t for 0 <= t < 1; t a float or an array, each of whose
    elements gets the bits of a scalar call (``math.log1p`` may differ by one
    ulp from NumPy's, so the entries t >= 0.01 take it one by one).  The
    direct form loses about 3e-16 / t of relative accuracy to cancellation,
    so below t = 0.01 it is t^2/(2 - t) + 2 (s^3/3 + s^5/5 + ...) with
    s = t/(2 - t), from -log(1 - t) = 2 atanh(s): all terms positive, and the
    first one left out below 1e-17 of the sum."""
    if type(t) is ndarray:
        flat = t.ravel()
        small = flat < 0.01
        out = np.empty(flat.shape)
        out[small] = _log1m_series(flat[small])
        out[~small] = [-math.log1p(-v) - v for v in flat[~small].tolist()]
        return out.reshape(t.shape)
    if not t < 0.01:
        return -math.log1p(-t) - t
    return _log1m_series(float(t))  # a NumPy scalar would make each step slower


def _log1m_series(t):
    """``_log1m_tail``'s series branch; t a float or an array.  Only + - * /,
    which round the same in NumPy and in Python."""
    s = t / (2.0 - t)
    s2 = s * s
    return t * t / (2.0 - t) + 2.0 * s * s2 * (1.0 / 3.0 + s2 / 5.0 + s2 * s2 / 7.0)


def _pow(v, k: int):
    """v ** k through Python's float pow (the C library's pow); v a float or
    an array of any shape, each of whose elements gets the bits of a scalar
    call.  NumPy's vector ``**`` may take a SIMD path that rounds some
    elements differently; + - * / round the same in NumPy and in Python.  The
    exact type test, not ``isinstance``, keeps a scalar call within a few ns
    of a bare ``v**k``."""
    if type(v) is ndarray:
        return np.array([e**k for e in v.ravel().tolist()]).reshape(v.shape)
    return v**k


@dataclass(frozen=True)
class RootResult:
    """Outcome of a bracketing root solve.

    ``converged`` records that the final bracket width dropped below the
    requested tolerance.  The residual ``f(root)`` is reported alongside so
    callers with steep objectives can apply their own acceptance threshold
    on top of the width criterion.
    """

    root: float
    bracket: Tuple[float, float]
    residual: float
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not (lo <= self.root <= hi):
            raise ValueError("root must lie inside its bracket")


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-14,
    max_iter: int = 200,
) -> RootResult:
    """Bisection on a sign-changing bracket [lo, hi].

    Iterates until the bracket width is at most ``tol`` (or ``max_iter`` is
    hit) and returns the midpoint of the final bracket.  Raises ValueError
    when the endpoint values do not straddle zero.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return RootResult(lo, (lo, lo), 0.0, 0, True)
    if fhi == 0.0:
        return RootResult(hi, (hi, hi), 0.0, 0, True)
    if not _straddles(flo, fhi):
        raise ValueError("not bracketed: f(lo) and f(hi) have the same sign")

    iterations = 0
    while (hi - lo) > tol and iterations < max_iter:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # bracket no longer representable any tighter
        fmid = f(mid)
        iterations += 1
        if fmid == 0.0:
            lo = hi = mid
            flo = fhi = 0.0
            break
        if _straddles(flo, fmid):
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid

    root = 0.5 * (lo + hi)
    return RootResult(
        root=root,
        bracket=(lo, hi),
        residual=f(root),
        iterations=iterations,
        converged=(hi - lo) <= tol,
    )


def sign_changes(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    steps: int,
) -> List[Tuple[float, float]]:
    """Sample f on ``steps`` equispaced nodes and collect sign-change brackets.

    Returns every adjacent node pair whose values have strictly opposite
    signs.  This certifies zero counts only at grid resolution; callers
    report it as "no second sign change found at this resolution", never as
    a proof of uniqueness.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    h = (hi - lo) / (steps - 1)
    brackets: List[Tuple[float, float]] = []
    t_prev = lo
    v_prev = f(lo)
    for i in range(1, steps):
        t = lo + i * h if i < steps - 1 else hi
        v = f(t)
        if _straddles(v_prev, v):
            brackets.append((t_prev, t))
        t_prev, v_prev = t, v
    return brackets


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-10,
) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns ``(argmax, value)``.  Unimodality is the caller's responsibility;
    for a monotone function the search converges to the correct boundary.
    On non-unimodal input the result is a local maximizer, which callers
    guard against with a grid pre-scan.  The search also stops once the
    bracket is too narrow in floats for two distinct interior points.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    while (b - a) > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    arg = 0.5 * (a + b)
    return arg, f(arg)


def trapezoid(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    m: int,
) -> float:
    """Composite trapezoid rule with ``m`` subintervals; f takes a float.

    For smooth integrands the error scales as O(m^-2); for trigonometric
    polynomials sampled over a full period the rule is exact once the node
    count exceeds the polynomial degree.  The node values are added left to
    right, the end nodes' half-sum first.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("integration limits must be finite")
    h = (hi - lo) / m
    return _trapezoid_sum(f(lo), f(hi), (f(lo + i * h) for i in range(1, m)), h)


def _trapezoid_sum(f_lo: float, f_hi: float, inner: Iterable[float], h: float) -> float:
    """h ((f_lo + f_hi)/2 + the inner node values added left to right).  The
    order is part of the result's bits: ``np.sum`` and ``math.fsum`` add in
    another order and round differently."""
    total = 0.5 * (f_lo + f_hi)
    for v in inner:
        total += v
    return total * h
