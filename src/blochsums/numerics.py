"""Numerical kernel: bracketing root finder, sign-change scanner,
golden-section maximizer, and composite trapezoid quadrature.  The private
helpers ``_pow`` and ``_log1m_tail`` (the package's one form of
-log(1 - t) - t, free of cancellation) take a float or an array, so that a
closed form written once takes a radius or a whole grid in one call.  In
the same way ``golden_max`` takes a float bracket or an array of brackets,
whose searches run in lockstep, and so does its refined form
``_grid_refined_max`` (a grid, then golden around its largest node), the
one way the package takes a maximum over an interval.  A grid searched
for many rows at once (radii, or cor2's a-rows) goes through
``_row_peaks``: one call of the closed form per block of rows, on one
shared grid or one row of nodes per row (``_linspace_rows``), so that each
row keeps the bits of its own call.  ``_horner`` is the package's one
polynomial evaluation (polyval's bits, with no ``numpy.polynomial``
import), ``_is_integer`` its one integer test.  The trapezoid adds its
node values left to right; no suite calls it (the circle means of
``series`` take their own rule, exact on trigonometric polynomials).

Everything here is pure and deterministic.  Bisection is preferred wherever
a bracket exists because its convergence is unconditional, and none of the
objectives in this package is expensive enough to justify derivative-based
methods.  Quadrature is a plain composite trapezoid rule, meant for
integrands smooth on the closed interval or trigonometric polynomials, for
which the rule is exact rather than approximate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from numbers import Integral
from typing import Callable, List, Tuple

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
_MAX_ITER = 200  # the most halvings ``bisect`` makes: width 1 becomes 2^-200


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
    """v ** k through the C library's pow; v a float or an array of any
    shape, each of whose elements gets the bits of a scalar call: one
    ``math.pow`` per element, which calls the same pow as Python's float
    ``**`` and raises OverflowError where it does.  NumPy's vector ``**`` may
    take a SIMD path that rounds some elements differently; + - * / round the
    same in NumPy and in Python.  The exact type test, not ``isinstance``,
    keeps a scalar call within a few ns of a bare ``v**k``."""
    if type(v) is ndarray:
        powers = map(math.pow, v.ravel().tolist(), repeat(float(k)))
        return np.fromiter(powers, np.float64, v.size).reshape(v.shape)
    return v**k


def _horner(coeffs, x):
    """The polynomial with coefficients ``coeffs`` (low order first) at x, a
    float, a complex or an array: polyval's loop, and so its bits."""
    high = reversed(coeffs)
    acc = next(high) + x * 0
    for c in high:
        acc = c + acc * x
    return acc


def _is_integer(value) -> bool:
    """True for an int or a NumPy integer, but not for a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


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
) -> RootResult:
    """Bisection on a sign-changing bracket [lo, hi].

    Iterates until the bracket width is at most ``tol`` (or for
    ``_MAX_ITER`` steps) and returns the midpoint of the final bracket.
    Raises ValueError when the endpoint values do not straddle zero.
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
    while (hi - lo) > tol and iterations < _MAX_ITER:
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
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("need finite lo < hi")
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
    f: Callable,
    lo,
    hi,
    tol: float = 1e-10,
) -> Tuple:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns ``(argmax, value)``.  Unimodality is the caller's responsibility;
    for a monotone function the search converges to the correct boundary.
    On non-unimodal input the result is a local maximizer, which callers
    guard against with a grid pre-scan.  The search also stops once the
    bracket is too narrow in floats for two distinct interior points.

    lo and hi are floats, or arrays (one bracket per element, broadcast
    together).  An array bracket runs one search per element in lockstep
    (Kiefer 1953): f takes an array of points, one per element, and each
    element stops on its own test, so element k returns the bits of the
    float call on bracket k, as long as f gives each element the bits of
    its float call.  A stopped element keeps its bracket; f still sees a
    point inside it, whose value is dropped.
    """
    if type(lo) is ndarray or type(hi) is ndarray:
        return _golden_max_lockstep(f, lo, hi, tol)
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


def _golden_max_lockstep(
    f: Callable[[ndarray], ndarray], lo, hi, tol: float
) -> Tuple[ndarray, ndarray]:
    """``golden_max`` on an array bracket: the float path's steps, each
    element taking its own branch and stopping on its own test, with one
    call of f per step for the whole array."""
    a, b = (np.asarray(v, dtype=np.float64) for v in np.broadcast_arrays(lo, hi))
    if not np.all(a < b):
        raise ValueError("need lo < hi")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError("tol must be finite and positive")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = f(c)
    fd = f(d)
    live = np.ones(a.shape, dtype=bool)
    while True:
        live &= ((b - a) > tol) & (a < c) & (c < d) & (d < b)
        if not live.any():
            break
        g = fc > fd  # the float path's `if`: keep [a, d]; else keep [c, b]
        b = np.where(live & g, d, b)
        a = np.where(live & ~g, c, a)
        w = _INVPHI * (b - a)
        x = np.where(g, b - w, a + w)
        fx = f(x)
        c, d = np.where(g, x, d), np.where(g, c, x)
        fc, fd = np.where(g, fx, fd), np.where(g, fc, fx)
    arg = 0.5 * (a + b)
    return arg, f(arg)


def _grid_refined_max(form: Callable, xs: ndarray, p, *params):
    """Largest of form(x, p, *params) over the grid xs as (value, argmax),
    refined by a golden-section search between the nodes either side of the
    first largest one, whose result wins only where it is larger; form takes
    a float or an array x.

    p and the params are floats, or arrays with one element per search for
    arrays of both: then the grid is evaluated for a block of searches per
    call (``_row_peaks``), and the searches run in lockstep."""
    if type(p) is not ndarray:
        vals = form(xs, p, *params)
        i = int(np.argmax(vals))
        best, at = float(vals[i]), float(xs[i])
        lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])
        if lo < hi:
            arg, val = golden_max(lambda x: form(x, p, *params), lo, hi, tol=1e-12)
            if val > best:
                return val, arg
        return best, at
    best, i = _row_peaks(form, xs, p, *params)
    at = xs[i]
    lo, hi = xs[np.maximum(i - 1, 0)], xs[np.minimum(i + 1, xs.size - 1)]
    refine = np.flatnonzero(lo < hi)
    if refine.size:
        ps = [q[refine] for q in (p, *params)]
        arg, val = golden_max(lambda x: form(x, *ps), lo[refine], hi[refine], tol=1e-12)
        better = val > best[refine]
        best[refine[better]] = val[better]
        at[refine[better]] = arg[better]
    return best, at


# Grid cells per form call in ``_row_peaks``: 32 rows of a 400-node grid,
# so that the per-element lists of ``_pow`` and ``_log1m_tail`` stay near
# 10k floats and no call holds a whole many-row grid's temporaries.
_BLOCK_CELLS = 32 * 400


def _row_peaks(form: Callable, nodes: ndarray, *params: ndarray):
    """For each row k the first largest of form(nodes_k, *params_k), as
    arrays (values, indices into the row's nodes).  nodes is one 1-D grid
    shared by every row, or a 2-D array with one row of nodes per row; each
    param is an array with one element per row.  form is called once per
    block of ``_BLOCK_CELLS // width`` rows, on the block's nodes and its
    params as columns; a form that gives each element the bits of its scalar
    call gives each row the bits of a row-at-a-time scan."""
    rows = params[0].size
    step = max(1, _BLOCK_CELLS // nodes.shape[-1])
    best = np.empty(rows)
    index = np.empty(rows, dtype=np.intp)
    for i in range(0, rows, step):
        block = slice(i, i + step)
        at = nodes if nodes.ndim == 1 else nodes[block]
        vals = form(at, *(q[block, None] for q in params))
        index[block] = j = np.argmax(vals, axis=1)
        best[block] = np.take_along_axis(vals, j[:, None], axis=1)[:, 0]
    return best, index


def _linspace_rows(start: float, stops, num: int) -> ndarray:
    """np.linspace(start, stop, num) for each stop, one row per stop, each
    with the bits of its own call.  ``np.linspace`` with an array stop takes
    another formula for every row once any row's step is 0, so such a set
    of stops goes one call per row."""
    stops = np.asarray(stops, dtype=np.float64)
    if np.any((stops - start) / (num - 1) == 0.0):
        return np.array([np.linspace(start, s, num) for s in stops.tolist()])
    return np.linspace(start, stops, num, axis=1)


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
    right, the end nodes' half-sum first; the order is part of the result's
    bits, since ``np.sum`` and ``math.fsum`` add in another order and round
    differently.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("integration limits must be finite")
    h = (hi - lo) / m
    total = 0.5 * (f(lo) + f(hi))
    for i in range(1, m):
        total += f(lo + i * h)
    return total * h
