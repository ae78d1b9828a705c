"""Certification suites for the sharp coefficient-sum inequalities.

Each suite replays one claim numerically as a list of rows, individual
lhs <= rhs comparisons (``BoundEvaluation``), and ``run_suite`` judges a
suite's rows once, under the grid's tolerance, into a VerdictReport:

* equality cases are encoded as paired one-sided instances (suffixes
  ``/le`` and ``/ge``) so a single acceptance rule covers bounds and
  identities alike;
* agreement-with-printed-decimals checks are budget instances whose lhs is
  the observed deviation and whose rhs is the allowed budget;
* sampled inequality tests draw Schwarz-composed test functions, whose class
  membership is guaranteed by construction (composition with a self-map of
  the disc fixing 0), never asserted from a numerical scan.

The sampled machinery rests on two classical facts that are themselves
property-tested here: coefficient prefix-sum dominance under subordination,
and the summation-by-parts upgrade from prefix dominance to weighted-sum
dominance for nonincreasing nonnegative weights.

``run_suite`` is the only judge: every other function here returns rows (or,
for ``sharpness_scan``, one row) and leaves the verdict to it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import bounds
from .bounds import (
    R_HI,
    R_THM5,
    SQRT3,
    THM2_R_LO,
    BoundEvaluation,
    bound_basic,
    bound_cor1,
    bound_prop1,
    bound_thm1_B,
    bound_thm1_B2,
    r_admissible,
    r_star,
)
from .families import (
    X_GUARD,
    X_SUP,
    _a_of_x_raw,
    _b2_max_raw,
    a_of_x,
    b2_max,
    f_n_prime,
    g_prime_coeffs,
    h_series,
    x_of_a,
)
from .numerics import (
    _log1m_tail,
    _pow,
    _trapezoid_sum,
    bisect,
    golden_max,
    sign_changes,
)
from .series import (
    KIND_DERIVATIVE,
    CoefficientSeries,
    integrate_series,
    tail_majorant_extremal,
    weighted_power_sum,
)

__all__ = [
    "ALL_SUITES",
    "DEFAULT_TOL",
    "SchwarzSpec",
    "ScanGrid",
    "VerdictReport",
    "make_subordinate",
    "verify_thm1",
    "sharpness_scan",
    "crossing_radius",
    "run_suite",
    "THM3_PRINTED_DECIMALS",
    "THM5_CASE1_PRINTED_DECIMALS",
    "thm3_surd_coefficients",
    "case1_poly_coeffs",
]

ALL_SUITES: Tuple[str, ...] = (
    "basic",
    "prop1",
    "thm1_B",
    "thm1_B2",
    "thm2",
    "thm3",
    "cor1",
    "cor2",
    "thm5",
)

# Relative tolerance of the pass rule (see ``BoundEvaluation.margin``): the
# default of ``ScanGrid.tolerance`` and ``--tol``.
DEFAULT_TOL = 1e-10

_SCHWARZ_KINDS = ("rotation", "monomial", "blaschke_product")

# Printed reference decimals for the degree-6 surd-coefficient polynomial
# (coefficients of x^1 .. x^6) and for the quartic-threshold case-1
# polynomial in y = x^2 (coefficients of y^0 .. y^5).  Comparisons use the
# precision these decimals carry, never tighter.
THM3_PRINTED_DECIMALS: Tuple[float, ...] = (
    -1.71348,
    -2.18432,
    -0.712771,
    -0.0569584,
    1.941,
    1.68096,
)
THM5_CASE1_PRINTED_DECIMALS: Tuple[float, ...] = (
    24.5695,
    -103.49,
    159.036,
    -99.9262,
    16.2316,
    3.88886,
)

_SQRT65 = math.sqrt(65.0)
_THM3_R2 = (9.0 - _SQRT65) / 6.0  # squared lower-endpoint radius


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SchwarzSpec:
    """Description of a self-map w of the disc with w(0) = 0.

    kind "rotation" uses parameters = (u,) with |u| = 1; kind "monomial" is
    z^degree; kind "blaschke_product" is z times disc-automorphism factors
    (z + c)/(1 + conj(c) z), one per parameter, each |c| <= 0.9.  Every
    instance satisfies |w(z)| <= |z| by construction.
    """

    kind: str
    parameters: Tuple[complex, ...] = ()
    degree: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _SCHWARZ_KINDS:
            raise ValueError(f"kind must be one of {_SCHWARZ_KINDS}")
        if self.kind == "rotation":
            if len(self.parameters) != 1:
                raise ValueError("rotation takes exactly one phase parameter")
            if abs(abs(self.parameters[0]) - 1.0) > 1e-12:
                raise ValueError("rotation phase must have unit modulus")
        elif self.kind == "monomial":
            if self.degree < 1:
                raise ValueError("monomial degree must be at least 1")
        else:
            if not self.parameters:
                raise ValueError("blaschke_product needs at least one factor")
            if any(abs(c) > 0.9 + 1e-12 for c in self.parameters):
                raise ValueError("blaschke factors must satisfy |c| <= 0.9")

    def coeffs(self, n: int) -> np.ndarray:
        """Taylor coefficients of w through order n (entry 0 is zero)."""
        if n < 1:
            raise ValueError("order must be at least 1")
        out = np.zeros(n + 1, dtype=np.complex128)
        if self.kind == "rotation":
            out[1] = self.parameters[0]
            return out
        if self.kind == "monomial":
            if self.degree <= n:
                out[self.degree] = 1.0
            return out
        w = np.zeros(n + 1, dtype=np.complex128)
        w[1] = 1.0  # leading z factor
        for c in self.parameters:
            factor = np.zeros(n + 1, dtype=np.complex128)
            factor[0] = c
            j = np.arange(n, dtype=np.float64)
            factor[1:] = (1.0 - abs(c) ** 2) * (-np.conj(c)) ** j
            w = np.convolve(w, factor)[: n + 1]
        return w


@dataclass(frozen=True)
class ScanGrid:
    """Parameter grids, seed, and tolerances driving the verifier sweeps."""

    x_range: Tuple[float, float, int] = (1e-3, X_SUP - 1e-3, 400)
    sample_count: int = 100
    seed: int = 42
    tolerance: float = DEFAULT_TOL  # read by run_suite only
    truncation: int = 256
    r_values: Optional[Tuple[float, ...]] = None  # explicit radius override

    def __post_init__(self) -> None:
        lo, hi, steps = self.x_range
        if not 0.0 <= lo < hi <= X_SUP or steps < 2:
            raise ValueError(
                "x grid must satisfy 0 <= lo < hi <= 1/sqrt(3) with at least "
                f"2 steps, got {self.x_range}"
            )
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if self.truncation < 8:
            raise ValueError("truncation must be at least 8")
        # The thm5 replay's case-1 grid ends at r_admissible(r), defined
        # only up to r = 1/sqrt(3).
        if self.r_values is not None and not (
            self.r_values and all(0.0 < r <= R_HI for r in self.r_values)
        ):
            raise ValueError(
                "r_values must name at least one radius, each in (0, 1/sqrt(3)]"
            )

    def x_grid(self) -> np.ndarray:
        lo, hi, steps = self.x_range
        return np.linspace(lo, hi, steps)


@dataclass
class VerdictReport:
    """Aggregated verdict of one suite: instances, worst slack, witnesses."""

    suite_id: str
    instances: List[BoundEvaluation]
    worst_slack: float
    passed: bool
    witnesses: List[Dict[str, float]]
    tolerance: float

    @classmethod
    def from_instances(
        cls,
        suite_id: str,
        instances: Sequence[BoundEvaluation],
        tolerance: float,
    ) -> "VerdictReport":
        worst = min((inst.slack for inst in instances), default=math.inf)
        witnesses = [
            {**inst.params, "instance": inst.instance_id}
            for inst in instances
            if not inst.passes(tolerance)
        ]
        return cls(
            suite_id=suite_id,
            instances=list(instances),
            worst_slack=worst,
            passed=not witnesses,
            witnesses=witnesses,
            tolerance=tolerance,
        )


# ---------------------------------------------------------------------------
# subordination machinery


def make_subordinate(
    base: CoefficientSeries, w: SchwarzSpec, n: int
) -> CoefficientSeries:
    """Coefficients of base composed with w, truncated at order n.

    Because w(0) = 0, base terms of index m contribute only to orders >= m,
    so the truncated Horner recursion is exact through order n, and each
    step need only carry the orders it can still pass on: step m works on a
    window of n-m+1 coefficients (see ``_compose_horner``).  Rotations and
    monomials take shortcuts that give Horner's result bit for bit.  The
    constant term is preserved, and when base is the derivative of a class
    member the composition stays in the class: |base(w(z))| is dominated by
    the maximum of |base| on the subdisc of radius |z|.
    """
    if base.kind != KIND_DERIVATIVE:
        raise ValueError("make_subordinate expects a derivative-kind base")
    if w.kind == "monomial":
        coeffs = _compose_monomial(base.coeffs, w.degree, n)
    elif w.kind == "rotation":
        coeffs = _compose_rotation(base.coeffs, w.parameters[0], n)
    else:
        coeffs = _compose_horner(base.coeffs, w.coeffs(n), n)
    return CoefficientSeries(coeffs, KIND_DERIVATIVE)


def _compose_horner(b: np.ndarray, wc: np.ndarray, n: int) -> np.ndarray:
    """Truncated Horner recursion for b composed with w (w(0) = 0), over a
    shrinking window.

    Once b_m is folded in, m more multiplications by w remain, and each
    raises the valuation by at least one, so only orders 0..n-m of the
    accumulator can reach the result and terms b_m with m > n never do.
    Step m convolves the accumulator, padded with one zero to length
    n-m+1, with wc[:n-m+1] and keeps that many entries.  This gives the
    full-length recursion's result bit for bit: entry k of ``np.convolve``
    is one dot product of length k+1 over acc[0..k] and wc[k..0] whatever
    the input lengths, and the padded entry meets only wc[0] == 0.
    """
    if wc[0] != 0.0:
        raise ValueError("Schwarz coefficients must vanish at the origin")
    top = min(b.size, n + 1) - 1
    buf = np.zeros(n + 1, dtype=np.complex128)  # buf[window - 1:] is never written
    acc = buf[: n - top]
    for m in range(top, -1, -1):
        window = n - m + 1
        buf[: window - 1] = acc
        acc = np.convolve(buf[:window], wc[:window])[:window]
        acc[0] += b[m]
    return acc


def _compose_monomial(b: np.ndarray, d: int, n: int) -> np.ndarray:
    """b composed with z^d: b_j moves to index j d.  Bit-identical to Horner,
    whose convolutions here only multiply by 1.0 and add exact zeros."""
    out = np.zeros(n + 1, dtype=np.complex128)
    m = min(b.size, n // d + 1)
    out[: m * d : d] = b[:m]
    return out


def _compose_rotation(b: np.ndarray, u: complex, n: int) -> np.ndarray:
    """b composed with u z: entry k is ((b_k u) u) ... u, the k successive
    products Horner makes.  Step s multiplies the tail [s:] by u once with
    Horner's float64 operations; u**k would round differently."""
    m = min(b.size, n + 1)
    out = np.zeros(n + 1, dtype=np.complex128)
    out[:m] = b[:m]
    re, im = out.real, out.imag
    ur, ui = u.real, u.imag
    for s in range(1, m):
        xr, xi = re[s:m], im[s:m]
        re[s:m], im[s:m] = xr * ur - xi * ui, xr * ui + xi * ur
    return out


def _prefix_power_sums(s: CoefficientSeries, n_max: int) -> np.ndarray:
    mags = np.abs(s.coeffs[: n_max + 1]) ** 2
    if mags.size < n_max + 1:
        mags = np.pad(mags, (0, n_max + 1 - mags.size))
    return np.cumsum(mags)


def _rogosinski_row(
    bound_id: str,
    instance_id: str,
    params: Dict[str, float],
    f: CoefficientSeries,
    g: CoefficientSeries,
    n_max: int,
) -> BoundEvaluation:
    """Row for the largest prefix excess max_n (sum |f_k|^2 - sum |g_k|^2)
    <= 0 over n <= n_max, its n recorded under "n"."""
    diff = _prefix_power_sums(f, n_max) - _prefix_power_sums(g, n_max)
    return _grid_max(bound_id, instance_id, params, "n", range(n_max + 1), diff)


def _abel_row(
    bound_id: str,
    instance_id: str,
    u: Sequence[float],
    v: Sequence[float],
    lam: Sequence[float],
) -> BoundEvaluation:
    """Row for sum lam_k u_k <= sum lam_k v_k (u, v may be signed).  Its
    preconditions, each prefix sum of u at most v's and lam nonincreasing and
    nonnegative, raise ValueError: invalid input, not a failed row."""
    ua = np.asarray(u, dtype=np.float64)
    va = np.asarray(v, dtype=np.float64)
    la = np.asarray(lam, dtype=np.float64)
    if not ua.shape == va.shape == la.shape or ua.ndim != 1 or ua.size == 0:
        raise ValueError("u, v, lam must be nonempty 1-D sequences of equal length")
    cu = np.cumsum(ua)
    cv = np.cumsum(va)
    slop = 1e-12 * (1.0 + np.abs(cv))
    if np.any(cu > cv + slop):
        raise ValueError("invalid input: prefix sums of u must be dominated by v")
    if np.any(la < -1e-15):
        raise ValueError("invalid input: lam must be nonnegative")
    if np.any(np.diff(la) > 1e-15 * (1.0 + np.abs(la[:-1]))):
        raise ValueError("invalid input: lam must be nonincreasing")
    return BoundEvaluation(
        bound_id=bound_id,
        instance_id=instance_id,
        params={"terms": float(ua.size)},
        lhs=float(np.dot(la, ua)),
        rhs=float(np.dot(la, va)),
    )


# ---------------------------------------------------------------------------
# random test-function generation (seeded, reproducible)


def _random_schwarz(rng: np.random.Generator) -> SchwarzSpec:
    roll = rng.uniform()
    if roll < 0.15:
        phase = np.exp(2j * np.pi * rng.uniform())
        return SchwarzSpec("rotation", (complex(phase),))
    if roll < 0.30:
        return SchwarzSpec("monomial", (), degree=int(rng.integers(1, 5)))
    count = int(rng.integers(1, 4))
    zeros = []
    for _ in range(count):
        radius = 0.9 * math.sqrt(rng.uniform())
        angle = 2.0 * np.pi * rng.uniform()
        zeros.append(complex(radius * np.cos(angle), radius * np.sin(angle)))
    return SchwarzSpec("blaschke_product", tuple(zeros))


def _random_bloch_prime(rng: np.random.Generator, n: int) -> CoefficientSeries:
    """A seeded class member's derivative: boundary family or monomial family."""
    if rng.uniform() < 0.7:
        return g_prime_coeffs(rng.uniform(0.02, X_SUP - 0.02), n)
    return f_n_prime(int(rng.integers(1, 7)))


# ---------------------------------------------------------------------------
# small constructors for instances


def _pair(
    bound_id: str,
    instance_id: str,
    params: Dict[str, float],
    value: float,
    reference: float,
    tail: float = 0.0,
) -> List[BoundEvaluation]:
    """Equality with tolerance, encoded as two one-sided instances."""
    return [
        BoundEvaluation(bound_id, instance_id + "/le", params, value, reference, tail),
        BoundEvaluation(bound_id, instance_id + "/ge", params, reference, value, tail),
    ]


def _prefixed(prefix: str, rows: Sequence[BoundEvaluation]) -> List[BoundEvaluation]:
    """Rows with ``prefix/`` put in front of each instance id."""
    return [
        dataclasses.replace(i, instance_id=f"{prefix}/{i.instance_id}") for i in rows
    ]


def _budget(
    bound_id: str,
    instance_id: str,
    params: Dict[str, float],
    deviation: float,
    budget: float,
) -> BoundEvaluation:
    return BoundEvaluation(bound_id, instance_id, params, abs(deviation), budget)


def _grid_max(
    bound_id: str,
    instance_id: str,
    params: Dict[str, float],
    key: str,
    nodes: Sequence[float],
    values: np.ndarray,
    rhs: float = 0.0,
) -> BoundEvaluation:
    """Row for the first largest of ``values`` <= rhs, its node recorded in
    the params under ``key``."""
    i = int(np.argmax(values))
    return BoundEvaluation(
        bound_id, instance_id, {**params, key: float(nodes[i])}, float(values[i]), rhs
    )


def _refined_max(
    f: Callable[[float], float], lo: float, hi: float
) -> Tuple[float, float]:
    """Golden-section maximum of f on [lo, hi] as (argmax, value), the value
    raised to a 200-point pre-scan's maximum where golden falls short; f
    takes a float or an array."""
    pre = f(np.linspace(lo, hi, 200))
    arg, val = golden_max(f, lo, hi, tol=1e-12)
    return arg, max(val, float(np.max(pre)))


# ---------------------------------------------------------------------------
# the boundary-family closed forms, ungated (family functional for any x r < 1)


def _family_peak(
    functional: Callable[[float, float], float],
    r: float,
    grid: ScanGrid,
) -> Tuple[float, float]:
    """Maximum of a family functional over the x grid, golden-refined.

    The grid is evaluated in one array call, which gives the bits of the
    per-point scalar calls; the golden refinement calls it with floats."""
    xs = grid.x_grid()
    vals = functional(xs, r)
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    if lo < hi:
        arg, val = golden_max(lambda x: functional(x, r), lo, hi, tol=1e-12)
        if val > vals[i]:
            return val, arg
    return float(vals[i]), float(xs[i])


def _thm5_family_lhs(x, r: float):
    a = _a_of_x_raw(x)
    return (1.0 - a * a) * bounds._thm1_B2_raw(x, r)


# The family functional each quartic bound is scanned against.
_FAMILY_LHS: Dict[str, Callable[[float, float], float]] = {
    "thm2": bounds._thm1_B_raw,
    "thm5": _thm5_family_lhs,
}


# ---------------------------------------------------------------------------
# theorem suites


def verify_thm1(x: float, r: float, grid: ScanGrid) -> List[BoundEvaluation]:
    """Equality case and sampled-subordinate inequalities of the family bound.

    The truncated coefficient sums of the boundary member must match the two
    closed forms within tolerance plus their explicit tail certificates, and
    every Schwarz-composed subordinate must satisfy both inequalities.
    """
    if not 0.0 < x < X_SUP:
        raise ValueError("x must lie in (0, 1/sqrt(3))")
    adm = r_admissible(x)
    if not 0.0 < r <= adm + 1e-12:
        raise ValueError(
            f"r={r} is not admissible for x={x}: the bound requires r <= {adm}"
        )
    n = grid.truncation
    g = g_prime_coeffs(x, n)
    gf = integrate_series(g, 0.0)
    # Per bound: the power p of its k^p r^{2k} weight, its closed form and the
    # tail certificate of the truncated sums.
    claims = (
        ("thm1_B", 2, bound_thm1_B(x, r), tail_majorant_extremal(x, r, 2, n)),
        ("thm1_B2", 1, bound_thm1_B2(x, r), tail_majorant_extremal(x, r, 1, n)),
    )
    params = {"x": x, "r": r}
    instances: List[BoundEvaluation] = []
    for bid, p, rhs, tail in claims:
        lhs = weighted_power_sum(gf, p, r, "r2k")
        instances += _pair(bid, "equality", params, lhs, rhs, tail)

    rng = np.random.default_rng((grid.seed, int(round(x * 1e6))))
    n_max = min(128, n)
    for i in range(grid.sample_count):
        spec = _random_schwarz(rng)
        comp = make_subordinate(g, spec, n)
        comp_f = integrate_series(comp, 0.0)
        sample_params = {"x": x, "r": r, "sample": float(i)}
        for bid, p, rhs, tail in claims:
            lhs = weighted_power_sum(comp_f, p, r, "r2k")
            instances.append(
                BoundEvaluation(bid, f"sample{i:03d}", sample_params, lhs, rhs, tail)
            )
        instances.append(
            _rogosinski_row("thm1_B", f"rogosinski{i:03d}", sample_params, comp, g, n_max)
        )
    return instances


def _thm2_quadratic(x, r2: float):
    """The quadratic form at the boundary pair (a(x), b2max(x)); x a float
    or an array."""
    a = _a_of_x_raw(x)
    b2 = _b2_max_raw(x)
    return (
        (1.0 - 9.0 * r2 * r2) * a * a
        + (4.0 * r2 - 12.0 * r2 * r2) * b2 * b2
        + 81.0 * r2 * r2 / 4.0
    )


def _thm2_sextic(x, r2: float):
    """The sextic whose sign decides thm2; x a float or an array."""
    x2 = x * x
    return (
        1.0
        - 2.0 * x2
        + x2 * x2
        + r2 * (-5.0 + 16.0 * x2 - 21.0 * x2 * x2 + 9.0 * _pow(x2, 3))
    )


def _thm2_rows(r: float) -> List[BoundEvaluation]:
    """Quadratic-form bound at radius r on a 1000-point x grid: the form
    against 27 r^2/4, the sextic's sign, the identity joining the two, and at
    the ends the factorization (lower) and the all-x equality (upper)."""
    bounds._check_thm_interval("thm2", r)
    r2 = r * r
    xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
    quad = _thm2_quadratic(xs, r2)
    sextic = _thm2_sextic(xs, r2)
    rhs = 27.0 * r2 / 4.0
    identity_dev = np.abs(
        (quad - rhs) - (27.0 / 4.0) * (1.0 - 3.0 * r2) * xs * xs * sextic
    )

    instances = [
        _grid_max("thm2", "quadratic_form", {"r": r}, "x", xs, quad, rhs),
        _grid_max("thm2", "sextic_sign", {"r": r}, "x", xs, sextic),
        _budget(
            "thm2",
            "identity",
            {"r": r},
            float(np.max(identity_dev)),
            1e-12,
        ),
    ]
    if abs(r - THM2_R_LO) < 1e-12:
        factored = (1.0 / 15.0) * (3.0 * xs * xs - 1.0) ** 2 * (4.0 * xs * xs - 5.0)
        instances.append(
            _budget(
                "thm2",
                "factored_form",
                {"r": r},
                float(np.max(np.abs(sextic - factored))),
                1e-12,
            )
        )
    if abs(r - R_HI) < 1e-12:
        instances.append(
            _budget(
                "thm2",
                "endpoint_equality",
                {"r": r},
                float(np.max(np.abs(quad - rhs))),
                1e-12,
            )
        )
    return instances


def thm3_surd_coefficients() -> Tuple[float, ...]:
    """Exact surd coefficients of the degree-6 polynomial (x^1 .. x^6)."""
    s = _SQRT65
    q = SQRT3
    return (
        (9.0 / 4.0) * q * (-73.0 + 9.0 * s),
        (9.0 / 8.0) * (-139.0 + 17.0 * s),
        -(9.0 / 4.0) * q * (-153.0 + 19.0 * s),
        -(9.0 / 8.0) * (-395.0 + 49.0 * s),
        18.0 * q * (-8.0 + s),
        27.0 * (-8.0 + s),
    )


def _thm3_sextic(x):
    """Horner form of the surd-coefficient sextic; x a float or an array."""
    total = 0.0
    for c in reversed(thm3_surd_coefficients()):
        total = (total + c) * x
    return total


def _thm3_raw(x: float) -> float:
    """Degree-8 display of the same expression, as an independent route."""
    s = _SQRT65
    q = SQRT3
    inner = (
        2.0 * q * (73.0 - 9.0 * s)
        + (-737.0 + 91.0 * s) * x
        + 2.0 * q * (-73.0 + 9.0 * s) * x**2
        + (1858.0 - 230.0 * s) * x**3
        + 3.0 * (-587.0 + 73.0 * s) * x**5
        - 72.0 * (-8.0 + s) * x**7
    )
    return -(9.0 * x / 8.0) * inner


def _thm3_quadratic(x: float) -> float:
    """Slack of the restricted-class bound at its lower-endpoint radius,
    evaluated through the boundary coefficient pair (b1, b2)."""
    b1 = a_of_x(x)
    b2 = b2_max(x)
    r2 = _THM3_R2
    return (
        b1 * b1
        + 4.0 * b2 * b2 * r2
        + 9.0 * r2 * r2 * ((1.5 - b1) ** 2 - (4.0 / 3.0) * b2 * b2)
        - 27.0 * r2 / 4.0
    )


def _thm3_rows() -> List[BoundEvaluation]:
    """Surd-coefficient sextic: its sign on a 1000-point grid, each exact
    coefficient against its printed decimal, and the factored form against
    two independent routes to the same quantity."""
    xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
    sextic = _thm3_sextic(xs)
    instances = [_grid_max("thm3", "negativity", {}, "x", xs, sextic)]
    for j, (exact, printed) in enumerate(
        zip(thm3_surd_coefficients(), THM3_PRINTED_DECIMALS), start=1
    ):
        instances.append(
            _budget(
                "thm3",
                f"decimal/coeff{j}",
                {"power": float(j)},
                exact - printed,
                1e-4,
            )
        )
    samples = np.linspace(0.02, X_SUP - 0.02, 25)
    worst_factor = 0.0
    worst_quad = 0.0
    for x in samples:
        raw = _thm3_raw(x)
        scale = 1.0 + abs(raw)
        factored = (1.0 - SQRT3 * x) ** 2 * _thm3_sextic(x)
        worst_factor = max(worst_factor, abs(raw - factored) / scale)
        worst_quad = max(worst_quad, abs(raw - _thm3_quadratic(x)) / scale)
    instances.append(_budget("thm3", "factor_vs_raw", {}, worst_factor, 1e-10))
    instances.append(_budget("thm3", "quadratic_vs_raw", {}, worst_quad, 1e-10))
    return instances


def _cor2_h(a: float, w):
    """H_a(w); w a float or an array."""
    c = 4.0 * a * a / 9.0
    return (1.0 - c) ** 2 * _log1m_tail(w) - w * w / 2.0


def _cor2_reduced(v):
    """H at the right endpoint, divided by (1 - v)^2; v a float or an array."""
    return _log1m_tail(v) - v * v / (2.0 * _pow(1.0 - v, 2))


def _cor2_rows() -> List[BoundEvaluation]:
    """H_a(w) = (1 - 4a^2/9)^2 (-log(1-w) - w) - w^2/2 <= 0 on [0, 4a^2/9]
    (a 200 x 200 grid), its right-endpoint reduction to one variable on
    [0, 4/9] (200 points), and the substitution identity at sampled a."""
    worst_val = -math.inf
    worst_at = (0.0, 0.0)
    # One a-row per array call; a later row must beat the maximum strictly,
    # so the first maximum in row-major order wins.
    for a in np.linspace(1e-3, 1.0 - 1e-3, 200):
        c = 4.0 * a * a / 9.0
        ws = np.linspace(0.0, c, 200)
        vals = _cor2_h(a, ws)
        j = int(np.argmax(vals))
        if vals[j] > worst_val:
            worst_val = vals[j]
            worst_at = (float(a), float(ws[j]))
    instances = [
        BoundEvaluation(
            "cor2",
            "h_grid",
            {"a": worst_at[0], "w": worst_at[1]},
            worst_val,
            0.0,
        )
    ]
    vs = np.linspace(0.0, 4.0 / 9.0, 200)
    reduced = _cor2_reduced(vs)
    instances.append(_grid_max("cor2", "reduced_grid", {}, "v", vs, reduced))
    instances.append(
        BoundEvaluation(
            "cor2",
            "reduced_endpoint",
            {"v": 4.0 / 9.0},
            _cor2_reduced(4.0 / 9.0),
            0.0,
        )
    )
    for a in (0.2, 0.4, 0.6, 0.75, 0.9):
        c = 4.0 * a * a / 9.0
        dev = _cor2_h(a, c) - (1.0 - c) ** 2 * _cor2_reduced(c)
        instances.append(
            _budget("cor2", f"reduction_identity/a={a:.2f}", {"a": a}, dev, 1e-12)
        )
    # Derivative sign pattern supporting the endpoint reduction: the only
    # zero of H_a' is at w = 2c - c^2 > c, so H_a decreases on (0, c] and
    # its maximum over the interval sits at w = 0, where H_a vanishes.
    a = 0.6
    c = 4.0 * a * a / 9.0
    hprime = lambda w: (1.0 - c) ** 2 * w / (1.0 - w) - w
    brackets = sign_changes(hprime, 1e-6, c * (1.0 - 1e-9), 512)
    instances.append(
        BoundEvaluation(
            "cor2",
            "hprime_sign_changes",
            {"a": a},
            float(len(brackets)),
            0.0,
        )
    )
    return instances


def case1_poly_coeffs(r: float = R_THM5) -> np.ndarray:
    """Coefficients (in y = x^2) of the case-1 comparison polynomial.

    P(y) = (1 - a^2(y)) (1 - y)^2 (2y + r^2 (1 + 2(r^2 - 3) y + y^2))
           - r^2 (1 - r^2 y)^4,
    where a^2(y) = (27/4) y (1 - y)^2.  The slack of the case-1 inequality
    is (27 r^2 / (8 (1 - r^2 x^2)^4)) P(x^2), so nonpositivity of P settles
    the case.  At the threshold radius the y^0 and y^1 coefficients vanish
    and -4 P(y)/y^2 is the degree-5 polynomial whose decimals are checked.
    """
    r2 = r * r
    a2 = npoly.polymul([0.0, 27.0 / 4.0], npoly.polypow([1.0, -1.0], 2))
    one_m_a2 = npoly.polysub([1.0], a2)
    bracket = npoly.polyadd(
        [0.0, 2.0], npoly.polymul([r2], [1.0, 2.0 * (r2 - 3.0), 1.0])
    )
    return npoly.polysub(
        npoly.polymul(npoly.polymul(one_m_a2, npoly.polypow([1.0, -1.0], 2)), bracket),
        npoly.polymul([r2], npoly.polypow([1.0, -r2], 4)),
    )


def _thm5_case2_lhs(a, r: float):
    """Case-2 product bound of thm5 for the first coefficient a (a float or
    an array): (1 - a^2)(a^2 r^2 + ((9 - 4a^2)^2 / 12)(log(1/(1-r^2)) - r^2))."""
    r2 = r * r
    log_term = math.log(1.0 / (1.0 - r2)) - r2
    q2 = _pow(9.0 - 4.0 * a * a, 2)
    return (1.0 - a * a) * (a * a * r2 + (q2 / 12.0) * log_term)


def _thm5_case3_lhs(a, r: float):
    """Case-3 product (1 - a^2)(a^2 r^2 + (27/8) r^4); a a float or an array."""
    r2 = r * r
    return (1.0 - a * a) * (a * a * r2 + 27.0 * r2 * r2 / 8.0)


def _thm5_rows(
    grid: ScanGrid, r: float, x_case: float, upper: Tuple[float, float]
) -> List[BoundEvaluation]:
    """The three-case proof of the product bound replayed at radius r, given
    x_case = x_of_a(3/5) and the family peak at R_HI as (value, argmax).

    Case 1 (a <= 3/5, family bound): the comparison polynomial's sign, the
    interval chain and the printed decimals.  Case 2 (logarithmic bound):
    the maximum and its stated location.  Case 3: direct maximization.  Ring
    rows pin the bound at both boundary radii (the maximum principle)."""
    r2 = r * r
    rhs = 27.0 * r2 * r2 / 8.0
    instances: List[BoundEvaluation] = []

    # Case 1: the hypothesis a <= 3/5 confines x below 1/4, where the
    # admissible radius stays above 0.38 and hence above the threshold.
    instances.append(
        BoundEvaluation("thm5", "case1/x_boundary", {"a": 0.6}, x_case, 0.25)
    )
    instances.append(
        BoundEvaluation(
            "thm5",
            "case1/admissible_floor",
            {"x": 0.25},
            0.38,
            r_admissible(0.25),
        )
    )
    instances.append(
        BoundEvaluation("thm5", "case1/radius_below_floor", {"r": r}, r, 0.38)
    )
    x_hi = min(0.25, r_admissible(r) - 1e-9)
    xs = np.linspace(X_GUARD, x_hi, 400)
    dvals = _thm5_family_lhs(xs, r) - rhs
    instances.append(_grid_max("thm5", "case1/negativity", {"r": r}, "x", xs, dvals))
    if abs(r - R_THM5) < 1e-12:
        q = -4.0 * case1_poly_coeffs(r)[2:]  # -4 P(y)/y^2, y^0 .. y^5
        for j, (got, printed) in enumerate(zip(q, THM5_CASE1_PRINTED_DECIMALS)):
            instances.append(
                _budget(
                    "thm5",
                    f"case1/decimal{j}",
                    {"power": float(j)},
                    (got - printed) / abs(printed),
                    1e-3,
                )
            )

    # Case 2: logarithmic envelope on 3/5 <= a <= 3/4.
    arg2, best2 = _refined_max(lambda a: _thm5_case2_lhs(a, r), 0.6, 0.75)
    instances.append(
        BoundEvaluation("thm5", "case2/max_value", {"r": r, "a": arg2}, best2, rhs)
    )
    instances.append(
        BoundEvaluation(
            "thm5",
            "case2/argmax_location",
            {"r": r, "argmax": arg2},
            abs(arg2 - 0.75),
            1e-6,
        )
    )

    # Case 3: direct maximization on 3/4 <= a <= 1.
    arg3, best3 = _refined_max(lambda a: _thm5_case3_lhs(a, r), 0.75, 1.0)
    instances.append(
        BoundEvaluation("thm5", "case3/max_value", {"r": r, "a": arg3}, best3, rhs)
    )

    # Ring instances: the inequality over the whole family at both ends.
    peak_lo, x_lo = _family_peak(_thm5_family_lhs, r, grid)
    instances.append(
        BoundEvaluation("thm5", "ring/lower", {"r": r, "x": x_lo}, peak_lo, rhs)
    )
    peak_hi, x_hi_ring = upper
    instances.append(
        BoundEvaluation(
            "thm5",
            "ring/upper",
            {"r": R_HI, "x": x_hi_ring},
            peak_hi,
            bounds._thm_rhs_raw("thm5", R_HI),
        )
    )
    return instances


def _scan_functional(bound_id: str, *radii: float) -> Callable[[float, float], float]:
    """The family functional scanned against ``bound_id``, once the id is
    known and every radius lies in (0, 1), where the functionals live."""
    if bound_id not in _FAMILY_LHS:
        raise ValueError("sharpness scans support bound ids 'thm2' and 'thm5'")
    if not all(0.0 < r < 1.0 for r in radii):
        raise ValueError("r must lie in (0, 1)")
    return _FAMILY_LHS[bound_id]


def sharpness_scan(bound_id: str, r: float, grid: ScanGrid) -> BoundEvaluation:
    """Row for the relevant family functional's maximum at radius r against
    the bound.

    A positive slack deficit (lhs above rhs) is a sharpness witness: the
    quartic bound fails at this radius.  Nonpositive is consistent with
    validity.  The scan ranges over the whole family; its members lie in
    the class at every radius below 1.
    """
    peak, arg = _family_peak(_scan_functional(bound_id, r), r, grid)
    rhs = bounds._thm_rhs_raw(bound_id, r)
    return BoundEvaluation(bound_id, f"scan/r={r:.8f}", {"r": r, "x": arg}, peak, rhs)


def crossing_radius(
    bound_id: str,
    r_lo: float,
    r_hi: float,
    grid: ScanGrid,
    tol: float = 1e-10,
):
    """Bisect the radius where the family peak crosses the quartic bound."""
    functional = _scan_functional(bound_id, r_lo, r_hi)

    def slack_deficit(r: float) -> float:
        peak, _ = _family_peak(functional, r, grid)
        return peak - bounds._thm_rhs_raw(bound_id, r)

    return bisect(slack_deficit, r_lo, r_hi, tol=tol)


# ---------------------------------------------------------------------------
# suite runners (one per report tag): each returns its suite's rows, and
# run_suite judges them once


def _suite_basic(grid: ScanGrid) -> List[BoundEvaluation]:
    from .series import circle_mean_square, derivative_series

    rng = np.random.default_rng((grid.seed, 0))
    instances: List[BoundEvaluation] = []
    order = 64
    for i in range(10):
        coeffs = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        f = CoefficientSeries(coeffs, "function")
        fp = derivative_series(f)
        for r in (0.3, 0.6, 0.9):
            total = weighted_power_sum(f, 2, r, "r2k_minus_2")
            circle = circle_mean_square(fp, r, 2 * fp.order + 2)
            instances.append(
                _budget(
                    "basic",
                    f"parseval/s{i:02d}/r={r:.1f}",
                    {"sample": float(i), "r": r},
                    circle - total,
                    1e-12 * (1.0 + total),
                )
            )
    for n in range(1, 7):
        rn = r_star(n)
        fn = integrate_series(f_n_prime(n), 0.0)
        total = weighted_power_sum(fn, 2, rn, "r2k_minus_2")
        instances += _pair(
            "basic",
            f"contact_equality/n={n}",
            {"n": float(n), "r": rn},
            total,
            bound_basic(rn),
        )
    f1 = integrate_series(f_n_prime(1), 0.0)
    for r in (0.2, 0.4, r_star(1)):
        instances.append(
            BoundEvaluation(
                "basic",
                f"envelope/r={r:.6f}",
                {"r": r},
                weighted_power_sum(f1, 2, r, "r2k_minus_2"),
                bound_basic(r),
            )
        )
    return instances


def _suite_prop1(grid: ScanGrid) -> List[BoundEvaluation]:
    rng = np.random.default_rng((grid.seed, 1))
    instances: List[BoundEvaluation] = []
    for n in range(1, 7):
        rn = r_star(n)
        fn = integrate_series(f_n_prime(n), 0.0)
        for frac in (0.5, 0.9, 1.0):
            r = frac * rn
            tail = weighted_power_sum(fn, 2, r, "r2k_minus_2", k_min=n + 1)
            instances += _pair(
                "prop1",
                f"contact/n={n}/f={frac:.1f}",
                {"n": float(n), "r": r},
                tail,
                bound_prop1(n, r),
            )
    sample_total = max(5, grid.sample_count // 5)
    for i in range(sample_total):
        base = _random_bloch_prime(rng, grid.truncation)
        spec = _random_schwarz(rng)
        comp = make_subordinate(base, spec, grid.truncation)
        comp_f = integrate_series(comp, 0.0)
        for n in range(1, 7):
            # The radius of largest excess tail - cap; max keeps the first.
            tail_w, cap_w, r_w = max(
                (
                    (weighted_power_sum(comp_f, 2, r, "r2k_minus_2", k_min=n + 1),
                     bound_prop1(n, r), r)
                    for r in np.linspace(0.15, r_star(n), 5)
                ),
                key=lambda t: t[0] - t[1],
            )
            instances.append(
                BoundEvaluation(
                    "prop1",
                    f"sample{i:02d}/n={n}",
                    {"sample": float(i), "n": float(n), "r": float(r_w)},
                    tail_w,
                    cap_w,
                )
            )
    return instances


_THM1_XS = (0.1, 0.2, 0.3)


def _thm1_rows(
    grid: ScanGrid, shared: Dict[str, object]
) -> Dict[str, List[BoundEvaluation]]:
    """The thm1 rows split by bound id, built once per ``shared`` dict."""
    if "thm1" not in shared:
        per_x = dataclasses.replace(
            grid, sample_count=max(3, grid.sample_count // len(_THM1_XS))
        )
        rows: Dict[str, List[BoundEvaluation]] = {"thm1_B": [], "thm1_B2": []}
        for x in _THM1_XS:
            thm1 = verify_thm1(x, 0.9 * r_admissible(x), per_x)
            for inst in _prefixed(f"x={x:.1f}", thm1):
                rows[inst.bound_id].append(inst)
        shared["thm1"] = rows
    return shared["thm1"]


def _thm1_B2_quadrature(x: float, r: float) -> float:
    """The integral of B(x, sqrt(u))/u over [0, r^2] by a 4096-subinterval
    trapezoid.  Its nodes i h (i = 1 .. 4095) and its upper end r^2 are
    valued in one array call, each with the bits of a scalar call, and
    ``_trapezoid_sum`` adds them in ``trapezoid``'s order; at u = 0 the
    integrand is its limit a(x)^2."""
    hi = r * r
    h = hi / 4096
    us = np.append(np.arange(1, 4096) * h, hi)
    vals = (bounds._thm1_B_raw(x, np.sqrt(us)) / us).tolist()
    return _trapezoid_sum(a_of_x(x) ** 2, vals[-1], vals[:-1], h)


def _suite_thm1_B2(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
    instances = list(_thm1_rows(grid, shared)["thm1_B2"])
    for x in (0.05, 0.1, 0.15, 0.2, 0.25):
        for frac in (0.5, 0.7, 0.9, 1.0):
            r = frac * r_admissible(x)
            instances.append(
                _budget(
                    "thm1_B2",
                    f"integral/x={x:.2f}/f={frac:.1f}",
                    {"x": x, "r": r},
                    _thm1_B2_quadrature(x, r) - bound_thm1_B2(x, r),
                    1e-8,
                )
            )
    return instances


def _suite_thm2(grid: ScanGrid) -> List[BoundEvaluation]:
    instances: List[BoundEvaluation] = []
    for r in (THM2_R_LO, 0.55, R_HI):
        instances += _prefixed(f"r={r:.6f}", _thm2_rows(r))
    return instances


def _phi_weighted_functional(phi: CoefficientSeries, r: float) -> float:
    """The k >= 2 area-sum functional expressed through the dilated series.

    With phi the derivative series rescaled to the radius-1/sqrt(3) frame,
    the k-th area term equals (3 r^2)^k |phi_{k-1}|^2 / (3 k).
    """
    w = 3.0 * r * r
    j = np.arange(1, phi.coeffs.size, dtype=np.float64)
    mags = np.abs(phi.coeffs[1:]) ** 2
    return float(np.sum(mags * w ** (j + 1.0) / (3.0 * (j + 1.0))))


def _cor1_tail_certificate(a: float, r: float, n: int) -> float:
    """Bound on what ``_phi_weighted_functional`` drops from the majorant
    series truncated at order n.

    With lead = ((9 - 4a^2)/6)^2 and t = 4 a^2 r^2 / 3 (below 4/9 for
    a < 1 and r <= 1/sqrt(3)), the dropped terms j >= n+1 are
    lead (3 r^2)^2 t^(j-1) / (3 (j+1)), at most
    lead (3 r^2)^2 t^n / (3 (n+2) (1-t)) in total.
    """
    t = 4.0 * a * a * r * r / 3.0
    lead = ((9.0 - 4.0 * a * a) / 6.0) ** 2
    return lead * (3.0 * r * r) ** 2 * t**n / (3.0 * (n + 2) * (1.0 - t))


def _suite_cor1(grid: ScanGrid) -> List[BoundEvaluation]:
    rng = np.random.default_rng((grid.seed, 2))
    n = grid.truncation
    instances: List[BoundEvaluation] = []
    for a in (0.3, 0.5, 0.75):
        h = h_series(a, n)
        for r in (0.2, 0.35, 0.55):
            lhs = _phi_weighted_functional(h, r)
            cert = _cor1_tail_certificate(a, r, n)
            instances += _pair(
                "cor1",
                f"equality/a={a:.2f}/r={r:.2f}",
                {"a": a, "r": r},
                lhs,
                bound_cor1(a, r),
                cert,
            )
        ref = (9.0 - 4.0 * a * a) ** 2 / 24.0
        r_small = 1e-3
        dev = bound_cor1(a, r_small) / r_small**4 - ref
        instances.append(
            _budget(
                "cor1",
                f"taylor/a={a:.2f}",
                {"a": a, "r": r_small},
                dev / ref,
                1e-6,
            )
        )
    n_max = min(128, n)
    for i in range(max(5, grid.sample_count // 2)):
        a = float(rng.uniform(0.15, 0.9))
        r = float(rng.uniform(0.1, R_HI))
        h = h_series(a, n)
        spec = _random_schwarz(rng)
        phi = make_subordinate(h, spec, n)
        instances.append(
            BoundEvaluation(
                "cor1",
                f"sample{i:02d}",
                {"a": a, "r": r, "sample": float(i)},
                _phi_weighted_functional(phi, r),
                bound_cor1(a, r),
                _cor1_tail_certificate(a, r, n),
            )
        )
        instances.append(
            _rogosinski_row("cor1", f"rogosinski{i:02d}", {"a": a}, phi, h, n_max)
        )
    lam_r = 0.5
    for t in range(25):
        m = 12
        v = rng.uniform(0.0, 1.0, m)
        d = np.cumsum(rng.uniform(0.0, 0.5, m))
        u = v - np.diff(np.concatenate(([0.0], d)))
        k = np.arange(1, m + 1, dtype=np.float64)
        lam = (3.0 * lam_r * lam_r) ** k / k
        instances.append(_abel_row("cor1", f"abel/t{t:02d}", u, v, lam))
    return instances


def _suite_thm5(grid: ScanGrid) -> List[BoundEvaluation]:
    x_case = x_of_a(0.6)
    upper = _family_peak(_thm5_family_lhs, R_HI, grid)
    if grid.r_values is None:
        return _thm5_rows(grid, R_THM5, x_case, upper)
    instances: List[BoundEvaluation] = []
    for r in grid.r_values:
        instances += _prefixed(f"r={r:.6f}", _thm5_rows(grid, r, x_case, upper))
    return instances


_SUITE_RUNNERS: Dict[str, Callable[..., List[BoundEvaluation]]] = {
    "basic": _suite_basic,
    "prop1": _suite_prop1,
    "thm1_B": lambda grid, shared: _thm1_rows(grid, shared)["thm1_B"],
    "thm1_B2": _suite_thm1_B2,
    "thm2": _suite_thm2,
    "thm3": lambda grid: _thm3_rows(),
    "cor1": _suite_cor1,
    "cor2": lambda grid: _cor2_rows(),
    "thm5": _suite_thm5,
}


def run_suite(
    suite_id: str, grid: ScanGrid, shared: Optional[Dict[str, object]] = None
) -> VerdictReport:
    """Run one certification suite by its report tag and judge its rows under
    ``grid.tolerance``.  The thm1_B and thm1_B2 suites share their thm1 rows
    through ``shared``, one dict per run."""
    if suite_id not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite id {suite_id!r}; known: {ALL_SUITES}")
    if suite_id in ("thm1_B", "thm1_B2"):
        rows = _SUITE_RUNNERS[suite_id](grid, {} if shared is None else shared)
    else:
        rows = _SUITE_RUNNERS[suite_id](grid)
    return VerdictReport.from_instances(suite_id, rows, grid.tolerance)
