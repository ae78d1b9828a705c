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
  the disc fixing 0), never asserted from a numerical scan;
* only the equality rows of the extremal ``G_x`` and ``H_a`` carry a tail
  certificate, for what truncation drops from those series; a composed
  sample's truncated sums are compared as computed.

The sampled machinery rests on two classical facts: coefficient prefix-sum
dominance under subordination, which the ``rogosinski`` rows check for each
sample against its own base, and the summation-by-parts upgrade from prefix
dominance to weighted-sum dominance for nonincreasing nonnegative weights,
which the test suite property-tests.

``run_suite`` is the only judge: every other function here returns rows (or,
for ``sharpness_scan``, one row) and leaves the verdict to it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
    _grid_refined_max,
    _horner,
    _is_integer,
    _linspace_rows,
    _log1m_tail,
    _pow,
    _row_peaks,
    bisect,
    sign_changes,
)
from .series import (
    KIND_DERIVATIVE,
    CoefficientSeries,
    _class_tail,
    _compose_horner,
    _compose_monomial,
    _cor1_class_tail,
    _cor1_tail_certificate,
    _phi_weighted_functional,
    circle_mean_square,
    derivative_series,
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

# Relative tolerance of the pass rule (see ``BoundEvaluation.margin``): the
# default of ``ScanGrid.tolerance`` and ``--tol``.
DEFAULT_TOL = 1e-10

_SCHWARZ_KINDS = ("rotation", "monomial", "blaschke_product")

# The last order a Rogosinski row reads, and the least a sample composes to.
_N_MAX = 128

# The longest complex128 array NumPy can index; truncations and steps stay below.
_MAX_LEN = np.iinfo(np.intp).max // 16

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

# The x grid on which thm2 and thm3 take their maxima.
_X_GRID = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)

# F = (3 sqrt(3)/4) z^2, a class member with b_1 = 0 (so thm5's factor
# 1 - |b_1|^2 is 1) whose sums are thm2's and thm5's quartics at every r.
_SHARP_Z2 = integrate_series(f_n_prime(1))


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class SchwarzSpec:
    """Description of a self-map w of the disc with w(0) = 0.

    kind "rotation" uses parameters = (u,) with |u| = 1; kind "monomial" is
    z^degree, with no parameters; kind "blaschke_product" is z times
    disc-automorphism factors (z + c)/(1 + conj(c) z), one per parameter,
    each |c| <= 0.9.  Only a monomial takes a degree other than 1.  Every
    instance satisfies |w(z)| <= |z| by construction.
    """

    kind: str
    parameters: Tuple[complex, ...] = ()
    degree: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _SCHWARZ_KINDS:
            raise ValueError(f"kind must be one of {_SCHWARZ_KINDS}")
        if not all(math.isfinite(abs(c)) for c in self.parameters):
            raise ValueError("parameters must be finite")
        if not _is_integer(self.degree):
            raise ValueError("degree must be an integer")
        if self.kind != "monomial" and self.degree != 1:
            raise ValueError(f"{self.kind} takes no degree other than 1")
        if self.kind == "rotation":
            if len(self.parameters) != 1:
                raise ValueError("rotation takes exactly one phase parameter")
            if abs(abs(self.parameters[0]) - 1.0) > 1e-12:
                raise ValueError("rotation phase must have unit modulus")
        elif self.kind == "monomial":
            if self.parameters:
                raise ValueError("monomial takes no parameters")
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


def _radius_label(r: float) -> str:
    """The ``r=...`` row-id part naming a radius, at six decimals."""
    return f"r={r:.6f}"


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
        sizes = (self.truncation, self.seed, self.sample_count, steps)
        if not all(map(_is_integer, sizes)):
            raise ValueError(
                "truncation, seed, sample_count and the x_range step count must "
                f"be integers, got {sizes}"
            )
        if not 0.0 <= lo < hi <= X_SUP or not 2 <= steps < _MAX_LEN:
            raise ValueError(
                "x grid must satisfy 0 <= lo < hi <= 1/sqrt(3) with at least "
                f"2 steps and fewer than {_MAX_LEN}, got {self.x_range}"
            )
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.sample_count < 1:
            raise ValueError("sample_count must be positive")
        if not 8 <= self.truncation < _MAX_LEN:
            raise ValueError(f"truncation must be at least 8 and below {_MAX_LEN}")
        # The thm5 replay's case-1 grid ends at r_admissible(r), defined
        # only up to r = 1/sqrt(3).
        if self.r_values is not None and not (
            self.r_values and all(0.0 < r <= R_HI for r in self.r_values)
        ):
            raise ValueError(
                "r_values must name at least one radius, each in (0, 1/sqrt(3)]"
            )
        # The thm5 replay's row ids name each radius by its label.
        labels: Dict[str, float] = {}
        for r in self.r_values or ():
            label = _radius_label(r)
            if label in labels:
                raise ValueError(
                    f"r_values {labels[label]!r} and {r!r} share the row-id "
                    f"label {label}"
                )
            labels[label] = r

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
    window of n-m+1 coefficients (see ``_compose_horner``).  A rotation u z
    hands Horner only its two coefficients [0, u], and a monomial takes a
    scatter that gives Horner's coefficients exactly.  The constant term is
    preserved, and when base is the derivative of a class member the
    composition stays in the class: |base(w(z))| is dominated by the
    maximum of |base| on the subdisc of radius |z|.
    """
    if base.kind != KIND_DERIVATIVE:
        raise ValueError("make_subordinate expects a derivative-kind base")
    if not _is_integer(n) or n < 1:
        raise ValueError(f"order must be an integer of at least 1, got {n!r}")
    if w.kind == "monomial":
        coeffs = _compose_monomial(base.coeffs, w.degree, n)
    else:
        wc = w.coeffs(1 if w.kind == "rotation" else n)
        coeffs = _compose_horner(base.coeffs, wc, n)
    return CoefficientSeries(coeffs, KIND_DERIVATIVE)


def _sample(
    base: CoefficientSeries, spec: SchwarzSpec, n: int, sums: Callable, tails: Callable
) -> Tuple[CoefficientSeries, Sequence[float]]:
    """``make_subordinate(base, spec, n)`` with the orders above m set to 0,
    and ``sums`` of it, the rows' sums.  ``tails(orders)`` bounds each row's
    tail beyond each of ``orders``, one row per sum, and m is the least
    order >= _N_MAX where each is below 2^-60 of the row's sum over the
    order _N_MAX composition (a lower bound: the terms are nonnegative); or
    n if none is, or n <= _N_MAX.  Entry k of a composition is the same
    float computation at every order >= k (see ``_compose_horner``), and
    the zeros keep the sums' length and so their pairwise blocking: the
    rows keep their bits."""
    comp = make_subordinate(base, spec, min(n, _N_MAX))
    if n > _N_MAX:
        orders = np.arange(_N_MAX, n)
        lower = np.reshape(sums(comp), (-1, 1))
        tail = np.reshape(tails(orders), (lower.size, -1))
        read = np.all(tail < 2.0**-60 * lower, axis=0)
        m = int(orders[np.argmax(read)]) if read.any() else n
        if m > _N_MAX:
            comp = make_subordinate(base, spec, m)
        comp = CoefficientSeries(np.pad(comp.coeffs, (0, n - m)), KIND_DERIVATIVE)
    return comp, sums(comp)


def _prefix_power_sums(s: CoefficientSeries, n_max: int) -> np.ndarray:
    mags = np.abs(s.coeffs[: n_max + 1]) ** 2
    return np.cumsum(np.pad(mags, (0, n_max + 1 - mags.size)))


def _rogosinski_row(
    bound_id: str,
    instance_id: str,
    params: Dict[str, float],
    f: CoefficientSeries,
    g: CoefficientSeries,
    n: int,
) -> BoundEvaluation:
    """Row for the largest prefix excess max_k (sum |f_j|^2 - sum |g_j|^2)
    <= 0 over k <= min(n, _N_MAX), its k recorded under "n"."""
    n = min(n, _N_MAX)
    diff = _prefix_power_sums(f, n) - _prefix_power_sums(g, n)
    return _grid_max(bound_id, instance_id, params, "n", range(n + 1), diff)


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


# ---------------------------------------------------------------------------
# the boundary-family closed forms, ungated (family functional for any x r < 1)


def _family_peak(functional: Callable, r, grid: ScanGrid):
    """Maximum of a family functional over the x grid, golden-refined, as
    (value, argmax); r a float, or an array of radii for arrays of both,
    whose golden searches run in lockstep (see ``_grid_refined_max``)."""
    return _grid_refined_max(functional, grid.x_grid(), r)


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
    every Schwarz-composed subordinate must satisfy both inequalities with
    no tail (G_x's tails do not bound a composition's).
    """
    if not 0.0 < x < X_SUP:
        raise ValueError("x must lie in (0, 1/sqrt(3))")
    adm = r_admissible(x)
    if not 0.0 < r <= adm + bounds._EDGE:
        raise ValueError(
            f"r={r} is not admissible for x={x}: the bound requires r <= {adm}"
        )
    n = grid.truncation
    g = g_prime_coeffs(x, n)
    # Per bound: the power p of its k^p r^{2k} weight and its closed form.
    claims = (("thm1_B", 2, bound_thm1_B(x, r)), ("thm1_B2", 1, bound_thm1_B2(x, r)))

    def sums(s):
        f = integrate_series(s, 0.0)
        return [weighted_power_sum(f, p, r, "r2k") for _, p, _ in claims]

    def tails(orders):
        return np.array([_class_tail(orders, r, p) for _, p, _ in claims])

    params = {"x": x, "r": r}
    instances: List[BoundEvaluation] = []
    for (bid, p, rhs), lhs in zip(claims, sums(g)):
        tail = tail_majorant_extremal(x, r, p, n)
        instances += _pair(bid, "equality", params, lhs, rhs, tail)

    rng = np.random.default_rng((grid.seed, int(round(x * 1e6))))
    for i in range(grid.sample_count):
        comp, lhs = _sample(g, _random_schwarz(rng), n, sums, tails)
        sample_params = {"x": x, "r": r, "sample": float(i)}
        for (bid, _, rhs), value in zip(claims, lhs):
            instances.append(BoundEvaluation(bid, f"sample{i:03d}", sample_params, value, rhs))
        instances.append(
            _rogosinski_row("thm1_B", f"rogosinski{i:03d}", sample_params, comp, g, n)
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


def _sharp_z2(bound_id: str, p: int, r: float, row_id: str) -> List[BoundEvaluation]:
    """Equality of z^2's sum of k^p |b_k|^2 r^2k and the quartic at r."""
    lhs = weighted_power_sum(_SHARP_Z2, p, r)
    return _pair(bound_id, row_id, {"r": r}, lhs, bounds._thm_rhs_raw(bound_id, r))


def _thm2_rows(r: float) -> List[BoundEvaluation]:
    """Quadratic-form bound at radius r on a 1000-point x grid: the form
    against 27 r^2/4, the sextic's sign, the identity joining the two, the
    z^2 equality, and at the ends the factorization (lower) and the all-x
    equality (upper)."""
    bounds._check_thm_interval("thm2", r)
    r2 = r * r
    xs = _X_GRID
    quad = _thm2_quadratic(xs, r2)
    sextic = _thm2_sextic(xs, r2)
    scale = bounds.RHS_SCALE["thm2"]
    rhs = scale * r2
    identity_dev = np.abs((quad - rhs) - scale * (1.0 - 3.0 * r2) * xs * xs * sextic)

    instances = [
        _grid_max("thm2", "quadratic_form", {"r": r}, "x", xs, quad, rhs),
        _grid_max("thm2", "sextic_sign", {"r": r}, "x", xs, sextic),
        _budget("thm2", "identity", {"r": r}, float(np.max(identity_dev)), 1e-12),
        *_sharp_z2("thm2", 2, r, "sharp/z2"),
    ]
    if abs(r - THM2_R_LO) < bounds._EDGE:
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
    if abs(r - R_HI) < bounds._EDGE:
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
    return x * _horner(thm3_surd_coefficients(), x)


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
    r2 = bounds._THM3_R2
    return (
        b1 * b1
        + 4.0 * b2 * b2 * r2
        + 9.0 * r2 * r2 * ((1.5 - b1) ** 2 - (4.0 / 3.0) * b2 * b2)
        - bounds.RHS_SCALE["thm3"] * r2
    )


def _thm3_rows() -> List[BoundEvaluation]:
    """Surd-coefficient sextic: its sign on a 1000-point grid, each exact
    coefficient against its printed decimal, and the factored form against
    two independent routes to the same quantity."""
    sextic = _thm3_sextic(_X_GRID)
    instances = [_grid_max("thm3", "negativity", {}, "x", _X_GRID, sextic)]
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
    return _pow(1.0 - c, 2) * _log1m_tail(w) - w * w / 2.0


def _cor2_reduced(v):
    """H at the right endpoint, divided by (1 - v)^2; v a float or an array."""
    return _log1m_tail(v) - v * v / (2.0 * _pow(1.0 - v, 2))


def _cor2_rows() -> List[BoundEvaluation]:
    """H_a(w) = (1 - 4a^2/9)^2 (-log(1-w) - w) - w^2/2 <= 0 on [0, 4a^2/9]
    (a 200 x 200 grid), its right-endpoint reduction to one variable on
    [0, 4/9] (200 points), and the substitution identity at sampled a."""
    # A block of a-rows per array call, each row on its own w-nodes; the
    # first row with the largest row maximum wins, so the first maximum in
    # row-major order does, as in a strict `>` scan.
    a_s = np.linspace(1e-3, 1.0 - 1e-3, 200)
    ws = _linspace_rows(0.0, 4.0 * a_s * a_s / 9.0, 200)
    vals, j = _row_peaks(lambda w, a: _cor2_h(a, w), ws, a_s)
    k = int(np.argmax(vals))
    at = {"a": float(a_s[k]), "w": float(ws[k, j[k]])}
    instances = [BoundEvaluation("cor2", "h_grid", at, vals[k], 0.0)]
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


def case1_poly_coeffs() -> np.ndarray:
    """Coefficients (in y = x^2, low order first) of the case-1 comparison
    polynomial at the threshold radius r = R_THM5.

    P(y) = (1 - a^2(y)) (1 - y)^2 (2y + r^2 (1 + 2(r^2 - 3) y + y^2))
           - r^2 (1 - r^2 y)^4,
    where a^2(y) = (27/4) y (1 - y)^2.  The slack of the case-1 inequality
    is (27 r^2 / (8 (1 - r^2 x^2)^4)) P(x^2), so nonpositivity of P settles
    the case.  At this radius the y^0 and y^1 coefficients vanish and
    -4 P(y)/y^2 is the degree-5 polynomial whose decimals are checked.
    """
    r2 = R_THM5 * R_THM5
    one_m_a2 = [1.0, -27.0 / 4.0, 27.0 / 2.0, -27.0 / 4.0]  # 1 - a^2(y)
    bracket = [r2, 2.0 + r2 * (2.0 * (r2 - 3.0)), r2]
    c = [1.0, -r2]
    quartic = np.convolve(np.convolve(np.convolve(c, c), c), c)  # (1 - r^2 y)^4
    p = np.convolve(np.convolve(one_m_a2, [1.0, -2.0, 1.0]), bracket)  # times (1 - y)^2
    p[: quartic.size] -= r2 * quartic
    return p


def _thm5_case2_lhs(a, r, log_term=None):
    """Case-2 product bound of thm5 for the first coefficient a (a float or
    an array): (1 - a^2)(a^2 r^2 + ((9 - 4a^2)^2 / 12)(log(1/(1-r^2)) - r^2)).
    The last factor is ``_log1m_tail(r^2)``, free of the cancellation in
    the difference as written; a search passes it as ``log_term``, computed
    once per radius."""
    r2 = r * r
    if log_term is None:
        log_term = _log1m_tail(r2)
    q2 = _pow(9.0 - 4.0 * a * a, 2)
    return (1.0 - a * a) * (a * a * r2 + (q2 / 12.0) * log_term)


def _thm5_case3_lhs(a, r):
    """Case-3 product (1 - a^2)(a^2 r^2 + (27/8) r^4); a a float or an array."""
    r2 = r * r
    return (1.0 - a * a) * (a * a * r2 + 27.0 * r2 * r2 / 8.0)


def _thm5_searches(r, grid: ScanGrid):
    """The three searched maxima of the thm5 replay at radius r, a float or
    an array of radii (their grids evaluated in blocks of radii, their
    golden searches in lockstep), each as (value, argmax): the case-2
    envelope over a in [3/5, 3/4] (200 nodes, golden-refined), the
    ring/lower family peak, and case 1's largest family-minus-bound
    difference over 400 nodes of x in [X_GUARD, min(1/4, r_adm(r) - 1e-9)].
    Case 3 needs none (see ``_thm5_rows``)."""
    rs = np.atleast_1d(r)
    stops = [min(0.25, r_admissible(v) - 1e-9) for v in rs.tolist()]
    xs = _linspace_rows(X_GUARD, stops, 400)
    diff = lambda x, r, rhs: _thm5_family_lhs(x, r) - rhs
    d, i = _row_peaks(diff, xs, rs, bounds._thm_rhs_raw("thm5", rs))
    x1 = xs[np.arange(rs.size), i]
    case1 = (d, x1) if type(r) is np.ndarray else (float(d[0]), float(x1[0]))
    return (
        _grid_refined_max(
            _thm5_case2_lhs, np.linspace(0.6, 0.75, 200), r, _log1m_tail(r * r)
        ),
        _family_peak(_thm5_family_lhs, r, grid),
        case1,
    )


def _thm5_rows(
    r: float, searches: Sequence[Tuple[float, float]]
) -> List[BoundEvaluation]:
    """The rows of the three-case proof of the product bound that depend on
    the radius r, given the results of ``_thm5_searches`` at r.

    Case 1 (a <= 3/5, family bound): r below the admissible floor and the
    comparison polynomial's sign.  Case 2 (logarithmic bound): the maximum
    and its stated location.  Case 3: the maximum, at a = 3/4.  Ring: the
    family at r, the scan row under its own id."""
    (best2, arg2), (peak_lo, x_lo), (d1, x1) = searches
    ring = _scan_row("thm5", r, peak_lo, x_lo, "ring/lower")
    rhs = ring.rhs  # bounds._thm_rhs_raw("thm5", r)
    # Case 3: in A = a^2 the product is the downward parabola
    # r^2 (1 - A)(A + 27 r^2/8), whose vertex 1/2 - 27 r^2/16 lies left of
    # A = 9/16, so on 3/4 <= a <= 1 it peaks at a = 3/4.
    best3 = _thm5_case3_lhs(0.75, r)
    return [
        BoundEvaluation("thm5", "case1/radius_below_floor", {"r": r}, r, 0.38),
        BoundEvaluation("thm5", "case1/negativity", {"r": r, "x": x1}, d1, 0.0),
        # Case 2: logarithmic envelope on 3/5 <= a <= 3/4.
        BoundEvaluation("thm5", "case2/max_value", {"r": r, "a": arg2}, best2, rhs),
        _budget(
            "thm5", "case2/argmax_location", {"r": r, "argmax": arg2}, arg2 - 0.75, 1e-6
        ),
        BoundEvaluation("thm5", "case3/max_value", {"r": r, "a": 0.75}, best3, rhs),
        ring,
    ]


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
    return _scan_row(bound_id, r, peak, arg)


def _scan_row(
    bound_id: str, r: float, peak: float, arg: float, instance_id: str = ""
) -> BoundEvaluation:
    """The family peak at r against the quartic bound, as ``instance_id``
    (by default ``scan/r=...``)."""
    rhs = bounds._thm_rhs_raw(bound_id, r)
    instance_id = instance_id or f"scan/r={r:.8f}"
    return BoundEvaluation(bound_id, instance_id, {"r": r, "x": arg}, peak, rhs)


def crossing_radius(
    bound_id: str,
    r_lo: float,
    r_hi: float,
    grid: ScanGrid,
    tol: float = 1e-10,
):
    """Bisect the radius where the family peak crosses the quartic bound;
    ValueError at a radius where both underflow to 0, which is no crossing."""
    functional = _scan_functional(bound_id, r_lo, r_hi)

    def slack_deficit(r: float) -> float:
        peak, _ = _family_peak(functional, r, grid)
        rhs = bounds._thm_rhs_raw(bound_id, r)
        if peak == rhs == 0.0:
            raise ValueError(f"peak and bound both underflow to 0 at r={r!r}")
        return peak - rhs

    return bisect(slack_deficit, r_lo, r_hi, tol=tol)


# ---------------------------------------------------------------------------
# suite runners (one per report tag): each takes the grid and the run's
# ``shared`` dict and returns its suite's rows, and run_suite judges them once


def _suite_basic(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
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
    for r in (0.2, 0.4, r_star(1)):
        instances.append(
            BoundEvaluation(
                "basic",
                f"envelope/{_radius_label(r)}",
                {"r": r},
                weighted_power_sum(_SHARP_Z2, 2, r, "r2k_minus_2"),
                bound_basic(r),
            )
        )
    return instances


def _suite_prop1(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
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


def _suite_thm1_B2(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
    """The thm1 rows of B2, and Theorem 1's B2 = the integral of
    B(x, sqrt(u))/u over [0, r^2] in its derivative form (r/2) dB2/dr = B
    (B2 vanishes at r = 0), by the complex step Im B2(x, r + ih)/h, which
    has no difference to cancel (Squire and Trapp 1998)."""
    instances = list(_thm1_rows(grid, shared)["thm1_B2"])
    for x in (0.05, 0.1, 0.15, 0.2, 0.25):
        for frac in (0.5, 0.7, 0.9, 1.0):
            r = frac * r_admissible(x)
            slope = bounds._thm1_B2_raw(x, complex(r, 1e-30)).imag / 1e-30
            dev = 0.5 * r * slope - bound_thm1_B(x, r)
            row_id = f"derivative/x={x:.2f}/f={frac:.1f}"
            instances.append(_budget("thm1_B2", row_id, {"x": x, "r": r}, dev, 1e-12))
    return instances


def _suite_thm2(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
    instances: List[BoundEvaluation] = []
    for r in (THM2_R_LO, 0.55, R_HI):
        instances += _prefixed(_radius_label(r), _thm2_rows(r))
    return instances


def _suite_cor1(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
    rng = np.random.default_rng((grid.seed, 2))
    n = grid.truncation
    instances: List[BoundEvaluation] = []
    for a in (0.3, 0.5, 0.75):
        h = h_series(a, n)
        for r in (0.2, 0.35, 0.55):
            instances += _pair(
                "cor1",
                f"equality/a={a:.2f}/r={r:.2f}",
                {"a": a, "r": r},
                _phi_weighted_functional(h, r),
                bound_cor1(a, r),
                _cor1_tail_certificate(a, r, n),
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
    for i in range(max(5, grid.sample_count // 2)):
        a = float(rng.uniform(0.15, 0.9))
        r = float(rng.uniform(0.1, R_HI))
        h = h_series(a, n)
        spec = _random_schwarz(rng)
        zeros = spec.parameters if spec.kind == "blaschke_product" else ()
        sums = lambda comp: [_phi_weighted_functional(comp, r)]
        tails = lambda orders: _cor1_class_tail(orders, a, r, spec.degree, zeros)
        phi, (lhs,) = _sample(h, spec, n, sums, tails)
        instances.append(
            BoundEvaluation(
                "cor1",
                f"sample{i:02d}",
                {"a": a, "r": r, "sample": float(i)},
                lhs,
                bound_cor1(a, r),
            )
        )
        instances.append(
            _rogosinski_row("cor1", f"rogosinski{i:02d}", {"a": a}, phi, h, n)
        )
    return instances


def _suite_thm5(grid: ScanGrid, shared: Dict[str, object]) -> List[BoundEvaluation]:
    """The thm5 replay: the rows that do not depend on the replayed radii
    once, then ``_thm5_rows`` at R, or at each of ``grid.r_values`` under an
    ``r=.../`` prefix."""
    # Case 1: the hypothesis a <= 3/5 confines x below 1/4, where the
    # admissible radius stays above 0.38 and hence above the threshold; at
    # R the comparison polynomial has the printed decimals.
    instances = [
        BoundEvaluation("thm5", "case1/x_boundary", {"a": 0.6}, x_of_a(0.6), 0.25),
        BoundEvaluation(
            "thm5", "case1/admissible_floor", {"x": 0.25}, 0.38, r_admissible(0.25)
        ),
    ]
    q = -4.0 * case1_poly_coeffs()[2:]  # -4 P(y)/y^2, y^0 .. y^5
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
    # Ring: the whole family at the upper end (the maximum principle).
    peak_hi, x_hi = _family_peak(_thm5_family_lhs, R_HI, grid)
    instances.append(_scan_row("thm5", R_HI, peak_hi, x_hi, "ring/upper"))
    for r in (R_THM5, R_HI):  # equality at z^2 at both ends of the interval
        instances += _sharp_z2("thm5", 1, r, f"sharp/z2/{_radius_label(r)}")
    if grid.r_values is None:
        return instances + _thm5_rows(R_THM5, _thm5_searches(R_THM5, grid))
    # Each search once over all radii (grids a block of radii per call,
    # golden in lockstep); the rows, one radius at a time.
    found = [
        [column.tolist() for column in pair]
        for pair in _thm5_searches(np.array(grid.r_values), grid)
    ]
    for k, r in enumerate(grid.r_values):
        searches = [(u[k], v[k]) for u, v in found]
        instances += _prefixed(_radius_label(r), _thm5_rows(r, searches))
    return instances


_SUITE_RUNNERS: Dict[str, Callable[..., List[BoundEvaluation]]] = {
    "basic": _suite_basic,
    "prop1": _suite_prop1,
    "thm1_B": lambda grid, shared: _thm1_rows(grid, shared)["thm1_B"],
    "thm1_B2": _suite_thm1_B2,
    "thm2": _suite_thm2,
    "thm3": lambda grid, shared: _thm3_rows(),
    "cor1": _suite_cor1,
    "cor2": lambda grid, shared: _cor2_rows(),
    "thm5": _suite_thm5,
}

ALL_SUITES: Tuple[str, ...] = tuple(_SUITE_RUNNERS)


def run_suite(
    suite_id: str, grid: ScanGrid, shared: Optional[Dict[str, object]] = None
) -> VerdictReport:
    """Run one certification suite by its report tag and judge its rows under
    ``grid.tolerance``.  Suites share what they build once per run (the thm1
    rows of thm1_B and thm1_B2) through ``shared``, one dict per run."""
    if suite_id not in _SUITE_RUNNERS:
        raise ValueError(f"unknown suite id {suite_id!r}; known: {ALL_SUITES}")
    rows = _SUITE_RUNNERS[suite_id](grid, {} if shared is None else shared)
    return VerdictReport.from_instances(suite_id, rows, grid.tolerance)
