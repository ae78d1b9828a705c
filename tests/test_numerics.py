"""Scalar numerics: bisection, sign scanning, golden-section search, quadrature."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import bisect, golden_max, remark6_poly, sign_changes, trapezoid
from blochsums import numerics
from blochsums.bounds import REMARK6_COEFFS
from blochsums.numerics import (
    _grid_refined_max,
    _linspace_rows,
    _log1m_tail,
    _pow,
    _row_peaks,
)


def log1m_tail_50_digits(t: Decimal) -> Decimal:
    """-log(1 - t) - t at 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return -(1 - t).ln() - t


class TestBisect:
    def test_square_root_of_two(self):
        result = bisect(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-14)
        assert abs(result.root - math.sqrt(2.0)) < 1e-13
        assert result.converged
        assert result.bracket[0] <= result.root <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= 1e-13

    def test_unbracketed_interval_rejected(self):
        with pytest.raises(ValueError, match="bracket"):
            bisect(lambda x: x * x + 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # nan used to return the bracket's midpoint after no step.
        with pytest.raises(ValueError, match="tol"):
            bisect(lambda x: x * x - 2.0, 0.0, 2.0, tol=tol)

    def test_exact_zero_at_endpoint(self):
        result = bisect(lambda x: x, 0.0, 1.0)
        assert result.root == 0.0
        assert result.residual == 0.0

    def test_threshold_polynomial_root(self):
        # Frozen oracle: the positive root of the degree-8 polynomial and
        # its square root, which the printed decimal 0.39466 abbreviates.
        result = bisect(remark6_poly, 0.15, 0.16, tol=1e-15)
        assert abs(result.root - 0.15576149947372592) < 5e-14
        assert abs(remark6_poly(result.root)) <= 1e-12
        assert abs(math.sqrt(result.root) - 0.39466) <= 5e-5

    @given(st.floats(min_value=-20.0, max_value=20.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_cubic_roots(self, c):
        result = bisect(lambda x: x**3 - c, -3.0, 3.0, tol=1e-13)
        assert abs(result.root - math.copysign(abs(c) ** (1.0 / 3.0), c)) < 1e-10

    def test_stops_after_200_steps_unconverged(self):
        # The bracket halves toward 0 for over 1000 steps before floats run
        # out; the step cap ends it first and says so.
        result = bisect(lambda x: x, -1.0, 2.0, tol=1e-300)
        assert result.iterations == 200
        assert not result.converged
        assert result.bracket[1] - result.bracket[0] > 1e-300

    def test_tiny_values_keep_their_signs(self):
        # f(lo) * f(mid) underflows to zero here; the root lies near 2.2e-103.
        result = bisect(lambda x: x**3 - 1.1e-308, -3.0, 3.0)
        lo, hi = result.bracket
        assert lo <= 1.1e-308 ** (1.0 / 3.0) <= hi
        assert result.converged


class TestSignChanges:
    def test_tiny_values_keep_their_signs(self):
        brackets = sign_changes(lambda x: 1e-200 * (x - 0.5), 0.0, 1.0, 10)
        assert len(brackets) == 1
        lo, hi = brackets[0]
        assert lo < 0.5 < hi

    def test_sine_brackets(self):
        brackets = sign_changes(math.sin, 0.1, 10.0, 1001)
        assert len(brackets) == 3
        for (lo, hi), zero in zip(brackets, (math.pi, 2 * math.pi, 3 * math.pi)):
            assert lo < zero < hi

    def test_no_changes(self):
        assert sign_changes(lambda x: 1.0 + x * x, -1.0, 1.0, 100) == []

    def test_threshold_polynomial_bracket(self):
        brackets = sign_changes(remark6_poly, 0.0, 0.5, 10000)
        assert brackets, "expected a sign change below 0.5"
        lo, hi = brackets[0]
        assert 0.15 < lo and hi < 0.16

    def test_threshold_polynomial_has_the_bits_of_its_own_horner_loop(self):
        # The plain `total*y + c` loop is the oracle, at the nodes of the
        # scan above.
        def loop(y):
            total = 0.0
            for c in reversed(REMARK6_COEFFS):
                total = total * y + c
            return total

        h = 0.5 / 9999
        ys = [i * h for i in range(9999)] + [0.5]
        got = np.array([remark6_poly(y) for y in ys])
        want = np.array([loop(y) for y in ys])
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0.0, math.nan),
            (math.nan, 1.0),
            (1.0, 0.0),
            (0.5, 0.5),
            (0.0, math.inf),
            (-math.inf, 0.0),
        ],
    )
    def test_bad_bounds_rejected(self, lo, hi):
        # Unchecked, (0, nan) reads as "no sign change", (1, 0) gives a
        # reversed bracket that bisect rejects, and (0, inf) one ending at inf.
        with pytest.raises(ValueError, match="finite lo < hi"):
            sign_changes(lambda x: x - 0.5, lo, hi, 10)


class TestGoldenMax:
    def test_parabola(self):
        arg, val = golden_max(lambda x: 1.0 - (x - 0.3) ** 2, 0.0, 1.0, tol=1e-12)
        assert abs(arg - 0.3) < 1e-8
        assert abs(val - 1.0) < 1e-12

    def test_monotone_function_ends_at_boundary(self):
        arg, val = golden_max(lambda x: x, 0.0, 1.0, tol=1e-12)
        assert abs(arg - 1.0) < 1e-6
        assert val <= 1.0

    @staticmethod
    def parabola():
        """-(x - 0.3)^2, which fails the test instead of letting a search
        that never stops hang it."""
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 1000:
                raise RuntimeError("golden_max did not stop")
            return -((x - 0.3) ** 2)

        return f

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # nan used to return the unrefined midpoint; 0 and -1 never stopped.
        with pytest.raises(ValueError, match="tol"):
            golden_max(self.parabola(), 0.0, 1.0, tol=tol)

    def test_tol_below_float_spacing_stops(self):
        # No bracket around 0.3 is 1e-17 wide in floats: the search stops
        # once its golden points can no longer move.
        f = self.parabola()
        arg, val = golden_max(f, 0.0, 1.0, tol=1e-17)
        assert abs(arg - 0.3) <= 1e-15
        assert val == f(arg)

    # Array brackets (lo, hi) with the peak p of q * -(x - p)^2 + s * x:
    # interior maxima near 1e-3, where the float spacing lies far below
    # 1e-17; interior maxima near 0.3 and 0.7, where it lies above; monotone
    # rises and falls; and brackets one or two floats wide, which stop
    # before the first step.
    BRACKETS = [
        (0.0, 0.002, 0.001, 1.0, 0.0),
        (0.0009, 0.0011, 0.00100003, 1.0, 0.0),
        (0.0, 1.0, 0.3, 1.0, 0.0),
        (0.25, 0.35, 0.3, 1.0, 0.0),
        (-2.0, 3.0, 0.7, 1.0, 0.0),
        (0.0, 1.0, 0.0, 0.0, 1.0),
        (0.5, 0.6, 0.0, 0.0, 1.0),
        (0.2, 0.9, 0.0, 0.0, -1.0),
        (0.001, float(np.nextafter(0.001, 1.0)), 0.001, 1.0, 0.0),
        (0.3, float(np.nextafter(np.nextafter(0.3, 1.0), 1.0)), 0.3, 1.0, 0.0),
    ]

    @staticmethod
    def mixed(p, q, s):
        return lambda x: q * -((x - p) * (x - p)) + s * x

    @pytest.mark.parametrize("tol", [1e-17, 1e-12, 1e-3])
    def test_array_bracket_has_the_bits_of_float_calls(self, tol):
        # At tol 1e-17 the brackets near 1e-3 stop on their width and those
        # near 0.3 and 0.7 once a < c < d < b fails, at different steps.
        assert 10 * np.spacing(0.0011) < 1e-17 < np.spacing(0.3)
        lo, hi, p, q, s = (np.array(column) for column in zip(*self.BRACKETS))
        arg, val = golden_max(self.mixed(p, q, s), lo, hi, tol=tol)
        want = [
            golden_max(self.mixed(*params), lo_k, hi_k, tol=tol)
            for lo_k, hi_k, *params in self.BRACKETS
        ]
        want_arg, want_val = (np.array(column) for column in zip(*want))
        assert np.array_equal(arg.view(np.uint64), want_arg.view(np.uint64))
        assert np.array_equal(val.view(np.uint64), want_val.view(np.uint64))

    @pytest.mark.parametrize(
        "lo, hi, tol",
        [
            ([0.0, 0.5], [1.0, 0.5], 1e-10),
            ([0.0, 0.6], [1.0, 0.5], 1e-10),
            ([0.0, math.nan], [1.0, 1.0], 1e-10),
            ([0.0, 0.2], [1.0, 1.0], math.nan),
            ([0.0, 0.2], [1.0, 1.0], 0.0),
        ],
    )
    def test_array_bracket_raises_the_float_error(self, lo, hi, tol):
        def never(x):
            raise AssertionError("f was called on an invalid bracket")

        k = next((k for k in range(len(lo)) if not lo[k] < hi[k]), 0)
        with pytest.raises(ValueError) as scalar:
            golden_max(never, lo[k], hi[k], tol=tol)
        with pytest.raises(ValueError) as array:
            golden_max(never, np.array(lo), np.array(hi), tol=tol)
        assert str(array.value) == str(scalar.value)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestRowPeaks:
    """Grids over many rows are evaluated a block of rows per call; every
    row must get the bits of its own row-at-a-time call, on either side of
    each block boundary."""

    WIDTH = 400
    B = numerics._BLOCK_CELLS // WIDTH  # rows per block on a 400-node grid

    @staticmethod
    def form(x, p, q):
        # A smooth peak in the grid's interior, through _pow, capped by a
        # plateau at q on some rows, where the first largest node must win.
        return np.minimum(p * _pow(1.0 - x, 3) * x * 27.0 / 4.0, q)

    def params(self, rows):
        rng = np.random.default_rng(rows)
        return rng.uniform(0.5, 2.0, rows), rng.uniform(0.4, 1.2, rows)

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 300])
    @pytest.mark.parametrize("shared", [True, False], ids=["1d_nodes", "2d_nodes"])
    def test_each_row_has_the_bits_of_its_own_call(self, rows, shared):
        assert self.B == 32
        p, q = self.params(rows)
        stops = np.linspace(0.6, 1.0, rows)
        nodes = np.linspace(0.0, 1.0, self.WIDTH)
        if not shared:
            nodes = _linspace_rows(0.0, stops, self.WIDTH)
        best, index = _row_peaks(self.form, nodes, p, q)
        want_best, want_index = [], []
        for k, (pk, qk) in enumerate(zip(p.tolist(), q.tolist())):
            xs = nodes if shared else np.linspace(0.0, stops[k], self.WIDTH)
            vals = np.array([self.form(x, pk, qk) for x in xs.tolist()])
            want_index.append(int(np.argmax(vals)))
            want_best.append(vals[want_index[-1]])
        assert np.array_equal(_bits(best), _bits(want_best))
        assert index.tolist() == want_index
        # Rows capped by their plateau (a tie, won by its first node) and
        # rows peaking below it, both.
        if rows > 1:
            assert 0 < np.count_nonzero(best == q) < rows

    @pytest.mark.parametrize("rows", [1, B - 1, B, B + 1, 300])
    def test_refined_max_over_rows_has_the_bits_of_float_calls(self, rows):
        p, q = self.params(rows)
        xs = np.linspace(0.0, 1.0, self.WIDTH)
        best, at = _grid_refined_max(self.form, xs, p, q)
        each = zip(p.tolist(), q.tolist())
        want = [_grid_refined_max(self.form, xs, pk, qk) for pk, qk in each]
        assert np.array_equal(_bits(best), _bits([w[0] for w in want]))
        assert np.array_equal(_bits(at), _bits([w[1] for w in want]))

    def test_calls_form_once_per_block(self):
        shapes = []

        def form(x, p):
            shapes.append(np.broadcast_shapes(np.shape(x), np.shape(p)))
            return x * p

        rows = 3 * self.B + 5
        _row_peaks(form, np.linspace(0.0, 1.0, self.WIDTH), np.ones(rows))
        assert shapes == [(self.B, self.WIDTH)] * 3 + [(5, self.WIDTH)]

    @pytest.mark.parametrize(
        "start, stops",
        [
            (1e-6, [0.25, 0.1, -1e-9, 0.3]),
            # A zero step (stop == start, or a subnormal span divided by
            # 399) sends np.linspace's array form down another formula for
            # every row; the others must keep the bits of their own call.
            (1e-6, [0.25, 1e-6, 0.1]),
            (0.0, [0.3, 5e-324, 0.1, 1e-320]),
        ],
    )
    def test_linspace_rows_have_the_bits_of_their_own_call(self, start, stops):
        got = _linspace_rows(start, stops, 400)
        assert got.shape == (len(stops), 400)
        for row, stop in zip(got, stops):
            want = np.linspace(start, stop, 400)
            assert np.array_equal(_bits(row), _bits(want)), stop


class TestTrapezoid:
    def test_cubic_exactness_scaling(self):
        exact = 0.25
        err_m = abs(trapezoid(lambda x: x**3, 0.0, 1.0, 200) - exact)
        err_2m = abs(trapezoid(lambda x: x**3, 0.0, 1.0, 400) - exact)
        assert err_m < 1e-5
        assert err_m / err_2m == pytest.approx(4.0, rel=1e-2)

    def test_quarter_circle_area(self):
        val = trapezoid(lambda x: math.sqrt(max(0.0, 1.0 - x * x)), 0.0, 1.0, 20000)
        assert abs(val - math.pi / 4.0) < 1e-5

    def test_subinterval_validation(self):
        with pytest.raises(ValueError):
            trapezoid(lambda x: x, 0.0, 1.0, 0)

    def test_adds_the_node_values_left_to_right(self):
        # The scalar loop is the oracle: np.sum and math.fsum add in another
        # order and change the last bits.
        def loop(f, lo, hi, m):
            h = (hi - lo) / m
            total = 0.5 * (f(lo) + f(hi))
            for i in range(1, m):
                total += f(lo + i * h)
            return total * h

        cases = [
            (math.sqrt, 0.0, 2.0, 4096),
            (lambda x: math.sin(37.0 * x) / (x + 1e-3), 0.0, 3.0, 4096),
            (lambda x: math.exp(-x * x), -4.0, 4.0, 1001),
            (lambda x: x**3, 0.0, 1.0, 2),
        ]
        for f, lo, hi, m in cases:
            got = np.float64(trapezoid(f, lo, hi, m)).view(np.uint64)
            assert got == np.float64(loop(f, lo, hi, m)).view(np.uint64), (lo, hi, m)


class TestLog1mTail:
    def test_relative_error_on_unit_interval(self):
        # Both branches: the series below 0.01 and the direct form above.
        ts = np.concatenate((np.logspace(-12, math.log10(0.9), 600), [0.01, 0.9]))
        for t in ts:
            ref = log1m_tail_50_digits(Decimal(float(t)))
            got = Decimal(_log1m_tail(float(t)))
            assert abs(got - ref) <= Decimal("1e-13") * ref, t

    def test_zero(self):
        assert _log1m_tail(0.0) == 0.0


def _pow_edges() -> np.ndarray:
    """Bases outside the radii's [0, 1): negative, signed zeros, subnormals,
    and odd 27-bit mantissas m >= 2^26.5, whose squares m^2 have 54 bits and
    so fall exactly halfway between two doubles (a tie that a product
    rounds to even), with the neighbours of those bases."""
    rng = np.random.default_rng(2031)
    m = 2 * rng.integers(47453133, 2**26, 300) + 1
    ties = np.ldexp(m.astype(float), -27)
    near = np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 2.0)])
    tiny = np.finfo(float).smallest_subnormal
    subnormals = [tiny, 2.0 * tiny, 3.0 * tiny, np.nextafter(np.finfo(float).tiny, 0.0)]
    return np.concatenate(
        [
            -rng.uniform(0.0, 1.5, 500),
            [0.0, -0.0],
            subnormals,
            np.negative(subnormals),
            near,
            -near,
        ]
    )


@pytest.mark.parametrize(
    "helper, edges",
    [(_log1m_tail, [])]
    + [(lambda v, k=k: _pow(v, k), _pow_edges()) for k in (2, 4, 5, 282)],
    ids=["log1m_tail", "pow2", "pow4", "pow5", "pow282"],
)
def test_array_has_the_bits_of_float_and_numpy_scalar_calls(helper, edges):
    # The closed forms take a radius or a grid through these helpers; NumPy's
    # vector ``**`` and ``np.log1p`` round some elements differently.
    # ``_log1m_tail`` switches from its series to log1p at t = 0.01.
    rng = np.random.default_rng(2022)
    cut = [0.0, 0.01, np.nextafter(0.01, 0.0), np.nextafter(0.01, 1.0)]
    vs = np.concatenate(
        [
            rng.uniform(0.0, 0.999, 5000),
            np.logspace(-12, -2, 200),
            np.linspace(0.0095, 0.0105, 101),
            cut,
            edges,
        ]
    )
    got = helper(vs)
    floats = np.array([helper(v) for v in vs.tolist()])
    scalars = np.array([helper(v) for v in vs])
    assert np.array_equal(got.view(np.uint64), floats.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), scalars.view(np.uint64))
    # Any shape: empty, 0-d (a radius passed as np.array(r)) and 2-d.
    assert helper(np.array([])).shape == (0,)
    for v in cut + [0.3]:
        zero_d = helper(np.array(v))
        assert zero_d.shape == ()
        assert zero_d.view(np.uint64) == np.float64(helper(v)).view(np.uint64), v
    two_d = helper(vs[:5000].reshape(50, 100)).view(np.uint64)
    assert np.array_equal(two_d, got[:5000].reshape(50, 100).view(np.uint64))
    if len(edges):
        # A power past the float range raises in the array path as in the
        # float path, rather than leaving an inf in the grid.
        with pytest.raises(OverflowError):
            helper(1e200)
        with pytest.raises(OverflowError):
            helper(np.array([0.5, 1e200]))
