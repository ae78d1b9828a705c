"""Scalar numerics: bisection, sign scanning, golden-section search, quadrature."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import bisect, golden_max, remark6_poly, sign_changes, trapezoid
from blochsums.numerics import _log1m_tail, _pow


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
        # order and change the last bits, and the thm1_B2 rows share the sum.
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


@pytest.mark.parametrize(
    "helper",
    [_log1m_tail] + [lambda v, k=k: _pow(v, k) for k in (2, 4, 5, 282)],
    ids=["log1m_tail", "pow2", "pow4", "pow5", "pow282"],
)
def test_array_has_the_bits_of_float_and_numpy_scalar_calls(helper):
    # The closed forms take a radius or a grid through these two helpers;
    # NumPy's vector ``**`` and ``np.log1p`` round some elements differently.
    # ``_log1m_tail`` switches from its series to log1p at t = 0.01.
    rng = np.random.default_rng(2022)
    cut = [0.0, 0.01, np.nextafter(0.01, 0.0), np.nextafter(0.01, 1.0)]
    vs = np.concatenate(
        [
            rng.uniform(0.0, 0.999, 5000),
            np.logspace(-12, -2, 200),
            np.linspace(0.0095, 0.0105, 101),
            cut,
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
