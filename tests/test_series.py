"""Series arithmetic: construction, calculus, weighted sums, circle means, tails."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import (
    CoefficientSeries,
    circle_mean_square,
    derivative_series,
    g_prime_coeffs,
    integrate_series,
    r_admissible,
    tail_majorant_extremal,
    weighted_power_sum,
)

finite_complex = st.complex_numbers(
    max_magnitude=5.0, allow_nan=False, allow_infinity=False
)
coeff_lists = st.lists(finite_complex, min_size=1, max_size=24)


class TestCoefficientSeries:
    def test_basic_construction(self):
        s = CoefficientSeries([1.0, 2.0, 3.0], "function")
        assert s.order == 2
        assert s.coeffs.size == 3
        assert s.evaluate(1.0) == pytest.approx(6.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            CoefficientSeries([], "function")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CoefficientSeries([1.0, float("nan")], "function")
        with pytest.raises(ValueError):
            CoefficientSeries([1.0, float("inf")], "function")

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            CoefficientSeries([1.0], "mystery")

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            CoefficientSeries(np.ones((2, 2)), "function")


class TestCalculus:
    def test_derivative_shifts_and_scales(self):
        f = CoefficientSeries([5.0, 1.0, 2.0, 3.0], "function")
        d = derivative_series(f)
        assert d.kind == "derivative"
        np.testing.assert_allclose(d.coeffs, [1.0, 4.0, 9.0])

    def test_derivative_of_constant(self):
        d = derivative_series(CoefficientSeries([7.0], "function"))
        assert d.order == 0
        assert d.coeffs[0] == 0.0

    def test_integrate_inverts_derivative(self):
        f = CoefficientSeries([5.0, 1.0 + 2.0j, 0.5, -3.0], "function")
        back = integrate_series(derivative_series(f), c0=f.coeffs[0])
        np.testing.assert_allclose(back.coeffs, f.coeffs, atol=1e-15)

    def test_integrate_rejects_function_kind(self):
        with pytest.raises(ValueError, match="derivative-kind"):
            integrate_series(CoefficientSeries([1.0, 2.0], "function"))

    @given(coeff_lists)
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, coeffs):
        f = CoefficientSeries(coeffs, "function")
        back = integrate_series(derivative_series(f), c0=coeffs[0])
        assert back.order == f.order or f.order == 0
        np.testing.assert_allclose(
            back.coeffs[: f.order + 1], f.coeffs, atol=1e-12, rtol=1e-12
        )


class TestWeightedPowerSum:
    def test_hand_computed_values(self):
        f = CoefficientSeries([0.0, 1.0, 1.0], "function")
        r = 0.5
        # k=1: 1*1*r^0 ; k=2: 4*1*r^2 with the r^{2k-2} weighting
        assert weighted_power_sum(f, 2, r, "r2k_minus_2") == pytest.approx(2.0)
        assert weighted_power_sum(f, 2, r, "r2k") == pytest.approx(0.5)
        assert weighted_power_sum(f, 1, r, "r2k") == pytest.approx(0.375)
        assert weighted_power_sum(f, 2, r, "r2k", k_min=2) == pytest.approx(0.25)

    def test_r_zero(self):
        # Only the r^0 = 1 weight of k = 1 is left: |b_1|^2 exactly.
        f = CoefficientSeries([0.5, 3.0 + 4.0j, 2.0, -1.0j], "function")
        for p in (1, 2):
            assert weighted_power_sum(f, p, 0.0, "r2k_minus_2") == 25.0
            assert weighted_power_sum(f, p, 0.0, "r2k") == 0.0
            assert weighted_power_sum(f, p, 0.0, "r2k_minus_2", k_min=2) == 0.0

    def test_k_min_beyond_order(self):
        f = CoefficientSeries([0.0, 1.0], "function")
        assert weighted_power_sum(f, 2, 0.5, "r2k", k_min=5) == 0.0

    def test_validation(self):
        f = CoefficientSeries([0.0, 1.0], "function")
        with pytest.raises(ValueError):
            weighted_power_sum(f, 3, 0.5, "r2k")
        with pytest.raises(ValueError):
            weighted_power_sum(f, 2, 1.0, "r2k")
        with pytest.raises(ValueError):
            weighted_power_sum(f, 2, 0.5, "r3k")
        d = derivative_series(f)
        with pytest.raises(ValueError):
            weighted_power_sum(d, 2, 0.5, "r2k")

    @given(coeff_lists, st.floats(min_value=0.0, max_value=0.95))
    @settings(max_examples=50, deadline=None)
    def test_square_weight_dominates_linear(self, coeffs, r):
        f = CoefficientSeries(coeffs, "function")
        s2 = weighted_power_sum(f, 2, r, "r2k")
        s1 = weighted_power_sum(f, 1, r, "r2k")
        assert s2 >= s1 - 1e-12 * (1.0 + abs(s1))


class TestCircleMeanSquare:
    def test_constant_derivative(self):
        d = CoefficientSeries([2.0], "derivative")
        assert circle_mean_square(d, 0.7, 8) == pytest.approx(4.0)

    def test_matches_coefficient_sum(self):
        rng = np.random.default_rng(7)
        coeffs = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        f = CoefficientSeries(coeffs, "function")
        d = derivative_series(f)
        for r in (0.3, 0.6, 0.9):
            total = weighted_power_sum(f, 2, r, "r2k_minus_2")
            mean = circle_mean_square(d, r, 2 * d.order + 2)
            assert mean == pytest.approx(total, rel=1e-12)

    def test_node_count_threshold(self):
        d = CoefficientSeries([1.0, 1.0, 1.0], "derivative")
        with pytest.raises(ValueError, match="threshold"):
            circle_mean_square(d, 0.5, 2 * d.order + 1)

    def test_function_kind_rejected(self):
        f = CoefficientSeries([1.0, 1.0], "function")
        with pytest.raises(ValueError):
            circle_mean_square(f, 0.5, 16)

    @given(coeff_lists, st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=40, deadline=None)
    def test_parseval_property(self, coeffs, r):
        f = CoefficientSeries(coeffs, "function")
        d = derivative_series(f)
        total = weighted_power_sum(f, 2, r, "r2k_minus_2")
        mean = circle_mean_square(d, r, 2 * d.order + 2)
        assert abs(mean - total) <= 1e-10 * (1.0 + abs(total))


class TestTailMajorant:
    @pytest.mark.parametrize("x", (0.1, 0.25, 0.4))
    @pytest.mark.parametrize("p", (1, 2))
    def test_dominates_observed_tail(self, x, p):
        n = 64
        g = g_prime_coeffs(x, 600)
        gf = integrate_series(g, 0.0)
        r = 0.95 * r_admissible(x)
        observed = weighted_power_sum(gf, p, r, "r2k", k_min=n + 1)
        cap = tail_majorant_extremal(x, r, p, n)
        assert observed <= cap * (1.0 + 1e-12)

    def test_tightens_with_order(self):
        caps = [tail_majorant_extremal(0.2, 0.3, 2, n) for n in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_zero_radius(self):
        assert tail_majorant_extremal(0.2, 0.0, 2, 8) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            tail_majorant_extremal(0.0, 0.3, 2, 8)
        with pytest.raises(ValueError):
            tail_majorant_extremal(0.2, 1.0, 2, 8)
        with pytest.raises(ValueError):
            tail_majorant_extremal(0.2, 0.3, 3, 8)
        with pytest.raises(ValueError):
            tail_majorant_extremal(0.2, 0.3, 2, 1)
