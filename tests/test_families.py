"""Extremal families: boundary parametrization, monomial members, Moebius majorant."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import (
    X_SUP,
    a_of_x,
    b2_max,
    bloch_membership_scan,
    f_n_prime,
    g_prime_coeffs,
    h_series,
    integrate_series,
    r_star,
    rational_expand_g,
    weighted_power_sum,
    x_of_a,
)

SQRT3 = math.sqrt(3.0)


class TestBoundaryParametrization:
    def test_endpoint_values(self):
        assert a_of_x(0.0) == 0.0
        assert a_of_x(X_SUP) == pytest.approx(1.0, abs=1e-15)
        assert b2_max(0.0) == pytest.approx(0.75 * SQRT3)
        assert b2_max(X_SUP) == pytest.approx(0.0, abs=1e-15)

    def test_domain_enforced(self):
        with pytest.raises(ValueError):
            a_of_x(-0.1)
        with pytest.raises(ValueError):
            a_of_x(X_SUP + 0.01)
        with pytest.raises(ValueError):
            x_of_a(1.2)

    def test_inverse_round_trip(self):
        for a in (0.05, 0.3, 0.6, 0.75, 0.95, 0.999):
            assert a_of_x(x_of_a(a)) == pytest.approx(a, abs=1e-12)

    @given(st.floats(min_value=1e-3, max_value=0.999))
    @settings(max_examples=50, deadline=None)
    def test_inverse_property(self, a):
        x = x_of_a(a)
        assert 0.0 < x < X_SUP
        assert abs(a_of_x(x) - a) < 1e-11


class TestBoundaryFamilySeries:
    @pytest.mark.parametrize("x", (0.05, 0.2, 0.35, 0.5))
    def test_two_expansion_routes_agree(self, x):
        direct = g_prime_coeffs(x, 80).coeffs
        rational = rational_expand_g(x, 80).coeffs
        np.testing.assert_allclose(direct, rational, atol=1e-12, rtol=1e-12)

    def test_leading_coefficients(self):
        x = 0.3
        g = g_prime_coeffs(x, 10)
        assert g.coeffs[0].real == pytest.approx(a_of_x(x))
        # entry 1 is 2*A_2 and |A_2| equals the extremal second coefficient
        assert abs(g.coeffs[1]) / 2.0 == pytest.approx(b2_max(x), abs=1e-13)

    @pytest.mark.parametrize("x", (0.1, 0.3))
    def test_class_membership(self, x):
        assert bloch_membership_scan(g_prime_coeffs(x, 256)) <= 1.0 + 1e-6


class TestMonomialFamily:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_entry_value(self, n):
        s = f_n_prime(n)
        expected = 0.5 * (n + 2.0) * ((n + 2.0) / n) ** (n / 2.0)
        assert s.order == n
        nz = np.nonzero(s.coeffs)[0]
        assert list(nz) == [n]
        assert s.coeffs[n].real == pytest.approx(expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_boundary_contact_at_critical_radius(self, n):
        # (1 - r^2) |c_n| r^n reaches exactly 1 at r = sqrt(n/(n+2))
        s = f_n_prime(n)
        rn = r_star(n)
        contact = (1.0 - rn * rn) * abs(s.coeffs[n]) * rn**n
        assert contact == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_membership(self, n):
        assert bloch_membership_scan(f_n_prime(n)) <= 1.0 + 1e-6


class TestMoebiusMajorant:
    def test_geometric_structure(self):
        a = 0.6
        h = h_series(a, 40)
        assert h.coeffs[0].real == pytest.approx(a)
        assert h.coeffs[1].real == pytest.approx(1.5 * (9.0 - 4.0 * a * a) / 9.0)
        ratios = h.coeffs[2:20] / h.coeffs[1:19]
        np.testing.assert_allclose(ratios, -2.0 * a / 3.0, atol=1e-14)

    @pytest.mark.parametrize("a", (0.2, 0.5, 0.75, 0.9))
    def test_constant_modulus_on_unit_circle(self, a):
        h = h_series(a, 600)
        theta = 2.0 * np.pi * np.arange(64) / 64.0
        values = h.evaluate(np.exp(1j * theta))
        np.testing.assert_allclose(np.abs(values), 1.5, atol=1e-9)

    def test_area_functional_scaling(self):
        # The function with derivative h produces the weighted coefficient
        # sums actually bounded in the corollary; sanity-check one term.
        a = 0.5
        h = h_series(a, 128)
        hf = integrate_series(h, 0.0)
        s = weighted_power_sum(hf, 1, 0.3, "r2k")
        assert s > 0.0
