"""Extremal families: boundary parametrization, monomial members, Moebius majorant."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import (
    X_SUP,
    a_of_x,
    b2_max,
    f_n_prime,
    g_prime_coeffs,
    h_series,
    integrate_series,
    r_star,
    weighted_power_sum,
    x_of_a,
)
from blochsums.families import _clamp_x
from blochsums.series import KIND_DERIVATIVE, CoefficientSeries

SQRT3 = math.sqrt(3.0)


def rational_expand_g(x: float, n: int) -> CoefficientSeries:
    """Independent expansion of -(a/x)(z - x)/(1 - z x)^3 via binomial series.

    (1 - x z)^(-3) = sum of C(k+2, 2) x^k z^k; multiplying by -(a/x)(z - x)
    gives entry j = (a/x) (x c_j - c_{j-1}) with c_j the binomial weights.
    Serves as the cross-validation oracle for ``g_prime_coeffs``.
    """
    xc = _clamp_x(x)
    a = a_of_x(xc)
    j = np.arange(n + 1, dtype=np.float64)
    binom = (j + 2.0) * (j + 1.0) / 2.0  # C(j+2, 2)
    c = binom * xc**j
    out = np.zeros(n + 1, dtype=np.complex128)
    out[0] = a * c[0]
    out[1:] = (a / xc) * (xc * c[1:] - c[:-1])
    return CoefficientSeries(out, KIND_DERIVATIVE)


def bloch_membership_scan(
    s: CoefficientSeries,
    r_nodes: int = 64,
    theta_nodes: int = 128,
) -> float:
    """Grid maximum of (1 - r^2) |s(r e^{i theta})| over the disc.

    A value at most 1, plus a slack the caller picks, is consistent with
    membership in the class {|F'| <= 1/(1 - |z|^2)}.  Necessary-condition
    check only: a truncated series understates the true function, so the
    scan can never prove membership, only flag clear violations.
    """
    radii = np.linspace(0.0, 0.999, r_nodes)
    theta = 2.0 * np.pi * np.arange(theta_nodes) / theta_nodes
    z = radii[:, None] * np.exp(1j * theta)[None, :]
    vals = np.abs(s.evaluate(z))
    weighted = (1.0 - radii * radii)[:, None] * vals
    return float(np.max(weighted))


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

    @pytest.mark.parametrize("a", (1e-300, 1e-20, 1e-6, 0.6, 0.999))
    def test_inverse_round_trip_within_two_ulps(self, a):
        # Relative accuracy at every scale: a search stopped by an absolute
        # bracket width would return one x for every a below that width.
        assert abs(a_of_x(x_of_a(a)) - a) <= 2.0 * math.ulp(a)

    def test_inverse_is_the_closed_form(self):
        assert list(inspect.signature(x_of_a).parameters) == ["a"]
        for a in (1e-300, 0.3, 0.6, 1.0 - 2.0**-52):
            phi = math.asin(a) / 3.0
            assert x_of_a(a) == 2.0 / SQRT3 * math.sin(phi)
        with pytest.raises(ValueError):
            x_of_a(math.nan)

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

    @pytest.mark.parametrize("n", [1.5, 2.0, True, 0])
    def test_non_integer_index_rejected(self, n):
        # Checked before np.zeros, which raises a TypeError for 1.5.
        with pytest.raises(ValueError, match="positive integer"):
            f_n_prime(n)


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
