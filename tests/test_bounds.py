"""Closed-form right-hand sides, contact radii, validity intervals, pass rule."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from blochsums import (
    R_HI,
    R_THM5,
    THM2_R_LO,
    THM3_R_LO,
    BoundEvaluation,
    bound_basic,
    bound_cor1,
    bound_prop1,
    bound_thm1_B,
    bound_thm1_B2,
    g_prime_coeffs,
    integrate_series,
    r_admissible,
    r_star,
    remark6_poly,
    tail_majorant_extremal,
    thm_rhs,
    validity_interval,
    weighted_power_sum,
)


class TestBasicBound:
    def test_closed_form_values(self):
        assert bound_basic(0.0) == 1.0
        assert bound_basic(0.5) == pytest.approx(16.0 / 9.0)

    def test_monotone(self):
        rs = np.linspace(0.0, 0.95, 50)
        vals = [bound_basic(r) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_basic(1.0)


class TestTailBound:
    def test_contact_radius_values(self):
        assert r_star(1) == pytest.approx(1.0 / math.sqrt(3.0))
        assert r_star(2) == pytest.approx(math.sqrt(0.5))
        assert r_star(6) == pytest.approx(math.sqrt(0.75))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_growth_bound_at_contact(self, n):
        # At the contact radius the full-sum bound is spent entirely on the
        # tail: the two closed forms agree there.
        rn = r_star(n)
        assert bound_prop1(n, rn) == pytest.approx(bound_basic(rn), rel=1e-12)

    def test_radius_gating(self):
        with pytest.raises(ValueError):
            bound_prop1(2, r_star(2) + 1e-6)

    def test_n_validation(self):
        with pytest.raises(ValueError):
            bound_prop1(0, 0.1)

    @pytest.mark.parametrize(
        "n", [1.5, 2.0, True, pytest.param(np.float64(2.0), id="float64")]
    )
    def test_non_integer_index_rejected(self, n):
        # Unchecked, r_star(1.5) = 0.6547 and bound_prop1(1.5, 0.3) = 0.2947
        # would describe no member of the monomial family.
        with pytest.raises(ValueError, match="positive integer"):
            r_star(n)
        with pytest.raises(ValueError, match="positive integer"):
            bound_prop1(n, 0.3)


class TestAdmissibleRadius:
    def test_endpoints(self):
        assert r_admissible(0.0) == pytest.approx(R_HI)
        assert r_admissible(R_HI) == pytest.approx(0.0, abs=1e-15)

    def test_involution(self):
        for x in (0.05, 0.2, 0.4, 0.55):
            assert r_admissible(r_admissible(x)) == pytest.approx(x, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            r_admissible(-0.01)
        with pytest.raises(ValueError):
            r_admissible(R_HI + 0.01)


class TestFamilySumClosedForms:
    @pytest.mark.parametrize(
        "x,r_frac", [(0.1, 0.5), (0.2, 0.9), (0.3, 0.99), (0.45, 0.7)]
    )
    def test_match_series_sums(self, x, r_frac):
        # Independent route: sum the truncated coefficient series directly
        # and certify the truncation with the explicit tail majorant.
        r = r_frac * r_admissible(x)
        n = 400
        gf = integrate_series(g_prime_coeffs(x, n), 0.0)
        for p, closed in (
            (2, bound_thm1_B(x, r)),
            (1, bound_thm1_B2(x, r)),
        ):
            partial = weighted_power_sum(gf, p, r, "r2k")
            tail = tail_majorant_extremal(x, r, p, n)
            assert abs(partial - closed) <= 1e-12 * (1.0 + abs(closed)) + tail

    def test_small_x_limits(self):
        # As x -> 0 the sums collapse to their leading quartic terms.
        r = 0.5
        assert bound_thm1_B(1e-7, r) == pytest.approx(27.0 * r**4 / 4.0, rel=1e-6)
        assert bound_thm1_B2(1e-7, r) == pytest.approx(27.0 * r**4 / 8.0, rel=1e-6)

    def test_admissibility_gate(self):
        x = 0.3
        with pytest.raises(ValueError):
            bound_thm1_B(x, r_admissible(x) + 1e-6)
        with pytest.raises(ValueError):
            bound_thm1_B2(x, r_admissible(x) + 1e-6)


class TestLogarithmicBound:
    def test_positive_and_increasing_in_r(self):
        a = 0.5
        vals = [bound_cor1(a, r) for r in np.linspace(0.05, R_HI, 20)]
        assert all(v > 0.0 for v in vals)
        assert all(u < v for u, v in zip(vals, vals[1:]))

    def test_quartic_small_radius_limit(self):
        for a in (0.3, 0.6, 0.9):
            ref = (9.0 - 4.0 * a * a) ** 2 / 24.0
            assert bound_cor1(a, 1e-3) / 1e-12 == pytest.approx(ref, rel=1e-5)

    def test_tiny_radius_without_cancellation(self):
        a, r = 0.2, 1e-6
        with localcontext() as ctx:
            ctx.prec = 50
            t = 4 * Decimal(a) ** 2 * Decimal(r) ** 2 / 3
            scale = 3 * (9 - 4 * Decimal(a) ** 2) ** 2 / (64 * Decimal(a) ** 4)
            ref = scale * (-(1 - t).ln() - t)
        assert abs(Decimal(bound_cor1(a, r)) - ref) <= Decimal("1e-13") * ref

    def test_domain(self):
        with pytest.raises(ValueError):
            bound_cor1(0.0, 0.3)
        with pytest.raises(ValueError):
            bound_cor1(0.5, 0.7)


class TestQuarticRhs:
    def test_interval_registry(self):
        assert validity_interval("thm2") == (THM2_R_LO, R_HI)
        assert validity_interval("thm3") == (THM3_R_LO, R_HI)
        assert validity_interval("thm5") == (R_THM5, R_HI)
        lo, hi = validity_interval("cor2")
        assert lo == 0.0 and hi == pytest.approx(R_HI)

    def test_values_inside_interval(self):
        assert thm_rhs("thm2", THM2_R_LO) == pytest.approx(27.0 / 4.0 * THM2_R_LO**4)
        assert thm_rhs("thm5", R_THM5) == pytest.approx(27.0 / 8.0 * R_THM5**4)

    def test_rejections_outside_interval(self):
        with pytest.raises(ValueError):
            thm_rhs("thm2", 0.5)
        with pytest.raises(ValueError):
            thm_rhs("thm5", 0.3)
        with pytest.raises(ValueError):
            thm_rhs("nope", 0.5)

    def test_threshold_constants(self):
        assert R_THM5 == pytest.approx(0.37951540997419575, abs=1e-16)
        assert THM2_R_LO == pytest.approx(math.sqrt(4.0 / 15.0))
        assert THM3_R_LO == pytest.approx(math.sqrt((9.0 - math.sqrt(65.0)) / 6.0))


class TestThresholdPolynomial:
    def test_low_order_values(self):
        assert remark6_poly(0.0) == -4.0
        # coefficient sum at y = 1
        assert remark6_poly(1.0) == pytest.approx(-4 - 1 + 81 + 642 - 564 + 1188 - 82 - 5809 + 4581)

    def test_frozen_root(self):
        rho = 0.15576149947372592
        assert abs(remark6_poly(rho)) < 1e-11
        assert math.sqrt(rho) == pytest.approx(0.39466, abs=5e-5)


class TestBoundEvaluation:
    def test_slack_autocompute_and_pass_rule(self):
        inst = BoundEvaluation("thm2", "demo", {"r": 0.5}, lhs=1.0, rhs=1.5)
        assert inst.slack == pytest.approx(0.5)
        assert inst.passes(1e-10)

    def test_tolerance_scales_with_rhs(self):
        inst = BoundEvaluation("thm2", "demo", {}, lhs=100.0 + 5e-9, rhs=100.0)
        assert inst.passes(1e-10)
        assert not inst.passes(1e-12)

    def test_tail_certificate_enters_margin(self):
        inst = BoundEvaluation(
            "thm1_B", "demo", {}, lhs=1.0, rhs=1.0 - 1e-6, tail_certificate=2e-6
        )
        assert inst.passes(1e-10)
        strict = BoundEvaluation("thm1_B", "demo", {}, lhs=1.0, rhs=1.0 - 1e-6)
        assert not strict.passes(1e-10)


@pytest.mark.parametrize(
    "bound, args, radii",
    [
        (bound_basic, (), (0.0, 0.3, 0.9)),
        (bound_prop1, (3,), (0.0, 0.3, r_star(3))),
        (bound_thm1_B, (0.2,), (0.0, 0.3, r_admissible(0.2))),
        (bound_thm1_B2, (0.2,), (0.0, 0.3, r_admissible(0.2))),
        (bound_cor1, (0.5,), (0.0, 1e-80, 0.3, R_HI)),
    ]
    + [
        (thm_rhs, (b,), (validity_interval(b)[0], 0.55, R_HI))
        for b in ("thm2", "thm3", "cor2", "thm5")
    ],
    ids=["basic", "prop1", "thm1_B", "thm1_B2", "cor1", "thm2", "thm3", "cor2", "thm5"],
)
def test_zero_dim_radius_has_the_bits_of_a_float_radius(bound, args, radii):
    # A radius given as np.array(r) is a 0-d array: the power and log-tail
    # helpers must take it like a one-element grid, not iterate a float.
    for r in radii:
        got = np.asarray(bound(*args, np.array(r)), dtype=np.float64)
        want = np.float64(bound(*args, r))
        assert got.shape == ()
        assert got.view(np.uint64) == want.view(np.uint64), r
