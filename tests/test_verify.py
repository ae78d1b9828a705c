"""Certification machinery: Schwarz composition, dominance lemmas, suites."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochsums import (
    R_THM5,
    ALL_SUITES,
    CoefficientSeries,
    ScanGrid,
    SchwarzSpec,
    crossing_radius,
    g_prime_coeffs,
    h_series,
    make_subordinate,
    run_suite,
    sharpness_scan,
    verify_thm1,
)
from blochsums import bounds, numerics, verify
from blochsums.bounds import THM2_R_LO, R_HI, r_admissible
from blochsums.families import X_GUARD, X_SUP, a_of_x, b2_max, f_n_prime
from blochsums.numerics import golden_max
from blochsums.series import (
    _class_tail,
    _cor1_class_tail,
    _cor1_tail_certificate,
    _phi_weighted_functional,
)
from blochsums.verify import (
    _FAMILY_LHS,
    _N_MAX,
    _THM1_XS,
    _cor2_h,
    _cor2_reduced,
    _cor2_rows,
    _family_peak,
    _grid_max,
    _random_bloch_prime,
    _random_schwarz,
    _rogosinski_row,
    _sample,
    _suite_prop1,
    _thm2_quadratic,
    _thm2_rows,
    _thm2_sextic,
    _thm3_rows,
    _thm3_sextic,
    _thm5_case2_lhs,
    _thm5_case3_lhs,
    _thm5_family_lhs,
    _thm5_rows,
    _thm5_searches,
    case1_poly_coeffs,
    thm3_surd_coefficients,
)

from abel_oracle import _abel_row

# The pass rule's default tolerance, which --tol and run_suite start from.
TOL = ScanGrid().tolerance


def _all_pass(rows, tol=TOL):
    return bool(rows) and all(i.passes(tol) for i in rows)


class TestSchwarzSpec:
    def test_rotation_coeffs(self):
        u = complex(math.cos(1.0), math.sin(1.0))
        w = SchwarzSpec("rotation", (u,))
        c = w.coeffs(4)
        assert c[1] == u
        assert np.count_nonzero(c) == 1

    def test_monomial_coeffs(self):
        w = SchwarzSpec("monomial", (), degree=3)
        c = w.coeffs(5)
        assert c[3] == 1.0
        assert np.count_nonzero(c) == 1

    def test_blaschke_zero_parameter_is_square(self):
        w = SchwarzSpec("blaschke_product", (0.0,))
        c = w.coeffs(4)
        np.testing.assert_allclose(c, [0, 0, 1, 0, 0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SchwarzSpec("rotation", (0.5,))
        with pytest.raises(ValueError):
            SchwarzSpec("monomial", (), degree=0)
        with pytest.raises(ValueError):
            SchwarzSpec("blaschke_product", (0.95,))
        with pytest.raises(ValueError):
            SchwarzSpec("squared", ())

    @pytest.mark.parametrize(
        "kind, parameters, degree",
        [
            ("rotation", (math.nan,), 1),
            ("rotation", (complex(math.inf, 0.0),), 1),
            ("blaschke_product", (math.nan,), 1),
            ("blaschke_product", (0.5, complex(0.1, math.nan)), 1),
            # bool is an int, and True would index every coefficient
            ("monomial", (), True),
            ("monomial", (), 2.5),
            ("monomial", (), 2.0),
            # a degree or parameters that coeffs and composition would ignore
            ("rotation", (1.0,), 2),
            ("blaschke_product", (0.5,), 3),
            ("monomial", (0.5,), 2),
        ],
    )
    def test_rejects_maps_it_would_mishandle(self, kind, parameters, degree):
        with pytest.raises(ValueError):
            SchwarzSpec(kind, parameters, degree=degree)

    def test_numpy_integer_degree(self):
        w = SchwarzSpec("monomial", (), degree=np.int64(2))
        np.testing.assert_array_equal(w.coeffs(3), [0, 0, 1, 0])

    @pytest.mark.parametrize(
        "spec",
        [
            SchwarzSpec("rotation", (complex(-1.0),)),
            SchwarzSpec("monomial", (), degree=2),
            SchwarzSpec("blaschke_product", (0.5, -0.3 + 0.2j)),
        ],
    )
    def test_self_map_contracts(self, spec):
        # |w(z)| <= |z| on a circle well inside the disc (truncation exact
        # to far below the tolerance at this radius).
        c = spec.coeffs(128)
        z = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32.0)
        vals = np.polynomial.polynomial.polyval(z, c)
        assert np.all(np.abs(vals) <= 0.5 + 1e-9)


class TestMakeSubordinate:
    def test_identity_rotation(self):
        base = g_prime_coeffs(0.2, 32)
        comp = make_subordinate(base, SchwarzSpec("rotation", (1.0 + 0j,)), 32)
        np.testing.assert_allclose(comp.coeffs, base.coeffs, atol=1e-14)

    def test_monomial_interleaves(self):
        base = g_prime_coeffs(0.2, 10)
        comp = make_subordinate(base, SchwarzSpec("monomial", (), degree=2), 20)
        np.testing.assert_allclose(comp.coeffs[::2], base.coeffs, atol=1e-14)
        assert np.all(comp.coeffs[1::2] == 0.0)

    def test_agrees_with_pointwise_composition(self):
        base = g_prime_coeffs(0.25, 64)
        spec = SchwarzSpec("blaschke_product", (0.3, -0.2 + 0.1j))
        comp = make_subordinate(base, spec, 64)
        for z0 in (0.3, 0.2 + 0.1j, -0.25j):
            w0 = np.polynomial.polynomial.polyval(z0, spec.coeffs(64))
            direct = base.evaluate(w0)
            assert abs(comp.evaluate(z0) - direct) < 1e-9

    def test_function_kind_rejected(self):
        f = CoefficientSeries([0.0, 1.0], "function")
        with pytest.raises(ValueError):
            make_subordinate(f, SchwarzSpec("monomial", (), degree=2), 8)

    @pytest.mark.parametrize(
        "spec",
        [
            SchwarzSpec("rotation", (1.0 + 0j,)),
            SchwarzSpec("monomial", (), degree=2),
            SchwarzSpec("blaschke_product", (0.3,)),
        ],
        ids=lambda spec: spec.kind,
    )
    @pytest.mark.parametrize("n", [0, -3, 6.5, 8.0, True])
    def test_bad_order_is_one_value_error(self, spec, n):
        # Checked before any kind's own code, where order 0 composes for a
        # rotation or a monomial, -3 reaches NumPy's "negative dimensions"
        # and 6.5 a NumPy TypeError.
        base = g_prime_coeffs(0.2, 16)
        with pytest.raises(ValueError, match="order must be an integer"):
            make_subordinate(base, spec, n)


def _horner_oracle(b, wc, n):
    """Full-length truncated Horner recursion: every step convolves two
    length-(n+1) arrays and keeps the first n+1 entries."""
    acc = np.zeros(n + 1, dtype=np.complex128)
    for c in b[::-1]:
        acc = np.convolve(acc, wc)[: n + 1]
        acc[0] += c
    return acc


class TestCompositionFastPaths:
    """make_subordinate must reproduce the full-length Horner recursion
    exactly, since reports print 17 significant digits: Blaschke products
    and rotations (the shrinking-window recursion, on a rotation's two
    coefficients) bit for bit, monomials (a scatter that skips the
    recursion) up to the sign of exact zeros."""

    @pytest.mark.parametrize("n", [8, 48, 64, 128, 256])
    def test_equal_to_horner_oracle(self, n):
        rng = np.random.default_rng(n)
        bases = [
            g_prime_coeffs(float(rng.uniform(0.02, 0.55)), n),  # n + 1 terms
            g_prime_coeffs(0.3, n + 17),  # longer than n + 1
            h_series(float(rng.uniform(0.15, 0.9)), n),
            f_n_prime(int(rng.integers(1, 7))),  # shorter than n + 1
        ]
        specs = [
            SchwarzSpec("rotation", (complex(np.exp(2j * np.pi * rng.uniform())),))
            for _ in range(3)
        ]
        specs += [SchwarzSpec("monomial", (), degree=d) for d in (1, 2, 3, 4, n + 1)]
        specs += [
            SchwarzSpec(
                "blaschke_product",
                tuple(complex(z) for z in rng.uniform(-0.6, 0.6, (k, 2)) @ (1, 1j)),
            )
            for k in (1, 2, 3)
        ]
        for base in bases:
            for spec in specs:
                fast = make_subordinate(base, spec, n).coeffs
                oracle = _horner_oracle(base.coeffs, spec.coeffs(n), n)
                assert fast.shape == (n + 1,)
                if spec.kind == "monomial":
                    assert np.array_equal(fast, oracle), (spec, base.order)
                else:
                    assert np.array_equal(
                        fast.view(np.uint64), oracle.view(np.uint64)
                    ), (spec, base.order)


def _zeros(spec):
    return spec.parameters if spec.kind == "blaschke_product" else ()


class TestCertifiedComposition:
    """The suites compose each sample only to the order m its rows read
    (``_sample``): the result must be the order-n composition's entries
    0..m bit for bit, zeros above, and the class-wide tails that choose m
    must cover what the orders above m add."""

    @staticmethod
    def read_at(base, spec, n, m):
        # ``_sample`` with one row, whose tails certify exactly the orders >= m.
        tails = lambda orders: np.where(orders >= m, 0.0, np.inf)
        return _sample(base, spec, n, lambda comp: [1.0], tails)[0]

    @pytest.mark.parametrize("n", [130, 256, 384])
    def test_padded_order_m_has_the_bits_of_order_n(self, n):
        rng = np.random.default_rng(n)
        bases = [
            g_prime_coeffs(float(rng.uniform(0.02, 0.55)), n),
            h_series(float(rng.uniform(0.15, 0.9)), n),
            f_n_prime(int(rng.integers(1, 7))),
        ]
        specs = [
            SchwarzSpec("rotation", (complex(np.exp(2j * np.pi * rng.uniform())),)),
            SchwarzSpec("monomial", (), degree=int(rng.integers(1, 5))),
        ]
        specs += [
            SchwarzSpec(
                "blaschke_product",
                tuple(complex(z) for z in rng.uniform(-0.6, 0.6, (k, 2)) @ (1, 1j)),
            )
            for k in (1, 2, 3)
        ]
        for base in bases:
            for spec in specs:
                full = make_subordinate(base, spec, n).coeffs
                for m in (_N_MAX, (_N_MAX + n) // 2, n):
                    got = self.read_at(base, spec, n, m).coeffs
                    assert got.shape == (n + 1,)
                    assert np.array_equal(
                        got[: m + 1].view(np.uint64), full[: m + 1].view(np.uint64)
                    ), (spec, base.order, m)
                    assert not np.any(got[m + 1 :]), (spec, base.order, m)

    @staticmethod
    def dropped(terms):
        """Entry m: the sum of terms above index m (a sum of nonnegatives)."""
        return np.append(np.cumsum(terms[::-1])[::-1][1:], 0.0)

    def assert_covers(self, tails, terms, n):
        # Orders 1 .. n-1; the order-512 terms stand in for the whole series.
        m = np.arange(1, n)
        truth = self.dropped(terms)[m]
        assert np.all(tails(m) >= truth * (1.0 + 1e-12)), np.min(tails(m) - truth)

    @pytest.mark.parametrize("n", [160, 256])
    def test_class_tails_cover_thm1_and_prop1_samples(self, n):
        rng = np.random.default_rng((n, 1))
        samples = [(g_prime_coeffs(x, 512), 0.9 * r_admissible(x)) for x in _THM1_XS]
        radii = [r for k in range(1, 7) for r in np.linspace(0.15, bounds.r_star(k), 5)]
        samples += [(_random_bloch_prime(rng, 512), r) for r in radii[4::5]]
        for base, r in samples:
            for _ in range(3):
                c = make_subordinate(base, _random_schwarz(rng), 512).coeffs
                j = np.arange(c.size, dtype=np.float64)
                square = np.abs(c) ** 2 * r ** (2.0 * j + 2.0)  # k^2 weight, k = j+1
                for p, terms in ((2, square), (1, square / (j + 1.0))):
                    self.assert_covers(lambda m: _class_tail(m, r, p), terms, n)

    @pytest.mark.parametrize("n", [160, 256])
    def test_cor1_tails_cover_cor1_samples(self, n):
        rng = np.random.default_rng((n, 2))
        for _ in range(10):
            a = float(rng.uniform(0.15, 0.9))
            r = float(rng.uniform(0.1, R_HI))
            spec = _random_schwarz(rng)
            c = make_subordinate(h_series(a, 512), spec, 512).coeffs
            j = np.arange(c.size, dtype=np.float64)
            w = 3.0 * r * r
            terms = np.abs(c) ** 2 * w ** (j + 1.0) / (3.0 * (j + 1.0))
            terms[0] = 0.0  # the functional starts at j = 1
            self.assert_covers(
                lambda m: _cor1_class_tail(m, a, r, spec.degree, _zeros(spec)), terms, n
            )

    def test_suites_keep_the_rogosinski_order_and_raise_it_only_for_cor1(
        self, default_grid, monkeypatch
    ):
        orders = []

        def counted(base, spec, n):
            orders.append(n)
            return make_subordinate(base, spec, n)

        monkeypatch.setattr(verify, "make_subordinate", counted)
        run_suite("thm1_B", default_grid)
        assert set(orders) == {_N_MAX}
        orders.clear()
        run_suite("cor1", default_grid)
        assert min(orders) == _N_MAX and max(orders) <= default_grid.truncation


class TestRogosinskiDominance:
    def test_identity_pair_passes(self):
        g = g_prime_coeffs(0.3, 32)
        row = _rogosinski_row("rogosinski", "demo", {}, g, g, 32)
        assert row.passes(TOL)
        assert row.slack == pytest.approx(0.0, abs=1e-15)

    def test_detects_violation(self):
        f = CoefficientSeries([2.0], "derivative")
        g = CoefficientSeries([1.0], "derivative")
        row = _rogosinski_row("rogosinski", "demo", {}, f, g, 0)
        assert not row.passes(TOL)
        assert (row.lhs, row.params) == (3.0, {"n": 0.0})

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_subordinates_always_dominated(self, seed):
        rng = np.random.default_rng(seed)
        base = _random_bloch_prime(rng, 96)
        comp = make_subordinate(base, _random_schwarz(rng), 96)
        assert _rogosinski_row("rogosinski", "demo", {}, comp, base, 96).passes(TOL)


def _abel(u, v, lam):
    return _abel_row("abel", "weighted_sum", u, v, lam)


class TestAbelWeightedDominance:
    def test_valid_pair_passes(self):
        v = np.array([1.0, 0.5, 0.25, 0.125])
        u = v - np.array([0.1, 0.0, 0.2, 0.0])
        lam = np.array([1.0, 0.5, 0.25, 0.125])
        assert _abel(u, v, lam).passes(TOL)

    def test_prefix_violation_is_invalid_input(self):
        with pytest.raises(ValueError, match="prefix"):
            _abel([2.0, 0.0], [1.0, 5.0], [1.0, 0.5])

    def test_weight_monotonicity_required(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            _abel([0.0, 0.0], [1.0, 1.0], [0.5, 1.0])

    def test_weight_sign_required(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _abel([0.0, 0.0], [1.0, 1.0], [1.0, -0.5])

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_summation_by_parts_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 20))
        v = rng.uniform(0.0, 1.0, m)
        deficits = np.cumsum(rng.uniform(0.0, 0.5, m))
        u = v - np.diff(np.concatenate(([0.0], deficits)))
        lam = np.sort(rng.uniform(0.0, 2.0, m))[::-1]
        assert _abel(u, v, lam).passes(TOL)


class TestTheoremSuites:
    def test_thm1_equality_and_samples(self, light_grid):
        rows = verify_thm1(0.2, 0.9 * (R_HI - 0.2) / (1 - 0.2 * R_HI), light_grid)
        assert _all_pass(rows, light_grid.tolerance)
        ids = {inst.instance_id for inst in rows}
        assert "equality/le" in ids and "equality/ge" in ids

    def test_thm1_rejects_inadmissible_radius(self, light_grid):
        with pytest.raises(ValueError, match="admissible"):
            verify_thm1(0.3, 0.5, light_grid)

    @pytest.mark.parametrize("r", (THM2_R_LO, 0.55, R_HI))
    def test_thm2_radii(self, r):
        assert _all_pass(_thm2_rows(r))

    def test_sharp_z2_pairs_meet_the_declared_quartics(self, light_grid):
        # F = (3 sqrt(3)/4) z^2 attains thm2's (27/4) r^4 and thm5's
        # (27/8) r^4: an equality pair at thm2's three radii and at thm5's R
        # and 1/sqrt(3), each side within an ulp or so of thm_rhs.
        rows = [
            i
            for suite in ("thm2", "thm5")
            for i in run_suite(suite, light_grid).instances
            if "sharp/z2" in i.instance_id
        ]
        radii = {"thm2": (THM2_R_LO, 0.55, R_HI), "thm5": (R_THM5, R_HI)}
        assert [(i.bound_id, i.params["r"]) for i in rows[::2]] == [
            (b, r) for b, rs in radii.items() for r in rs
        ]
        for row in rows:
            rhs = bounds.thm_rhs(row.bound_id, row.params["r"])
            assert row.passes(1e-15), row.instance_id
            assert abs(row.rhs - rhs) <= 1e-15 * rhs, row.instance_id

    @pytest.mark.parametrize("truncation", (8, 48, 256))
    def test_thm1_B2_derivative_rows(self, truncation):
        # (r/2) dB2/dr = B at the 20 nodes, each row within 1e-15 of exact,
        # whatever the truncation (the closed forms take none).
        report = run_suite("thm1_B2", ScanGrid(truncation=truncation, sample_count=3))
        rows = [i for i in report.instances if i.instance_id.startswith("derivative/")]
        assert len(rows) == 20
        assert max(i.lhs for i in rows) <= 1e-15
        assert not any(i.instance_id.startswith("integral/") for i in report.instances)

    def test_thm2_interval_gate(self):
        with pytest.raises(ValueError):
            _thm2_rows(0.4)

    def test_thm3(self):
        rows = _thm3_rows()
        assert _all_pass(rows)
        decimals = [i for i in rows if i.instance_id.startswith("decimal")]
        assert len(decimals) == 6

    def test_cor2(self):
        rows = _cor2_rows()
        assert _all_pass(rows)
        by_id = {i.instance_id: i for i in rows}
        # the derivative never changes sign inside (0, c]: max sits at w = 0
        assert by_id["hprime_sign_changes"].lhs == 0.0

    def test_thm5_default_red_is_only_case2_argmax(self, light_grid):
        report = run_suite("thm5", light_grid)
        failing = [
            i.instance_id
            for i in report.instances
            if not i.passes(light_grid.tolerance)
        ]
        assert failing == ["case2/argmax_location"]
        assert not report.passed

    def test_case1_low_coefficients_vanish_at_threshold(self):
        # What makes -4 P(y)/y^2 the polynomial of the printed decimals.
        p = case1_poly_coeffs()
        assert abs(p[0]) <= 1e-14
        assert abs(p[1]) <= 1e-14

    def test_case1_coefficients_have_the_bits_of_numpy_polynomial(self):
        # The package builds P(y) with np.convolve; numpy.polynomial, which
        # it does not import, is the oracle, shape included: at R_THM5 no
        # product or sum has a trailing zero for polynomial's trim to drop.
        from numpy.polynomial import polynomial as npoly

        r2 = R_THM5 * R_THM5
        a2 = npoly.polymul([0.0, 27.0 / 4.0], npoly.polypow([1.0, -1.0], 2))
        bracket = npoly.polyadd(
            [0.0, 2.0], npoly.polymul([r2], [1.0, 2.0 * (r2 - 3.0), 1.0])
        )
        want = npoly.polysub(
            npoly.polymul(
                npoly.polymul(npoly.polysub([1.0], a2), npoly.polypow([1.0, -1.0], 2)),
                bracket,
            ),
            npoly.polymul([r2], npoly.polypow([1.0, -r2], 4)),
        )
        got = case1_poly_coeffs()
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_thm5_below_threshold_shows_violation(self, light_grid):
        r = R_THM5 - 0.01
        report = run_suite("thm5", dataclasses.replace(light_grid, r_values=(r,)))
        failing = {
            i.instance_id
            for i in report.instances
            if not i.passes(light_grid.tolerance)
        }
        assert f"r={r:.6f}/case1/negativity" in failing
        assert f"r={r:.6f}/ring/lower" in failing


class TestRowHelpers:
    def test_grid_max_takes_the_first_largest_value(self):
        values = np.array([1.0, 3.0, 2.0, 3.0])
        row = _grid_max("thm2", "demo", {"r": 0.5}, "x", [0.1, 0.2, 0.3, 0.4], values)
        assert (row.bound_id, row.instance_id) == ("thm2", "demo")
        assert row.params == {"r": 0.5, "x": 0.2}
        assert (row.lhs, row.rhs) == (3.0, 0.0)

    def test_grid_max_leaves_the_given_params_alone(self):
        params = {"a": 0.3}
        row = _grid_max("cor1", "demo", params, "n", range(3), np.zeros(3), rhs=1.0)
        assert row.params == {"a": 0.3, "n": 0.0}
        assert params == {"a": 0.3}
        assert row.rhs == 1.0

    def test_rogosinski_row_reports_the_worst_prefix_and_its_length(self):
        # Prefix sums 0, 4, 4, 4 against 1, 2, 3, 4: the excess peaks at n = 1.
        f = CoefficientSeries([0.0, 2.0, 0.0, 0.0], "derivative")
        g = CoefficientSeries([1.0, 1.0, 1.0, 1.0], "derivative")
        row = _rogosinski_row("thm1_B", "demo", {"x": 0.1}, f, g, 3)
        assert row.params == {"x": 0.1, "n": 1.0}
        assert (row.lhs, row.rhs) == (2.0, 0.0)

    def test_prop1_samples_report_the_first_radius_of_equal_excess(self, monkeypatch):
        # Every radius gives the same excess tail - cap: the first, 0.15, wins.
        monkeypatch.setattr(verify, "weighted_power_sum", lambda *a, **k: 1.0)
        monkeypatch.setattr(verify, "bound_prop1", lambda n, r: 2.0)
        rows = _suite_prop1(ScanGrid(sample_count=5, truncation=8), {})
        samples = [i for i in rows if i.instance_id.startswith("sample")]
        assert len(samples) == 30
        assert {i.params["r"] for i in samples} == {0.15}

    @pytest.mark.parametrize("a", (0.3, 0.5, 0.75))
    @pytest.mark.parametrize("r", (0.2, 0.35, 0.55))
    def test_cor1_tail_certificate_covers_the_truncated_majorant(self, a, r):
        # B_a(r) is the whole majorant sum; the certificate bounds the terms
        # that truncation at order n drops, up to rounding in B_a(r) itself.
        rhs = bounds.bound_cor1(a, r)
        for n in range(8, 17):
            lhs = _phi_weighted_functional(h_series(a, n), r)
            assert rhs - lhs <= _cor1_tail_certificate(a, r, n) + 1e-12 * rhs, n


class TestSharpnessMachinery:
    def test_scan_consistent_at_threshold(self, default_grid):
        row = sharpness_scan("thm5", R_THM5, default_grid)
        assert row.passes(default_grid.tolerance)

    def test_scan_flags_violation_below_threshold(self, default_grid):
        row = sharpness_scan("thm5", R_THM5 - 0.01, default_grid)
        assert not row.passes(default_grid.tolerance)
        assert row.slack < -1e-5

    def test_thm2_scan_crossing_matches_root(self, default_grid):
        result = crossing_radius("thm2", 0.38, 0.41, default_grid, tol=1e-12)
        assert abs(result.root - 0.39466631408536207) < 1e-9

    def test_unknown_bound_rejected(self, default_grid):
        with pytest.raises(ValueError):
            sharpness_scan("thm3", 0.5, default_grid)
        with pytest.raises(ValueError, match="bound ids"):
            crossing_radius("thm3", 0.37, 0.4, default_grid)

    @pytest.mark.parametrize("bound_id", ["thm2", "thm5"])
    def test_crossing_radius_rejects_an_underflowed_end(self, default_grid, bound_id):
        # Peak and bound are both 0 at 1e-300: no crossing, not a root.
        with pytest.raises(ValueError, match="underflow"):
            crossing_radius(bound_id, 1e-300, 0.5, default_grid)
        # At 1e-100 only the bound underflows, and the bisection runs.
        result = crossing_radius(bound_id, 1e-100, 0.5, default_grid, tol=1e-12)
        assert 0.37 < result.root < 0.4

    @pytest.mark.parametrize("r_lo, r_hi", [(0.0, 0.4), (0.37, 1.0), (-0.5, 1.5)])
    def test_crossing_radii_outside_unit_interval_rejected(
        self, default_grid, r_lo, r_hi
    ):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            crossing_radius("thm2", r_lo, r_hi, default_grid)


def _bits(*values):
    return np.array(values, dtype=np.float64).view(np.uint64)


def _peak_oracle(f, xs):
    """A grid-then-golden maximum as (value, argmax), by scalar calls: f at
    each node, then a scalar golden search between the first largest node's
    neighbours, kept only where it is larger.  The array calls must give
    the same bits."""
    vals = np.array([f(x) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    if lo < hi:
        arg, val = golden_max(f, lo, hi, tol=1e-12)
        if val > vals[i]:
            return val, arg
    return float(vals[i]), float(xs[i])


def _family_peak_oracle(functional, r, grid):
    return _peak_oracle(lambda x: functional(x, r), grid.x_grid())


# The thm5 case envelopes, each with its range of a and its 200 nodes.
_THM5_CASES = {
    "case2": (_thm5_case2_lhs, np.linspace(0.6, 0.75, 200)),
    "case3": (_thm5_case3_lhs, np.linspace(0.75, 1.0, 200)),
}

# The thm5 rows that hold for every radius: once per run, never prefixed.
_THM5_FIXED_IDS = (
    "case1/x_boundary",
    "case1/admissible_floor",
    *(f"case1/decimal{j}" for j in range(6)),
    "ring/upper",
    *(f"sharp/z2/r={r:.6f}/{side}" for r in (R_THM5, R_HI) for side in ("le", "ge")),
)


class TestArrayClosedForms:
    """A closed form called with an array of x (or a) must give, element by
    element, the bits of its scalar calls, with Python floats (golden search)
    and with NumPy scalars (a loop over a grid).  NumPy's
    vector ``**`` would not: it rounds some powers differently."""

    @pytest.mark.parametrize(
        "form",
        [
            bounds._thm1_B_raw,
            bounds._thm1_B2_raw,
            _thm5_family_lhs,
            _thm5_case2_lhs,
            _thm5_case3_lhs,
        ],
    )
    def test_array_equals_scalar(self, form):
        rng = np.random.default_rng(2019)
        xs = np.concatenate(
            [rng.uniform(0.0, 1.0, 5000), ScanGrid().x_grid(), np.linspace(0.6, 1.0, 400)]
        )
        for r in (0.05, 0.3, R_THM5, 0.4, R_HI, 0.9, float(rng.uniform())):
            got = form(xs, r)
            assert got.shape == xs.shape
            floats = np.array([form(x, r) for x in xs.tolist()])
            scalars = np.array([form(x, r) for x in xs])
            assert np.array_equal(got.view(np.uint64), floats.view(np.uint64)), r
            assert np.array_equal(got.view(np.uint64), scalars.view(np.uint64)), r


    @pytest.mark.parametrize(
        "form",
        [
            bounds._thm1_B_raw,
            bounds._thm1_B2_raw,
            bounds._basic_raw,
            bounds._prop1_raw,
            bounds._cor1_raw,
            bounds._thm_rhs_raw,
        ],
    )
    def test_r_array_equals_scalar(self, form):
        # ``table`` calls each closed form with an array of radii.
        rng = np.random.default_rng(2020)
        rs = np.concatenate(
            [rng.uniform(0.0, 1.0, 5000), np.linspace(-0.2, 1.2, 1401)]
        )
        thm1_xs = (1e-3, 0.05, 0.2, 0.45, R_HI - 1e-3, float(rng.uniform(0.0, R_HI)))
        params = {
            bounds._basic_raw: [()],
            bounds._prop1_raw: [(1,), (6,), (141,)],
            # a = 1e-75 and 0.2 mix both of B_a's forms in one array (tiny r
            # takes the small-tail form); the two tinier a take only it.
            bounds._cor1_raw: [(1e-300,), (1e-78,), (1e-75,), (0.2,), (0.7,)],
            bounds._thm_rhs_raw: [(b,) for b in bounds.VALIDITY],
        }.get(form, [(x,) for x in thm1_xs])
        if form is bounds._basic_raw:
            rs = rs[np.abs(rs) != 1.0]  # its pole: a scalar call divides by 0
        for p in params:
            got = form(*p, rs)
            floats = np.array([form(*p, r) for r in rs.tolist()])
            scalars = np.array([form(*p, r) for r in rs])
            assert np.array_equal(got.view(np.uint64), floats.view(np.uint64)), p
            assert np.array_equal(got.view(np.uint64), scalars.view(np.uint64)), p

    def test_cor2_h_w_array_equals_scalar(self):
        # The cor2 grid calls H_a with one row of w at a time; a comes from
        # a NumPy grid there and is a Python float in the identity rows.
        rng = np.random.default_rng(2021)
        for a in np.concatenate([np.linspace(1e-3, 1.0 - 1e-3, 7), [0.6]]):
            for a in (a, float(a)):
                c = 4.0 * a * a / 9.0
                ws = np.concatenate(
                    [np.linspace(0.0, c, 200), rng.uniform(0.0, 0.999, 3000)]
                )
                got = _cor2_h(a, ws)
                floats = np.array([_cor2_h(a, w) for w in ws.tolist()])
                scalars = np.array([_cor2_h(a, w) for w in ws])
                assert np.array_equal(got.view(np.uint64), floats.view(np.uint64)), a
                assert np.array_equal(got.view(np.uint64), scalars.view(np.uint64)), a


def _cor2_grid_oracle():
    """``(lhs, a, w)`` of the cor2 ``h_grid`` row as the scalar double loop
    over the 200 x 200 grid that the row-at-a-time evaluation replaced:
    first maximum in row-major order, each cell one scalar ``_cor2_h``
    call."""
    worst_val, worst_at = -math.inf, (0.0, 0.0)
    for a in np.linspace(1e-3, 1.0 - 1e-3, 200):
        c = 4.0 * a * a / 9.0
        for w in np.linspace(0.0, c, 200):
            val = _cor2_h(a, w)
            if val > worst_val:
                worst_val, worst_at = val, (float(a), float(w))
    return worst_val, worst_at[0], worst_at[1]


class TestFamilyGridOracles:
    @pytest.mark.parametrize("bound_id", sorted(_FAMILY_LHS))
    @pytest.mark.parametrize(
        "x_range", [ScanGrid().x_range, (0.0, X_SUP, 1000), (0.2, 0.3, 2)]
    )
    def test_family_peak_matches_oracle(self, bound_id, x_range):
        grid = ScanGrid(x_range=x_range)
        functional = _FAMILY_LHS[bound_id]
        ends = (float(grid.x_grid()[0]), float(grid.x_grid()[-1]))
        radii = np.linspace(0.001, 0.999, 300)
        want = [_family_peak_oracle(functional, r, grid) for r in radii.tolist()]
        unrefined_ends = 0
        for r, w in zip(radii.tolist(), want):
            got = _family_peak(functional, r, grid)
            assert np.array_equal(_bits(*got), _bits(*w)), r
            assert {type(v) for v in got} == {float}, r
            unrefined_ends += got[1] in ends
        # Peaks at a grid end that golden search does not improve return the
        # grid value itself; the radii must cover that branch too.
        assert unrefined_ends > 0
        # One call over all 300 radii, its golden searches run in lockstep.
        peaks, args = _family_peak(functional, radii, grid)
        assert np.array_equal(_bits(*peaks), _bits(*[w[0] for w in want]))
        assert np.array_equal(_bits(*args), _bits(*[w[1] for w in want]))

    def test_thm5_case_rows_match_oracle(self, default_grid):
        golden_wins = {"case2": 0, "case3": 0}
        grid_wins = {"case2": 0, "case3": 0}
        for r in (0.05, 0.2, R_THM5, 0.37, 0.38, 0.5, R_HI):
            rows = {
                i.instance_id: i
                for i in _thm5_rows(r, _thm5_searches(r, default_grid))
            }
            # thm_rhs without its radius gate: the radii reach below R.
            rhs = bounds._thm_rhs_raw("thm5", r)
            xs = np.linspace(X_GUARD, min(0.25, r_admissible(r) - 1e-9), 400)
            dvals = np.array([_thm5_family_lhs(x, r) - rhs for x in xs])
            i = int(np.argmax(dvals))
            row = rows["case1/negativity"]
            assert np.array_equal(
                _bits(row.lhs, row.params["x"]), _bits(dvals[i], xs[i])
            ), r
            for case, (form, nodes) in _THM5_CASES.items():
                best, arg = _peak_oracle(lambda a: form(a, r), nodes)
                row = rows[f"{case}/max_value"]
                assert np.array_equal(
                    _bits(row.lhs, row.params["a"]), _bits(best, arg)
                ), (case, r)
                on_node = arg in nodes.tolist()
                grid_wins[case] += on_node
                golden_wins[case] += not on_node
            argmax = rows["case2/argmax_location"]
            assert argmax.params["argmax"] == rows["case2/max_value"].params["a"]
        # The grid node sets both cases' rows at some radii, and golden sets
        # case 2's at the small radii, where its maximum is interior.
        assert min(grid_wins.values()) > 0
        assert golden_wins["case2"] > 0

    def test_thm5_replay_over_blocks_matches_the_per_radius_rows(self, default_grid):
        # More radii than a block holds on any of the replay's grids (64 rows
        # of case 2's 200 nodes, 32 of the 400-node x grids): each radius's
        # rows have the bits of its own float searches, and case 1's largest
        # difference the bits of the scalar loop over its 400 nodes.
        per_block = numerics._BLOCK_CELLS // 200
        radii = tuple(np.linspace(0.01, R_HI, per_block + 5).tolist())
        grid = dataclasses.replace(default_grid, r_values=radii)
        got = {i.instance_id: i for i in run_suite("thm5", grid).instances}

        def fields(i):
            return _bits(i.lhs, i.rhs, i.slack, i.tail_certificate, *i.params.values())

        for r in radii:
            for row in _thm5_rows(r, _thm5_searches(r, grid)):
                replayed = got[f"r={r:.6f}/{row.instance_id}"]
                assert list(replayed.params) == list(row.params)
                assert np.array_equal(fields(replayed), fields(row)), row.instance_id
            rhs = bounds._thm_rhs_raw("thm5", r)
            xs = np.linspace(X_GUARD, min(0.25, r_admissible(r) - 1e-9), 400)
            dvals = np.array([_thm5_family_lhs(x, r) - rhs for x in xs])
            i = int(np.argmax(dvals))
            row = got[f"r={r:.6f}/case1/negativity"]
            assert np.array_equal(
                _bits(row.lhs, row.params["x"]), _bits(dvals[i], xs[i])
            ), r

    @pytest.mark.parametrize("r", (0.05, 0.2, R_THM5, 0.38, R_HI, 1e-300))
    def test_thm5_case3_peaks_at_three_quarters(self, default_grid, r):
        # The row takes case 3's maximum at a = 3/4, the vertex argument in
        # _thm5_rows; the grid-and-golden search it replaced finds the same
        # bits at the same node, by scalar calls and in lockstep.
        form, nodes = _THM5_CASES["case3"]
        want = _bits(form(0.75, r), 0.75)
        assert np.array_equal(_bits(*_peak_oracle(lambda a: form(a, r), nodes)), want)
        found = numerics._grid_refined_max(form, nodes, np.array([r, 0.3]))
        assert np.array_equal(_bits(found[0][0], found[1][0]), want)
        (row,) = [
            i
            for i in _thm5_rows(r, _thm5_searches(r, default_grid))
            if i.instance_id == "case3/max_value"
        ]
        assert np.array_equal(_bits(row.lhs, row.params["a"]), want)

    def test_thm5_r_values_rows_equal_the_per_radius_rows(self, default_grid):
        # The replay at many radii runs each search once, in lockstep over
        # all radii; each radius must get the rows of its own float search,
        # where the grid node and where golden sets the case-2 maximum.  The
        # rows that hold for every radius come once, unprefixed, equal to
        # the default run's.
        radii = (0.05, 0.2, R_THM5, 0.37, 0.371, 0.375, 0.38, 0.5, R_HI)
        grid = dataclasses.replace(default_grid, r_values=radii)
        got = run_suite("thm5", grid).instances
        default = {i.instance_id: i for i in run_suite("thm5", default_grid).instances}
        fixed = [i for i in got if not i.instance_id.startswith("r=")]
        assert sorted(i.instance_id for i in fixed) == sorted(_THM5_FIXED_IDS)
        want = [default[i.instance_id] for i in fixed]
        wins = {"grid": 0, "golden": 0}
        for r in radii:
            searches = _thm5_searches(r, grid)
            rows = _thm5_rows(r, searches)
            want += [
                dataclasses.replace(i, instance_id=f"r={r:.6f}/{i.instance_id}")
                for i in rows
            ]
            form, nodes = _THM5_CASES["case2"]
            oracle = _peak_oracle(lambda a: form(a, r), nodes)
            assert np.array_equal(_bits(*searches[0]), _bits(*oracle)), r
            wins["grid" if oracle[1] in nodes.tolist() else "golden"] += 1
        assert min(wins.values()) > 0
        assert [i.instance_id for i in got] == [i.instance_id for i in want]

        def fields(i):
            return _bits(i.lhs, i.rhs, i.slack, i.tail_certificate, *i.params.values())

        for g, w in zip(got, want):
            assert list(g.params) == list(w.params), g.instance_id
            assert np.array_equal(fields(g), fields(w)), g.instance_id

    def test_thm5_rows_take_the_declared_quartic_bound(self, default_grid):
        # Every row against (27/8) r^4 carries thm_rhs's bits, case 1 takes
        # its differences against the same value, and both ring rows are the
        # sharpness scan's row at their radius under their own ids: in the
        # default run and in a replay.
        radii = (R_THM5, 0.38, 0.4, 0.45, 0.5, R_HI)
        replay = dataclasses.replace(default_grid, r_values=radii)
        quartic = ("case2/max_value", "case3/max_value", "ring/lower", "ring/upper")

        def fields(i):
            return _bits(i.lhs, i.rhs, i.slack, i.tail_certificate, *i.params.values())

        for grid, count in ((default_grid, 5), (replay, 6 * 4 + 1)):
            seen = 0
            for row in run_suite("thm5", grid).instances:
                name = re.sub(r"^r=[^/]*/", "", row.instance_id)
                if name not in quartic and name != "case1/negativity":
                    continue
                seen += 1
                r = row.params["r"]
                rhs = bounds.thm_rhs("thm5", r)
                if name == "case1/negativity":
                    want = _thm5_family_lhs(row.params["x"], r) - rhs
                    assert np.array_equal(_bits(row.lhs), _bits(want)), row.instance_id
                    continue
                assert np.array_equal(_bits(row.rhs), _bits(rhs)), row.instance_id
                if name.startswith("ring/"):
                    scan = sharpness_scan("thm5", r, default_grid)
                    assert list(row.params) == list(scan.params)
                    assert np.array_equal(fields(row), fields(scan)), row.instance_id
            assert seen == count

    def test_grid_win_records_the_grid_node(self, default_grid):
        # At every r >= R the case-2 envelope peaks at a = 3/5 and the
        # case-3 one at a = 3/4, both grid ends that no golden step beats:
        # the rows must record those nodes exactly, as plain floats.
        radii = (R_THM5, 0.37, 0.375, 0.38, 0.5, R_HI)
        grid = dataclasses.replace(default_grid, r_values=radii)
        replay = run_suite("thm5", grid).instances
        default = run_suite("thm5", default_grid).instances
        nodes = {
            "case2/argmax_location": ("argmax", 0.6),
            "case2/max_value": ("a", 0.6),
            "case3/max_value": ("a", 0.75),
        }
        seen = 0
        for row in default + replay:
            assert {type(v) for v in row.params.values()} == {float}, row.instance_id
            for suffix, (key, node) in nodes.items():
                if row.instance_id.endswith(suffix):
                    assert row.params[key] == node, row.instance_id
                    seen += 1
        assert seen == len(nodes) * (1 + len(radii))

    def test_cor2_h_grid_matches_oracle(self):
        (row,) = [i for i in _cor2_rows() if i.instance_id == "h_grid"]
        got = _bits(row.lhs, row.params["a"], row.params["w"])
        assert np.array_equal(got, _bits(*_cor2_grid_oracle()))


def _thm2_quadratic_oracle(x, r2):
    a = a_of_x(x)
    b2 = b2_max(x)
    return (
        (1.0 - 9.0 * r2 * r2) * a * a
        + (4.0 * r2 - 12.0 * r2 * r2) * b2 * b2
        + 81.0 * r2 * r2 / 4.0
    )


def _thm2_sextic_oracle(x, r2):
    x2 = x * x
    return (
        1.0
        - 2.0 * x2
        + x2 * x2
        + r2 * (-5.0 + 16.0 * x2 - 21.0 * x2 * x2 + 9.0 * x2**3)
    )


def _cor2_reduced_oracle(v):
    return verify._log1m_tail(v) - v * v / (2.0 * (1.0 - v) ** 2)


class TestScalarLoopOracles:
    """The thm2, thm3 and cor2 grids are array calls; the scalar loops they
    replaced, kept here, must give the same bits, with NumPy scalars (the
    loops over grids) and with Python floats."""

    @staticmethod
    def _assert_loop_bits(got, form, nodes, *args):
        for points in (nodes, nodes.tolist()):
            want = np.array([form(v, *args) for v in points])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), args

    @pytest.mark.parametrize("r", (THM2_R_LO, 0.55, R_HI))
    def test_thm2_grid(self, r):
        xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
        r2 = r * r
        self._assert_loop_bits(_thm2_quadratic(xs, r2), _thm2_quadratic_oracle, xs, r2)
        self._assert_loop_bits(_thm2_sextic(xs, r2), _thm2_sextic_oracle, xs, r2)

    def test_thm3_grid(self):
        xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
        self._assert_loop_bits(_thm3_sextic(xs), _thm3_sextic, xs)

    def test_thm3_sextic_has_the_bits_of_its_own_horner_loop(self):
        # The plain `(total + c)*x` loop is the oracle, signs of zero included.
        def loop(x):
            total = 0.0
            for c in reversed(thm3_surd_coefficients()):
                total = (total + c) * x
            return total

        xs = np.concatenate(
            ([0.0, -0.0], np.linspace(X_GUARD, X_SUP - X_GUARD, 1000))
        )
        self._assert_loop_bits(_thm3_sextic(xs), loop, xs)
        got = np.array([_thm3_sextic(x) for x in xs.tolist()])
        self._assert_loop_bits(got, loop, xs)

    def test_cor2_reduced_grid(self):
        vs = np.linspace(0.0, 4.0 / 9.0, 200)
        self._assert_loop_bits(_cor2_reduced(vs), _cor2_reduced_oracle, vs)
        want = np.array([_cor2_reduced_oracle(v) for v in vs])
        i = int(np.argmax(want))
        (row,) = [r for r in _cor2_rows() if r.instance_id == "reduced_grid"]
        assert np.array_equal(_bits(row.lhs, row.params["v"]), _bits(want[i], vs[i]))


class TestNoPerPointLoops:
    """Structural guards, with no timing: the grids above stay array calls,
    the golden searches over many radii one lockstep search, and the
    compositions stop at the orders their rows read."""

    @staticmethod
    def count_golden(monkeypatch):
        calls = {"array": 0, "float": 0}

        def counted(f, lo, hi, tol=1e-10):
            calls["array" if type(lo) is np.ndarray else "float"] += 1
            return golden_max(f, lo, hi, tol)

        monkeypatch.setattr(numerics, "golden_max", counted)
        return calls

    def test_thm5_replay_searches_all_radii_at_once(self, monkeypatch):
        calls = self.count_golden(monkeypatch)
        radii = tuple(np.linspace(R_THM5, 0.38, 50).tolist())
        run_suite("thm5", ScanGrid(r_values=radii))
        # case 2 and the ring/lower peak over all radii, and the ring/upper
        # peak at 1/sqrt(3); a search per radius and case made 101.  Case 3
        # takes its maximum at a = 3/4 with no search.
        assert calls == {"array": 2, "float": 1}

    def test_default_thm5_searches_one_radius_as_floats(self, monkeypatch):
        calls = self.count_golden(monkeypatch)
        run_suite("thm5", ScanGrid())
        # case 2, ring/lower at R and ring/upper at 1/sqrt(3): a float search
        # each.  As one-element array searches the run took 3-5 times as long.
        assert calls == {"array": 0, "float": 3}

    @pytest.mark.parametrize("k", [1, 40, 200])
    def test_grids_take_one_call_per_block_of_radii(self, monkeypatch, k):
        # A k-radius replay evaluates each search's grid in ceil(k / B) calls,
        # B rows of its nodes at a time (a call per radius made k); golden's
        # steps and the ring/upper scan are 1-D calls, not counted here.
        calls = {"case2": [], "family": [], "cor2": []}

        def counted(name, form):
            def wrapped(*args):
                out = form(*args)
                if np.ndim(out) == 2:
                    calls[name].append(out.size)
                return out

            monkeypatch.setattr(verify, form.__name__, wrapped)

        counted("case2", _thm5_case2_lhs)
        counted("family", _thm5_family_lhs)
        counted("cor2", _cor2_h)
        radii = tuple(np.linspace(R_THM5, 0.38, k).tolist())
        run_suite("thm5", ScanGrid(r_values=radii))
        run_suite("cor2", ScanGrid())

        def blocks(rows, width):
            return -(-rows // (numerics._BLOCK_CELLS // width))

        # The family grid is searched twice per radius: ring/lower and case 1.
        assert len(calls["case2"]) == blocks(k, 200)
        assert len(calls["family"]) == 2 * blocks(k, 400)
        assert len(calls["cor2"]) == blocks(200, 200)
        assert max(max(sizes) for sizes in calls.values()) <= numerics._BLOCK_CELLS

    def test_scan_finds_its_rows_in_one_array_search(self, monkeypatch, capsys):
        from blochsums import cli

        calls = self.count_golden(monkeypatch)
        crossings = []

        def crossing(*args, **kwargs):
            crossings.append(crossing_radius(*args, **kwargs))
            return crossings[-1]

        monkeypatch.setattr(cli, "crossing_radius", crossing)
        argv = ["scan", "--target", "problem1", "--grid", "0.37:0.42:101"]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("0.") for line in out) == 101
        # The 101 rows take one search; the bisection between the two radii
        # around the crossing takes one float search per slack it evaluates:
        # both ends, one per step and the residual at the root.
        (result,) = crossings
        assert calls == {"array": 1, "float": result.iterations + 3}

    def test_thm1_composes_only_the_orders_its_rows_read(self, default_grid, monkeypatch):
        compose = verify.make_subordinate
        orders = []

        def recorded(base, spec, n):
            orders.append(n)
            return compose(base, spec, n)

        monkeypatch.setattr(verify, "make_subordinate", recorded)
        run_suite("thm1_B", default_grid)
        # Every sample to the Rogosinski order 128, none to the truncation 256.
        assert set(orders) == {_N_MAX}

    @pytest.mark.parametrize("truncation", [48, _N_MAX])
    def test_no_tail_certificate_at_or_below_the_rogosinski_order(
        self, truncation, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("certificate computed at truncation <= 128")

        monkeypatch.setattr(verify, "_class_tail", forbidden)
        monkeypatch.setattr(verify, "_cor1_class_tail", forbidden)
        grid = ScanGrid(sample_count=10, truncation=truncation)
        for suite in ("prop1", "thm1_B", "thm1_B2", "cor1"):
            run_suite(suite, grid)

    def test_cor2_takes_log1p_only_on_entries_at_or_above_the_cutoff(
        self, default_grid, monkeypatch
    ):
        tail, log1p = numerics._log1m_tail, math.log1p
        counts = {"tail": 0, "big": 0, "log1p": 0}

        def counted_tail(t):
            counts["tail"] += 1
            counts["big"] += int(np.count_nonzero(~(np.asarray(t) < 0.01)))
            return tail(t)

        def counted_log1p(v):
            counts["log1p"] += 1
            return log1p(v)

        monkeypatch.setattr(numerics, "_log1m_tail", counted_tail)
        monkeypatch.setattr(verify, "_log1m_tail", counted_tail)
        monkeypatch.setattr(math, "log1p", counted_log1p)
        run_suite("cor2", default_grid)
        assert 0 < counts["log1p"] == counts["big"]
        # One call per grid row or scalar row; a call per point made ~40,000.
        assert counts["tail"] <= 300


class TestSuiteRunners:
    @pytest.mark.parametrize("suite", ALL_SUITES)
    def test_all_suites_run(self, suite, light_grid):
        report = run_suite(suite, light_grid)
        assert report.suite_id == suite
        assert report.instances
        # The thm1 rows are split between thm1_B and thm1_B2 by bound id.
        assert {inst.bound_id for inst in report.instances} == {suite}
        if suite == "thm5":
            assert not report.passed  # the known open maximizer-location gap
        else:
            assert report.passed, report.witnesses

    def test_all_suites_are_the_runner_table(self):
        assert ALL_SUITES == tuple(verify._SUITE_RUNNERS)

    def test_unknown_suite(self, light_grid):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("thm9", light_grid)

    def test_seed_changes_samples_not_verdict(self):
        g1 = ScanGrid(sample_count=6, truncation=64, seed=1)
        g2 = ScanGrid(sample_count=6, truncation=64, seed=2)
        r1 = run_suite("thm1_B", g1)
        r2 = run_suite("thm1_B", g2)
        assert r1.passed and r2.passed
        lhs1 = [i.lhs for i in r1.instances if i.instance_id.endswith("sample000")]
        lhs2 = [i.lhs for i in r2.instances if i.instance_id.endswith("sample000")]
        assert lhs1 != lhs2

    def test_scan_grid_validation(self):
        with pytest.raises(ValueError):
            ScanGrid(x_range=(0.5, 0.1, 10))
        with pytest.raises(ValueError):
            ScanGrid(sample_count=0)
        with pytest.raises(ValueError):
            ScanGrid(tolerance=0.0)
        for bad in (
            dict(tolerance=math.nan),
            dict(tolerance=math.inf),
            dict(x_range=(-0.1, 0.3, 10)),
            dict(x_range=(0.1, 0.9, 10)),
            dict(x_range=(0.1, math.nan, 10)),
            dict(r_values=(0.38, 1.0)),
            dict(r_values=(0.9,)),
            dict(r_values=(0.3, np.nextafter(R_HI, 1.0))),
            dict(r_values=(0.0,)),
            dict(r_values=(math.nan,)),
            dict(r_values=()),
            dict(seed=-1),
            # sizes must be integers: bools and floats ended in a TypeError
            # mid-run, or (prop1's sample_count) were silently rounded down
            dict(truncation=64.5),
            dict(truncation=True),
            dict(seed=1.5),
            dict(seed=True),
            dict(sample_count=20.5),
            dict(sample_count=True),
            dict(x_range=(0.1, 0.5, 10.5)),
            dict(x_range=(0.1, 0.5, 10.0)),
        ):
            with pytest.raises(ValueError):
                ScanGrid(**bad)
        # NumPy integers are integers.
        sizes = dict(truncation=np.int64(64), seed=np.int32(3), sample_count=np.int64(5))
        assert ScanGrid(x_range=(0.1, 0.5, np.int64(10)), **sizes).truncation == 64
        # 1/sqrt(3), the end of the thm5 replay's admissible radii, is valid.
        assert ScanGrid(r_values=(R_HI,)).r_values == (R_HI,)

    @pytest.mark.parametrize(
        "radii", [(0.3800001, 0.3800004), (0.38, 0.38), (0.2, 0.3, 0.2000004)]
    )
    def test_scan_grid_rejects_radii_sharing_a_row_label(self, radii):
        # Replay row ids name a radius at six decimals, so two radii with
        # one label would give two rows one id.
        with pytest.raises(ValueError, match="share the row-id label") as err:
            ScanGrid(r_values=radii)
        assert str(err.value) == (
            f"r_values {radii[0]!r} and {radii[-1]!r} share the row-id label "
            f"r={radii[-1]:.6f}"
        )
        # Radii distinct at six decimals stay valid, however close.
        assert ScanGrid(r_values=(0.3800004, 0.3800006)).r_values


class TestSampleTails:
    """A tail certificate sits only on the rows it bounds: the extremal
    equality rows carry their closed-form tails, and a composed sample's
    rows carry none, its truncated sums compared as computed."""

    @staticmethod
    def rows(grid):
        shared = {}
        return [
            i
            for suite in ("thm1_B", "thm1_B2", "cor1")
            for i in run_suite(suite, grid, shared).instances
        ]

    @pytest.mark.parametrize("truncation", [8, 256])
    def test_only_equality_rows_carry_a_tail(self, truncation):
        n = truncation
        seen = {"sample": 0, "equality": 0}
        for row in self.rows(ScanGrid(truncation=n)):
            kind = re.sub(r"^x=[^/]*/", "", row.instance_id).split("/")[0]
            if kind.startswith("sample"):
                seen["sample"] += 1
                assert row.tail_certificate == 0.0, row.instance_id
            elif kind == "equality":
                seen["equality"] += 1
                p = row.params
                if row.bound_id == "cor1":
                    want = _cor1_tail_certificate(p["a"], p["r"], n)
                else:
                    power = 2 if row.bound_id == "thm1_B" else 1
                    want = verify.tail_majorant_extremal(p["x"], p["r"], power, n)
                assert _bits(row.tail_certificate) == _bits(want), row.instance_id
        # 99 thm1 samples in each thm1 suite and 50 in cor1; 3 x's of two
        # rows each per thm1 suite and 9 (a, r) pairs of two in cor1.
        assert seen == {"sample": 2 * 99 + 50, "equality": 2 * 6 + 18}

    @pytest.mark.parametrize("truncation", [8, 16, 48, 256])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_every_composed_sample_passes_with_no_tail(self, seed, truncation):
        grid = ScanGrid(seed=seed, truncation=truncation)
        samples = [i for i in self.rows(grid) if "sample" in i.instance_id]
        assert len(samples) == 2 * 99 + 50
        failed = [i.instance_id for i in samples if not i.passes(grid.tolerance)]
        assert failed == []


class TestSuitesJudgeOnce:
    """Suites return the rows of their row builders, called alone, and
    run_suite judges them under grid.tolerance."""

    grid = ScanGrid(tolerance=1e-20)

    def check_judged(self, report, tol):
        assert report.tolerance == tol
        assert report.passed == all(i.passes(tol) for i in report.instances)

    def test_thm2_rows_are_the_prefixed_standalone_rows(self):
        report = run_suite("thm2", self.grid)
        expected = []
        for r in (THM2_R_LO, 0.55, R_HI):
            expected += [
                dataclasses.replace(i, instance_id=f"r={r:.6f}/{i.instance_id}")
                for i in _thm2_rows(r)
            ]
        assert report.instances == expected
        self.check_judged(report, 1e-20)

    @pytest.mark.parametrize(
        "suite, standalone",
        [("thm3", lambda: _thm3_rows()), ("cor2", lambda: _cor2_rows())],
    )
    def test_rows_equal_the_standalone_rows(self, suite, standalone):
        report = run_suite(suite, self.grid)
        assert report.instances == standalone()
        self.check_judged(report, 1e-20)
