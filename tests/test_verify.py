"""Certification machinery: Schwarz composition, dominance lemmas, suites."""

import dataclasses
import math

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
from blochsums.families import X_GUARD, X_SUP, a_of_x, b2_max, f_n_prime, x_of_a
from blochsums.numerics import golden_max
from blochsums.verify import (
    _FAMILY_LHS,
    _abel_row,
    _cor1_tail_certificate,
    _cor2_h,
    _cor2_reduced,
    _cor2_rows,
    _family_peak,
    _grid_max,
    _phi_weighted_functional,
    _random_bloch_prime,
    _random_schwarz,
    _rogosinski_row,
    _suite_prop1,
    _thm1_B2_quadrature,
    _thm2_quadratic,
    _thm2_rows,
    _thm2_sextic,
    _thm3_rows,
    _thm3_sextic,
    _thm5_case2_lhs,
    _thm5_case3_lhs,
    _thm5_family_lhs,
    _thm5_rows,
    case1_poly_coeffs,
)

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
    (the shrinking-window recursion) bit for bit, rotations and monomials
    (shortcuts that skip the recursion) up to the sign of exact zeros."""

    @pytest.mark.parametrize("n", [8, 48, 64, 256])
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
                if spec.kind == "blaschke_product":
                    assert np.array_equal(
                        fast.view(np.uint64), oracle.view(np.uint64)
                    ), (spec, base.order)
                else:
                    assert np.array_equal(fast, oracle), (spec, base.order)


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
        p = case1_poly_coeffs(R_THM5)
        assert abs(p[0]) <= 1e-14
        assert abs(p[1]) <= 1e-14

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
        rows = _suite_prop1(ScanGrid(sample_count=5, truncation=8))
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

    @pytest.mark.parametrize("r_lo, r_hi", [(0.0, 0.4), (0.37, 1.0), (-0.5, 1.5)])
    def test_crossing_radii_outside_unit_interval_rejected(
        self, default_grid, r_lo, r_hi
    ):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            crossing_radius("thm2", r_lo, r_hi, default_grid)


def _bits(*values):
    return np.array(values, dtype=np.float64).view(np.uint64)


def _family_peak_oracle(functional, r, grid):
    """``_family_peak`` as a loop of scalar calls over the x grid: the array
    call must give the same bits."""
    xs = grid.x_grid()
    vals = np.array([functional(x, r) for x in xs])
    i = int(np.argmax(vals))
    lo = xs[max(i - 1, 0)]
    hi = xs[min(i + 1, xs.size - 1)]
    if lo < hi:
        arg, val = golden_max(lambda x: functional(x, r), lo, hi, tol=1e-12)
        if val > vals[i]:
            return val, arg
    return float(vals[i]), float(xs[i])


class TestArrayClosedForms:
    """A closed form called with an array of x (or a) must give, element by
    element, the bits of its scalar calls, with Python floats (golden search,
    the trapezoid) and with NumPy scalars (a loop over a grid).  NumPy's
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
        unrefined_ends = 0
        for r in np.linspace(0.001, 0.999, 300).tolist():
            got = _family_peak(functional, r, grid)
            want = _family_peak_oracle(functional, r, grid)
            assert np.array_equal(_bits(*got), _bits(*want)), r
            unrefined_ends += got[1] in ends
        # Peaks at a grid end that golden search does not improve return the
        # grid value itself; the radii must cover that branch too.
        assert unrefined_ends > 0

    def test_thm5_case_rows_match_oracle(self, default_grid):
        grid_wins = {"case2": 0, "case3": 0}
        for r in (0.05, 0.2, R_THM5, 0.37, 0.38, 0.5, R_HI):
            rows = {
                i.instance_id: i
                for i in _thm5_rows(default_grid, r, x_of_a(0.6), (1.0, 0.1))
            }
            rhs = 27.0 * (r * r) * (r * r) / 8.0
            xs = np.linspace(X_GUARD, min(0.25, r_admissible(r) - 1e-9), 400)
            dvals = np.array([_thm5_family_lhs(x, r) - rhs for x in xs])
            i = int(np.argmax(dvals))
            row = rows["case1/negativity"]
            assert np.array_equal(
                _bits(row.lhs, row.params["x"]), _bits(dvals[i], xs[i])
            ), r
            for case, lo, hi, form in (
                ("case2", 0.6, 0.75, _thm5_case2_lhs),
                ("case3", 0.75, 1.0, _thm5_case3_lhs),
            ):
                pre = np.array([form(a, r) for a in np.linspace(lo, hi, 200)])
                _, val = golden_max(lambda a: form(a, r), lo, hi, tol=1e-12)
                best = max(val, float(np.max(pre)))
                assert np.array_equal(
                    _bits(rows[f"{case}/max_value"].lhs), _bits(best)
                ), (case, r)
                grid_wins[case] += float(np.max(pre)) > val
        # The grid maximum, not the golden one, sets both rows at some radii.
        assert min(grid_wins.values()) > 0

    def test_cor2_h_grid_matches_oracle(self):
        (row,) = [i for i in _cor2_rows() if i.instance_id == "h_grid"]
        got = _bits(row.lhs, row.params["a"], row.params["w"])
        assert np.array_equal(got, _bits(*_cor2_grid_oracle()))


def _thm1_B2_trapezoid_oracle(x, r):
    """The thm1_B2 quadrature as the scalar loop it replaced: one
    ``_thm1_B_raw`` call per node, added left to right."""
    a2 = a_of_x(x) ** 2

    def integrand(u):
        if u == 0.0:
            return a2
        return bounds._thm1_B_raw(x, math.sqrt(u)) / u

    lo, hi, m = 0.0, r * r, 4096
    h = (hi - lo) / m
    total = 0.5 * (integrand(lo) + integrand(hi))
    for i in range(1, m):
        total += integrand(lo + i * h)
    return total * h


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
    """The quadrature and the thm2, thm3 and cor2 grids are array calls; the
    scalar loops they replaced, kept here, must give the same bits, with
    NumPy scalars (the loops over grids) and with Python floats."""

    @staticmethod
    def _assert_loop_bits(got, form, nodes, *args):
        for points in (nodes, nodes.tolist()):
            want = np.array([form(v, *args) for v in points])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), args

    def test_thm1_B2_integral_rows(self, light_grid):
        rows = [
            i
            for i in run_suite("thm1_B2", light_grid).instances
            if i.instance_id.startswith("integral/")
        ]
        assert len(rows) == 20
        for row in rows:
            x, r = row.params["x"], row.params["r"]
            want = abs(_thm1_B2_trapezoid_oracle(x, r) - bounds.bound_thm1_B2(x, r))
            assert _bits(row.lhs) == _bits(want), row.instance_id

    def test_thm1_B2_quadrature_on_a_wider_grid(self):
        for x in np.linspace(0.01, R_HI - 0.01, 9).tolist():
            for frac in (0.1, 0.3, 0.6, 0.8, 0.95, 1.0):
                r = frac * r_admissible(x)
                got = _thm1_B2_quadrature(x, r)
                assert _bits(got) == _bits(_thm1_B2_trapezoid_oracle(x, r)), (x, r)

    @pytest.mark.parametrize("r", (THM2_R_LO, 0.55, R_HI))
    def test_thm2_grid(self, r):
        xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
        r2 = r * r
        self._assert_loop_bits(_thm2_quadratic(xs, r2), _thm2_quadratic_oracle, xs, r2)
        self._assert_loop_bits(_thm2_sextic(xs, r2), _thm2_sextic_oracle, xs, r2)

    def test_thm3_grid(self):
        xs = np.linspace(X_GUARD, X_SUP - X_GUARD, 1000)
        self._assert_loop_bits(_thm3_sextic(xs), _thm3_sextic, xs)

    def test_cor2_reduced_grid(self):
        vs = np.linspace(0.0, 4.0 / 9.0, 200)
        self._assert_loop_bits(_cor2_reduced(vs), _cor2_reduced_oracle, vs)
        want = np.array([_cor2_reduced_oracle(v) for v in vs])
        i = int(np.argmax(want))
        (row,) = [r for r in _cor2_rows() if r.instance_id == "reduced_grid"]
        assert np.array_equal(_bits(row.lhs, row.params["v"]), _bits(want[i], vs[i]))


class TestNoPerPointLoops:
    """Structural guards, with no timing: the grids above stay array calls."""

    def test_thm1_B2_values_each_trapezoid_in_one_call(self, monkeypatch, light_grid):
        raw = bounds._thm1_B_raw
        calls = []

        def counted(x, r):
            calls.append(np.size(r))
            return raw(x, r)

        monkeypatch.setattr(bounds, "_thm1_B_raw", counted)
        run_suite("thm1_B2", light_grid)
        # 20 trapezoids and the 3 thm1 radii; a call per node made 81,923.
        assert len(calls) <= 50
        assert sum(calls) >= 20 * 4096

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
        ):
            with pytest.raises(ValueError):
                ScanGrid(**bad)
        # 1/sqrt(3), the end of the thm5 replay's admissible radii, is valid.
        assert ScanGrid(r_values=(R_HI,)).r_values == (R_HI,)


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
