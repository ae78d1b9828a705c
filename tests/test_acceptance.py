"""End-to-end release gate.

One test per shipped guarantee.  Each test evaluates its clauses, records a
single PASS/FAIL verdict through the session recorder (printed as an
"acceptance summary" section after the run), and then asserts, so a failing
guarantee is visible both as a red test and as one readable summary line.

Known red: the maximizer-location clause of check 09.  At the threshold
radius the logarithmic envelope on the middle coefficient range attains its
maximum at the lower endpoint a = 3/5, not at the stated a = 3/4; the bound
itself still holds with margin.  The check asserts the stated location
faithfully and therefore fails.  See the README for the full analysis.
"""

import math
import os
import subprocess
import sys

import numpy as np

import blochsums
from blochsums import (
    ALL_SUITES,
    R_HI,
    R_THM5,
    THM2_R_LO,
    CoefficientSeries,
    ScanGrid,
    SchwarzSpec,
    X_SUP,
    a_of_x,
    bound_basic,
    bound_prop1,
    bound_thm1_B,
    bound_thm1_B2,
    circle_mean_square,
    crossing_radius,
    derivative_series,
    f_n_prime,
    g_prime_coeffs,
    integrate_series,
    make_subordinate,
    r_admissible,
    r_star,
    run_suite,
    sharpness_scan,
    tail_majorant_extremal,
    trapezoid,
    weighted_power_sum,
)
from blochsums.cli import main
from blochsums.verify import _rogosinski_row

from abel_oracle import _abel_row


def _failed(clauses):
    return [name for name, ok in clauses.items() if not ok]


def _random_schwarz(rng):
    roll = rng.uniform()
    if roll < 0.2:
        angle = 2.0 * math.pi * rng.uniform()
        return SchwarzSpec("rotation", (complex(math.cos(angle), math.sin(angle)),))
    if roll < 0.4:
        return SchwarzSpec("monomial", (), degree=int(rng.integers(1, 5)))
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        radius = 0.85 * math.sqrt(rng.uniform())
        angle = 2.0 * math.pi * rng.uniform()
        factors.append(radius * complex(math.cos(angle), math.sin(angle)))
    return SchwarzSpec("blaschke_product", tuple(factors))


def _random_base(rng, order):
    if rng.uniform() < 0.7:
        x = rng.uniform(0.02, X_SUP - 0.02)
        return g_prime_coeffs(x, order)
    return f_n_prime(int(rng.integers(1, 7)))


def test_01_threshold_root(acceptance_recorder, capsys):
    rc = main(["root"])
    out = capsys.readouterr().out
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    sqrt_rho = float(fields["sqrt_rho"])
    residual = float(fields["residual"])
    clauses = {
        "exit code 0": rc == 0,
        "sqrt of root within 5e-5 of 0.39466": abs(sqrt_rho - 0.39466) <= 5e-5,
        "polynomial residual at most 1e-12": residual <= 1e-12,
    }
    ok = all(clauses.values())
    acceptance_recorder(1, "threshold root", ok)
    assert ok, f"failed clauses: {_failed(clauses)}"


def test_02_family_sums_match_closed_forms(acceptance_recorder):
    n = 256
    mismatches = []
    for x in (0.1, 0.2, 0.3):
        r = 0.9 * r_admissible(x)
        family = integrate_series(g_prime_coeffs(x, n), 0.0)
        for p, closed in (
            (2, bound_thm1_B(x, r)),
            (1, bound_thm1_B2(x, r)),
        ):
            partial = weighted_power_sum(family, p, r, "r2k")
            budget = 1e-10 + tail_majorant_extremal(x, r, p, n)
            if abs(partial - closed) > budget:
                mismatches.append((x, p, abs(partial - closed), budget))
    ok = not mismatches
    acceptance_recorder(2, "family sums match closed forms", ok)
    assert ok, f"truncated sums off the closed forms: {mismatches}"


def test_03_area_growth_integral_identity(acceptance_recorder):
    mismatches = []
    for x in (0.05, 0.10, 0.15, 0.20, 0.25):
        a = a_of_x(x)
        r_top = r_admissible(x)
        for frac in (0.5, 0.7, 0.9, 1.0):
            r = frac * r_top

            def integrand(u, x=x, a=a):
                # B behaves like a^2 u near u = 0, so the ratio extends
                # continuously to the left endpoint.
                if u == 0.0:
                    return a * a
                return bound_thm1_B(x, math.sqrt(u)) / u

            value = trapezoid(integrand, 0.0, r * r, 4096)
            target = bound_thm1_B2(x, r)
            if abs(value - target) > 1e-8:
                mismatches.append((x, frac, abs(value - target)))
    ok = not mismatches
    acceptance_recorder(3, "area-growth integral identity", ok)
    assert ok, f"quadrature misses the closed form: {mismatches}"


def test_04_circle_mean_equals_coefficient_sum(acceptance_recorder):
    rng = np.random.default_rng(404)
    order = 64
    mismatches = []
    for i in range(50):
        coeffs = rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)
        f = CoefficientSeries(coeffs, "function")
        fp = derivative_series(f)
        for r in (0.3, 0.6, 0.9):
            total = weighted_power_sum(f, 2, r, "r2k_minus_2")
            circle = circle_mean_square(fp, r, 2 * fp.order + 2)
            if abs(total - circle) > 1e-12 * (1.0 + abs(total)):
                mismatches.append(("random", i, r))
    for n in range(1, 7):
        rn = r_star(n)
        contact = integrate_series(f_n_prime(n), 0.0)
        total = weighted_power_sum(contact, 2, rn, "r2k_minus_2")
        target = bound_basic(rn)
        if abs(total - target) > 1e-12 * (1.0 + abs(target)):
            mismatches.append(("contact", n, abs(total - target)))
    ok = not mismatches
    acceptance_recorder(4, "circle mean equals coefficient sum", ok)
    assert ok, f"identity violations: {mismatches}"


def test_05_tail_bound_with_contact_equality(acceptance_recorder):
    tol = 1e-10
    failures = []
    for n in range(1, 7):
        rn = r_star(n)
        contact = integrate_series(f_n_prime(n), 0.0)
        tail = weighted_power_sum(contact, 2, rn, "r2k_minus_2", k_min=n + 1)
        target = bound_prop1(n, rn)
        if abs(tail - target) > 1e-12 * (1.0 + abs(target)):
            failures.append(("equality", n, abs(tail - target)))
    rng = np.random.default_rng(505)
    truncation = 256
    for i in range(100):
        base = _random_base(rng, truncation)
        composed = make_subordinate(base, _random_schwarz(rng), truncation)
        sample = integrate_series(composed, 0.0)
        for n in range(1, 7):
            rn = r_star(n)
            for r in np.linspace(0.0, rn, 20):
                tail = weighted_power_sum(sample, 2, float(r), "r2k_minus_2", n + 1)
                rhs = bound_prop1(n, float(r))
                if tail > rhs + tol * (1.0 + abs(rhs)):
                    failures.append(("sample", i, n, float(r), tail - rhs))
    ok = not failures
    acceptance_recorder(5, "tail bound and contact equality", ok)
    assert ok, f"tail-bound violations: {failures[:5]}"


def test_06_quadratic_form_certification(acceptance_recorder, default_grid):
    report = run_suite("thm2", default_grid)
    by_id = {i.instance_id: i for i in report.instances}
    clauses = {}
    for r in (THM2_R_LO, 0.55, R_HI):
        rows = [i for i in report.instances if i.instance_id.startswith(f"r={r:.6f}/")]
        clauses[f"grid certificate at r={r:.4f}"] = bool(rows) and all(
            i.passes(report.tolerance) for i in rows
        )
    clauses["factored form matches expansion within 1e-12"] = (
        by_id[f"r={THM2_R_LO:.6f}/factored_form"].lhs <= 1e-12
    )
    ok = all(clauses.values())
    acceptance_recorder(6, "quadratic-form certification", ok)
    assert ok, f"failed clauses: {_failed(clauses)}"


def test_07_surd_coefficients_and_negativity(acceptance_recorder, default_grid):
    report = run_suite("thm3", default_grid)
    by_id = {i.instance_id: i for i in report.instances}
    clauses = {
        f"printed decimal {j} within 1e-4": by_id[f"decimal/coeff{j}"].lhs <= 1e-4
        for j in range(1, 7)
    }
    clauses["polynomial nonpositive on the grid"] = by_id["negativity"].lhs <= 0.0
    ok = all(clauses.values())
    acceptance_recorder(7, "surd coefficients and sign", ok)
    assert ok, f"failed clauses: {_failed(clauses)}"


def test_08_endpoint_reduction_nonpositive(acceptance_recorder, default_grid):
    report = run_suite("cor2", default_grid)
    by_id = {i.instance_id: i for i in report.instances}
    clauses = {
        "log comparison at most 1e-12 on the 200x200 grid": (
            by_id["h_grid"].lhs <= 1e-12
        ),
        "reduced one-variable form at most 1e-12": by_id["reduced_grid"].lhs <= 1e-12,
        "full report passes": report.passed,
    }
    ok = all(clauses.values())
    acceptance_recorder(8, "endpoint reduction nonpositive", ok)
    assert ok, f"failed clauses: {_failed(clauses)}"


def test_09_product_bound_cases_and_maximizer(acceptance_recorder, default_grid):
    report = run_suite("thm5", default_grid)
    by_id = {i.instance_id: i for i in report.instances}
    tol = default_grid.tolerance
    value_ids = [
        "case1/x_boundary",
        "case1/admissible_floor",
        "case1/radius_below_floor",
        "case1/negativity",
        "case2/max_value",
        "case3/max_value",
    ]
    clauses = {f"{name} certified": by_id[name].passes(tol) for name in value_ids}
    for j in range(6):
        clauses[f"case1 decimal {j} within 5e-3 relative"] = (
            by_id[f"case1/decimal{j}"].lhs <= 5e-3
        )
    argmax = by_id["case2/argmax_location"].params["argmax"]
    clauses["case2 maximizer at 3/4 within 1e-6"] = abs(argmax - 0.75) <= 1e-6
    ok = all(clauses.values())
    acceptance_recorder(9, "product bound cases and maximizer", ok)
    assert ok, (
        f"failed clauses: {_failed(clauses)}; the middle-range envelope peaks at "
        f"a = {argmax:.12f} (the lower endpoint 3/5), not at the stated 3/4, "
        f"while its maximum {by_id['case2/max_value'].lhs:.10f} still sits below "
        f"the bound {by_id['case2/max_value'].rhs:.10f}"
    )


def test_10_sharpness_threshold_crossing(acceptance_recorder, default_grid):
    closed_form = math.sqrt(59.0 - math.sqrt(2713.0)) / (4.0 * math.sqrt(3.0))
    result = crossing_radius(
        "thm5", R_THM5 - 0.05, 0.43, default_grid, tol=1e-12
    )
    below = sharpness_scan("thm5", R_THM5 - 0.01, default_grid)
    clauses = {
        "crossing within 1e-4 of the closed-form radius": (
            abs(result.root - closed_form) <= 1e-4
        ),
        "violation witnessed just below the threshold": (
            not below.passes(default_grid.tolerance) and below.slack < 0.0
        ),
    }
    ok = all(clauses.values())
    acceptance_recorder(10, "sharpness threshold crossing", ok)
    assert ok, f"failed clauses: {_failed(clauses)} (crossing at {result.root!r})"


def test_11_dominance_properties_and_determinism(
    acceptance_recorder, default_grid, tmp_path
):
    tol = default_grid.tolerance
    rng = np.random.default_rng(111)
    rogosinski_failures = 0
    for _ in range(100):
        base = _random_base(rng, 128)
        composed = make_subordinate(base, _random_schwarz(rng), 128)
        row = _rogosinski_row("rogosinski", "prefix", {}, composed, base, 128)
        if not row.passes(tol):
            rogosinski_failures += 1
    abel_failures = 0
    order = 24
    for _ in range(1000):
        base = _random_base(rng, order)
        composed = make_subordinate(base, _random_schwarz(rng), order)
        u = np.abs(composed.coeffs) ** 2
        v = np.abs(base.coeffs) ** 2
        if v.size < u.size:
            v = np.pad(v, (0, u.size - v.size))
        if rng.uniform() < 0.5:
            lam = np.sort(rng.uniform(0.0, 1.0, u.size))[::-1]
        else:
            lam = rng.uniform(0.2, 0.99) ** np.arange(u.size)
        try:
            if not _abel_row("abel", "weighted_sum", u, v, lam).passes(tol):
                abel_failures += 1
        except ValueError:
            abel_failures += 1

    # The runner imports the package this test imported: pytest's
    # ``pythonpath`` setting reaches only this interpreter.
    src = os.path.dirname(os.path.dirname(blochsums.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    returncodes = []
    payloads = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        proc = subprocess.run(
            [sys.executable, "-m", "blochsums", "verify", "--out", str(out_dir)],
            capture_output=True,
            text=True,
            env=env,
        )
        returncodes.append(proc.returncode)
        payloads.append(
            {suite: (out_dir / f"{suite}.csv").read_bytes() for suite in ALL_SUITES}
        )

    clauses = {
        "100 prefix-dominance checks pass": rogosinski_failures == 0,
        "1000 weighted-dominance checks pass": abel_failures == 0,
        "runner completes without crashing": all(rc in (0, 1) for rc in returncodes),
        "identical configs give identical verdicts": returncodes[0] == returncodes[1],
        "identical configs give byte-identical reports": payloads[0] == payloads[1],
    }
    ok = all(clauses.values())
    acceptance_recorder(11, "dominance properties and determinism", ok)
    assert ok, f"failed clauses: {_failed(clauses)}"
