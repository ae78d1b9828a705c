"""Checks of the program's outputs against computations made apart from it.

References are computed here in mpmath at 30 digits, from the paper's
formulas, never from stored copies of earlier output:

* the boundary family's coefficients A_k come from expanding its derivative
  -(a/x)(z - x)/(1 - zx)^3, a = (3 sqrt(3)/2) x (1 - x^2), and its weighted
  sums sum k^p |A_k|^2 r^(2k) are summed term by term;
* R = sqrt(59 - sqrt(2713)) / (4 sqrt(3)) and the root rho of the degree-8
  threshold polynomial (mpmath ``polyroots``);
* every tabulated bound from its closed form, with its validity interval;
  the family closed forms are confirmed against the term-by-term sums.

Each check returns a list of problems; an operation with any problem counts
as failed.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from typing import Dict, List, Optional, Tuple

import mpmath
from mpmath import mpf

mpmath.mp.dps = 30

SQRT3 = mpmath.sqrt(3)
X_SUP = 1 / SQRT3
R_THM5 = mpmath.sqrt(59 - mpmath.sqrt(2713)) / (4 * SQRT3)

# The degree-8 threshold polynomial of the paper's Remark 6, low order first.
REMARK6 = (-4, -1, 81, 642, -564, 1188, -82, -5809, 4581)


def _threshold_root() -> mpf:
    roots = mpmath.polyroots(list(reversed(REMARK6)), maxsteps=200, extraprec=200)
    real = [mpmath.re(z) for z in roots if abs(mpmath.im(z)) < mpf(10) ** -20]
    return min(z for z in real if 0 < z < mpf("0.5"))


RHO = _threshold_root()
SQRT_RHO = mpmath.sqrt(RHO)

# Quartic right-hand sides scale * r^4 on [lo, hi].
QUARTIC = {
    "thm2": (mpf(27) / 4, mpmath.sqrt(mpf(4) / 15), X_SUP),
    "thm3": (mpf(27) / 4, mpmath.sqrt((9 - mpmath.sqrt(65)) / 6), X_SUP),
    "cor2": (mpf(27) / 8, mpf(0), X_SUP),
    "thm5": (mpf(27) / 8, R_THM5, X_SUP),
}

# A radius within this distance of an interval endpoint may fall on either
# side: the program admits one rounding slop of 1e-12 at each endpoint.
_EDGE = mpf("2e-12")
_VALUE_RTOL = {"cor1": 1e-9}
_DEFAULT_RTOL = 1e-12


def a_of_x(x) -> mpf:
    x = mpf(x)
    return 3 * SQRT3 / 2 * x * (1 - x * x)


def family_sum(x, r, p: int) -> mpf:
    """sum_{k>=1} k^p |A_k|^2 r^(2k) for the boundary family member G_x.

    k A_k is the z^(k-1) coefficient of G'_x(z) = (a/x)(x - z) sum_j c_j x^j z^j
    with c_j = C(j+2, 2), i.e. (a/x)(x c_(k-1) x^(k-1) - c_(k-2) x^(k-2)).
    """
    x, r = mpf(x), mpf(r)
    if r == 0:
        return mpf(0)
    a = a_of_x(x)
    q = r * r
    total = mpf(0)
    x_prev, x_cur, q_k = mpf(0), mpf(1), q  # x^(k-2), x^(k-1), r^(2k)
    k = 1
    while True:
        k_a_k = a / x * (x * ((k + 1) * k // 2) * x_cur - (k * (k - 1) // 2) * x_prev)
        term = k_a_k**2 * q_k / mpf(k) ** (2 - p)
        total += term
        if k > 3 and term < total * mpf(10) ** -20:
            return total
        x_prev, x_cur, q_k = x_cur, x_cur * x, q_k * q
        k += 1


def family_closed_form(bound_id: str, x, r) -> mpf:
    """The paper's closed forms B(x, r) (thm1_B) and B2(x, r) (thm1_B2) of
    the family sums; ``check_table`` confirms them against ``family_sum``."""
    x2, r2 = mpf(x) ** 2, mpf(r) ** 2
    d = 1 - r2 * x2
    if bound_id == "thm1_B":
        num = (r2 + x2) * d * d - 6 * r2 * x2 * (1 - x2) * (1 - r2)
        return 27 * r2 * (1 - x2) ** 2 * num / (4 * d**5)
    num = 3 * x2 * (1 - r2) ** 2 + d * (r2 - x2)
    return 27 * r2 * (1 - x2) ** 2 * num / (8 * d**4)


def r_admissible(x) -> mpf:
    x = mpf(x)
    return (X_SUP - x) / (1 - x * X_SUP)


def _close(got: float, ref: mpf, rtol: float) -> bool:
    return abs(mpf(got) - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# verify


_VERDICT = re.compile(
    r"^suite (\w+): (PASS|FAIL) \(instances=(\d+), worst_slack=([^,)]+)(?:, failures=(\d+))?\)$"
)
_THM1_EQUALITY = re.compile(r"^x=([0-9.]+)/equality/(le|ge)$")
_EXPECTED_RED = "case2/argmax_location"


def _read_report(path: str, fmt: str) -> List[Dict[str, str]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        return json.loads(text)
    return list(csv.DictReader(io.StringIO(text)))


def _check_thm1_equality(suite: str, row: Dict[str, str]) -> List[str]:
    match = _THM1_EQUALITY.match(row["instance_id"])
    if match is None:
        return []
    x = mpf(match.group(1))
    # The suite evaluates each family member at 0.9 of its admissible radius;
    # the row's params carry r to 10 digits, which confirms the radius.
    r = mpf("0.9") * r_admissible(x)
    params = dict(item.split("=") for item in row["params"].split(";"))
    if not _close(float(params["r"]), r, 1e-9):
        return [f"{suite}/{row['instance_id']}: r={params['r']} is not 0.9 r_adm(x)"]
    ref = family_sum(x, r, 2 if suite == "thm1_B" else 1)
    problems = []
    for col in ("lhs", "rhs"):
        if not _close(float(row[col]), ref, 1e-12):
            err = abs(mpf(row[col]) - ref) / ref
            problems.append(
                f"{suite}/{row['instance_id']}: {col} off the mpmath sum by {mpmath.nstr(err, 3)}"
            )
    return problems


def check_verify(op: Dict, code: int, stdout: str) -> List[str]:
    """Verdict lines, every report row, and the thm1 equality sums."""
    problems: List[str] = []
    verdicts = {}
    for line in stdout.splitlines():
        m = _VERDICT.match(line)
        if m:
            verdicts[m.group(1)] = m
    if list(verdicts) != op["suites"]:
        return [f"verdict lines for {list(verdicts)}, expected {op['suites']}"]
    if stdout.rstrip().splitlines()[-1] != "overall: FAIL":
        problems.append("last line is not 'overall: FAIL'")
    if code != 1:
        problems.append(f"exit status {code}, expected 1 (the by-design thm5 red)")
    tol = op["tol"]
    for suite, m in verdicts.items():
        expect_fail = suite == "thm5"
        if (m.group(2) == "FAIL") != expect_fail:
            problems.append(f"suite {suite}: verdict {m.group(2)}")
        if expect_fail and m.group(5) != str(op["replays"]):
            problems.append(f"suite thm5: failures={m.group(5)}, expected {op['replays']}")
        path = os.path.join(op["out"], f"{suite}.{op['format']}")
        try:
            rows = _read_report(path, op["format"])
        except (OSError, ValueError) as exc:
            problems.append(f"cannot read {path}: {exc}")
            continue
        if len(rows) != int(m.group(3)):
            problems.append(f"{suite}: {len(rows)} rows, verdict says {m.group(3)}")
        if rows and min(float(r["slack"]) for r in rows) != float(m.group(4)):
            problems.append(f"{suite}: worst_slack {m.group(4)} is not the least row slack")
        red = equality_rows = 0
        for row in rows:
            lhs, rhs = float(row["lhs"]), float(row["rhs"])
            slack, tail = float(row["slack"]), float(row["tail_cert"])
            if slack != rhs - lhs:
                problems.append(f"{suite}/{row['instance_id']}: slack != rhs - lhs")
            passes = slack + tol * (1.0 + abs(rhs)) + tail >= 0.0
            if row["pass"] != ("true" if passes else "false"):
                problems.append(f"{suite}/{row['instance_id']}: pass column {row['pass']}")
            if row["instance_id"].endswith(_EXPECTED_RED) and suite == "thm5":
                red += 1
                if passes:
                    problems.append(f"thm5/{row['instance_id']}: by-design red row passes")
            elif not passes:
                problems.append(f"{suite}/{row['instance_id']}: fails")
            if suite in ("thm1_B", "thm1_B2") and _THM1_EQUALITY.match(row["instance_id"]):
                equality_rows += 1
                problems += _check_thm1_equality(suite, row)
        if suite == "thm5" and red != op["replays"]:
            problems.append(f"thm5: {red} argmax rows, expected {op['replays']}")
        # Three family members, each an le/ge pair.
        if suite in ("thm1_B", "thm1_B2") and equality_rows != 6:
            problems.append(f"{suite}: {equality_rows} equality rows, expected 6")
    return problems


# ---------------------------------------------------------------------------
# scan, root, table


def _family_functional(target: str, x: float, r: float) -> Tuple[mpf, mpf]:
    """(family left side at x, quartic right side) of a scan target."""
    r = mpf(r)
    if target == "thm5_sharpness":
        a = a_of_x(x)
        return (1 - a * a) * family_sum(x, r, 1), mpf(27) / 8 * r**4
    return family_sum(x, r, 2), mpf(27) / 4 * r**4


def _crossing_reference(target: str) -> Tuple[mpf, float]:
    if target == "thm5_sharpness":
        return R_THM5, 1e-6
    return SQRT_RHO, 1e-9


def check_scan(op: Dict, code: int, stdout: str) -> List[str]:
    if code != 0:
        return [f"exit status {code}"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "r,max_lhs,rhs,slack,x_at_max":
        return ["missing scan header"]
    problems: List[str] = []
    summary: Dict[str, str] = {}
    for line in lines[1:]:
        if " = " in line:
            key, _, value = line.partition(" = ")
            summary.setdefault(key, value)
            continue
        r, peak, rhs, slack, x = (float(v) for v in line.split(","))
        ref_peak, ref_rhs = _family_functional(op["target"], x, r)
        if slack != rhs - peak:
            problems.append(f"r={r}: slack != rhs - max_lhs")
        if not _close(rhs, ref_rhs, 1e-14):
            problems.append(f"r={r}: rhs off the quartic")
        if not _close(peak, ref_peak, 1e-12):
            problems.append(f"r={r}: max_lhs off the family sum at x_at_max")
    if summary.get("target") != op["target"]:
        problems.append("missing target line")
    try:
        crossing = float(summary["crossing_radius"])
    except (KeyError, ValueError):
        return problems + ["scan did not end in a crossing radius"]
    ref, tol = _crossing_reference(op["target"])
    if abs(mpf(crossing) - ref) > tol:
        problems.append(
            f"crossing_radius {crossing} is {mpmath.nstr(abs(crossing - ref), 3)} from the reference"
        )
    return problems


def check_root(op: Dict, code: int, stdout: str) -> List[str]:
    if code != 0:
        return [f"exit status {code}"]
    values = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    problems = []
    try:
        rho = float(values["rho"])
        sqrt_rho = float(values["sqrt_rho"])
    except (KeyError, ValueError):
        return ["missing rho or sqrt_rho"]
    if abs(mpf(rho) - RHO) > 1e-12:
        problems.append(f"rho {rho} is {mpmath.nstr(abs(rho - RHO), 3)} from polyroots")
    if abs(mpf(sqrt_rho) - SQRT_RHO) > 1e-12:
        problems.append(f"sqrt_rho {sqrt_rho} off the reference")
    checks_line = [line for line in stdout.splitlines() if line.startswith("checks:")]
    if not checks_line or "FAIL" in checks_line[0]:
        problems.append("root self-checks not all ok")
    return problems


def _inside(r: mpf, lo: mpf, hi: mpf) -> Optional[bool]:
    """True inside [lo, hi], False outside, None within _EDGE of an end."""
    if abs(r - lo) <= _EDGE or abs(r - hi) <= _EDGE:
        return None
    return lo <= r <= hi


def table_reference(bound_id: str, x: Optional[float], r: float) -> Tuple[Optional[bool], mpf]:
    """(inside the validity interval, closed-form value) of a table cell."""
    r = mpf(r)
    if bound_id == "basic":
        if not 0 <= r < 1:
            return False, mpf(0)
        return True, 1 / (1 - r * r) ** 2
    if bound_id == "prop1":
        n = 1 if x is None else int(round(x))
        if n < 1:
            return False, mpf(0)
        value = mpf(n + 2) ** (n + 2) / (4 * mpf(n) ** n) * r ** (2 * n)
        return _inside(r, mpf(0), mpmath.sqrt(mpf(n) / (n + 2))), value
    if bound_id in ("thm1_B", "thm1_B2"):
        xm = mpf(x)
        if not 0 < xm < X_SUP:
            return False, mpf(0)
        return _inside(r, mpf(0), r_admissible(xm)), family_closed_form(bound_id, xm, r)
    if bound_id == "cor1":
        a = mpf(x)
        if not 0 < a < 1:
            return False, mpf(0)
        # -log(1 - t) - t loses about -log10(t) digits; 60 keep enough.
        with mpmath.workdps(60):
            t = 4 * a * a * r * r / 3
            value = 3 * (9 - 4 * a * a) ** 2 / (64 * a**4) * (-mpmath.log1p(-t) - t)
        return _inside(r, mpf(0), X_SUP), value
    scale, lo, hi = QUARTIC[bound_id]
    return _inside(r, lo, hi), scale * r**4


def check_table(op: Dict, code: int, stdout: str) -> List[str]:
    if code != 0:
        return [f"exit status {code}"]
    lines = stdout.splitlines()
    if not lines or lines[0] != "bound_id,x,r,value":
        return ["missing table header"]
    rows = lines[1:]
    if len(rows) != len(op["bounds"]) * op["steps"]:
        return [f"{len(rows)} rows, expected {len(op['bounds']) * op['steps']}"]
    problems: List[str] = []
    worst: Dict[str, float] = {}
    last_family_cell: Dict[str, Tuple[float, float]] = {}
    for line in rows:
        bound_id, x_cell, r_cell, cell = line.split(",")
        x = float(x_cell) if x_cell else None
        inside, ref = table_reference(bound_id, x, float(r_cell))
        if cell == "out_of_range":
            if inside:
                problems.append(f"{bound_id} r={r_cell}: out_of_range inside the interval")
            continue
        if inside is False:
            problems.append(f"{bound_id} r={r_cell}: value outside the interval")
            continue
        if bound_id in ("thm1_B", "thm1_B2"):
            last_family_cell[bound_id] = (x, float(r_cell))
        got = mpf(float(cell))
        err = abs(got - ref) / abs(ref) if ref != 0 else abs(got)
        worst[bound_id] = max(worst.get(bound_id, 0.0), float(err))
    for bound_id, (x, r) in last_family_cell.items():
        p = 2 if bound_id == "thm1_B" else 1
        if not _close(family_closed_form(bound_id, x, r), family_sum(x, r, p), 1e-18):
            problems.append(f"{bound_id}: closed form differs from the family sum at r={r}")
    for bound_id, err in worst.items():
        rtol = _VALUE_RTOL.get(bound_id, _DEFAULT_RTOL)
        if err > rtol:
            problems.append(f"{bound_id}: value off its closed form by {err:.3g} relative (> {rtol:g})")
    return problems


def check(op: Dict, code: int, stdout: str) -> List[str]:
    kind = op["kind"]
    if kind == "verify":
        return check_verify(op, code, stdout)
    if kind == "scan":
        return check_scan(op, code, stdout)
    if kind == "root":
        return check_root(op, code, stdout)
    return check_table(op, code, stdout)


def check_crossing(root: float) -> List[str]:
    """The isolated crossing_radius call must land within 1e-6 of R."""
    if abs(mpf(root) - R_THM5) > 1e-6:
        return [f"crossing_radius {root} off R"]
    return []
