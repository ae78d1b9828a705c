"""Seeded operation plans for the three workloads.

A plan is the list of CLI invocations one round makes, in order, with what
the checker needs to know about each.  The same (workload, seed) always gives
the same plan; every round of a run repeats it unchanged, so the share of
failed operations is the same in every run.

* ``certify`` — the path users run: default ``verify`` (all nine suites,
  truncation 256, seed 42, CSV reports), then five passes of the default
  scan of each target and of fine tables of the family bounds.
* ``sweep``   — no compositions: four closed-form and search suites with
  thm5 replayed at many radii in [R, 0.38], scans of all three targets over
  fine radius grids, ``root``, and fine tables of all nine bounds.
* ``light``   — all nine suites at truncation 48 with JSON reports, where
  per-sample Python work, the thm1_B2 trapezoid, the pool and report
  rendering weigh more than composition.
"""

from __future__ import annotations

import math
import os
import random
from typing import Dict, List, Optional

WORKLOADS = ("certify", "sweep", "light")

ALL_SUITES = ("basic", "prop1", "thm1_B", "thm1_B2", "thm2", "thm3", "cor1", "cor2", "thm5")
SWEEP_SUITES = ("thm2", "thm3", "cor2", "thm5")

# Sharp threshold of the product bound, only used to place the thm5 replay
# radii; the checker computes its own reference in mpmath.
_R_THM5 = math.sqrt(59.0 - math.sqrt(2713.0)) / (4.0 * math.sqrt(3.0))
_R_HI = 1.0 / math.sqrt(3.0)

# Above 0.38 the case-1 chain of the thm5 replay fails by construction.
_THM5_R_MAX = 0.38
_THM5_REPLAYS = 200
_LIGHT_TRUNCATION = 48
_SCAN_STEPS = 101
_TABLE_STEPS = 5000
# certify's scans and tables take about 0.1-0.2 s a pass; five passes a
# round put enough of their CPU time into each round to steady its median.
_CERTIFY_PASSES = 5


def _grid(lo: float, hi: float, steps: int) -> str:
    return f"{lo!r}:{hi!r}:{steps}"


def _verify(out: str, seed: Optional[int], suites, fmt: str, extra: List[str], radii=None) -> Dict:
    argv = ["verify", "--out", out, "--format", fmt] + extra
    if seed is not None:
        argv += ["--seed", str(seed)]
    if tuple(suites) != ALL_SUITES:
        argv += ["--suite", ",".join(suites)]
    if radii is not None:
        argv += ["--r-values", ",".join(repr(r) for r in radii)]
    return {
        "kind": "verify",
        "argv": argv,
        "out": out,
        "format": fmt,
        "suites": list(suites),
        "tol": 1e-10,
        "replays": 1 if radii is None else len(radii),
    }


def _scan(target: str, grid=None) -> Dict:
    argv = ["scan", "--target", target]
    if grid is not None:
        argv += ["--grid", _grid(*grid)]
    return {"kind": "scan", "argv": argv, "target": target}


def _table(bound_ids, grid, x=None, known_fault: bool = False) -> Dict:
    argv = ["table", "--bounds", ",".join(bound_ids), "--grid", _grid(*grid)]
    if x is not None:
        argv += ["--x", repr(x)]
    return {
        "kind": "table",
        "argv": argv,
        "bounds": list(bound_ids),
        "x": x,
        "steps": grid[2],
        "known_fault": known_fault,
    }


def _thm5_radii(rng: random.Random) -> List[float]:
    # Distinct at the six decimals the replay prints in its instance ids.
    lo = math.ceil(_R_THM5 * 1e6)
    hi = int(round(_THM5_R_MAX * 1e6))
    return [k / 1e6 for k in sorted(rng.sample(range(lo, hi + 1), _THM5_REPLAYS))]


def _family_tables(rng: random.Random) -> List[Dict]:
    # Nonzero table radii start above 1e-2, where bound_cor1 is accurate to
    # 1e-9 for a >= 0.15.  Each grid ends past the bound's validity interval
    # by a fixed share, so out_of_range cells are checked and their count
    # does not depend on the seed.
    t_lo = round(rng.uniform(0.011, 0.03), 6)
    x = round(rng.uniform(0.15, 0.45), 6)
    n = rng.randint(1, 6)
    r_adm = (_R_HI - x) / (1.0 - x * _R_HI)
    return [
        _table(("thm1_B", "thm1_B2", "cor1"), (t_lo, round(1.25 * r_adm, 6), _TABLE_STEPS), x=x),
        _table(("prop1",), (t_lo, round(1.1 * math.sqrt(n / (n + 2.0)), 6), _TABLE_STEPS), x=float(n)),
    ]


def plan(workload: str, seed: int, out_dir: str) -> List[Dict]:
    """The operations of one round of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    reports = os.path.join(out_dir, "reports")
    if workload == "certify":
        tables = _family_tables(rng)
        one_pass = [_scan("problem1"), _scan("problem2"), _scan("thm5_sharpness")] + tables
        return [_verify(reports, None, ALL_SUITES, "csv", [])] + one_pass * _CERTIFY_PASSES
    if workload == "sweep":
        radii = _thm5_radii(rng)
        t_lo = round(rng.uniform(0.011, 0.03), 6)
        t_hi = round(rng.uniform(0.58, 0.62), 6)
        ops = [_verify(reports, None, SWEEP_SUITES, "csv", [], radii=radii)]
        ops.append(
            _scan("thm5_sharpness", (round(rng.uniform(0.355, 0.37), 6), round(rng.uniform(0.39, 0.405), 6), _SCAN_STEPS))
        )
        for target in ("problem1", "problem2"):
            ops.append(
                _scan(target, (round(rng.uniform(0.365, 0.385), 6), round(rng.uniform(0.405, 0.43), 6), _SCAN_STEPS))
            )
        ops.append({"kind": "root", "argv": ["root"]})
        ops.append(_table(("basic", "thm2", "thm3", "cor2", "thm5"), (t_lo, t_hi, _TABLE_STEPS)))
        ops += _family_tables(rng)
        # Fixed inputs, independent of the seed: the cancellation in
        # bound_cor1 at small radii fails the 1e-9 check on every run.
        ops.append(_table(("cor1",), (1e-6, 1e-2, 100), x=0.2, known_fault=True))
        return ops
    if workload == "light":
        return [
            # The program's sampling seed must be a nonnegative integer.
            _verify(reports, seed % 2**31, ALL_SUITES, "json", ["--truncation", str(_LIGHT_TRUNCATION)]),
            _scan("problem1", (round(rng.uniform(0.37, 0.385), 6), round(rng.uniform(0.405, 0.42), 6), _SCAN_STEPS)),
            _table(
                ("basic", "thm2", "thm3", "cor2", "thm5"),
                (round(rng.uniform(0.011, 0.03), 6), round(rng.uniform(0.58, 0.62), 6), _TABLE_STEPS),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
