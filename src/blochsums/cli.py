"""Command-line runner: verification suites, root report, tables, scans.

Subcommands:

* ``verify`` — run certification suites (default: all nine) and write one
  report per suite; exit status 0 only if every instance passes.
* ``root``   — locate the positive root of the degree-8 threshold polynomial
  and report it together with its square root and residual.
* ``table``  — emit ``bound_id,x,r,value`` rows for plotting or spot checks.
* ``scan``   — slack-vs-radius curves of the extremal-family functionals,
  with the empirical zero-crossing radius in the summary.

Exit codes: 0 success, 1 verdict failure, 2 usage error.  All output is
deterministic for a fixed configuration (fixed seeds, fixed grids, fixed
float formatting), so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    R_THM5,
    VALIDITY,
    _basic_inside,
    _basic_raw,
    _cor1_inside,
    _cor1_raw,
    _prop1_inside,
    _prop1_raw,
    _thm1_B2_raw,
    _thm1_B_raw,
    _thm1_inside,
    _thm_rhs_inside,
    _thm_rhs_raw,
    bound_prop1,
    remark6_poly,
)
from .numerics import _straddles, bisect, sign_changes
from .verify import (
    ALL_SUITES,
    ScanGrid,
    VerdictReport,
    _MAX_LEN,
    _family_peak,
    _scan_functional,
    crossing_radius,
    run_suite,
)

__all__ = [
    "RunConfig",
    "UsageError",
    "cmd_verify",
    "cmd_root",
    "cmd_table",
    "cmd_scan",
    "main",
]


class UsageError(Exception):
    """Invalid invocation or configuration; maps to exit status 2."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Flat, file-representable configuration for the ``verify`` subcommand.
    ``ScanGrid`` declares the numeric fields' defaults and checks the fields
    when ``scan_grid`` builds it."""

    suites: Tuple[str, ...] = ALL_SUITES
    out: Optional[str] = None
    format: str = "csv"
    seed: int = ScanGrid.seed
    tol: float = ScanGrid.tolerance
    grid: Optional[Tuple[float, float, int]] = None
    truncation: int = ScanGrid.truncation
    r_values: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        unknown = [s for s in self.suites if s not in ALL_SUITES]
        if unknown:
            raise UsageError(
                f"unknown suite(s) {', '.join(unknown)}; known: {', '.join(ALL_SUITES)}"
            )
        if not self.suites:
            raise UsageError("at least one suite must be selected")
        if self.format not in ("csv", "json"):
            raise UsageError("format must be 'csv' or 'json'")
        if self.out == "":
            raise UsageError("out must name a directory")

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        values: Dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in values:
                raise UsageError(f"config key {key!r} given more than once")
            values[key] = value.strip()
        return cls(**_read_settings(values))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc

    def scan_grid(self) -> ScanGrid:
        kwargs: Dict[str, object] = dict(
            seed=self.seed,
            tolerance=self.tol,
            truncation=self.truncation,
            r_values=self.r_values,
        )
        if self.grid is not None:
            kwargs["x_range"] = self.grid
        try:
            return ScanGrid(**kwargs)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


def _parse_text(key: str, value: str) -> str:
    return value


def _parse_list(key: str, value: str) -> Tuple[str, ...]:
    return tuple(s for s in value.split(",") if s)


def _parse_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise UsageError(f"{key} expects an integer, got {value!r}") from exc


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError as exc:
        raise UsageError(f"{key} expects a number, got {value!r}") from exc


def _parse_radii(key: str, value: str) -> Tuple[float, ...]:
    return tuple(_parse_float(key, v) for v in _parse_list(key, value))


def _parse_grid(key: str, value: str) -> Tuple[float, float, int]:
    parts = value.split(":")
    if len(parts) != 3:
        raise UsageError(f"{key} expects lo:hi:steps, got {value!r}")
    lo = _parse_float(f"{key} lo", parts[0])
    hi = _parse_float(f"{key} hi", parts[1])
    steps = _parse_int(f"{key} steps", parts[2])
    if not (math.isfinite(lo) and lo < hi < math.inf and 2 <= steps < _MAX_LEN):
        raise UsageError(f"{key} requires finite lo < hi and 2 <= steps < {_MAX_LEN}")
    return (lo, hi, steps)


# Every ``verify`` setting, once: config key (also the argparse dest; the
# flag is ``--key`` with dashes) -> (RunConfig field, reader, help).  A
# config line and a flag both go through ``_read_settings``.
_SETTINGS: Dict[str, Tuple[str, Callable[[str, str], object], str]] = {
    "suite": ("suites", _parse_list, "suite ids, comma-separated or repeated"),
    "out": ("out", _parse_text, "directory for report files"),
    "format": ("format", _parse_text, "report format: csv or json"),
    "seed": ("seed", _parse_int, "sample seed, a nonnegative integer"),
    "tol": ("tol", _parse_float, "tolerance, finite and positive"),
    "grid": ("grid", _parse_grid, "x grid as lo:hi:steps"),
    "truncation": ("truncation", _parse_int, "series truncation order"),
    "r_values": ("r_values", _parse_radii, "radius overrides r1,r2,... for thm5"),
}


def _read_settings(values: Dict[str, str]) -> Dict[str, object]:
    """``RunConfig`` keyword arguments from ``{config key: text}``."""
    kwargs: Dict[str, object] = {}
    for key, value in values.items():
        if key not in _SETTINGS:
            raise UsageError(f"unknown config key {key!r}")
        field, read, _ = _SETTINGS[key]
        kwargs[field] = read(key, value)
    return kwargs


# ---------------------------------------------------------------------------
# report serialization

_CSV_COLUMNS = (
    "suite_id", "instance_id", "params", "lhs", "rhs", "slack", "tail_cert", "pass"
)


def _report_records(report: VerdictReport) -> List[Dict[str, str]]:
    records = []
    for inst in sorted(report.instances, key=lambda i: i.instance_id):
        params = ";".join(
            f"{k}={format(v, '.10g')}" for k, v in sorted(inst.params.items())
        )
        records.append(
            {
                "suite_id": report.suite_id,
                "instance_id": inst.instance_id,
                "params": params,
                "lhs": _fmt(inst.lhs),
                "rhs": _fmt(inst.rhs),
                "slack": _fmt(inst.slack),
                "tail_cert": _fmt(inst.tail_certificate),
                "pass": "true" if inst.passes(report.tolerance) else "false",
            }
        )
    return records


def _render_report(report: VerdictReport, fmt: str) -> str:
    records = _report_records(report)
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    rows = [_CSV_COLUMNS] + [tuple(rec[col] for col in _CSV_COLUMNS) for rec in records]
    return "".join(",".join(row) + "\n" for row in rows)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path: Optional[str]) -> None:
    """Write text to out_path and say so on stdout, or print it to stdout."""
    if out_path is not None:
        _write_text(out_path, text)
        print(f"wrote {out_path}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify


def cmd_verify(config: RunConfig) -> int:
    suites = tuple(s for s in ALL_SUITES if s in config.suites)
    grid, shared = config.scan_grid(), {}  # shared: one thm1 sample set per run
    if config.out is not None:
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as exc:
            raise RuntimeError(f"cannot create {config.out}: {exc}") from exc
    reports = {s: run_suite(s, grid, shared) for s in suites}
    all_passed = True
    for suite in suites:
        report = reports[suite]
        all_passed = all_passed and report.passed
        status = "PASS" if report.passed else "FAIL"
        line = (
            f"suite {suite}: {status} "
            f"(instances={len(report.instances)}, "
            f"worst_slack={_fmt(report.worst_slack)}"
        )
        if not report.passed:
            line += f", failures={len(report.witnesses)}"
        line += ")"
        print(line)
        for witness in report.witnesses[:5]:
            items = ";".join(
                f"{k}={format(v, '.10g')}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(witness.items())
            )
            print(f"  witness: {items}")
        if config.out is not None:
            path = os.path.join(config.out, f"{suite}.{config.format}")
            _write_text(path, _render_report(report, config.format))
            print(f"  wrote {path}")
    print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# root


def cmd_root() -> int:
    brackets = sign_changes(remark6_poly, 0.0, 0.5, 10000)
    if not brackets:
        print("error: no sign change found in (0, 0.5)", file=sys.stderr)
        return 1
    lo, hi = brackets[0]
    result = bisect(remark6_poly, lo, hi, tol=1e-15)
    rho = result.root
    sqrt_rho = math.sqrt(rho)
    residual = abs(result.residual)
    print(f"rho = {_fmt(rho)}")
    print(f"sqrt_rho = {_fmt(sqrt_rho)}")
    print(f"residual = {_fmt(residual)}")
    print(f"bracket = [{_fmt(lo)}, {_fmt(hi)}]")
    ok_value = abs(sqrt_rho - 0.39466) <= 5e-5
    ok_residual = residual <= 1e-12
    ok_bracket = 0.15 < lo and hi < 0.16
    print(
        "checks: sqrt_rho within 5e-05 of 0.39466: "
        f"{'ok' if ok_value else 'FAIL'}; residual <= 1e-12: "
        f"{'ok' if ok_residual else 'FAIL'}; bracket inside (0.15, 0.16): "
        f"{'ok' if ok_bracket else 'FAIL'}"
    )
    return 0 if (ok_value and ok_residual and ok_bracket) else 1


# ---------------------------------------------------------------------------
# table


# The family bounds' second parameter, which ``--x`` must supply.
_TABLE_X = {
    "thm1_B": "the family parameter",
    "thm1_B2": "the family parameter",
    "cor1": "the first coefficient a",
}


# Each table bound's radius predicate and closed form, both called as
# f(*params, r) with the params ``_table_column`` gives the bound.
_TABLE_FORMS = {
    "basic": (_basic_inside, _basic_raw),
    "prop1": (_prop1_inside, _prop1_raw),
    "thm1_B": (_thm1_inside, _thm1_B_raw),
    "thm1_B2": (_thm1_inside, _thm1_B2_raw),
    "cor1": (_cor1_inside, _cor1_raw),
    **dict.fromkeys(VALIDITY, (_thm_rhs_inside, _thm_rhs_raw)),
}


def _table_column(
    bound_id: str, x: Optional[float], radii: np.ndarray
) -> Tuple[np.ndarray, List[float]]:
    """One bound's mask of the radii its predicate accepts and its values
    there, from one array call; an all-false mask, with no call (B_a has no
    value at a = 0), when ``--x`` lies outside the bound's parameter
    domain."""
    if bound_id == "basic":
        params = ()
    elif bound_id == "prop1":
        params = (1 if x is None else int(x),)
    elif bound_id in _TABLE_X:
        params = (x,)
    else:
        params = (bound_id,)
    predicate, form = _TABLE_FORMS[bound_id]
    try:
        inside = predicate(*params, radii)
    except ValueError:
        inside = np.zeros(radii.shape, dtype=bool)
    return inside, form(*params, radii[inside]).tolist() if inside.any() else []


def _check_prop1_order(x: float) -> None:
    """``--x`` names prop1's index n: an integer n >= 1 whose constant
    (n+2)^(n+2) / (4 n^n) is a finite float (n <= 141)."""
    if not (math.isfinite(x) and x >= 1.0 and x == int(x)):
        raise UsageError(f"prop1 needs --x to be an integer n >= 1, got {x!r}")
    try:
        bound_prop1(int(x), 0.0)
    except OverflowError:
        raise UsageError(f"prop1's constant overflows for n = {x!r}") from None


def cmd_table(
    bound_ids: Sequence[str],
    r_range: Tuple[float, float, int],
    x: Optional[float],
    out_path: Optional[str],
) -> int:
    for bid in bound_ids:
        if bid not in _TABLE_FORMS:
            raise UsageError(
                f"unknown bound id {bid!r}; known: {', '.join(_TABLE_FORMS)}"
            )
    if "prop1" in bound_ids and x is not None:
        _check_prop1_order(x)
    for bid in bound_ids:
        if bid in _TABLE_X and x is None:
            raise UsageError(f"{bid} needs --x ({_TABLE_X[bid]})")
    lo, hi, steps = r_range
    radii = np.linspace(lo, hi, steps)
    # Cells are written one % call per run of rows.  '%.17g' % v and _fmt(v)
    # run the same CPython formatter, so the bytes equal one _fmt per cell.
    r_cells = ("%.17g\n" * steps % tuple(radii.tolist())).splitlines()
    chunks = ["bound_id,x,r,value\n"]
    x_cell = "" if x is None else _fmt(x)
    for bid in bound_ids:
        prefix = f"{bid},{x_cell},".replace("%", "%%")
        inside, values = _table_column(bid, x, radii)
        cuts = [0, *(np.flatnonzero(np.diff(inside)) + 1).tolist(), steps]
        done = 0  # values written so far
        for start, stop in zip(cuts, cuts[1:]):
            cells, n = r_cells[start:stop], stop - start
            if inside[start]:
                pairs = [None] * (2 * n)
                pairs[::2], pairs[1::2] = cells, values[done : done + n]
                done += n
                chunks.append((prefix + "%s,%.17g\n") * n % tuple(pairs))
            else:
                chunks.append((prefix + "%s,out_of_range\n") * n % tuple(cells))
    _emit("".join(chunks), out_path)
    return 0


# ---------------------------------------------------------------------------
# scan

# Each target's quartic bound and default radius range.  problem1 and
# problem2 probe the same squared-weight sum against (27/4) r^4 (their
# theorems share one left side, on nested classes); thm5_sharpness probes
# the product functional against (27/8) r^4.
_SCAN_TARGETS = {
    "problem1": ("thm2", (0.37, 0.42, 26)),
    "problem2": ("thm2", (0.37, 0.43, 31)),
    "thm5_sharpness": ("thm5", (0.36, 0.40, 26)),
}


def cmd_scan(
    target: str,
    r_range: Optional[Tuple[float, float, int]],
    grid: ScanGrid,
    out_path: Optional[str],
) -> int:
    if target not in _SCAN_TARGETS:
        raise UsageError(
            f"unknown scan target {target!r}; known: {', '.join(_SCAN_TARGETS)}"
        )
    bound_id, default_range = _SCAN_TARGETS[target]
    lo, hi, steps = r_range or default_range
    if not 0.0 < lo < hi < 1.0:
        raise UsageError(f"scan radii must lie in (0, 1), got {lo!r}:{hi!r}")
    radii = np.linspace(lo, hi, steps)
    # All rows' family peaks come from one lockstep search over the radii;
    # rhs and slack take each element's bits of ``_scan_row``'s float call,
    # and the rows are written by one % call, as in ``cmd_table``.
    rs = radii.tolist()
    peaks, args = _family_peak(_scan_functional(bound_id, *rs), radii, grid)
    rhs = _thm_rhs_raw(bound_id, radii)
    slack = rhs - peaks
    cells = np.column_stack((radii, peaks, rhs, slack, args)).ravel().tolist()
    rows = "%.17g,%.17g,%.17g,%.17g,%.17g\n" * steps % tuple(cells)
    _emit("r,max_lhs,rhs,slack,x_at_max\n" + rows, out_path)

    crossing = None
    slack, rhs = slack.tolist(), rhs.tolist()
    for i, r in enumerate(rs):
        # Below r ~ 1e-162 peak and bound underflow to 0: no crossing.
        if slack[i] == 0.0 and rhs[i] > 0.0:
            crossing = r
            break
        if i + 1 < steps and _straddles(slack[i], slack[i + 1]):
            crossing = crossing_radius(bound_id, r, rs[i + 1], grid, tol=1e-12).root
            break
    print(f"target = {target}")
    if crossing is None:
        print("crossing_radius = none (no sign change on this range)")
    else:
        print(f"crossing_radius = {_fmt(crossing)}")
    if target in ("problem1", "problem2"):
        print("note = exploratory - open problem")
        if target == "problem1" and crossing is not None:
            if abs(crossing - 0.39466) <= 1e-3:
                print("note = conjecture-consistent (crossing within 1e-3 of 0.39466)")
    else:
        print(f"reference_radius = {_fmt(R_THM5)}")
        print(
            "note = threshold radius from the closed form (1/(4*sqrt(3)))*sqrt(59-sqrt(2713))"
        )
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Once(argparse.Action):
    """``store``, except that a second occurrence of the flag is an error
    (a repeated value would otherwise silently replace the first)."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("action", None, _Once)  # the default action: store once

    def error(self, message: str):  # route argparse errors through UsageError
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="blochsums",
        description="Numerical certification of sharp coefficient-sum bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run certification suites")
    for key, (_, _, help_text) in _SETTINGS.items():
        p_verify.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            action="append" if key == "suite" else None,
            help=help_text,
        )
    p_verify.add_argument("--config", default=None, help="flat key=value config file")

    sub.add_parser("root", help="report the positive root of the threshold polynomial")

    p_table = sub.add_parser("table", help="emit bound values over a radius range")
    p_table.add_argument(
        "--bounds", required=True, help="comma-separated bound ids"
    )
    p_table.add_argument("--grid", default="0:0.55:12", help="r range as lo:hi:steps")
    p_table.add_argument(
        "--x", type=float, default=None, help="second parameter (x, a, or n)"
    )
    p_table.add_argument("--out", default=None, help="output CSV path")

    p_scan = sub.add_parser("scan", help="slack-vs-radius curve for a family scan")
    p_scan.add_argument("--target", required=True, help="|".join(_SCAN_TARGETS))
    p_scan.add_argument("--grid", default=None, help="r range as lo:hi:steps")
    p_scan.add_argument("--out", default=None, help="output CSV path")
    return parser


# Built once per process: a parse keeps its state (``_Once``'s flags seen)
# on the namespace it returns, never on the parser.
_PARSER = _build_parser()


def _verify_config(args: argparse.Namespace) -> RunConfig:
    """The config file (or the defaults), overridden by the flags given."""
    config = RunConfig() if args.config is None else RunConfig.from_file(args.config)
    given = {k: getattr(args, k) for k in _SETTINGS if getattr(args, k) is not None}
    if "suite" in given:  # --suite is repeatable
        given["suite"] = ",".join(given["suite"])
    return dataclasses.replace(config, **_read_settings(given))


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.command == "verify":
            status = cmd_verify(_verify_config(args))
        elif args.command == "root":
            status = cmd_root()
        elif args.command == "table":
            bound_ids = _parse_list("bounds", args.bounds)
            if not bound_ids:
                raise UsageError("--bounds must name at least one bound id")
            r_range = _parse_grid("grid", args.grid)
            status = cmd_table(bound_ids, r_range, args.x, args.out)
        else:  # scan: the subparsers admit no other command
            r_range = None if args.grid is None else _parse_grid("grid", args.grid)
            status = cmd_scan(args.target, r_range, ScanGrid(), args.out)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return status
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout is gone: what is still buffered goes to
        # /dev/null, so the flush at exit neither fails nor prints.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
