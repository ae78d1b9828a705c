"""CLI behavior: config round trips, exit codes, report files, determinism."""

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from blochsums import (
    R_THM5,
    bound_basic,
    bound_cor1,
    bound_prop1,
    bound_thm1_B,
    bound_thm1_B2,
    r_admissible,
    r_star,
    thm_rhs,
    verify,
)
from blochsums.bounds import R_HI, THM2_R_LO, THM3_R_LO
from blochsums import cli
from blochsums.cli import RunConfig, UsageError, cmd_verify, main
from blochsums.numerics import _straddles


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _no_suite(*args, **kwargs):
    raise AssertionError("a suite ran before the report directory was made")


def _child_env():
    """The environment for ``python -m blochsums``, importing this source."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


class TestRunConfig:
    def test_round_trip_defaults(self):
        # The defaults' text form, every key that has one named.
        text = (
            "suite = basic,prop1,thm1_B,thm1_B2,thm2,thm3,cor1,cor2,thm5\n"
            "format = csv\n"
            "seed = 42\n"
            "tol = 1e-10\n"
            "truncation = 256\n"
        )
        assert RunConfig.from_text(text) == RunConfig()

    def test_round_trip_full(self):
        text = (
            "suite = thm5,basic\n"
            "out = reports\n"
            "format = json\n"
            "seed = 7\n"
            "tol = 2.5e-11\n"
            "grid = 0.002:0.55:123\n"
            "truncation = 192\n"
            "r_values = 0.3695154099741958,0.41\n"
        )
        assert RunConfig.from_text(text) == RunConfig(
            suites=("thm5", "basic"),
            out="reports",
            format="json",
            seed=7,
            tol=2.5e-11,
            grid=(0.002, 0.55, 123),
            truncation=192,
            r_values=(0.3695154099741958, 0.41),
        )

    def test_comments_and_blank_lines(self):
        text = "# run setup\n\nsuite = thm2\nseed = 5\n"
        cfg = RunConfig.from_text(text)
        assert cfg.suites == ("thm2",)
        assert cfg.seed == 5

    def test_numeric_defaults_are_the_scan_grid_defaults(self):
        assert RunConfig().scan_grid() == verify.ScanGrid()

    def test_unknown_suite_rejected(self):
        with pytest.raises(UsageError):
            RunConfig(suites=("thm9",))

    def test_unknown_key_rejected(self):
        with pytest.raises(UsageError):
            RunConfig.from_text("volume = 11\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(UsageError):
            RunConfig.from_text("just some words\n")


# Each verify setting as flags and as a config line, and the RunConfig
# field values both must give.
_SETTING_CASES = {
    "suite": (
        ["--suite", "thm5", "--suite", "basic,cor1"],
        "suite = thm5,basic,cor1",
        {"suites": ("thm5", "basic", "cor1")},
    ),
    "out": (["--out", "reports"], "out = reports", {"out": "reports"}),
    "format": (["--format", "json"], "format = json", {"format": "json"}),
    "seed": (["--seed", "7"], "seed = 7", {"seed": 7}),
    "tol": (["--tol", "2.5e-11"], "tol = 2.5e-11", {"tol": 2.5e-11}),
    "grid": (
        ["--grid", "0.002:0.55:123"],
        "grid = 0.002:0.55:123",
        {"grid": (0.002, 0.55, 123)},
    ),
    "truncation": (["--truncation", "192"], "truncation = 192", {"truncation": 192}),
    "r_values": (
        ["--r-values", "0.3695154099741958,0.41"],
        "r_values = 0.3695154099741958,0.41",
        {"r_values": (0.3695154099741958, 0.41)},
    ),
}


def verify_config(monkeypatch, *argv):
    """The RunConfig ``blochsums verify`` builds from argv, not run."""
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda config: seen.append(config) or 0)
    assert main(["verify", *argv]) == 0
    return seen[0]


class TestSettingsTable:
    """Flags and config lines are one set of settings, read by one parser."""

    @pytest.mark.parametrize("key", list(_SETTING_CASES))
    def test_flag_and_config_line_agree(self, monkeypatch, tmp_path, key):
        flags, line, fields = _SETTING_CASES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        expected = RunConfig(**fields)
        assert verify_config(monkeypatch, *flags) == expected
        assert verify_config(monkeypatch, "--config", str(cfg)) == expected
        assert RunConfig.from_text(line) == expected

    def test_flags_override_file(self, monkeypatch, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = thm3\nseed = 5\nformat = json\n")
        assert verify_config(monkeypatch, "--config", str(cfg)) == RunConfig(
            suites=("thm3",), seed=5, format="json"
        )
        overridden = verify_config(
            monkeypatch, "--config", str(cfg), "--seed", "7", "--suite", "cor1"
        )
        assert overridden == RunConfig(suites=("cor1",), seed=7, format="json")

    @pytest.mark.parametrize(
        "key, first, second", [("suite", "basic", "thm3"), ("seed", "5", "7")]
    )
    def test_repeated_config_key_exits_2(self, capsys, tmp_path, key, first, second):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {first}\nformat = json\n {key}={second}\n")
        with pytest.raises(UsageError, match=f"'{key}' given more than once"):
            RunConfig.from_text(cfg.read_text())
        rc, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert repr(key) in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("seed", "abc"),
            ("seed", "1.5"),
            ("tol", "abc"),
            ("grid", "0.1:x:3"),
            ("truncation", "1e3"),
            ("r_values", "0.3,abc"),
        ],
    )
    def test_bad_numeric_value_exits_2_both_ways(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = basic\n{key} = {value}\n")
        flag = "--" + key.replace("_", "-")
        errors = []
        for argv in (["--suite", "basic", flag, value], ["--config", str(cfg)]):
            rc, out, err = run_cli(capsys, "verify", *argv)
            assert (rc, out) == (2, "")
            assert err.startswith("usage error:")
            errors.append(err)
        assert errors[0] == errors[1]

    def test_help_lists_every_setting_as_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert set(cli._SETTINGS) == set(_SETTING_CASES)
        for key in _SETTING_CASES:
            assert f"--{key.replace('_', '-')} " in help_text


# Every flag of every subcommand that takes one value, with two values for
# it; ``--suite`` is the one flag that may be repeated.
_ONCE_FLAGS = [
    ("verify", "--out", "a", "b"),
    ("verify", "--format", "csv", "json"),
    ("verify", "--seed", "5", "7"),
    ("verify", "--tol", "1e-10", "1e-11"),
    ("verify", "--grid", "0.01:0.5:10", "0.01:0.5:20"),
    ("verify", "--truncation", "64", "128"),
    ("verify", "--r-values", "0.37", "0.38"),
    ("verify", "--config", "a.cfg", "b.cfg"),
    ("table", "--bounds", "basic", "thm2"),
    ("table", "--grid", "0:0.5:3", "0:0.5:4"),
    ("table", "--x", "0.2", "0.3"),
    ("table", "--out", "a.csv", "b.csv"),
    ("scan", "--target", "problem1", "problem2"),
    ("scan", "--grid", "0.37:0.42:6", "0.37:0.42:7"),
    ("scan", "--out", "a.csv", "b.csv"),
]


class TestRepeatedFlags:
    @pytest.mark.parametrize("command, flag, first, second", _ONCE_FLAGS)
    def test_second_occurrence_exits_2(self, capsys, command, flag, first, second):
        rc, out, err = run_cli(capsys, command, flag, first, f"{flag}={second}")
        assert (rc, out) == (2, "")
        assert err == f"usage error: argument {flag}: given more than once\n"

    @pytest.mark.parametrize("command", ["verify", "table", "scan"])
    def test_every_flag_but_suite_is_covered(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        covered = {flag for cmd, flag, _, _ in _ONCE_FLAGS if cmd == command}
        assert flags - {"--help", "--suite"} == covered


class TestOneParser:
    """``main`` parses with the parser built at import; a parse keeps its
    state on its own namespace, so no call sees another's flags."""

    def test_repeated_flag_leaves_nothing_behind(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--suite=thm3", "--seed=5", "--seed=7")
        assert (rc, out) == (2, "")
        rc, _, err = run_cli(capsys, "verify", "--suite=thm3", "--seed=5")
        assert (rc, err) == (0, "")

    def test_process_and_call_give_the_same_bytes(self, capsys):
        argv = ["scan", "--target", "problem1"]
        proc = subprocess.run(
            [sys.executable, "-m", "blochsums", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, *argv)


class TestVerifyCommand:
    def test_unknown_suite_exits_2_without_files(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        rc, _, err = run_cli(
            capsys, "verify", "--suite", "thm9", "--out", str(out_dir)
        )
        assert rc == 2
        assert "unknown suite" in err
        assert not out_dir.exists()

    def test_malformed_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = 1:2\n")
        rc, _, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert "grid" in err

    def test_single_green_suite(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        rc, out, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "thm2",
            "--out",
            str(out_dir),
        )
        assert rc == 0
        assert "suite thm2: PASS" in out
        csv_path = out_dir / "thm2.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "suite_id,instance_id,params,lhs,rhs,slack,tail_cert,pass"

    def test_json_format(self, capsys, tmp_path):
        out_dir = tmp_path / "reports"
        rc, _, _ = run_cli(
            capsys,
            "verify",
            "--suite",
            "thm3",
            "--format",
            "json",
            "--out",
            str(out_dir),
        )
        assert rc == 0
        records = json.loads((out_dir / "thm3.json").read_text())
        assert records and all(r["pass"] == "true" for r in records)
        assert {"suite_id", "instance_id", "params", "lhs", "rhs"} <= set(records[0])

    def test_thm5_radius_override_finds_violation(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"suite = thm5\nr_values = {R_THM5 - 0.01!r}\nout = {tmp_path}/rep\n"
        )
        rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert rc == 1
        assert "case1/negativity" in out
        rows = (tmp_path / "rep" / "thm5.csv").read_text().splitlines()
        violations = [r for r in rows if "negativity" in r and r.endswith("false")]
        assert violations

    def test_quick_determinism(self, capsys, tmp_path):
        paths = []
        for tag in ("one", "two"):
            out_dir = tmp_path / tag
            rc, _, _ = run_cli(
                capsys, "verify", "--suite", "cor1", "--out", str(out_dir)
            )
            assert rc == 0
            paths.append(out_dir / "cor1.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ("--suite", "thm2", "--tol", "nan"),
            ("--suite", "basic", "--seed", "-1"),
            ("--suite", "thm5", "--r-values", "1.5"),
            ("--suite", "thm5", "--r-values", "0.9"),
            ("--suite", "thm5", "--r-values", "0.3,0.5773502691896259"),
            ("--suite", "thm5", "--r-values", ","),
            ("--suite", "thm5", "--grid", "0.1:0.9:10"),
            # Radii that print alike at six decimals would share row ids.
            ("--suite", "thm5", "--r-values", "0.3800001,0.3800004"),
            ("--suite", "thm5", "--r-values", "0.38,0.38"),
        ],
    )
    def test_out_of_domain_values_exit_2(self, capsys, flags):
        rc, out, err = run_cli(capsys, "verify", *flags)
        assert rc == 2
        assert err.startswith("usage error:")
        assert out == ""

    def test_empty_radius_list_in_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"suite = thm5\nr_values = ,\nout = {tmp_path}/rep\n")
        rc, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert err.startswith("usage error:")
        assert out == ""
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("case", ["under_a_file", "an_existing_file"])
    def test_uncreatable_out_exits_1_before_any_suite(
        self, capsys, tmp_path, monkeypatch, case
    ):
        monkeypatch.setattr(cli, "run_suite", _no_suite)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker / "x" if case == "under_a_file" else blocker
        rc, stdout, err = run_cli(capsys, "verify", "--suite", "thm2", "--out", str(out))
        assert rc == 1
        assert err.startswith(f"error: cannot create {out}: ")
        assert stdout == ""

    def test_empty_out_exits_2_both_ways(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "run_suite", _no_suite)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = thm2\nout =\n")
        for argv in (["--suite", "thm2", "--out", ""], ["--config", str(cfg)]):
            rc, stdout, err = run_cli(capsys, "verify", *argv)
            assert rc == 2
            assert err.startswith("usage error: out must name a directory")
            assert stdout == ""

    def test_config_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"suite = thm2\n# caf\xe9\n")
        rc, stdout, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert rc == 2
        assert err.startswith(f"usage error: cannot read config {cfg}: ")
        assert stdout == ""

    def test_thm1_composed_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        original = verify.verify_thm1

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_thm1", counting)
        reports = []
        for tag in ("one", "two"):
            calls.clear()
            out_dir = tmp_path / tag
            config = RunConfig(
                suites=("thm1_B", "thm1_B2"), out=str(out_dir), truncation=48
            )
            with contextlib.redirect_stdout(io.StringIO()):
                assert cmd_verify(config) == 0
            assert len(calls) == 3
            reports.append(
                [(out_dir / f"{s}.csv").read_bytes() for s in config.suites]
            )
        assert reports[0] == reports[1]
        assert not hasattr(verify, "_thm1_cache")

    def test_seed_flag_changes_sampled_rows(self, capsys, tmp_path):
        texts = []
        for seed in ("42", "43"):
            out_dir = tmp_path / f"s{seed}"
            rc, _, _ = run_cli(
                capsys,
                "verify",
                "--suite",
                "cor1",
                "--seed",
                seed,
                "--out",
                str(out_dir),
            )
            assert rc == 0
            texts.append((out_dir / "cor1.csv").read_text())
        assert texts[0] != texts[1]


class TestRootCommand:
    def test_report_and_exit_code(self, capsys):
        rc, out, _ = run_cli(capsys, "root")
        assert rc == 0
        fields = dict(
            line.split(" = ", 1) for line in out.splitlines() if " = " in line
        )
        assert abs(float(fields["sqrt_rho"]) - 0.39466) <= 5e-5
        assert float(fields["residual"]) <= 1e-12
        assert math.isclose(
            float(fields["rho"]), float(fields["sqrt_rho"]) ** 2, rel_tol=1e-12
        )


def _table_oracle(bound_ids, r_range, x):
    """``table``'s output as the loop of scalar bound calls, one per cell,
    that the column arrays replaced: they must give the same bytes."""

    def value(bound_id, r):
        if bound_id == "basic":
            return bound_basic(r)
        if bound_id == "prop1":
            return bound_prop1(1 if x is None else int(x), r)
        if bound_id == "thm1_B":
            return bound_thm1_B(x, r)
        if bound_id == "thm1_B2":
            return bound_thm1_B2(x, r)
        if bound_id == "cor1":
            return bound_cor1(x, r)
        return thm_rhs(bound_id, r)

    lines = ["bound_id,x,r,value"]
    x_cell = "" if x is None else format(x, ".17g")
    for bid in bound_ids:
        for r in np.linspace(*r_range):
            try:
                cell = format(value(bid, float(r)), ".17g")
            except ValueError:
                cell = "out_of_range"
            lines.append(f"{bid},{x_cell},{format(float(r), '.17g')},{cell}")
    return "\n".join(lines) + "\n"


_QUARTICS = ("thm2", "thm3", "cor2", "thm5")
_FAMILY = ("thm1_B", "thm1_B2", "cor1")


def _edge_cases():
    """(bounds, x, edge radius) at every validity-interval end a gate tests."""
    cases = [
        (("basic", "cor1") + _QUARTICS, 0.2, R_HI),
        (("basic", "prop1") + _QUARTICS, None, 0.0),
        (("basic",) + _FAMILY + _QUARTICS, 0.2, 0.0),
        (_QUARTICS, None, THM2_R_LO),
        (_QUARTICS, None, THM3_R_LO),
        (_QUARTICS, None, R_THM5),
    ]
    cases += [(("prop1",), float(n), r_star(n)) for n in (1, 6, 141)]
    cases += [(_FAMILY, x, r_admissible(x)) for x in (0.2, 0.45)]
    return cases


class TestTableOracle:
    """Every table the column arrays write equals the per-cell oracle byte
    for byte, inside, outside and at the ends of each validity interval."""

    def check(self, capsys, bound_ids, r_range, x=None):
        argv = ["table", "--bounds", ",".join(bound_ids)]
        argv.append("--grid={!r}:{!r}:{}".format(*r_range))
        if x is not None:
            argv.append(f"--x={x!r}")
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        assert out == _table_oracle(bound_ids, r_range, x)

    def test_all_nine_bounds_cover_out_of_range_cells(self, capsys):
        no_prop1 = ("basic",) + _FAMILY + _QUARTICS
        self.check(capsys, no_prop1, (-0.2, 1.3, 1501), 0.2)
        self.check(capsys, ("basic", "prop1") + _QUARTICS, (-0.5, 0.99, 301))
        self.check(capsys, ("prop1",), (-0.1, 1.1, 301), 6.0)

    @pytest.mark.parametrize("bound_ids, x, edge", _edge_cases())
    def test_validity_edges(self, capsys, bound_ids, x, edge):
        self.check(capsys, bound_ids, (edge - 3e-12, edge + 3e-12, 7), x)
        self.check(capsys, bound_ids, (edge - 1e-12, edge + 1e-12, 2), x)

    @pytest.mark.parametrize(
        "x", [0.0, R_HI, 0.6, -0.1, 1.0, 1.5, math.inf, math.nan]
    )
    def test_parameter_outside_its_domain(self, capsys, x):
        # thm1 needs x in (0, 1/sqrt(3)) and cor1 needs a in (0, 1).
        self.check(capsys, ("basic",) + _FAMILY, (0.0, 0.6, 61), x)

    def test_readme_example(self, capsys):
        self.check(capsys, ("thm1_B",), (0.1, 0.3, 3), 0.2)

    @pytest.mark.parametrize(
        "bound_ids, r_range, x",
        [
            # A bound listed twice: its runs of rows start again in one table.
            (("basic", "thm2", "basic"), (-0.2, 0.7, 50), None),
            # Cells in exponent form, and values that underflow to 0.
            (("basic", "prop1", "thm2", "thm5"), (1e-200, 2e-200, 5), None),
            # prop1's largest values, near r_141.
            (("prop1",), (r_star(141) - 0.02, r_star(141) + 0.02, 401), 141.0),
        ],
    )
    def test_runs_and_extreme_cells(self, capsys, bound_ids, r_range, x):
        self.check(capsys, bound_ids, r_range, x)


class TestTableCommand:
    def test_closed_form_rows(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--bounds", "basic", "--grid", "0:0.5:2")
        assert rc == 0
        rows = out.strip().splitlines()
        assert rows[0] == "bound_id,x,r,value"
        assert rows[1].startswith("basic,,0,1")
        assert float(rows[2].split(",")[3]) == pytest.approx(16.0 / 9.0)

    def test_out_of_range_marker(self, capsys):
        rc, out, _ = run_cli(capsys, "table", "--bounds", "thm2", "--grid", "0.3:0.5:2")
        assert rc == 0
        assert all(
            line.endswith("out_of_range") for line in out.strip().splitlines()[1:]
        )

    def test_rows_match_direct_evaluation(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            "table",
            "--bounds",
            "thm1_B",
            "--x",
            "0.2",
            "--grid",
            "0.05:0.4:10",
        )
        assert rc == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 10
        for row in rows:
            _, x_cell, r_cell, val_cell = row.split(",")
            assert float(val_cell) == pytest.approx(
                bound_thm1_B(float(x_cell), float(r_cell)), rel=1e-15
            )

    def test_no_cell_is_formatted_on_its_own(self, capsys, monkeypatch):
        # Structural guard: the cells are written a run of rows per % call,
        # so _fmt formats only the x cell (a call per cell made ~19,600).
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
        rc, out, _ = run_cli(
            capsys,
            "table",
            "--bounds",
            "thm1_B,thm1_B2,cor1",
            "--x",
            "0.3",
            "--grid=0.02:0.35:5000",
        )
        assert (rc, len(out.splitlines())) == (0, 1 + 3 * 5000)
        assert len(calls) <= 1

    def test_missing_parameter_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--bounds", "thm1_B", "--grid", "0:0.3:3")
        assert rc == 2
        assert "--x" in err

    @pytest.mark.parametrize("grid", ["0.1:inf:3", "-inf:0.5:3", "0.1:nan:3"])
    def test_non_finite_grid_exits_2(self, capsys, grid):
        rc, out, err = run_cli(capsys, "table", "--bounds", "thm2", f"--grid={grid}")
        assert rc == 2
        assert err.startswith("usage error:")
        assert out == ""

    @pytest.mark.parametrize("x", ["inf", "nan", "1e6", "142", "2.5", "0", "-1"])
    def test_invalid_prop1_order_exits_2(self, capsys, x):
        rc, out, err = run_cli(
            capsys, "table", "--bounds", "basic,prop1", f"--x={x}", "--grid", "0:0.5:3"
        )
        assert rc == 2
        assert err.startswith("usage error:")
        assert out == ""

    def test_overflowing_prop1_order_echoes_the_value_given(self, capsys):
        rc, out, err = run_cli(
            capsys, "table", "--bounds", "prop1", "--x", "1e300", "--grid", "0:0.5:3"
        )
        assert rc == 2
        assert out == ""
        assert err == "usage error: prop1's constant overflows for n = 1e+300\n"

    @pytest.mark.parametrize("x", ["3", "3.0", "141"])
    def test_prop1_rows_for_integral_x(self, capsys, x):
        rc, out, _ = run_cli(
            capsys, "table", "--bounds", "prop1", f"--x={x}", "--grid", "0.05:0.9:20"
        )
        assert rc == 0
        n = int(float(x))
        for row in out.strip().splitlines()[1:]:
            _, x_cell, r_cell, val_cell = row.split(",")
            assert float(x_cell) == n
            try:
                expected = format(bound_prop1(n, float(r_cell)), ".17g")
            except ValueError:
                expected = "out_of_range"
            assert val_cell == expected

    @pytest.mark.parametrize("x", ["1e-300", "1e-78"])
    def test_cor1_at_tiny_a_tends_to_its_limit(self, capsys, x):
        # B_a(r) -> 27 r^4 / 8 as a -> 0, where scale * tail would divide by
        # a^4 = 0 (a = 1e-300) or overflow against an underflowing tail.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a NumPy RuntimeWarning fails too
            rc, out, err = run_cli(
                capsys, "table", "--bounds", "cor1", "--x", x, "--grid", "0.1:0.5:3"
            )
        assert (rc, err) == (0, "")
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            _, _, r_cell, val_cell = row.split(",")
            r = float(r_cell)
            assert math.isclose(float(val_cell), 27.0 * r**4 / 8.0, rel_tol=1e-12)

    def test_unknown_bound_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "table", "--bounds", "thm7", "--grid", "0:0.3:3")
        assert rc == 2
        assert "unknown bound" in err


def _scan_oracle(target, r_range):
    """``scan``'s rows and crossing line as the loop that the row arrays
    replaced, one ``_scan_row`` per radius and one ``format`` per cell:
    they must give the same bytes."""
    bound_id, _ = cli._SCAN_TARGETS[target]
    radii = np.linspace(*r_range)
    rs, grid = radii.tolist(), verify.ScanGrid()
    functional = verify._scan_functional(bound_id, *rs)
    peaks, args = cli._family_peak(functional, radii, grid)
    rows = [
        verify._scan_row(bound_id, *r) for r in zip(rs, peaks.tolist(), args.tolist())
    ]
    lines = ["r,max_lhs,rhs,slack,x_at_max"]
    for row in rows:
        cells = (row.params["r"], row.lhs, row.rhs, row.slack, row.params["x"])
        lines.append(",".join(format(float(v), ".17g") for v in cells))
    crossing = "none (no sign change on this range)"
    for i, row in enumerate(rows):
        if row.slack == 0.0 and row.rhs > 0.0:
            crossing = format(rs[i], ".17g")
            break
        if i + 1 < len(rows) and _straddles(row.slack, rows[i + 1].slack):
            root = verify.crossing_radius(bound_id, rs[i], rs[i + 1], grid, tol=1e-12)
            crossing = format(root.root, ".17g")
            break
    lines += [f"target = {target}", f"crossing_radius = {crossing}"]
    return "\n".join(lines) + "\n"


def _seeded_scan(seed, steps):
    """A target and a radius range around the crossings, from the seed."""
    rng = random.Random(f"scan:{seed}")
    target = rng.choice(list(cli._SCAN_TARGETS))
    return target, (rng.uniform(0.3, 0.39), rng.uniform(0.39, 0.45), steps)


class TestScanOracle:
    """Every scan the row arrays write equals the per-row oracle byte for
    byte, with and without a crossing and down to the least radius."""

    def check(self, capsys, target, r_range):
        argv = ["scan", "--target", target]
        argv.append("--grid={!r}:{!r}:{}".format(*r_range))
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, err) == (0, "")
        oracle = _scan_oracle(target, r_range)
        assert out.startswith(oracle)
        return oracle

    @pytest.mark.parametrize(
        "seed, steps", [(1, 2), (2, 2), (3, 26), (4, 26), (5, 101), (6, 1001)]
    )
    def test_seeded_grids(self, capsys, seed, steps):
        self.check(capsys, *_seeded_scan(seed, steps))

    def test_zero_slack_on_the_last_row(self, capsys, monkeypatch):
        def peaks(functional, radii, grid):
            rhs = verify.bounds._thm_rhs_raw("thm5", radii)
            lhs = rhs / 2.0
            lhs[-1] = rhs[-1]
            return lhs, np.full(radii.size, 0.1)

        monkeypatch.setattr(cli, "_family_peak", peaks)
        oracle = self.check(capsys, "thm5_sharpness", (0.37, 0.38, 26))
        assert "crossing_radius = 0.38\n" in oracle

    def test_range_with_no_crossing(self, capsys):
        oracle = self.check(capsys, "problem1", (0.37, 0.38, 26))
        assert "crossing_radius = none" in oracle

    @pytest.mark.parametrize("target", list(cli._SCAN_TARGETS))
    def test_grid_from_the_least_radius(self, capsys, target):
        self.check(capsys, target, (5e-324, 0.5, 26))

    def test_no_cell_is_formatted_on_its_own(self, capsys, monkeypatch):
        # Structural guard: the rows are one % call, so _fmt formats only the
        # crossing and reference radii (a call per cell made 5,005).
        calls = []
        fmt = cli._fmt
        monkeypatch.setattr(cli, "_fmt", lambda v: calls.append(v) or fmt(v))
        argv = ["scan", "--target", "thm5_sharpness", "--grid=0.37:0.39:1001"]
        rc, out, _ = run_cli(capsys, *argv)
        rows = sum(line.startswith("0.") for line in out.splitlines())
        assert (rc, rows) == (0, 1001)
        assert len(calls) <= 2


class TestScanCommand:
    def test_degenerate_two_point_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys, "scan", "--target", "thm5_sharpness", "--grid", "0.37:0.385:2"
        )
        assert rc == 0
        lines = out.strip().splitlines()
        header_index = lines.index("r,max_lhs,rhs,slack,x_at_max")
        data = [l for l in lines[header_index + 1 :] if "," in l and "=" not in l]
        assert len(data) == 2

    def test_problem1_conjecture_label(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            "scan",
            "--target",
            "problem1",
            "--grid",
            "0.39:0.40:5",
            "--out",
            str(tmp_path / "p1.csv"),
        )
        assert rc == 0
        assert "exploratory - open problem" in out
        assert "conjecture-consistent" in out
        crossing = float(
            [l for l in out.splitlines() if l.startswith("crossing_radius")][0].split(
                " = "
            )[1]
        )
        assert abs(crossing - 0.39466) <= 1e-3

    def test_thm5_sharpness_crossing_near_threshold(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            "scan",
            "--target",
            "thm5_sharpness",
            "--grid",
            "0.375:0.385:5",
            "--out",
            str(tmp_path / "s.csv"),
        )
        assert rc == 0
        crossing = float(
            [l for l in out.splitlines() if l.startswith("crossing_radius")][0].split(
                " = "
            )[1]
        )
        assert abs(crossing - R_THM5) <= 1e-4
        body = (tmp_path / "s.csv").read_text().splitlines()
        assert body[0] == "r,max_lhs,rhs,slack,x_at_max"

    @pytest.mark.parametrize(
        "target, bound_id, want",
        [
            ("thm5_sharpness", "thm5", 0.37951478851709908),
            ("problem1", "thm2", 0.39466631408549802),
            ("problem2", "thm2", 0.39466631408549802),
        ],
    )
    @pytest.mark.parametrize("grid", ["1e-300:0.5:3", "1e-100:0.5:2"])
    def test_underflow_is_no_crossing(self, capsys, target, bound_id, want, grid):
        # At 1e-300 the family peak and the bound both underflow to 0, a
        # slack of exactly 0 that is no crossing; at 1e-100 only the bound
        # does, and the row's nonzero slack brackets the crossing with 0.5.
        rc, out, _ = run_cli(capsys, "scan", "--target", target, "--grid", grid)
        assert rc == 0
        line = [l for l in out.splitlines() if l.startswith("crossing_radius")][0]
        crossing = float(line.split(" = ")[1])
        assert 0.25 < crossing < 0.5
        assert abs(crossing - want) <= 1e-9
        lo = 0.25 if grid.endswith(":3") else 1e-100
        ref = verify.crossing_radius(bound_id, lo, 0.5, verify.ScanGrid(), tol=1e-12)
        assert crossing == ref.root

    @pytest.mark.parametrize("at", [0, 2, 4])
    def test_exact_zero_slack_is_the_crossing_at_any_row(self, capsys, monkeypatch, at):
        # A row whose family peak meets the bound exactly is the crossing,
        # the grid's last row included, which has no next row to bracket.
        def peaks(functional, radii, grid):
            rhs = verify.bounds._thm_rhs_raw("thm5", radii)
            lhs = rhs / 2.0
            lhs[at] = rhs[at]
            return lhs, np.full(radii.size, 0.1)

        monkeypatch.setattr(cli, "_family_peak", peaks)
        rc, out, _ = run_cli(
            capsys, "scan", "--target", "thm5_sharpness", "--grid", "0.37:0.38:5"
        )
        assert rc == 0
        rows = [l.split(",") for l in out.splitlines() if l.startswith("0.")]
        assert [float(row[3]) == 0.0 for row in rows] == [i == at for i in range(5)]
        assert f"crossing_radius = {rows[at][0]}" in out.splitlines()

    @pytest.mark.parametrize("grid", ["0.5:1.5:3", "0.5:1:3", "0:0.4:3"])
    def test_radii_outside_unit_interval_exit_2(self, capsys, grid):
        rc, out, err = run_cli(
            capsys, "scan", "--target", "thm5_sharpness", "--grid", grid
        )
        assert rc == 2
        assert err.startswith("usage error:")
        assert out == ""

    def test_unknown_target_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "scan", "--target", "problem9")
        assert rc == 2
        assert "unknown scan target" in err


# The least truncation or step count rejected as too long for a complex128
# array, and one no C integer can hold.
_TOO_LONG = (str(np.iinfo(np.intp).max // 16), "99999999999999999999999")


def _no_array(*args, **kwargs):
    raise AssertionError("a size reached NumPy")


class TestSizes:
    """A size beyond NumPy's arrays is a usage error, and an allocation that
    fails is an error, never a traceback.  Nothing here allocates."""

    @pytest.mark.parametrize("size", _TOO_LONG)
    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--truncation", "{}"),
            ("verify", "--grid", "0.001:0.5:{}"),
            ("table", "--bounds", "basic", "--grid", "0:0.5:{}"),
            ("scan", "--target", "problem1", "--grid", "0.37:0.42:{}"),
        ],
    )
    def test_unrepresentable_size_exits_2(self, capsys, monkeypatch, argv, size):
        monkeypatch.setattr(cli, "run_suite", _no_array)
        monkeypatch.setattr(np, "linspace", _no_array)
        rc, out, err = run_cli(capsys, *(a.format(size) for a in argv))
        assert (rc, out) == (2, "")
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("size", _TOO_LONG)
    def test_scan_grid_rejects_unrepresentable_sizes(self, size):
        with pytest.raises(ValueError):
            verify.ScanGrid(truncation=int(size))
        with pytest.raises(ValueError):
            verify.ScanGrid(x_range=(0.001, 0.5, int(size)))

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB", ""])
    @pytest.mark.parametrize(
        "command, argv",
        [
            ("cmd_verify", ("verify", "--suite", "basic")),
            ("cmd_table", ("table", "--bounds", "basic")),
            ("cmd_scan", ("scan", "--target", "problem1")),
        ],
    )
    def test_memory_error_exits_1(self, capsys, monkeypatch, command, argv, message):
        def out_of_memory(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, command, out_of_memory)
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (1, "")
        assert err == f"error: {message or 'out of memory'}\n"


class TestClosedStdout:
    # ``blochsums scan ... | head -1``: the reader goes before the command
    # writes.  Unbuffered, the first print meets the closed pipe; buffered,
    # the flush does, and at exit it used to fail again (status 120).
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["root"],
            ["scan", "--target", "problem1"],
            ["table", "--bounds", "thm5", "--grid", "0.38:0.5:5"],
            ["verify", "--suite", "thm3", "--out", "<tmp>"],
        ],
        ids=["root", "scan", "table", "verify"],
    )
    def test_exit_1_and_no_traceback(self, tmp_path, argv, unbuffered):
        env = _child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [a.replace("<tmp>", str(tmp_path)) for a in argv]
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so before it writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blochsums", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr
