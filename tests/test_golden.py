"""Byte identity: the outputs of ``verify``, ``scan``, ``root`` and ``table``
equal the golden files committed under ``tests/golden/``.

Each case runs the CLI in process, writes its reports or CSV into a fresh
directory and captures stdout and the exit status.  On a mismatch the test
names every moved row, its column and the value before and after.  The bytes
depend on NumPy's ``convolve`` and on the C library's ``pow``/``log``, and
the composed samples' bytes on the OpenBLAS kernel and NumPy's SIMD level,
so the Python and NumPy versions and the kernels that made the files are
stored beside them, and a failure names both sides'.

A change that moves bytes on purpose regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

which first prints every moved row of every case to stderr, in the format
of the test's failure message; that list and the ``git diff`` of
``tests/golden/`` are then the change's row-level record.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import io
import json
import math
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from blochsums.bounds import R_THM5
from blochsums.cli import main

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = GOLDEN / "versions.json"
OUT = "<out>"  # stands for the case's output directory in argv and stdout


def _thm5_radii(count: int = 40) -> str:
    """``count`` radii spread evenly over [R, 0.38] at six decimals."""
    lo, hi = math.ceil(R_THM5 * 1e6), 380000
    return ",".join(
        repr((lo + k * (hi - lo) // (count - 1)) / 1e6) for k in range(count)
    )


# case name -> argv; every bound of ``table`` appears in one of the two
# tables (prop1's --x is an order n, the family bounds' a parameter).
CASES: Dict[str, List[str]] = {
    "verify_default": ["verify", "--out", OUT],
    "verify_t48_json": [
        "verify", "--out", OUT, "--truncation", "48", "--format", "json"
    ],
    "verify_t8_seed7": [
        "verify", "--out", OUT, "--truncation", "8", "--seed", "7"
    ],
    "verify_t384_seed3": [
        "verify", "--out", OUT, "--truncation", "384", "--seed", "3",
        "--suite", "prop1,thm1_B,thm1_B2,cor1",
    ],
    "verify_thm5_radii": [
        "verify", "--out", OUT, "--suite", "thm2,thm3,cor2,thm5",
        "--r-values", _thm5_radii(),
    ],
    "scan_problem1": ["scan", "--target", "problem1", "--out", f"{OUT}/scan.csv"],
    "scan_problem2": ["scan", "--target", "problem2", "--out", f"{OUT}/scan.csv"],
    "scan_thm5_sharpness": [
        "scan", "--target", "thm5_sharpness", "--out", f"{OUT}/scan.csv"
    ],
    "scan_problem1_101": [
        "scan", "--target", "problem1", "--grid", "0.37:0.42:101",
        "--out", f"{OUT}/scan.csv",
    ],
    "root": ["root"],
    "table_closed_forms": [
        "table", "--bounds", "basic,prop1,thm2,thm3,cor2,thm5",
        "--grid", "0.011:0.6:400", "--out", f"{OUT}/table.csv",
    ],
    "table_family": [
        "table", "--bounds", "thm1_B,thm1_B2,cor1", "--x", "0.3",
        "--grid", "0.011:0.75:400", "--out", f"{OUT}/table.csv",
    ],
}


def _openblas_core() -> str:
    """The core OpenBLAS picked for this CPU, from the OpenBLAS that NumPy
    bundles, or "unknown" where that library or its symbol is missing."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _versions() -> Dict[str, str]:
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_core": _openblas_core(),
        "numpy_simd": " ".join(simd),
    }


def run_case(name: str) -> Dict[str, str]:
    """File name -> text of one case's outputs: what it writes, its stdout
    (with the output directory as ``<out>``) and its exit status."""
    out = tempfile.mkdtemp(prefix=f"golden-{name}-")
    try:
        argv = [a.replace(OUT, out) for a in CASES[name]]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main(argv)
        files = {p.name: p.read_bytes().decode() for p in Path(out).iterdir()}
    finally:
        shutil.rmtree(out)
    files["stdout.txt"] = stdout.getvalue().replace(out, OUT)
    files["exit_status.txt"] = f"{status}\n"
    return files


def _records(name: str, text: str):
    """Rows of a report, scan or table as dicts, or None for plain text."""
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        return list(csv.DictReader(io.StringIO(text)))
    return None


def _key(record: Dict[str, str]) -> str:
    """A row's identity: its instance id, or the columns that place it."""
    if "instance_id" in record:
        return record["instance_id"]
    return ",".join(f"{c}={record[c]}" for c in ("bound_id", "x", "r") if c in record)


def moved_rows(name: str, before: str, after: str) -> List[str]:
    """One line per moved row and column (or text line) of file ``name``."""
    old, new = _records(name, before), _records(name, after)
    if old is None or new is None:
        a, b = before.splitlines(), after.splitlines()
        lines = [
            f"{name} line {i + 1}: {x!r} -> {y!r}"
            for i, (x, y) in enumerate(zip(a, b))
            if x != y
        ]
        if len(a) != len(b):
            lines.append(f"{name}: {len(a)} lines -> {len(b)}")
        return lines
    old_rows = {_key(r): r for r in old}
    new_rows = {_key(r): r for r in new}
    lines = []
    for key, row in old_rows.items():
        if key not in new_rows:
            lines.append(f"{name} row {key}: gone")
            continue
        for col, value in row.items():
            if new_rows[key].get(col) != value:
                lines.append(
                    f"{name} row {key}: {col} {value!r} -> {new_rows[key].get(col)!r}"
                )
    lines += [f"{name} row {key}: new" for key in new_rows if key not in old_rows]
    if not lines:  # same rows and cells: the order or the layout moved
        lines.append(f"{name}: same rows, other bytes (row order or layout)")
    return lines


def _golden(case: str) -> Dict[str, str]:
    """File name -> text of one case's golden files (none for a new case)."""
    folder = GOLDEN / case
    if not folder.exists():
        return {}
    return {p.name: p.read_bytes().decode() for p in folder.iterdir()}


def moved_files(golden: Dict[str, str], got: Dict[str, str]) -> List[str]:
    """One line per missing or extra file and per moved row and column."""
    moved = [f"{name}: missing" for name in sorted(set(golden) - set(got))]
    extra = sorted(set(got) - set(golden))
    moved += [f"{name}: not in the golden files" for name in extra]
    for name in sorted(set(golden) & set(got)):
        if got[name] != golden[name]:
            moved += moved_rows(name, golden[name], got[name])
    return moved


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_equal_the_golden_files(case):
    moved = moved_files(_golden(case), run_case(case))
    if moved:
        made = json.loads(VERSIONS.read_text(encoding="utf-8"))
        note = f"\ngolden files made under {made}; this run: {_versions()}"
        pytest.fail(f"{case}: {len(moved)} moved\n" + "\n".join(moved) + note)


def test_golden_reports_have_unique_instance_ids():
    reports = 0
    for path in sorted(GOLDEN.glob("*/*")):
        records = _records(path.name, path.read_text(encoding="utf-8")) or []
        ids = [r["instance_id"] for r in records if "instance_id" in r]
        if ids:
            reports += 1
            assert len(ids) == len(set(ids)), path
    assert reports > 0


def test_versions_file_names_python_and_numpy():
    made = json.loads(VERSIONS.read_text(encoding="utf-8"))
    assert set(made) == {"python", "numpy", "openblas_core", "numpy_simd"}


def regenerate() -> None:
    """Rewrite ``tests/golden/`` from the code on the path, after printing
    each case's moved rows to stderr."""
    outputs = {case: run_case(case) for case in sorted(CASES)}
    for case, files in outputs.items():
        golden = _golden(case)
        for line in moved_files(golden, files) if golden else ["new case"]:
            print(f"{case}: {line}", file=sys.stderr)
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for case, files in outputs.items():
        folder = GOLDEN / case
        folder.mkdir(parents=True)
        for name, text in files.items():
            (folder / name).write_bytes(text.encode())
    VERSIONS.write_text(json.dumps(_versions(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
    print(f"wrote {GOLDEN}", file=sys.stderr)
