"""OpenBLAS threads: ``import blochsums`` pins OpenBLAS to one thread, so no
idle worker spins on the CPU, a user's own ``OPENBLAS_NUM_THREADS`` wins, and
the reports are the same bytes under two threads.

Each case runs in a fresh interpreter, because OpenBLAS reads the variable
once, when NumPy loads it, and this interpreter loaded it long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import blochsums

TESTS = Path(__file__).parent

_ROOT_CPU = """
import contextlib, io, json, os, time
import blochsums, blochsums.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = blochsums.cli.main(["root"])
print(json.dumps({
    "status": status,
    "off_main_cpu_s": time.process_time() - time.thread_time(),
    "threads": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""

_GOLDEN_CASE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_golden import _golden, moved_files, run_case
print(json.dumps(moved_files(_golden("verify_t48_json"), run_case("verify_t48_json"))))
"""


def _run(code: str, threads, *args: str):
    """Run ``code`` in a fresh interpreter that imports the package this test
    imported, with OPENBLAS_NUM_THREADS set to ``threads`` (unset for None),
    and return the JSON it prints."""
    # pytest's ``pythonpath`` setting reaches only this interpreter, and this
    # interpreter's environment already holds the variable the import set.
    src = os.path.dirname(os.path.dirname(blochsums.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_cpu_off_the_main_thread():
    # An idle OpenBLAS worker busy-waits for ~60-70 ms of CPU after NumPy
    # loads; with one thread there is no worker.
    got = _run(_ROOT_CPU, None)
    assert got["off_main_cpu_s"] < 0.02, got
    assert got["threads"] == "1"
    assert got["status"] == 0


def test_a_users_thread_count_wins():
    got = _run(_ROOT_CPU, "2")
    assert got["status"] == 0
    assert got["threads"] == "2"


def test_reports_do_not_depend_on_the_blas_thread_count():
    # Tier-1 runs with one BLAS thread; this keeps two threads covered.
    assert _run(_GOLDEN_CASE, "2", str(TESTS)) == []
