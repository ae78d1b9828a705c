"""One round of a workload in a fresh interpreter.

Usage: child.py PLAN RESULT SPAWNED TRACE SEED
       child.py --setup SPAWNED

PLAN is the JSON list of operations, RESULT the JSON file this writes,
SPAWNED the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes), TRACE 0 or 1.
With ``--setup`` it only imports the package and prints the set-up time.

The interpreter has run no suite before the round's ``verify``, so the
program's thm1 result cache is cold.  Each operation calls
``blochsums.cli.main`` with its arguments and is timed around that call;
its standard output and exit status go back to the parent for checking.
With TRACE 1 the layer functions are wrapped for the round, and isolated
seeded calls of ``make_subordinate`` and ``crossing_radius`` are timed
afterwards with the wrappers removed.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import blochsums  # noqa: E402  (the import is what setup_s measures)

IMPORTED = time.monotonic()

import blochsums.cli  # noqa: E402


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def _isolated_calls(seed: int):
    """Seeded calls timed one by one: composition at n=256 and n=64 with a
    3-factor Blaschke map, and the thm5 crossing-radius bisection."""
    import cmath
    import random

    from blochsums.families import g_prime_coeffs
    from blochsums.verify import ScanGrid, SchwarzSpec, crossing_radius, make_subordinate

    rng = random.Random(f"isolated:{seed}")
    x = rng.uniform(0.1, 0.4)
    spec = SchwarzSpec(
        "blaschke_product",
        tuple(cmath.rect(0.9 * rng.random() ** 0.5, 6.283185307179586 * rng.random()) for _ in range(3)),
    )
    out = {}
    for n, reps in ((256, 9), (64, 41)):
        base = g_prime_coeffs(x, n)
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            make_subordinate(base, spec, n)
            times.append(time.perf_counter() - t0)
        out[f"verify.make_subordinate.n{n}_ms"] = 1e3 * _median(times)
    lo, hi = rng.uniform(0.37, 0.378), rng.uniform(0.381, 0.39)
    times, roots = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        roots.append(crossing_radius("thm5", lo, hi, ScanGrid()).root)
        times.append(time.perf_counter() - t0)
    out["verify.crossing_radius_ms"] = 1e3 * _median(times)
    return out, roots


def main() -> None:
    if not os.path.abspath(blochsums.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        sys.exit(f"blochsums was not imported from {ROOT}/src")
    if sys.argv[1] == "--setup":
        print(repr(IMPORTED - float(sys.argv[2])))
        return
    plan_path, result_path, spawned, trace, seed = sys.argv[1:6]
    setup_s = IMPORTED - float(spawned)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if trace == "1":
        from tracing import Tracer, layer_metrics
        from workloads import ALL_SUITES

        tracer = Tracer()
        tracer.install()
    ops = []
    for op in plan:
        thm1_before = tracer.calls("verify.verify_thm1") if tracer else 0
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                code = blochsums.cli.main(op["argv"])
            except Exception:  # an uncaught error is a failed operation
                code = None
                traceback.print_exc(file=err)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        ops.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": wall, "cpu_s": cpu})
        if tracer:
            ops[-1]["thm1_calls"] = tracer.calls("verify.verify_thm1") - thm1_before
    result = {
        "setup_s": setup_s,
        "ops": ops,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, ALL_SUITES)
        result["spans"] = tracer.spans()
        isolated, roots = _isolated_calls(int(seed))
        result["layers"].update(isolated)
        result["crossing_roots"] = roots
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
