"""Benchmark of the blochsums CLI: three workloads, checked outputs, layer trace.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload certify|sweep|light --seed N \
        --seconds S --trace 0|1

The run repeats whole rounds of the workload's operations until S seconds
have passed.  Each round runs in a fresh interpreter (``child.py``), one
process at a time, so every timed ``verify`` starts with a cold thm1 cache
and ``peak_rss_mb`` is the peak of the interpreter that ran the round.  The
parent checks every output against mpmath references (``checks.py``); an
operation with a wrong output counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
medians over rounds of the end-to-end metrics (``--trace 0``) or of the
per-layer metrics (``--trace 1``).  Progress goes to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD_TIMEOUT_S = 170
# Import-only interpreters started after each round, so that setup_s is a
# median over several set-ups even when rounds are long.
SETUP_PROBES = 2

END_TO_END = {
    "setup_s": "s",
    "verify_cpu_s": "s",
    "scan_cpu_s": "s",
    "table_cpu_s": "s",
    "peak_rss_mb": "MB",
}


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def _setup_probe() -> float:
    """Seconds from starting a fresh interpreter to a finished ``import blochsums``."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--setup", repr(spawned)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout)


def _round_metrics(plan, result):
    ops = list(zip(plan, result["ops"]))

    def cpu(kind):
        return sum(r["cpu_s"] for op, r in ops if op["kind"] == kind)

    return {
        "verify_cpu_s": cpu("verify"),
        "scan_cpu_s": cpu("scan"),
        "table_cpu_s": cpu("table"),
        "peak_rss_mb": result["peak_rss_mb"],
        # Reported on standard error only: wall time moves with the host's
        # steal time (see README), so it is not a gated metric.
        "verify_wall_s": next(r["wall_s"] for op, r in ops if op["kind"] == "verify"),
    }


def _output_key(op, r) -> str:
    """Digest of everything an operation produced: status, stdout, reports."""
    digest = hashlib.sha256(f"{r['code']}\0{r['stdout']}".encode())
    if op["kind"] == "verify":
        for suite in op["suites"]:
            path = os.path.join(op["out"], f"{suite}.{op['format']}")
            if os.path.isfile(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _check_round(plan, result, trace: bool, memo):
    """(failed operations, problems that are not the named known fault).

    The checks are a pure function of an operation and its output, so an
    operation whose output is identical to one already checked in this run
    reuses that verdict.
    """
    failed, unexpected = 0, []
    for op, r in zip(plan, result["ops"]):
        key = (json.dumps(op, sort_keys=True), _output_key(op, r))
        if key not in memo:
            try:
                memo[key] = checks.check(op, r["code"], r["stdout"])
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                memo[key] = [f"unreadable output: {exc!r}"]
        problems = list(memo[key])
        if r["code"] is None:
            problems.append("uncaught exception: " + r["stderr"].strip().splitlines()[-1])
        if trace and op["kind"] == "verify" and {"thm1_B", "thm1_B2"} & set(op["suites"]):
            calls = r["thm1_calls"]
            if calls < 3:
                problems.append(f"verify_thm1 ran {calls} times; the thm1 cache was warm")
        if problems:
            failed += 1
            if not op.get("known_fault"):
                unexpected += [f"{' '.join(op['argv'][:3])}: {p}" for p in problems[:5]]
    if trace:
        for root in result["crossing_roots"]:
            unexpected += checks.check_crossing(root)
    return failed, unexpected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "blochsums", "__init__.py")):
        print(f"error: no blochsums source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    plan_path = os.path.join(run_dir, "plan.json")
    result_path = os.path.join(run_dir, "result.json")
    trace = bool(args.trace)

    rounds, setups, attempted, failed, unexpected, memo = [], [], 0, 0, [], {}
    started = time.monotonic()
    try:
        while True:
            round_dir = os.path.join(run_dir, "round")
            shutil.rmtree(round_dir, ignore_errors=True)
            os.makedirs(round_dir)
            plan = workloads.plan(args.workload, args.seed, round_dir)
            with open(plan_path, "w", encoding="utf-8") as fh:
                json.dump(plan, fh)
            cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path]
            spawned = time.monotonic()
            proc = subprocess.run(
                cmd + [repr(spawned), str(args.trace), str(args.seed)],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"error: round exited with status {proc.returncode}", file=sys.stderr)
                return 1
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            round_failed, round_unexpected = _check_round(plan, result, trace, memo)
            attempted += len(plan)
            failed += round_failed
            unexpected += round_unexpected
            rounds.append(result["layers"] if trace else _round_metrics(plan, result))
            if not trace:
                setups.append(result["setup_s"])
                setups += [_setup_probe() for _ in range(SETUP_PROBES)]
            if trace:
                detail = f"{result['spans']} spans"
            else:
                detail = f"verify {rounds[-1]['verify_wall_s']:.3f} s wall, {rounds[-1]['verify_cpu_s']:.3f} s CPU"
            print(f"round {len(rounds)}: {len(plan)} ops, {round_failed} failed, {detail}", file=sys.stderr)
            if time.monotonic() - started >= args.seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(OUT)
        except OSError:
            pass

    for problem in unexpected[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    metrics = {}
    for name, unit in ((n, _unit(n)) for n in rounds[0]) if trace else END_TO_END.items():
        values = setups if name == "setup_s" else [r[name] for r in rounds]
        # median_low keeps a count an integer.
        median = statistics.median_low if unit == "count" else statistics.median
        metrics[name] = {"value": median(values), "unit": unit}
    print(
        json.dumps(
            {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
