"""Benchmark of screened-transport end to end, with a traced per-layer run.

    python3 bench/run.py --workload collapse_2d --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, in turn
    python3 bench/run.py --toy                     # harness self-test, ~1 minute

Run from the root of a checkout.  Every operation is one call of
`screened_transport.runner.run` in a fresh interpreter (`op.py`) that
imports the package from this checkout's `src`, one at a time.  A run first
starts one interpreter to compile bytecode, then (untraced runs) times
SETUP_PROBES more set-ups, then runs whole rounds of operations until the
next round would end after `--seconds` (at least one round).  An untraced
round is one operation; a traced round is one untraced and one traced
operation, so that the tracing overhead is measured in the same run.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json (end-to-end with --trace 0, per-layer
with --trace 1).  A failed check prints the object with correct false and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
ARTIFACTS = os.path.join(BENCH, "artifacts")
SETUP_PROBES = 5
# BLAS and OpenMP pools are held to one thread: the workloads make no
# threaded BLAS calls, and idle pool threads only add noise on a shared
# machine.  scipy.fft runs single-threaded unless asked for workers.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170


class OpFailed(Exception):
    pass


def _spawn(name, seed, mode, toy):
    env = dict(os.environ, SCREENED_TRANSPORT_OUTPUT_ROOT=ARTIFACTS, BENCH_SRC=SRC, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(BENCH, "op.py"), name, str(seed), mode, str(int(toy))]
    env["BENCH_SPAWNED"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise OpFailed(f"{mode} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise OpFailed(f"{mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(name, seed, seconds, trace, toy, probes):
    """Runs one workload; returns (summary, metrics, problems)."""
    shutil.rmtree(os.path.join(ARTIFACTS, name), ignore_errors=True)
    start = time.monotonic()
    try:
        _spawn(name, seed, "setup", toy)
    except OpFailed as exc:
        raise SystemExit(f"{name}: the package does not set up: {exc}")
    setups = [] if trace else [_spawn(name, seed, "setup", toy)["setup_s"] for _ in range(probes)]
    rounds = ["run", "trace"] if trace else ["run"]
    ops, failed, problems = [], [], []
    while True:
        t0 = time.monotonic()
        for mode in rounds:
            try:
                ops.append((mode, _spawn(name, seed, mode, toy)))
            except OpFailed as exc:
                failed.append(str(exc))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break

    nproc = len(os.sched_getaffinity(0))
    for mode, op in ops:
        problems += [f"{mode}: check {c} failed: {detail}" for c, ok, detail in op["checks"] if not ok]
        if op["os_threads"] > nproc:
            problems.append(f"{mode}: {op['os_threads']} threads on {nproc} cpus")
    plain = [op for mode, op in ops if mode == "run"]
    traced = [op for mode, op in ops if mode == "trace"]
    summary = {
        "workload": name, "seed": seed, "toy": toy,
        "attempted": len(ops) + len(failed), "failed": len(failed), "failures": failed,
        "setup_samples": len(setups) + len(plain), "nproc": nproc, "thread_env": THREAD_ENV,
        "os_threads": sorted({op["os_threads"] for _, op in ops}),
        "checks": ops[0][1]["checks"] if ops else [],
        "info": ops[0][1]["info"] if ops else {},
    }
    if not plain:
        return summary, {}, problems + ["no operation completed"]
    if not trace:
        setups += [op["setup_s"] for op in plain]
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median([op["wall_s"] for op in plain]),
                   "peak_rss_mb": statistics.median([op["peak_rss_mb"] for op in plain])}
        return summary, metrics, problems
    if not traced:
        return summary, {}, problems + ["no traced operation completed"]
    metrics = {}
    for key, value in traced[0]["per_layer"].items():
        values = [op["per_layer"][key] for op in traced]
        if isinstance(value, int) and len(set(values)) > 1:
            problems.append(f"count {key} differs between traced operations: {values}")
        metrics[key] = statistics.median(values)
    summary["missing"] = traced[0]["missing"]
    summary["traced_wall_s"] = statistics.median([op["wall_s"] for op in traced])
    summary["untraced_wall_s"] = statistics.median([op["wall_s"] for op in plain])
    summary["tracing_overhead_s"] = summary["traced_wall_s"] - summary["untraced_wall_s"]
    return summary, metrics, problems


def _units(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(spec, summary, metrics, problems, trace):
    """Prints the human-readable lines and returns the result object."""
    units = _units(spec, trace)
    unexpected = set(metrics) - set(units)
    absent = set(units) - set(metrics) - set(summary.get("missing", []))
    if metrics and (unexpected or absent):
        problems.append(f"metrics differ from BENCHMARK.json: extra {sorted(unexpected)}, "
                        f"absent {sorted(absent)}")
    print(f"workload {summary['workload']} seed {summary['seed']}"
          f"{' (toy)' if summary['toy'] else ''}: {summary['attempted']} operations attempted, "
          f"{summary['failed']} failed, {summary['setup_samples']} set-up samples")
    print(f"threads: {summary['thread_env']}, OS threads per operation "
          f"{summary['os_threads']}, nproc {summary['nproc']}")
    for check, ok, detail in summary["checks"]:
        print(f"check {check}: {'ok' if ok else 'FAILED'} {detail}")
    for key, value in summary["info"].items():
        print(f"info {key} = {value:.3e}")
    for failure in summary["failures"]:
        print(f"FAILED OPERATION: {failure}")
    if trace:
        print(f"traced wall_s {summary.get('traced_wall_s', 0):.4f} s, untraced "
              f"{summary.get('untraced_wall_s', 0):.4f} s, tracing overhead "
              f"{summary.get('tracing_overhead_s', 0):.4f} s")
        if summary.get("missing"):
            print(f"MISSING (wrapper target gone): {', '.join(summary['missing'])}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units.get(key, '?')}")
    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="tiny configs, one traced round per workload: tests the harness")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "screened_transport", "__init__.py")):
        print(f"error: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, BENCH)
    from workloads import NAMES

    names = NAMES if args.workload == "all" or args.toy else (args.workload,)
    if any(n not in NAMES for n in names):
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(NAMES)} or all)")
    seconds = 0.0 if args.toy else (args.seconds if args.seconds is not None
                                    else spec["run_seconds"])
    traces = (0, 1) if args.toy else (args.trace,)
    probes = 1 if args.toy else SETUP_PROBES
    results = []
    for name in names:
        for trace in traces:
            summary, metrics, problems = measure(name, args.seed, seconds, trace, args.toy, probes)
            result = report(spec, summary, metrics, problems, trace)
            results.append((name, result))
            if len(names) > 1 or len(traces) > 1:
                print(json.dumps(result))
    if len(results) == 1:
        result = results[0][1]
    else:
        result = {"correct": all(r["correct"] for _, r in results),
                  "attempted": sum(r["attempted"] for _, r in results),
                  "failed": sum(r["failed"] for _, r in results),
                  "metrics": {f"{name}.{k}": v for name, r in results
                              for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
