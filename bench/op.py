"""One benchmark operation in a fresh interpreter.

    python3 bench/op.py <workload> <seed> <setup|run|trace> <toy 0|1>

Started by `run.py`, which puts the checkout's `src` first on PYTHONPATH and
passes its `time.monotonic()` at spawn in BENCH_SPAWNED.  `setup_s` runs from
then to the start of `runner.run`: interpreter start, package import and
config parsing.  `setup` stops there; `run` also times `runner.run`, reads
the peak resident memory, and checks the artifacts; `trace` does the same
with the per-layer wrappers installed.  The last line of stdout is JSON.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _os_threads():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def main():
    name, seed, mode, toy = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4] == "1"
    from workloads import EXPECTED_EXIT, config_text

    import screened_transport
    from screened_transport import runner
    from screened_transport.config import parse_config

    text = config_text(name, seed, toy)
    cfg = parse_config(text)
    setup_s = time.monotonic() - float(os.environ["BENCH_SPAWNED"])
    src = os.environ["BENCH_SRC"]
    if not os.path.abspath(screened_transport.__file__).startswith(src + os.sep):
        raise SystemExit(f"screened_transport imported from {screened_transport.__file__}, "
                         f"not from {src}")
    out = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(out))
        return

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.install()
    t0 = time.perf_counter()
    code = runner.run(cfg)
    out["wall_s"] = time.perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["os_threads"] = _os_threads()
    out["exit_code"] = code
    outdir = os.path.join(os.environ[runner.OUTPUT_ROOT_ENV], cfg["experiment.output_dir"])
    if tracer is not None:
        out["per_layer"], out["missing"] = tracing.per_layer(tracer)
        tracer.dump(os.path.join(outdir, "spans.json"))

    from checks import run_checks
    out["checks"], out["info"] = run_checks(name, outdir, text, seed, code,
                                            EXPECTED_EXIT[(name, toy)])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
