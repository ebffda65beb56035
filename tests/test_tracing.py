import json
import os
import subprocess
import sys

import screened_transport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_finds_every_target():
    # bench/tracing.py wraps functions by the name each module imports them
    # under (ndsolver.sfft, ndsolver.step_rk4, radial.radial_velocity, ...);
    # a renamed or deleted target silently drops its metrics from a traced
    # benchmark run.  A fresh interpreter keeps the wrappers out of this one.
    src = os.path.dirname(os.path.dirname(os.path.abspath(screened_transport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.path.join(ROOT, "bench"), os.environ.get("PYTHONPATH")) if p))
    code = ("import json, tracing; tr = tracing.install(); "
            "print(json.dumps([tr.missing, sorted(tracing.per_layer(tr)[0])]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    missing, metrics = json.loads(out.stdout.strip().splitlines()[-1])
    assert missing == []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        assert metrics == sorted(m["name"] for m in json.load(fh)["per_layer"])
