"""Per-layer tracing from outside the program.

`install()` replaces public functions under the name each importing module
uses (`radial.radial_velocity`, `transform.psi`, `ndsolver.step_rk4`, ...)
with wrappers that record one span per call: name, start, end and the index
of the enclosing span.  Spans stay in memory until `Tracer.dump`.  Self time
is a span's duration minus the durations of its direct children.  The FFT
calls `ndsolver` makes go through a proxy of its `sfft` module that only
counts calls, points and time, without spans (35 per step today).

Single-threaded runs only: the span stack is not per thread.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
              "fftn", "ifftn", "rfftn", "irfftn")


def _size_of(index):
    return lambda args: int(np.size(args[index]))


def _psi_points(args):
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[2])).size)


def _written_bytes(index):
    return lambda args: os.path.getsize(args[index])


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent]
        self.amount = {}       # name -> summed measure (targets, points, bytes)
        self.missing = []
        self._stack = []
        self.fft = {"calls": 0, "points": 0, "s": 0.0}

    def wrap(self, module, attr, name, measure=None):
        target = getattr(module, attr, None)
        if target is None:
            self.missing.append(name)
            return
        spans, stack, amount = self.spans, self._stack, self.amount
        amount.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = target(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if measure is not None:
                amount[name] += measure(args)
            return result

        setattr(module, attr, wrapper)

    def wrap_fft(self, module):
        real = getattr(module, "sfft", None)
        if real is None:
            self.missing.append("fft")
            return
        fft = self.fft

        class _Proxy:
            def __getattr__(self, attr):
                fn = getattr(real, attr)
                if attr not in _FFT_NAMES:
                    return fn

                def counted(x, *args, **kwargs):
                    t0 = time.perf_counter()
                    out = fn(x, *args, **kwargs)
                    fft["s"] += time.perf_counter() - t0
                    fft["calls"] += 1
                    fft["points"] += int(np.size(x))
                    return out
                return counted

        module.sfft = _Proxy()

    # -- reductions ---------------------------------------------------------

    def count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def total(self, *names):
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n in names)

    def self_time(self, *names):
        child = np.zeros(len(self.spans))
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return sum(t1 - t0 - child[i] for i, (n, t0, t1, _) in enumerate(self.spans)
                   if n in names)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "fft": self.fft, "missing": self.missing}, fh)


_DIAG = ("max_gradient", "sobolev_norm", "blowup_functional")
_IO = ("save_field", "profile_to_csv", "series_to_csv", "series_to_dat",
       "checks_to_json", "report_to_json", "write_manifest")


def install():
    """Wrap every traced layer of the imported package; returns the tracer."""
    from screened_transport import blowup, inequalities, ndsolver, radial, runner, transform

    tr = Tracer()
    tr.wrap(runner, "run_nd", "run_nd")
    tr.wrap(ndsolver, "step_rk4", "step_rk4")
    tr.wrap_fft(ndsolver)
    for fn in _DIAG:
        tr.wrap(ndsolver, fn, fn)
    tr.wrap(radial, "blowup_functional", "blowup_functional")
    tr.wrap(radial, "step", "radial_step")
    tr.wrap(radial, "radial_rhs", "radial_rhs")
    tr.wrap(radial, "radial_velocity", "radial_velocity", _size_of(2))
    tr.wrap(inequalities, "radial_velocity", "radial_velocity", _size_of(2))
    tr.wrap(transform, "psi", "psi", _psi_points)
    tr.wrap(runner, "certify_bilinear", "certify_bilinear")
    tr.wrap(runner, "certify_pointwise", "certify_pointwise")
    tr.wrap(runner, "save_field", "save_field", _written_bytes(0))
    tr.wrap(runner, "profile_to_csv", "profile_to_csv", _written_bytes(0))
    tr.wrap(blowup.DiagnosticsSeries, "to_csv", "series_to_csv", _written_bytes(1))
    tr.wrap(blowup.DiagnosticsSeries, "to_dat", "series_to_dat", _written_bytes(1))
    tr.wrap(runner, "checks_to_json", "checks_to_json", _written_bytes(1))
    tr.wrap(runner, "report_to_json", "report_to_json", _written_bytes(1))
    # manifest writing includes hashing every output; it is private, so a
    # rename shows up as missing.  Its bytes are not counted: the manifest
    # echoes the seed and the wall time, so its size changes between runs.
    tr.wrap(runner, "_write_manifest", "write_manifest")
    return tr


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def per_layer(tr):
    """The per-layer metrics, named as in BENCHMARK.json, and the names of
    those left out because a wrapper's target is gone.  A ratio whose base is
    zero (a layer the workload never reaches) reads 0."""
    steps = tr.count("step_rk4")
    targets = tr.amount.get("radial_velocity", 0)
    points = tr.amount.get("psi", 0)
    psi_s = tr.total("psi")
    rv_s = tr.total("radial_velocity")
    io = _IO
    cert = ("certify_bilinear", "certify_pointwise")
    table = {
        "ndsolver.steps": (steps, ("step_rk4",)),
        "ndsolver.step_rk4_s": (tr.total("step_rk4"), ("step_rk4",)),
        "ndsolver.run_nd_self_s": (tr.self_time("run_nd"), ("run_nd", "step_rk4") + _DIAG),
        "ndsolver.fft_calls": (tr.fft["calls"], ("fft",)),
        "ndsolver.fft_points": (tr.fft["points"], ("fft",)),
        "ndsolver.fft_s": (tr.fft["s"], ("fft",)),
        "ndsolver.fft_per_step": (_ratio(tr.fft["calls"], steps), ("fft", "step_rk4")),
        "diagnostics.records": (tr.count("blowup_functional"), ("blowup_functional",)),
        "diagnostics.s": (tr.total(*_DIAG), _DIAG),
        "runner.io_files": (sum(tr.count(n) for n in io), io),
        "runner.io_bytes": (sum(tr.amount.get(n, 0) for n in io), io),
        "runner.io_s": (tr.total(*io), io),
        "radial.steps": (tr.count("radial_step"), ("radial_step",)),
        "radial.step_s": (tr.total("radial_step"), ("radial_step",)),
        "radial.rhs_calls": (tr.count("radial_rhs"), ("radial_rhs",)),
        "radial.rhs_s": (tr.total("radial_rhs"), ("radial_rhs",)),
        "transform.radial_velocity_calls": (tr.count("radial_velocity"), ("radial_velocity",)),
        "transform.radial_velocity_targets": (targets, ("radial_velocity",)),
        "transform.radial_velocity_s": (rv_s, ("radial_velocity",)),
        "transform.radial_velocity_us_per_target": (_ratio(rv_s, targets, 1e6),
                                                    ("radial_velocity",)),
        "kernels.psi_calls": (tr.count("psi"), ("psi",)),
        "kernels.psi_points": (points, ("psi",)),
        "kernels.psi_s": (psi_s, ("psi",)),
        "kernels.psi_points_per_target": (_ratio(points, targets), ("psi", "radial_velocity")),
        "kernels.psi_ns_per_point": (_ratio(psi_s, points, 1e9), ("psi",)),
        "inequalities.bilinear_cells": (tr.count("certify_bilinear"), ("certify_bilinear",)),
        "inequalities.bilinear_s": (tr.total("certify_bilinear"), ("certify_bilinear",)),
        "inequalities.pointwise_cells": (tr.count("certify_pointwise"), ("certify_pointwise",)),
        "inequalities.pointwise_s": (tr.total("certify_pointwise"), ("certify_pointwise",)),
        "inequalities.self_s": (tr.self_time(*cert), cert + ("radial_velocity",)),
    }
    gone = set(tr.missing)
    metrics = {k: v for k, (v, src) in table.items() if not gone.intersection(src)}
    return metrics, sorted(set(table) - set(metrics))
