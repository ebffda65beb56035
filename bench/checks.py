"""Correctness checks on one workload's artifacts.

Each check compares the program's output against `reference.py` (computed
apart from the program) or against a property the method must have.  A
check returns (name, passed, detail); the caller fails the run loudly if any
did not pass.  Tolerances are set from measurements on the current code,
quoted next to each.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import traceback

import numpy as np
from scipy.interpolate import PchipInterpolator

import reference as ref


class _Checks:
    def __init__(self):
        self.results = []
        self.info = {}

    def expect(self, name, ok, detail=""):
        self.results.append((name, bool(ok), str(detail)))


def _ini(text):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    return cp


def _series(outdir):
    return np.genfromtxt(os.path.join(outdir, "series.csv"), delimiter=",", names=True)


def _check_manifest(c, outdir):
    with open(os.path.join(outdir, "manifest.json")) as fh:
        manifest = json.load(fh)
    bad = []
    for entry in manifest["outputs"]:
        with open(os.path.join(outdir, entry["path"]), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                bad.append(entry["path"])
    c.expect("manifest_hashes", not bad and manifest["outputs"],
             f"{len(manifest['outputs'])} files, mismatched {bad}")
    return manifest


def _collapse_2d(c, outdir, cp, seed, exit_code, expected_exit):
    from screened_transport import Params, load_field, screened_riesz

    n, a, g = cp.getint("params", "n"), cp.getfloat("params", "a"), cp.getfloat("params", "g")
    L = cp.getfloat("initial_data", "support_radius")
    depth, sharp = cp.getfloat("initial_data", "depth"), cp.getfloat("initial_data", "sharpness")
    delta = cp.getfloat("blowup", "delta")
    factor = cp.getfloat("stop", "gradient_factor")
    manifest = _check_manifest(c, outdir)
    c.expect("exit_code", exit_code == expected_exit, f"{exit_code} (expected {expected_exit})")
    s = _series(outdir)
    growth = s["sup_grad"][-1] / s["sup_grad"][0]
    c.expect("gradient_stop", manifest["stop_reason"] == "gradient_threshold" and growth >= factor,
             f"{manifest['stop_reason']}, growth {growth:.2f}x >= {factor}x")

    # lattice symmetry: flips about the origin index and the diagonal swap
    # (measured worst 3.7e-10 over all 28 snapshots at N = 256)
    worst = 0.0
    snaps = sorted(e["path"] for e in manifest["outputs"] if e["path"].endswith(".field"))
    for name in snaps:
        field, _ = load_field(os.path.join(outdir, name))
        v = field.values
        i0 = field.grid.origin_index[0]
        flip = (2 * i0 - np.arange(v.shape[0])) % v.shape[0]
        worst = max(worst, np.abs(v - v[flip, :]).max(), np.abs(v - v[:, flip]).max(),
                    np.abs(v - v.T).max())
    c.expect("angular_symmetry", worst <= 1e-8, f"worst {worst:.2e} over {len(snaps)} snapshots")

    # Riccati inequality dI/dt >= c I^2 on [0, T3], T3 the first time the
    # gradient triples; c from its closed form, I(0) by quadrature of the datum
    rate = ref.riccati_rate(n, a, g, delta, L)
    t, I, sg = s["t"], s["i_delta"], s["sup_grad"]
    tripled = np.flatnonzero(sg >= 3.0 * sg[0])
    c.expect("gradient_triples", tripled.size > 0, "")
    if tripled.size:
        keep = t <= t[tripled[0]]
        tw, Iw = t[keep], I[keep]
        slack = (Iw[2:] - Iw[:-2]) / (tw[2:] - tw[:-2]) - rate * Iw[1:-1] ** 2
        c.expect("riccati", slack.size >= 3 and slack.min() >= 0.0,
                 f"min slack {slack.min():.3e} over {slack.size} samples, rate {rate:.6e}")
    I0 = ref.weighted_functional(lambda r: ref.bump(r, L, depth, sharp)[0], n, delta, L)
    # grid I(0) against quadrature of the datum: measured 5e-7 at N = 256
    c.expect("initial_functional", abs(I[0] - I0) <= 1e-3 * I0, f"{I[0]:.10g} vs {I0:.10g}")
    bound = 1.0 / (rate * I0)
    observed = manifest["observed_threshold_time"]
    c.expect("blowup_bound", observed is not None and observed <= bound,
             f"threshold time {observed} <= bound {bound:.1f}")

    # spectral velocity of the initial field against the free-space
    # reference: the gap is the periodic images of the kernel, measured at
    # most 3.5e-4 inside the support at N = 256
    field, _ = load_field(os.path.join(outdir, snaps[0]))
    grid = field.grid
    u = screened_riesz(field, Params(n, a, g))
    tol = 1e-3
    rng = np.random.default_rng(seed)
    worst, points = 0.0, 0
    while points < 4:
        i, j = rng.integers(0, grid.N, 2)
        x, y = grid.axis_coords[i], grid.axis_coords[j]
        r = math.hypot(x, y)
        if not 0.1 < r < L:
            continue
        ur = ref.radial_velocity(lambda s: ref.bump(s, L, depth, sharp)[1], L, n, a, r)
        err = math.hypot(u.components[0][i, j] - ur * x / r, u.components[1][i, j] - ur * y / r)
        worst, points = max(worst, err), points + 1
    c.expect("initial_velocity", worst <= tol, f"worst |du| {worst:.2e} <= {tol:g} at 4 points")
    c.info["velocity_gap"] = worst


def _radial_collapse(c, outdir, cp, seed, exit_code, expected_exit):
    from screened_transport import Params, radial_velocity
    from screened_transport.fields import RadialProfile

    n, a, g = cp.getint("params", "n"), cp.getfloat("params", "a"), cp.getfloat("params", "g")
    L = cp.getfloat("initial_data", "support_radius")
    depth, sharp = cp.getfloat("initial_data", "depth"), cp.getfloat("initial_data", "sharpness")
    manifest = _check_manifest(c, outdir)
    c.expect("exit_code", exit_code == expected_exit, f"{exit_code} (expected {expected_exit})")
    profiles = [np.genfromtxt(os.path.join(outdir, e["path"]), delimiter=",", names=True)
                for e in sorted(manifest["outputs"], key=lambda e: e["path"])
                if e["path"].startswith("profile_")]
    first, last = profiles[0], profiles[-1]
    c.expect("snapshots", len(profiles) >= 2, f"{len(profiles)} profiles")
    c.expect("values_unchanged", all(np.array_equal(p["value"], first["value"]) for p in profiles),
             "marker values bit for bit")
    datum = ref.bump(first["r"], L, depth, sharp)[0]
    c.expect("values_are_datum", np.allclose(first["value"], datum, rtol=1e-14, atol=0.0), "")
    s = _series(outdir)
    c.expect("origin_unchanged", np.all(s["origin_value"] == first["value"][0]),
             f"origin {first['value'][0]!r}")
    c.expect("positions_increasing", all(np.all(np.diff(p["r"]) > 0.0) for p in profiles), "")
    c.expect("markers_inward", np.all(last["r"] <= first["r"]), "final <= initial position")
    c.expect("support_nonincreasing", np.all(np.diff(s["support_radius"]) <= 0.0), "")
    c.expect("functional_nondecreasing", np.all(np.diff(s["i_delta"]) >= 0.0),
             f"min increment {np.diff(s['i_delta']).min():.3e}")

    # initial marker velocities: the program on the marker profile against the
    # reference on the same monotone-cubic interpolant; measured worst
    # relative gap 4.9e-6 over all 31 markers
    r0, v0 = first["r"], first["value"]
    prog = radial_velocity(RadialProfile(r0, v0), Params(n, a, g), r0)
    c.expect("velocity_inward", prog[0] == 0.0 and np.all(prog <= 0.0), f"max {prog.max():.3e}")
    deriv = PchipInterpolator(r0, v0).derivative()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in rng.choice(np.arange(1, len(r0)), size=min(4, len(r0) - 1), replace=False):
        u = ref.radial_velocity(lambda x: float(deriv(x)) if x < r0[-1] else 0.0,
                                r0[-1], n, a, r0[i], breakpoints=r0)
        worst = max(worst, abs(prog[i] - u) / abs(u))
    c.expect("initial_velocity", worst <= 1e-4, f"worst relative gap {worst:.2e} <= 1e-4")
    c.info["velocity_gap"] = worst


def _cert_sweep(c, outdir, cp, seed, exit_code, expected_exit):
    from screened_transport import Params, radial_velocity
    from screened_transport.inequalities import shipped_families

    n, g = cp.getint("params", "n"), cp.getfloat("params", "g")
    a_values = [float(x) for x in cp.get("sweep", "a_values").split()]
    deltas = cp.get("sweep", "delta_values").split()
    seeds = tuple(int(x) for x in cp.get("sweep", "spline_seeds").split())
    manifest = _check_manifest(c, outdir)
    c.expect("exit_code", exit_code == expected_exit, f"{exit_code} (expected {expected_exit})")
    c.expect("manifest_pass", manifest["pointwise_pass"] and manifest["bilinear_pass"], "")
    with open(os.path.join(outdir, "certificate_bilinear.json")) as fh:
        bil = json.load(fh)
    with open(os.path.join(outdir, "certificate_pointwise.json")) as fh:
        pw = json.load(fh)
    fams = shipped_families(spline_seeds=seeds)
    cells = len(fams) * len(a_values) * len(deltas)
    c.expect("bilinear_certificate", bil["samples"] == cells and bil["min_ratio"] >= 1.0 - 1e-6,
             f"{bil['samples']} cells, min ratio {bil['min_ratio']:.4g}")
    c.expect("pointwise_certificate", pw["min_slack"] >= -1e-8,
             f"{pw['samples']} radii, min slack {pw['min_slack']:.3e}")

    # One seeded (a, r) per family.  The bump families are smooth and agree
    # to ~1e-13 (gated at 1e-10).  On families whose f' has kinks the
    # program's panels ignore the kinks and its refinement ladder stops
    # unconverged; that gap (up to 5e-2 on some splines) is recorded only.
    rng = np.random.default_rng(seed)
    worst_smooth, worst_other = 0.0, 0.0
    for fam in fams:
        f = fam.sample()
        a = float(rng.choice(a_values))
        r = float(np.exp(rng.uniform(np.log(0.02), np.log(20.0))))
        prog = radial_velocity(f, Params(n, a, g), r)
        u = ref.radial_velocity(lambda x: float(f.derivative(np.asarray([x]))[0]),
                                f.support_radius, n, a, r, breakpoints=f.breakpoints)
        gap = abs(prog - u) / abs(u)
        if fam.kind == "bump":
            worst_smooth = max(worst_smooth, gap)
        else:
            worst_other = max(worst_other, gap)
    c.expect("velocity_reference", worst_smooth <= 1e-10,
             f"bump families worst relative gap {worst_smooth:.2e} <= 1e-10")
    c.info["velocity_gap"] = worst_smooth
    c.info["velocity_gap_nonsmooth_families"] = worst_other


_BY_NAME = {"collapse_2d": _collapse_2d, "radial_collapse": _radial_collapse,
            "cert_sweep": _cert_sweep}


def run_checks(name, outdir, config_text, seed, exit_code, expected_exit):
    """Returns (results, info): results is a list of (check, passed, detail)."""
    c = _Checks()
    try:
        _BY_NAME[name](c, outdir, _ini(config_text), seed, exit_code, expected_exit)
    except Exception:  # a check that cannot run is a failed check, not a crash
        c.expect("checks_ran", False, traceback.format_exc(limit=3))
    return c.results, c.info
