"""Experiment orchestration: dispatch a validated config, write artifacts.

Every run produces a manifest (config echo, code version, wall time, output
files with content hashes) plus mode-specific CSV / gnuplot / JSON / binary
outputs.  Exit codes map the stop reason so sweep drivers can branch on
blow-up vs clean completion.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .blowup import (BlowupConfig, checks_to_json, predict_blowup_time,
                     riccati_check, riccati_rate, structural_checks)
from .config import ExperimentConfig
from .fields import Params, bump_profile, make_grid, profile_to_csv, sample_radial, save_field
from .inequalities import certify_bilinear, certify_pointwise, report_to_json, shipped_families
from .ndsolver import run_nd
from .radial import run_radial
from .rk4 import Stop
from .transform import limit_report, limit_report_to_csv

__all__ = ["run", "EXIT_CODES", "OUTPUT_ROOT_ENV"]

OUTPUT_ROOT_ENV = "SCREENED_TRANSPORT_OUTPUT_ROOT"

EXIT_CODES = {
    "clean": 0,
    "config_error": 2,
    "certificate_failed": 14,
    Stop.TIME_LIMIT: 0,
    Stop.GRADIENT_THRESHOLD: 10,
    Stop.DT_UNDERFLOW: 11,
    Stop.MARKERS_COLLIDED: 12,
    Stop.NONFINITE: 13,
}


def _outdir(cfg: ExperimentConfig) -> str:
    root = os.environ.get(OUTPUT_ROOT_ENV, ".")
    path = os.path.join(root, cfg["experiment.output_dir"])
    os.makedirs(path, exist_ok=True)
    return path


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir, cfg, extra, files, wall):
    manifest = {
        "mode": cfg.mode,
        "config": cfg.as_dict(),
        "code_version": __version__,
        "wall_time_s": wall,
        "outputs": [{"path": os.path.basename(f), "sha256": _sha256(f)} for f in sorted(files)],
    }
    manifest.update(extra)
    path = os.path.join(outdir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return path


def _initial_profile(cfg):
    sect = cfg.section("initial_data")
    return bump_profile(sect["support_radius"], sect["depth"], sect["sharpness"])


def _write_series(series, outdir):
    csv, dat = os.path.join(outdir, "series.csv"), os.path.join(outdir, "series.dat")
    series.to_csv(csv)
    series.to_dat(dat)
    return [csv, dat]


def _run_nd_mode(cfg: ExperimentConfig, outdir: str):
    params = Params(cfg["params.n"], cfg["params.a"], cfg["params.g"])
    grid = make_grid(params.n, cfg["grid.half_width"], cfg["grid.points_per_dim"])
    profile = _initial_profile(cfg)
    rho0 = sample_radial(profile, grid)
    result = run_nd(
        rho0, params,
        t_max=cfg["stop.t_max"],
        gradient_factor=cfg["stop.gradient_factor"],
        delta=cfg["blowup.delta"],
        support_radius=profile.support_radius,
        output_interval=cfg["output.interval"],
        snapshot_interval=cfg["output.snapshot_interval"],
    )
    files = _write_series(result.series, outdir)
    for i, (t, snap) in enumerate(result.snapshots):
        p = os.path.join(outdir, f"snapshot_{i:04d}.field")
        save_field(p, snap, time=t)
        files.append(p)
    bcfg = BlowupConfig(cfg["blowup.delta"], profile.support_radius, params)
    I0 = result.series.column("i_delta")[0]
    rate = riccati_rate(bcfg)
    extra = {
        "stop_reason": result.stop_reason.value,
        "predicted_blowup_bound": predict_blowup_time(I0, rate) if I0 > 0 else None,
        "observed_threshold_time": result.threshold_time,
        "riccati_rate": rate,
        "i_delta_initial": float(I0),
    }
    sg = result.series.column("sup_grad")
    t3 = result.series.t[np.argmax(sg >= 3.0 * sg[0])] if np.any(sg >= 3.0 * sg[0]) else None
    if t3 is not None and len(result.series) >= 3:
        extra["riccati_check"] = riccati_check(result.series, bcfg, window_end=t3)
        checks = structural_checks(result.snapshots, rho0, bcfg, window_end=t3)
        checks_json = os.path.join(outdir, "structural_checks.json")
        checks_to_json(checks, checks_json)
        files.append(checks_json)
    return result.stop_reason, files, extra


def _run_radial_mode(cfg: ExperimentConfig, outdir: str):
    params = Params(cfg["params.n"], cfg["params.a"], cfg["params.g"])
    profile = _initial_profile(cfg)
    result = run_radial(
        profile, params,
        t_max=cfg["stop.t_max"],
        gradient_factor=cfg["stop.gradient_factor"],
        markers=cfg["markers.count"],
        output_interval=cfg["output.interval"],
        delta=cfg["blowup.delta"],
    )
    files = _write_series(result.series, outdir)
    for i, (t, prof) in enumerate(result.snapshots):
        p = os.path.join(outdir, f"profile_{i:04d}.csv")
        profile_to_csv(p, prof)
        files.append(p)
    extra = {"stop_reason": result.stop_reason.value,
             "final_time": result.series.times[-1]}
    return result.stop_reason, files, extra


def _sweep_radii(a: float, support: float, per_decade: int) -> np.ndarray:
    lo = max(a / 31.6, 1e-3 * support)
    hi = max(31.6 * a, 2.0 * support)
    count = max(8, int(np.ceil(per_decade * np.log10(hi / lo))))
    return np.geomspace(lo, hi, count)


def _sweep_report(cells, key, path):
    """The worst report of the (family, report) cells by `key`, naming its
    family and counting every cell's samples; written to `path`."""
    fam, worst = min(cells, key=lambda cell: key(cell[1]))
    worst = replace(worst, samples=sum(r.samples for _, r in cells),
                    worst_case={**worst.worst_case, "family": asdict(fam)})
    report_to_json(worst, path)
    return worst


def _run_sweep_mode(cfg: ExperimentConfig, outdir: str):
    n = cfg["params.n"]
    g = cfg["params.g"]
    a_values = cfg["sweep.a_values"]
    fams = shipped_families(spline_seeds=tuple(cfg["sweep.spline_seeds"]))
    for fam in fams:
        fam.validate()
    profiles = [(fam, fam.sample()) for fam in fams]

    p_path = os.path.join(outdir, "certificate_pointwise.json")
    agg_p = _sweep_report(
        [(fam, certify_pointwise(f, Params(n, a, g),
                                 _sweep_radii(a, f.support_radius, cfg["sweep.radii_per_decade"])))
         for fam, f in profiles for a in a_values],
        lambda r: r.min_slack, p_path)

    # one velocity per (profile, a) serves every delta, in (profile, a, delta) order
    b_path = os.path.join(outdir, "certificate_bilinear.json")
    agg_b = _sweep_report(
        [(fam, rep) for fam, f in profiles for a in a_values
         for rep in certify_bilinear(f, Params(n, a, g), cfg["sweep.delta_values"])],
        lambda r: r.min_ratio, b_path)
    ok = agg_p.passed and agg_b.passed
    return ("clean" if ok else "certificate_failed"), [p_path, b_path], {
        "pointwise_pass": agg_p.passed, "bilinear_pass": agg_b.passed}


def _run_limit_mode(cfg: ExperimentConfig, outdir: str):
    params_n = cfg["params.n"]
    grid = make_grid(params_n, cfg["grid.half_width"], cfg["grid.points_per_dim"])
    profile = _initial_profile(cfg)
    f = sample_radial(profile, grid)
    rep = limit_report(f, cfg["sweep.a_values"])
    path = os.path.join(outdir, "limit_report.csv")
    limit_report_to_csv(rep, path)
    return "clean", [path], {
        "riesz_gap_monotone_decreasing": bool(np.all(np.diff(rep.riesz_gap) <= 1e-15)),
        "zero_gap_monotone_increasing": bool(np.all(np.diff(rep.zero_gap) >= -1e-15)),
    }


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    outdir = _outdir(cfg)
    t0 = time.time()
    if cfg.mode == "nd_run":
        stop, files, extra = _run_nd_mode(cfg, outdir)
    elif cfg.mode == "radial_run":
        stop, files, extra = _run_radial_mode(cfg, outdir)
    elif cfg.mode == "inequality_sweep":
        stop, files, extra = _run_sweep_mode(cfg, outdir)
    elif cfg.mode == "limit_report":
        stop, files, extra = _run_limit_mode(cfg, outdir)
    else:  # pragma: no cover - parse_config rejects unknown modes
        raise ValueError(cfg.mode)
    manifest = _write_manifest(outdir, cfg, extra, files, time.time() - t0)
    extra_code = EXIT_CODES[stop]
    print(f"wrote {manifest} (exit {extra_code})")
    return extra_code
