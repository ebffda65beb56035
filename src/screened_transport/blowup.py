"""Collapse diagnostics: the weighted blow-up functional, its Riccati rate,
the predicted blow-up time, and structural checks of the collapse scenario.

The central object is

    I(t) = int_{|x| < L} (rho(x,t) - rho(0,t)) / |x|^{n + delta} dx,

which satisfies dI/dt >= c I^2 along solutions with radial nondecreasing
data, with an explicit rate c; I(0) > 0 then forces I to diverge no later
than 1 / (c I(0)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma as _gamma

from .fields import Params, RadialProfile, ScalarField, pchip
from .kernels import bilinear_constant, graded_rule, screening_weight

__all__ = [
    "BlowupConfig",
    "DiagnosticsSeries",
    "blowup_functional",
    "riccati_rate",
    "predict_blowup_time",
    "riccati_check",
    "structural_checks",
    "sphere_area",
    "checks_to_json",
]


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n."""
    return float(2.0 * np.pi ** (0.5 * n) / _gamma(0.5 * n))


@dataclass(frozen=True)
class BlowupConfig:
    """delta in (0, 1), support radius L, and the model parameters."""

    delta: float
    support_radius: float
    params: Params

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.support_radius > 0:
            raise ValueError("support radius must be positive")


class DiagnosticsSeries:
    """Time-indexed diagnostic records with strictly increasing times."""

    def __init__(self, columns):
        self.times: list = []
        self.columns: dict = {name: [] for name in columns}

    def append(self, time: float, **values) -> None:
        if self.times and time <= self.times[-1]:
            raise ValueError(f"times must be strictly increasing ({time} after {self.times[-1]})")
        missing = set(self.columns) - set(values)
        extra = set(values) - set(self.columns)
        if missing or extra:
            raise KeyError(f"missing={sorted(missing)} extra={sorted(extra)}")
        self.times.append(float(time))
        for k, v in values.items():
            self.columns[k].append(float(v))

    def __len__(self):
        return len(self.times)

    @property
    def t(self) -> np.ndarray:
        return np.asarray(self.times)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.columns[name])

    def _write(self, path, sep: str, header_prefix: str) -> None:
        with open(path, "w") as fh:
            fh.write(header_prefix + sep.join(["t"] + list(self.columns)) + "\n")
            for i, t in enumerate(self.times):
                row = [f"{t:.17g}"] + [f"{self.columns[c][i]:.17g}" for c in self.columns]
                fh.write(sep.join(row) + "\n")

    def to_csv(self, path) -> None:
        self._write(path, ",", "")

    def to_dat(self, path) -> None:
        """gnuplot-compatible whitespace columns with a commented header."""
        self._write(path, " ", "# ")


# ---------------------------------------------------------------------------
# the weighted functional
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _unsplit_rule(upper: float):
    """Nodes and weights of `graded_rule(upper, ())`, read-only: a 2-D run
    integrates on the same rule at every diagnostics record."""
    r, wt, _ = graded_rule(upper, ())
    r.setflags(write=False)
    wt.setflags(write=False)
    return r, wt


def blowup_functional(rho, cfg: BlowupConfig) -> float:
    """I = int_{B_L} (rho - rho(0)) / |x|^{n+delta} dx.

    Radial profiles use their own interpolant; scalar fields are reduced to
    the exact identity I = omega_{n-1} int_0^L (angular mean - rho(0))
    r^{-1-delta} dr with the angular mean taken over equal-radius lattice
    classes.  Both integrate by the certifier's graded rule (`graded_rule`):
    uniform panels, split at a radial profile's breakpoints (a scalar field
    passes none, so its rule is built once per support radius), with a
    power-mapped panel at the weight's integrable singularity at the origin
    and on each side of every breakpoint.  A profile's rho - rho(0) is its
    `rise`, free of cancellation at the origin; a field's angular means are
    interpolated by `pchip` in r^2.
    """
    if isinstance(rho, RadialProfile):
        rise = rho.rise
        r, wt, _ = graded_rule(cfg.support_radius, rho.breakpoints)
    elif isinstance(rho, ScalarField):
        radii, means = rho.grid.radial_average(rho.values)
        sel = radii <= cfg.support_radius + 2.0 * rho.grid.spacing
        # interpolate in r^2: smooth fields are smooth functions of r^2, so
        # the innermost segment (which the weight emphasizes) stays accurate
        pch = pchip(radii[sel] ** 2, means[sel])
        origin = float(rho.values[rho.grid.origin_index])

        def rise(r):
            return pch(r * r) - origin

        r, wt = _unsplit_rule(cfg.support_radius)
    else:
        raise TypeError(f"expected RadialProfile or ScalarField, got {type(rho)!r}")
    vals = np.asarray(rise(r), dtype=float) * r ** (-1.0 - cfg.delta)
    # not np.dot: above about 8,000 nodes (a 512-marker profile has 18,000)
    # OpenBLAS would start its threads for it
    return sphere_area(cfg.params.n) * float(np.sum(wt * vals))


def riccati_rate(cfg: BlowupConfig) -> float:
    """The rate c in dI/dt >= c I^2:

        c = g (1 - delta) C_{n,delta} w_a(L) / (omega_{n-1} L^{1-delta}),

    positive for every valid configuration and increasing in a.
    """
    p = cfg.params
    c_bilinear = bilinear_constant(p.n, cfg.delta)
    w = float(screening_weight(np.asarray(cfg.support_radius), p))
    return (p.g * (1.0 - cfg.delta) * c_bilinear * w
            / (sphere_area(p.n) * cfg.support_radius ** (1.0 - cfg.delta)))


def predict_blowup_time(I0: float, rate: float) -> float:
    """Upper bound 1 / (rate * I0) on the blow-up time of the comparison ODE."""
    if not I0 > 0:
        raise ValueError(f"I(0) must be positive, got {I0}")
    if not rate > 0:
        raise ValueError(f"rate must be positive, got {rate}")
    return 1.0 / (rate * I0)


def riccati_check(series: DiagnosticsSeries, cfg: BlowupConfig,
                  window_end: float | None = None) -> dict:
    """Compare centered differences of I(t) (the `i_delta` column) against the
    Riccati lower bound.

    slack_i = dI/dt(t_i) - c I(t_i)^2 at interior samples; the check passes
    when min slack >= -tol with tol supplied by the caller (the report also
    carries the informational slack against a doubled rate).
    """
    if len(series) < 3:
        raise ValueError("need at least 3 samples")
    t = series.t
    I = series.column("i_delta")
    if window_end is not None:
        keep = t <= window_end
        t, I = t[keep], I[keep]
    if len(t) < 3:
        raise ValueError("window contains fewer than 3 samples")
    c = riccati_rate(cfg)
    dI = (I[2:] - I[:-2]) / (t[2:] - t[:-2])
    mid = I[1:-1]
    slack = dI - c * mid ** 2
    slack2 = dI - 2.0 * c * mid ** 2
    worst = int(np.argmin(slack))
    return {
        "rate": c,
        "min_slack": float(slack.min()),
        "min_slack_doubled_rate": float(slack2.min()),
        "max_dI_dt": float(np.abs(dI).max()),
        "worst_time": float(t[1 + worst]),
        "samples": int(len(slack)),
    }


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def structural_checks(snapshots, rho0: ScalarField, cfg: BlowupConfig,
                      window_end: float | None = None,
                      origin_tol: float = 1e-6,
                      support_tol: float = 1e-8,
                      angular_tol: float = 1e-8,
                      monotone_tol: float = 1e-6) -> list:
    """Boolean reports for origin invariance, support containment, lattice
    angular symmetry, and radial monotonicity over a window of snapshots.

    `snapshots` is an iterable of (time, ScalarField); `window_end`
    restricts the checks to times <= window_end.  Violations are absolute
    for the origin value, mass fractions for the support, worst orbit spread
    for the angular check, and worst drop of the radially averaged profile
    relative to the data range for monotonicity.
    """
    g = rho0.grid
    o = g.origin_index
    origin0 = float(rho0.values[o])
    rng = float(np.ptp(rho0.values)) + 1e-300
    out_mask = g.radius >= cfg.support_radius
    total0 = float(np.abs(rho0.values).sum())
    worst = {"origin": (0.0, 0.0), "support": (0.0, 0.0),
             "angular": (0.0, 0.0), "monotone": (0.0, 0.0)}
    for t, snap in snapshots:
        if window_end is not None and t > window_end:
            continue
        v = snap.values
        d_origin = abs(float(v[o]) - origin0)
        if d_origin > worst["origin"][0]:
            worst["origin"] = (d_origin, t)
        frac = float(np.abs(v[out_mask]).sum() / max(np.abs(v).sum(), 1e-300 * total0))
        if frac > worst["support"][0]:
            worst["support"] = (frac, t)
        spread = g.orbit_spread(v)
        if spread > worst["angular"][0]:
            worst["angular"] = (spread, t)
        _, means = g.radial_average(v)
        viol = -float(np.diff(means).min(initial=0.0)) / rng
        if viol > worst["monotone"][0]:
            worst["monotone"] = (viol, t)
    tols = {"origin": origin_tol, "support": support_tol,
            "angular": angular_tol, "monotone": monotone_tol}
    names = {"origin": "origin_invariance", "support": "support_containment",
             "angular": "angular_symmetry", "monotone": "radial_monotonicity"}
    return [
        {
            "check": names[k],
            "pass": bool(worst[k][0] <= tols[k]),
            "worst_violation": worst[k][0],
            "location": {"time": worst[k][1]},
            "tolerance": tols[k],
        }
        for k in ("origin", "support", "angular", "monotone")
    ]


def checks_to_json(checks, path) -> None:
    with open(path, "w") as fh:
        json.dump(checks, fh, indent=2)
