"""Numerical certification of the transform's lower bounds on radial
nondecreasing test functions.

Two inequalities are certified on sampled function classes:

* pointwise: -u_r(r) is bounded below by an explicit weighted average of
  the profile over [0, r];
* bilinear: the weighted pairing of the velocity with the profile gradient
  dominates an explicit constant times a weighted square integral.

Certification sweeps record the worst slack / ratio over families, never a
proof; family membership (radial, nondecreasing, integrable bounded
derivative, C^1 on [0, R) and Lipschitz across the support edge R) is
enforced at construction, and every family is a `RadialProfile`.  Mirrored
statements for nonincreasing profiles follow by the sign flip f -> -f, which
negates both sides; the sweep covers them through that symmetry rather than
separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicHermiteSpline, PPoly

from .fields import Params, RadialProfile, bump_profile
from .kernels import bilinear_constant, gauss_panels, graded_rule, screening_weight
from .transform import radial_velocity
from .blowup import sphere_area

__all__ = [
    "TestFunctionFamily",
    "CertificateReport",
    "certify_pointwise",
    "certify_bilinear",
    "young_split",
    "weighted_profile_integral",
    "report_to_json",
]


# ---------------------------------------------------------------------------
# test function families
# ---------------------------------------------------------------------------

def _smoothed_step(height, center, width) -> RadialProfile:
    """Nondecreasing C^2 ramp from -height to 0 across [center - width,
    center + width] (quintic smoothstep), constant elsewhere."""
    h, r0, w = float(height), float(center), float(width)
    if r0 - w <= 0:
        raise ValueError("step must start at positive radius")
    # -h + h (10 t^3 - 15 t^4 + 6 t^5), t = (r - r0 + w) / 2w, in powers of r - r0 + w
    c = [[0.0, 6.0 * h / (2.0 * w) ** 5], [0.0, -15.0 * h / (2.0 * w) ** 4],
         [0.0, 10.0 * h / (2.0 * w) ** 3], [0.0, 0.0], [0.0, 0.0], [-h, -h]]
    return RadialProfile.from_poly(PPoly(c, [0.0, r0 - w, r0 + w]))


def _smoothed_ramp(height, start, stop, corner) -> RadialProfile:
    """Piecewise-linear ramp from -height at `start` to 0 at `stop`, both
    corners smoothed by a quadratic over +-`corner` (C^1)."""
    h, a, b, c = float(height), float(start), float(stop), float(corner)
    if not 0 < a - c:
        raise ValueError("corner overruns the origin")
    if not a + c < b - c:
        raise ValueError("corners overlap")
    s = h / (b - a)
    # cubic Hermite data of the quadratic corners and the linear middle
    return RadialProfile.from_poly(CubicHermiteSpline(
        [0.0, a - c, a + c, b - c, b + c], [-h, -h, s * c - h, -s * c, 0.0], [0.0, 0.0, s, s, 0.0]))


def _monotone_spline(seed, depth=1.0, radius=1.5, knots=9) -> RadialProfile:
    """Random nondecreasing monotone cubic spline from -depth to 0, constant
    beyond its last knot R: C^1 on [0, R) and Lipschitz across R, where its
    end slope is in general not 0."""
    rng = np.random.default_rng(seed)
    r = np.concatenate([[0.0], np.sort(rng.uniform(0.05, radius, knots)), [radius + 0.1]])
    incr = rng.uniform(0.05, 1.0, len(r) - 1)
    return RadialProfile(r, -depth + depth * np.concatenate([[0.0], np.cumsum(incr) / incr.sum()]))


@dataclass(frozen=True)
class TestFunctionFamily:
    """Generator of radial nondecreasing `RadialProfile`s with integrable
    bounded derivative, C^1 on [0, R) and Lipschitz across the support edge R
    (the spline's slope jumps to 0 there; the other families stay C^1).

    kind: 'bump', 'smoothed_step', 'piecewise_linear_smoothed', or
    'random_monotone_spline'; `parameters` are family specific, and `seed`
    only matters for the random family.
    """

    kind: str
    parameters: tuple = ()
    seed: int = 0

    _KINDS = ("bump", "smoothed_step", "piecewise_linear_smoothed", "random_monotone_spline")
    __test__ = False  # a library class whose name pytest would collect

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown family {self.kind!r}")

    def sample(self):
        if self.kind == "bump":
            L, depth, sharp = self.parameters or (1.0, 1.0, 2.0)
            return bump_profile(L, depth, sharp)
        if self.kind == "smoothed_step":
            return _smoothed_step(*(self.parameters or (1.0, 0.7, 0.25)))
        if self.kind == "piecewise_linear_smoothed":
            return _smoothed_ramp(*(self.parameters or (1.0, 0.3, 1.0, 0.1)))
        return _monotone_spline(self.seed, *(self.parameters or ()))

    def validate(self) -> None:
        """Enforce the class invariants on a dense sample."""
        f = self.sample()
        r = np.linspace(0.0, 1.2 * f.support_radius, 2001)
        d = f.derivative(r)
        if np.any(d < -1e-10 * (np.abs(d).max() + 1e-300)):
            raise AssertionError(f"{self.kind}: derivative goes negative")
        if not np.isfinite(d).all():
            raise AssertionError(f"{self.kind}: derivative not finite")
        v = f.value(r)
        if np.any(np.diff(v) < -1e-9 * (np.ptp(v) + 1e-300)):
            raise AssertionError(f"{self.kind}: values not nondecreasing")


def shipped_families(spline_seeds=(0, 1)) -> list:
    """The default certification set: one of each deterministic family plus
    seeded monotone splines.  Every family names its parameters, so the
    `family` a sweep certificate records rebuilds its worst profile."""
    fams = [
        TestFunctionFamily("bump", (1.0, 1.0, 2.0)),
        TestFunctionFamily("bump", (1.5, 0.7, 4.0)),
        TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)),
        TestFunctionFamily("piecewise_linear_smoothed", (1.0, 0.3, 1.0, 0.1)),
    ]
    fams.extend(TestFunctionFamily("random_monotone_spline", (1.0, 1.5, 9), seed=s)
                for s in spline_seeds)
    return fams


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    """Worst-case summary of a certification sweep; passes iff
    min_slack >= -tolerance (equivalently min_ratio above its bound)."""

    inequality: str
    samples: int
    min_slack: float
    min_ratio: float
    worst_case: dict = field(default_factory=dict)
    tolerance: float = 0.0

    @property
    def passed(self) -> bool:
        return self.min_slack >= -self.tolerance

    def as_dict(self) -> dict:
        return {
            "inequality": self.inequality,
            "samples": self.samples,
            "min_slack": self.min_slack,
            "min_ratio": self.min_ratio,
            "worst_case": self.worst_case,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def report_to_json(report: CertificateReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.as_dict(), fh, indent=2)


# ---------------------------------------------------------------------------
# quadrature helpers
# ---------------------------------------------------------------------------

def weighted_profile_integral(f, r, n: int):
    """int_0^r (f(r) - f(rho)) rho^{n-1} d(rho) at every radius r >= 0 (a
    float for a scalar r), as (1/n) int_0^{min(r, R)} f'(rho) rho^n d(rho) by
    parts (R the support radius), free of the cancellation in f(r) - f(rho):
    the graded rule on [0, R] with the radii inside among its breakpoints,
    summed node by node and read off at each radius."""
    r = np.asarray(r, dtype=float)
    R = f.support_radius
    rho, w, _ = graded_rule(R, np.union1d(f.breakpoints, r))
    total = np.concatenate([[0.0], np.cumsum(w * f.derivative(rho) * rho ** n) / n])
    out = total[np.searchsorted(rho, np.clip(r, 0.0, R))]
    return float(out) if out.ndim == 0 else out


def pointwise_lower_bound(f, params: Params, r):
    """The explicit lower bound for -u_r(r) at every radius r > 0:

        n B(1/2, (n+1)/2) / (2^{n+1} pi) * w_a(r) / r^n
            * int_0^r (f(r) - f(rho)) rho^{n-1} d(rho).
    """
    from scipy.special import beta
    n = params.n
    pref = n * beta(0.5, 0.5 * (n + 1)) / (2.0 ** (n + 1) * np.pi)
    r = np.asarray(r, dtype=float)
    return pref * screening_weight(r, params) / r ** n * weighted_profile_integral(f, r, n)


# ---------------------------------------------------------------------------
# certifications
# ---------------------------------------------------------------------------

def certify_pointwise(f, params: Params, radii, tolerance: float = 1e-8) -> CertificateReport:
    """Check -u_r(r) >= pointwise_lower_bound at a nonempty set of positive
    radii (ValueError otherwise).

    Slack is normalized per radius by (1 + |lhs|); the report's min_slack is
    the worst normalized slack over the radii.  A side that is not finite
    fails the cell: min_slack and min_ratio are -inf at the first such radius.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0 or not np.all(radii > 0.0):
        raise ValueError("radii must be a nonempty set of positive radii")
    lhs = -radial_velocity(f, params, radii)
    rhs = pointwise_lower_bound(f, params, radii)
    finite = np.isfinite(lhs) & np.isfinite(rhs)
    with np.errstate(invalid="ignore"):
        slack = np.where(finite, (lhs - rhs) / (1.0 + np.abs(lhs)), -np.inf)
    i = int(np.argmin(slack))
    ratio = (lhs[i] / rhs[i] if rhs[i] > 0 else np.inf) if finite[i] else -np.inf
    return CertificateReport(
        inequality="pointwise_lower_bound",
        samples=radii.size,
        min_slack=float(slack[i]),
        min_ratio=float(ratio),
        worst_case={"radius": float(radii[i]), "n": params.n, "a": params.a},
        tolerance=tolerance,
    )


# Gauss points per octave of the right side's tail beyond the support, and
# the tail bound relative to the integral at which it stops
_TAIL_POINTS, _TAIL_TOL = 16, 1e-13


def _bilinear_rhs(f, params: Params, delta: float, r, w) -> float:
    """C_{n,delta} int (f - f(0))^2 / |x|^{n+1+delta} w_a(|x|) dx on nodes r,
    then octaves beyond R until the analytic tail bound falls below 1e-13 of
    the integral; f - f(0) is `f.rise`, free of cancellation at the origin."""
    n, a = params.n, params.a
    R = f.support_radius

    def chunk(rr, ww):
        vals = f.rise(rr) ** 2 * rr ** (-2.0 - delta) * screening_weight(rr, params)
        return float(np.dot(ww, vals))

    total = chunk(r, w)
    # beyond the support f is constant; extend in octaves until the analytic
    # tail bound (w_a <= (n+1) a^2 / (8 r^2)) is negligible
    df2 = float(f.rise(R + 1.0)) ** 2
    lo = R
    while True:
        tail_bound = df2 * (n + 1) * a ** 2 / (8.0 * (2.0 + delta + 1.0) * lo ** (3.0 + delta))
        if tail_bound <= _TAIL_TOL * abs(total) + 1e-300:
            break
        hi = 2.0 * lo
        total += chunk(*gauss_panels(lo, hi, _TAIL_POINTS))
        lo = hi
        if lo > 1e9 * max(R, a):
            break
    return bilinear_constant(n, delta) * sphere_area(n) * total


def certify_bilinear(f, params: Params, deltas, tolerance: float = 1e-6) -> list[CertificateReport]:
    """Check LHS >= RHS for the weighted bilinear inequality at one profile:
    one CertificateReport per weight exponent in `deltas`, each with
    ratio = LHS / RHS (passes when ratio >= 1 - tolerance).

    Both sides integrate on the nodes r of `graded_rule` on [0, R], split
    at the profile's breakpoints.  The left side, -int R_a f . grad f /
    |x|^{n+delta} dx, is -omega_{n-1} int u_r(r) f'(r) r^{-1-delta} dr; u_r
    is evaluated once for every delta, and only at the nodes where f' != 0
    (elsewhere the integrand is 0).  Where f'(0) != 0 the left integrand
    goes like r^-delta log r at the origin, and where f'' or f' jumps at a
    breakpoint b (the spline's slope jumps at R) u_r carries
    (r - b) log|r - b|; the rule's mapped panels take both.  Against nested
    adaptive quadrature the ratio agrees to 1e-13 on splines at delta = 0.25
    and 0.5 (Tier-1 checks 1e-9) and to 1e-9 at delta = 0.75.  A side that
    is not finite fails the cell with ratio and slack -inf.
    """
    r, w, _ = graded_rule(f.support_radius, f.breakpoints)
    d = f.derivative(r)
    u = np.zeros_like(r)
    live = d != 0.0
    u[live] = radial_velocity(f, params, r[live])
    reports = []
    for delta in deltas:
        lhs = sphere_area(params.n) * float(np.dot(w, -u * d * r ** (-1.0 - delta)))
        rhs_ = _bilinear_rhs(f, params, delta, r, w)
        if not np.isfinite([lhs, rhs_]).all():
            ratio = slack = -np.inf
        elif rhs_ <= 0:
            ratio, slack = np.inf, lhs
        else:
            ratio = lhs / rhs_
            slack = ratio - 1.0
        reports.append(CertificateReport("bilinear_lower_bound", 1, float(slack), float(ratio),
                                         {"n": params.n, "a": params.a, "delta": delta}, tolerance))
    return reports


def young_split(b1: float, b2: float, alpha: float):
    """Both sides of (b1 - b2)^2 >= (1 - alpha) b1^2 + (1 - 1/alpha) b2^2
    for 0 < alpha < 1; the left side always dominates."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lhs = (b1 - b2) ** 2
    rhs = (1.0 - alpha) * b1 ** 2 + (1.0 - 1.0 / alpha) * b2 ** 2
    return lhs, rhs
