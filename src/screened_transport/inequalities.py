"""Numerical certification of the transform's lower bounds on radial
nondecreasing test functions.

Two inequalities are certified on sampled function classes:

* pointwise: -u_r(r) is bounded below by an explicit weighted average of
  the profile over [0, r];
* bilinear: the weighted pairing of the velocity with the profile gradient
  dominates an explicit constant times a weighted square integral.

Certification sweeps record the worst slack / ratio over families, never a
proof; family membership (radial, C^1, nondecreasing, integrable bounded
derivative) is enforced at construction.  Mirrored statements for
nonincreasing profiles follow by the sign flip f -> -f, which negates both
sides; the sweep covers them through that symmetry rather than separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import PchipInterpolator

from .fields import Params, bump_profile
from .kernels import bilinear_constant, gauss_panels, screening_weight
from .transform import radial_velocity
from .blowup import sphere_area

__all__ = [
    "TestFunctionFamily",
    "CertificateReport",
    "bilinear_constant",
    "screening_weight",
    "certify_pointwise",
    "certify_bilinear",
    "young_split",
    "weighted_profile_integral",
    "report_to_json",
]


# ---------------------------------------------------------------------------
# test function families
# ---------------------------------------------------------------------------

class _SmoothedStep:
    """Nondecreasing C^2 ramp from -height to 0 across [r0 - w, r0 + w]
    (quintic smoothstep), constant elsewhere."""

    def __init__(self, height, center, width):
        self.h = float(height)
        self.r0 = float(center)
        self.w = float(width)
        if self.r0 - self.w <= 0:
            raise ValueError("step must start at positive radius")

    @property
    def support_radius(self):
        return self.r0 + self.w

    @property
    def breakpoints(self):
        return np.array([0.0, self.r0 - self.w, self.r0 + self.w])

    def _s(self, t):
        t = np.clip(t, 0.0, 1.0)
        return t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)

    def value(self, r):
        t = (np.asarray(r, float) - (self.r0 - self.w)) / (2.0 * self.w)
        return -self.h * (1.0 - self._s(t))

    def derivative(self, r):
        t = (np.asarray(r, float) - (self.r0 - self.w)) / (2.0 * self.w)
        tc = np.clip(t, 0.0, 1.0)
        ds = 30.0 * tc ** 2 * (1.0 - tc) ** 2 / (2.0 * self.w)
        return np.where((t > 0) & (t < 1), self.h * ds, 0.0)


class _SmoothedRamp:
    """Piecewise-linear ramp with quadratically smoothed corners (C^1)."""

    def __init__(self, height, start, stop, corner):
        self.h = float(height)
        self.a = float(start)
        self.b = float(stop)
        self.c = float(corner)
        if not 0 < self.a - self.c:
            raise ValueError("corner overruns the origin")
        if not self.a + self.c < self.b - self.c:
            raise ValueError("corners overlap")
        self.slope = self.h / (self.b - self.a)

    @property
    def support_radius(self):
        return self.b + self.c

    @property
    def breakpoints(self):
        return np.array([0.0, self.a - self.c, self.a + self.c, self.b - self.c, self.b + self.c])

    def derivative(self, r):
        r = np.asarray(r, float)
        out = np.zeros_like(r)
        m = (r > self.a + self.c) & (r < self.b - self.c)
        out[m] = self.slope
        lo = (r >= self.a - self.c) & (r <= self.a + self.c)
        out[lo] = self.slope * (r[lo] - (self.a - self.c)) / (2.0 * self.c)
        hi = (r >= self.b - self.c) & (r <= self.b + self.c)
        out[hi] = self.slope * ((self.b + self.c) - r[hi]) / (2.0 * self.c)
        return out

    def value(self, r):
        r = np.asarray(r, float)
        out = np.empty_like(r)
        for i, ri in np.ndenumerate(r):
            # exact piecewise integral of the derivative, minus total height
            out[i] = -self.h + self._integral(ri)
        return out

    def _integral(self, ri):
        s, c, a, b = self.slope, self.c, self.a, self.b
        ri = min(ri, b + c)
        tot = 0.0
        lo_end = min(ri, a + c)
        if lo_end > a - c:
            t = lo_end - (a - c)
            tot += s * t * t / (4.0 * c)
        if ri > a + c:
            tot += s * (min(ri, b - c) - (a + c))
        if ri > b - c:
            t = ri - (b - c)
            tot += s * (t - t * t / (4.0 * c))
        return tot


class _MonotoneSpline:
    """Random nondecreasing C^1 spline from -depth to 0, constant beyond."""

    def __init__(self, seed, depth=1.0, radius=1.5, knots=9):
        rng = np.random.default_rng(seed)
        r = np.concatenate([[0.0], np.sort(rng.uniform(0.05, radius, knots)), [radius + 0.1]])
        incr = rng.uniform(0.05, 1.0, len(r) - 1)
        v = -depth + depth * np.concatenate([[0.0], np.cumsum(incr) / incr.sum()])
        self._pch = PchipInterpolator(r, v)
        self._der = self._pch.derivative()
        self._rmax = r[-1]
        self._knots = r

    @property
    def support_radius(self):
        return self._rmax

    @property
    def breakpoints(self):
        return self._knots

    def value(self, r):
        r = np.asarray(r, float)
        return np.where(r >= self._rmax, 0.0, self._pch(np.clip(r, 0.0, self._rmax)))

    def derivative(self, r):
        r = np.asarray(r, float)
        return np.where(r >= self._rmax, 0.0, self._der(np.clip(r, 0.0, self._rmax)))


@dataclass(frozen=True)
class TestFunctionFamily:
    """Generator of radial, C^1, nondecreasing profiles with integrable
    bounded derivative.

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
            h, r0, w = self.parameters or (1.0, 0.7, 0.25)
            return _SmoothedStep(h, r0, w)
        if self.kind == "piecewise_linear_smoothed":
            h, start, stop, corner = self.parameters or (1.0, 0.3, 1.0, 0.1)
            return _SmoothedRamp(h, start, stop, corner)
        return _MonotoneSpline(self.seed, *(self.parameters or ()))

    def validate(self, n_check: int = 2001) -> None:
        """Enforce the class invariants on a dense sample."""
        f = self.sample()
        r = np.linspace(0.0, 1.2 * f.support_radius, n_check)
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
    seeded monotone splines."""
    fams = [
        TestFunctionFamily("bump", (1.0, 1.0, 2.0)),
        TestFunctionFamily("bump", (1.5, 0.7, 4.0)),
        TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)),
        TestFunctionFamily("piecewise_linear_smoothed", (1.0, 0.3, 1.0, 0.1)),
    ]
    fams.extend(TestFunctionFamily("random_monotone_spline", seed=s) for s in spline_seeds)
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

def _graded_breaks(upper, breakpoints=None, per_unit=12, depth=40):
    brk = set(np.linspace(0.0, upper, max(4, int(np.ceil(per_unit * upper))) + 1))
    if breakpoints is not None:
        brk.update(b for b in np.asarray(breakpoints, float) if 0.0 < b < upper)
    w = upper
    for _ in range(depth):
        w *= 0.5
        brk.add(w)
        if w < 1e-10 * upper:
            break
    brk = np.array(sorted(brk))
    keep = np.concatenate([[True], np.diff(brk) > 1e-13 * upper])
    return brk[keep]


def weighted_profile_integral(f, r: float, n: int, n_gl: int = 24) -> float:
    """int_0^r (f(r) - f(rho)) rho^{n-1} d(rho) by panel Gauss-Legendre."""
    if r <= 0:
        return 0.0
    brk = _graded_breaks(r, getattr(f, "breakpoints", None))
    rho, w = gauss_panels(brk, n_gl)
    fr = float(np.asarray(f.value(np.asarray([r])))[0])
    return float(np.dot(w, (fr - f.value(rho)) * rho ** (n - 1)))


def pointwise_lower_bound(f, params: Params, r: float) -> float:
    """The explicit lower bound for -u_r(r):

        n B(1/2, (n+1)/2) / (2^{n+1} pi) * w_a(r) / r^n
            * int_0^r (f(r) - f(rho)) rho^{n-1} d(rho).
    """
    from scipy.special import beta
    n = params.n
    pref = n * beta(0.5, 0.5 * (n + 1)) / (2.0 ** (n + 1) * np.pi)
    w = float(screening_weight(np.asarray(r), params))
    return pref * w / r ** n * weighted_profile_integral(f, r, n)


# ---------------------------------------------------------------------------
# certifications
# ---------------------------------------------------------------------------

def certify_pointwise(f, params: Params, radii, tolerance: float = 1e-8) -> CertificateReport:
    """Check -u_r(r) >= pointwise_lower_bound at each radius.

    Slack is normalized per radius by (1 + |lhs|); the report's min_slack is
    the worst normalized slack over the radii.
    """
    radii = np.asarray(radii, dtype=float)
    lhs = -radial_velocity(f, params, radii)
    worst = {"slack": np.inf, "ratio": np.inf, "at": None}
    for r, left in zip(radii, lhs):
        right = pointwise_lower_bound(f, params, float(r))
        slack = (left - right) / (1.0 + abs(left))
        ratio = left / right if right > 0 else np.inf
        if slack < worst["slack"]:
            worst = {"slack": slack, "ratio": ratio, "at": float(r)}
    return CertificateReport(
        inequality="pointwise_lower_bound",
        samples=len(radii),
        min_slack=float(worst["slack"]),
        min_ratio=float(worst["ratio"]),
        worst_case={"radius": worst["at"], "n": params.n, "a": params.a},
        tolerance=tolerance,
    )


def _bilinear_lhs(f, params: Params, delta: float, n_gl: int = 16) -> float:
    """-int R_a f . grad f / |x|^{n+delta} dx by radial reduction:
    -omega_{n-1} int u_r(r) f'(r) r^{-1-delta} dr (exact on the support of f')."""
    R = f.support_radius
    brk = _graded_breaks(R, getattr(f, "breakpoints", None))
    r, w = gauss_panels(brk, n_gl)
    u = radial_velocity(f, params, r)
    integrand = -u * f.derivative(r) * r ** (-1.0 - delta)
    return sphere_area(params.n) * float(np.dot(w, integrand))


def _bilinear_rhs(f, params: Params, delta: float, n_gl: int = 16) -> float:
    """C_{n,delta} int (f - f(0))^2 / |x|^{n+1+delta} w_a(|x|) dx, truncated
    where the analytic tail bound falls below 1e-10 of the running value."""
    n, a = params.n, params.a
    f0 = float(np.asarray(f.value(np.asarray([0.0])))[0])
    R = f.support_radius
    body_breaks = _graded_breaks(R, getattr(f, "breakpoints", None))
    r, w = gauss_panels(body_breaks, n_gl)

    def chunk(rr, ww):
        vals = (np.asarray(f.value(rr)) - f0) ** 2 * rr ** (-2.0 - delta) \
            * screening_weight(rr, params)
        return float(np.dot(ww, vals))

    total = chunk(r, w)
    # beyond the support f is constant; extend in octaves until the analytic
    # tail bound (w_a <= (n+1) a^2 / (8 r^2)) is negligible
    df2 = (float(np.asarray(f.value(np.asarray([R + 1.0])))[0]) - f0) ** 2
    lo = R
    while True:
        tail_bound = df2 * (n + 1) * a ** 2 / (8.0 * (2.0 + delta + 1.0) * lo ** (3.0 + delta))
        if tail_bound <= 1e-10 * abs(total) + 1e-300:
            break
        hi = 2.0 * lo
        r2, w2 = gauss_panels(np.array([lo, hi]), n_gl)
        total += chunk(r2, w2)
        lo = hi
        if lo > 1e9 * max(R, a):
            break
    return bilinear_constant(n, delta) * sphere_area(n) * total


def certify_bilinear(f, params: Params, delta: float, tolerance: float = 1e-6) -> CertificateReport:
    """Check LHS >= RHS for the weighted bilinear inequality at one profile;
    reports ratio = LHS / RHS (passes when ratio >= 1 - tolerance)."""
    lhs = _bilinear_lhs(f, params, delta)
    rhs_ = _bilinear_rhs(f, params, delta)
    if rhs_ <= 0:
        ratio = np.inf
        slack = lhs
    else:
        ratio = lhs / rhs_
        slack = ratio - 1.0
    return CertificateReport(
        inequality="bilinear_lower_bound",
        samples=1,
        min_slack=float(slack),
        min_ratio=float(ratio),
        worst_case={"n": params.n, "a": params.a, "delta": delta},
        tolerance=tolerance,
    )


def young_split(b1: float, b2: float, alpha: float):
    """Both sides of (b1 - b2)^2 >= (1 - alpha) b1^2 + (1 - 1/alpha) b2^2
    for 0 < alpha < 1; the left side always dominates."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    lhs = (b1 - b2) ** 2
    rhs = (1.0 - alpha) * b1 ** 2 + (1.0 - 1.0 / alpha) * b2 ** 2
    return lhs, rhs
