"""Three independent evaluators of the screened Riesz transform.

The transform acts on a density f as the convolution with the difference of
the Riesz kernel and the conjugate Poisson kernel at height a,

    K_a(x) = Gamma((n+1)/2) / pi^{(n+1)/2} * (x/|x|^{n+1} - x/(|x|^2+a^2)^{(n+1)/2}),

equivalently as the Fourier multiplier -i k/|k| (1 - e^{-a|k|}) in the grid's
angular-wavenumber convention.  Backends:

* `screened_riesz`      -- spectral multiplier on the periodic grid,
* `screened_riesz_direct` -- free-space principal-value quadrature in polar
  coordinates around each target (spline-interpolated samples),
* `radial_velocity`     -- exact angular reduction for radial profiles.

The spectral backend inherits the periodic image sum; the direct backend
integrates the free-space kernel over the compact support.  Their measured
agreement bounds the periodization gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .fields import Params, ScalarField, VectorField, irfftn
from .kernels import gauss_panels, psi

__all__ = [
    "LimitReport",
    "screened_riesz",
    "screened_riesz_direct",
    "screened_riesz_divergence",
    "conjugate_poisson",
    "riesz",
    "radial_velocity",
    "limit_report",
    "limit_report_to_csv",
]


def _apply_directional(f: ScalarField, radial_multiplier) -> VectorField:
    g = f.grid
    sp = f.half_spectrum
    return VectorField(g, [irfftn(-1j * s * radial_multiplier * sp, g.shape)
                           for s in g.half_unit_directions])


def screened_riesz(f: ScalarField, params: Params) -> VectorField:
    """Spectral backend: component j is ifft of -i k_j/|k| (1 - e^{-a|k|}) f_hat.

    The zero mode maps to zero (the multiplier is continuous at k = 0 with
    limit 0 along every ray).
    """
    if params.n != f.grid.n:
        raise ValueError("params dimension does not match the grid")
    mult = -np.expm1(-params.a * f.grid.half_wavenumber_magnitude)
    return _apply_directional(f, mult)


def conjugate_poisson(f: ScalarField, params: Params) -> VectorField:
    """Spectral multiplier -i k_j/|k| e^{-a|k|} (the smooth part of the kernel)."""
    mult = np.exp(-params.a * f.grid.half_wavenumber_magnitude)
    return _apply_directional(f, mult)


def riesz(f: ScalarField) -> VectorField:
    """Riesz transform, multiplier -i k_j/|k|; the mean maps to zero by convention."""
    return _apply_directional(f, 1.0)


def screened_riesz_divergence(f: ScalarField, params: Params) -> ScalarField:
    """div of the screened Riesz velocity: multiplier |k| (1 - e^{-a|k|}).

    Nyquist modes are zeroed to match the divergence of the velocity field
    actually produced by `screened_riesz` (whose odd symbols drop them).
    """
    kk = f.grid.half_wavenumber_magnitude
    mult = np.where(f.grid.half_nyquist_mask, 0.0, kk * (-np.expm1(-params.a * kk)))
    return ScalarField.from_half_spectrum(f.grid, mult * f.half_spectrum)


# ---------------------------------------------------------------------------
# direct principal-value quadrature
# ---------------------------------------------------------------------------

def _interpolator(f: ScalarField):
    # imported here: nothing else in the package needs SciPy's spline and
    # image modules, which are slow to import
    from scipy.interpolate import RectBivariateSpline
    from scipy.ndimage import map_coordinates

    g = f.grid
    if g.n == 2:
        sp = RectBivariateSpline(g.axis_coords, g.axis_coords, f.values, kx=5, ky=5)

        def ev(pts):
            return sp.ev(pts[:, 0], pts[:, 1])

        return ev
    if g.n == 3:
        x0 = g.axis_coords[0]
        inv = 1.0 / g.spacing

        def ev(pts):
            idx = (pts - x0).T * inv
            return map_coordinates(f.values, idx, order=3, mode="nearest")

        return ev
    raise NotImplementedError(f"direct quadrature implemented for n in (2, 3), got {g.n}")


def _sphere_quadrature(n: int, n_polar: int):
    """Unit direction vectors and weights integrating over S^{n-1}."""
    if n == 2:
        nth = 4 * n_polar
        th = (np.arange(nth) + 0.5) * (2.0 * np.pi / nth)
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        wts = np.full(nth, 2.0 * np.pi / nth)
        return dirs, wts
    # n == 3: Gauss-Legendre in cos(polar) x trapezoid in azimuth
    xg, wg = np.polynomial.legendre.leggauss(n_polar)
    naz = 2 * n_polar
    ph = (np.arange(naz) + 0.5) * (2.0 * np.pi / naz)
    ct = xg
    st = np.sqrt(1.0 - ct ** 2)
    dirs = np.empty((n_polar * naz, 3))
    wts = np.empty(n_polar * naz)
    for i in range(n_polar):
        base = i * naz
        dirs[base:base + naz, 0] = st[i] * np.cos(ph)
        dirs[base:base + naz, 1] = st[i] * np.sin(ph)
        dirs[base:base + naz, 2] = ct[i]
        wts[base:base + naz] = wg[i] * (2.0 * np.pi / naz)
    return dirs, wts


# Gauss points per radial panel of the direct quadrature
_DIRECT_N_GL = 16


def screened_riesz_direct(f: ScalarField, params: Params, targets,
                          support_radius: float | None = None) -> np.ndarray:
    """Free-space principal-value quadrature of the transform at given points.

    The integral is taken in polar coordinates around each target; the odd
    kernel is cancelled analytically by the angular integral, which leaves a
    bounded radial integrand (no singular quadrature is needed).  Samples are
    interpolated with a quintic spline (n = 2) or cubic spline (n = 3), and
    the field is treated as exactly zero outside `support_radius`.

    This is the brute-force oracle for the spectral backend; it costs
    O(targets * nodes) and is meant for verification, not inner loops.
    """
    g = f.grid
    n = g.n
    if params.n != n:
        raise ValueError("params dimension does not match the grid")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if support_radius is None:
        nz = np.abs(f.values) > 1e-14 * (np.abs(f.values).max() + 1e-300)
        support_radius = float(g.radius[nz].max()) + 2 * g.spacing if nz.any() else 0.0
    ev = _interpolator(f)
    cn = special.gamma(0.5 * (n + 1)) / np.pi ** (0.5 * (n + 1))
    a = params.a
    h = g.spacing
    out = np.zeros((len(targets), n))
    for it, x0 in enumerate(targets):
        rmax = support_radius + float(np.linalg.norm(x0)) + 2.0 * h
        if rmax <= 0.0:
            continue
        # radial panels: geometric near 0, then ~2 cells wide
        brk = [0.0]
        w = h / 4.0
        while w < rmax / 8.0:
            brk.append(w)
            w *= 2.0
        brk.extend(np.linspace(w, rmax, max(8, int(np.ceil((rmax - w) / (2.0 * h))))))
        brk = np.unique(np.asarray(brk))
        nodes, weights = gauss_panels(brk[:-1], brk[1:], _DIRECT_N_GL)
        acc = np.zeros(n)
        for hi, rr, wt in zip(brk[1:], nodes.reshape(-1, _DIRECT_N_GL),
                              weights.reshape(-1, _DIRECT_N_GL)):
            # angular resolution follows the circle length in grid cells
            n_polar = max(12, int(2.0 * np.ceil(hi / h)))
            dirs, aw = _sphere_quadrature(n, n_polar)
            pts = x0[None, None, :] + rr[:, None, None] * dirs[None, :, :]
            flat = pts.reshape(-1, n)
            vals = ev(flat).reshape(len(rr), len(dirs))
            vals[np.linalg.norm(flat, axis=1).reshape(vals.shape) >= support_radius] = 0.0
            ang = vals @ (aw[:, None] * dirs)          # (n_r, n) directional moments
            phi = rr ** (-(n + 1)) - (rr ** 2 + a ** 2) ** (-0.5 * (n + 1))
            acc += (wt * rr ** n * phi) @ ang
        out[it] = -cn * acc
    return out


# ---------------------------------------------------------------------------
# exact radial reduction
# ---------------------------------------------------------------------------

# the one radial rule: uniform background panels and their Gauss points, the
# fewest and most Gauss points on a narrower panel, and the digits its Gauss
# rule aims for
_BACKGROUND, _N_BACKGROUND, _N_MIN, _N_NARROW, _DIGITS = 16, 16, 4, 10, 16
# the two diagonal panels [r - h, r] and [r, r + h] map rho = r -+ h t^_POWER
# and take _N_DIAGONAL Gauss points in t on [0, 1]: the map turns the log
# singularity of Psi_n at rho = r into t^(_POWER - 1) log t
_POWER, _N_DIAGONAL = 6, 16
_T, _TW = gauss_panels(0.0, 1.0, _N_DIAGONAL)
_DIAGONAL_NODES, _DIAGONAL_WEIGHTS = _T ** _POWER, _POWER * _T ** (_POWER - 1) * _TW
# halvings of the grading toward the support's edge for targets beyond it;
# a breakpoint closer than min(r, L) 2^-_EDGE_DEPTH to min(r, L) merges with it
_EDGE_DEPTH = 36
# targets per psi call: outside a certification cell's origin panel a
# target takes 136 to 780 points (most about 200), so a full block holds
# about 2,200 to 5,000, which keeps psi's float64 temporaries below 64 KiB
# (glibc's malloc gives larger freed ones back to the system, and every
# block would page-fault them in again); only the block of a cell's 16
# origin-panel targets (up to 1,497 points each) holds more, about 9,000
_BLOCK = 16
# targets per _radial_panels call, whose panels are then cut into blocks: its
# cost is mostly per call (0.10 ms for 8 targets, 0.20 ms for 64), while the
# panels of a whole call at once add 4 MB to the certification sweep's peak
# memory
_PANELS = 64
# below r_0 = _LINEAR min(a, support) the velocity is its linear term at r_0;
# that is its limit only when f'(0) = 0, since otherwise u_r / r grows like
# f'(0) log(1 / r) toward the origin
_LINEAR = 1e-60


def _radial_panels(x: np.ndarray, support: float, inner: np.ndarray, a: float):
    """The panels of the radial rule at the targets x > 0, in target order:
    the target each panel belongs to, its two ends, its number of Gauss
    points, and -1 / +1 on the diagonal panel that ends / starts at its
    target (0 elsewhere).

    A target's breakpoints are a uniform background, the profile's inner
    breakpoints and s = min(x, support); a breakpoint within s 2^-_EDGE_DEPTH
    of s merges with it.  A target inside the support gets the diagonal
    panels [x - h, x] and [x, x + h] (Psi_n has its log singularity at
    rho = x), with h the smallest of half a background width, a / 2, x / 2,
    support - x and the distance to the nearest other inner breakpoint, and
    breakpoints at x -+ h 2^k out to one background width.  Background
    breakpoints closer to x than one background width are dropped, so that
    none splits the diagonal panels or their grading.  (Past x / 2 and a / 2
    the smooth part of the integrand has singularities at rho = 0 and at
    rho = x +- i a, which would slow the diagonal rule.)  A target at or
    beyond the support keeps the background and is graded toward the support
    from inside, at support (1 - 2^-k) down to the distance
    (x - support) / 2 or _EDGE_DEPTH halvings.  The diagonal panels get
    _N_DIAGONAL points.  Any other panel at distance d from x, of width w,
    gets the fewest points whose Gauss rule converges to _DIGITS digits at
    the rate exp(-2 arccosh(1 + 2 d / w)) per point that the singularity
    allows: _N_MIN to _N_NARROW on a narrow panel, and _N_MIN to
    _N_BACKGROUND on a panel at least half a background width wide, whose d
    is the distance to the nearer of x and the support's edge, where f' may
    be singular (the bump's is not analytic there), so that the panels
    touching the edge keep _N_BACKGROUND.
    """
    width = support / _BACKGROUND
    xc = x[:, None]
    s = np.minimum(xc, support)
    beyond = xc >= support
    merged = np.abs(inner - s) < s * 2.0 ** -_EDGE_DEPTH
    gap = np.where(merged, np.inf, np.abs(inner - s)).min(axis=1, initial=np.inf)[:, None]
    h = np.minimum(np.minimum(0.5 * min(width, a), 0.5 * xc), np.minimum(support - xc, gap))
    h[beyond] = support
    outward = h * 2.0 ** np.arange(int(np.ceil(np.log2(width / h.min()))) + 1)
    toward = support * 2.0 ** -np.arange(1, _EDGE_DEPTH + 1)
    background = np.linspace(0.0, support, _BACKGROUND + 1)
    brk = np.concatenate([
        np.where(~beyond & (np.abs(background - s) < width) & (background > 0.0),
                 support, background),
        np.where(merged, support, inner),
        s,
        np.where(beyond | (outward > width), support, s - outward),
        np.where(beyond | (outward > width), support, s + outward),
        np.where(~beyond | (toward < 0.5 * (xc - support)), support, s - toward),
    ], axis=1)
    brk = np.sort(np.clip(brk, 0.0, support), axis=1)
    w = np.diff(brk, axis=1)
    keep = w > 0.0
    owner = np.broadcast_to(np.arange(len(x))[:, None], w.shape)[keep]
    lo, hi, w = brk[:, :-1][keep], brk[:, 1:][keep], w[keep]
    xo = x[owner]
    d = np.maximum(lo - xo, xo - lo - w)
    wide = w >= 0.5 * width
    d[wide] = np.minimum(d[wide], support - hi[wide])
    with np.errstate(divide="ignore"):
        per_point = np.arccosh(1.0 + 2.0 * d / w)
        count = np.ceil(_DIGITS * np.log(10.0) / (2.0 * per_point))
    count = np.clip(count, _N_MIN, np.where(wide, _N_BACKGROUND, _N_NARROW))
    side = np.where(xo < support, (lo == xo).astype(int) - (hi == xo), 0)
    count[side != 0] = _N_DIAGONAL
    return owner, lo, hi, count.astype(int), side


def _radial_nodes(lo, hi, count, side):
    """Gauss nodes and weights of the panels; on a diagonal panel of width h
    at the target x they are rho = x -+ h t^_POWER, kept at least one ulp
    away from x, and h _POWER t^(_POWER - 1) w."""
    rho, wt = gauss_panels(lo, hi, count)
    diagonal = side != 0
    k = np.count_nonzero(diagonal)
    h = np.repeat((hi - lo)[diagonal], _N_DIAGONAL)
    x = np.repeat(np.where(side > 0, lo, hi)[diagonal], _N_DIAGONAL)
    step = np.maximum(h * np.tile(_DIAGONAL_NODES, k), np.spacing(x))
    at = np.repeat(diagonal, count)
    rho[at] = x + np.repeat(side[diagonal], _N_DIAGONAL) * step
    wt[at] = h * np.tile(_DIAGONAL_WEIGHTS, k)
    return rho, wt


def _radial_blocks(x: np.ndarray, support: float, breakpoints, a: float, derivative):
    """The radial rule at the targets x > 0 (`_radial_panels`, split at the
    `breakpoints` inside (0, support)) in blocks of _BLOCK targets.  Yields,
    per block, the index of its targets in x, their nodes rho_j laid end to
    end, the products w_j derivative(rho_j) of the weights and f', and the
    number of nodes of each target.  The panels, the nodes and the products
    are formed for _PANELS targets at a time and sliced into blocks: one
    `derivative` call per _PANELS targets.  A target's panels depend only on
    the target, and every node and product only on its panel, so the blocks
    are the same bits as panels laid per block."""
    inner = np.asarray(breakpoints, dtype=float)
    inner = inner[(inner > 0.0) & (inner < support)]
    for start in range(0, len(x), _PANELS):
        chunk = x[start:start + _PANELS]
        owner, lo, hi, count, side = _radial_panels(chunk, support, inner, a)
        rho, wt = _radial_nodes(lo, hi, count, side)
        wf = wt * derivative(rho)
        size = np.bincount(owner, weights=count).astype(int)
        ends = np.append(0, np.cumsum(size))
        for b in range(0, len(chunk), _BLOCK):
            e = min(b + _BLOCK, len(chunk))
            i, j = ends[b], ends[e]
            yield start + np.arange(b, e), rho[i:j], wf[i:j], size[b:e]


def _radial_sums(n: int, a: float, x: np.ndarray, rho: np.ndarray, f: np.ndarray,
                 size: np.ndarray) -> np.ndarray:
    """-(1 / (pi x_i^n)) sum_j f_j rho_j^n Psi_n(rho_j / x_i, (a / x_i)^2) for
    each target x_i over its own size[i] nodes, the targets' nodes laid end
    to end: the radial velocity once f_j carries the weight and f'.  One
    `psi` call and one segment sum for the block; each target's sum depends
    only on its own nodes."""
    xr = np.repeat(x, size)
    terms = f * rho ** n * psi(n, rho / xr, (a / xr) ** 2)
    return -np.add.reduceat(terms, np.cumsum(size) - size) / (np.pi * x ** n)


def radial_velocity(prof, params: Params, r) -> np.ndarray | float:
    """Radial component u_r(r) of the transform of a radial profile.

    For a radial f the full transform reduces to

        u_r(r) = -(1 / (pi r^n)) * int_0^inf f'(rho) rho^n Psi_n(rho/r, (a/r)^2) drho,

    negative wherever f is nondecreasing (the velocity points inward) and
    exactly zero at r = 0.  Each target is evaluated by one fixed rule
    (`_radial_panels`): 16 uniform background panels, split at the
    profile's `breakpoints`, and two diagonal panels [r - h, r] and
    [r, r + h] on which rho = r -+ h t^6 takes 16 Gauss points in t, graded
    outward at r -+ h 2^k to one background width.  Every other panel takes
    the Gauss points its distance from r allows (4 to 10 on a narrower
    panel, 4 to 16 on a background panel, which also counts its distance
    from the support's edge): 140 to 304 Psi_n points per target inside the
    support on the shipped families, 1,727 on 384 markers and 2,243 on 512
    (every marker interval is a panel).  Targets beyond the support keep
    the background and are graded toward its edge instead, so a
    certification cell's targets carry 136 to 1,497 points: the most at the
    certifier's innermost nodes (down to 1e-40), whose diagonal grading
    doubles out from r / 2 to a background width.  No node lies on rho = r.
    The panels are laid for _PANELS (64) targets at a time and Psi_n is
    evaluated once per block of _BLOCK (16) targets (`_radial_sums`, which
    the characteristics solver shares); each target is reduced over its own
    nodes, so its value is bit for bit the same in any batch.  No error
    estimate is returned.  Against nested adaptive quadrature split at the
    breakpoints the measured error is at most 3e-12 relative on the shipped
    families (splines included) and on marker profiles, from r = 1e-6 to 40,
    at breakpoints +- 1e-9, on both sides of the support's edge and at
    a = 0.02 to 4.  Where c = (a/r)^2 is small the two closed forms of Psi_n
    cancel, up to about 1e-16 / c; `psi` integrates directly below
    c ~ 1e-3, so at a = 0.1 the error peaks near 2.5e-13 at r ~ 3-4 and
    stays below 1e-14 from r = 5 to 40.  u_r is odd at the origin, so below
    r_0 = _LINEAR min(a, L) (where (a/r)^2 would overflow) it is the linear
    term r u_r(r_0) / r_0.  That is its limit only for data with f'(0) = 0;
    otherwise u_r / r carries a term in f'(0) log r (on spline seeds 0 and
    35, with f'(0) about 1.0 and 4.4, u_r(r) / r at r = 1e-8 differs from
    its value at 1e-15 by 43% and 49%).

    Accepts a scalar or an array of radii; the scalar form returns a float.
    """
    scalar = np.isscalar(r) or np.ndim(r) == 0
    targets = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(targets < 0.0):
        raise ValueError("radii must be nonnegative")
    n, a = params.n, params.a
    out = np.zeros_like(targets)
    L = prof.support_radius
    live = np.flatnonzero(targets > 0.0)
    r0 = _LINEAR * min(a, L)
    x = np.maximum(targets[live], r0)
    for mine, rho, wf, size in _radial_blocks(x, L, prof.breakpoints, a, prof.derivative):
        out[live[mine]] = _radial_sums(n, a, x[mine], rho, wf, size)
    tiny = live[targets[live] < r0]
    out[tiny] = targets[tiny] * (out[tiny] / r0)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# operator limits
# ---------------------------------------------------------------------------

@dataclass
class LimitReport:
    """Spectrally exact operator gaps as the screening length varies.

    riesz_gap[i]: L2 distance between the screened transform at a_values[i]
    and the Riesz transform; zero_gap[i]: L2 norm of the screened transform
    itself.  Both exclude the zero mode, which every transform here
    annihilates by convention.
    """

    a_values: np.ndarray
    riesz_gap: np.ndarray
    zero_gap: np.ndarray

    def __post_init__(self):
        if not (len(self.a_values) == len(self.riesz_gap) == len(self.zero_gap)):
            raise ValueError("report columns must share length")


def limit_report(f: ScalarField, a_values) -> LimitReport:
    """Parseval evaluation of the operator limits: e^{-a|k|} -> Riesz gap,
    (1 - e^{-a|k|}) -> zero gap, both applied to f's nonzero modes."""
    a_values = np.asarray(a_values, dtype=float)
    if np.any(a_values < 0.0) or np.any(np.diff(a_values) < 0.0):
        raise ValueError("a_values must be nonnegative and ascending")
    g = f.grid
    kk = g.half_wavenumber_magnitude
    sp = np.where(kk > 0.0, np.abs(f.half_spectrum) ** 2, 0.0)
    riesz_gap = np.empty_like(a_values)
    zero_gap = np.empty_like(a_values)
    for i, a in enumerate(a_values):
        riesz_gap[i] = g.parseval_norm(np.exp(-a * kk) ** 2 * sp)
        zero_gap[i] = g.parseval_norm((-np.expm1(-a * kk)) ** 2 * sp)
    return LimitReport(a_values, riesz_gap, zero_gap)


def limit_report_to_csv(report: LimitReport, path) -> None:
    with open(path, "w") as fh:
        fh.write("a,riesz_gap,zero_gap\n")
        for a, rg, zg in zip(report.a_values, report.riesz_gap, report.zero_gap):
            fh.write(f"{a:.17g},{rg:.17g},{zg:.17g}\n")
