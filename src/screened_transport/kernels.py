"""Closed forms for the radial reduction of the screened Riesz kernel.

The radial velocity of a radial function reduces to a 1-D integral against

    Psi_n(q, c) = int_0^pi sin^n(mu) [A^{-(n+1)/2} - (A + c)^{-(n+1)/2}] dmu,
    A = 1 - 2 q cos(mu) + q^2,

with q = rho / r and c = (a / r)^2 (the inner integral over the kernel height
is done analytically).  For n = 2 the integral reduces to complete elliptic
integrals, for n = 3 to elementary logarithms; away from q = 1 both are Gauss
hypergeometric functions of a small argument, summed as fixed power series
(about 20-35 ns per point, against 150-200 ns for SciPy's general Gauss
hypergeometric function, and within 4.4e-16 of mpmath).  Other n fall back
to graded Gauss-Legendre panels.  Psi_n has an integrable logarithmic
singularity at q = 1; n = 2 and n = 3 return a large finite value there (the
log of (1 - q)^2 floored at 5e-324), and the radial rule keeps its nodes at
least one ulp away from it.

Every radial integral takes its nodes from `gauss_panels`; the weighted ones
(I(t) and the certifier's) take their panels from `graded_breaks`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import special

__all__ = ["psi", "psi_quadrature", "screening_weight", "bilinear_constant", "gauss_panels",
           "graded_breaks"]

# relative size of c below which the difference of the two closed forms
# loses precision (about 1e-16 / c relative) and the cancellation-free
# quadrature path is used instead
_SMALL_C = 1e-3

# elements per vectorized step of psi_quadrature
_QUAD_CHUNK = 64


# coefficients of the series F(3/4, 5/4; 2; w) = sum_k _J2_SERIES[k] w^k, by
# the ratio (k + 3/4)(k + 5/4) / ((k + 2)(k + 1)); on w < 1/9 the terms fall
# below 1e-18 of the sum after 18 of them
_J2_SERIES = np.cumprod([1.0] + [(k + 0.75) * (k + 1.25) / ((k + 2.0) * (k + 1.0))
                                 for k in range(17)])
# F(1, 3/2; 5/2; z) = sum_k 3 z^k / (2k + 3); on z < 1/4 likewise after 28
_T3_SERIES = 3.0 / (2.0 * np.arange(28) + 3.0)


def _series(coef, w):
    """sum_k coef[k] w^k by Horner's rule, the same number of steps for
    every element."""
    s = np.full_like(w, coef[-1])
    for ck in coef[-2::-1]:
        s *= w
        s += ck
    return s


def _j2(p, q, pm):
    """int_0^pi sin^2 mu (p - 2 q cos mu)^{-3/2} dmu with pm = p - 2q supplied
    in cancellation-free form.

    Away from q = 1 (m = 4q / (p + 2q) < 1/2) this is
    (pi/2) (p + 2q)^{-3/2} F(3/2, 3/2; 3; m), which the quadratic
    transformation F(a, b; 2b; z) = (1 - z/2)^{-a} F(a/2, a/2 + 1/2; b + 1/2;
    (z / (2 - z))^2) (DLMF §15.8(iii)) turns into (pi/2) p^{-3/2}
    F(3/4, 5/4; 2; w), w = (2q / p)^2 < 1/9, summed as a fixed power series;
    elsewhere it is the complete elliptic integrals K and E of m.
    """
    pp = p + 2.0 * q
    m = 4.0 * q / pp
    out = np.empty_like(p)
    small = m < 0.5
    ps = p[small]
    out[small] = (np.pi / 2.0) * ps ** -1.5 * _series(_J2_SERIES, (2.0 * q[small] / ps) ** 2)
    big = ~small
    mb = m[big]
    K = special.ellipkm1(np.maximum(pm[big] / pp[big], 5e-324))
    E = special.ellipe(mb)
    out[big] = 8.0 * pp[big] ** -1.5 * ((2.0 - mb) * K - 2.0 * E) / mb ** 2
    return out


def _t3(p, q, pm):
    """int_0^pi sin^3 mu (p - 2 q cos mu)^{-2} dmu.

    For x = 2q / p < 1/2 this is (4/3) p^{-2} F(1, 3/2; 5/2; x^2), summed as
    the fixed power series sum_k 3 x^{2k} / (2k + 3); elsewhere the
    elementary logarithmic form.
    """
    x = 2.0 * q / p
    out = np.empty_like(p)
    small = x < 0.5
    out[small] = (4.0 / 3.0) / p[small] ** 2 * _series(_T3_SERIES, x[small] ** 2)
    big = ~small
    pb, qb, pmb = p[big], q[big], pm[big]
    with np.errstate(over="ignore"):
        log = np.log((pb + 2.0 * qb) / np.maximum(pmb, 5e-324))
    # at q = 1 (pm = 0) the quotient overflows: the log of pm floored at
    # 5e-324 keeps Psi_3 finite there, as ellipkm1's floor does Psi_2
    over = np.isinf(log)
    log[over] = np.log(pb[over] + 2.0 * qb[over]) - np.log(np.maximum(pmb[over], 5e-324))
    out[big] = (pb / (4.0 * qb ** 3)) * log - 1.0 / qb ** 2
    return out


@lru_cache(maxsize=None)
def _gauss_table(most: int):
    """Gauss-Legendre nodes and weights of 1..most points laid end to end,
    and the index where the k-point rule starts (cached: building a rule
    costs about 0.2 ms, and every caller asks again for the same few)."""
    rules = [np.polynomial.legendre.leggauss(k) for k in range(1, most + 1)]
    k = np.arange(most + 1)
    return (np.concatenate([x for x, _ in rules]), np.concatenate([w for _, w in rules]),
            k * (k - 1) // 2)


def gauss_panels(lo, hi, count):
    """Nodes 0.5 (hi - lo) x + 0.5 (hi + lo) and weights 0.5 (hi - lo) w of
    the Gauss-Legendre rule on every panel [lo, hi], panel by panel; `count`
    points on every panel, or count[i] on panel i."""
    lo, hi = (np.asarray(v, dtype=float).ravel() for v in (lo, hi))
    count = np.broadcast_to(np.asarray(count, dtype=int).ravel(), lo.shape)
    xg, wg, start = _gauss_table(int(count.max()))
    idx = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start[count], count)
    half = np.repeat(0.5 * (hi - lo), count)
    return half * xg[idx] + np.repeat(0.5 * (hi + lo), count), half * wg[idx]


# the graded rule: uniform panels per unit length, halvings toward the
# origin, and the Gauss points per panel of the integrals that share it
_PER_UNIT, _DEPTH = 12, 40
GRADED_POINTS = 16


def graded_breaks(upper, breakpoints):
    """Panel ends on [0, upper]: uniform panels, split at the `breakpoints`
    inside (0, upper) and graded toward the origin by halvings of upper."""
    brk = set(np.linspace(0.0, upper, max(4, int(np.ceil(_PER_UNIT * upper))) + 1))
    brk.update(b for b in np.asarray(breakpoints, float) if 0.0 < b < upper)
    w = upper
    for _ in range(_DEPTH):
        w *= 0.5
        brk.add(w)
        if w < 1e-10 * upper:
            break
    brk = np.array(sorted(brk))
    keep = np.concatenate([[True], np.diff(brk) > 1e-13 * upper])
    return brk[keep]


def psi_quadrature(n: int, q, c):
    """Psi_n by graded Gauss-Legendre panels in mu, cancellation-free bracket.

    Works for any n >= 2 and any c >= 0; used as the generic fallback and as
    an independent oracle for the closed forms.  The 32-point panels start
    at width min(|1 - q|, pi/8) (at least 1e-9) and double up to pi; the
    elements are evaluated together, _QUAD_CHUNK at a time, grouped by
    their number of panels, and each element's value depends only on its
    own q and c.
    """
    q = np.asarray(q, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), q.shape)
    e = 0.5 * (n + 1)
    qf, cf = q.ravel(), c.ravel()
    first = np.minimum(np.maximum(np.abs(1.0 - qf), 1e-9), np.pi / 8.0)
    # panels: [0, first], then doublings while below pi, then up to pi
    panels = np.ceil(np.log2(np.pi / first)).astype(int) + 1
    out = np.empty(qf.shape)
    for m in np.unique(panels):
        grow = 2.0 ** np.arange(m - 1)
        of_m = np.flatnonzero(panels == m)
        for idx in np.array_split(of_m, -(-len(of_m) // _QUAD_CHUNK)):
            brk = np.concatenate([np.zeros((len(idx), 1)), first[idx, None] * grow,
                                  np.full((len(idx), 1), np.pi)], axis=1)
            mu, w = (v.reshape(len(idx), m, 32) for v in gauss_panels(brk[:, :-1], brk[:, 1:], 32))
            qi, ci = qf[idx, None, None], cf[idx, None, None]
            A = (1.0 - qi) ** 2 + 4.0 * qi * np.sin(0.5 * mu) ** 2
            bracket = A ** -e * (-np.expm1(-e * np.log1p(ci / A)))
            out[idx] = np.sum(np.sum(w * np.sin(mu) ** n * bracket, axis=2), axis=1)
    return out.reshape(q.shape)


def psi(n: int, q, c):
    """Psi_n(q, c) for arrays q >= 0 and c > 0 (broadcastable).

    n = 2 and n = 3 use closed forms (`_j2`, `_t3`) with power-series
    branches where the elliptic or logarithmic expressions cancel; elements
    with c below _SMALL_C times (1 - q)^2 + c, where the difference of the
    two closed forms would lose digits, fall back to direct quadrature.
    Each element's value depends only on its own q and c.
    """
    q = np.asarray(q, dtype=float)
    c = np.broadcast_to(np.asarray(c, dtype=float), q.shape).copy()
    p1 = 1.0 + q * q
    pm1 = (1.0 - q) ** 2
    if n == 2:
        out = _j2(p1, q, pm1) - _j2(p1 + c, q, pm1 + c)
    elif n == 3:
        out = _t3(p1, q, pm1) - _t3(p1 + c, q, pm1 + c)
    else:
        return psi_quadrature(n, q, c)
    tiny = c < _SMALL_C * (pm1 + c)
    if np.any(tiny):
        out[tiny] = psi_quadrature(n, q[tiny], c[tiny])
    return out


def screening_weight(r, params) -> np.ndarray:
    """w_a(r) = 1 - 2^{n+1} r^{n+1} / (4 r^2 + a^2)^{(n+1)/2}.

    Lies in (0, 1], equals 1 at r = 0, decreases to 0 like (n+1) a^2 / (8 r^2).
    Written in cancellation-free form for large r / a.
    """
    r = np.asarray(r, dtype=float)
    n, a = params.n, params.a
    e = 0.5 * (n + 1)
    with np.errstate(divide="ignore"):
        ratio = np.where(r > 0.0, a ** 2 / (4.0 * r ** 2), np.inf)
    return np.where(r > 0.0, -np.expm1(-e * np.log1p(ratio)), 1.0)


def bilinear_constant(n: int, delta: float) -> float:
    """(sqrt(n+1+delta) - sqrt(n))^2 / (2^{n+2} pi) * B(1/2, (n+1)/2).

    The explicit constant in the weighted bilinear lower bound; requires
    -1 < delta < 1.
    """
    if not -1.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (-1, 1), got {delta}")
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    gap = (np.sqrt(n + 1.0 + delta) - np.sqrt(float(n))) ** 2
    return float(gap / (2.0 ** (n + 2) * np.pi) * special.beta(0.5, 0.5 * (n + 1)))
