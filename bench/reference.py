"""Independent reference for the radial velocity of a radial profile.

    u_r(r) = -(pi r^n)^-1 int_0^R f'(rho) rho^n Psi_n(rho/r, (a/r)^2) drho,
    Psi_n(q, c) = int_0^pi sin^n(mu) [A^-(n+1)/2 - (A + c)^-(n+1)/2] dmu,
    A = 1 - 2 q cos(mu) + q^2,

evaluated straight from this definition with adaptive `scipy.integrate.quad`
in both variables.  Nothing here calls the package's `kernels` or
`transform`: the benchmark compares the program against this.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


def bump(r, support, depth, sharpness):
    """The bump initial datum -depth exp(s (1 - 1/(1 - (r/L)^2))) and its
    derivative, written out from the formula."""
    r = np.asarray(r, dtype=float)
    u = np.where(r < support, (r / support) ** 2, 0.0)
    inside = r < support
    core = np.where(inside, np.exp(sharpness * (1.0 - 1.0 / (1.0 - u))), 0.0)
    value = -depth * core
    deriv = np.where(inside, depth * core * sharpness * 2.0 * r / support ** 2
                     / np.where(inside, (1.0 - u) ** 2, 1.0), 0.0)
    return value, deriv


def psi_n(n: int, q: float, c: float) -> float:
    """Psi_n(q, c) by adaptive quadrature in mu.

    A is written (1 - q)^2 + 4 q sin^2(mu/2) and the bracket as
    A^-e (1 - (1 + c/A)^-e), which are the same numbers without the
    cancellations; near q = 1 the integrand peaks at mu ~ |1 - q|, where the
    interval is split."""
    e = 0.5 * (n + 1)
    d = (1.0 - q) ** 2

    def integrand(mu):
        A = d + 4.0 * q * math.sin(0.5 * mu) ** 2
        return math.sin(mu) ** n * A ** -e * -math.expm1(-e * math.log1p(c / A))

    split = min(abs(1.0 - q), 0.5 * math.pi)
    pts = [0.0] + [split * 2.0 ** k for k in range(40) if split * 2.0 ** k < math.pi] + [math.pi]
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi > lo:
            total += integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def radial_velocity(derivative, support: float, n: int, a: float, r: float,
                    breakpoints=()) -> float:
    """u_r(r) for a profile with derivative `derivative` (callable on floats)
    supported in [0, support]; `breakpoints` are radii where f' has a kink."""
    if r <= 0.0:
        return 0.0
    c = (a / r) ** 2

    def integrand(rho):
        return float(derivative(rho)) * rho ** n * psi_n(n, rho / r, c)

    pts = sorted({0.0, support, *(b for b in breakpoints if 0.0 < b < support),
                  *([r] if r < support else [])})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return -total / (math.pi * r ** n)


def riccati_rate(n: int, a: float, g: float, delta: float, support: float) -> float:
    """c = g (1 - delta) C_{n,delta} w_a(L) / (omega_{n-1} L^{1-delta}) with
    C_{n,delta} = (sqrt(n+1+delta) - sqrt(n))^2 B(1/2, (n+1)/2) / (2^{n+2} pi)
    and w_a(L) = 1 - 2^{n+1} L^{n+1} / (4 L^2 + a^2)^{(n+1)/2}."""
    c_nd = (math.sqrt(n + 1.0 + delta) - math.sqrt(n)) ** 2 \
        * special.beta(0.5, 0.5 * (n + 1)) / (2.0 ** (n + 2) * math.pi)
    w = 1.0 - 2.0 ** (n + 1) * support ** (n + 1) / (4.0 * support ** 2 + a ** 2) ** (0.5 * (n + 1))
    omega = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    return g * (1.0 - delta) * c_nd * w / (omega * support ** (1.0 - delta))


def weighted_functional(value, n: int, delta: float, support: float) -> float:
    """I = omega_{n-1} int_0^L (f(r) - f(0)) r^{-1-delta} dr."""
    f0 = float(value(0.0))
    omega = 2.0 * math.pi ** (0.5 * n) / math.gamma(0.5 * n)
    val = integrate.quad(lambda r: (float(value(r)) - f0) * r ** (-1.0 - delta),
                         0.0, support, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return omega * val
