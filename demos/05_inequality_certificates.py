"""Numerical certification of the transform's lower bounds.

Sweeps the pointwise inequality (the inward velocity dominates an explicit
weighted average of the profile) and the weighted bilinear inequality (the
nonlinear pairing dominates an explicit constant times a weighted square
integral) over the shipped families of radial nondecreasing test functions.
"""

import os

import numpy as np

from screened_transport import Params, bilinear_constant, screening_weight
from screened_transport.inequalities import (
    certify_bilinear,
    certify_pointwise,
    report_to_json,
    shipped_families,
)

OUT = os.path.join(os.path.dirname(__file__), "demo_output")
os.makedirs(OUT, exist_ok=True)

print("explicit constant in the bilinear bound:")
for n in (2, 3):
    row = "  ".join(f"d={d:+.2f}: {bilinear_constant(n, d):.4e}"
                    for d in (-0.5, 0.0, 0.5))
    print(f"  n={n}:  {row}")

p = Params(2, 1.0, 1.0)
print("\nscreening weight w_a(r) at a = 1:")
for r in (0.0, 0.5, 1.0, 2.0, 5.0):
    print(f"  w({r}) = {float(screening_weight(np.asarray(r), p)):.6f}")

print("\npointwise certification (20 radii per family, n = 2, a = 1):")
worst = None
for fam in shipped_families(spline_seeds=(0, 1, 2)):
    f = fam.sample()
    radii = np.geomspace(0.03, max(2.0 * f.support_radius, 31.6), 20)
    rep = certify_pointwise(f, p, radii)
    tag = f"{fam.kind}" + (f"[seed {fam.seed}]" if fam.kind.startswith("random") else "")
    print(f"  {tag:38s} min slack {rep.min_slack:+.2e}  min ratio {rep.min_ratio:8.3f}")
    if worst is None or rep.min_slack < worst.min_slack:
        worst = rep

print("\nbilinear certification (bump family across screening and weight exponents):")
from screened_transport import bump_profile
bump = bump_profile(1.0, 1.0, 2.0)
print(f"  {'a':>5} " + " ".join(f"d={d:+.2f}" for d in (-0.5, 0.0, 0.5)))
for a in (0.25, 1.0, 4.0):
    # one velocity evaluation serves every delta
    ratios = [rep.min_ratio for rep in certify_bilinear(bump, Params(2, a, 1.0), (-0.5, 0.0, 0.5))]
    print(f"  {a:5.2f} " + " ".join(f"{r:6.1f}" for r in ratios))
print("(ratios are LHS/RHS; the bound is certified when every ratio >= 1)")

path = os.path.join(OUT, "pointwise_certificate.json")
report_to_json(worst, path)
print(f"\nwrote {path}")
