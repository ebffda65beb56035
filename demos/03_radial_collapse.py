"""Finite-time gradient blow-up along characteristics.

A radial nondecreasing well with a negative origin value drives an inward
velocity; the profile compresses toward the origin and its gradient grows
without bound.  The characteristics solver tracks markers exactly (values
never change along trajectories) until either the gradient threshold fires
or markers collide, and the run's own data verify the Riccati prediction

    T_blowup <= 1 / (rate * I(0))

for the weighted functional I.
"""

import os

import numpy as np

from screened_transport import (
    BlowupConfig,
    Params,
    blowup_functional,
    bump_profile,
    derivative_along_flow,
    predict_blowup_time,
    riccati_rate,
    run_radial,
)

OUT = os.path.join(os.path.dirname(__file__), "demo_output")
os.makedirs(OUT, exist_ok=True)

params = Params(2, 1.0, 1.0)
prof = bump_profile(1.0, 1.0, 4.0)
cfg = BlowupConfig(delta=0.25, support_radius=1.0, params=params)

I0 = blowup_functional(prof, cfg)
rate = riccati_rate(cfg)
print(f"I(0) = {I0:.4f}, Riccati rate c = {rate:.4e}")
print(f"guaranteed blow-up no later than t = {predict_blowup_time(I0, rate):.1f}")

print("\nrunning the characteristics solver (stops at 20x gradient growth)...")
result = run_radial(prof, params, t_max=5.0, gradient_factor=20.0,
                    markers=384, output_interval=0.02, snapshot_times=[0.2, 0.5])

s = result.series
print(f"stop reason: {result.stop_reason.value} at t = {s.times[-1]:.4f}")
print(f"\n{'t':>7} {'sup|drho/dr|':>13} {'I(t)':>9} {'rho(0,t)':>9} {'support':>8}")
for i in np.linspace(0, len(s) - 1, 10).astype(int):
    print(f"{s.times[i]:7.3f} {s.column('sup_grad')[i]:13.4f} "
          f"{s.column('i_delta')[i]:9.4f} {s.column('origin_value')[i]:9.5f} "
          f"{s.column('support_radius')[i]:8.5f}")

print("\norigin value is conserved exactly:",
      bool(np.all(s.column("origin_value") == s.column("origin_value")[0])))
print("support only shrinks:", bool(np.all(np.diff(s.column("support_radius")) <= 1e-12)))

rep = derivative_along_flow(result, at_time=0.5)
print(f"\nflow-map derivative check at t = 0.5: the two independent "
      f"reconstructions differ by {rep['max_relative_discrepancy']:.2e} "
      f"(relative, away from the support edge)")

csv = os.path.join(OUT, "radial_series.csv")
s.to_csv(csv)
print(f"wrote {csv}")
