"""The classical RK4 step and the stop reasons shared by both solvers.

Each solver evaluates its right-hand side once at the start of a step, to
set the CFL time step; that evaluation is also RK4's first stage, so a step
costs four evaluations.
"""

from __future__ import annotations

from enum import Enum


class Stop(Enum):
    """Why a time loop ended."""

    TIME_LIMIT = "time_limit"
    GRADIENT_THRESHOLD = "gradient_threshold"
    DT_UNDERFLOW = "dt_underflow"
    MARKERS_COLLIDED = "markers_collided"
    NONFINITE = "nonfinite"


def rk4(y, dt: float, k1, f):
    """Advance y by dt given its first stage k1 = f(y).

    Returns None as soon as a stage does: `f` returns None for a state it
    cannot evaluate.
    """
    ks = [k1]
    for coeff in (0.5, 0.5, 1.0):
        k = f(y + coeff * dt * ks[-1])
        if k is None:
            return None
        ks.append(k)
    k1, k2, k3, k4 = ks
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
