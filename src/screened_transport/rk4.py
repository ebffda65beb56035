"""The RK4 step, the time loop and the stop reasons shared by both solvers.

Each solver evaluates its right-hand side once at the start of a step, to
set the CFL time step; that evaluation is also RK4's first stage, so a step
costs four evaluations.  `time_loop` owns the rest: the dt floor, snapshot
times, the output cadence and the closing diagnostics row.  It keeps no
snapshots: it hands each one to the solver's `snapshot` function as it is
taken, so what a run retains is the solver's choice.
"""

from __future__ import annotations

from enum import Enum

from .blowup import DiagnosticsSeries

DT_MIN = 1e-8


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
        stage = (coeff * dt) * ks[-1]
        stage += y
        k = f(stage)
        if k is None:
            return None
        ks.append(k)
    # y + (dt / 6) (k1 + 2 k2 + 2 k3 + k4) operation for operation, since
    # IEEE sums and products commute: the same bits with fewer temporaries
    k1, k2, k3, k4 = ks
    out = 2.0 * k2
    out += k1
    out += 2.0 * k3
    out += k4
    out *= dt / 6.0
    out += y
    return out


def time_loop(state, t_max: float, first, step, row, crossed, snapshot,
              output_interval: float, snapshot_times=None,
              snapshot_interval: float | None = None):
    """Advance `state` (any object with a `.time`) to t_max or a stop.

    `first(state)` gives (k1, CFL dt); a dt at or below DT_MIN stops the run.
    `step(state, dt, k1)` gives (new_state, None) or (state, Stop).
    `row(state, dt)` gives a diagnostics row, whose keys name the columns;
    `crossed(state, row or None)` tests the threshold after every step.
    `snapshot(time, state)` is called at t = 0, at each snapshot time
    (positive, distinct, landed on exactly), every `snapshot_interval`, and
    at the end, which overshoots t_max by 1e-13.
    Returns (series, final state, stop).
    """
    snapshot_times = sorted(snapshot_times or [])
    if any(t <= 0.0 for t in snapshot_times) or len(set(snapshot_times)) < len(snapshot_times):
        raise ValueError("snapshot times must be positive and distinct")
    first_row = row(state, 0.0)
    series = DiagnosticsSeries(list(first_row))
    series.append(state.time, **first_row)
    snapshot(state.time, state)
    last_snap = state.time
    stop = Stop.TIME_LIMIT
    next_record = output_interval
    next_snap = snapshot_interval or None
    si = 0
    dt_taken = 0.0
    while state.time < t_max:
        k1, dt = first(state)
        if dt <= DT_MIN * (1.0 + 1e-12):
            stop = Stop.DT_UNDERFLOW
            break
        target = None
        if si < len(snapshot_times) and state.time + dt >= snapshot_times[si]:
            target = snapshot_times[si]
            dt = max(target - state.time, 1e-13)
        elif state.time + dt > t_max:
            dt = t_max - state.time + 1e-13
        new, fail = step(state, dt, k1)
        if fail is not None:
            stop = fail
            break
        state, dt_taken = new, dt
        if target is not None:
            snapshot(target, state)
            last_snap = target
            si += 1
        elif next_snap is not None and state.time >= next_snap:
            snapshot(state.time, state)
            last_snap = state.time
            next_snap = state.time + snapshot_interval
        recorded = None
        if state.time >= next_record:
            recorded = row(state, dt)
            series.append(state.time, **recorded)
            next_record = state.time + output_interval
        if crossed(state, recorded):
            stop = Stop.GRADIENT_THRESHOLD
            break
    if series.times[-1] < state.time:
        series.append(state.time, **row(state, dt_taken))
    if last_snap < state.time:
        snapshot(state.time, state)
    return series, state, stop
