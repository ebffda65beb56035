"""The shared time loop, driven by a decaying scalar y' = -y."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from screened_transport.rk4 import DT_MIN, Stop, rk4, time_loop


@dataclass
class Toy:
    time: float
    y: float


def first_at(dt):
    return lambda st: (-st.y, dt)


def step(st, dt, k1):
    return Toy(st.time + dt, rk4(st.y, dt, k1, lambda y: -y)), None


def row(st, dt):
    return {"dt": dt, "y": st.y}


def never(st, rec):
    return False


def run(dt=0.1, t_max=1.0, output_interval=0.25, step=step, crossed=never, **kw):
    """(series, the snapshots handed out, stop); the final state the loop
    returns must be the last snapshot's."""
    snaps = []
    series, final, stop = time_loop(Toy(0.0, 1.0), t_max, first_at(dt), step, row, crossed,
                                    lambda t, s: snaps.append((t, s)), output_interval, **kw)
    assert final is snaps[-1][1]
    return series, snaps, stop


def test_steps_land_on_snapshot_times():
    _, snaps, stop = run(snapshot_times=[0.33, 0.05])
    assert stop is Stop.TIME_LIMIT
    assert [t for t, _ in snaps[:3]] == [0.0, 0.05, 0.33]
    assert [s.time for _, s in snaps[1:3]] == pytest.approx([0.05, 0.33], abs=1e-15)


@pytest.mark.parametrize("times", [[0.0, 0.5], [-0.1], [0.2, 0.2]])
def test_rejects_nonpositive_or_repeated_snapshot_times(times):
    with pytest.raises(ValueError, match="snapshot times"):
        run(snapshot_times=times)


def test_final_time_overshoots_t_max_by_1e13():
    series, snaps, _ = run(dt=0.3)
    assert snaps[-1][1].time == pytest.approx(1.0 + 1e-13, abs=1e-15)
    assert series.times[-1] == snaps[-1][1].time


def test_rows_at_zero_each_interval_and_close_with_last_dt():
    # steps of 0.1 record at 0.3 and 0.6; the short last step ends at 0.75
    series, _, _ = run(dt=0.1, t_max=0.75, output_interval=0.25)
    assert series.t == pytest.approx([0.0, 0.3, 0.6, 0.75])
    assert series.column("dt") == pytest.approx([0.0, 0.1, 0.1, 0.05])
    assert list(series.columns) == ["dt", "y"]


def test_snapshot_interval():
    _, snaps, _ = run(dt=0.1, t_max=1.0, snapshot_interval=0.35)
    assert [t for t, _ in snaps] == pytest.approx([0.0, 0.4, 0.8, 1.0], abs=1e-12)


def test_snapshots_are_handed_out_as_they_are_taken():
    # each snapshot reaches the consumer before the next step is taken
    seen, handed = [], []

    def counting(st, dt, k1):
        seen.append(len(handed))
        return step(st, dt, k1)

    series, final, _ = time_loop(Toy(0.0, 1.0), 1.0, first_at(0.25), counting, row, never,
                                 lambda t, s: handed.append(t), 0.25, snapshot_interval=0.5)
    assert handed == pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
    assert seen == [1, 1, 2, 2]
    # the last step ends on a snapshot, so the end is not handed out twice
    assert final.time == 1.0


def test_dt_at_floor_underflows():
    series, snaps, stop = run(dt=DT_MIN)
    assert stop is Stop.DT_UNDERFLOW
    assert len(series) == 1 and len(snaps) == 1


def test_step_failure_passes_through():
    def failing(st, dt, k1):
        if st.time >= 0.25:
            return st, Stop.NONFINITE
        return step(st, dt, k1)

    series, snaps, stop = run(step=failing)
    assert stop is Stop.NONFINITE
    assert snaps[-1][1].time == pytest.approx(0.3)
    assert series.times[-1] == snaps[-1][1].time


def test_threshold_stops_the_run():
    seen = []

    def crossed(st, rec):
        seen.append(rec is not None)
        return st.y <= 0.5

    series, snaps, stop = run(crossed=crossed)
    assert stop is Stop.GRADIENT_THRESHOLD
    assert snaps[-1][1].time == pytest.approx(0.7)
    assert snaps[-1][1].y <= 0.5
    # tested after every step, with the row only on the steps that recorded
    assert seen == [False, False, True, False, False, True, False]
    assert series.times[-1] == pytest.approx(0.7)


finite = st.floats(-1e6, 1e6, allow_subnormal=False)
# complex arrays, like the half spectra the 2-D solver advances
spectra = hnp.arrays(np.complex128, 7, elements=st.complex_numbers(
    max_magnitude=1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False))


def rk4_matches_formula(y, dt, k1, k2, k3, k4):
    """rk4 with stages k2..k4 handed out in turn, against the textbook
    formula; both the stage inputs and the result must agree bit for bit."""
    stages = iter([k2, k3, k4])
    inputs = []

    def f(x):
        inputs.append(x)
        return next(stages)

    got = rk4(y, dt, k1, f)
    expect = y + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    expect_inputs = [y + 0.5 * dt * k1, y + 0.5 * dt * k2, y + 1.0 * dt * k3]
    bits = [np.asarray(v).tobytes() for v in [got] + inputs]
    return bits == [np.asarray(v).tobytes() for v in [expect] + expect_inputs]


@given(finite, st.floats(1e-6, 1.0), finite, finite, finite, finite)
def test_rk4_is_the_formula_bit_for_bit_on_floats(y, dt, k1, k2, k3, k4):
    assert rk4_matches_formula(y, dt, k1, k2, k3, k4)


@given(spectra, st.floats(1e-6, 1.0), spectra, spectra, spectra, spectra)
def test_rk4_is_the_formula_bit_for_bit_on_arrays(y, dt, k1, k2, k3, k4):
    assert rk4_matches_formula(y, dt, k1, k2, k3, k4)
