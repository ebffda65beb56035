"""The shared time loop, driven by a decaying scalar y' = -y."""

from dataclasses import dataclass

import pytest

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
    return time_loop(Toy(0.0, 1.0), t_max, first_at(dt), step, row, crossed,
                     output_interval, **kw)


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
