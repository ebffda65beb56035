import math

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import PchipInterpolator

from screened_transport import (
    Params,
    RadialProfile,
    Stop,
    bump_profile,
    derivative_along_flow,
    radial_rhs,
    radial_velocity,
    run_radial,
)
from screened_transport import radial, transform
from screened_transport.kernels import psi
from screened_transport.radial import RadialState, blended_markers, step


P2 = Params(2, 1.0, 1.0)


def make_state(profile, M=64):
    labels = blended_markers(M, profile.support_radius)
    values = np.asarray(profile.value(labels), dtype=float)
    return RadialState(0.0, labels, labels.copy(), values)


class TestMarkers:
    def test_blended_markers_cover_interval(self):
        m = blended_markers(128, 2.0)
        assert m[0] == 0.0 and m[-1] == pytest.approx(2.0)
        assert np.all(np.diff(m) > 0.0)

    def test_clustering_refines_ends(self):
        m = blended_markers(256, 1.0)
        gaps = np.diff(m)
        assert gaps[0] < 0.5 * gaps.max()
        assert gaps[-1] < 0.5 * gaps.max()
        # bounded ratio: no quadratically collapsing end gaps
        assert gaps.min() > 0.2 / 256


class TestRadialRhs:
    def test_constant_profile_is_still(self):
        prof = RadialProfile(np.linspace(0, 1, 33), np.full(33, -0.7))
        state = RadialState(0.0, prof.nodes, prof.nodes.copy(), prof.values.copy())
        v = radial_rhs(state, P2)
        assert np.allclose(v, 0.0, atol=1e-13)

    def test_nondecreasing_profile_moves_inward(self):
        state = make_state(bump_profile(1.0, 1.0, 2.0))
        v = radial_rhs(state, P2)
        assert v[0] == 0.0
        assert np.all(v[1:] < 0.0)

    @pytest.mark.parametrize("datum", [bump_profile(1.0, 1.0, 4.0), None],
                             ids=["bump", "markers"])
    def test_time_zero_matches_radial_velocity(self, datum):
        # at t = 0 the flow map is the identity, so the label rule is the
        # radial rule on the datum at the labels; without a datum the state
        # takes the monotone cubic through its markers
        labels = blended_markers(64, 1.0)
        values = bump_profile(1.0, 1.0, 4.0).value(labels)
        state = RadialState(0.0, labels, labels.copy(), values, datum)
        v = radial_rhs(state, P2)
        want = radial_velocity(state.datum, P2, labels)
        assert v[0] == 0.0
        assert np.all(np.abs(v[1:] - want[1:]) <= 1e-13 * np.abs(want[1:]))

    @pytest.mark.parametrize("markers, checked, bound", [
        (32, [1, 2, 3, 4, 5, 6, 8, 12, 20, 31], 1e-5),
        (96, [2, 5, 7, 11, 15, 40, 95], 5e-5),
    ], ids=["32_markers", "96_markers"])
    def test_label_rule_matches_nested_quadrature_at_gradient_stop(self, markers, checked,
                                                                   bound):
        # the flow map's knots (the labels) are not panel ends of the label
        # rule, so on the crushed core of a run at its gradient stop (gap
        # ratio 4e-4) it carries an error of at most 5.5e-6 with 32 markers
        # and 2.4e-5 (at marker 11) with 96; the reference splits at every
        # label, on the same flow map and f_0'
        datum = bump_profile(1.0, 1.0, 4.0)
        res = run_radial(datum, P2, t_max=5.0, markers=markers, output_interval=0.5)
        assert res.stop_reason is Stop.GRADIENT_THRESHOLD
        _, state = res.states[-1]
        v = radial_rhs(state, P2)
        flow = PchipInterpolator(state.labels, state.positions)
        worst = 0.0
        for i in checked:
            r = float(state.positions[i])

            def integrand(s):
                x = float(flow(s))
                return float(datum.derivative(np.array([s]))[0]) * x ** 2 \
                    * float(psi(2, np.array([x / r]), 1.0 / r ** 2)[0])

            total = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                                       limit=200)[0]
                        for lo, hi in zip(state.labels[:-1], state.labels[1:]))
            want = -total / (math.pi * r ** 2)
            worst = max(worst, abs(v[i] - want) / abs(want))
        print(f"label rule against nested quad at t = {state.time:.4f}: {worst:.2e}")
        assert worst <= bound


class TestStep:
    def test_constant_profile_fixed_point(self):
        prof = RadialProfile(np.linspace(0, 1, 17), np.full(17, -0.4))
        state = RadialState(0.0, prof.nodes, prof.nodes.copy(), prof.values.copy())
        new, fail = step(state, 0.1, P2)
        assert fail is None
        assert np.allclose(new.positions, state.positions, atol=1e-14)

    def test_small_dt_moves_positions_linearly(self):
        state = make_state(bump_profile(1.0, 1.0, 2.0))
        v = radial_rhs(state, P2)
        dt = 1e-5
        new, fail = step(state, dt, P2)
        assert fail is None
        assert np.allclose(new.positions - state.positions, dt * v, atol=1e-12)

    def test_values_conserved_exactly(self):
        state = make_state(bump_profile(1.0, 1.0, 2.0))
        new, _ = step(state, 0.02, P2)
        assert np.array_equal(new.values, state.values)

    def test_forward_backward_returns_at_fifth_order(self):
        # negating the carried values exactly reverses the velocity field, so
        # a +dt step followed by a +dt step of the negated system returns to
        # the start up to the local truncation error O(dt^5)
        state = make_state(bump_profile(1.0, 1.0, 2.0), M=48)

        def return_error(dt):
            fwd, fail = step(state, dt, P2)
            assert fail is None
            flipped = RadialState(0.0, fwd.labels, fwd.positions.copy(), -fwd.values)
            back, fail = step(flipped, dt, P2)
            assert fail is None
            return np.max(np.abs(back.positions - state.positions))

        e1 = return_error(0.04)
        e2 = return_error(0.02)
        order = np.log2(e1 / e2)
        # adjoint composition can cancel the leading dt^5 term, so the
        # measured order may exceed 5; it must never fall below it
        assert order >= 4.3
        assert e1 <= 40.0 * 0.04 ** 5

    def test_rejects_nonpositive_dt(self):
        state = make_state(bump_profile(1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            step(state, 0.0, P2)


class TestRunRadial:
    def test_zero_data_runs_to_time_limit(self):
        prof = RadialProfile(np.linspace(0, 1, 9), np.zeros(9))
        res = run_radial(prof, P2, t_max=0.2, markers=32, output_interval=0.05)
        assert res.stop_reason is Stop.TIME_LIMIT
        assert np.allclose(res.series.column("sup_grad"), 0.0)
        assert np.allclose(res.series.column("i_delta"), 0.0)

    def test_collapse_run_structure(self):
        # gradient grows tenfold before any markers collide, monotone data
        # stays monotone, support only shrinks, the origin value is pinned
        prof = bump_profile(1.0, 1.0, 4.0)
        res = run_radial(prof, P2, t_max=5.0, gradient_factor=10.0,
                         markers=160, output_interval=0.02)
        assert res.stop_reason is Stop.GRADIENT_THRESHOLD
        sg = res.series.column("sup_grad")
        assert sg[-1] >= 10.0 * sg[0]
        assert np.all(np.diff(sg) >= -1e-9 * sg.max())
        support = res.series.column("support_radius")
        assert np.all(np.diff(support) <= 1e-12)
        origin = res.series.column("origin_value")
        assert np.all(origin == origin[0])
        t_final, state_final = res.states[-1]
        assert np.all(np.diff(state_final.values) >= 0.0)
        assert np.array_equal(state_final.values, res.initial_state.values)

    def test_four_velocity_evaluations_per_step(self, monkeypatch):
        # the velocity that sets the CFL step is also RK4's first stage
        calls = {"velocity": 0, "steps": 0}
        velocity, step_ = radial._velocity, radial.step

        def counted_velocity(*args, **kwargs):
            calls["velocity"] += 1
            return velocity(*args, **kwargs)

        def counted_step(*args, **kwargs):
            calls["steps"] += 1
            return step_(*args, **kwargs)

        monkeypatch.setattr(radial, "_velocity", counted_velocity)
        monkeypatch.setattr(radial, "step", counted_step)
        run_radial(bump_profile(1.0, 1.0, 4.0), P2, t_max=0.15, markers=24,
                   output_interval=0.01)
        assert calls["steps"] > 0
        assert calls["velocity"] == 4 * calls["steps"]

    def test_label_nodes_built_once_per_run(self, monkeypatch):
        # the panels in the labels are laid once per run, not once per stage:
        # one pass over the 23 targets
        calls = []
        panels = transform._radial_panels

        def counted_panels(*args, **kwargs):
            calls.append(len(args[0]))
            return panels(*args, **kwargs)

        monkeypatch.setattr(transform, "_radial_panels", counted_panels)
        res = run_radial(bump_profile(1.0, 1.0, 4.0), P2, t_max=0.15, markers=24,
                         output_interval=0.01)
        assert res.states[-1][0] >= 0.15
        assert calls == [23]

    def test_marker_convergence(self):
        # the positions at t = 0.6 converge at third order in the marker
        # count: the labels of M = 49, 97 and 193 are every 8th, 4th and 2nd
        # label of M = 385, against which they are measured
        datum = bump_profile(1.0, 1.0, 4.0)
        final = {}
        for M in (49, 97, 193, 385):
            res = run_radial(datum, P2, t_max=0.6, gradient_factor=np.inf, markers=M,
                             output_interval=0.6, snapshot_times=[0.6])
            assert res.stop_reason is Stop.TIME_LIMIT
            final[M] = dict(res.states)[0.6]
        ref = final[385]
        errors = []
        for M in (49, 97, 193):
            every = 384 // (M - 1)
            assert np.array_equal(ref.labels[::every], final[M].labels)
            errors.append(float(np.max(np.abs(final[M].positions - ref.positions[::every]))))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        print(f"marker convergence at t = 0.6: errors {errors}, orders {orders}")
        assert np.all(orders >= 2.7)

    @pytest.mark.parametrize("cfl", [1.5, -0.2, 0.0, 1.0])
    def test_rejects_bad_cfl(self, cfl):
        with pytest.raises(ValueError, match="cfl"):
            run_radial(bump_profile(1.0, 1.0, 4.0), P2, t_max=0.1, markers=16, cfl=cfl)

    @pytest.mark.parametrize("times", [[0.05, 0.05], [0.0, 0.05]])
    def test_rejects_repeated_or_nonpositive_snapshot_times(self, times):
        # a repeated time used to add a 1e-13 step and a second state
        # labelled 0.05; a time of 0 gave a state at t = 1e-13 labelled 0
        with pytest.raises(ValueError, match="snapshot times"):
            run_radial(bump_profile(1.0, 1.0, 4.0), P2, t_max=0.1, markers=16,
                       snapshot_times=times)

    def test_doubling_gravity_halves_threshold_time(self):
        prof = bump_profile(1.0, 1.0, 4.0)
        kw = dict(t_max=6.0, gradient_factor=4.0, markers=96, output_interval=0.01)
        t1 = run_radial(prof, Params(2, 1.0, 1.0), **kw).series.times[-1]
        t2 = run_radial(prof, Params(2, 1.0, 2.0), **kw).series.times[-1]
        assert t2 == pytest.approx(0.5 * t1, rel=0.05)

    def test_scaling_symmetry_single_step(self):
        # doubling the data amplitude and halving dt advances positions
        # identically (quadratic nonlinearity)
        lam = 2.0
        base = make_state(bump_profile(1.0, 1.0, 2.0), M=48)
        scaled = RadialState(0.0, base.labels, base.positions.copy(), lam * base.values)
        dt = 0.02
        s1, _ = step(base, dt, P2)
        s2, _ = step(scaled, dt / lam, P2)
        assert np.allclose(s1.positions, s2.positions, rtol=0, atol=1e-12)


@pytest.fixture(scope="class")
def short_run():
    prof = bump_profile(1.0, 1.0, 2.0)
    return run_radial(prof, P2, t_max=0.2, markers=256,
                      output_interval=0.05, snapshot_times=[0.2])


class TestDerivativeAlongFlow:
    def test_time_zero_reconstructions_coincide(self, short_run):
        rep = derivative_along_flow(short_run, at_time=0.0)
        assert rep["max_relative_discrepancy"] <= 1e-13

    def test_early_time_reconstructions_agree(self, short_run):
        rep = derivative_along_flow(short_run, at_time=0.2)
        assert rep["time"] == pytest.approx(0.2, abs=1e-9)
        assert rep["max_relative_discrepancy"] < 1e-3
        assert rep["min_derivative"] > -1e-8

    def test_constant_data_gives_zero(self):
        prof = RadialProfile(np.linspace(0, 1, 17), np.full(17, -0.3))
        res = run_radial(prof, P2, t_max=0.1, markers=32, output_interval=0.05)
        rep = derivative_along_flow(res)
        assert abs(rep["min_derivative"]) <= 1e-12
