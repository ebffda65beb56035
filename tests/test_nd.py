import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.fft as sfft

from screened_transport import (
    NdState,
    Stop,
    Params,
    ScalarField,
    bkm_partial_integral,
    bump_profile,
    make_grid,
    rhs,
    run_nd,
    sample_radial,
    screened_riesz_divergence,
    sobolev_norm,
    step_rk4,
)
from screened_transport import ndsolver
from screened_transport.blowup import DiagnosticsSeries
from screened_transport.ndsolver import _Workspace, _cfl_dt

from conftest import full_grid


P2 = Params(2, 1.0, 1.0)


@pytest.fixture(scope="module")
def grid96():
    return make_grid(2, 4.0, 96)


def masked(field):
    g = field.grid
    return ScalarField(g, sfft.ifftn(sfft.fftn(field.values) * full_grid(g).dealias).real)


def bump_state(grid, depth=1.0, sharp=2.0, L=1.0, params=P2):
    return NdState(0.0, sample_radial(bump_profile(L, depth, sharp), grid), params)


class TestRhs:
    def test_constant_state_is_steady(self, grid96):
        state = NdState(0.0, ScalarField(grid96, np.full(grid96.shape, 1.5)), P2)
        assert np.abs(rhs(state).values).max() <= 1e-13

    def test_radial_data_keeps_origin_still(self, grid96):
        # the velocity itself vanishes at the origin to roundoff; the full
        # rhs additionally carries the (resolution-dependent) dealiasing
        # projection residue there
        from screened_transport import screened_riesz
        state = bump_state(make_grid(2, 4.0, 256), L=2.0, sharp=4.0)
        vel = screened_riesz(state.rho, P2)
        o = state.rho.grid.origin_index
        assert abs(vel.components[0][o]) <= 1e-13
        assert abs(vel.components[1][o]) <= 1e-13
        out = rhs(state)
        assert abs(out.values[o]) <= 1e-6 * np.abs(out.values).max()

    def test_integration_by_parts_identity(self):
        # int rho * rhs == (g/2) int rho^2 div(R_a rho) for band-limited,
        # well-resolved states (the residual is cubic-product aliasing at the
        # very top of the retained band)
        g = make_grid(2, 4.0, 128)
        state = NdState(0.0, masked(bump_state(g, L=2.0, sharp=2.0).rho), P2)
        out = rhs(state)
        h = g.cell_volume
        lhs = np.sum(state.rho.values * out.values) * h
        div = screened_riesz_divergence(state.rho, P2)
        rhs_ = 0.5 * P2.g * np.sum(state.rho.values ** 2 * div.values) * h
        assert abs(lhs - rhs_) <= 1e-10 * max(1.0, abs(lhs), abs(rhs_))

    def test_rhs_is_dealiased(self, grid96):
        out = rhs(bump_state(grid96))
        sp = np.abs(sfft.fftn(out.values))
        assert sp[~full_grid(grid96).dealias].max() <= 1e-12 * sp.max()

    @pytest.mark.parametrize("N", [96, 98])
    def test_product_of_kept_modes_does_not_alias(self, N):
        # cos(32 pi y / 4) is mode 32 on [-4, 4).  Its products hold mode 64,
        # which aliases to 64 - N: onto the mode -32 at N = 96, where 3 | N
        # and mode N/3 must therefore be dropped, and onto -34 at N = 98
        g = make_grid(2, 4.0, N)
        rho = ScalarField(g, np.cos(32.0 * np.pi * g.coords[1] / 4.0))
        sp = np.abs(sfft.rfftn(rhs(NdState(0.0, rho, P2)).values))
        assert sp[0, 32] <= 1e-12 * g.size


def oracle_advection(field, params):
    """The complex-FFT advection on the full grid: fftn, full-grid
    multipliers, ifftn(...).real and re-truncation."""
    g = field.grid
    fg = full_grid(g)
    kk, nyq = fg.magnitude, fg.nyquist
    screen = -np.expm1(-params.a * kk)
    sp = sfft.fftn(field.values) * fg.dealias
    adv = np.zeros(g.shape)
    u2 = np.zeros(g.shape)
    for k in fg.wavenumbers:
        direction = np.where(nyq | (kk == 0.0), 0.0, k / np.where(kk > 0.0, kk, 1.0))
        u = sfft.ifftn(-1j * direction * screen * sp).real
        adv += u * sfft.ifftn(np.where(nyq, 0.0, 1j * k) * sp).real
        u2 += u * u
    out = -params.g * sfft.ifftn(sfft.fftn(adv) * fg.dealias).real
    return out, np.sqrt(u2.max())


class TestAdvectionOracle:
    @pytest.mark.parametrize("n,N", [(2, 64), (3, 16)])
    def test_matches_complex_fft_advection(self, n, N):
        rng = np.random.default_rng(2024 + n)
        g = make_grid(n, 3.0, N)
        params = Params(n, 0.7, 1.3)
        # band-limited: keep integer modes |m| <= N/4 on every axis
        band = np.ones(g.shape, dtype=bool)
        for k in full_grid(g).wavenumbers:
            band &= np.abs(k) * g.half_width / np.pi <= N / 4
        field = ScalarField(g, sfft.ifftn(sfft.fftn(rng.standard_normal(g.shape)) * band).real)
        expect, expect_speed = oracle_advection(field, params)
        sp, speed = _Workspace(g, params).advection(field.half_spectrum)
        got = sfft.irfftn(sp, s=g.shape)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        assert speed == pytest.approx(expect_speed, rel=1e-13)


class TestWorkspaceTransforms:
    @staticmethod
    def transforms(n, N):
        """(workspace result, scipy result) for the forward and the inverse."""
        rng = np.random.default_rng(7 * n + N)
        g = make_grid(n, 3.0, N)
        ws = _Workspace(g, Params(n, 0.7, 1.3))
        x = rng.standard_normal(g.shape)
        sp = sfft.rfftn(rng.standard_normal(g.shape))
        return [(ws.forward(x), sfft.rfftn(x)),
                (ws.inverse(sp), sfft.irfftn(sp, s=g.shape))]

    @pytest.mark.parametrize("n,N", [(2, 64), (2, 96), (3, 16)])
    def test_match_scipy(self, n, N):
        for got, expect in self.transforms(n, N):
            assert np.max(np.abs(got - expect)) <= 1e-15 * np.max(np.abs(expect))

    @pytest.mark.parametrize("n,N", [(2, 64), (2, 96), (3, 16)])
    def test_bit_identical_to_scipy(self, n, N):
        # n = 3 pins the increasing order of the leading axes and N = 96 the
        # one 1/N^n scaling of the inverse: either change moves only the
        # last bit (3e-16 of the largest value), inside test_match_scipy's bound
        for got, expect in self.transforms(n, N):
            assert np.array_equal(got, expect)

    @pytest.mark.parametrize("n,N", [(2, 64), (3, 16)])
    def test_advection_is_the_full_width_scipy_advection(self, n, N):
        # the banded inverse skips only columns the 2/3 mask zeroes, so the
        # advection of a spectrum with every mode set keeps its bits
        rng = np.random.default_rng(11 * n + N)
        g = make_grid(n, 3.0, N)
        ws = _Workspace(g, Params(n, 0.7, 1.3))
        sp = sfft.rfftn(rng.standard_normal(g.shape))
        adv = np.zeros(g.shape)
        u2 = np.zeros(g.shape)
        for vm, gm in zip(ws.vel_mult, ws.grad_mult):
            u = sfft.irfftn(vm * sp, s=g.shape)
            adv += u * sfft.irfftn(gm * sp, s=g.shape)
            u2 += u * u
        got, speed = ws.advection(sp)
        assert np.array_equal(got, ws.out_mult * sfft.rfftn(adv))
        assert speed == np.sqrt(u2.max())

    def test_advection_allocates_only_its_spectrum(self):
        g = make_grid(2, 4.0, 64)
        ws = _Workspace(g, P2)
        sp = sample_radial(bump_profile(1.0, 1.0, 2.0), g).half_spectrum
        ws.advection(sp)
        tracemalloc.start()
        try:
            out, _ = ws.advection(sp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * out.nbytes


class TestStepRk4:
    def test_zero_field_fixed_point(self, grid96):
        state = NdState(0.0, ScalarField(grid96, np.zeros(grid96.shape)), P2)
        new, fail = step_rk4(state, 0.01)
        assert fail is None
        assert np.abs(new.rho.values).max() == 0.0

    @pytest.mark.filterwarnings("error")
    def test_detects_nonfinite(self, grid96):
        vals = np.zeros(grid96.shape)
        vals[0, 0] = np.inf
        state = NdState(0.0, ScalarField(grid96, vals), P2)
        _, fail = step_rk4(state, 0.01)
        assert fail is Stop.NONFINITE

    def test_richardson_order_is_four(self, grid96):
        # measured convergence order of one-step errors in [3.7, 4.3]
        state = NdState(0.0, masked(bump_state(grid96, depth=0.5).rho), P2)
        ws = _Workspace(grid96, P2)

        def advance(dt, steps):
            s = state
            for _ in range(steps):
                s, fail = step_rk4(s, dt, ws)
                assert fail is None
            return s.rho.values

        dt = 0.1
        a = advance(dt, 2)
        b = advance(dt / 2, 4)
        c = advance(dt / 4, 8)
        e1 = np.max(np.abs(a - c))
        e2 = np.max(np.abs(b - c))
        # with the dt/4 run as reference: e1/e2 ~ (16 - 1) / (16/4... ) use
        # the standard two-level ratio against the halved step instead
        order = np.log2(np.max(np.abs(a - b)) / np.max(np.abs(b - c)))
        assert 3.7 <= order <= 4.3

    def test_two_half_steps_match_one_full_step_to_fifth_order(self, grid96):
        state = NdState(0.0, masked(bump_state(grid96, depth=0.5).rho), P2)
        ws = _Workspace(grid96, P2)

        def gap(dt):
            one, _ = step_rk4(state, dt, ws)
            half, _ = step_rk4(state, dt / 2, ws)
            two, _ = step_rk4(half, dt / 2, ws)
            return np.max(np.abs(one.rho.values - two.rho.values))

        g1, g2 = gap(0.1), gap(0.05)
        # both one-step errors are O(dt^5), so the gap contracts 32-fold
        assert g1 / g2 == pytest.approx(32.0, rel=0.35)

    def test_scaling_symmetry_exact_per_step(self, grid96):
        lam = 3.0
        base = NdState(0.0, masked(bump_state(grid96).rho), P2)
        scaled = NdState(0.0, ScalarField(grid96, lam * base.rho.values), P2)
        ws = _Workspace(grid96, P2)
        s1, _ = step_rk4(base, 0.05, ws)
        s2, _ = step_rk4(scaled, 0.05 / lam, ws)
        assert np.allclose(lam * s1.rho.values, s2.rho.values, atol=1e-12)


def cfl_dt(state, cfl, dt_max):
    """The CFL step `run_nd` takes from the advection's max speed."""
    grid, params = state.rho.grid, state.params
    _, umax = _Workspace(grid, params).advection(state.rho.half_spectrum)
    return _cfl_dt(cfl, grid.spacing, params.g * umax, dt_max)


class TestAdaptiveDt:
    def test_zero_field_returns_dt_max(self, grid96):
        state = NdState(0.0, ScalarField(grid96, np.zeros(grid96.shape)), P2)
        assert cfl_dt(state, 0.4, dt_max=0.07) == 0.07

    def test_doubling_gravity_halves_dt(self, grid96):
        s1 = bump_state(grid96, params=Params(2, 1.0, 1.0))
        s2 = bump_state(grid96, params=Params(2, 1.0, 2.0))
        d1 = cfl_dt(s1, 0.4, dt_max=10.0)
        d2 = cfl_dt(s2, 0.4, dt_max=10.0)
        assert d2 == pytest.approx(0.5 * d1, rel=1e-12)

    def test_rejects_bad_cfl(self, grid96):
        with pytest.raises(ValueError):
            cfl_dt(bump_state(grid96), 1.5, dt_max=0.05)


class TestRunNd:
    def test_zero_data_flat_diagnostics(self, grid96):
        rho0 = ScalarField(grid96, np.zeros(grid96.shape))
        res = run_nd(rho0, P2, t_max=0.1, output_interval=0.02, support_radius=1.0)
        assert res.stop_reason is Stop.TIME_LIMIT
        assert np.allclose(res.series.column("sup_grad"), 0.0)
        assert np.allclose(res.series.column("l2"), 0.0)
        assert np.allclose(res.series.column("i_delta"), 0.0)

    def test_four_advections_per_step(self, grid96, monkeypatch):
        # the advection that sets the CFL step is also RK4's first stage
        calls = {"advection": 0, "steps": 0}
        advection, step = _Workspace.advection, ndsolver.step_rk4

        def counted_advection(self, sp):
            calls["advection"] += 1
            return advection(self, sp)

        def counted_step(*args, **kwargs):
            calls["steps"] += 1
            return step(*args, **kwargs)

        monkeypatch.setattr(_Workspace, "advection", counted_advection)
        monkeypatch.setattr(ndsolver, "step_rk4", counted_step)
        rho0 = masked(sample_radial(bump_profile(1.0, 1.0, 2.0), grid96))
        run_nd(rho0, P2, t_max=0.1, output_interval=0.05, support_radius=1.0)
        assert calls["steps"] > 0
        assert calls["advection"] == 4 * calls["steps"]

    def test_one_step_makes_42_one_axis_passes(self, monkeypatch):
        # 21 real FFTs per 2-D step (per stage 2 + 2 inverse and 1 forward,
        # plus one inverse for the new samples), each of them two one-axis
        # passes; the benchmark counts them through ndsolver.sfft
        calls = []
        real = ndsolver.sfft

        class Counting:
            def __getattr__(self, name):
                fn = getattr(real, name)

                def counted(*args, **kwargs):
                    calls.append(name)
                    return fn(*args, **kwargs)
                return counted

        monkeypatch.setattr(ndsolver, "sfft", Counting())
        grid = make_grid(2, 4.0, 64)
        rho0 = masked(sample_radial(bump_profile(1.0, 1.0, 2.0), grid))
        res = run_nd(rho0, P2, t_max=0.01, output_interval=0.05, support_radius=1.0)
        assert [t for t, _ in res.snapshots] == [0.0, pytest.approx(0.01)]
        assert len(calls) == 42
        assert Counter(calls) == {"ifft": 17, "irfft": 17, "rfft": 4, "fft": 4}

    def test_final_row_records_last_dt(self):
        # the run ends on the time limit with a short step of 0.02 after
        # steps of 0.05; the closing row must carry 0.02
        grid = make_grid(2, 4.0, 64)
        rho0 = sample_radial(bump_profile(2.0, 1.0, 4.0), grid)
        with pytest.warns(UserWarning, match="spectral tail"):
            res = run_nd(rho0, P2, t_max=0.37, output_interval=0.15)
        assert res.stop_reason is Stop.TIME_LIMIT
        assert res.series.t == pytest.approx([0.0, 0.15, 0.35, 0.37])
        assert res.series.column("dt") == pytest.approx([0.0, 0.05, 0.05, 0.02])

    @pytest.mark.parametrize("cfl", [1.5, -0.2, 0.0, 1.0])
    def test_rejects_bad_cfl(self, cfl):
        grid = make_grid(2, 4.0, 32)
        rho0 = ScalarField(grid, np.zeros(grid.shape))
        with pytest.raises(ValueError, match="cfl"):
            run_nd(rho0, P2, t_max=0.1, cfl=cfl, support_radius=1.0)

    def test_records_requested_snapshot_times(self, grid96):
        rho0 = sample_radial(bump_profile(1.0, 1.0, 2.0), grid96)
        res = run_nd(rho0, P2, t_max=0.3, output_interval=0.05,
                     snapshot_times=[0.1, 0.2], support_radius=1.0)
        times = [t for t, _ in res.snapshots]
        assert 0.0 in times
        assert any(abs(t - 0.1) < 1e-9 for t in times)
        assert any(abs(t - 0.2) < 1e-9 for t in times)

    def test_scaling_symmetry_adaptive(self, grid96):
        # lambda rho_0 run to t/lambda matches the rho_0 run at t after
        # dividing by lambda, on a smooth window
        lam = 2.0
        rho0 = sample_radial(bump_profile(1.0, 1.0, 2.0), grid96)
        scaled = ScalarField(grid96, lam * rho0.values)
        r1 = run_nd(rho0, P2, t_max=0.4, output_interval=0.1,
                    snapshot_times=[0.4], support_radius=1.0)
        r2 = run_nd(scaled, P2, t_max=0.4 / lam, output_interval=0.05,
                    snapshot_times=[0.4 / lam], support_radius=1.0)
        f1 = [s for t, s in r1.snapshots if abs(t - 0.4) < 1e-9][0]
        f2 = [s for t, s in r2.snapshots if abs(t - 0.2) < 1e-9][0]
        diff = ScalarField(grid96, f2.values / lam - f1.values)
        assert diff.l2_norm() <= 1e-4 * f1.l2_norm()

    def test_l2_growth_matches_divergence_identity(self, grid96):
        # d/dt ||rho||^2 == g int rho^2 div(R_a rho) within time-step error
        rho0 = masked(sample_radial(bump_profile(1.0, 1.0, 2.0), grid96))
        res = run_nd(rho0, P2, t_max=0.2, output_interval=0.02, support_radius=1.0)
        t = res.series.t
        l2 = res.series.column("l2")
        # snapshot one interior time and compare the centered difference of
        # the recorded norm against the divergence identity evaluated there
        tm = float(t[len(t) // 2])
        res2 = run_nd(rho0, P2, t_max=0.2, output_interval=0.02,
                      snapshot_times=[tm], support_radius=1.0)
        snap = [s for tt, s in res2.snapshots if abs(tt - tm) < 1e-9][0]
        div = screened_riesz_divergence(snap, P2)
        identity = P2.g * np.sum(snap.values ** 2 * div.values) * grid96.cell_volume
        i = int(np.argmin(np.abs(t - tm)))
        dl2sq = (l2[i + 1] ** 2 - l2[i - 1] ** 2) / (t[i + 1] - t[i - 1])
        assert dl2sq == pytest.approx(identity, rel=2e-3, abs=1e-8)

    def test_lipschitz_in_time_quotient_is_stable(self, grid96):
        # ||rho(t2) - rho(t1)||_{H^{s-1}} / (t2 - t1) stays bounded and is
        # stable under halving the sampling interval (time regularity check)
        rho0 = sample_radial(bump_profile(1.0, 1.0, 2.0), grid96)
        res = run_nd(rho0, P2, t_max=0.2, output_interval=0.04,
                     snapshot_times=[0.05, 0.1, 0.15, 0.2], support_radius=1.0)
        snaps = dict((round(t, 6), s) for t, s in res.snapshots)
        q_coarse = sobolev_norm(
            ScalarField(grid96, snaps[0.2].values - snaps[0.1].values), 2.0) / 0.1
        q_fine = sobolev_norm(
            ScalarField(grid96, snaps[0.15].values - snaps[0.1].values), 2.0) / 0.05
        assert np.isfinite(q_coarse) and q_coarse > 0
        assert q_fine == pytest.approx(q_coarse, rel=0.5)


class TestBkmIntegral:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            bkm_partial_integral(DiagnosticsSeries(["sup_grad"]))

    def test_constant_integrand_exact(self):
        s = DiagnosticsSeries(["sup_grad"])
        for t in np.linspace(0.0, 2.0, 9):
            s.append(t, sup_grad=3.0)
        assert bkm_partial_integral(s) == pytest.approx(6.0, rel=1e-14)

    def test_flat_zero_series(self):
        s = DiagnosticsSeries(["sup_grad"])
        for t in (0.0, 0.5, 1.0):
            s.append(t, sup_grad=0.0)
        assert bkm_partial_integral(s) == 0.0
