import math

import numpy as np
import pytest
from scipy import integrate

from screened_transport import (
    Params,
    ScalarField,
    bump_profile,
    conjugate_poisson,
    evaluate_at,
    fractional_laplacian,
    limit_report,
    make_grid,
    radial_velocity,
    riesz,
    sample_radial,
    screened_riesz,
    screened_riesz_direct,
    screened_riesz_divergence,
)
from screened_transport import transform
from screened_transport.inequalities import TestFunctionFamily

from conftest import full_grid


def _nested_quad_psi(n, q, c):
    """Psi_n(q, c) = int_0^pi sin^n mu [A^-e - (A + c)^-e] dmu, e = (n+1)/2,
    A = 1 - 2 q cos mu + q^2, by adaptive quadrature; the bracket is written
    without cancellation and the interval is split geometrically around the
    peak at mu ~ |1 - q|."""
    e = 0.5 * (n + 1)

    def integrand(mu):
        A = (1.0 - q) ** 2 + 4.0 * q * math.sin(0.5 * mu) ** 2
        return math.sin(mu) ** n * A ** -e * -math.expm1(-e * math.log1p(c / A))

    split = min(abs(1.0 - q), 0.5 * math.pi)
    pts = [0.0] + [split * 2.0 ** k for k in range(40) if split * 2.0 ** k < math.pi] + [math.pi]
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
               for lo, hi in zip(pts[:-1], pts[1:]) if hi > lo)


def _nested_quad_velocity(prof, n, a, r):
    """u_r(r) = -(pi r^n)^-1 int_0^L f'(rho) rho^n Psi_n(rho/r, (a/r)^2) drho,
    split at the profile's breakpoints (where f'' jumps), at the log
    singularity rho = r and at r 2^k; a breakpoint within r/4 of r adds the
    points r + (b - r) 2^k, so that no interval sees the singularity much
    closer than its own length.  Each piece aims at 1e-12 relative, with an
    absolute floor of 1e-14 times a first pass at 1e-6 over all pieces, so
    that a piece whose integral nearly vanishes does not chase roundoff."""
    def integrand(rho):
        return float(prof.derivative(np.array([rho]))[0]) * rho ** n \
            * _nested_quad_psi(n, rho / r, (a / r) ** 2)

    L = prof.support_radius
    pts = {0.0, L, *(b for b in prof.breakpoints if 0.0 < b < L)}
    if r < L:
        pts |= {r, *(r * 2.0 ** k for k in range(-1, 60) if r * 2.0 ** k < L)}
        gap = min((b - r for b in pts if b != r), key=abs)
        if abs(gap) < 0.25 * r:
            pts |= {r + gap * 2.0 ** k for k in range(1, 60) if abs(gap) * 2.0 ** k < 0.5 * r}
    pts = sorted(pts)
    pieces = list(zip(pts[:-1], pts[1:]))
    rough = sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-6, limit=200)[0]
                for lo, hi in pieces)
    total = sum(integrate.quad(integrand, lo, hi, epsabs=1e-14 * abs(rough), epsrel=1e-12,
                               limit=200)[0]
                for lo, hi in pieces)
    return -total / (math.pi * r ** n)


@pytest.fixture
def psi_inputs(monkeypatch):
    """The q arrays `radial_velocity` hands to `psi`, call by call."""
    seen = []
    psi = transform.psi

    def recorded_psi(n, q, c):
        seen.append(np.array(q))
        return psi(n, q, c)

    monkeypatch.setattr(transform, "psi", recorded_psi)
    return seen


@pytest.fixture(scope="module")
def grid64():
    return make_grid(2, 4.0, 64)


@pytest.fixture(scope="module")
def bump64(grid64):
    return sample_radial(bump_profile(1.0, 1.0, 1.0), grid64)


def random_field(grid, rng, zero_mean=False):
    vals = rng.standard_normal(grid.shape)
    if zero_mean:
        vals -= vals.mean()
    return ScalarField(grid, vals)


class TestSpectralBackend:
    def test_zero_field(self, grid64):
        p = Params(2, 1.0, 1.0)
        out = screened_riesz(ScalarField(grid64, np.zeros(grid64.shape)), p)
        assert out.max_magnitude() == 0.0

    def test_constant_field(self, grid64):
        p = Params(2, 1.0, 1.0)
        out = screened_riesz(ScalarField(grid64, np.full(grid64.shape, 3.0)), p)
        assert out.max_magnitude() <= 1e-14

    def test_componentwise_symbol_magnitude(self, grid64, rng):
        # |component_j spectrum| = (1 - e^{-a|k|}) |k_j| / |k| |f_hat|
        import scipy.fft as sfft
        p = Params(2, 0.7, 1.0)
        f = random_field(grid64, rng)
        out = screened_riesz(f, p)
        fg = full_grid(grid64)
        kk = fg.magnitude
        fh = np.abs(sfft.fftn(f.values))
        for j in range(2):
            got = np.abs(sfft.fftn(out.components[j]))
            kj = np.abs(fg.wavenumbers[j])
            expect = np.where(kk > 0, -np.expm1(-p.a * kk) * kj / np.where(kk > 0, kk, 1.0), 0.0) * fh
            expect[fg.nyquist] = 0.0
            assert np.max(np.abs(got - expect)) <= 1e-9 * fh.max()

    def test_l2_contraction(self, grid64, rng):
        p = Params(2, 1.3, 1.0)
        f = random_field(grid64, rng)
        assert screened_riesz(f, p).l2_norm() <= f.l2_norm() * (1.0 + 1e-12)

    def test_commutes_with_fractional_laplacian(self, grid64, rng):
        p = Params(2, 0.9, 1.0)
        f = random_field(grid64, rng)
        s = 1.7
        a = screened_riesz(fractional_laplacian(f, s), p).l2_norm()
        b = VectorLambda = [fractional_laplacian(ScalarField(grid64, c), s)
                            for c in screened_riesz(f, p).components]
        b = np.sqrt(sum(x.l2_norm() ** 2 for x in VectorLambda))
        assert a == pytest.approx(b, rel=1e-12)

    def test_sobolev_contraction(self, grid64, rng):
        # componentwise: ||R_a f||_{H^s} <= ||f||_{H^s} with the vector L2
        from screened_transport import sobolev_norm
        p = Params(2, 1.0, 1.0)
        f = random_field(grid64, rng)
        s = 2.0
        out = screened_riesz(f, p)
        lhs_l2 = out.l2_norm()
        lhs_hs = np.sqrt(sum(fractional_laplacian(ScalarField(grid64, c), s).l2_norm() ** 2
                             for c in out.components))
        assert lhs_l2 + lhs_hs <= sobolev_norm(f, s) * (1.0 + 1e-12)


class TestKernelAlgebra:
    def test_riesz_minus_poisson_is_screened(self, grid64, rng):
        import scipy.fft as sfft
        p = Params(2, 0.6, 1.0)
        f = random_field(grid64, rng)
        r = riesz(f)
        q = conjugate_poisson(f, p)
        s = screened_riesz(f, p)
        scale = max(np.abs(sfft.fftn(f.values)).max(), 1.0)
        for j in range(2):
            lhs = sfft.fftn(r.components[j]) - sfft.fftn(q.components[j])
            rhs = sfft.fftn(s.components[j])
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_poisson_vanishes_at_large_screening(self, grid64, rng):
        # a |k_min| > 40 makes e^{-a|k|} underflow every nonzero mode
        k_min = np.pi / grid64.half_width
        a = 41.0 / k_min
        f = random_field(grid64, rng, zero_mean=True)
        assert conjugate_poisson(f, Params(2, a, 1.0)).l2_norm() <= 1e-12 * f.l2_norm()

    def test_screened_approaches_riesz(self, grid64, rng):
        k_min = np.pi / grid64.half_width
        a = 41.0 / k_min
        f = random_field(grid64, rng, zero_mean=True)
        p = Params(2, a, 1.0)
        r = riesz(f)
        s = screened_riesz(f, p)
        gap = np.sqrt(sum(ScalarField(grid64, r.components[j] - s.components[j]).l2_norm() ** 2
                          for j in range(2)))
        assert gap <= 1e-10 * f.l2_norm()

    def test_riesz_single_mode(self, grid64):
        # riesz of cos(k.x) has component j equal to (k_j/|k|) sin(k.x)
        kx = 3 * np.pi / 4.0
        ky = 2 * np.pi / 4.0
        kk = np.hypot(kx, ky)
        x, y = grid64.coords
        f = ScalarField(grid64, np.cos(kx * x + ky * y))
        out = riesz(f)
        assert np.allclose(out.components[0], kx / kk * np.sin(kx * x + ky * y), atol=1e-12)
        assert np.allclose(out.components[1], ky / kk * np.sin(kx * x + ky * y), atol=1e-12)
        # unit symbol: vector L2 equals the input L2 for a single mode
        assert out.l2_norm() == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_riesz_l2_bound(self, grid64, rng):
        f = random_field(grid64, rng)
        assert riesz(f).l2_norm() <= f.l2_norm() * (1.0 + 1e-12)

    def test_divergence_multiplier(self, grid64, rng):
        import scipy.fft as sfft
        p = Params(2, 0.8, 1.0)
        f = random_field(grid64, rng)
        div_direct = screened_riesz_divergence(f, p)
        u = screened_riesz(f, p)
        fg = full_grid(grid64)
        acc = np.zeros(grid64.shape, dtype=complex)
        for j in range(2):
            mult = np.where(fg.nyquist, 0.0, 1j * fg.wavenumbers[j])
            acc += mult * sfft.fftn(u.components[j])
        got = sfft.ifftn(acc).real
        assert np.allclose(got, div_direct.values, atol=1e-10 * np.abs(f.values).max())


class TestEquivariance:
    def test_quarter_turn_2d(self, grid64):
        # for a quarter turn O, R(f o O)(x) = O^T (R f)(O x); on the lattice
        # O (x, y) = (-y, x) is np.rot90 of the sample array
        p = Params(2, 1.0, 1.0)
        prof = bump_profile(1.0, 1.0, 2.0)
        x, y = grid64.coords
        base = prof.value(np.hypot(x - 0.25, y - 0.5))  # not centered: generic field
        f = ScalarField(grid64, base)
        out = screened_riesz(f, p)
        rotated = ScalarField(grid64, prof.value(np.hypot(y - 0.25, -x - 0.5)))
        out_rot = screened_riesz(rotated, p)
        # O^T (u, v)(Ox) with O(x,y)=(-y,x): components at (x,y) are
        # (v(-y,x), -u(-y,x)); compare via trig interpolation at sample points
        # rotated = f o O with O(x, y) = (y, -x); then
        # R(f o O)(x, y) = O^T (R f)(O(x, y)) = (-v(y, -x), u(y, -x))
        pts = [(0.3, 0.1), (-0.4, 0.6), (0.05, -0.2)]
        for (px, py) in pts:
            u_at = evaluate_at(ScalarField(grid64, out.components[0]), [(py, -px)])[0]
            v_at = evaluate_at(ScalarField(grid64, out.components[1]), [(py, -px)])[0]
            got_u = evaluate_at(ScalarField(grid64, out_rot.components[0]), [(px, py)])[0]
            got_v = evaluate_at(ScalarField(grid64, out_rot.components[1]), [(px, py)])[0]
            assert got_u == pytest.approx(-v_at, abs=1e-10)
            assert got_v == pytest.approx(u_at, abs=1e-10)


class TestDirectBackend:
    def test_zero_field(self, grid64):
        p = Params(2, 1.0, 1.0)
        f = ScalarField(grid64, np.zeros(grid64.shape))
        out = screened_riesz_direct(f, p, [(0.5, 0.0)], support_radius=1.0)
        assert np.allclose(out, 0.0)

    def test_radial_field_zero_at_origin(self, bump64):
        p = Params(2, 1.0, 1.0)
        out = screened_riesz_direct(bump64, p, [(0.0, 0.0)], support_radius=1.0)
        assert np.linalg.norm(out) <= 1e-10

    def test_matches_spectral_at_grid_point(self):
        g = make_grid(2, 4.0, 128)
        p = Params(2, 1.0, 1.0)
        f = sample_radial(bump_profile(1.0, 1.0, 1.0), g)
        direct = screened_riesz_direct(f, p, [(0.5, 0.0)], support_radius=1.0)[0]
        spec = screened_riesz(f, p)
        i0 = g.origin_index[0]
        j = i0 + 8  # x = 0.5 on this grid
        got = np.array([spec.components[0][j, i0], spec.components[1][j, i0]])
        assert np.linalg.norm(direct - got) <= 1e-3 * np.linalg.norm(got)

    def test_3d_matches_radial_reduction(self):
        g = make_grid(3, 4.0, 64)
        p = Params(3, 1.0, 1.0)
        prof = bump_profile(1.0, 1.0, 1.0)
        f = sample_radial(prof, g)
        out = screened_riesz_direct(f, p, [(0.5, 0.0, 0.0)], support_radius=1.0)[0]
        want = radial_velocity(prof, p, 0.5)
        assert out[0] == pytest.approx(want, rel=5e-3)
        assert abs(out[1]) < 1e-8 and abs(out[2]) < 1e-8


class TestRadialVelocity:
    def test_zero_at_origin(self):
        p = Params(2, 1.0, 1.0)
        assert radial_velocity(bump_profile(1.0, 1.0, 1.0), p, 0.0) == 0.0

    def test_constant_profile_gives_zero(self):
        from screened_transport import RadialProfile
        p = Params(2, 1.0, 1.0)
        prof = RadialProfile(np.linspace(0, 1, 11), np.full(11, -0.5))
        assert radial_velocity(prof, p, 0.5) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_nondecreasing_profile_moves_inward(self, n, a):
        p = Params(n, a, 1.0)
        prof = bump_profile(1.0, 1.0, 2.0)
        r = np.array([0.05, 0.3, 0.8, 1.5, 6.0])
        assert np.all(radial_velocity(prof, p, r) < 0.0)

    def test_matches_direct_backend(self):
        # cross-backend oracle at a fine grid
        g = make_grid(2, 4.0, 256)
        p = Params(2, 1.0, 1.0)
        prof = bump_profile(1.0, 1.0, 1.0)
        f = sample_radial(prof, g)
        direct = screened_riesz_direct(f, p, [(0.5, 0.0)], support_radius=1.0)[0]
        want = radial_velocity(prof, p, 0.5)
        assert direct[0] == pytest.approx(want, rel=1e-4)
        assert abs(direct[1]) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.02, 0.3, 4.0])
    def test_matches_nested_quadrature(self, n, a):
        # an independent evaluation of the definition of u_r by adaptive
        # quadrature in both variables (no kernels or transform code); at
        # a = 0.02 the screened part of Psi_n varies on the scale a around
        # rho = r, narrower than the diagonal panels would be without a / 2
        prof = bump_profile(1.0, 1.0, 3.0)
        for r in (0.4, 0.9, 2.5):
            want = _nested_quad_velocity(prof, n, a, r)
            assert radial_velocity(prof, Params(n, a, 1.0), r) == pytest.approx(want, rel=1e-10)

    def test_batch_equals_scalar_calls_bitwise(self):
        # a target's value must not depend on the other targets of the call
        f = TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)).sample()
        p = Params(2, 0.1, 1.0)
        r = np.geomspace(0.01, 30.0, 40)
        batch = radial_velocity(f, p, r)
        assert np.array_equal(batch, [radial_velocity(f, p, x) for x in r])

    @pytest.mark.parametrize("n", [2, 3])
    def test_block_sums_match_a_dot_per_target(self, n):
        # one segment sum per block against a dot product over each
        # target's own nodes: only the summation order differs
        f = TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)).sample()
        x = np.geomspace(0.01, 3.0, 20)
        L = f.support_radius
        for mine, rho, wt, size in transform._radial_blocks(x, L, f.breakpoints, 0.5):
            g = wt * f.derivative(rho)
            got = transform._radial_sums(n, 0.5, x[mine], rho, g, size)
            ends = np.cumsum(size)
            for i, (xi, lo, hi) in enumerate(zip(x[mine], ends - size, ends)):
                terms = g[lo:hi] * rho[lo:hi] ** n
                want = -np.dot(terms, transform.psi(n, rho[lo:hi] / xi, (0.5 / xi) ** 2)) \
                    / (np.pi * xi ** n)
                assert got[i] == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_panels_laid_per_64_targets_match_per_block(self, monkeypatch):
        # 130 targets on spline seed 6 (inner breakpoints, targets beyond the
        # support): the panels are laid for 64, 64 and 2 targets and cut into
        # blocks of 8, with the bits of panels laid block by block
        prof = TestFunctionFamily("random_monotone_spline", seed=6).sample()
        L = prof.support_radius
        x = np.geomspace(1e-3, 2.0 * L, 130)
        inner = np.asarray(prof.breakpoints, dtype=float)
        inner = inner[(inner > 0.0) & (inner < L)]
        laid = []
        panels = transform._radial_panels

        def counted_panels(*args):
            laid.append(len(args[0]))
            return panels(*args)

        monkeypatch.setattr(transform, "_radial_panels", counted_panels)
        got = list(transform._radial_blocks(x, L, prof.breakpoints, 0.5))
        assert laid == [64, 64, 2]
        assert len(got) == 17
        for k, (mine, rho, wt, size) in enumerate(got):
            assert np.array_equal(mine, np.arange(8 * k, min(8 * k + 8, 130)))
            owner, lo, hi, count, side = panels(x[mine], L, inner, 0.5)
            want_rho, want_wt = transform._radial_nodes(lo, hi, count, side)
            assert np.array_equal(rho, want_rho)
            assert np.array_equal(wt, want_wt)
            assert np.array_equal(size, np.bincount(owner, weights=count).astype(int))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [1e-6, 1e-3])
    def test_small_radius_matches_nested_quadrature(self, n, r):
        # the diagonal panels and the grading outward from them reach radii
        # far below the background panels
        prof = bump_profile(1.0, 1.0, 1.0)
        want = _nested_quad_velocity(prof, n, 1.0, r)
        got = radial_velocity(prof, Params(n, 1.0, 1.0), r)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("offset", [-1e-9, 1e-9])
    def test_spline_next_to_breakpoint_matches_nested_quadrature(self, offset):
        # f'' jumps at every knot of the monotone spline; the panels split
        # there, so the diagonal panels shrink to the knot's distance
        prof = TestFunctionFamily("random_monotone_spline", seed=6).sample()
        r = float(prof.breakpoints[4]) + offset
        inner = np.asarray(prof.breakpoints[1:-1], dtype=float)
        _, lo, hi, _, side = transform._radial_panels(np.array([r]), prof.support_radius,
                                                      inner, 1.0)
        assert np.count_nonzero(side) == 2
        assert np.all((hi - lo)[side != 0] <= 1e-9 * (1.0 + 1e-6))
        want = _nested_quad_velocity(prof, 2, 1.0, r)
        got = radial_velocity(prof, Params(2, 1.0, 1.0), r)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_at_marker_matches_nested_quadrature(self):
        # a profile on 32 markers, as the characteristics solver builds it:
        # every marker interval is a panel, and at a marker the diagonal
        # panels are as wide as the nearer marker interval
        from screened_transport import RadialProfile
        from screened_transport.radial import blended_markers
        X = blended_markers(32, 1.0)
        prof = RadialProfile(X, bump_profile(1.0, 1.0, 4.0).value(X))
        r = float(X[20])
        want = _nested_quad_velocity(prof, 2, 1.0, r)
        got = radial_velocity(prof, Params(2, 1.0, 1.0), r)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("r", [1.1 + 5e-4, 1.125])
    def test_next_to_background_break_matches_nested_quadrature(self, r):
        # spline seed 6 has support 1.6, so 1.1 is a background breakpoint;
        # one that split the diagonal panel would leave a 10-point panel
        # next to the singularity (an error of 2.9e-5 at r = 1.125)
        prof = TestFunctionFamily("random_monotone_spline", seed=6).sample()
        want = _nested_quad_velocity(prof, 2, 1.0, r)
        got = radial_velocity(prof, Params(2, 1.0, 1.0), r)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_no_node_on_the_diagonal(self, n, psi_inputs):
        # r -+ h t^6 rounds to r at the smallest t once h < r / 200; next to
        # a breakpoint h is the distance to it (1e-9), or the breakpoint
        # merges with r (1e-12); no node may land on r, where Psi_n is
        # singular
        prof = TestFunctionFamily("random_monotone_spline", seed=11).sample()
        knots = np.asarray(prof.breakpoints[1:-1], dtype=float)
        r = np.concatenate([knots - 1e-12, knots + 1e-12, knots - 1e-9, knots + 1e-9])
        got = radial_velocity(prof, Params(n, 0.5, 1.0), r)
        assert np.all(np.isfinite(got))
        assert not np.any(np.concatenate(psi_inputs) == 1.0)

    @pytest.mark.parametrize("r", [0.5, 1.2])
    def test_n3_spline_matches_nested_quadrature(self, r):
        # n = 3 at a = 0.5 on the spline of the pointwise certificate test
        prof = TestFunctionFamily("random_monotone_spline", seed=11).sample()
        want = _nested_quad_velocity(prof, 3, 0.5, r)
        got = radial_velocity(prof, Params(3, 0.5, 1.0), r)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("prof", [bump_profile(1.0, 1.0, 2.0),
                                      TestFunctionFamily("random_monotone_spline", seed=35).sample()],
                             ids=["bump", "spline_seed35"])
    def test_points_per_target_on_criterion_4_cells(self, prof, psi_inputs):
        # the targets of a certification cell: the nodes of the graded rule
        from screened_transport.kernels import graded_rule
        r, _, _ = graded_rule(prof.support_radius, prof.breakpoints)
        radial_velocity(prof, Params(2, 1.0, 1.0), r)
        assert sum(map(np.size, psi_inputs)) <= 500 * len(r)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("prof", [bump_profile(2.0, 1.0, 4.0),
                                      TestFunctionFamily("random_monotone_spline", seed=6).sample()],
                             ids=["shipped_bump", "spline_seed6"])
    def test_far_target_matches_nested_quadrature(self, n, prof):
        # c = (a / r)^2 = 1e-5 against (1 - q)^2 of order one: the difference
        # of the two closed forms of Psi_n would lose about 1e-11 here
        want = _nested_quad_velocity(prof, n, 0.1, 31.62)
        got = radial_velocity(prof, Params(n, 0.1, 1.0), 31.62)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_psi_points_and_calls_per_block(self, monkeypatch):
        # about 400 Psi_n points per target on the bump, evaluated in one
        # psi call per block of 8 targets; c = (a / r)^2 tells the targets
        # of a call apart
        calls = []
        psi = transform.psi

        def counted_psi(n, q, c):
            calls.append((np.size(q), np.unique(c).size))
            return psi(n, q, c)

        monkeypatch.setattr(transform, "psi", counted_psi)
        bump = bump_profile(1.0, 1.0, 1.0)
        radial_velocity(bump, Params(2, 1.0, 1.0), np.array([0.0, 0.3, 0.9, 1.7]))
        assert [k for _, k in calls] == [3]
        assert calls[0][0] <= 3 * 800
        calls.clear()
        radial_velocity(bump, Params(2, 1.0, 1.0), np.geomspace(1e-6, 3.0, 9))
        assert [k for _, k in calls] == [8, 1]
        assert calls[0][0] <= 8 * 800 and calls[1][0] <= 800

    @pytest.mark.parametrize("n", [2, 3])
    def test_tiny_radius_is_the_linear_term(self, n):
        # (a / r)^2 overflows below about 1e-154 a, and the grading's level
        # count at r = 1e-320; u_r is odd and smooth at the origin, so there
        # it is r times its slope, which u_r(1e-30) / 1e-30 gives to 1e-15
        prof = bump_profile(1.0, 1.0, 1.0)
        p = Params(n, 1.0, 1.0)
        slope = radial_velocity(prof, p, 1e-30) / 1e-30
        r = np.array([1e-200, 1e-300, 1e-320, 5e-324])
        got = radial_velocity(prof, p, r)
        assert np.all(np.isfinite(got))
        assert got[:2] == pytest.approx(slope * r[:2], rel=1e-14, abs=0.0)
        # subnormal radii: the product rounds to the subnormal grid
        assert np.all(np.abs(got[2:] - slope * r[2:]) <= 2.0 * 5e-324)
        assert np.all(got < 0.0)
        assert [radial_velocity(prof, p, x) for x in r] == list(got)

    def test_rejects_negative_radius(self):
        p = Params(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            radial_velocity(bump_profile(1.0, 1.0, 1.0), p, np.array([-0.5]))


class TestLimitReport:
    def test_zero_screening_prefix(self, grid64, rng):
        f = random_field(grid64, rng, zero_mean=True)
        rep = limit_report(f, [0.0, 1.0])
        assert rep.zero_gap[0] == 0.0
        assert rep.riesz_gap[0] == pytest.approx(f.l2_norm(), rel=1e-12)

    def test_gaps_bounded_by_l2(self, grid64, rng):
        f = random_field(grid64, rng, zero_mean=True)
        rep = limit_report(f, np.linspace(0.0, 20.0, 15))
        assert np.all(rep.riesz_gap <= f.l2_norm() * (1 + 1e-12))
        assert np.all(rep.zero_gap <= f.l2_norm() * (1 + 1e-12))

    def test_monotone_in_screening(self, grid64, rng):
        f = random_field(grid64, rng)
        rep = limit_report(f, np.linspace(0.0, 30.0, 40))
        assert np.all(np.diff(rep.riesz_gap) <= 1e-14)
        assert np.all(np.diff(rep.zero_gap) >= -1e-14)

    def test_doubling_screening_halves_gap_band_limited(self, grid64):
        # single mode with a |k| >= ln 2: riesz gap scales by e^{-a|k|} <= 1/2
        k = 2 * np.pi / 4.0
        f = ScalarField(grid64, np.cos(k * grid64.coords[0]))
        a0 = np.log(2.0) / k
        rep = limit_report(f, [a0, 2 * a0, 4 * a0])
        assert rep.riesz_gap[1] <= 0.5 * rep.riesz_gap[0] * (1 + 1e-12)
        assert rep.riesz_gap[2] <= 0.5 * rep.riesz_gap[1] * (1 + 1e-12)

    def test_rejects_unsorted(self, grid64, rng):
        with pytest.raises(ValueError):
            limit_report(random_field(grid64, rng), [1.0, 0.5])
