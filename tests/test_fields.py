import os
import subprocess
import sys

import numpy as np
import pytest

import scipy.fft as sfft
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator, PPoly

import screened_transport

from screened_transport import (
    Params,
    RadialProfile,
    ScalarField,
    VectorField,
    bump_profile,
    evaluate_at,
    fractional_laplacian,
    load_field,
    make_grid,
    max_gradient,
    sample_radial,
    save_field,
    sobolev_norm,
)
from screened_transport.fields import PiecewisePoly, hermite, pchip, profile_to_csv
from screened_transport.inequalities import TestFunctionFamily

from conftest import full_grid


def _real_l2(f):
    """L2 norm by real-space quadrature (trapezoidal on the periodic grid)."""
    return np.sqrt(np.sum(f.values ** 2) * f.grid.cell_volume)


class TestMakeGrid:
    def test_point_count_and_spacing(self):
        g = make_grid(2, 4.0, 64)
        assert g.size == 4096
        assert g.spacing == pytest.approx(0.125)

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            make_grid(2, 4.0, 7)

    def test_rejects_nonpositive_half_width(self):
        with pytest.raises(ValueError):
            make_grid(2, -1.0, 64)

    def test_3d_wavenumber_layout(self):
        g = make_grid(3, 2.0, 16)
        assert g.size == 4096
        assert np.max(np.abs(g.axis_wavenumbers)) == pytest.approx(8 * np.pi / 2)
        # stored set is {-N/2 .. N/2-1} * pi / half_width
        expected = np.sort(np.arange(-8, 8) * np.pi / 2.0)
        assert np.allclose(np.sort(g.axis_wavenumbers), expected)

    def test_grid_includes_origin(self):
        g = make_grid(2, 4.0, 64)
        assert g.axis_coords[g.origin_index[0]] == 0.0


class TestGrid:
    @pytest.mark.parametrize("n,N", [(2, 8), (2, 16), (2, 66), (2, 130), (3, 8), (3, 16), (3, 130)])
    def test_half_grid_symbols_bitwise(self, n, N):
        # the half-grid arrays are the full-grid ones cut to columns 0..N/2,
        # bit for bit (N = 130: N/2 odd, N/3 not an integer; N = 66: 3 | N)
        g = make_grid(n, 4.0, N)
        fg = full_grid(g)
        kk = fg.magnitude
        safe = np.where(kk > 0.0, kk, 1.0)
        pairs = [(g.half_wavenumber_magnitude, kk),
                 (g.half_dealias_mask, fg.dealias),
                 (g.half_nyquist_mask, fg.nyquist)]
        pairs += [(h, np.where(fg.nyquist, 0.0, 1j * k))
                  for h, k in zip(g.half_gradient_symbols, fg.wavenumbers)]
        pairs += [(h, np.where(fg.nyquist | (kk == 0.0), 0.0, k / safe))
                  for h, k in zip(g.half_unit_directions, fg.wavenumbers)]
        assert len(pairs) == 3 + 2 * n
        for half, full in pairs:
            assert half.dtype == full.dtype
            assert np.array_equal(half, full[..., : N // 2 + 1])

    def test_dealias_mask_keeps_modes_below_a_third(self):
        # strictly |m| < N/3, so that the sum of two kept modes, |m| < 2N/3,
        # aliases onto no kept mode; every even N, 1-D to 8192, 2-D to 1024
        for n, sizes in ((1, range(8, 8193, 2)), (2, range(8, 1025, 2))):
            for N in sizes:
                m = np.abs(np.concatenate([np.arange(N // 2), np.arange(-(N // 2), 0)]))
                keep = 3 * m < N
                want = keep[: N // 2 + 1] if n == 1 else np.outer(keep, keep[: N // 2 + 1])
                assert np.array_equal(make_grid(n, 1.0, N).half_dealias_mask, want), (n, N)


class TestScalarField:
    def test_roundtrip_real_spectral_real(self, rng):
        g = make_grid(2, 3.0, 32)
        vals = rng.standard_normal(g.shape)
        f = ScalarField(g, vals)
        back = ScalarField.from_half_spectrum(g, f.half_spectrum)
        assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_parseval(self, rng):
        g = make_grid(2, 2.0, 48)
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert f.l2_norm() == pytest.approx(_real_l2(f), rel=1e-10)

    @pytest.mark.parametrize("n, N", [(2, 48), (2, 256), (3, 16), (3, 24)])
    def test_real_ffts_are_scipys_bits(self, rng, n, N):
        # NumPy's own rfftn differs in 3-D and its irfftn where N is not a
        # power of two; the package's passes must not
        g = make_grid(n, 2.0, N)
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert np.array_equal(f.half_spectrum, sfft.rfftn(f.values))
        sp = f.half_spectrum * (0.3 - 1.0j)
        assert np.array_equal(ScalarField.from_half_spectrum(g, sp).values,
                              sfft.irfftn(sp, s=g.shape))

    def test_values_are_immutable(self):
        g = make_grid(2, 1.0, 8)
        f = ScalarField(g, np.zeros(g.shape))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0


def _edge_column_field(g, rng):
    """Random field plus a constant, a mode along the first axis only and
    (-1)^j along the last axis: energy sits in the zero and Nyquist columns
    of the half spectrum."""
    x = g.coords
    vals = (0.7 + np.cos(2.0 * np.pi / g.half_width * x[0])
            + (-1.0) ** np.arange(g.N) + 0.5 * rng.standard_normal(g.shape))
    return ScalarField(g, vals)


def _full_spectrum_norm(g, spectrum, s=0.0):
    power = full_grid(g).magnitude ** (2.0 * s) * np.abs(spectrum) ** 2
    return np.sqrt(np.sum(power) * g.cell_volume / g.size)


class TestParsevalHalfSpectrum:
    """Norms are weighted sums over the rfftn half spectrum; these fields
    put energy in its zero and Nyquist columns, where the weight is 1."""

    @pytest.fixture(params=[(2, 32), (3, 16)], ids=["n2", "n3"])
    def grid(self, request):
        n, N = request.param
        return make_grid(n, 2.0, N)

    def test_edge_columns_carry_energy(self, grid, rng):
        power = np.abs(_edge_column_field(grid, rng).half_spectrum) ** 2
        total = power.sum()
        assert power[..., 0].sum() > 0.05 * total
        assert power[..., -1].sum() > 0.05 * total

    def test_l2_norm(self, grid, rng):
        f = _edge_column_field(grid, rng)
        assert f.l2_norm() == pytest.approx(_real_l2(f), rel=1e-13)
        assert f.l2_norm() == pytest.approx(_full_spectrum_norm(grid, sfft.fftn(f.values)),
                                            rel=1e-13)

    @pytest.mark.parametrize("s", [0.0, 1.5, 3.0])
    def test_sobolev_norm(self, grid, rng, s):
        f = _edge_column_field(grid, rng)
        sp = sfft.fftn(f.values)
        lam_s = sfft.ifftn(full_grid(grid).magnitude ** s * sp).real
        real_space = _real_l2(f) + np.sqrt(np.sum(lam_s ** 2) * grid.cell_volume)
        spectral = _full_spectrum_norm(grid, sp) + _full_spectrum_norm(grid, sp, s)
        assert sobolev_norm(f, s) == pytest.approx(real_space, rel=1e-13)
        assert sobolev_norm(f, s) == pytest.approx(spectral, rel=1e-13)

    def test_vector_l2_norm(self, grid, rng):
        comps = [_edge_column_field(grid, rng).values for _ in range(grid.n)]
        v = VectorField(grid, comps)
        real_space = np.sqrt(sum(np.sum(c ** 2) for c in comps) * grid.cell_volume)
        spectral = np.sqrt(sum(_full_spectrum_norm(grid, sfft.fftn(c)) ** 2 for c in comps))
        assert v.l2_norm() == pytest.approx(real_space, rel=1e-13)
        assert v.l2_norm() == pytest.approx(spectral, rel=1e-13)

    def test_half_spectrum_round_trip(self, grid, rng):
        f = _edge_column_field(grid, rng)
        back = ScalarField.from_half_spectrum(grid, f.half_spectrum)
        assert np.max(np.abs(back.values - f.values)) <= 1e-13 * np.max(np.abs(f.values))
        assert back.half_spectrum is f.half_spectrum


class TestFractionalLaplacian:
    def test_order_zero_is_identity(self, rng):
        g = make_grid(2, 2.0, 32)
        f = ScalarField(g, 1.5 + rng.standard_normal(g.shape))
        out = fractional_laplacian(f, 0.0)
        assert np.allclose(out.values, f.values, atol=1e-13)

    def test_constant_maps_to_zero(self):
        g = make_grid(2, 2.0, 32)
        f = ScalarField(g, np.full(g.shape, 2.5))
        assert fractional_laplacian(f, 1.0).l2_norm() <= 1e-13

    def test_single_mode_eigenfunction(self):
        g = make_grid(2, 4.0, 64)
        k = 3 * np.pi / 4.0  # mode m=3 on this grid
        x = g.coords[0]
        f = ScalarField(g, np.sin(k * x))
        out = fractional_laplacian(f, 2.0)
        assert np.allclose(out.values, k ** 2 * np.sin(k * x), rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("s1,s2", [(0.5, 1.5), (1.0, 1.0), (0.0, 2.0)])
    def test_composition_adds_orders(self, rng, s1, s2):
        g = make_grid(2, 2.0, 32)
        f = ScalarField(g, rng.standard_normal(g.shape))
        a = fractional_laplacian(fractional_laplacian(f, s1), s2)
        b = fractional_laplacian(f, s1 + s2)
        assert np.max(np.abs(a.values - b.values)) <= 1e-10 * max(np.max(np.abs(b.values)), 1.0)

    def test_rejects_negative_order(self):
        g = make_grid(2, 2.0, 16)
        with pytest.raises(ValueError):
            fractional_laplacian(ScalarField(g, np.zeros(g.shape)), -1.0)


class TestSobolevNorm:
    def test_zero_field(self):
        g = make_grid(2, 2.0, 16)
        assert sobolev_norm(ScalarField(g, np.zeros(g.shape)), 1.5) == 0.0

    def test_order_zero_doubles_l2(self, rng):
        g = make_grid(2, 2.0, 32)
        f = ScalarField(g, rng.standard_normal(g.shape))
        assert sobolev_norm(f, 0.0) == pytest.approx(2.0 * f.l2_norm(), rel=1e-12)

    def test_single_mode_closed_form(self):
        # hand Parseval for A*cos(k x1): ||f||_L2 = A sqrt(V/2), Lambda^s
        # scales by |k|^s, so the norm is A sqrt(V/2) (1 + |k|^s)
        g = make_grid(2, 4.0, 64)
        A, m, s = 0.7, 5, 1.3
        k = m * np.pi / 4.0
        f = ScalarField(g, A * np.cos(k * g.coords[0]))
        expected = A * np.sqrt((2.0 * g.half_width) ** g.n / 2.0) * (1.0 + k ** s)
        assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)


class TestMaxGradient:
    def test_zero_field(self):
        g = make_grid(2, 2.0, 16)
        assert max_gradient(ScalarField(g, np.zeros(g.shape))) == 0.0

    def test_single_mode(self):
        g = make_grid(2, 4.0, 64)
        k = 4 * np.pi / 4.0
        f = ScalarField(g, np.sin(k * g.coords[0]))
        assert max_gradient(f) == pytest.approx(k, rel=1e-12)

    def test_matches_dense_profile_derivative(self):
        # oracle: dense 1-D finite differences of the closed-form profile
        prof = bump_profile(1.0, 1.0, 1.0)
        r = np.linspace(0.0, 1.0, 400_001)
        v = prof.value(r)
        dense_max = np.max(np.abs(np.diff(v) / np.diff(r)))
        # fine grid so that some lattice radius lands close to the argmax
        g = make_grid(2, 2.0, 1024)
        f = sample_radial(prof, g)
        assert max_gradient(f) == pytest.approx(dense_max, abs=1e-6 * dense_max + 1e-6)


class TestBumpProfile:
    def test_origin_value(self):
        prof = bump_profile(1.0, 0.8, 2.0)
        assert prof.value(np.array([0.0]))[0] == pytest.approx(-0.8)
        assert prof.origin_value() == -0.8
        assert prof.support_radius == 1.0
        assert np.array_equal(prof.breakpoints, [0.0, 1.0])

    def test_vanishes_outside_support(self):
        prof = bump_profile(1.0, 1.0, 3.0)
        r = np.array([1.0, 1.2, 5.0])
        assert np.all(prof.value(r) == 0.0)
        assert np.all(prof.derivative(r) == 0.0)

    def test_nondecreasing_on_dense_samples(self):
        # oracle: the closed-form derivative is nonnegative everywhere
        prof = bump_profile(1.3, 2.0, 4.0)
        r = np.linspace(0.0, 1.5, 10_000)
        assert np.all(prof.derivative(r) >= 0.0)
        assert np.all(np.diff(prof.value(r)) >= -1e-15)

    def test_derivative_matches_finite_differences(self):
        prof = bump_profile(1.0, 1.0, 2.0)
        r = np.linspace(0.01, 0.95, 500)
        eps = 1e-7
        fd = (prof.value(r + eps) - prof.value(r - eps)) / (2 * eps)
        assert np.allclose(prof.derivative(r), fd, rtol=1e-5, atol=1e-6)

    def test_rejects_bad_parameters(self):
        for args in [(-1.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                bump_profile(*args)


class TestRadialProfile:
    def test_node_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.1, 0.2]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            RadialProfile(np.array([0.0, 0.2, 0.2]), np.zeros(3))

    def test_monotone_interpolation_preserves_order(self):
        nodes = np.linspace(0.0, 1.0, 11)
        vals = np.sort(np.tanh(3 * (nodes - 0.4)))
        prof = RadialProfile(nodes, vals)
        r = np.linspace(0.0, 1.0, 2000)
        assert np.all(np.diff(prof.value(r)) >= -1e-12)

    def test_constant_extension_beyond_last_node(self):
        prof = RadialProfile(np.array([0.0, 1.0]), np.array([-1.0, 0.0]))
        assert prof.value(np.array([2.0]))[0] == 0.0
        assert prof.derivative(np.array([2.0]))[0] == 0.0


def _points(x, rng):
    """Random points across [x[0], x[-1]] and beyond both ends, every knot,
    and the last knot on its own."""
    span = x[-1] - x[0]
    return np.concatenate([rng.uniform(x[0] - 0.1 * span, x[-1] + 0.1 * span, 400), x, [x[-1]]])


def _assert_same_bits(ours, scipys, r):
    assert np.array_equal(ours.x, scipys.x)
    assert np.array_equal(ours.c, scipys.c)
    assert np.array_equal(ours(r), scipys(r))
    assert np.array_equal(ours.derivative()(r), scipys.derivative()(r))


class TestPiecewisePoly:
    """The in-house interpolants against SciPy's, bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    def test_pchip_on_random_monotone_data(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, 5 + 7 * seed))])
        y = np.cumsum(rng.uniform(0.0, 1.0, x.size))
        _assert_same_bits(pchip(x, y), PchipInterpolator(x, y), _points(x, rng))

    @pytest.mark.parametrize("seed", range(4))
    def test_pchip_on_flat_runs_and_sign_changes(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = np.cumsum(rng.uniform(0.05, 1.0, 30))
        y = np.round(rng.normal(size=30))  # repeated values and both slope signs
        _assert_same_bits(pchip(x, y), PchipInterpolator(x, y), _points(x, rng))

    @pytest.mark.parametrize("y, slope", [([0.0, 1.0, 5.0], 0.0),     # estimate turns sign
                                          ([0.0, 1.0, -9.0], 3.0)],   # capped at 3 m0
                             ids=["sign_flip", "three_secants"])
    def test_pchip_end_slope_branches(self, y, slope, rng):
        x = np.array([0.0, 1.0, 2.0])
        ours = pchip(x, y)
        assert ours.c[2, 0] == slope
        _assert_same_bits(ours, PchipInterpolator(x, y), _points(x, rng))

    def test_pchip_through_two_points_is_the_line(self, rng):
        x, y = np.array([0.0, 0.3]), np.array([-1.0, 2.0])
        ours = pchip(x, y)
        assert np.array_equal(ours.c[:2], [[0.0], [0.0]])
        _assert_same_bits(ours, PchipInterpolator(x, y), _points(x, rng))

    def test_pchip_in_r_squared_of_lattice_means(self, rng):
        # the interpolant `blowup_functional` builds for a 2-D field, at the
        # r^2 of its nodes
        g = make_grid(2, 4.0, 64)
        radii, means = g.radial_average(sample_radial(bump_profile(2.0, 1.0, 4.0), g).values)
        sel = radii <= 2.0 + 2.0 * g.spacing
        x = radii[sel] ** 2
        r = np.concatenate([_points(x, rng), np.linspace(1e-8, 2.0, 500) ** 2])
        _assert_same_bits(pchip(x, means[sel]), PchipInterpolator(x, means[sel]), r)

    @pytest.mark.parametrize("seed", range(3))
    def test_hermite(self, seed):
        rng = np.random.default_rng(200 + seed)
        x = np.cumsum(rng.uniform(0.05, 1.0, 12))
        y, dydx = rng.normal(size=(2, 12))
        _assert_same_bits(hermite(x, y, dydx), CubicHermiteSpline(x, y, dydx), _points(x, rng))

    def test_degree_five_smoothed_step(self, rng):
        poly = TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)).sample()._poly
        assert isinstance(poly, PiecewisePoly) and poly.c.shape == (6, 2)
        _assert_same_bits(poly, PPoly(poly.c, poly.x), _points(poly.x, rng))

    def test_scalar_point(self):
        x, y = np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.5])
        assert float(pchip(x, y)(0.25)) == float(PchipInterpolator(x, y)(0.25))


def test_import_leaves_scipy_interpolation_unloaded():
    # a fresh interpreter: the package builds its own monotone cubics and
    # real FFTs; only the direct 2-D/3-D quadrature loads SciPy's splines,
    # and only `evaluate_at` SciPy's FFT, on first use
    src = os.path.dirname(os.path.dirname(os.path.abspath(screened_transport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, screened_transport, screened_transport.runner; "
            "print(sorted(m for m in ('scipy.interpolate', 'scipy.ndimage', 'scipy.optimize', "
            "'scipy.fft') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


class TestSymmetryHelpers:
    def test_orbit_spread_zero_for_radial_samples(self):
        g = make_grid(2, 4.0, 64)
        f = sample_radial(bump_profile(1.0, 1.0, 2.0), g)
        assert g.orbit_spread(f.values) == 0.0

    def test_orbit_spread_detects_translation(self):
        g = make_grid(2, 4.0, 64)
        prof = bump_profile(1.0, 1.0, 2.0)
        x, y = g.coords
        shifted = ScalarField(g, prof.value(np.hypot(x - 0.5, y)))
        assert g.orbit_spread(shifted.values) > 1e-2

    def test_radial_average_recovers_profile(self):
        g = make_grid(2, 4.0, 128)
        prof = bump_profile(1.0, 1.0, 2.0)
        radii, means = g.radial_average(sample_radial(prof, g).values)
        assert np.allclose(means, prof.value(radii), atol=1e-12)


class TestEvaluateAt:
    def test_matches_grid_values(self, rng):
        g = make_grid(2, 2.0, 32)
        f = ScalarField(g, rng.standard_normal(g.shape))
        i, j = 5, 17
        pt = (g.axis_coords[i], g.axis_coords[j])
        assert evaluate_at(f, [pt])[0] == pytest.approx(f.values[i, j], rel=1e-12, abs=1e-12)

    def test_band_limited_exactness_off_grid(self):
        g = make_grid(2, 2.0, 32)
        k = 2 * np.pi / 2.0
        f = ScalarField(g, np.cos(k * g.coords[0]) * np.sin(k * g.coords[1]))
        pts = [(0.123, -0.456), (1.0, 0.3)]
        got = evaluate_at(f, pts)
        want = [np.cos(k * p[0]) * np.sin(k * p[1]) for p in pts]
        assert np.allclose(got, want, atol=1e-12)


class TestSerialization:
    def test_field_roundtrip(self, tmp_path, rng):
        g = make_grid(2, 3.0, 16)
        f = ScalarField(g, rng.standard_normal(g.shape))
        path = tmp_path / "snap.field"
        save_field(path, f, time=1.25)
        back, t = load_field(path)
        assert t == 1.25
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.field"
        path.write_bytes(b"not a field")
        with pytest.raises(ValueError):
            load_field(path)

    def test_profile_csv(self, tmp_path):
        prof = RadialProfile(np.array([0.0, 0.5, 1.0]), np.array([-1.0, -0.5, 0.0]))
        path = tmp_path / "prof.csv"
        profile_to_csv(path, prof)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "r,value"
        assert len(lines) == 4


class TestParams:
    def test_validation(self):
        Params(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            Params(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            Params(2, 0.0, 1.0)
        with pytest.raises(ValueError):
            Params(2, 1.0, -1.0)

    def test_requires_positive_screening(self):
        with pytest.raises(ValueError):
            Params(2, -1.0, 1.0)
