import json
import math

import numpy as np
import pytest
from scipy import integrate

from screened_transport import (
    BlowupConfig,
    DiagnosticsSeries,
    Params,
    RadialProfile,
    ScalarField,
    blowup_functional,
    bump_profile,
    make_grid,
    predict_blowup_time,
    riccati_check,
    riccati_rate,
    sample_radial,
    structural_checks,
)
from screened_transport.blowup import checks_to_json, sphere_area
from screened_transport.inequalities import TestFunctionFamily
from screened_transport.radial import blended_markers


P2 = Params(2, 1.0, 1.0)


def _nested_quad_functional(prof, cfg):
    """omega_{n-1} int_0^L (f(r) - f(0)) r^{-1-delta} dr by adaptive
    quadrature, split at the profile's breakpoints and at L 2^-k toward the
    weight's singularity at the origin.  f(r) - f(0) is the profile's
    `rise`, free of the cancellation of f(r) - f(0) near the origin: on the
    profiles tested this oracle is within 1.3e-16 of mpmath at 30 digits,
    where the subtracted form was off by up to 6.4e-14."""
    L = cfg.support_radius

    def integrand(r):
        return float(prof.rise(np.array([r]))[0]) * r ** (-1.0 - cfg.delta)

    pts = sorted({0.0, *(L * 2.0 ** -k for k in range(60)),
                  *(b for b in prof.breakpoints if 0.0 < b < L)})
    total = math.fsum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                      for lo, hi in zip(pts[:-1], pts[1:]))
    return sphere_area(cfg.params.n) * total


def _marker_bump(M):
    """The benchmark's radial datum (bump L = 1, sharpness 4) on M blended
    markers, as the characteristics solver holds it."""
    labels = blended_markers(M, 1.0)
    return RadialProfile(labels, np.asarray(bump_profile(1.0, 1.0, 4.0).value(labels)))


class TestDiagnosticsSeries:
    def test_strictly_increasing_times_enforced(self):
        s = DiagnosticsSeries(["x"])
        s.append(0.0, x=1.0)
        s.append(0.5, x=2.0)
        with pytest.raises(ValueError):
            s.append(0.5, x=3.0)

    def test_column_bookkeeping(self):
        s = DiagnosticsSeries(["x", "y"])
        with pytest.raises(KeyError):
            s.append(0.0, x=1.0)
        with pytest.raises(KeyError):
            s.append(0.0, x=1.0, y=2.0, z=3.0)
        s.append(0.0, x=1.0, y=2.0)
        assert s.column("y")[0] == 2.0

    def test_csv_and_dat_output(self, tmp_path):
        s = DiagnosticsSeries(["x"])
        s.append(0.0, x=1.0)
        s.append(1.0, x=2.0)
        s.to_csv(tmp_path / "s.csv")
        s.to_dat(tmp_path / "s.dat")
        assert (tmp_path / "s.csv").read_text().splitlines()[0] == "t,x"
        assert (tmp_path / "s.dat").read_text().startswith("# t x")


class TestBlowupFunctional:
    def test_constant_profile_gives_zero(self):
        prof = RadialProfile(np.linspace(0, 1, 11), np.full(11, -0.4))
        cfg = BlowupConfig(0.25, 1.0, P2)
        assert blowup_functional(prof, cfg) == pytest.approx(0.0, abs=1e-12)

    def test_constant_field_gives_zero(self):
        g = make_grid(2, 4.0, 64)
        cfg = BlowupConfig(0.25, 1.0, P2)
        f = ScalarField(g, np.full(g.shape, 0.7))
        assert blowup_functional(f, cfg) == pytest.approx(0.0, abs=1e-10)

    def test_linear_profile_closed_form(self):
        # rho(r) = r, n = 2, delta = 1/2: I = 2 pi * int_0^L r^{-1/2} dr
        #        = 2 pi * 2 sqrt(L)
        L = 1.0
        nodes = np.linspace(0.0, L, 4001)
        prof = RadialProfile(nodes, nodes.copy())
        cfg = BlowupConfig(0.5, L, P2)
        expected = 2.0 * np.pi * 2.0 * np.sqrt(L)
        assert blowup_functional(prof, cfg) == pytest.approx(expected, rel=1e-5)

    def test_bump_data_is_positive(self):
        cfg = BlowupConfig(0.25, 1.0, P2)
        assert blowup_functional(bump_profile(1.0, 1.0, 4.0), cfg) > 0.0

    def test_field_and_profile_routes_agree(self):
        # the same radial data evaluated through the lattice route and the
        # 1-D route agree to 1e-4 relative
        prof = bump_profile(1.0, 1.0, 4.0)
        cfg = BlowupConfig(0.25, 1.0, P2)
        g = make_grid(2, 4.0, 256)
        i_profile = blowup_functional(prof, cfg)
        i_field = blowup_functional(sample_radial(prof, g), cfg)
        assert i_field == pytest.approx(i_profile, rel=1e-4)

    @pytest.mark.parametrize("prof", [TestFunctionFamily("random_monotone_spline", seed=6).sample(),
                                      _marker_bump(32), bump_profile(2.0, 1.0, 4.0)],
                             ids=["spline_seed6", "markers32_bump", "bump_L2"])
    def test_matches_nested_quadrature(self, prof):
        # the panels split at the profile's breakpoints, where f' or f'' jumps;
        # measured within 2.2e-16 of the oracle
        cfg = BlowupConfig(0.25, prof.support_radius, P2)
        want = _nested_quad_functional(prof, cfg)
        assert blowup_functional(prof, cfg) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            BlowupConfig(1.5, 1.0, P2)
        with pytest.raises(ValueError):
            BlowupConfig(0.0, 1.0, P2)


class TestRiccatiRate:
    def test_closed_form_value(self):
        # n=2, delta=1/2, L=1, a=1, g=1: the constant reduces to
        # (sqrt(3.5)-sqrt(2))^2/32 and the weight to 1 - 8/5^{3/2}
        cfg = BlowupConfig(0.5, 1.0, P2)
        c_bil = (np.sqrt(3.5) - np.sqrt(2.0)) ** 2 / 32.0
        w = 1.0 - 8.0 / 5.0 ** 1.5
        expected = 0.5 * c_bil * w / (2.0 * np.pi)
        assert riccati_rate(cfg) == pytest.approx(expected, rel=1e-13)

    def test_vanishes_as_screening_vanishes(self):
        rates = [riccati_rate(BlowupConfig(0.25, 1.0, Params(2, a, 1.0)))
                 for a in (1.0, 0.1, 0.01, 1e-4)]
        assert np.all(np.diff(rates) < 0.0)
        assert rates[-1] < 1e-6 * rates[0]

    def test_increasing_in_screening_length(self):
        rates = [riccati_rate(BlowupConfig(0.25, 1.0, Params(2, a, 1.0)))
                 for a in np.linspace(0.1, 20.0, 25)]
        assert np.all(np.diff(rates) > 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("a", [0.2, 2.0])
    def test_positive_everywhere(self, n, delta, a):
        assert riccati_rate(BlowupConfig(delta, 1.3, Params(n, a, 2.0))) > 0.0

    def test_linear_in_gravity(self):
        c1 = riccati_rate(BlowupConfig(0.25, 1.0, Params(2, 1.0, 1.0)))
        c2 = riccati_rate(BlowupConfig(0.25, 1.0, Params(2, 1.0, 3.0)))
        assert c2 == pytest.approx(3.0 * c1, rel=1e-14)


class TestPredictBlowupTime:
    def test_unit_inputs(self):
        assert predict_blowup_time(1.0, 1.0) == 1.0

    def test_doubling_initial_value_halves_bound(self):
        assert predict_blowup_time(2.0, 0.5) == 0.5 * predict_blowup_time(1.0, 0.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            predict_blowup_time(-1.0, 1.0)
        with pytest.raises(ValueError):
            predict_blowup_time(1.0, 0.0)


class TestRiccatiCheck:
    def test_flat_zero_series(self):
        s = DiagnosticsSeries(["i_delta"])
        for t in np.linspace(0, 1, 7):
            s.append(t, i_delta=0.0)
        rep = riccati_check(s, BlowupConfig(0.25, 1.0, P2))
        assert rep["min_slack"] == 0.0

    def test_supersolution_has_positive_slack(self):
        # I growing much faster than the bound keeps the slack positive
        cfg = BlowupConfig(0.25, 1.0, P2)
        c = riccati_rate(cfg)
        s = DiagnosticsSeries(["i_delta"])
        for t in np.linspace(0, 1, 21):
            s.append(t, i_delta=np.exp(5.0 * t))
        rep = riccati_check(s, cfg)
        assert rep["min_slack"] > 0.0
        assert rep["min_slack_doubled_rate"] <= rep["min_slack"]
        assert rep["rate"] == pytest.approx(c)

    def test_requires_three_samples(self):
        s = DiagnosticsSeries(["i_delta"])
        s.append(0.0, i_delta=1.0)
        s.append(1.0, i_delta=2.0)
        with pytest.raises(ValueError):
            riccati_check(s, BlowupConfig(0.25, 1.0, P2))


class TestStructuralChecks:
    def test_static_radial_run_passes(self):
        g = make_grid(2, 4.0, 64)
        f = sample_radial(bump_profile(1.0, 1.0, 2.0), g)
        cfg = BlowupConfig(0.25, 1.0, P2)
        checks = structural_checks([(0.0, f), (0.1, f)], f, cfg)
        assert all(c["pass"] for c in checks)
        assert all(c["worst_violation"] == 0.0 for c in checks)

    def test_translated_data_fails_angular_check(self):
        g = make_grid(2, 4.0, 64)
        prof = bump_profile(1.0, 1.0, 2.0)
        x, y = g.coords
        centered = sample_radial(prof, g)
        shifted = ScalarField(g, prof.value(np.hypot(x - 0.4, y)))
        cfg = BlowupConfig(0.25, 1.0, P2)
        checks = {c["check"]: c for c in
                  structural_checks([(0.0, shifted)], centered, cfg)}
        assert not checks["angular_symmetry"]["pass"]

    def test_origin_drift_detected(self):
        g = make_grid(2, 4.0, 64)
        f = sample_radial(bump_profile(1.0, 1.0, 2.0), g)
        vals = f.values.copy()
        vals[g.origin_index] += 1e-3
        cfg = BlowupConfig(0.25, 1.0, P2)
        checks = {c["check"]: c for c in
                  structural_checks([(0.0, ScalarField(g, vals))], f, cfg)}
        assert not checks["origin_invariance"]["pass"]
        assert checks["origin_invariance"]["worst_violation"] == pytest.approx(1e-3)

    def test_window_end_restricts_scope(self):
        g = make_grid(2, 4.0, 64)
        f = sample_radial(bump_profile(1.0, 1.0, 2.0), g)
        bad = ScalarField(g, np.roll(f.values, 3, axis=0))
        cfg = BlowupConfig(0.25, 1.0, P2)
        checks = structural_checks([(0.0, f), (1.0, bad)], f, cfg, window_end=0.5)
        assert all(c["pass"] for c in checks)

    def test_json_serializable(self, tmp_path):
        g = make_grid(2, 4.0, 32)
        f = sample_radial(bump_profile(1.0, 1.0, 2.0), g)
        cfg = BlowupConfig(0.25, 1.0, P2)
        checks = structural_checks([(0.0, f)], f, cfg)
        path = tmp_path / "checks.json"
        checks_to_json(checks, path)
        loaded = json.loads(path.read_text())
        assert {c["check"] for c in loaded} == {
            "origin_invariance", "support_containment",
            "angular_symmetry", "radial_monotonicity"}


class TestSphereArea:
    def test_known_values(self):
        assert sphere_area(2) == pytest.approx(2 * np.pi, rel=1e-14)
        assert sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-14)
