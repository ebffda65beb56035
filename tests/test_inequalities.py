import math

import numpy as np
import pytest
from scipy import integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from screened_transport import (
    Params,
    RadialProfile,
    TestFunctionFamily,
    certify_bilinear,
    certify_pointwise,
    radial_velocity,
    young_split,
)
from screened_transport.inequalities import (
    pointwise_lower_bound,
    shipped_families,
    weighted_profile_integral,
)
from screened_transport.kernels import bilinear_constant, graded_rule, screening_weight


P2 = Params(2, 1.0, 1.0)


def _step_oracle(r, h, r0, w):
    """Closed-form quintic smoothstep from -h to 0 across [r0 - w, r0 + w]:
    value and slope."""
    t = np.clip((r - (r0 - w)) / (2.0 * w), 0.0, 1.0)
    return -h * (1.0 - t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)), 15.0 * h * t ** 2 * (1.0 - t) ** 2 / w


def _ramp_oracle(r, h, a, b, c):
    """Closed-form ramp of slope s = h / (b - a) from -h to 0, the slope rising
    linearly across [a - c, a + c] and falling across [b - c, b + c]: value
    (the piecewise integral of the slope) and slope."""
    s = h / (b - a)
    lo = np.clip(r - (a - c), 0.0, 2.0 * c)
    mid = np.clip(r - (a + c), 0.0, b - a - 2.0 * c)
    hi = np.clip(r - (b - c), 0.0, 2.0 * c)
    value = -h + s * (lo ** 2 / (4.0 * c) + mid + hi - hi ** 2 / (4.0 * c))
    return value, s * np.minimum(lo, 2.0 * c - hi) / (2.0 * c)


def _slope_limits(f):
    """Left limits of f' at breakpoints[1:] and right limits at
    breakpoints[:-1].  f' is a polynomial of degree <= 4 on each piece of the
    piecewise families, so 5 interior samples recover it exactly."""
    t = 0.5 - 0.5 * np.cos((2 * np.arange(5) + 1) * np.pi / 10)
    left, right = [], []
    for x0, x1 in zip(f.breakpoints[:-1], f.breakpoints[1:]):
        coef = np.polynomial.polynomial.polyfit(t, f.derivative(x0 + t * (x1 - x0)), 4)
        left.append(np.polynomial.polynomial.polyval(1.0, coef))
        right.append(coef[0])
    return np.array(left), np.array(right)


def _nested_quad_ratio(f, params, delta):
    """certify_bilinear's ratio LHS / RHS by adaptive quadrature of both
    outer integrals, split at the profile's breakpoints (where f'' jumps,
    and u_r carries (r - b) log|r - b|), each piece at 1e-11 relative: the
    left side -omega int u_r f' r^{-1-delta} dr on [0, R] with u_r from
    `radial_velocity` (good to 3e-12), the right side C omega int
    (f - f(0))^2 r^{-2-delta} w_a dr on [0, infinity).  omega cancels."""
    R = f.support_radius
    pts = sorted({0.0, R, *(b for b in f.breakpoints if 0.0 < b < R)})
    f0 = float(f.value(np.array([0.0]))[0])

    def lhs(r):
        return -radial_velocity(f, params, r) * float(f.derivative(np.array([r]))[0]) \
            * r ** (-1.0 - delta)

    def rhs(r):
        return (float(f.value(np.array([r]))[0]) - f0) ** 2 * r ** (-2.0 - delta) \
            * float(screening_weight(np.array(r), params))

    def pieces(g, ends):
        return math.fsum(integrate.quad(g, lo, hi, epsabs=0.0, epsrel=1e-11, limit=200)[0]
                         for lo, hi in zip(ends[:-1], ends[1:]))

    right = bilinear_constant(params.n, delta) * pieces(rhs, pts + [np.inf])
    return pieces(lhs, pts) / right


def _max_slope(f):
    return np.abs(f.derivative(np.linspace(0.0, f.support_radius, 2001))).max()


class TestFamilies:
    @pytest.mark.parametrize("fam", shipped_families(spline_seeds=(0, 7, 42)),
                             ids=lambda f: f"{f.kind}-{f.seed}")
    def test_class_invariants(self, fam):
        assert isinstance(fam.sample(), RadialProfile)
        fam.validate()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TestFunctionFamily("triangle")

    def test_spline_family_is_seeded(self):
        a = TestFunctionFamily("random_monotone_spline", seed=3).sample()
        b = TestFunctionFamily("random_monotone_spline", seed=3).sample()
        r = np.linspace(0, 1.5, 100)
        assert np.array_equal(a.value(r), b.value(r))

    def test_breakpoints(self):
        step = TestFunctionFamily("smoothed_step", (1.0, 0.7, 0.25)).sample()
        ramp = TestFunctionFamily("piecewise_linear_smoothed", (1.0, 0.3, 1.0, 0.1)).sample()
        assert np.array_equal(step.breakpoints, [0.0, 0.7 - 0.25, 0.7 + 0.25])
        assert np.array_equal(ramp.breakpoints, [0.0, 0.3 - 0.1, 0.3 + 0.1, 1.0 - 0.1, 1.0 + 0.1])
        assert (step.support_radius, ramp.support_radius) == (0.7 + 0.25, 1.0 + 0.1)

    @pytest.mark.parametrize("kind,params,oracle", [
        ("smoothed_step", (1.0, 0.7, 0.25), _step_oracle),
        ("smoothed_step", (0.5, 0.3, 0.29), _step_oracle),
        ("piecewise_linear_smoothed", (1.0, 0.3, 1.0, 0.1), _ramp_oracle),
        ("piecewise_linear_smoothed", (0.5, 0.5, 2.0, 0.3), _ramp_oracle),
    ], ids=["step", "narrow_step", "ramp", "wide_ramp"])
    def test_matches_closed_form(self, kind, params, oracle):
        f = TestFunctionFamily(kind, params).sample()
        b = f.breakpoints
        r = np.sort(np.concatenate([np.linspace(-0.3, 1.5 * f.support_radius, 20001),
                                    b, b - 1e-12, b + 1e-12]))
        value, slope = oracle(r, *params)
        assert np.abs(f.value(r) - value).max() <= 1e-14
        # relative to the slope scale: the quintic's derivative loses a few
        # ulps of it in the power basis near the top of the step
        assert np.abs(f.derivative(r) - slope).max() <= 1e-14 * np.abs(slope).max()

    @pytest.mark.parametrize("kind", TestFunctionFamily._KINDS)
    def test_slope_continuous_at_interior_breakpoints(self, kind):
        # the bump's breakpoints are 0 and its support radius: no interior one
        for seed in range(20) if kind == "random_monotone_spline" else (0,):
            f = TestFunctionFamily(kind, seed=seed).sample()
            left, right = _slope_limits(f)
            assert np.abs(left[:-1] - right[1:]).max(initial=0.0) <= 1e-12 * _max_slope(f)

    def test_slope_at_support_edge(self):
        # C^1 across the support edge R for every family but the spline,
        # which is C^1 on [0, R) and only Lipschitz across R: its end slope
        # is whatever the monotone cubic gives, and f' = 0 beyond R
        for kind in ("smoothed_step", "piecewise_linear_smoothed"):
            f = TestFunctionFamily(kind).sample()
            assert abs(_slope_limits(f)[0][-1]) <= 1e-12 * _max_slope(f)
        bump = TestFunctionFamily("bump").sample()
        assert bump.derivative(bump.support_radius * (1.0 - 1e-3)) <= 1e-12 * _max_slope(bump)
        spline = TestFunctionFamily("random_monotone_spline", seed=6).sample()
        R = spline.support_radius
        assert _slope_limits(spline)[0][-1] > 0.25 * _max_slope(spline)
        assert spline.derivative(np.array([R + 1e-12]))[0] == 0.0

    def test_negation_flips_velocity(self):
        # the nonincreasing mirror class is covered by linearity: negating
        # the profile negates the transform (same interpolant representation
        # on both sides)
        f = shipped_families()[0].sample()
        r = np.array([0.3, 0.7, 1.4])
        pos = RadialProfile(f.nodes, f.values.copy())
        neg = RadialProfile(f.nodes, -f.values)
        u_pos = radial_velocity(pos, P2, r)
        u_neg = radial_velocity(neg, P2, r)
        assert np.allclose(u_neg, -u_pos, rtol=1e-12, atol=1e-14)


class TestWeightedProfileIntegral:
    def test_against_dense_trapezoid_oracle(self):
        f = shipped_families()[0].sample()  # bump
        for r in (0.4, 0.9, 1.6):
            got = weighted_profile_integral(f, r, 2)
            rho = np.linspace(0.0, r, 400_001)
            fr = float(np.asarray(f.value(np.asarray([r])))[0])
            oracle = np.trapezoid((fr - f.value(rho)) * rho, rho)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-12)

    def test_zero_radius(self):
        f = shipped_families()[0].sample()
        assert weighted_profile_integral(f, 0.0, 2) == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_bound_near_origin_matches_mpmath(self, n):
        # f(r) - f(rho) cancels near the origin, where the bump is flat; the
        # by-parts form int f'(rho) rho^n d(rho) / n does not
        mp = pytest.importorskip("mpmath")
        L, depth, sharp = 1.5, 0.7, 4.0
        f = TestFunctionFamily("bump", (L, depth, sharp)).sample()
        params = Params(n, 1.0, 1.0)
        radii = np.array([1.24e-3, 1.91e-3])
        value = lambda x: -depth * mp.exp(sharp * (1 - 1 / (1 - (x / L) ** 2)))
        want = []
        with mp.workdps(40):
            for r in map(mp.mpf, radii):
                integral = mp.quad(lambda x: (value(r) - value(x)) * x ** (n - 1), [0, r])
                weight = 1 - 2 ** (n + 1) * r ** (n + 1) / (4 * r ** 2 + 1) ** (mp.mpf(n + 1) / 2)
                pref = n * mp.beta(0.5, mp.mpf(n + 1) / 2) / (2 ** (n + 1) * mp.pi)
                want.append(float(pref * weight / r ** n * integral))
        got = pointwise_lower_bound(f, params, radii)
        assert np.abs(got / np.array(want) - 1.0).max() <= 1e-13
        assert isinstance(weighted_profile_integral(f, float(radii[0]), n), float)


class TestPointwise:
    def test_constant_profile_degenerates(self):
        prof = RadialProfile(np.linspace(0, 1, 9), np.full(9, -0.2))
        rep = certify_pointwise(prof, P2, [0.3, 0.8])
        assert rep.min_slack == pytest.approx(0.0, abs=1e-12)

    def test_bump_family_certifies(self):
        f = shipped_families()[0].sample()
        radii = np.geomspace(0.05, 2.0, 20)
        rep = certify_pointwise(f, P2, radii)
        assert rep.passed
        assert rep.min_slack >= 0.0
        assert rep.samples == 20

    @pytest.mark.parametrize("n", [2, 3])
    def test_spline_family_certifies(self, n):
        f = TestFunctionFamily("random_monotone_spline", seed=11).sample()
        params = Params(n, 0.5, 1.0)
        rep = certify_pointwise(f, params, np.geomspace(0.05, 3.0, 12))
        assert rep.passed

    @pytest.mark.parametrize("radii", [[], [0.0], [0.3, 0.0, 0.8], [-0.1, 0.5], [np.nan]],
                             ids=["empty", "zero", "zero_among_positive", "negative", "nan"])
    def test_rejects_empty_or_nonpositive_radii(self, radii):
        # r = 0 used to fail the cell as -inf after 0/0 warnings, although
        # both sides vanish there; [] used to pass vacuously
        with pytest.raises(ValueError, match="positive radii"):
            certify_pointwise(shipped_families()[0].sample(), P2, radii)

    def test_lower_bound_positive_inside_support(self):
        f = shipped_families()[0].sample()
        assert pointwise_lower_bound(f, P2, 0.5) > 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_velocity_fails_and_names_radius(self, monkeypatch, bad):
        # NaN compares false against every slack, so a NaN side used to pass
        from screened_transport import inequalities

        def broken(f, params, r):
            out = np.asarray(radial_velocity(f, params, r), dtype=float).copy()
            out[2] = bad
            return out

        monkeypatch.setattr(inequalities, "radial_velocity", broken)
        f = shipped_families()[0].sample()
        radii = np.geomspace(0.05, 2.0, 6)
        rep = certify_pointwise(f, P2, radii)
        assert not rep.passed
        assert rep.min_slack == -np.inf
        assert rep.worst_case["radius"] == radii[2]

    def test_all_nan_velocity_fails(self, monkeypatch):
        from screened_transport import inequalities
        monkeypatch.setattr(inequalities, "radial_velocity",
                            lambda f, params, r: np.full(np.shape(r), np.nan))
        rep = certify_pointwise(shipped_families()[0].sample(), P2, [0.3, 0.8])
        assert not rep.passed
        assert rep.worst_case["radius"] == 0.3


class TestBilinear:
    def test_bump_ratio_exceeds_one(self):
        f = shipped_families()[0].sample()
        rep, = certify_bilinear(f, P2, [0.25])
        assert rep.passed
        assert rep.min_ratio >= 1.0

    @pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("seed, delta", [(11, 0.25), (35, 0.25), (6, 0.25), (35, 0.5)],
                             ids=["seed11", "seed35", "seed6_slope_jump_at_R", "seed35_delta0.5"])
    def test_spline_ratio_matches_nested_quadrature(self, seed, delta):
        # f'(0) != 0, so both integrands go like r^-delta at the origin (the
        # left one with a log r), and seed 11 has knots 1.8e-3 apart; seed 6's
        # slope jumps by 1.73 at R.  The halving rule missed by up to 3.0e-7
        # (seed 11) at delta = 0.25 and about 1e-5 at delta = 0.5
        f = TestFunctionFamily("random_monotone_spline", seed=seed).sample()
        rep, = certify_bilinear(f, P2, [delta])
        assert rep.min_ratio == pytest.approx(_nested_quad_ratio(f, P2, delta), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("delta", [-0.5, 0.0, 0.5])
    def test_step_family_across_delta(self, delta):
        f = TestFunctionFamily("smoothed_step").sample()
        rep, = certify_bilinear(f, P2, [delta])
        assert rep.min_ratio >= 1.0 - 1e-6

    @pytest.mark.parametrize("fam", [shipped_families()[0], shipped_families((35,))[-1]],
                             ids=["bump", "spline_seed35"])
    def test_delta_sequence_equals_single_delta_calls(self, monkeypatch, fam):
        from screened_transport import inequalities
        calls = []

        def counted(f, params, r):
            calls.append(np.size(r))
            return radial_velocity(f, params, r)

        monkeypatch.setattr(inequalities, "radial_velocity", counted)
        f = fam.sample()
        deltas = (-0.5, 0.0, 0.25, 0.5)
        got = certify_bilinear(f, P2, deltas)
        assert len(calls) == 1
        want = [rep for d in deltas for rep in certify_bilinear(f, P2, [d])]
        assert [rep.as_dict() for rep in got] == [rep.as_dict() for rep in want]
        assert [rep.worst_case["delta"] for rep in got] == list(deltas)

    def test_constant_profile_degenerates(self, monkeypatch):
        # f' = 0 at every node, so no velocity is evaluated
        from screened_transport import inequalities
        targets = []

        def counted(f, params, r):
            targets.append(np.size(r))
            return radial_velocity(f, params, r)

        monkeypatch.setattr(inequalities, "radial_velocity", counted)
        prof = RadialProfile(np.linspace(0, 1, 9), np.full(9, -0.2))
        rep, = certify_bilinear(prof, P2, [0.25])
        assert rep.passed
        assert sum(targets) == 0

    @pytest.mark.parametrize("fam", shipped_families((0, 6, 35)),
                             ids=["bump", "bump_L1.5", "step", "ramp", "spline_seed0",
                                  "spline_seed6", "spline_seed35"])
    def test_skipping_zero_slope_nodes_keeps_the_bits(self, fam):
        # the ratio with u_r at every graded node, as before the skip
        from screened_transport.blowup import sphere_area
        from screened_transport.inequalities import _bilinear_rhs

        def every_node(f, params, delta):
            r, w, _ = graded_rule(f.support_radius, f.breakpoints)
            integrand = -radial_velocity(f, params, r) * f.derivative(r) * r ** (-1.0 - delta)
            lhs = sphere_area(params.n) * float(np.dot(w, integrand))
            return lhs / _bilinear_rhs(f, params, delta, r, w)

        f = fam.sample()
        for p in (Params(2, 0.5, 1.0), Params(2, 1.0, 1.0)):
            got = [rep.min_ratio for rep in certify_bilinear(f, p, (-0.5, 0.25))]
            assert got == [every_node(f, p, delta) for delta in (-0.5, 0.25)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_velocity_fails(self, monkeypatch, bad):
        from screened_transport import inequalities
        monkeypatch.setattr(inequalities, "radial_velocity",
                            lambda f, params, r: np.full(np.shape(r), bad))
        rep, = certify_bilinear(shipped_families()[0].sample(), P2, [0.25])
        assert not rep.passed
        assert rep.min_ratio == -np.inf

    def test_report_serializes(self, tmp_path):
        import json
        from screened_transport.inequalities import report_to_json
        f = shipped_families()[0].sample()
        rep, = certify_bilinear(f, P2, [0.0])
        report_to_json(rep, tmp_path / "r.json")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["inequality"] == "bilinear_lower_bound"
        assert data["pass"] is True


class TestYoungSplit:
    def test_equal_arguments(self):
        lhs, rhs = young_split(1.3, 1.3, 0.4)
        assert lhs == 0.0
        assert rhs <= 0.0

    def test_second_argument_zero(self):
        lhs, rhs = young_split(2.0, 0.0, 0.7)
        assert lhs == pytest.approx(4.0)
        assert rhs == pytest.approx((1 - 0.7) * 4.0)
        assert lhs >= rhs

    def test_hundred_thousand_random_triples(self):
        rng = np.random.default_rng(97531)
        b1 = rng.normal(0.0, 3.0, 100_000)
        b2 = rng.normal(0.0, 3.0, 100_000)
        alpha = rng.uniform(1e-6, 1.0 - 1e-6, 100_000)
        lhs = (b1 - b2) ** 2
        rhs = (1.0 - alpha) * b1 ** 2 + (1.0 - 1.0 / alpha) * b2 ** 2
        assert int(np.sum(lhs < rhs)) == 0

    def test_rejects_alpha_outside_range(self):
        for alpha in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ValueError):
                young_split(1.0, 1.0, alpha)

    @given(b1=st.floats(-1e6, 1e6), b2=st.floats(-1e6, 1e6),
           alpha=st.floats(1e-6, 1.0 - 1e-6))
    @settings(max_examples=300, deadline=None)
    def test_property(self, b1, b2, alpha):
        lhs, rhs = young_split(b1, b2, alpha)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(lhs), abs(rhs))
