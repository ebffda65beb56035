import numpy as np
import pytest
from scipy.integrate import quad

from screened_transport import Params, bilinear_constant, screening_weight
from screened_transport import kernels
from screened_transport.kernels import psi, psi_quadrature


def psi_reference(n, q, c):
    """Independent adaptive-quadrature oracle for the angular integral."""
    e = 0.5 * (n + 1)

    def f(mu):
        A = (1.0 - q) ** 2 + 4.0 * q * np.sin(0.5 * mu) ** 2
        return np.sin(mu) ** n * A ** -e * (-np.expm1(-e * np.log1p(c / A)))

    v1, _ = quad(f, 0.0, 0.1, limit=500, epsabs=1e-300, epsrel=1e-12)
    v2, _ = quad(f, 0.1, np.pi, limit=500, epsabs=1e-300, epsrel=1e-12)
    return v1 + v2


# 0.17 / 0.173 straddle m = 0.5 (the n = 2 branch switch as c -> 0) and
# 0.267 / 0.269 straddle x = 0.5 (the n = 3 switch)
QS = [0.0, 1e-4, 0.05, 0.17, 0.173, 0.267, 0.269, 0.4, 0.9, 0.999, 1.001, 1.2, 4.0, 60.0]
CS = [1e-7, 1e-4, 0.02, 1.0, 9.0, 1e4]


class TestPsi:
    @pytest.mark.parametrize("n", [2, 3])
    def test_closed_forms_match_quadrature_oracle(self, n):
        worst = 0.0
        for q in QS:
            for c in CS:
                got = float(psi(n, np.array([q]), np.array([c]))[0])
                ref = psi_reference(n, q, c)
                worst = max(worst, abs(got - ref) / abs(ref))
        # the scipy.quad oracle itself carries ~1e-10 noise at these tolerances
        assert worst <= 2e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fallback_quadrature_consistent(self, n):
        for q in (0.3, 1.05):
            for c in (0.5, 3.0):
                got = float(psi_quadrature(n, np.array([q]), np.array([c]))[0])
                ref = psi_reference(n, q, c)
                assert got == pytest.approx(ref, rel=1e-10)

    def test_quadrature_batch_equals_single_elements(self):
        # elements are evaluated in groups and chunks; each value must depend
        # only on its own q and c
        q = np.concatenate([np.array(QS), np.linspace(0.0, 3.0, 150)])
        c = np.resize(np.array(CS), q.shape)
        batch = psi_quadrature(4, q, c)
        single = [psi_quadrature(4, q[i:i + 1], c[i:i + 1])[0] for i in range(len(q))]
        assert np.array_equal(batch, single)
        assert np.array_equal(psi_quadrature(4, q.reshape(2, -1), c.reshape(2, -1)),
                              batch.reshape(2, -1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_positive(self, n):
        q = np.array(QS)
        vals = psi(n, q, np.full_like(q, 2.0))
        assert np.all(vals > 0.0)

    def test_vectorized_matches_scalar_loop(self):
        q = np.array(QS)
        c = np.linspace(0.1, 5.0, len(QS))
        for n in (2, 3):
            vec = psi(n, q, c)
            assert np.array_equal(vec, [psi(n, q[i:i + 1], c[i:i + 1])[0] for i in range(len(QS))])

    @pytest.mark.parametrize("n", [2, 3])
    def test_finite_at_q_one(self, n):
        # the log singularity is capped where pm = (1 - q)^2 is 0 (both
        # closed forms floor pm at 5e-324), far above its neighbours' values
        c = np.array([0.01, 1.0, 100.0])
        at = psi(n, np.ones(3), c)
        assert np.all(np.isfinite(at))
        assert np.all(at > psi(n, np.full(3, 1.0 + 2.0 ** -52), c))

    def test_t3_log_branch_unchanged_where_pm_positive(self, rng):
        # the cap at pm = 0 leaves every other value of the log branch bit
        # for bit the plain formula
        q = np.concatenate([rng.uniform(0.3, 3.5, 5000), 1.0 + rng.normal(0.0, 1e-9, 5000)])
        p = 1.0 + q * q + rng.uniform(0.0, 2.0, q.size)
        pm = p - 2.0 * q
        big = 2.0 * q / p >= 0.5
        q, p, pm = q[big], p[big], pm[big]
        plain = (p / (4.0 * q ** 3)) * np.log((p + 2.0 * q) / pm) - 1.0 / q ** 2
        assert np.array_equal(kernels._t3(p, q, pm), plain)

    @pytest.mark.parametrize("n", [2, 3])
    def test_makes_no_hyp2f1_call(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("psi called scipy.special.hyp2f1")

        monkeypatch.setattr(kernels.special, "hyp2f1", refuse)
        q = np.array(QS)
        assert np.all(np.isfinite(psi(n, q, np.resize(np.array(CS), q.shape))))


class TestSeries:
    """The power series of the branches away from q = 1 against mpmath's
    hypergeometric function, and their joins to the closed forms."""

    def test_j2_small_branch_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        m = np.concatenate([np.linspace(0.0, 0.5, 400, endpoint=False),
                            np.random.default_rng(3).uniform(0.0, 0.5, 400)])
        # p = 1 and m = 4q / (1 + 2q)
        q = m / (4.0 - 2.0 * m)
        got = kernels._j2(np.ones_like(q), q, 1.0 - 2.0 * q)
        with mp.workdps(40):
            want = [float(mp.pi / 2 * (1 + 2 * mp.mpf(x)) ** -1.5
                          * mp.hyp2f1(1.5, 1.5, 3, 4 * mp.mpf(x) / (1 + 2 * mp.mpf(x)))) for x in q]
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15

    def test_t3_small_branch_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.linspace(0.0, 0.5, 400, endpoint=False),
                            np.random.default_rng(4).uniform(0.0, 0.5, 400)])
        # p = 1, x = 2q and z = x^2 in [0, 1/4)
        got = kernels._t3(np.ones_like(x), 0.5 * x, 1.0 - x)
        with mp.workdps(40):
            want = [float(mp.mpf(4) / 3 * mp.hyp2f1(1, 1.5, 2.5, mp.mpf(v) ** 2)) for v in x]
        assert np.max(np.abs(got / want - 1.0)) <= 2e-15

    # the series side, at 1e-6 + 1e-12 and 1e-12 below a switch, extrapolated
    # linearly to 1e-12 above it, where the closed form takes over
    STEPS = np.array([-1e-6 - 1e-12, -1e-12, 1e-12])

    @staticmethod
    def _jump(vals):
        series = vals[1] + (vals[1] - vals[0]) * 2e-12 / 1e-6
        return abs(vals[2] - series) / abs(series)

    @pytest.mark.parametrize("p", [1.0, 7.5])
    def test_j2_continuous_across_switch(self, p):
        # m = 4q / (p + 2q) = 1/2 at q = p / 6
        m = 0.5 + self.STEPS
        q = p * m / (4.0 - 2.0 * m)
        assert self._jump(kernels._j2(np.full(3, p), q, p - 2.0 * q)) <= 1e-14

    @pytest.mark.parametrize("p", [1.0, 7.5])
    def test_t3_continuous_across_switch(self, p):
        # x = 2q / p = 1/2 at q = p / 4
        q = 0.5 * p * (0.5 + self.STEPS)
        assert self._jump(kernels._t3(np.full(3, p), q, p - 2.0 * q)) <= 1e-14


class TestGaussPanels:
    def test_per_panel_counts_exact_on_their_degree(self, rng):
        # a k-point panel integrates every polynomial of degree 2k - 1 exactly
        counts = rng.permutation(np.arange(1, 33))
        lo = rng.uniform(-3.0, 3.0, 32)
        hi = lo + rng.uniform(1e-3, 2.0, 32)
        x, w = kernels.gauss_panels(lo, hi, counts)
        assert len(x) == len(w) == counts.sum()
        ends = np.cumsum(counts)
        for k, a, b, xs, ws in zip(counts, lo, hi, np.split(x, ends[:-1]), np.split(w, ends[:-1])):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            coef = rng.uniform(-1.0, 1.0, 2 * k)
            j = np.arange(2 * k)
            exact = half * np.sum(coef * (1.0 + (-1.0) ** j) / (j + 1.0))
            got = np.dot(ws, np.polynomial.polynomial.polyval((xs - mid) / half, coef))
            assert got == pytest.approx(exact, rel=1e-13, abs=1e-13 * half), k
            assert np.all((xs > a) & (xs < b))

    @pytest.mark.parametrize("k", [1, 16, 24, 32])
    def test_one_count_is_the_inline_map(self, rng, k):
        brk = np.sort(rng.uniform(0.0, 5.0, 40))
        lo, hi = brk[:-1], brk[1:]
        xg, wg = np.polynomial.legendre.leggauss(k)
        x, w = kernels.gauss_panels(lo, hi, k)
        assert np.array_equal(x, (0.5 * (hi - lo)[:, None] * xg + 0.5 * (hi + lo)[:, None]).ravel())
        assert np.array_equal(w, (0.5 * (hi - lo)[:, None] * wg).ravel())


def _certified_profiles():
    from screened_transport.inequalities import TestFunctionFamily, shipped_families
    from screened_transport.radial import blended_markers
    from screened_transport import RadialProfile
    labels = blended_markers(96, 1.0)
    markers = RadialProfile(labels, -np.cos(0.5 * np.pi * labels) ** 2)
    return ([fam.sample() for fam in shipped_families()] + [markers]
            + [TestFunctionFamily("random_monotone_spline", seed=s).sample() for s in range(100)])


class TestGradedRule:
    @pytest.mark.parametrize("upper", [0.7, 1.6])
    @pytest.mark.parametrize("delta", [-0.5, 0.25, 0.5])
    def test_origin_singularity_in_closed_form(self, upper, delta):
        # int_0^h r^-delta log r dr = h^(1-delta) (log h / (1-delta) - 1 / (1-delta)^2):
        # the bilinear left side's behaviour at the origin when f'(0) != 0
        r, w, _ = kernels.graded_rule(upper, [])
        exact = upper ** (1.0 - delta) * (np.log(upper) / (1.0 - delta) - 1.0 / (1.0 - delta) ** 2)
        assert np.dot(w, r ** -delta * np.log(r)) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_breakpoint_singularities_in_closed_form(self):
        # sum_b (r - b) log|r - b| P(r), P cubic, across spline seed 11's knot
        # pair 1.8e-3 apart: u_r's term where f'' jumps.  With x = r - b,
        # int x^m log|x| dx = x^(m+1) (log|x| / (m+1) - 1 / (m+1)^2)
        knots, upper = [0.2364, 0.2382], 1.0
        cubic = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.0])

        def F(x, m):
            return x ** (m + 1) * (np.log(abs(x)) / (m + 1) - 1.0 / (m + 1) ** 2)

        exact = sum(c * (F(upper - b, k + 1) - F(-b, k + 1))
                    for b in knots for k, c in enumerate(cubic(np.polynomial.Polynomial([b, 1.0])).coef))
        r, w, count = kernels.graded_rule(upper, knots)
        got = np.dot(w, sum((r - b) * np.log(np.abs(r - b)) for b in knots) * cubic(r))
        assert got == pytest.approx(exact, rel=1e-13, abs=0.0)
        assert count.sum() == r.size

    def test_nodes_lie_inside_off_the_breakpoints_and_above_the_linear_radius(self):
        # below r_0 = 1e-60 min(a, L) radial_velocity returns its linear term,
        # which is not its limit when f'(0) != 0; 0.25 is the smallest shipped a
        for prof in _certified_profiles():
            L = prof.support_radius
            r, w, count = kernels.graded_rule(L, prof.breakpoints)
            assert np.all(np.diff(r) > 0.0) and np.all(w > 0.0)
            assert r[0] > 1e-60 * min(0.25, L) and r[-1] < L
            assert not np.any(np.isin(r, prof.breakpoints))
            assert count.sum() == r.size and count.min() >= 4

    @pytest.mark.parametrize("seed, most", [(None, 350), (35, 976)], ids=["bump", "spline_seed35"])
    def test_outer_targets_per_criterion_4_cell(self, monkeypatch, seed, most):
        # velocity targets of one certify_bilinear call at a = 1; the halving
        # rule took 703 on the bump and 976 on spline seed 35
        from screened_transport import TestFunctionFamily, bump_profile, certify_bilinear
        from screened_transport import inequalities, radial_velocity
        targets = []

        def counted(f, params, r):
            targets.append(np.size(r))
            return radial_velocity(f, params, r)

        monkeypatch.setattr(inequalities, "radial_velocity", counted)
        f = (bump_profile(1.0, 1.0, 2.0) if seed is None
             else TestFunctionFamily("random_monotone_spline", seed=seed).sample())
        certify_bilinear(f, Params(2, 1.0, 1.0), [0.25])
        assert sum(targets) <= most


class TestScreeningWeight:
    def test_value_at_origin_is_one(self):
        p = Params(2, 1.0, 1.0)
        assert float(screening_weight(np.array(0.0), p)) == 1.0

    def test_decays_to_zero_from_above(self):
        p = Params(3, 0.5, 1.0)
        r = np.geomspace(1.0, 1e6, 50)
        w = screening_weight(r, p)
        assert np.all(w > 0.0)
        assert np.all(np.diff(w) < 0.0)
        # asymptotics (n+1) a^2 / (8 r^2)
        assert w[-1] == pytest.approx(4 * 0.25 / (8 * r[-1] ** 2), rel=1e-3)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
    def test_strictly_decreasing_dense(self, n, a):
        p = Params(n, a, 1.0)
        r = np.linspace(0.0, 30.0 * a, 10_000)
        w = screening_weight(r, p)
        assert np.all((w > 0.0) & (w <= 1.0))
        assert np.all(np.diff(w) < 0.0)


class TestBilinearConstant:
    def test_frozen_value_n2_delta0(self):
        # closed form reduces to (5 - 2 sqrt 6) / 32 since B(1/2, 3/2) = pi/2
        assert bilinear_constant(2, 0.0) == pytest.approx((5.0 - 2.0 * np.sqrt(6.0)) / 32.0,
                                                          rel=1e-14)
        assert bilinear_constant(2, 0.0) == pytest.approx(3.1568e-3, rel=1e-4)

    def test_continuous_toward_lower_endpoint(self):
        vals = [bilinear_constant(2, d) for d in (-0.9, -0.99, -0.999, -0.9999)]
        assert all(v > 0 for v in vals)
        assert abs(vals[-1] - vals[-2]) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_monotone_increasing_in_delta(self, n):
        deltas = np.linspace(-0.95, 0.95, 39)
        vals = [bilinear_constant(n, d) for d in deltas]
        assert np.all(np.diff(vals) > 0.0)

    def test_rejects_out_of_range(self):
        for d in (-1.0, 1.0, 1.5):
            with pytest.raises(ValueError):
                bilinear_constant(2, d)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    @pytest.mark.parametrize("delta", [-0.75, -0.25, 0.0, 0.37, 0.9])
    def test_proof_chain_identity(self, n, delta):
        # (2n+1+d)/(n(n+1+d)) - 2/sqrt(n(n+1+d)) == (sqrt(n+1+d)-sqrt(n))^2/(n(n+1+d))
        lhs = (2 * n + 1 + delta) / (n * (n + 1 + delta)) - 2.0 / np.sqrt(n * (n + 1 + delta))
        rhs = (np.sqrt(n + 1 + delta) - np.sqrt(n)) ** 2 / (n * (n + 1 + delta))
        assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(rhs))
