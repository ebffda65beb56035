"""Acceptance suite: every criterion at its stated tolerance, one reported
line per criterion (see the terminal summary section 'acceptance criteria').

The collapse-run structure criteria share a single default experiment:
n = 2, N = 256, half_width = 4, bump(L = 2, depth = 1, sharpness = 4),
a = g = 1, delta = 0.25.  The diagnostic window for structure preservation
is [0, T3], where T3 is the first recorded time the max gradient reaches
three times its initial value.
"""

import numpy as np
import pytest
import scipy.fft as sfft

from screened_transport import (
    BlowupConfig,
    Params,
    ScalarField,
    bkm_partial_integral,
    bump_profile,
    conjugate_poisson,
    evaluate_at,
    limit_report,
    make_grid,
    predict_blowup_time,
    riccati_check,
    riccati_rate,
    riesz,
    run_nd,
    run_radial,
    sample_radial,
    screened_riesz,
    screened_riesz_direct,
    screened_riesz_divergence,
    structural_checks,
    young_split,
    NdState,
    Stop,
)
from screened_transport.inequalities import certify_bilinear, certify_pointwise, shipped_families
from screened_transport.ndsolver import _Workspace, rhs, step_rk4

from conftest import full_grid, record_acceptance


P2 = Params(2, 1.0, 1.0)

# default collapse experiment shared by criteria 5, 6 and 7
DEFAULT = dict(N=256, half_width=4.0, L=2.0, depth=1.0, sharpness=4.0,
               a=1.0, g=1.0, delta=0.25, gradient_factor=50.0, t_max=30.0)


def _spectral_at_points(field, params, points):
    vel = screened_riesz(field, params)
    cols = [evaluate_at(ScalarField(field.grid, c), points) for c in vel.components]
    return np.stack(cols, axis=1)


# ---------------------------------------------------------------------------
# criterion 1: operator correctness (backend equivalence oracle)
# ---------------------------------------------------------------------------

def test_criterion_1_backend_equivalence():
    # 32 random targets in an annulus where the output is O(its max); the
    # velocity vanishes at the origin by symmetry, so per-target relative
    # error is only meaningful away from it
    rng = np.random.default_rng(20240817)
    theta = rng.uniform(0.0, 2.0 * np.pi, 32)
    radii = rng.uniform(0.4, 1.0, 32)
    pts = np.stack([radii * np.cos(theta), radii * np.sin(theta)], axis=1)
    prof = bump_profile(1.0, 1.0, 2.0)
    worst = {}
    for N in (128, 256):
        grid = make_grid(2, 4.0, N)
        f = sample_radial(prof, grid)
        direct = screened_riesz_direct(f, P2, pts, support_radius=1.0)
        spect = _spectral_at_points(f, P2, pts)
        rel = np.linalg.norm(direct - spect, axis=1) / np.linalg.norm(spect, axis=1)
        worst[N] = float(rel.max())
    ok = worst[128] <= 1e-3 and worst[256] < worst[128]
    record_acceptance(f"criterion 1 backend equivalence: {'PASS' if ok else 'FAIL'} "
                      f"(max rel gap N=128: {worst[128]:.2e}, N=256: {worst[256]:.2e})")
    assert worst[128] <= 1e-3
    assert worst[256] < worst[128]


# ---------------------------------------------------------------------------
# criterion 2: symbol identities and operator limits
# ---------------------------------------------------------------------------

def test_criterion_2_symbol_identities(rng):
    grid = make_grid(2, 4.0, 64)
    vals = rng.standard_normal(grid.shape)
    vals -= vals.mean()
    f = ScalarField(grid, vals / ScalarField(grid, vals).l2_norm())
    p = Params(2, 0.8, 1.0)

    contraction = screened_riesz(f, p).l2_norm() <= f.l2_norm() * (1 + 1e-12)

    r, q, s = riesz(f), conjugate_poisson(f, p), screened_riesz(f, p)
    coeff_gap = max(np.max(np.abs(sfft.fftn(r.components[j]) - sfft.fftn(q.components[j])
                                  - sfft.fftn(s.components[j]))) for j in range(2))
    identity = coeff_gap <= 1e-12 * np.abs(sfft.fftn(f.values)).max()

    k_min = np.pi / grid.half_width
    a_values = [0.0, 0.5, 2.0, 10.0, 40.0 / k_min, 60.0 / k_min]
    rep = limit_report(f, a_values)
    monotone = (np.all(np.diff(rep.riesz_gap) <= 1e-14)
                and np.all(np.diff(rep.zero_gap) >= -1e-14))
    small_gap = rep.riesz_gap[-2] < 1e-10 and rep.riesz_gap[-1] < 1e-10

    ok = contraction and identity and monotone and small_gap
    record_acceptance(
        f"criterion 2 symbol identities: {'PASS' if ok else 'FAIL'} "
        f"(coeff gap {coeff_gap:.1e}, riesz gap at a k_min = 40: {rep.riesz_gap[-2]:.1e})")
    assert contraction and identity and monotone and small_gap


# ---------------------------------------------------------------------------
# criterion 3: pointwise lower bound certification
# ---------------------------------------------------------------------------

def test_criterion_3_pointwise_certification():
    worst = None
    count = 0
    for fam in shipped_families(spline_seeds=(0, 1)):
        fam.validate()
        f = fam.sample()
        for n in (2, 3):
            for a in (0.1, 1.0, 10.0):
                params = Params(n, a, 1.0)
                radii = np.geomspace(min(a / 31.6, 0.05 * f.support_radius),
                                     max(31.6 * a, 2.0 * f.support_radius), 20)
                rep = certify_pointwise(f, params, radii, tolerance=1e-8)
                count += rep.samples
                if worst is None or rep.min_slack < worst.min_slack:
                    worst = rep
    ok = worst.min_slack >= -1e-8
    record_acceptance(
        f"criterion 3 pointwise bound: {'PASS' if ok else 'FAIL'} "
        f"(min normalized slack {worst.min_slack:.2e} over {count} radii; "
        f"worst case {worst.worst_case})")
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: bilinear lower bound certification
# ---------------------------------------------------------------------------

def test_criterion_4_bilinear_certification():
    worst_ratio = np.inf
    worst_case = None
    bump = bump_profile(1.0, 1.0, 2.0)
    for a in (0.25, 0.5, 1.0, 2.0, 4.0):
        for rep in certify_bilinear(bump, Params(2, a, 1.0), (-0.5, -0.25, 0.0, 0.25, 0.5)):
            if rep.min_ratio < worst_ratio:
                worst_ratio, worst_case = rep.min_ratio, rep.worst_case
    from screened_transport import TestFunctionFamily
    for seed in range(100):
        f = TestFunctionFamily("random_monotone_spline", seed=seed).sample()
        rep, = certify_bilinear(f, P2, [0.25])
        if rep.min_ratio < worst_ratio:
            worst_ratio, worst_case = rep.min_ratio, {**rep.worst_case, "seed": seed}

    # proof-chain identity for the explicit constant
    id_gap = 0.0
    for n in (2, 3, 4, 6):
        for delta in (-0.75, -0.25, 0.0, 0.25, 0.75):
            lhs = (2 * n + 1 + delta) / (n * (n + 1 + delta)) - 2.0 / np.sqrt(n * (n + 1 + delta))
            rhs_ = (np.sqrt(n + 1 + delta) - np.sqrt(n)) ** 2 / (n * (n + 1 + delta))
            id_gap = max(id_gap, abs(lhs - rhs_) / (1.0 + abs(rhs_)))

    ok = worst_ratio >= 1.0 - 1e-6 and id_gap <= 1e-14
    record_acceptance(
        f"criterion 4 bilinear bound: {'PASS' if ok else 'FAIL'} "
        f"(min ratio {worst_ratio:.8f} at {worst_case}; constant identity gap {id_gap:.1e})")
    assert worst_ratio >= 1.0 - 1e-6
    assert id_gap <= 1e-14


# ---------------------------------------------------------------------------
# criteria 5-7: the default collapse run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def collapse_run():
    d = DEFAULT
    grid = make_grid(2, d["half_width"], d["N"])
    prof = bump_profile(d["L"], d["depth"], d["sharpness"])
    rho0 = sample_radial(prof, grid)
    params = Params(2, d["a"], d["g"])
    with pytest.warns(UserWarning):
        # the bump's spectral tail at this resolution sits just above the
        # strict resolution gate; the run proceeds with a warning
        result = run_nd(rho0, params,
                        t_max=d["t_max"], gradient_factor=d["gradient_factor"],
                        delta=d["delta"], support_radius=d["L"],
                        output_interval=0.05, snapshot_interval=0.25)
    return result


@pytest.fixture(scope="module")
def collapse_window(collapse_run):
    sg = collapse_run.series.column("sup_grad")
    t = collapse_run.series.t
    idx = np.argmax(sg >= 3.0 * sg[0])
    assert sg[idx] >= 3.0 * sg[0], "gradient never tripled"
    return float(t[idx])


@pytest.fixture(scope="module")
def radial_companion(collapse_run, collapse_window):
    d = DEFAULT
    params = Params(2, d["a"], d["g"])
    prof = bump_profile(d["L"], d["depth"], d["sharpness"])
    times = sorted(t for t, _ in collapse_run.snapshots if 0.0 < t <= collapse_window)
    return run_radial(prof, params, t_max=times[-1] + 1e-9, gradient_factor=np.inf,
                      markers=384, output_interval=0.05, snapshot_times=times,
                      delta=d["delta"])


def test_criterion_5_blowup_scenario(collapse_run, collapse_window):
    d = DEFAULT
    res = collapse_run
    cfg = BlowupConfig(d["delta"], d["L"], Params(2, d["a"], d["g"]))
    reached = res.stop_reason is Stop.GRADIENT_THRESHOLD
    sg = res.series.column("sup_grad")
    growth = float(sg.max() / sg[0])

    t = res.series.t
    bkm_final = bkm_partial_integral(res.series)
    bkm_half = bkm_partial_integral(res.series, up_to=t[-1] / 2.0)
    bkm_ratio = bkm_final / bkm_half

    I0 = float(res.series.column("i_delta")[0])
    rate = riccati_rate(cfg)
    bound = predict_blowup_time(I0, rate)
    observed = res.threshold_time
    within_bound = observed is not None and observed <= 1.2 * bound

    ric = riccati_check(res.series, cfg, window_end=collapse_window)
    ric_ok = ric["min_slack"] >= -1e-2 * ric["max_dI_dt"]

    dts = res.series.column("dt")[-10:]
    dt_monotone = bool(np.all(np.diff(dts) < 0.0))

    # the blow-up functional grows monotonically while the collapse is
    # resolved; the increment straddling the window edge is excluded because
    # origin under-resolution (the criterion 6 finding) sets in right there
    i_vals = res.series.column("i_delta")
    inside = t < collapse_window
    i_window = i_vals[inside]
    i_monotone = bool(np.all(np.diff(i_window) >= -1e-8 * max(abs(i_window).max(), 1.0)))

    ok = reached and growth >= 50.0 and bkm_ratio >= 5.0 and within_bound \
        and ric_ok and dt_monotone and i_monotone
    record_acceptance(
        f"criterion 5 blow-up scenario: {'PASS' if ok else 'FAIL'} "
        f"(stop {res.stop_reason.value}, growth {growth:.0f}x, "
        f"bkm(T)/bkm(T/2) {bkm_ratio:.2f}, observed {observed:.2f} <= 1.2x bound {bound:.0f}, "
        f"riccati slack {ric['min_slack']:.2e} >= {-1e-2 * ric['max_dI_dt']:.2e}, "
        f"dt monotone {dt_monotone}, I nondecreasing {i_monotone})")
    assert reached
    assert growth >= 50.0
    assert bkm_ratio >= 5.0
    assert within_bound
    assert ric_ok
    assert dt_monotone
    assert i_monotone


@pytest.fixture(scope="module")
def structure_report(collapse_run, collapse_window):
    d = DEFAULT
    cfg = BlowupConfig(d["delta"], d["L"], Params(2, d["a"], d["g"]))
    checks = structural_checks(collapse_run.snapshots, collapse_run.initial, cfg,
                               window_end=collapse_window,
                               origin_tol=1e-6, support_tol=1e-8,
                               angular_tol=1e-8, monotone_tol=1e-6)
    return {c["check"]: c for c in checks}


def test_criterion_6_angular_symmetry(structure_report):
    c = structure_report["angular_symmetry"]
    record_acceptance(f"criterion 6 angular variance < 1e-8: "
                      f"{'PASS' if c['pass'] else 'FAIL'} (worst {c['worst_violation']:.2e})")
    assert c["pass"]


def test_criterion_6_origin_invariance(structure_report):
    c = structure_report["origin_invariance"]
    record_acceptance(f"criterion 6 origin invariance < 1e-6: "
                      f"{'PASS' if c['pass'] else 'FAIL'} (worst {c['worst_violation']:.2e})")
    assert c["pass"]


def test_criterion_6_support_containment(structure_report):
    c = structure_report["support_containment"]
    record_acceptance(f"criterion 6 outside-support mass < 1e-8: "
                      f"{'PASS' if c['pass'] else 'FAIL'} (worst {c['worst_violation']:.2e})")
    assert c["pass"]


def test_criterion_6_monotonicity(structure_report):
    c = structure_report["radial_monotonicity"]
    record_acceptance(f"criterion 6 discrete monotonicity: "
                      f"{'PASS' if c['pass'] else 'FAIL'} (worst {c['worst_violation']:.2e})")
    assert c["pass"]


def test_criterion_7_cross_solver(collapse_run, collapse_window, radial_companion):
    assert radial_companion.stop_reason in (Stop.TIME_LIMIT,), \
        f"radial solver stopped early: {radial_companion.stop_reason}"
    d = DEFAULT
    grid = collapse_run.grid
    rprofiles = {round(t, 9): p for t, p in radial_companion.snapshots}
    worst = 0.0
    compared = 0
    for t, snap in collapse_run.snapshots:
        key = round(t, 9)
        if t == 0.0 or t > collapse_window or key not in rprofiles:
            continue
        radii, means = grid.radial_average(snap.values)
        sel = (radii > 0) & (radii <= d["L"])
        ref = rprofiles[key].value(radii[sel])
        w = radii[sel]
        err = np.sqrt(np.sum(w * (means[sel] - ref) ** 2) / np.sum(w * ref ** 2))
        worst = max(worst, float(err))
        compared += 1
    ok = compared >= 3 and worst < 1e-2
    record_acceptance(f"criterion 7 cross-solver: {'PASS' if ok else 'FAIL'} "
                      f"(worst volume-weighted rel L2 {worst:.2e} over {compared} times)")
    assert compared >= 3
    assert worst < 1e-2


# ---------------------------------------------------------------------------
# criterion 8: dynamics invariants
# ---------------------------------------------------------------------------

def test_criterion_8_dynamics_invariants():
    grid = make_grid(2, 4.0, 128)
    p = P2

    dealias = full_grid(grid).dealias

    def masked(field):
        return ScalarField(grid, sfft.ifftn(sfft.fftn(field.values) * dealias).real)

    # (a) integration-by-parts identity per evaluation
    state = NdState(0.0, masked(sample_radial(bump_profile(2.0, 1.0, 2.0), grid)), p)
    out = rhs(state)
    h = grid.cell_volume
    lhs = np.sum(state.rho.values * out.values) * h
    div = screened_riesz_divergence(state.rho, p)
    rhs_ = 0.5 * p.g * np.sum(state.rho.values ** 2 * div.values) * h
    ibp_gap = abs(lhs - rhs_) / max(1.0, abs(lhs), abs(rhs_))

    # (b) RK4 order by Richardson over a short horizon
    ws = _Workspace(grid, p)
    s0 = NdState(0.0, masked(sample_radial(bump_profile(1.0, 0.5, 2.0), grid)), p)

    def advance(dt, steps):
        s = s0
        for _ in range(steps):
            s, fail = step_rk4(s, dt, ws)
            assert fail is None
        return s.rho.values

    a = advance(0.1, 2)
    b = advance(0.05, 4)
    c = advance(0.025, 8)
    order = float(np.log2(np.max(np.abs(a - b)) / np.max(np.abs(b - c))))

    # (c) scaling symmetry on a smooth window with the adaptive driver
    # (resolution warnings are expected at this deliberately modest grid)
    import warnings as _warnings
    lam = 2.0
    rho0 = sample_radial(bump_profile(1.0, 1.0, 2.0), grid)
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore", UserWarning)
        r1 = run_nd(rho0, p, t_max=0.4, output_interval=0.1,
                    snapshot_times=[0.4], support_radius=1.0)
        r2 = run_nd(ScalarField(grid, lam * rho0.values), p, t_max=0.4 / lam,
                    output_interval=0.05, snapshot_times=[0.4 / lam], support_radius=1.0)
    f1 = [s for t, s in r1.snapshots if abs(t - 0.4) < 1e-9][0]
    f2 = [s for t, s in r2.snapshots if abs(t - 0.2) < 1e-9][0]
    scale_err = ScalarField(grid, f2.values / lam - f1.values).l2_norm() / f1.l2_norm()

    ok = ibp_gap <= 1e-10 and 3.7 <= order <= 4.3 and scale_err <= 1e-4
    record_acceptance(
        f"criterion 8 dynamics invariants: {'PASS' if ok else 'FAIL'} "
        f"(ibp gap {ibp_gap:.1e}, rk4 order {order:.2f}, scaling error {scale_err:.1e})")
    assert ibp_gap <= 1e-10
    assert 3.7 <= order <= 4.3
    assert scale_err <= 1e-4


# ---------------------------------------------------------------------------
# criterion 9: elementary split inequality
# ---------------------------------------------------------------------------

def test_criterion_9_young_split():
    rng = np.random.default_rng(97531)
    n = 100_000
    b1 = rng.normal(0.0, 3.0, n)
    b2 = rng.normal(0.0, 3.0, n)
    alpha = rng.uniform(1e-6, 1.0 - 1e-6, n)
    lhs = (b1 - b2) ** 2
    rhs_ = (1.0 - alpha) * b1 ** 2 + (1.0 - 1.0 / alpha) * b2 ** 2
    violations = int(np.sum(lhs < rhs_))
    # spot check the scalar api agrees with the vectorized sweep
    l0, r0 = young_split(b1[0], b2[0], alpha[0])
    ok = violations == 0 and l0 == lhs[0] and r0 == rhs_[0]
    record_acceptance(f"criterion 9 split inequality: {'PASS' if ok else 'FAIL'} "
                      f"({violations} violations over {n} random triples)")
    assert violations == 0
    assert (l0, r0) == (lhs[0], rhs_[0])
