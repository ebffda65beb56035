"""Pseudo-spectral solver for the full transport equation on the periodic box.

The right-hand side is -g (R_a rho) . grad(rho): velocity and gradient are
spectral multipliers applied to the 2/3-truncated spectrum, the dot product
is formed in real space, and the result is re-truncated, which makes the
quadratic term alias-free.  Time stepping is classical RK4 with an advective
CFL time step.  There is no dissipation: runs toward gradient blow-up are
stopped once the gradient has grown past a set factor, after which the grid
no longer resolves the solution.

The state RK4 advances is the `rfftn` half spectrum, not the samples: one
right-hand side costs n + n inverse and one forward real FFT, and a step
adds one inverse FFT for the new samples (21 real FFTs per step in 2-D,
each a call of `sfft`, which gives SciPy's bits and writes into the run's
work arrays).  The right-hand side vanishes outside the 2/3 band, so the
modes there keep their initial values exactly.

`run_nd` drives `rk4.time_loop`.  It tests the gradient threshold only on
recorded rows, because the max gradient costs two FFTs.  It keeps no
snapshot itself: each is handed, as its samples only, to the caller's
`snapshots` object when it is taken, so a consumer that writes and drops
them holds one field at a time whatever the snapshot count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import sfft
from .blowup import BlowupConfig, DiagnosticsSeries, blowup_functional
from .fields import Grid, Params, ScalarField, max_gradient, sobolev_norm
from .rk4 import DT_MIN, Stop, rk4, time_loop
from .transform import screened_riesz_symbols

__all__ = [
    "NdState",
    "NdRunResult",
    "rhs",
    "step_rk4",
    "run_nd",
    "bkm_partial_integral",
]

DT_MAX = 0.05
RESOLVED_TAIL = 1e-10


@dataclass
class NdState:
    time: float
    rho: ScalarField
    params: Params


class _Workspace:
    """Per-run half-grid multipliers with the 2/3 mask folded in, and the work
    arrays every advection writes into (no sharing across concurrent runs).

    The advection's inverse FFTs run their leading-axis passes only over the
    last-axis columns inside the 2/3 band (86 of 129 at N = 256), in the
    `banded` work arrays, whose other columns stay zero.
    """

    def __init__(self, grid: Grid, params: Params):
        self.shape = grid.shape
        mask = grid.half_dealias_mask
        self.band = slice(None, int(np.flatnonzero(
            mask.any(axis=tuple(range(grid.n - 1)))).max()) + 1)
        self.vel_mult = [m * mask for m in screened_riesz_symbols(grid, params.a)]
        self.grad_mult = [m * mask for m in grid.half_gradient_symbols]
        # complex, like every operand of the multiplies below: a ufunc that
        # casts or reads strided operands allocates buffers
        self.out_mult = (-params.g * mask).astype(complex)
        # the second array of each pair ping-pongs a second leading axis (n >= 3)
        pair = range(min(grid.n - 1, 2))
        self.full = [np.empty(mask.shape, complex) for _ in pair]
        self.banded = [np.zeros(mask.shape, complex) for _ in pair]
        self.u, self.w, self.adv, self.u2 = (np.empty(self.shape) for _ in range(4))

    def advection(self, sp: np.ndarray):
        """Half spectrum -> (half spectrum of -g * dealiased advection, max
        velocity magnitude).  The spectrum is the one array it allocates."""
        prod, band, u, w, adv, u2 = self.full[0], self.band, self.u, self.w, self.adv, self.u2
        adv.fill(0.0)
        u2.fill(0.0)
        for vm, gm in zip(self.vel_mult, self.grad_mult):
            np.multiply(vm, sp, out=prod)
            sfft.irfftn(prod, self.shape, out=u, work=self.banded, cols=band)
            np.multiply(gm, sp, out=prod)
            sfft.irfftn(prod, self.shape, out=w, work=self.banded, cols=band)
            w *= u
            adv += w
            u *= u
            u2 += u
        out = sfft.rfftn(adv, work=self.full)
        return np.multiply(self.out_mult, out, out=out), float(np.sqrt(u2.max()))


def rhs(state: NdState, workspace: _Workspace | None = None) -> ScalarField:
    """-g (R_a rho) . grad(rho), dealiased by the 2/3 rule on both factors
    and re-truncated."""
    ws = workspace or _Workspace(state.rho.grid, state.params)
    out, _ = ws.advection(state.rho.half_spectrum)
    return ScalarField.from_half_spectrum(state.rho.grid, out)


def step_rk4(state: NdState, dt: float, workspace: _Workspace | None = None, k1=None):
    """Classical RK4 advance; returns (new_state, None) or
    (state, Stop.NONFINITE) when the step produces nonfinite values.

    `k1` is the right-hand side at `state` (a half spectrum, as returned by
    the workspace's `advection`) when the caller already has it.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    grid = state.rho.grid
    ws = workspace or _Workspace(grid, state.params)
    sp = state.rho.half_spectrum
    # a nonfinite state is reported as Stop.NONFINITE, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if k1 is None:
            k1, _ = ws.advection(sp)
        new = rk4(sp, dt, k1, lambda y: ws.advection(y)[0])
        if not np.isfinite(new).all():
            return state, Stop.NONFINITE
        rho = ScalarField(grid, sfft.irfftn(new, ws.shape, work=ws.full), _half_spectrum=new)
    return replace(state, time=state.time + dt, rho=rho), None


def _cfl_dt(cfl: float, spacing: float, speed: float, dt_max: float) -> float:
    """cfl * spacing / (speed + eps), clamped to [DT_MIN, dt_max]; the
    advection speed g * max |R_a rho| carries the factor g."""
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    return float(np.clip(cfl * spacing / (speed + 1e-300), DT_MIN, dt_max))


@dataclass
class NdRunResult:
    series: DiagnosticsSeries
    snapshots: list               # (time, ScalarField), or the object given to run_nd
    stop_reason: Stop
    initial: ScalarField
    threshold_time: float | None  # first time sup_grad exceeded the stop factor
    grid: Grid


def run_nd(rho0: ScalarField, params: Params, *,
           t_max: float = 30.0,
           gradient_factor: float = 50.0,
           cfl: float = 0.4,
           delta: float = 0.25,
           support_radius: float | None = None,
           output_interval: float | None = None,
           snapshot_interval: float | None = None,
           snapshot_times=None,
           snapshots=None) -> NdRunResult:
    """Integrate until t_max, gradient growth past `gradient_factor` (tested
    at output times), a dt underflow (below `rk4.DT_MIN`), or a nonfinite
    state; dt never exceeds DT_MAX.

    Records max gradient, L2 and H^3 norms, the blow-up functional, the
    running gradient time integral, the origin value, and the mass fraction
    outside the support ball at every output time.

    Snapshots are taken at t = 0, every `snapshot_interval` (or at the
    explicit `snapshot_times`) and at the end.  Each is passed on when it is
    taken, as `snapshots.append((time, field))`, to `snapshots` (a new list
    by default), which the result returns.  The field holds its samples
    only; its half spectrum is recomputed if asked for.
    """
    grid = rho0.grid
    if params.n != grid.n:
        raise ValueError("params dimension does not match the grid")
    tail = rho0.spectral_tail()
    if tail > RESOLVED_TAIL:
        warnings.warn(f"initial data spectral tail {tail:.2e} above {RESOLVED_TAIL:.0e}; "
                      "the grid resolves the data only marginally", stacklevel=2)
    if support_radius is None:
        nz = np.abs(rho0.values) > 1e-13 * (np.abs(rho0.values).max() + 1e-300)
        support_radius = float(grid.radius[nz].max()) if nz.any() else grid.half_width / 4.0
    cfg = BlowupConfig(delta=delta, support_radius=support_radius, params=params)
    ws = _Workspace(grid, params)
    if output_interval is None:
        output_interval = t_max / 400.0
    sg0 = max_gradient(rho0)
    cap = gradient_factor * sg0 if sg0 > 0.0 else np.inf
    out_mask = grid.radius >= support_radius
    origin = grid.origin_index
    bkm = 0.0
    last = {"t": 0.0, "sg": sg0}

    def first(st):
        k1, umax = ws.advection(st.rho.half_spectrum)
        return k1, _cfl_dt(cfl, grid.spacing, params.g * umax, DT_MAX)

    def row(st, dt_now):
        nonlocal bkm
        sg = max_gradient(st.rho)
        bkm += 0.5 * (sg + last["sg"]) * (st.time - last["t"])
        last["t"], last["sg"] = st.time, sg
        vals = st.rho.values
        return {
            "dt": dt_now,
            "sup_grad": sg,
            "l2": st.rho.l2_norm(),
            "hs_3": sobolev_norm(st.rho, 3.0),
            "i_delta": blowup_functional(st.rho, cfg),
            "bkm_partial": bkm,
            "origin_value": float(vals[origin]),
            "support_mass_out": float(np.abs(vals[out_mask]).sum()
                                      / max(np.abs(vals).sum(), 1e-300)),
        }

    if snapshots is None:
        snapshots = []
    series, final, stop = time_loop(
        NdState(0.0, rho0, params), t_max, first,
        lambda st, dt, k1: step_rk4(st, dt, ws, k1), row,
        lambda st, rec: rec is not None and rec["sup_grad"] >= cap,
        lambda t, st: snapshots.append((t, ScalarField(grid, st.rho.values))),
        output_interval, snapshot_times, snapshot_interval)
    threshold_time = final.time if stop is Stop.GRADIENT_THRESHOLD else None
    return NdRunResult(series, snapshots, stop, rho0, threshold_time, grid)


def bkm_partial_integral(series: DiagnosticsSeries, up_to: float | None = None) -> float:
    """Trapezoidal accumulation of the recorded max gradient over time, the
    continuation monitor: bounded iff the solution continues."""
    if len(series) == 0:
        raise ValueError("series is empty")
    t = series.t
    v = series.column("sup_grad")
    if up_to is not None:
        keep = t <= up_to
        t, v = t[keep], v[keep]
    if len(t) < 2:
        return 0.0
    return float(np.trapezoid(v, t))
