"""Method-of-characteristics solver for the reduced radial equation.

For radial data the transport equation closes over profiles rho(r, t):

    d(position)/dt = g * u_r(position),   values constant along trajectories,

where u_r is the radial velocity of the current profile.  Markers carry the
initial values forever; the profile at any time is the monotone cubic
(PCHIP, `fields.pchip`) through (position, value).  Marker collision (a gap
collapsing to a set fraction of its initial size) is the discrete signature
of gradient blow-up.

Values are constant along characteristics, so f'(rho) drho = f_0'(s) ds, and
the velocity is integrated in the marker label s:

    u_r(r_i) = -(1 / (pi r_i^n)) int_0^L f_0'(s) X(s)^n Psi_n(X(s) / r_i, (a / r_i)^2) ds,

with X the flow map (the PCHIP of labels -> current positions, so
X(s_i) = r_i) and f_0 the datum.  The nodes in s are the radial rule of
`transform` placed at the target labels and the datum's breakpoints (about
175 per target for the bump, at any marker count); they and the weights
w_j f_0'(s_j) are built once per run.  A stage evaluates X
at the fixed nodes and reduces by `transform._radial_sums`.  The flow map's
knots (the labels) are not panel ends, and X is only C^1 there.  Against
nested quadrature split at every label, on the same X and f_0', this costs
at most 5.2e-6 relative at the gradient stop of a 32-marker run, 2.3e-5 at
the innermost markers of a 96-marker run (1.6e-6 of max |u_r|), and 2e-7
at t = 1.52 with 384 markers.

`run_radial` drives `rk4.time_loop` and tests the gradient threshold after
every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import transform
from .blowup import BlowupConfig, DiagnosticsSeries, blowup_functional
from .fields import Params, RadialProfile, pchip
from .rk4 import Stop, rk4, time_loop
# not called here: bench/tracing.py wraps radial.radial_velocity
from .transform import radial_velocity  # noqa: F401

__all__ = [
    "RadialState",
    "RadialRunResult",
    "blended_markers",
    "radial_rhs",
    "step",
    "run_radial",
    "derivative_along_flow",
]

COLLISION_FRACTION = 1e-6
DT_MAX = 0.05  # time-step cap in units of 1/g
CLUSTER = 0.6
EDGE_MARGIN = 0.15


def blended_markers(M: int, support_radius: float) -> np.ndarray:
    """Marker radii on [0, L], denser near the origin and the support edge.

    A sine blend with bounded density ratio: spacing is proportional to
    1 - CLUSTER * cos(2 pi u), so the end regions are refined by roughly
    1/(1 - CLUSTER) without the quadratically collapsing gaps of Chebyshev
    points (which the origin flow would crush to float resolution).
    """
    u = np.linspace(0.0, 1.0, M)
    return support_radius * (u - CLUSTER * np.sin(2.0 * np.pi * u) / (2.0 * np.pi))


@dataclass
class RadialState:
    """Lagrangian markers: labels are the initial radii, positions follow the
    flow, values never change (pure transport).

    `datum` is the initial profile f_0 (values are f_0 at the labels, which
    span its support); the velocity integrates its derivative in the labels.
    Without one it is the monotone cubic through (labels, values), whose
    breakpoints are the labels.  The label nodes are built on first use and
    shared by the states `dataclasses.replace` makes from this one with new
    times and positions.
    """

    time: float
    labels: np.ndarray
    positions: np.ndarray
    values: np.ndarray
    datum: RadialProfile | None = None
    _nodes: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.labels) == len(self.positions) == len(self.values)):
            raise ValueError("marker arrays must share length")
        if self.labels[0] != 0.0 or self.positions[0] != 0.0:
            raise ValueError("the first marker must sit at the origin")
        if np.any(np.diff(self.positions) <= 0.0):
            raise ValueError("positions must be strictly increasing")
        if self.datum is None:
            self.datum = RadialProfile(self.labels, self.values)

    @property
    def origin_value(self) -> float:
        return float(self.values[0])

    @property
    def support_radius(self) -> float:
        return float(self.positions[-1])

    def profile(self) -> RadialProfile:
        return RadialProfile(self.positions, self.values)

    def max_gradient(self) -> float:
        dv = np.diff(self.values)
        dp = np.diff(self.positions)
        return float(np.max(np.abs(dv) / dp))


@dataclass
class RadialRunResult:
    series: DiagnosticsSeries
    states: list              # (time, RadialState) at t = 0, the snapshot times and the end
    stop_reason: Stop

    @property
    def snapshots(self) -> list:
        """(time, RadialProfile) at the times of `states`."""
        return [(t, s.profile()) for t, s in self.states]

    @property
    def initial_state(self) -> RadialState:
        return self.states[0][1]


def _label_nodes(state: RadialState, a: float) -> list:
    """The label rule of `state`'s run: per block of `transform._BLOCK`
    targets (markers 1..M), their marker indices, the nodes s_j, the
    products w_j f_0'(s_j) and the number of nodes of each target.  Built
    once per (labels, datum, a) and kept in the state."""
    blocks = state._nodes.get(a)
    if blocks is None:
        labels, datum = state.labels, state.datum
        rule = transform._radial_blocks(labels[1:], float(labels[-1]), datum.breakpoints, a,
                                        datum.derivative)
        blocks = state._nodes[a] = [(1 + mine, s, wf, size) for mine, s, wf, size in rule]
    return blocks


def _velocity(state: RadialState, params: Params, positions: np.ndarray) -> np.ndarray:
    """u_r at the markers when they sit at `positions`: the label integral
    over the flow map labels -> positions.  The origin marker's is 0."""
    flow = pchip(state.labels, positions)
    u = np.zeros_like(positions)
    for idx, s, f, size in _label_nodes(state, params.a):
        u[idx] = transform._radial_sums(params.n, params.a, positions[idx], flow(s), f, size)
    return u


def radial_rhs(state: RadialState, params: Params) -> np.ndarray:
    """Marker velocities: u_r at the positions, integrated in the labels on
    the run's fixed nodes (module docstring).

    The origin marker's velocity is exactly zero.  For nondecreasing data
    every velocity is <= 0.
    """
    return _velocity(state, params, state.positions)


def _collided(positions: np.ndarray, gaps0: np.ndarray) -> bool:
    return bool(np.any(np.diff(positions) <= COLLISION_FRACTION * gaps0))


def step(state: RadialState, dt: float, params: Params, k1=None):
    """One classical RK4 advance of the marker positions under g * u_r.

    Values are carried unchanged; each stage integrates the velocity in the
    labels over the flow map to that stage's positions, on the nodes fixed
    for the run.  `k1` is g * u_r at the current positions
    when the caller already has it.  Returns (new_state, None) or
    (state, Stop.MARKERS_COLLIDED) when ordering is lost or a gap
    closes below the collision fraction of its initial size.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    g = params.g
    gaps0 = np.diff(state.labels)

    def vel(pos):
        if np.any(np.diff(pos) <= 0.0):
            return None
        return g * _velocity(state, params, pos)

    if k1 is None:
        k1 = vel(state.positions)
    new_pos = rk4(state.positions, dt, k1, vel)
    if new_pos is None or np.any(np.diff(new_pos) <= 0.0) or _collided(new_pos, gaps0):
        return state, Stop.MARKERS_COLLIDED
    return replace(state, time=state.time + dt, positions=new_pos), None


def _gap_cfl_dt(positions, velocities, cfl: float, dt_max: float) -> float:
    """Pairwise characteristic CFL: no gap may close by more than `cfl` of
    itself in one step."""
    if not 0.0 < cfl < 1.0:
        raise ValueError("cfl must lie in (0, 1)")
    gaps = np.diff(positions)
    closing = np.abs(np.diff(velocities))
    dt = cfl * float(np.min(gaps / (closing + 1e-300)))
    return min(dt, dt_max)


def run_radial(initial: RadialProfile, params: Params, *,
               t_max: float = 10.0,
               gradient_factor: float = 50.0,
               markers: int = 512,
               cfl: float = 0.4,
               output_interval: float | None = None,
               snapshot_times=None,
               delta: float = 0.25) -> RadialRunResult:
    """Integrate the reduced equation until t_max, gradient growth beyond
    `gradient_factor` (tested after every step), marker collision, or a dt
    underflow (below `rk4.DT_MIN`).

    Diagnostics (max gradient, blow-up functional, origin value, support
    radius) are recorded at most every `output_interval`; states are kept at
    `snapshot_times` (plus t = 0 and the final time).  dt never exceeds
    DT_MAX / g.
    """
    L = initial.support_radius
    labels = blended_markers(markers, L)
    values = np.asarray(initial.value(labels), dtype=float)
    state = RadialState(0.0, labels, labels.copy(), values, initial)
    cfg = BlowupConfig(delta=delta, support_radius=L, params=params)
    if output_interval is None:
        output_interval = t_max / 200.0
    sg0 = state.max_gradient()
    cap = gradient_factor * sg0 if sg0 > 0.0 else np.inf

    def first(st):
        v = params.g * radial_rhs(st, params)
        return v, _gap_cfl_dt(st.positions, v, cfl, DT_MAX / params.g)

    def row(st, dt_now):
        return {"sup_grad": st.max_gradient(),
                "i_delta": blowup_functional(st.profile(), cfg),
                "origin_value": st.origin_value,
                "support_radius": st.support_radius}

    states = []
    series, _, stop = time_loop(
        state, t_max, first, lambda st, dt, k1: step(st, dt, params, k1), row,
        lambda st, rec: st.max_gradient() >= cap, lambda t, st: states.append((t, st)),
        output_interval, snapshot_times)
    return RadialRunResult(series, states, stop)


def derivative_along_flow(result: RadialRunResult, at_time: float | None = None) -> dict:
    """Reconstruct the spatial derivative of the profile two independent ways.

    (i) centered finite differences of the snapshot profile (values against
    positions), and (ii) the initial derivative at each label divided by the
    local stretch of the flow map (the amplification along trajectories).
    Both use the same nonuniform centered stencil, so at t = 0 they coincide
    exactly.  Reports the worst relative discrepancy away from the support
    edge (labels within EDGE_MARGIN * L of either end are left out) and the
    most negative derivative (monotone data must stay nondecreasing).
    """
    times = [t for t, _ in result.states]
    if at_time is None:
        at_time = times[-1]
    idx = int(np.argmin(np.abs(np.asarray(times) - at_time)))
    t, state = result.states[idx]
    init = result.initial_state
    d0 = np.gradient(init.values, init.labels)
    stretch = np.gradient(state.positions, state.labels)
    flow_form = d0 / stretch
    direct = np.gradient(state.values, state.positions)
    L = init.labels[-1]
    interior = (state.labels > EDGE_MARGIN * L) & (state.labels < (1.0 - EDGE_MARGIN) * L)
    scale = np.abs(flow_form[interior]).max() + 1e-300
    rel = np.abs(direct[interior] - flow_form[interior]) / (np.abs(flow_form[interior]) + 1e-3 * scale)
    return {
        "time": float(t),
        "max_relative_discrepancy": float(rel.max()),
        "min_derivative": float(min(direct.min(), flow_form.min())),
        "markers_compared": int(interior.sum()),
    }
