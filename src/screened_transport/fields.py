"""Periodic grids and scalar/vector fields: real samples and their half spectra.

The computational domain is the periodic box [-half_width, half_width)^n.
All spectral symbols are written in angular wavenumbers k; the per-axis
wavenumber set is {-N/2, ..., N/2-1} * (pi / half_width).  Odd (imaginary)
symbols zero the unpaired Nyquist modes so that real fields stay real.

Every field is real, so the spectral operators act on the `rfftn` half
spectrum (last axis 0..N/2) and transform back with `irfftn`, both built
from `numpy.fft` passes with SciPy's bits.  Norms are
Parseval sums over it: each half-grid column stands for itself and its
mirror (weight 2), except the zero and Nyquist columns (weight 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Params",
    "Grid",
    "ScalarField",
    "VectorField",
    "RadialProfile",
    "PiecewisePoly",
    "pchip",
    "hermite",
    "make_grid",
    "bump_profile",
    "fractional_laplacian",
    "sobolev_norm",
    "max_gradient",
    "gradient",
    "evaluate_at",
    "sample_radial",
    "save_field",
    "load_field",
    "profile_to_csv",
]

_MAGIC = b"SFLD"


@dataclass(frozen=True)
class Params:
    """Model parameters: dimension n >= 2, screening length a > 0, gravity g > 0."""

    n: int
    a: float
    g: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        if not self.a > 0:
            raise ValueError(f"screening length must be positive, got {self.a}")
        if not self.g > 0:
            raise ValueError(f"gravity must be positive, got {self.g}")


def _classes(key: np.ndarray):
    """Stable sort order of `key`, the start of each run of equal keys in
    that order, and the key of each run."""
    order = np.argsort(key, kind="stable")
    sk = key[order]
    starts = np.flatnonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))
    return order, starts, sk[starts]


class Grid:
    """Uniform periodic grid on [-half_width, half_width)^n with N points per axis.

    Wavenumbers are angular: k_j in {-N/2, ..., N/2-1} * pi / half_width.
    The spacing is 2 * half_width / N.  N must be even (paired modes except
    the single Nyquist mode, which odd symbols suppress).  Every spectral
    array is built on the `rfftn` half grid, shape (N, ..., N, N/2 + 1).
    """

    def __init__(self, n: int, half_width: float, points_per_dim: int):
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        if not half_width > 0:
            raise ValueError(f"half_width must be positive, got {half_width}")
        N = int(points_per_dim)
        if N % 2 != 0 or N < 8:
            raise ValueError(f"points_per_dim must be even and >= 8, got {points_per_dim}")
        self.n = int(n)
        self.half_width = float(half_width)
        self.N = N
        self.spacing = 2.0 * self.half_width / N

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def size(self) -> int:
        return self.N ** self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing ** self.n

    @cached_property
    def axis_coords(self) -> np.ndarray:
        return -self.half_width + self.spacing * np.arange(self.N)

    @cached_property
    def coords(self) -> list:
        """Meshgrid coordinate arrays, one per axis ('ij' indexing)."""
        return np.meshgrid(*([self.axis_coords] * self.n), indexing="ij")

    @cached_property
    def radius(self) -> np.ndarray:
        return np.sqrt(sum(c * c for c in self.coords))

    @cached_property
    def axis_wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.N, d=self.spacing)

    def _half_mesh(self, leading: np.ndarray, last: np.ndarray) -> list:
        # 'ij' meshgrid over the half grid: `leading` on axes 0..n-2, `last`
        # (columns 0..N/2) on the last axis
        return np.meshgrid(*([leading] * (self.n - 1)), last, indexing="ij")

    @cached_property
    def half_wavenumbers(self) -> list:
        """k_j per axis on the half grid; the Nyquist column carries +N/2,
        which even symbols read through |k| and odd symbols zero."""
        return self._half_mesh(self.axis_wavenumbers,
                               2.0 * np.pi * np.fft.rfftfreq(self.N, d=self.spacing))

    @cached_property
    def half_wavenumber_magnitude(self) -> np.ndarray:
        return np.sqrt(sum(k * k for k in self.half_wavenumbers))

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes |m| < N/3 on every axis, so that
        a product of two kept modes (|m| < 2N/3) never aliases onto one."""
        i = np.arange(self.N)
        keep = 3 * np.minimum(i, self.N - i) < self.N
        return np.logical_and.reduce(self._half_mesh(keep, keep[:self.N // 2 + 1]))

    @cached_property
    def half_nyquist_mask(self) -> np.ndarray:
        """True on modes that contain the Nyquist index N/2 on some axis."""
        index = self._half_mesh(np.arange(self.N), np.arange(self.N // 2 + 1))
        return np.logical_or.reduce([i == self.N // 2 for i in index])

    @cached_property
    def half_gradient_symbols(self) -> list:
        """i k_j per axis on the half grid, Nyquist modes zeroed."""
        return [np.where(self.half_nyquist_mask, 0.0, 1j * k) for k in self.half_wavenumbers]

    @cached_property
    def half_unit_directions(self) -> list:
        """k_j / |k| per axis on the half grid, zero and Nyquist modes zeroed."""
        kk = self.half_wavenumber_magnitude
        safe = np.where(kk > 0.0, kk, 1.0)
        return [np.where(self.half_nyquist_mask | (kk == 0.0), 0.0, k / safe)
                for k in self.half_wavenumbers]

    def parseval_norm(self, power: np.ndarray) -> float:
        """L2 norm of the field whose half-spectrum magnitudes squared are
        `power`: paired columns count twice, the zero and Nyquist columns once."""
        cols = power.reshape(-1, power.shape[-1]).sum(axis=0)
        total = 2.0 * cols.sum() - cols[0] - cols[-1]
        return float(np.sqrt(total * self.cell_volume / self.size))

    @cached_property
    def origin_index(self) -> tuple:
        i0 = int(np.argmin(np.abs(self.axis_coords)))
        return (i0,) * self.n

    def _index_offsets(self) -> np.ndarray:
        """(n, size) integer lattice offsets of every point from the origin."""
        off = np.arange(self.N, dtype=np.int64) - self.origin_index[0]
        return np.stack([m.ravel() for m in np.meshgrid(*([off] * self.n), indexing="ij")])

    @cached_property
    def _orbit_sort(self):
        # orbits of the lattice symmetry group (coordinate permutations and
        # sign flips about the origin); key = sorted absolute index offsets
        key = np.zeros(self.size, dtype=np.int64)
        for row in np.sort(np.abs(self._index_offsets()), axis=0):
            key = key * self.N + row
        order, starts, _ = _classes(key)
        return order, starts

    def orbit_spread(self, values: np.ndarray) -> float:
        """Worst max-min spread of `values` over symmetry-group orbits."""
        order, starts = self._orbit_sort
        v = values.ravel()[order]
        return float(np.max(np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)))

    @cached_property
    def _radius_classes(self):
        # equal-|x| classes, for radial averages: unions of symmetry orbits,
        # so coarser than they are (457 classes against 561 orbits at N = 64)
        order, starts, r2 = _classes((self._index_offsets() ** 2).sum(axis=0))
        counts = np.diff(np.append(starts, self.size))
        return order, starts, counts, np.sqrt(r2.astype(float)) * self.spacing

    def radial_average(self, values: np.ndarray):
        """Average `values` over equal-radius lattice classes.

        Returns (radii, means), radii ascending starting at 0.
        """
        order, starts, counts, radii = self._radius_classes
        sums = np.add.reduceat(values.ravel()[order], starts)
        return radii, sums / counts

    def __eq__(self, other):
        return (isinstance(other, Grid) and self.n == other.n
                and self.N == other.N and self.half_width == other.half_width)

    def __hash__(self):
        return hash((self.n, self.N, self.half_width))

    def __repr__(self):
        return f"Grid(n={self.n}, half_width={self.half_width}, N={self.N})"


def make_grid(n: int, half_width: float, N: int) -> Grid:
    """Build a periodic grid; rejects odd N and nonpositive half_width."""
    return Grid(n, half_width, N)


def rfftn(x: np.ndarray) -> np.ndarray:
    """SciPy's `rfftn(x)` bit for bit from one-axis `numpy.fft` passes:
    `rfft` on the last axis, then `fft` over axes 0..n-2 in increasing order
    (`numpy.fft.rfftn` runs them in decreasing order, other bits in 3-D)."""
    sp = np.fft.rfft(x)
    for axis in range(x.ndim - 1):
        sp = np.fft.fft(sp, axis=axis)
    return sp


def irfftn(sp: np.ndarray, shape) -> np.ndarray:
    """SciPy's `irfftn(sp, s=shape)` bit for bit: unscaled `ifft` over axes
    0..n-2 in increasing order, `irfft` on the last axis, then one scaling
    by 1 / N^n (`numpy.fft.irfftn` scales each pass, other bits unless N is
    a power of two)."""
    for axis in range(len(shape) - 1):
        sp = np.fft.ifft(sp, axis=axis, norm="forward")
    out = np.fft.irfft(sp, n=shape[-1], norm="forward")
    out *= 1.0 / out.size
    return out


class ScalarField:
    """Real scalar samples on a Grid with a lazily computed half spectrum.

    Fields are immutable: `values` is marked read-only at construction and
    the `rfftn` coefficients are cached on first access.  All operations on
    fields return new fields.  A half spectrum passed in is cached as given,
    not copied: the caller hands the array over.
    """

    def __init__(self, grid: Grid, values: np.ndarray, _half_spectrum: np.ndarray | None = None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._half_spectrum = _half_spectrum

    @classmethod
    def from_half_spectrum(cls, grid: Grid, half_spectrum: np.ndarray) -> "ScalarField":
        """The real field whose `rfftn` is `half_spectrum`."""
        return cls(grid, irfftn(half_spectrum, grid.shape), _half_spectrum=half_spectrum)

    @property
    def half_spectrum(self) -> np.ndarray:
        """`rfftn` of the samples (last axis 0..N/2), cached on first access."""
        if self._half_spectrum is None:
            self._half_spectrum = rfftn(self.values)
        return self._half_spectrum

    def l2_norm(self) -> float:
        """L2 norm over the box, computed spectrally (Parseval)."""
        return self.grid.parseval_norm(np.abs(self.half_spectrum) ** 2)

    def spectral_tail(self) -> float:
        """Relative L2 weight of modes outside the 2/3 dealiasing band."""
        g = self.grid
        power = np.abs(self.half_spectrum) ** 2
        total = g.parseval_norm(power)
        if total == 0.0:
            return 0.0
        return g.parseval_norm(np.where(g.half_dealias_mask, 0.0, power)) / total

    def __repr__(self):
        return f"ScalarField({self.grid!r})"


class VectorField:
    """n real components on a shared grid."""

    def __init__(self, grid: Grid, components):
        components = [np.asarray(c, dtype=float) for c in components]
        if len(components) != grid.n:
            raise ValueError(f"expected {grid.n} components, got {len(components)}")
        for c in components:
            if c.shape != grid.shape:
                raise ValueError("component shape mismatch")
        self.grid = grid
        self.components = components

    def magnitude(self) -> np.ndarray:
        return np.sqrt(sum(c * c for c in self.components))

    def max_magnitude(self) -> float:
        return float(self.magnitude().max())

    def l2_norm(self) -> float:
        return self.grid.parseval_norm(sum(np.abs(rfftn(c)) ** 2 for c in self.components))


# ---------------------------------------------------------------------------
# spectral operators
# ---------------------------------------------------------------------------

def fractional_laplacian(f: ScalarField, s: float) -> ScalarField:
    """Spectral |k|^s multiplier ((-Laplace)^{s/2}).

    s = 0 is the identity (0^0 = 1 keeps the mean); for s > 0 the zero mode
    maps to zero.  Negative s is rejected.
    """
    if s < 0:
        raise ValueError(f"order must be >= 0, got {s}")
    kk = f.grid.half_wavenumber_magnitude
    return ScalarField.from_half_spectrum(f.grid, kk ** s * f.half_spectrum)


def sobolev_norm(f: ScalarField, s: float) -> float:
    """||f||_{L2} + ||Lambda^s f||_{L2}, both Parseval sums (no inverse FFT)."""
    if s < 0:
        raise ValueError(f"order must be >= 0, got {s}")
    g = f.grid
    power = np.abs(f.half_spectrum) ** 2
    return g.parseval_norm(power) + g.parseval_norm(g.half_wavenumber_magnitude ** (2 * s) * power)


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; Nyquist modes are zeroed to keep components real."""
    g = f.grid
    sp = f.half_spectrum
    return VectorField(g, [irfftn(m * sp, g.shape) for m in g.half_gradient_symbols])


def max_gradient(f: ScalarField) -> float:
    """Max over grid points of |grad f| with the gradient taken spectrally."""
    return gradient(f).max_magnitude()


def evaluate_at(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Trigonometric (band-limited) interpolation of a field at arbitrary points.

    Cost is O(len(points) * N^n); intended for small point sets such as
    quadrature cross-checks.  It sums the full `fftn` spectrum, in which each
    Nyquist index carries the wavenumber -N/2 only.
    """
    # imported here: SciPy's full complex `fftn` differs from NumPy's in the
    # last bits, and nothing else in the package needs `scipy.fft`
    from scipy.fft import fftn

    g = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m1 = np.fft.fftfreq(g.N) * g.N
    mesh_m = np.meshgrid(*([m1] * g.n), indexing="ij")
    # physical coefficients on [-half, half): the grid origin sits at index 0
    # of the DFT, which shifts each axis phase by pi per integer mode
    phase = sum(mesh_m)
    coef = fftn(f.values) / g.size * np.exp(1j * np.pi * phase)
    ks = np.meshgrid(*([g.axis_wavenumbers] * g.n), indexing="ij")
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        ph = np.exp(1j * sum(ks[ax] * p[ax] for ax in range(g.n)))
        out[i] = np.sum(coef * ph).real
    return out


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------

class PiecewisePoly:
    """Piecewise polynomial in SciPy's `PPoly` layout: on [x[i], x[i+1]] it
    is sum_k c[k, i] (r - x[i])^(K - k), K = len(c) - 1.

    The same bits as `PPoly`: a point takes the piece searchsorted(x, r,
    "right") - 1, clipped to the end pieces (so r = x[-1] takes the last
    piece, and points outside extrapolate), and the power sum
    (0 + c[K]) + c[K-1] s + c[K-2] s^2 + ..., with s = r - x[i] and s^k
    built by repeated multiplication: the order of SciPy's compiled loop.
    """

    def __init__(self, c, x):
        self.c = np.ascontiguousarray(c, dtype=float)
        self.x = np.ascontiguousarray(x, dtype=float)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        # the piece: how many inner knots lie at or below r
        i = np.searchsorted(self.x[1:-1], r, "right")
        s = r - self.x[i]
        out = self.c[-1].take(i)
        out += 0.0
        z = s.copy()
        for k in range(len(self.c) - 2, -1, -1):
            term = self.c[k].take(i)
            term *= z
            out += term
            if k:
                z *= s
        return out

    def derivative(self) -> "PiecewisePoly":
        return PiecewisePoly(self.c[:-1] * np.arange(len(self.c) - 1, 0, -1.0)[:, None], self.x)


def hermite(x, y, dydx) -> PiecewisePoly:
    """The cubic with values y and slopes dydx at the strictly increasing
    knots x, coefficients formed as SciPy's `CubicHermiteSpline` forms them."""
    x, y, dydx = (np.asarray(v, dtype=float) for v in (x, y, dydx))
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    return PiecewisePoly(np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1])), x)


def _pchip_edge(h0, h1, m0, m1) -> float:
    """The end slope: the one-sided three-point estimate, zeroed where its
    sign differs from the end secant's and capped at 3 m0 where the secants
    change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip(x, y) -> PiecewisePoly:
    """The monotone (shape-preserving) cubic through (x, y), x strictly
    increasing, bit for bit SciPy's `PchipInterpolator`: at an interior knot
    the slope is 0 where the secants m_{k-1}, m_k are 0 or differ in sign,
    and else their weighted harmonic mean with w1 = 2 h_k + h_{k-1} and
    w2 = h_k + 2 h_{k-1} (Fritsch & Carlson, SIAM J. Numer. Anal. 17, 1980;
    Fritsch & Butland, SIAM J. Sci. Stat. Comput. 5, 1984); end slopes from
    `_pchip_edge`.  Two points give the line."""
    x, y = (np.asarray(v, dtype=float) for v in (x, y))
    h = np.diff(x)
    m = np.diff(y) / h
    if len(x) == 2:
        return hermite(x, y, np.array([m[0], m[0]]))
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
    d = np.concatenate([[_pchip_edge(h[0], h[1], m[0], m[1])], np.where(flat, 0.0, mean),
                        [_pchip_edge(h[-1], h[-2], m[-1], m[-2])]])
    return hermite(x, y, d)


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

class RadialProfile:
    """Radial function given by a piecewise polynomial on breakpoints
    0 = r_0 < r_1 < ... < r_M, constant beyond r_M = support_radius.

    Built from nodes it is their shape-preserving (monotone cubic)
    interpolant (`pchip`), so a nondecreasing node set stays nondecreasing
    between nodes; `from_poly` takes a `PiecewisePoly` instead.  The
    derivative at r_M is the polynomial's left limit, and 0 beyond.
    Subclasses may override `value`/`derivative` with closed forms, and then
    `rise` too.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if nodes[0] != 0.0:
            raise ValueError("first node must be r = 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        self.nodes = nodes
        self.values = values

    @classmethod
    def from_poly(cls, poly: PiecewisePoly) -> "RadialProfile":
        """The profile equal to the piecewise polynomial `poly` (such as a
        `hermite` cubic) on [0, poly.x[-1]]; its breakpoints poly.x must
        start at 0."""
        prof = cls(poly.x, poly(poly.x))
        prof._poly = poly  # takes the place of the node interpolant
        return prof

    @cached_property
    def _poly(self):
        return pchip(self.nodes, self.values)

    @cached_property
    def _poly_derivative(self):
        return self._poly.derivative()

    @property
    def support_radius(self) -> float:
        return float(self.nodes[-1])

    @property
    def breakpoints(self) -> np.ndarray:
        return self.nodes

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = self._poly(np.clip(r, 0.0, self.nodes[-1]))
        out = np.where(r > self.nodes[-1], self.values[-1], out)
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        out = self._poly_derivative(np.clip(r, 0.0, self.nodes[-1]))
        return np.where(r > self.nodes[-1], 0.0, out)

    def origin_value(self) -> float:
        return float(self.values[0])

    def rise(self, r):
        """f(r) - f(0), free of the cancellation of value(r) - origin_value()
        near the origin: on the first piece, its polynomial without the
        constant term."""
        r = np.asarray(r, dtype=float)
        first = np.polyval(self._poly.c[:-1, 0], r) * r
        return np.where(r < self.nodes[1], first, self.value(r) - self.values[0])


class _BumpProfile(RadialProfile):
    """Smooth compactly supported radial well with closed-form derivative."""

    def __init__(self, support_radius, depth, sharpness):
        self.L = float(support_radius)
        self.depth = float(depth)
        self.sharpness = float(sharpness)
        # the nodes give support_radius, breakpoints and origin_value; value
        # and derivative are the closed forms, so no interpolant is built
        super().__init__(np.array([0.0, self.L]), np.array([-self.depth, 0.0]))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.L
        u = (r[inside] / self.L) ** 2
        out[inside] = -self.depth * np.exp(self.sharpness * (1.0 - 1.0 / (1.0 - u)))
        return out

    def rise(self, r):
        r = np.asarray(r, dtype=float)
        out = np.full_like(r, self.depth)
        inside = r < self.L
        u = (r[inside] / self.L) ** 2
        out[inside] = -self.depth * np.expm1(-self.sharpness * u / (1.0 - u))
        return out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.L
        rr = r[inside]
        u = (rr / self.L) ** 2
        core = np.exp(self.sharpness * (1.0 - 1.0 / (1.0 - u)))
        out[inside] = self.depth * core * self.sharpness * (2.0 * rr / self.L ** 2) / (1.0 - u) ** 2
        return out


def bump_profile(support_radius: float, depth: float, sharpness: float) -> RadialProfile:
    """Radial well -depth * exp(sharpness * (1 - 1/(1 - (r/L)^2))) for r < L, 0 beyond.

    Smooth, compactly supported, nondecreasing, value -depth at the origin;
    the canonical initial datum for the collapse experiments.
    """
    if not support_radius > 0:
        raise ValueError("support radius must be positive")
    if not depth > 0:
        raise ValueError("depth must be positive")
    if not sharpness > 0:
        raise ValueError("sharpness must be positive")
    return _BumpProfile(support_radius, depth, sharpness)


def sample_radial(profile, grid: Grid) -> ScalarField:
    """Sample a radial profile onto a grid as a scalar field."""
    return ScalarField(grid, profile.value(grid.radius))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def save_field(path, field: ScalarField, time: float = 0.0) -> None:
    """Flat binary container: magic, n, N, half_width, time, then row-major doubles."""
    g = field.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<iidd", g.n, g.N, g.half_width, float(time)))
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path):
    """Read a field container; returns (ScalarField, time)."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a field container")
        n, N, half_width, time = struct.unpack("<iidd", fh.read(struct.calcsize("<iidd")))
        grid = Grid(n, half_width, N)
        data = np.frombuffer(fh.read(8 * grid.size), dtype="<f8").reshape(grid.shape)
    return ScalarField(grid, data), time


def profile_to_csv(path, profile: RadialProfile) -> None:
    with open(path, "w") as fh:
        fh.write("r,value\n")
        for r, v in zip(profile.nodes, profile.values):
            fh.write(f"{r:.17g},{v:.17g}\n")
