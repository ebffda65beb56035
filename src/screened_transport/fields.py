"""Periodic grids and scalar/vector fields with paired real and spectral views.

The computational domain is the periodic box [-half_width, half_width)^n.
All spectral symbols are written in angular wavenumbers k; the per-axis
wavenumber set is {-N/2, ..., N/2-1} * (pi / half_width).  Odd (imaginary)
symbols zero the unpaired Nyquist modes so that real fields stay real.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft as sfft
from scipy.interpolate import PchipInterpolator

__all__ = [
    "Params",
    "Grid",
    "ScalarField",
    "VectorField",
    "RadialProfile",
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


class Grid:
    """Uniform periodic grid on [-half_width, half_width)^n with N points per axis.

    Wavenumbers are angular: k_j in {-N/2, ..., N/2-1} * pi / half_width.
    The spacing is 2 * half_width / N.  N must be even (paired modes except
    the single Nyquist mode, which odd symbols suppress).
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

    @property
    def box_volume(self) -> float:
        return (2.0 * self.half_width) ** self.n

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
        return 2.0 * np.pi * sfft.fftfreq(self.N, d=self.spacing)

    @cached_property
    def wavenumbers(self) -> list:
        return np.meshgrid(*([self.axis_wavenumbers] * self.n), indexing="ij")

    @cached_property
    def wavenumber_magnitude(self) -> np.ndarray:
        return np.sqrt(sum(k * k for k in self.wavenumbers))

    @cached_property
    def nyquist_mask(self) -> np.ndarray:
        """True on modes that contain a Nyquist index on some axis."""
        m = np.zeros(self.shape, dtype=bool)
        for ax in range(self.n):
            idx = [slice(None)] * self.n
            idx[ax] = self.N // 2
            m[tuple(idx)] = True
        return m

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule mask: keep integer modes |m| <= N/3 on every axis."""
        m1 = sfft.fftfreq(self.N) * self.N
        keep = np.abs(m1) <= self.N / 3.0
        out = np.ones(self.shape, dtype=bool)
        for ax in range(self.n):
            shape = [1] * self.n
            shape[ax] = self.N
            out &= keep.reshape(shape)
        return out

    @cached_property
    def origin_index(self) -> tuple:
        i0 = int(np.argmin(np.abs(self.axis_coords)))
        return (i0,) * self.n

    @cached_property
    def _orbit_sort(self):
        # orbits of the lattice symmetry group (coordinate permutations and
        # sign flips about the origin); key = sorted absolute index offsets
        i0 = self.origin_index[0]
        off = np.abs(np.arange(self.N) - i0).astype(np.int64)
        mesh = np.meshgrid(*([off] * self.n), indexing="ij")
        stacked = np.sort(np.stack([m.ravel() for m in mesh], axis=0), axis=0)
        key = np.zeros(self.size, dtype=np.int64)
        for row in stacked:
            key = key * self.N + row
        order = np.argsort(key, kind="stable")
        sk = key[order]
        starts = np.flatnonzero(np.concatenate([[True], sk[1:] != sk[:-1]]))
        return order, starts

    def orbit_spread(self, values: np.ndarray) -> float:
        """Worst max-min spread of `values` over symmetry-group orbits."""
        order, starts = self._orbit_sort
        v = values.ravel()[order]
        return float(np.max(np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts)))

    @cached_property
    def _radius_classes(self):
        # equal-|x| classes (finer than symmetry orbits), for radial averages
        i0 = self.origin_index[0]
        off = (np.arange(self.N) - i0).astype(np.int64)
        mesh = np.meshgrid(*([off] * self.n), indexing="ij")
        r2 = sum(m.ravel() ** 2 for m in mesh)
        order = np.argsort(r2, kind="stable")
        sr = r2[order]
        starts = np.flatnonzero(np.concatenate([[True], sr[1:] != sr[:-1]]))
        counts = np.diff(np.concatenate([starts, [len(sr)]]))
        radii = np.sqrt(sr[starts].astype(float)) * self.spacing
        return order, starts, counts, radii

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


class ScalarField:
    """Real scalar samples on a Grid with a lazily computed spectral view.

    Fields are immutable: `values` is marked read-only at construction and
    the Fourier coefficients are cached on first access.  All operations on
    fields return new fields.
    """

    def __init__(self, grid: Grid, values: np.ndarray, _spectrum: np.ndarray | None = None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self._spectrum = _spectrum

    @classmethod
    def from_spectrum(cls, grid: Grid, spectrum: np.ndarray) -> "ScalarField":
        vals = sfft.ifftn(spectrum).real
        return cls(grid, vals, _spectrum=np.asarray(spectrum, dtype=complex))

    @property
    def spectrum(self) -> np.ndarray:
        """Forward FFT of the samples (numpy convention, unnormalized)."""
        if self._spectrum is None:
            self._spectrum = sfft.fftn(self.values)
        return self._spectrum

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())

    def l2_norm(self) -> float:
        """L2 norm over the box, computed spectrally (Parseval)."""
        g = self.grid
        return float(np.linalg.norm(self.spectrum) * np.sqrt(g.cell_volume) / np.sqrt(g.size))

    def l2_norm_real(self) -> float:
        """L2 norm by real-space quadrature (trapezoidal on the periodic grid)."""
        return float(np.sqrt(np.sum(self.values ** 2) * self.grid.cell_volume))

    def mean(self) -> float:
        return float(self.values.mean())

    def spectral_tail(self) -> float:
        """Relative L2 weight of modes outside the 2/3 dealiasing band."""
        sp = np.abs(self.spectrum)
        total = np.linalg.norm(sp)
        if total == 0.0:
            return 0.0
        return float(np.linalg.norm(sp[~self.grid.dealias_mask]) / total)

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
        g = self.grid
        tot = sum(np.sum(np.abs(sfft.fftn(c)) ** 2) for c in self.components)
        return float(np.sqrt(tot * g.cell_volume / g.size))


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
    kk = f.grid.wavenumber_magnitude
    return ScalarField.from_spectrum(f.grid, kk ** s * f.spectrum)


def sobolev_norm(f: ScalarField, s: float) -> float:
    """||f||_{L2} + ||Lambda^s f||_{L2}, both computed spectrally."""
    return f.l2_norm() + fractional_laplacian(f, s).l2_norm()


def gradient(f: ScalarField) -> VectorField:
    """Spectral gradient; Nyquist modes are zeroed to keep components real."""
    g = f.grid
    sp = f.spectrum
    nyq = g.nyquist_mask
    comps = []
    for ax in range(g.n):
        mult = 1j * g.wavenumbers[ax]
        mult = np.where(nyq, 0.0, mult)
        comps.append(sfft.ifftn(mult * sp).real)
    return VectorField(g, comps)


def max_gradient(f: ScalarField) -> float:
    """Max over grid points of |grad f| with the gradient taken spectrally."""
    return gradient(f).max_magnitude()


def evaluate_at(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Trigonometric (band-limited) interpolation of a field at arbitrary points.

    Cost is O(len(points) * N^n); intended for small point sets such as
    quadrature cross-checks.
    """
    g = f.grid
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m1 = sfft.fftfreq(g.N) * g.N
    mesh_m = np.meshgrid(*([m1] * g.n), indexing="ij")
    # physical coefficients on [-half, half): the grid origin sits at index 0
    # of the DFT, which shifts each axis phase by pi per integer mode
    phase = sum(mesh_m)
    coef = f.spectrum / g.size * np.exp(1j * np.pi * phase)
    ks = g.wavenumbers
    out = np.empty(len(pts))
    for i, p in enumerate(pts):
        ph = np.exp(1j * sum(ks[ax] * p[ax] for ax in range(g.n)))
        out[i] = np.sum(coef * ph).real
    return out


# ---------------------------------------------------------------------------
# radial profiles
# ---------------------------------------------------------------------------

class RadialProfile:
    """Radial function given by a piecewise polynomial on breakpoints
    0 = r_0 < r_1 < ... < r_M, constant beyond r_M = support_radius.

    Built from nodes it is their shape-preserving (monotone cubic)
    interpolant, so a nondecreasing node set stays nondecreasing between
    nodes; `from_poly` takes a SciPy piecewise polynomial instead.  The
    derivative at r_M is the polynomial's left limit, and 0 beyond.
    Subclasses may override `value`/`derivative` with closed forms.
    """

    def __init__(self, nodes: np.ndarray, values: np.ndarray, monotone: bool = False):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be 1-D arrays of equal length")
        if nodes[0] != 0.0:
            raise ValueError("first node must be r = 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if monotone and np.any(np.diff(values) < -1e-12 * (np.ptp(values) + 1e-300)):
            raise ValueError("values are not nondecreasing")
        self.nodes = nodes
        self.values = values
        self.monotone = monotone

    @classmethod
    def from_poly(cls, poly) -> "RadialProfile":
        """The profile equal to the SciPy piecewise polynomial `poly` (a PPoly,
        such as a CubicHermiteSpline) on [0, poly.x[-1]]; its breakpoints
        poly.x must start at 0."""
        prof = cls(poly.x, poly(poly.x))
        prof._poly = poly  # takes the place of the node interpolant
        return prof

    @cached_property
    def _poly(self):
        return PchipInterpolator(self.nodes, self.values, extrapolate=False)

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


class _BumpProfile(RadialProfile):
    """Smooth compactly supported radial well with closed-form derivative."""

    def __init__(self, support_radius, depth, sharpness, n_nodes=801):
        self.L = float(support_radius)
        self.depth = float(depth)
        self.sharpness = float(sharpness)
        nodes = np.linspace(0.0, 2.0 * self.L, n_nodes)
        super().__init__(nodes, self._eval(nodes), monotone=True)

    def _eval(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.L
        u = (r[inside] / self.L) ** 2
        out[inside] = -self.depth * np.exp(self.sharpness * (1.0 - 1.0 / (1.0 - u)))
        return out

    def value(self, r):
        return self._eval(r)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.L
        rr = r[inside]
        u = (rr / self.L) ** 2
        core = np.exp(self.sharpness * (1.0 - 1.0 / (1.0 - u)))
        out[inside] = self.depth * core * self.sharpness * (2.0 * rr / self.L ** 2) / (1.0 - u) ** 2
        return out

    @property
    def support_radius(self) -> float:
        return self.L

    @property
    def breakpoints(self) -> np.ndarray:
        return np.array([0.0, self.L])


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


def profile_to_csv(path, profile: RadialProfile, header: str = "r,value") -> None:
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for r, v in zip(profile.nodes, profile.values):
            fh.write(f"{r:.17g},{v:.17g}\n")
