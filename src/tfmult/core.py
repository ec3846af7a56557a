"""Uniform centered grids and Fourier transforms with the e^{-2pi i x.xi} convention.

Position lattice: x_k = (k - N/2) * dx for k in {0, ..., N-1}, covering
[-L/2, L/2).  Frequency lattice: xi_k = (k - N/2) / L, so both lattices are
centered at 0 and dx * dxi * N = 1 holds exactly as a rational relation.

All operations are pure functions on immutable inputs.  Reductions go through
numpy's pairwise summation, so results are bitwise reproducible across runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Invalid construction parameter (non-power-of-two N, bad exponent, ...)."""


class SamplingError(ValueError):
    """A pointwise function produced a non-finite value on the lattice."""


class GridMismatchError(ValueError):
    """Two operands live on different grids."""


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform sampling of the cube [-L/2, L/2)^d with its dual lattice."""

    d: int
    L: float
    N: int

    @property
    def dx(self) -> float:
        return self.L / self.N

    @property
    def dxi(self) -> float:
        return 1.0 / self.L

    @property
    def npoints(self) -> int:
        return self.N ** self.d

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.d

    def axis_positions(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dx

    def axis_frequencies(self) -> np.ndarray:
        return (np.arange(self.N) - self.N // 2) * self.dxi

    def position_meshes(self) -> tuple:
        ax = self.axis_positions()
        return np.meshgrid(*([ax] * self.d), indexing="ij")

    def frequency_meshes(self) -> tuple:
        ax = self.axis_frequencies()
        return np.meshgrid(*([ax] * self.d), indexing="ij")

    def frequency_radius(self, r: float = 1.0) -> np.ndarray:
        """|xi|_{2r} on the frequency lattice, shaped (N,)*d.

        r=1 gives the Euclidean norm.
        """
        meshes = self.frequency_meshes()
        if r == 1.0:
            s = np.zeros(self.shape)
            for m in meshes:
                s += m * m
            return np.sqrt(s)
        s = np.zeros(self.shape)
        for m in meshes:
            s += np.abs(m) ** (2.0 * r)
        return s ** (1.0 / (2.0 * r))


def make_grid(d: int, L: float, N: int) -> Grid:
    """Build a centered grid; N a power of two >= 8, L > 0 finite, d in {1, 2}."""
    if d not in (1, 2):
        raise ParameterError(f"dimension must be 1 or 2, got {d}")
    if not (isinstance(N, (int, np.integer)) and _is_power_of_two(int(N)) and N >= 8):
        raise ParameterError(f"N must be a power of two >= 8, got {N}")
    if not (L > 0 and math.isfinite(L) and L / N >= sys.float_info.min):
        raise ParameterError(
            f"L must be finite and positive with L/N a normal float, got L = {L}"
        )
    return Grid(d=int(d), L=float(L), N=int(N))


def default_grid(d: int) -> Grid:
    """Desk-scale defaults: Gaussian-family tails stay below 1e-14 at the box edge."""
    if d == 1:
        return make_grid(1, 32.0, 2048)
    if d == 2:
        return make_grid(2, 16.0, 256)
    raise ParameterError(f"dimension must be 1 or 2, got {d}")


@dataclass
class SampledField:
    """Complex samples of a function on a Grid, row-major, length N^d."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if self.values.size != self.grid.npoints:
            raise ParameterError(
                f"field has {self.values.size} values, grid wants {self.grid.npoints}"
            )

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)

    def copy(self) -> "SampledField":
        return SampledField(self.grid, self.values.copy())


def same_grid(a: Grid, b: Grid) -> bool:
    return a.d == b.d and a.L == b.L and a.N == b.N


def require_same_grid(a: Grid, b: Grid) -> None:
    if not same_grid(a, b):
        raise GridMismatchError(f"grid mismatch: {a} vs {b}")


def sample(fn, grid: Grid) -> SampledField:
    """Sample a pointwise function on the position lattice.

    ``fn`` receives d coordinate arrays (numpy-vectorized) and must return
    values defined at every lattice point; a non-finite result raises
    SamplingError naming the first offending coordinate.
    """
    meshes = grid.position_meshes()
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(*meshes), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        coord = tuple(float(m[idx]) for m in meshes)
        raise SamplingError(f"non-finite sample at x = {coord}")
    return SampledField(grid, vals.reshape(-1).copy())


def _centered_axes(a: np.ndarray, d: int) -> tuple:
    # transform the trailing d axes; leading axes are batch
    return tuple(range(a.ndim - d, a.ndim))


def centered_fft(a: np.ndarray, d: int, dx: float) -> np.ndarray:
    """Centered-lattice DFT of the trailing d axes, scaled by dx^d.

    Approximates f_hat(xi) = int f(x) e^{-2 pi i x.xi} dx on the centered
    frequency lattice.
    """
    axes = _centered_axes(a, d)
    out = np.fft.fftshift(
        np.fft.fftn(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes
    )
    out *= dx ** d
    return out


def centered_ifft(a: np.ndarray, d: int, dx: float) -> np.ndarray:
    """Inverse of :func:`centered_fft` (e^{+2 pi i x.xi} convention)."""
    axes = _centered_axes(a, d)
    out = np.fft.fftshift(
        np.fft.ifftn(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes
    )
    out /= dx ** d
    return out


def forward_transform(f: SampledField) -> SampledField:
    """Riemann approximation of f_hat on the frequency lattice xi_k = k/L."""
    g = f.grid
    out = centered_fft(f.reshaped(), g.d, g.dx)
    return SampledField(g, out.reshape(-1))


def inverse_transform(F: SampledField) -> SampledField:
    """Mirror of :func:`forward_transform`; round trips to ~1e-15."""
    g = F.grid
    out = centered_ifft(F.reshaped(), g.d, g.dx)
    return SampledField(g, out.reshape(-1))


def l2_norm(f: SampledField) -> float:
    """Discrete L2 norm: (dx^d * sum |f|^2)^{1/2}."""
    g = f.grid
    return float(np.sqrt(g.dx ** g.d * np.sum(np.abs(f.values) ** 2)))


def l1_norm(f: SampledField) -> float:
    """Discrete L1 norm: dx^d * sum |f|."""
    g = f.grid
    return float(g.dx ** g.d * np.sum(np.abs(f.values)))


def coarsen(f: SampledField) -> SampledField:
    """Subsample a field onto the half-resolution grid (same L, N/2).

    Used for the discretization-error estimates carried by norm reports.
    """
    g = f.grid
    if g.N < 16:
        raise ParameterError("cannot coarsen below N = 8")
    half = make_grid(g.d, g.L, g.N // 2)
    v = f.reshaped()
    for _ in range(g.d):
        v = v[::2]
        v = np.moveaxis(v, 0, -1)
    return SampledField(half, v.reshape(-1).copy())
