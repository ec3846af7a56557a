"""Short-time Fourier transform and the mixed-norm functionals built on it.

The STFT of f against a window g is computed row-by-row as the centered DFT
of f * conj(T_x g), with T_x the circular lattice translation.  On top of the
raw matrix we provide the three norm functionals used throughout:

* ``modulation_norm``   -- L^p over positions inside, L^q over frequencies
  outside (sup replacing the sum at an infinite exponent),
* ``amalgam_norm_wfl1`` -- sup over positions of the L^1-in-frequency slice,
* ``m_inf_1_norm``      -- L^1 over frequencies of the sup-in-position slice,

plus ``m_1_inf_norm`` (sup over frequencies of the L^1-in-position slice) and
``fl1_norm`` (L^1 norm of the Fourier transform).

Large cases stream the STFT in position chunks so norms never materialize the
full N^d x N^d matrix.

2D windows that are tensor products g(x) = g0(x0) g1(x1) take a row-column
path: V_g f(x, w) = F1[F0[f conj(g0(. - x0))] conj(g1(. - x1))], so the
axis-0 transform is computed once per position row and reused for every
column of that row.  Only ``gaussian_window`` marks its window as such (it
carries per-axis ``factors``); ``bump_chi``, ``annulus_psi`` and
``custom_window`` take one full 2D transform per position.  Both paths yield
the same layout: positions row-major, frequencies centered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    centered_fft,
    coarsen,
    make_grid,
    require_same_grid,
    sample,
)

POSITIONS_INNER = "positions-inner"
FREQUENCIES_INNER = "frequencies-inner"

_CHUNK_BYTES = 1 << 26  # ~64 MiB of complex rows per streamed chunk
_ROW_COLUMN_CHUNK_BYTES = 1 << 22  # ~4 MiB per row-column block


# ---------------------------------------------------------------------------
# windows


def chi_profile(rho):
    """Smooth radial cutoff: 1 for rho <= 1, 0 for rho >= 2, monotone between.

    Built from h(s) = exp(-1/s) (s > 0) as h(2-rho) / (h(2-rho) + h(rho-1)).
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))

    def h(s):
        out = np.zeros_like(s)
        pos = s > 0
        out[pos] = np.exp(-1.0 / s[pos])
        return out

    num = h(2.0 - rho)
    den = num + h(rho - 1.0)
    out = np.ones_like(rho)
    band = den > 0
    out[band] = num[band] / den[band]
    return out if out.size > 1 else float(out[0])


def psi_profile(rho):
    """Annulus profile chi(rho/2) - chi(rho); supported in 1 <= rho <= 4."""
    rho = np.asarray(rho, dtype=float)
    return chi_profile(rho / 2.0) - chi_profile(rho)


@dataclass
class Window:
    field: SampledField
    kind: str  # gaussian | bump_chi | annulus_psi | custom
    params: dict = dc_field(default_factory=dict)
    # per-axis 1D samples whose outer product is ``field``; None unless the
    # window is a tensor product
    factors: tuple | None = None


def _radius(meshes) -> np.ndarray:
    s = np.zeros_like(meshes[0])
    for m in meshes:
        s += m * m
    return np.sqrt(s)


def gaussian_window(grid: Grid) -> Window:
    """The Gaussian e^{-pi |x|^2}, the reference window for all norm estimates.

    Sampled as the outer product of its 1D factors, so ``field`` and
    ``factors`` agree bit for bit.
    """
    g1 = np.exp(-np.pi * _radius((grid.axis_positions(),)) ** 2)
    vals = g1 if grid.d == 1 else np.outer(g1, g1)
    return Window(SampledField(grid, vals), "gaussian", factors=(g1,) * grid.d)


def bump_chi(grid: Grid) -> Window:
    f = sample(lambda *xs: chi_profile(_radius(xs)), grid)
    return Window(f, "bump_chi")


def annulus_psi(grid: Grid) -> Window:
    f = sample(lambda *xs: psi_profile(_radius(xs)), grid)
    return Window(f, "annulus_psi")


def custom_window(f: SampledField) -> Window:
    return Window(f, "custom")


def resample_window(w: Window, grid: Grid) -> Window:
    """Rebuild a window on another grid (analytic kinds) or subsample (custom)."""
    if w.kind == "gaussian":
        return gaussian_window(grid)
    if w.kind == "bump_chi":
        return bump_chi(grid)
    if w.kind == "annulus_psi":
        return annulus_psi(grid)
    src = w.field.grid
    if src.L == grid.L and src.N == 2 * grid.N and src.d == grid.d:
        return Window(coarsen(w.field), "custom")
    raise ParameterError("custom windows can only be coarsened by a factor 2")


# ---------------------------------------------------------------------------
# STFT


@dataclass
class StftMatrix:
    """V_g f on (position subset) x (full frequency lattice).

    ``values[j, k]`` approximates V_g f(x_j, xi_k); positions are the lattice
    points with flat indices ``position_indices`` (every ``stride``-th point
    per axis when strided).
    """

    grid: Grid
    values: np.ndarray  # (npos, N^d) complex
    position_indices: np.ndarray  # flat indices into the position lattice
    stride: int = 1


def _position_indices(grid: Grid, stride: int, halfwidth: float | None):
    """Flat lattice indices of the selected positions, one axis index set per axis."""
    ax = grid.axis_positions()
    sel = np.arange(0, grid.N, stride)
    if halfwidth is not None:
        sel = sel[np.abs(ax[sel]) <= halfwidth]
    if grid.d == 1:
        return sel, (sel,)
    ii, jj = np.meshgrid(sel, sel, indexing="ij")
    return (ii * grid.N + jj).reshape(-1), (sel, sel)


def _translate_indices(N: int, js) -> np.ndarray:
    """Gather indices with g[idx[m]] = T_x g on a 1D lattice, x the js[m]-th position."""
    shifts = np.atleast_1d(js) - N // 2
    return (np.arange(N)[None, :] - shifts[:, None]) % N


def _windowed_chunk(f: SampledField, gvals: np.ndarray, axis_idx, grid: Grid):
    """Yield (flat position indices, f * conj(T_x g)) chunks, row-major."""
    N = grid.N
    fv = f.reshaped()
    g = gvals.reshape(grid.shape)
    if grid.d == 1:
        (sel,) = axis_idx
        rows_per_chunk = max(1, _CHUNK_BYTES // (16 * N))
        for start in range(0, sel.size, rows_per_chunk):
            js = sel[start : start + rows_per_chunk]
            # idx stays referenced across the yield on purpose: releasing it
            # earlier reorders heap reuse and raised the peak RSS of a run of
            # all default experiments by ~24 MiB
            idx = _translate_indices(N, js)
            yield js, fv[None, :] * np.conj(g[idx])
    else:
        sel0, sel1 = axis_idx
        rows_per_chunk = max(1, _CHUNK_BYTES // (16 * N * N))
        flat = [(i, j) for i in sel0 for j in sel1]
        for start in range(0, len(flat), rows_per_chunk):
            part = flat[start : start + rows_per_chunk]
            block = np.empty((len(part), N, N), dtype=np.complex128)
            for m, (i, j) in enumerate(part):
                block[m] = fv * np.conj(
                    np.roll(g, (i - N // 2, j - N // 2), axis=(0, 1))
                )
            yield np.array([i * N + j for i, j in part]), block


def _row_column_chunks(f: SampledField, factors, axis_idx, grid: Grid):
    """Yield (flat position indices, V_g f rows) for a tensor-product 2D window.

    H = F0[f conj(T_{x_i} g0)] depends only on the position row i, so it is
    transformed once per row (on the transposed field, along contiguous
    rows) and then multiplied by each column's conj(T_{x_j} g1) before the
    axis-1 transform.
    """
    N = grid.N
    g0, g1 = factors
    sel0, sel1 = axis_idx
    fT = np.ascontiguousarray(f.reshaped().T)
    cols_per_chunk = max(1, _ROW_COLUMN_CHUNK_BYTES // (16 * N * N))
    for i in sel0:
        H = centered_fft(fT * np.conj(g0[_translate_indices(N, i)]), 1, grid.dx)
        H = np.ascontiguousarray(H.T)  # (k0, x1)
        for start in range(0, sel1.size, cols_per_chunk):
            js = sel1[start : start + cols_per_chunk]
            block = H[None, :, :] * np.conj(g1[_translate_indices(N, js)])[:, None, :]
            V = centered_fft(block, 1, grid.dx)
            yield i * N + js, V.reshape(len(js), -1)


def _stft_chunks(f: SampledField, g: Window, stride=1, halfwidth=None):
    """Yield (flat position indices, V_g f rows), positions row-major."""
    grid = f.grid
    require_same_grid(grid, g.field.grid)
    _, axis_idx = _position_indices(grid, stride, halfwidth)
    if grid.d == 2 and g.factors is not None:
        yield from _row_column_chunks(f, g.factors, axis_idx, grid)
        return
    for js, block in _windowed_chunk(f, g.field.values, axis_idx, grid):
        V = centered_fft(block, grid.d, grid.dx)
        yield js, V.reshape(len(js), -1)


def stft(f: SampledField, g: Window, stride: int = 1) -> StftMatrix:
    """Materialize V_g f on every ``stride``-th position per axis."""
    grid = f.grid
    require_same_grid(grid, g.field.grid)
    flat_idx, _ = _position_indices(grid, stride, None)
    npos = flat_idx.size
    values = np.empty((npos, grid.npoints), dtype=np.complex128)
    row = 0
    for js, V in _stft_chunks(f, g, stride):
        values[row : row + len(js)] = V
        row += len(js)
    return StftMatrix(grid, values, flat_idx, stride)


# ---------------------------------------------------------------------------
# mixed norms


@dataclass
class NormReport:
    """A computed norm with its (p, q) exponents, grid metadata, and error estimate."""

    value: float
    p: float
    q: float
    order: str
    grid: Grid
    stride: int = 1
    refinement_estimate: float | None = None
    aliasing_warning: bool = False


def _check_exponent(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ParameterError(f"exponent must lie in [1, inf], got {p}")
    return p


def _lp_reduce(a: np.ndarray, p: float, w: float, axis):
    """(sum |a|^p * w)^(1/p) along axis, max when p = inf."""
    if math.isinf(p):
        return np.max(a, axis=axis)
    return (np.sum(a ** p, axis=axis) * w) ** (1.0 / p)


class _PositionsInnerAccum:
    """Accumulate sum_x |V|^p * wx (or running max) per frequency, streaming."""

    def __init__(self, nfreq: int, p: float, wx: float):
        self.p = p
        self.wx = wx
        self.acc = np.zeros(nfreq)

    def add(self, abs_rows: np.ndarray):
        if math.isinf(self.p):
            np.maximum(self.acc, abs_rows.max(axis=0), out=self.acc)
        else:
            self.acc += np.sum(abs_rows ** self.p, axis=0)

    def inner(self) -> np.ndarray:
        if math.isinf(self.p):
            return self.acc
        return (self.acc * self.wx) ** (1.0 / self.p)


def _outer_reduce(inner: np.ndarray, q: float, w: float) -> float:
    return float(_lp_reduce(inner, q, w, axis=None))


def mixed_norm(V: StftMatrix, p, q, order: str = POSITIONS_INNER) -> NormReport:
    """Mixed (p, q) norm of an STFT matrix with Riemann weights from the grid.

    positions-inner: ( sum_w ( sum_x |V|^p dx^d )^{q/p} dxi^d )^{1/q};
    frequencies-inner swaps the roles.  An infinite exponent turns its sum
    into a max.  The refinement estimate compares against the norm recomputed
    from every second position and the central half of the frequency lattice
    (the entries a half-resolution grid would share).
    """
    p = _check_exponent(p)
    q = _check_exponent(q)
    if order not in (POSITIONS_INNER, FREQUENCIES_INNER):
        raise ParameterError(f"unknown order {order!r}")
    val = _mixed_norm_from_matrix(V, p, q, order, coarse=False)
    half = _mixed_norm_from_matrix(V, p, q, order, coarse=True)
    ref = abs(val - half) / max(abs(val), 1e-300)
    return NormReport(val, p, q, order, V.grid, V.stride, refinement_estimate=ref)


def _mixed_norm_from_matrix(V: StftMatrix, p, q, order, coarse: bool) -> float:
    grid = V.grid
    A = np.abs(V.values)
    wx = (grid.dx * V.stride) ** grid.d
    wxi = grid.dxi ** grid.d
    if coarse:
        if grid.d == 1:
            A = A[::2]
        else:
            n_ax = int(round(math.sqrt(A.shape[0])))
            A = A.reshape(n_ax, n_ax, -1)[::2, ::2].reshape(-1, A.shape[1])
        wx *= 2 ** grid.d
        N = grid.N
        nyq = N * grid.dxi / 4
        axf = grid.axis_frequencies()
        keep = (axf >= -nyq) & (axf < nyq)
        if grid.d == 1:
            A = A[:, keep]
        else:
            A = A.reshape(A.shape[0], N, N)[:, keep][:, :, keep]
            A = A.reshape(A.shape[0], -1)
    if order == POSITIONS_INNER:
        inner = _lp_reduce(A, p, wx, axis=0)
        return _outer_reduce(inner, q, wxi)
    inner = _lp_reduce(A, p, wxi, axis=1)
    return _outer_reduce(inner, q, wx)


def _streamed_norm(
    f: SampledField,
    g: Window,
    p: float,
    q: float,
    order: str,
    stride: int,
    halfwidth,
) -> float:
    grid = f.grid
    wx = (grid.dx * stride) ** grid.d
    wxi = grid.dxi ** grid.d
    if order == POSITIONS_INNER:
        acc = _PositionsInnerAccum(grid.npoints, p, wx)
        for _, V in _stft_chunks(f, g, stride, halfwidth):
            acc.add(np.abs(V))
        return _outer_reduce(acc.inner(), q, wxi)
    vals = []
    for _, V in _stft_chunks(f, g, stride, halfwidth):
        vals.append(_lp_reduce(np.abs(V), p, wxi, axis=1))
    return _outer_reduce(np.concatenate(vals), q, wx)


def _field_norm(
    f: SampledField,
    g: Window,
    p,
    q,
    order: str,
    stride: int = 1,
    halfwidth=None,
    refine: bool = True,
) -> NormReport:
    p = _check_exponent(p)
    q = _check_exponent(q)
    val = _streamed_norm(f, g, p, q, order, stride, halfwidth)
    ref = None
    if refine:
        fc = coarsen(f)
        gc = resample_window(g, fc.grid)
        half = _streamed_norm(fc, gc, p, q, order, max(1, stride // 2), halfwidth)
        ref = abs(val - half) / max(abs(val), 1e-300)
    return NormReport(val, p, q, order, f.grid, stride, refinement_estimate=ref)


def modulation_norm(
    f: SampledField, g: Window, p, q, stride: int = 1, refine: bool = True
) -> NormReport:
    """M^{p,q}-style norm: mixed (p, q) norm of V_g f, positions inner."""
    return _field_norm(f, g, p, q, POSITIONS_INNER, stride, None, refine)


def amalgam_norm_wfl1(
    f: SampledField,
    g: Window,
    stride: int = 1,
    position_halfwidth: float | None = None,
    refine: bool = True,
) -> NormReport:
    """sup over positions x of sum_w |V_g f(x, w)| dxi^d.

    ``position_halfwidth`` restricts the sup to |x| <= halfwidth per axis;
    positions whose window wraps around the periodic box misrepresent the
    continuum translate, so sup-type estimates may exclude an edge margin.
    """
    return _field_norm(
        f, g, 1.0, np.inf, FREQUENCIES_INNER, stride, position_halfwidth, refine
    )


def m_inf_1_norm(
    f: SampledField,
    g: Window,
    stride: int = 1,
    position_halfwidth: float | None = None,
    refine: bool = True,
) -> NormReport:
    """sum over frequencies of (sup over positions of |V_g f|) dxi^d."""
    return _field_norm(
        f, g, np.inf, 1.0, POSITIONS_INNER, stride, position_halfwidth, refine
    )


def m_1_inf_norm(
    f: SampledField,
    g: Window,
    stride: int = 1,
    position_halfwidth: float | None = None,
    refine: bool = True,
) -> NormReport:
    """sup over frequencies of (sum over positions of |V_g f| dx^d)."""
    return _field_norm(
        f, g, 1.0, np.inf, POSITIONS_INNER, stride, position_halfwidth, refine
    )


def modulation_norms_multi(
    f: SampledField, g: Window, pq_list, stride: int = 1
) -> dict:
    """Positions-inner mixed norms for several (p, q) pairs from one STFT pass."""
    grid = f.grid
    wx = (grid.dx * stride) ** grid.d
    wxi = grid.dxi ** grid.d
    pq_list = [(_check_exponent(p), _check_exponent(q)) for p, q in pq_list]
    accs = {pq: _PositionsInnerAccum(grid.npoints, pq[0], wx) for pq in set(pq_list)}
    for _, V in _stft_chunks(f, g, stride):
        A = np.abs(V)
        for acc in accs.values():
            acc.add(A)
    return {pq: _outer_reduce(accs[pq].inner(), pq[1], wxi) for pq in pq_list}


def fl1_norm(f: SampledField, refine: bool = True) -> NormReport:
    """L^1 norm of the Fourier transform: sum |f_hat| dxi^d.

    The field is treated as compactly supported on its box; callers truncate
    (e.g. multiply by the bump cutoff) before measuring.
    """
    grid = f.grid
    val = float(grid.dxi ** grid.d * np.sum(np.abs(centered_fft(f.reshaped(), grid.d, grid.dx))))
    ref = None
    if refine:
        fc = coarsen(f)
        gc = fc.grid
        half = float(
            gc.dxi ** gc.d * np.sum(np.abs(centered_fft(fc.reshaped(), gc.d, gc.dx)))
        )
        ref = abs(val - half) / max(abs(val), 1e-300)
    return NormReport(val, 1.0, 1.0, "fourier-l1", grid, refinement_estimate=ref)
