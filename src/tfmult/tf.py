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

Every STFT norm, ``modulation_norms_multi`` included, goes through one
streamed pass (``_norms``): the STFT arrives in position chunks, |V| is taken
once per chunk, and every requested (p, q, order) reduction is accumulated
from it, so norms never materialize the full N^d x N^d matrix.  The
refinement estimate recomputes the same reduction on the half-resolution grid
(``coarsen`` plus ``resample_window``).

2D windows that are tensor products g(x) = g0(x0) g1(x1) take a row-column
path: V_g f(x, w) = F1[F0[f conj(g0(. - x0))] conj(g1(. - x1))], so the
axis-0 transform is computed once per position row and reused for every
column of that row.  Only ``gaussian_window`` marks its window as such (it
carries per-axis ``factors``); ``bump_chi``, ``annulus_psi`` and
``custom_window`` take one full 2D transform per position.  Both paths yield
the same layout: positions row-major, frequencies centered.

A streamed pass reuses its chunk buffers for every chunk: each position
row is written into the pass's buffer, transformed in place
(``centered_fft(..., out=)``); on the modulus path |V| goes into one real
buffer, and ``_norms`` takes its powers into one of its own.  The
translates conj(T_x g) are read as views of conj(g) tiled three times per
axis, so no gather index array is built.  Each V that ``_stft_chunks``
yields is therefore a view of one reused buffer, valid only until the
generator resumes or ends: ``stft`` copies it, and ``_norms`` is done with
it before asking for the next chunk.

The buffers also outlive the pass (``_pass_buffers``): one module store
keeps a spare per role (the chunk, |V|, |V|^p, and the row-column H and
HT), which the next pass takes instead of faulting in fresh pages.  A pass
gives its buffers back when its generator ends or is closed; one that runs
beside it finds no spare and allocates its own.  Each spare is sized for
a pass that ran, so in the paper's runs the largest retained set is that
of the 1D N = 2048 powered pass: the 64 MiB chunk and the 32 MiB |V| and
|V|^p buffers, 128 MiB in all.  ``stft`` drops every spare before and
after it materializes its matrix, so none stays under the matrix or what
its caller computes from it.  Chunk sizes do not depend on the spares, so
no sum changes its order.

The norms read only |V|, so they take the sign-free path
(``_stft_chunks(..., modulus=True)``): the field is presigned once per pass
(``core._presigned``) and ``centered_fft(..., modulus=A)`` writes |V| into
the real buffer A.  In the row-column path H stays the signed axis-0
transform (once per position row) and g1 is presigned instead of the
field.  ``core`` states why this gives |V| bit for bit that of ``stft``
whenever dx is a power of two, and within a rounding otherwise.  ``stft``
keeps the signed path.

Every stage of a chunk is split over two threads (``core._split``): the
window multiply by rows, the FFT with |V| and its scale by the transform's
batch, |V|^p by contiguous halves, the positions-inner sums and maxima by
frequency column, and the frequencies-inner reductions by row.  Each output
element is computed by the same operations in the same order as on one
thread, so a split changes no bit.  The functions handed to the threads
call only numpy, never a public ``tfmult`` function.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass, field as dc_field

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    _presigned,
    _split,
    centered_fft,
    coarsen,
    make_grid,
    radius,
    require_same_grid,
    sample,
)

POSITIONS_INNER = "positions-inner"
FREQUENCIES_INNER = "frequencies-inner"

_CHUNK_BYTES = 1 << 26  # ~64 MiB of complex rows per streamed chunk
_ROW_COLUMN_CHUNK_BYTES = 1 << 22  # ~4 MiB per row-column block

# Spare pass buffers kept between passes, one flat array per role ("chunk",
# "modulus", "power", "H", "HT").  See the module docstring.
_spares: dict = {}
_spares_lock = threading.Lock()


def _forget_spares() -> None:
    """A forked child lacks the thread that may hold the lock: start from an empty store."""
    global _spares, _spares_lock
    _spares, _spares_lock = {}, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_spares)


def _release_spares() -> None:
    """Drop every spare; buffers held by running passes come back when they end."""
    with _spares_lock:
        _spares.clear()


@contextlib.contextmanager
def _pass_buffers():
    """``take(role, shape, dtype)`` for one pass; its buffers become spares on exit.

    ``take`` pops the role's spare and returns it shaped as a prefix view.
    A pass that finds no spare allocates a buffer of exactly its size; so
    does a pass that runs beside the one holding the spare (a nested or
    interleaved generator, another thread).  A spare too small for the
    pass is dropped, and so are the other spares: a larger pass makes a new
    set, and spares freed together leave the heap one hole that its buffers
    can reuse.  On exit each buffer goes back unless the store already has
    a larger one for its role.
    """
    held = {}

    def take(role, shape, dtype=np.float64):
        n = math.prod(shape)
        with _spares_lock:
            spare = _spares.pop(role, None)
            if spare is not None and spare.size < n:
                spare = None  # dropped before the new one is allocated
                _spares.clear()
        if spare is None:
            spare = np.empty(n, dtype)
        held[role] = spare
        return spare[:n].reshape(shape)

    try:
        yield take
    finally:
        with _spares_lock:
            for role, buf in held.items():
                if role not in _spares or _spares[role].size < buf.size:
                    _spares[role] = buf


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


def gaussian_window(grid: Grid) -> Window:
    """The Gaussian e^{-pi |x|^2}, the reference window for all norm estimates.

    Sampled as the outer product of its 1D factors, so ``field`` and
    ``factors`` agree bit for bit.
    """
    g1 = np.exp(-np.pi * radius((grid.axis_positions(),)) ** 2)
    vals = g1 if grid.d == 1 else np.outer(g1, g1)
    return Window(SampledField(grid, vals), "gaussian", factors=(g1,) * grid.d)


def bump_chi(grid: Grid) -> Window:
    f = sample(lambda *xs: chi_profile(radius(xs)), grid)
    return Window(f, "bump_chi")


def annulus_psi(grid: Grid) -> Window:
    f = sample(lambda *xs: psi_profile(radius(xs)), grid)
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
    if not (stride >= 1 and int(stride) == stride):
        raise ParameterError(f"stride must be a positive integer, got {stride}")
    ax = grid.axis_positions()
    sel = np.arange(0, grid.N, int(stride))
    if halfwidth is not None:
        sel = sel[np.abs(ax[sel]) <= halfwidth]
    if sel.size == 0:
        raise ParameterError(f"position half-width {halfwidth} selects no lattice point")
    if grid.d == 1:
        return sel, (sel,)
    ii, jj = np.meshgrid(sel, sel, indexing="ij")
    return (ii * grid.N + jj).reshape(-1), (sel, sel)


def _translates(g: np.ndarray, axis_idx) -> np.ndarray:
    """conj(T_x g) for every x in the position grid ``axis_idx``, as one view.

    ``axis_idx`` holds one increasing run of lattice indices with a constant
    step per axis, as ``_position_indices`` selects them.  Along an axis,
    (T_x g)[n] = g[(n + N/2 - j) mod N] for x the j-th position, which is
    the N entries of conj(g) tiled three times from 3N/2 - j on, so no index
    array is built.  The result has shape (len(axis_idx[0]), ..., N, ...):
    position axes first, then the window.
    """
    N = g.shape[0]
    gc3 = np.tile(np.conj(g), (3,) * g.ndim)
    windows = np.lib.stride_tricks.sliding_window_view(gc3, g.shape)
    for axis, js in enumerate(axis_idx):
        step = int(js[1] - js[0]) if js.size > 1 else 1
        starts = slice(3 * N // 2 - int(js[-1]), 3 * N // 2 - int(js[0]) + 1, step)
        windows = windows[(slice(None),) * axis + (starts,)]
    return windows[(slice(None, None, -1),) * g.ndim]


def _transformed(block: np.ndarray, d: int, dx: float, A):
    """One chunk's centered_fft in place, as (rows, N^d): V, or |V| into A if given.

    With A the block must be presigned (the sign-free path); A[:rows] is
    returned.
    """
    rows = len(block)
    if A is None:
        return centered_fft(block, d, dx, out=block).reshape(rows, -1)
    centered_fft(block, d, dx, out=block, modulus=A[:rows].reshape(block.shape))
    return A[:rows]


def _windowed_chunks(fv: np.ndarray, gvals: np.ndarray, flat_idx, axis_idx, grid: Grid,
                     modulus: bool):
    """Yield (flat position indices, rows of V_g f or |V_g f|) chunks, row-major.

    For |V| f is presigned once.  Every chunk is a prefix of buffers that
    the next chunk overwrites.
    """
    if modulus:
        fv = _presigned(fv, grid.d)
    windows = _translates(gvals.reshape(grid.shape), axis_idx)
    npos_axes = windows.shape[: grid.d]
    rows = min(max(1, _CHUNK_BYTES // (16 * grid.npoints)), flat_idx.size)
    with _pass_buffers() as take:
        buf = take("chunk", (rows, *grid.shape), np.complex128)
        A = take("modulus", (rows, grid.npoints)) if modulus else None
        for start in range(0, flat_idx.size, rows):
            stop = min(start + rows, flat_idx.size)
            block = buf[: stop - start]

            def fill(lo, hi):
                if grid.d == 1:
                    np.multiply(fv, windows[start + lo : start + hi], out=block[lo:hi])
                else:
                    for m in range(lo, hi):
                        window = windows[np.unravel_index(start + m, npos_axes)]
                        np.multiply(fv, window, out=block[m])

            _split(fill, stop - start, block.nbytes)
            yield flat_idx[start:stop], _transformed(block, grid.d, grid.dx, A)


def _row_column_chunks(fv: np.ndarray, factors, axis_idx, grid: Grid, modulus: bool):
    """Yield (flat position indices, V_g f or |V_g f| rows) for a tensor-product 2D window.

    H = F0[f conj(T_{x_i} g0)] depends only on the position row i, so it is
    transformed once per row (on the transposed field, along contiguous
    rows) and then multiplied by each column's conj(T_{x_j} g1) before the
    axis-1 transform.  H is always signed and scaled by dx; for |V|, g1 is
    presigned.
    """
    N = grid.N
    sel0, sel1 = axis_idx
    g0, g1 = factors
    if modulus:
        g1 = _presigned(g1, 1)
    rows0, rows1 = _translates(g0, (sel0,)), _translates(g1, (sel1,))
    fT = np.ascontiguousarray(fv.T)
    cols = min(max(1, _ROW_COLUMN_CHUNK_BYTES // (16 * N * N)), sel1.size)
    with _pass_buffers() as take:
        HT = take("HT", (N, N), np.complex128)  # (x1, k0)
        H = take("H", (N, N), np.complex128)  # (k0, x1)
        buf = take("chunk", (cols, N, N), np.complex128)
        A = take("modulus", (cols, N * N)) if modulus else None
        for i, row0 in zip(sel0, rows0):

            def window_rows(lo, hi):
                np.multiply(fT[lo:hi], row0, out=HT[lo:hi])

            def transpose(lo, hi):
                H[lo:hi] = HT.T[lo:hi]

            _split(window_rows, N, HT.nbytes)
            centered_fft(HT, 1, grid.dx, out=HT)
            _split(transpose, N, H.nbytes)
            for start in range(0, sel1.size, cols):
                stop = min(start + cols, sel1.size)
                block = buf[: stop - start]
                w = rows1[start:stop, None, :]

                def window_columns(lo, hi):
                    np.multiply(H[lo:hi], w, out=block[:, lo:hi])

                _split(window_columns, N, block.nbytes)
                yield i * N + sel1[start:stop], _transformed(block, 1, grid.dx, A)


def _stft_chunks(f: SampledField, g: Window, stride=1, halfwidth=None, modulus=False):
    """Yield (flat position indices, V_g f rows), positions row-major.

    With ``modulus`` the rows are |V_g f|, computed on the sign-free path.
    Each yielded array is a view of one buffer that the pass reuses: it is
    valid only until the generator resumes, so a caller that keeps rows
    copies them.
    """
    grid = f.grid
    require_same_grid(grid, g.field.grid)
    flat_idx, axis_idx = _position_indices(grid, stride, halfwidth)
    if grid.d == 2 and g.factors is not None:
        yield from _row_column_chunks(f.reshaped(), g.factors, axis_idx, grid, modulus)
    else:
        yield from _windowed_chunks(f.reshaped(), g.field.values, flat_idx, axis_idx, grid,
                                    modulus)


def stft(f: SampledField, g: Window, stride: int = 1) -> StftMatrix:
    """Materialize V_g f on every ``stride``-th position per axis."""
    grid = f.grid
    require_same_grid(grid, g.field.grid)
    flat_idx, _ = _position_indices(grid, stride, None)
    npos = flat_idx.size
    _release_spares()  # no spare stays under the matrix
    values = np.empty((npos, grid.npoints), dtype=np.complex128)
    row = 0
    for js, V in _stft_chunks(f, g, stride):
        values[row : row + len(js)] = V
        row += len(js)
    _release_spares()  # nor under what the caller computes from it
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


def _check_exponent(p) -> float:
    p = float(p)
    if not (p >= 1.0):
        raise ParameterError(f"exponent must lie in [1, inf], got {p}")
    return p


def _pow(a, p: float, out=None):
    """a ** p, into out when given; no pass when p == 1 (x ** 1.0 == x).

    Into out, p == 2 takes ``np.square``: the bits of ``np.power(a, 2.0)``,
    in less time (``a ** p`` already squares that way).
    """
    if p == 1.0:
        return a
    if out is None:
        return a ** p
    return np.square(a, out=out) if p == 2.0 else np.power(a, p, out=out)


def _lp_reduce(a: np.ndarray, p: float, w: float, axis, out=None):
    """(sum |a|^p * w)^(1/p) along axis, max when p = inf; out holds |a|^p."""
    if math.isinf(p):
        return np.max(a, axis=axis)
    return _pow(np.sum(_pow(a, p, out), axis=axis) * w, 1.0 / p)


def _split_power(A: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """A ** p into out (both contiguous), split over the threads."""
    a, o = A.reshape(-1), out.reshape(-1)

    def part(lo, hi):
        _pow(a[lo:hi], p, out=o[lo:hi])

    _split(part, a.size, A.nbytes)
    return out


def _accumulate_columns(a, s, is_max, col, lo, hi) -> None:
    """Fold frequency columns lo:hi of one chunk into s: a max, or a sum over rows.

    A single row is its own max and sum, so it is folded in directly.
    """
    a, c, t = a[:, lo:hi], col[lo:hi], s[lo:hi]
    if is_max:
        np.maximum(t, a[0] if len(a) == 1 else a.max(axis=0, out=c), out=t)
    else:
        np.add(t, a[0] if len(a) == 1 else np.sum(a, axis=0, out=c), out=t)


def _reduce_rows(A, P, ps, w, lo, hi) -> list:
    """The frequencies-inner value of position rows lo:hi of |V|, one array per p."""
    out = None if P is None else P[lo:hi]
    return [_lp_reduce(A[lo:hi], p, w, axis=1, out=out) for p in ps]


def _norms(f: SampledField, g: Window, specs, stride: int = 1, halfwidth=None) -> list:
    """Every (p, q, order) spec of V_g f from one streamed pass over the STFT.

    positions-inner: ( sum_w ( sum_x |V|^p dx^d )^{q/p} dxi^d )^{1/q};
    frequencies-inner swaps the roles.  An infinite exponent turns its sum
    into a max.  Positions-inner specs with the same p share one running
    per-frequency accumulator; frequencies-inner specs keep one reduced value
    per position row.  |V| comes from the sign-free path; |V|^p and the
    per-frequency partial sums go into buffers allocated once per pass.  The
    positions-inner sums are split over the threads by frequency column and
    the frequencies-inner ones by row, so every sum keeps its order.  A
    value that overflows to inf (or is nan) raises ParameterError naming its
    spec.
    """
    grid = f.grid
    wx = (grid.dx * stride) ** grid.d
    wxi = grid.dxi ** grid.d
    acc = {p: np.zeros(grid.npoints) for p, _, order in specs if order == POSITIONS_INNER}
    rows = {p: [] for p, _, order in specs if order == FREQUENCIES_INNER}
    powered = any(p != 1.0 and not math.isinf(p) for p, _, _ in specs)
    col = np.empty(grid.npoints)
    P = None
    with _pass_buffers() as take:
        for _, A in _stft_chunks(f, g, stride, halfwidth, modulus=True):
            if powered and P is None:  # the first chunk is the largest
                P = take("power", A.shape)
            pa = None if P is None else P[: len(A)]
            for p, s in acc.items():
                a = A if p == 1.0 or math.isinf(p) else _split_power(A, p, pa)
                _split(functools.partial(_accumulate_columns, a, s, math.isinf(p), col),
                       A.shape[1], A.nbytes)
            if rows:
                parts = _split(functools.partial(_reduce_rows, A, pa, list(rows), wxi),
                               len(A), A.nbytes)
                for part in parts:
                    for r, values in zip(rows.values(), part):
                        r.append(values)
    out = []
    for p, q, order in specs:
        if order == POSITIONS_INNER:
            inner = acc[p] if math.isinf(p) else _pow(acc[p] * wx, 1.0 / p)
            value = float(_lp_reduce(inner, q, wxi, axis=None))
        else:
            value = float(_lp_reduce(np.concatenate(rows[p]), q, wx, axis=None))
        if not math.isfinite(value):
            raise ParameterError(
                f"the ({p:g}, {q:g}) {order} norm is not finite ({value}): "
                "rescale the field so that |V|^p stays within float64"
            )
        out.append(value)
    return out


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
    specs = [(p, q, order)]
    (val,) = _norms(f, g, specs, stride, halfwidth)
    ref = None
    if refine:
        fc = coarsen(f)
        gc = resample_window(g, fc.grid)
        (half,) = _norms(fc, gc, specs, max(1, stride // 2), halfwidth)
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
    pq_list = [(_check_exponent(p), _check_exponent(q)) for p, q in pq_list]
    vals = _norms(f, g, [(p, q, POSITIONS_INNER) for p, q in pq_list], stride)
    return dict(zip(pq_list, vals))


def fl1_norm(f: SampledField, refine: bool = True) -> NormReport:
    """L^1 norm of the Fourier transform: sum |f_hat| dxi^d.

    The field is treated as compactly supported on its box; callers truncate
    (e.g. multiply by the bump cutoff) before measuring.
    """

    def value(h: SampledField) -> float:
        gr = h.grid
        return float(gr.dxi ** gr.d * np.sum(np.abs(centered_fft(h.reshaped(), gr.d, gr.dx))))

    val = value(f)
    ref = None
    if refine:
        half = value(coarsen(f))
        ref = abs(val - half) / max(abs(val), 1e-300)
    return NormReport(val, 1.0, 1.0, "fourier-l1", f.grid, refinement_estimate=ref)
