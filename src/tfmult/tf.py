"""Short-time Fourier transform and the mixed-norm functionals built on it.

The STFT of f against a window g is computed row-by-row as the centered DFT
of f * conj(T_x g), with T_x the circular lattice translation.  On top of it
we provide the norm functionals used throughout:

* ``modulation_norm``   -- L^p over positions inside, L^q over frequencies
  outside (sup replacing the sum at an infinite exponent),
* ``amalgam_norm_wfl1`` -- sup over positions of the L^1-in-frequency slice,
* ``m_inf_1_norm``      -- L^1 over frequencies of the sup-in-position slice,

plus ``m_1_inf_norm`` (sup over frequencies of the L^1-in-position slice) and
``fl1_norm`` (L^1 norm of the Fourier transform).

Every STFT norm goes through one streamed pass (``_norms``) that reads |V|
once and accumulates every requested (p, q, order) reduction from it, so no
norm materializes the N^d x N^d matrix.  Every refinement estimate comes
from ``refinement``: it measures the same quantity again on the
half-resolution grid, with each field ``coarsen``ed and each window
subsampled there (``coarsen_window``), which is the window rebuilt on the
half grid bit for bit.  A window (``Window``) is its samples or, for the
Gaussian, only its per-axis 1D factors, whose outer product ``field`` forms
when a reader asks for it.  |V| takes one of two paths, by window (2D
with factors or not), and both are plain functions with one contract:
``path(f, g, stride, halfwidth, acc, col, powers, reduce)`` folds every
positions-inner accumulator of ``acc`` itself and hands each step's or
block's rows to ``reduce(first, rows_of, lo, hi)`` in the thread piece of
its rows lo:hi, where ``first`` is the ordinal of its first position and
``rows_of(p)`` its |V| rows (p = 1 and inf) or |V|^p rows (every other p
of ``powers``), valid during the call.

* Windowed (``_windowed_sums``): one full d-dimensional transform per
  position, for every 1D window and every 2D window kept as samples
  (``bump_chi``, ``annulus_psi``, ``custom_window``).  The positions go
  through one complex block of about ``_BLOCK_BYTES`` (4 MiB), one step at
  a time, each step one ``centered_fft`` call: a thread piece multiplies
  its rows' windows into the block, transforms them, writes their |V| (and
  |V|^p) into the step's side of a pair of step-sized real buffers and
  hands them to ``reduce``.  The positions-inner sums of a step run inside
  the next step's call, while the other side of the pair is written: its
  piece of rows lo:hi takes the previous step's frequency columns
  lo*N^d//n : hi*N^d//n.  One more hand-off folds the last step.
* Row-column (``_row_column_sums``): a 2D window kept as its factors, a
  tensor product g(x) = g0(x0) g1(x1), as ``gaussian_window`` makes it.
  V_g f(x, w) = F1[F0[f conj(g0(. - x0))] conj(g1(. - x1))], so the axis-0
  transform H is computed once per position row, in the first column
  block's buffer, and reused for its columns, which go through blocks of
  about ``_BLOCK_BYTES``.  A row's blocks go to the threads in one
  hand-off: each thread owns a k0 range and runs, block by block in
  position order, the column-window multiply, the axis-1 transform, |V|,
  |V|^p and the positions-inner sums on its columns.  A pass with a
  ``reduce`` hands each block off on its own and then its rows to
  ``reduce``, before the next block overwrites them.

Both paths read |V| sign-free: the field (windowed) or g1 (row-column) is
presigned once per pass (``core._presigned``) and ``centered_fft(...,
modulus=A)`` writes |V| into the real buffer A.  ``core`` states why that
is |V| of the signed transform bit for bit whenever dx is a power of two,
and within a rounding otherwise.  ``stft`` takes the windowed transform
for every window, the 2D Gaussian's ``field`` included: it allocates its
(positions, N^d) matrix and transforms it in place, signed, in one call
with the window multiply as the transform's ``fill``.  Positions are
row-major and frequencies centered.  The translates conj(T_x g) are views
of conj(g) tiled three times per axis (``_translates``).

Pass buffers outlive the pass (``_pass_buffers``): a module store keeps one
spare per role (the block, the |V| pair, the |V|^p pairs, and the
row-column H), which the next pass takes instead of faulting in
fresh pages; a pass that runs beside it finds no spare and allocates its
own.  In the paper's runs the largest kept set is that of the 1D N = 2048
powered pass, about 12 MiB (68 MiB while a windowed pass held a whole
chunk of |V| and of |V|^p).  ``stft`` drops every spare before and after
it fills its matrix.

Why the bits stay: chunk sizes, block sizes and position order depend
neither on the thread split (``core._split``) nor on the spares, every row
is transformed on its own, and each output element is computed by the same
operations in the same order as on one thread.  A windowed chunk of
``_CHUNK_BYTES // (16 N^d)`` positions fixes the association of the
positions-inner sums, and a step of about ``_BLOCK_BYTES`` fixes only the
memory: a chunk's per-frequency sum runs on from step to step through a
leading row (``_fold_step``) and is added to its accumulator once, as if
the chunk were one block.  Each row-column accumulator column is summed
block by block, in position order, by the one thread that owns it.  The
functions handed to the threads, ``reduce`` included, call only numpy,
never a public ``tfmult`` function.  A walked row-column ``centered_fft``
call's ``a`` is the block repeated once per block of the row
(``core._repeated``), so a tracer counting FFT work from ``a.shape`` counts
the true work; the window multiply and the fused sums run inside the calls.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    _presigned,
    _repeated,
    _split,
    centered_fft,
    chi_profile,
    coarsen,
    half_grid,
    psi_profile,
    radial_field,
    radius,
    require_same_grid,
)

POSITIONS_INNER = "positions-inner"
FREQUENCIES_INNER = "frequencies-inner"
# the (p, q, order) specs of the W(FL^1, l^inf) and M^{1,inf} norms
_WFL1 = (1.0, math.inf, FREQUENCIES_INNER)
_M1INF = (1.0, math.inf, POSITIONS_INNER)

# a windowed chunk holds as many positions as ~64 MiB of complex rows would;
# its positions-inner sums are added to the accumulators once per chunk, so
# the chunk fixes their association (its rows go through in steps)
_CHUNK_BYTES = 1 << 26
# ~4 MiB of complex rows per transform block of the |V| paths (a row-column
# column block, a step of a windowed chunk); a 1 MiB block cost 4% more wall
# time in per-step overhead
_BLOCK_BYTES = 1 << 22
# A windowed |V| step holds at least one row per _POINTS_PER_STEP_ROW points
# of N: numpy's FFT takes a scratch buffer of a few N-point lines per call,
# which a fresh process maps anew on every call from N = 8192 on, and at
# N = 32768 and 65536 4 MiB steps of 8 and 4 rows took 25% and 55% more CPU
# time than steps of 16 rows.
_POINTS_PER_STEP_ROW = 2048

# Spare pass buffers kept between passes, one flat array per role ("chunk",
# "modulus", "power", "H").  See the module docstring.
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
    does a pass that runs beside the one holding the spare, which only
    another thread can run (a pass runs to its end once started).  A spare
    too small for the pass is dropped, and so are the other spares: a
    larger pass makes a new set, and spares freed together leave the heap
    one hole that its buffers can reuse.  On exit each buffer goes back
    unless the store already has a larger one for its role.
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


@dataclass
class Window:
    """A window on ``grid``: its samples, or, for a tensor product, only its 1D factors.

    ``samples`` holds the N^d values of a sampled window (bump, annulus,
    custom); ``factors`` holds one N-point array per axis whose outer
    product is the window (the Gaussian), which then keeps no N^d array.
    """

    grid: Grid
    samples: np.ndarray | None = None
    factors: tuple | None = None

    @property
    def field(self) -> SampledField:
        """The window's samples; a window with factors forms their product on each read."""
        parts = self.factors or (self.samples,)
        return SampledField(self.grid, functools.reduce(np.multiply.outer, parts))


def gaussian_window(grid: Grid) -> Window:
    """The Gaussian e^{-pi |x|^2}, the reference window for all norm estimates.

    Kept as its d equal 1D factors.  On a huge box x^2 overflows where the
    window underflows to 0 anyway, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        g1 = np.exp(-np.pi * radius((grid.axis_positions(),)) ** 2)
    return Window(grid, factors=(g1,) * grid.d)


def bump_chi(grid: Grid) -> Window:
    return custom_window(radial_field(grid, chi_profile))


def annulus_psi(grid: Grid) -> Window:
    return custom_window(radial_field(grid, psi_profile))


def custom_window(f: SampledField) -> Window:
    return Window(f.grid, f.values)


def coarsen_window(w: Window) -> Window:
    """The window on its half-resolution grid: ``coarsen`` on samples, [::2] on each factor.

    The lattice of ``half_grid`` is every other point of the fine one, bit
    for bit, so a window sampled from a pointwise function (the Gaussian,
    ``bump_chi``, ``annulus_psi``) subsampled is that window rebuilt there.
    """
    return (custom_window(coarsen(w.field)) if w.factors is None
            else Window(half_grid(w.grid), factors=tuple(g[::2] for g in w.factors)))


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


def _window_rows(fv: np.ndarray, windows: np.ndarray, first: int, out, lo: int, hi: int):
    """Write f conj(T_x g) of positions first + lo : first + hi into out[lo:hi].

    ``windows`` is ``_translates`` of g; positions count row-major over its
    position axes.
    """
    if fv.ndim == 1:
        np.multiply(fv, windows[first + lo : first + hi], out=out[lo:hi])
    else:
        for m in range(lo, hi):
            np.multiply(fv, windows[np.unravel_index(first + m, windows.shape[: fv.ndim])],
                        out=out[m])


def _walk_groups(n: int, size: int) -> list:
    """(start, stop, size): the full size-row blocks of range(n) as one group, then the rest."""
    full = n - n % size
    return [(lo, hi, k) for lo, hi, k in [(0, full, size), (full, n, n - full)] if hi > lo]


def _steps(n: int, chunk: int, rows: int):
    """(start, stop, first, last) of each step: range(n) cut into chunks, each chunk into steps."""
    for lo in range(0, n, chunk):
        end = min(lo + chunk, n)
        for start in range(lo, end, rows):
            yield start, min(start + rows, end), start == lo, start + rows >= end


@dataclass
class _Step:
    """Positions start:stop of a windowed pass: one step of the chunk they lie in.

    ``pairs`` maps each exponent to a (2, 1 + step rows, N^d) real pair:
    |V| for 1 and inf, |V|^p for every other p of the pass.  The step owns
    side ``side`` of each pair, its rows in rows 1:1 + n.  Row 0 carries the
    running per-frequency sum of the chunk's earlier steps, which the fold
    of the step before wrote there; a chunk's first step has none.
    """

    start: int
    stop: int
    first: bool  # the first step of its chunk
    last: bool  # the last step of its chunk
    side: int
    pairs: dict

    def rows(self, p: float, lead: bool = False) -> np.ndarray:
        """The step's rows of p's pair, with row 0 ahead of them when ``lead``."""
        return self.pairs[p][self.side, 0 if lead else 1 : 1 + self.stop - self.start]


def _windowed_sums(f: SampledField, g: Window, stride, halfwidth, acc, col, powers,
                   reduce=None) -> None:
    """Fold |V_g f| into ``acc`` and hand its rows to ``reduce``, on the windowed path.

    f is presigned once.  The positions are cut into chunks of
    ``_CHUNK_BYTES // (16 N^d)`` and each chunk into steps of about
    ``_BLOCK_BYTES`` (at least N / ``_POINTS_PER_STEP_ROW`` rows).  Each
    step is one ``centered_fft`` call on one complex block: a thread piece
    fills rows lo:hi with the window multiply, transforms them and writes
    their |V| to the step's side of the |V| pair (``_Step``), then, still in
    the piece, |V|^p of those rows for each p of ``powers`` and
    ``reduce(step.start, step.rows, lo, hi)``.  ``_fold_step`` folds
    frequency columns of a step into ``acc`` after all its rows are
    written: inside the next step's call, where piece lo:hi of its n rows
    takes the previous step's columns lo*N^d//n : hi*N^d//n, and for the
    last step in one more hand-off.
    """
    grid = f.grid
    require_same_grid(grid, g.grid)
    flat_idx, axis_idx = _position_indices(grid, stride, halfwidth)
    fv = _presigned(f.reshaped(), grid.d)
    window = functools.partial(_window_rows, fv, _translates(g.field.reshaped(), axis_idx))
    fold = functools.partial(_fold_step, acc, col) if acc else None
    M = grid.npoints
    chunk = min(max(1, _CHUNK_BYTES // (16 * M)), flat_idx.size)
    rows = min(max(1, _BLOCK_BYTES // (16 * M), grid.N // _POINTS_PER_STEP_ROW), chunk)
    with _pass_buffers() as take:
        block = take("chunk", (rows, *grid.shape), np.complex128)
        V = take("modulus", (2, 1 + rows, M))
        P = take("power", (len(powers), 2, 1 + rows, M)) if powers else ()
        pairs = {1.0: V, math.inf: V, **dict(zip(powers, P))}
        prev = None
        for k, (start, stop, first, last) in enumerate(_steps(flat_idx.size, chunk, rows)):
            step = _Step(start, stop, first, last, k % 2, pairs)
            x, A = block[: stop - start], step.rows(1.0)

            def fill(lo, hi):
                window(start, x, lo, hi)

            def fold_rows(lo, hi):
                for p in powers:
                    _pow(A[lo:hi], p, out=step.rows(p)[lo:hi])
                if reduce is not None:
                    reduce(start, step.rows, lo, hi)
                if fold is not None and prev is not None:
                    fold(prev, lo * M // len(x), hi * M // len(x))

            centered_fft(x, grid.d, grid.dx, out=x, modulus=A.reshape(x.shape), fill=fill,
                         fold=fold_rows)
            prev = step
        if fold is not None:
            _split(functools.partial(fold, prev), M, prev.rows(1.0, lead=True).nbytes)


def _row_column_sums(f: SampledField, g: Window, stride, halfwidth, acc, col, powers,
                     reduce=None) -> None:
    """Fold |V_g f| into ``acc`` and hand its rows to ``reduce``, on the row-column path.

    g = g0 x g1, so H = F0[f conj(T_{x_i} g0)], as (k0, x1), depends only
    on the position row i: it is transformed once per row along contiguous
    rows of HT, (x1, x0), and then multiplied by each column's
    conj(T_{x_j} g1) before the axis-1 transform.  The transform's ``fill``
    multiplies f's columns, read in place, by the row's window into HT, and
    its ``fold`` transposes HT into H.  HT is the first block of the block
    buffer, which is free from the start of a position row until the row's
    column blocks overwrite it, after the transpose.  g1 is presigned, so
    the axis-1 transforms give |V| on the sign-free path.

    The column blocks of a position row go to the threads once: all full
    blocks in one ``centered_fft`` call, whose block buffer is repeated
    once per block along a stride-0 axis (``_repeated``), and a short last
    block in a call of its own.  A thread owns one k0 range, so the flat
    frequency columns k0*N:(k0+1)*N, and for each block in position order
    runs on them the column-window multiply, the axis-1 transform, |V|,
    |V|^p for each p of ``powers`` and the positions-inner sums
    (``_fold_columns``).  So each accumulator column is summed block by
    block, in position order, by one thread; and the traced ``a`` of each
    call still has the shape of the transforms it runs.

    With ``reduce`` (a pass with frequencies-inner specs) every block is a
    call of its own, and one more hand-off, split over the block's rows,
    runs ``reduce(first, rows_of, lo, hi)`` before the next block
    overwrites them; ``first`` is the ordinal of the block's first position.
    """
    grid = f.grid
    require_same_grid(grid, g.grid)
    N = grid.N
    sel0, sel1 = _position_indices(grid, stride, halfwidth)[1]
    ncols = sel1.size
    g0, g1 = g.factors
    rows0, rows1 = _translates(g0, (sel0,)), _translates(_presigned(g1, 1), (sel1,))
    fv = f.reshaped()
    with _pass_buffers() as take:
        H = take("H", (N, N), np.complex128)  # (k0, x1)
        cols = min(max(1, _BLOCK_BYTES // (16 * N * N)), ncols)
        buf = take("chunk", (cols, N, N), np.complex128)
        HT = buf[0]  # (x1, k0), free until the row's column blocks overwrite it
        A = take("modulus", (cols, N * N))
        P = take("power", (len(powers), cols, N * N)) if powers else ()
        powered = {1.0: A, math.inf: A, **dict(zip(powers, P))}
        groups = _walk_groups(ncols, cols)
        if reduce is not None:
            groups = [(start, min(start + cols, ncols), min(cols, ncols - start))
                      for start in range(0, ncols, cols)]
        for i, row0 in enumerate(rows0):

            def window_rows(lo, hi):
                np.multiply(fv[:, lo:hi].T, row0, out=HT[lo:hi])

            def transpose(lo, hi):
                H[:, lo:hi] = HT[lo:hi].T

            centered_fft(HT, 1, grid.dx, out=HT, fill=window_rows, fold=transpose)
            for start, stop, size in groups:
                block, Ab = buf[:size], A[:size]
                w = rows1[start:stop].reshape(-1, size, 1, N)
                steps = _repeated(block, len(w))

                def rows_of(p):
                    return powered[p][:size]

                def window_columns(b, lo, hi):
                    np.multiply(H[lo:hi], w[b], out=block[:, lo:hi])

                def fold_columns(b, lo, hi):
                    for p in powers:
                        _pow(Ab[:, lo * N : hi * N], p, out=rows_of(p)[:, lo * N : hi * N])
                    _fold_columns(rows_of, acc, col, lo * N, hi * N)

                centered_fft(steps, 1, grid.dx, out=steps,
                             modulus=_repeated(Ab.reshape(block.shape), len(w)),
                             fill=window_columns, fold=fold_columns if acc or powers else None)
                if reduce is not None:
                    _split(functools.partial(reduce, i * ncols + start, rows_of), size, Ab.nbytes)


def _row_column(g: Window) -> bool:
    """Whether a norm pass reads |V_g| on the row-column path: a 2D window with factors."""
    return g.grid.d == 2 and g.factors is not None


def stft(f: SampledField, g: Window, stride: int = 1) -> StftMatrix:
    """Materialize V_g f on every ``stride``-th position per axis, transformed in place."""
    grid = f.grid
    require_same_grid(grid, g.grid)
    flat_idx, axis_idx = _position_indices(grid, stride, None)
    _release_spares()  # no spare stays under the matrix
    values = np.empty((flat_idx.size, *grid.shape), dtype=np.complex128)
    windows = _translates(g.field.reshaped(), axis_idx)
    centered_fft(values, grid.d, grid.dx, out=values,
                 fill=functools.partial(_window_rows, f.reshaped(), windows, 0, values))
    _release_spares()  # nor under what the caller computes from it
    return StftMatrix(grid, values.reshape(flat_idx.size, -1), flat_idx, stride)


# ---------------------------------------------------------------------------
# mixed norms


@dataclass
class NormReport:
    """A computed norm, with its refinement estimate where one was asked for."""

    value: float
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


def _lp_reduce(a: np.ndarray, p: float, w: float, axis):
    """(sum |a|^p * w)^(1/p) along axis, max when p = inf."""
    return _lp_powered(a if math.isinf(p) else _pow(a, p), p, w, axis)


def _lp_powered(ap: np.ndarray, p: float, w: float, axis):
    """``_lp_reduce`` of an a whose |a|^p is ``ap`` (a itself for p = 1 and p = inf)."""
    if math.isinf(p):
        return np.max(ap, axis=axis)
    return _pow(np.sum(ap, axis=axis) * w, 1.0 / p)


def _accumulate_columns(a, s, is_max, col, lo, hi) -> None:
    """Fold frequency columns lo:hi of one chunk into s: a max, or a sum over rows.

    A single row is its own max and sum, so it is folded in directly.
    """
    a, c, t = a[:, lo:hi], col[lo:hi], s[lo:hi]
    if is_max:
        np.maximum(t, a[0] if len(a) == 1 else a.max(axis=0, out=c), out=t)
    else:
        np.add(t, a[0] if len(a) == 1 else np.sum(a, axis=0, out=c), out=t)


def _fold_columns(rows_of, acc, col, lo, hi) -> None:
    """Fold frequency columns lo:hi of one block into every positions-inner accumulator.

    ``acc`` maps each positions-inner p to its per-frequency accumulator;
    ``rows_of(p)`` is the block's |V| rows (p = 1 and inf) or |V|^p rows.
    """
    for p, s in acc.items():
        _accumulate_columns(rows_of(p), s, math.isinf(p), col, lo, hi)


def _fold_step(acc, col, step: _Step, lo, hi) -> None:
    """Fold frequency columns lo:hi of one windowed step into every positions-inner accumulator.

    A max goes straight into its accumulator: it is exact, so a chunk's
    steps may fold in any grouping.  A sum runs on down the chunk: the
    step's rows are added one by one to the running sum in row 0 (numpy's
    axis-0 sum of a C-contiguous float64 block adds its rows in order, for
    every slice of two or more columns; a one-column slice of 8 or more rows
    is summed pairwise, so no piece may be narrower than two columns, which
    at most two pieces of N^d >= 8 columns never are).  The result goes to
    row 0 of the next step's side, and at the chunk's last step into the
    accumulator.  So each chunk adds the sum of its rows, taken in order,
    to the accumulator once, as if the chunk were one block.
    """
    for p, s in acc.items():
        if math.isinf(p):
            _accumulate_columns(step.rows(p), s, True, col, lo, hi)
        elif step.last:
            _accumulate_columns(step.rows(p, lead=not step.first), s, False, col, lo, hi)
        else:
            np.sum(step.rows(p, lead=not step.first)[:, lo:hi], axis=0,
                   out=step.pairs[p][1 - step.side, 0, lo:hi])


def _norms(f: SampledField, g: Window, specs, stride: int = 1, halfwidth=None) -> list:
    """Every (p, q, order) spec of V_g f from one streamed pass over the STFT.

    positions-inner: ( sum_w ( sum_x |V|^p dx^d )^{q/p} dxi^d )^{1/q};
    frequencies-inner swaps the roles.  An infinite exponent turns its sum
    into a max.  Positions-inner specs with the same p share one running
    per-frequency accumulator; frequencies-inner specs keep one reduced value
    per position row.  |V| comes from the sign-free path; |V|^p and the
    per-frequency partial sums go into buffers allocated once per pass.  The
    positions-inner sums are split over the threads by frequency column and
    the frequencies-inner ones by row, so every sum keeps its order.  Both
    paths take the same arguments and the one ``reduce`` below.  Windowed
    (``_windowed_sums``): one hand-off per step, whose pieces reduce their
    own rows and fold the step before (``_fold_step``).  Row-column
    (``_row_column_sums``), whose transform is split by frequency column
    too: one hand-off per position row when every spec is positions-inner,
    one per block and one more for its rows' ``reduce`` when some are
    frequencies-inner.  A value that overflows to inf (or is nan) raises
    ParameterError naming its spec.
    """
    grid = f.grid
    wx = (grid.dx * stride) ** grid.d
    wxi = grid.dxi ** grid.d
    acc = {p: np.zeros(grid.npoints) for p, _, order in specs if order == POSITIONS_INNER}
    # per frequencies-inner p: the value of every position row, in position order
    rows = {p: np.empty(_position_indices(grid, stride, halfwidth)[0].size)
            for p, _, order in specs if order == FREQUENCIES_INNER}
    powers = tuple(sorted({p for p, _, _ in specs if p != 1.0 and not math.isinf(p)}))
    col = np.empty(grid.npoints)

    def reduce(first, rows_of, lo, hi):
        for p, r in rows.items():
            r[first + lo : first + hi] = _lp_powered(rows_of(p)[lo:hi], p, wxi, axis=1)

    (_row_column_sums if _row_column(g) else _windowed_sums)(
        f, g, stride, halfwidth, acc, col, powers, reduce if rows else None)
    out = []
    for p, q, order in specs:
        with np.errstate(over="ignore"):  # an overflow is named just below
            if order == POSITIONS_INNER:
                inner = acc[p] if math.isinf(p) else _pow(acc[p] * wx, 1.0 / p)
                value = float(_lp_reduce(inner, q, wxi, axis=None))
            else:
                value = float(_lp_reduce(rows[p], q, wx, axis=None))
        if not math.isfinite(value):
            raise ParameterError(
                f"the ({p:g}, {q:g}) {order} norm is not finite ({value}): "
                "rescale the field so that |V|^p stays within float64"
            )
        out.append(value)
    return out


def refinement(values, measure, *inputs) -> list:
    """|v - v_half| / max(|v|, 1e-300) for each v of ``values`` = measure(*inputs).

    v_half is the same quantity measured again at half resolution:
    ``measure`` is called once more with each field of ``inputs``
    ``coarsen``ed and each window subsampled onto its half-resolution grid
    (``coarsen_window``), and returns one value per value.
    """
    half = measure(*(coarsen_window(x) if isinstance(x, Window) else coarsen(x) for x in inputs))
    return [abs(v - h) / max(abs(v), 1e-300) for v, h in zip(values, half, strict=True)]


def _wfl1_and_m1inf(f: SampledField, g: Window, stride: int, halfwidth, with_m1inf: bool):
    """W(FL^1, l^inf), its refinement estimate and M^{1,inf} from one pass.

    Both norms read the same |V|, so one ``_norms`` pass measures them; the
    refinement is W's alone, at stride max(1, stride // 2).  M^{1,inf} is
    nan unless ``with_m1inf``.
    """
    w, *m1 = _norms(f, g, [_WFL1, _M1INF] if with_m1inf else [_WFL1], stride, halfwidth)
    (ref,) = refinement([w], lambda h, gh: _norms(h, gh, [_WFL1], max(1, stride // 2), halfwidth),
                        f, g)
    return w, ref, m1[0] if m1 else math.nan


def modulation_norm(
    f: SampledField, g: Window, p, q, stride: int = 1, refine: bool = False
) -> NormReport:
    """M^{p,q}-style norm: mixed (p, q) norm of V_g f, positions inner.

    With ``refine`` the report carries the ``refinement`` estimate, measured
    at stride max(1, stride // 2).
    """
    specs = [(_check_exponent(p), _check_exponent(q), POSITIONS_INNER)]
    (value,) = _norms(f, g, specs, stride)
    if not refine:
        return NormReport(value)
    (ref,) = refinement([value], lambda h, gh: _norms(h, gh, specs, max(1, stride // 2)), f, g)
    return NormReport(value, ref)


def amalgam_norm_wfl1(
    f: SampledField, g: Window, stride: int = 1, position_halfwidth: float | None = None
) -> NormReport:
    """sup over positions x of sum_w |V_g f(x, w)| dxi^d.

    ``position_halfwidth`` restricts the sup to |x| <= halfwidth per axis;
    positions whose window wraps around the periodic box misrepresent the
    continuum translate, so sup-type estimates may exclude an edge margin.
    """
    return NormReport(_norms(f, g, [_WFL1], stride, position_halfwidth)[0])


def m_inf_1_norm(
    f: SampledField, g: Window, stride: int = 1, position_halfwidth: float | None = None
) -> NormReport:
    """sum over frequencies of (sup over positions of |V_g f|) dxi^d."""
    spec = (math.inf, 1.0, POSITIONS_INNER)
    return NormReport(_norms(f, g, [spec], stride, position_halfwidth)[0])


def m_1_inf_norm(
    f: SampledField, g: Window, stride: int = 1, position_halfwidth: float | None = None
) -> NormReport:
    """sup over frequencies of (sum over positions of |V_g f| dx^d)."""
    return NormReport(_norms(f, g, [_M1INF], stride, position_halfwidth)[0])


def modulation_norms_multi(
    f: SampledField, g: Window, pq_list, stride: int = 1
) -> dict:
    """Positions-inner mixed norms for several (p, q) pairs from one STFT pass."""
    pq_list = [(_check_exponent(p), _check_exponent(q)) for p, q in pq_list]
    vals = _norms(f, g, [(p, q, POSITIONS_INNER) for p, q in pq_list], stride)
    return dict(zip(pq_list, vals))


def fl1_norm(f: SampledField) -> NormReport:
    """L^1 norm of the Fourier transform: sum |f_hat| dxi^d.

    The field is treated as compactly supported on its box; callers truncate
    (e.g. multiply by the bump cutoff) before measuring.
    """
    gr = f.grid
    modulus = np.abs(centered_fft(f.reshaped(), gr.d, gr.dx))
    return NormReport(float(gr.dxi ** gr.d * np.sum(modulus)))
