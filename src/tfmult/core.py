"""Uniform centered grids and Fourier transforms with the e^{-2pi i x.xi} convention.

Position lattice: x_k = (k - N/2) * dx for k in {0, ..., N-1}, covering
[-L/2, L/2).  Frequency lattice: xi_k = (k - N/2) / L, so both lattices are
centered at 0 and dx * dxi * N = 1 holds exactly as a rational relation.

All operations are pure functions on immutable inputs.  Reductions go through
numpy's pairwise summation, so results are bitwise reproducible across runs.
``radial_field`` is the one sampler of a radial profile(|x|), shared by
``tf``, ``mult`` and ``verify`` with the profiles ``chi_profile`` and
``psi_profile``.

The centered transforms need no shift copies.  With the checkerboard sign
s_k = (-1)^(k_1 + ... + k_d) and every transformed axis length N divisible
by 4, fftshift(fftn(ifftshift(a))) = s * fftn(s * a): the ifftshift becomes
the factor (-1)^k on the output, the fftshift the factor (-1)^k on the input,
and (-1)^(N/2) = 1.  Multiplying by s is exact, and so is folding s into the
dx^d scale; with numpy's FFT the result equals the shift formula bit for bit
(``tests/test_core.py`` checks it).

``centered_fft(a, d, dx, out=buf)`` writes s * a into ``buf``, transforms and
scales it in place and returns ``buf``; ``buf`` may be ``a`` itself, so a
caller that owns its input can transform it with no new allocation.  The
result is bit for bit the one of ``centered_fft(a, d, dx)``, which leaves
``a`` untouched and returns a new buffer.

A caller that reads only the modulus passes a real buffer as ``modulus``
and an input that already carries s, made once by ``_presigned``: the
output sign drops out of |.|, and dx^d is applied to the real modulus,
which equals |centered_fft| bit for bit when dx is a power of two (and to
a rounding otherwise).  Negation is exact, so a presigned factor carries s
through products: (s * f) * w = s * (f * w) bit for bit.  And s flips sign
with every lattice step along an axis, so a circular translate of s * g is
s times the translate of g up to one sign per translate: a window factor
presigned once yields presigned translates, and |.| ignores their sign.

Batched transforms are split over two threads along their last batch axis
(one thread where only one core is usable, and none for arrays below
``_SPLIT_BYTES``), in pieces that the threads take in turn.  Every line is
transformed on its own, so a split changes no bit.  The threads come from
one module pool, created on the first split (importing ``core`` starts
none), and run only numpy code: ``_split`` is the one way in, and the
functions handed to it never call back into ``tfmult``.

A streamed pass hands each chunk to the threads once: ``centered_fft``'s
``fill(lo, hi)`` writes a thread's piece of the input (``tf``'s window
multiply) and ``fold(lo, hi)`` reduces that piece of the output (``tf``'s
positions-inner sums), in the same piece as the transform, while it is
still in cache.  So a traced ``centered_fft`` span also holds that window
multiply and reduction, and the ``tf`` layer's own time is smaller by as
much.  Both callbacks are numpy-only, like every function handed to
``_split``.

A pass can also hand several chunks to the threads at once.  An ``out``
made by ``_repeated``, which repeats one buffer along a first axis of
stride 0 and marks it as a ``_Steps`` view, is walked step by step inside
each thread piece: fill(step, lo, hi), that step's transform and
fold(step, lo, hi), then the next step.  Only the mark selects this mode:
any other out, a stride-0 ``x[None]`` too, is transformed as a batch.  A
thread keeps the same piece lo:hi of the buffer for every step, so the
steps reuse the buffer with no hand-off between them, and each piece's
steps run in order.  A walked ``modulus`` has the steps as its first axis
too: either a ``_repeated`` view of one real buffer, which each step
overwrites, or a plain (steps, ...) array whose steps are distinct rows,
so that |V| of every step is kept.  The call's ``a`` is that stride-0
view, (steps, ...) ahead of the batch axes, so its shape still holds every
transform the call runs: a tracer that counts FFT work from ``a.shape``
counts the true work.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Invalid construction parameter (non-power-of-two N, bad exponent, ...)."""


class SamplingError(ValueError):
    """A pointwise function produced a non-finite value on the lattice."""


class GridMismatchError(ValueError):
    """Two operands live on different grids."""


def radius(meshes) -> np.ndarray:
    """Euclidean norm of a point given by its d coordinate arrays, in their broadcast shape.

    The arrays may be sparse meshes (``Grid.position_meshes``): the sum of
    squares is formed in one array of the broadcast shape, element by
    element as from dense meshes.
    """
    s = np.zeros(np.broadcast_shapes(*map(np.shape, meshes)), np.result_type(*meshes))
    for m in meshes:
        s += m * m
    return np.sqrt(s)


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
        """Sparse meshes: coordinate j as an array of length N along axis j and 1 along the others.

        They broadcast to (N,)*d, so a function of them computes on the full
        lattice without d dense N^d coordinate arrays.
        """
        ax = self.axis_positions()
        return np.meshgrid(*([ax] * self.d), indexing="ij", sparse=True)

    def frequency_meshes(self) -> tuple:
        """Sparse meshes of the frequency lattice, as ``position_meshes``."""
        ax = self.axis_frequencies()
        return np.meshgrid(*([ax] * self.d), indexing="ij", sparse=True)

    def frequency_radius(self) -> np.ndarray:
        """|xi| on the frequency lattice, shaped (N,)*d."""
        return radius(self.frequency_meshes())


# Most lattice points N^d of a grid: the 2D N = 1024 grid of a 2D M^{1,inf}
# row, the largest grid an experiment derives.  A larger grid is a mistake,
# such as N = 2^40, whose samples alone would take 16 TiB.
MAX_POINTS = 1 << 20


def make_grid(d: int, L: float, N: int) -> Grid:
    """Build a centered grid; N a power of two >= 8, L > 0 finite, d in {1, 2}.

    N^d may be at most ``MAX_POINTS``.
    """
    if d not in (1, 2):
        raise ParameterError(f"dimension must be 1 or 2, got {d}")
    if not (isinstance(N, (int, np.integer)) and _is_power_of_two(int(N)) and N >= 8):
        raise ParameterError(f"N must be a power of two >= 8, got {N}")
    if int(N) ** d > MAX_POINTS:
        raise ParameterError(f"a d = {d} grid with N = {N} has N^d = {int(N) ** d} points, "
                             f"above the cap of {MAX_POINTS}")
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


def require_same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise GridMismatchError(f"grid mismatch: {a} vs {b}")


def sample(fn, grid: Grid) -> SampledField:
    """Sample a pointwise function on the position lattice.

    ``fn`` receives the d sparse coordinate meshes (``Grid.position_meshes``)
    and returns values that broadcast to the lattice, (N,)*d; a function
    of x_0 alone may return its (N, 1, ...) column.  The values must be
    defined at every lattice point; a non-finite result raises
    SamplingError naming the first offending coordinate.
    """
    meshes = grid.position_meshes()
    with np.errstate(all="ignore"):
        vals = np.asarray(fn(*meshes), dtype=np.complex128)
    vals = np.broadcast_to(vals, grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        coord = tuple(float(np.broadcast_to(m, grid.shape)[idx]) for m in meshes)
        raise SamplingError(f"non-finite sample at x = {coord}")
    return SampledField(grid, vals.flatten())


def radial_field(grid: Grid, profile, *params) -> SampledField:
    """profile(|x|, *params) sampled on the position lattice.

    The experiments read a symbol's variable off the position lattice; the
    STFT machinery does not care what the variable is called.
    """
    return sample(lambda *xs: profile(radius(xs), *params), grid)


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


@functools.lru_cache(maxsize=16)
def _checkerboard(shape: tuple, scale: float = 1.0) -> np.ndarray:
    """Read-only scale * (-1)^(k_1 + ... + k_d) on an index lattice of this shape."""
    s = np.full(shape, float(scale))
    for axis in range(len(shape)):
        s[(slice(None),) * axis + (slice(1, None, 2),)] *= -1.0
    s.flags.writeable = False
    return s


def _presigned(a: np.ndarray, d: int) -> np.ndarray:
    """s * a over the trailing d axes (a new array): input for ``modulus=``."""
    return a * _checkerboard(a.shape[a.ndim - d :])


# Stages that touch fewer bytes run on the calling thread alone.  Measured
# on whole benchmark runs: the 2D stages of 1 MiB (the N = 256 H) break even
# when split, those of 2 MiB and up gain (see CHANGES.md).
_SPLIT_BYTES = 3 << 19  # 1.5 MiB
_pool = None  # (workers, executor or None), made on the first split
_pool_lock = threading.Lock()


def _worker_count() -> int:
    """Threads one chunk is split over: two, or one on a single usable core."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: start from no pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    """(workers, executor); the executor's workers - 1 threads work beside the caller."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = _worker_count()
            executor = None
            if workers > 1:
                from concurrent.futures import ThreadPoolExecutor

                executor = ThreadPoolExecutor(workers - 1, thread_name_prefix="tfmult")
            _pool = (workers, executor)
        return _pool


def _split(fn, n: int, nbytes: int) -> list:
    """[fn(lo, hi) for consecutive pieces lo:hi of range(n)], the pieces in parallel.

    ``nbytes`` is the size of the data the call touches; below
    ``_SPLIT_BYTES``, for n < 2, or on one core, fn(0, n) runs alone on the
    calling thread.  Otherwise range(n) is cut into one piece per thread,
    and the caller and the pool threads take the pieces in turn, so when a
    pool thread starts late (a busy or descheduled core) the caller takes
    its piece too instead of waiting for it.  Pool threads run in a copy of
    the caller's context (so numpy's ``errstate`` holds there too), and
    every piece has finished before this returns or raises.  fn must touch
    disjoint data per piece and call only numpy, which releases the GIL in
    its loops.
    """
    if n < 2 or nbytes < _SPLIT_BYTES:
        return [fn(0, n)]
    workers, executor = _executor()
    if executor is None:
        return [fn(0, n)]
    pieces = min(n, workers)
    cuts = [n * k // pieces for k in range(pieces + 1)]
    results = [None] * pieces
    claim = itertools.count()  # next() is atomic under the GIL

    def take_pieces():
        while (k := next(claim)) < pieces:
            results[k] = fn(cuts[k], cuts[k + 1])

    futures = [executor.submit(contextvars.copy_context().run, take_pieces)
               for _ in range(workers - 1)]
    try:
        take_pieces()
    finally:
        for fut in futures:
            if not fut.cancel():  # a thread that has not started is not waited for
                fut.result()
    return results


class _Steps(np.ndarray):
    """A view made by ``_repeated``: ``_transform`` walks its first axis step by step."""


def _repeated(x: np.ndarray, n: int) -> np.ndarray:
    """A writable ``_Steps`` view of x repeated n times along a new first axis of stride 0."""
    return np.lib.stride_tricks.as_strided(x, (n, *x.shape), (0, *x.strides)).view(_Steps)


def _transform(a: np.ndarray, d: int, fft, out, scale: float, scale_op=np.multiply,
               modulus=None, fill=None, fold=None):
    """fft over the trailing d axes of a, into ``out`` (a new buffer if None).

    Signed: s goes on the way in and scale_op(., s * scale) on the way out.
    With ``modulus``: a is transformed as it is, and |result| * scale goes
    into modulus.  Leading axes are batch; the last of them is split over
    the threads, each piece running all of its steps: fill(lo, hi), the
    transform of batch indices lo:hi, then fold(lo, hi).  An ``out`` made
    by ``_repeated`` repeats one buffer once per step along its first axis:
    each piece then walks the steps in order, running fill(step, lo, hi),
    the step's transform and fold(step, lo, hi) before the next step.
    ``modulus`` then has the steps first too, as a ``_repeated`` view or as
    a plain array of distinct step rows, and step k's |result| goes into
    modulus[k].
    """
    shape = a.shape[a.ndim - d :]
    if any(n % 4 for n in shape):
        raise ParameterError(
            f"centered transforms need axis lengths divisible by 4, got {shape}"
        )
    if out is None:
        out = np.empty(a.shape, dtype=np.complex128)
    signed = modulus is None
    if signed:
        sign, post = _checkerboard(shape), _checkerboard(shape, scale)
    walked = isinstance(out, _Steps)
    views = [np.asarray(v) for v in ([a, out] if signed else [a, out, modulus])]
    if a.ndim == d:
        views = [v[None] for v in views]
    axes = tuple(range(-d, 0))
    steps = [(k,) for k in range(out.shape[0])] if walked else [()]

    def part(lo, hi):
        rows = (Ellipsis, slice(lo, hi)) + (slice(None),) * d
        for step in steps:
            if fill is not None:
                fill(*step, lo, hi)
            x, y, *m = (v[step][rows] for v in views)
            if signed:
                x = np.multiply(x, sign, out=y, dtype=np.complex128)
            fft(x, axes=axes, out=y)
            if signed:
                scale_op(y, post, out=y)
            else:
                np.multiply(np.abs(y, out=m[0]), scale, out=m[0])
            if fold is not None:
                fold(*step, lo, hi)

    _split(part, views[0].shape[views[0].ndim - d - 1], out.nbytes)
    return out if signed else modulus


def centered_fft(a: np.ndarray, d: int, dx: float, out=None, modulus=None, fill=None,
                 fold=None) -> np.ndarray:
    """Centered-lattice DFT of the trailing d axes, scaled by dx^d.

    Approximates f_hat(xi) = int f(x) e^{-2 pi i x.xi} dx on the centered
    frequency lattice.  Computed shift-free as s * fftn(s * a) * dx^d with
    the checkerboard sign s (see the module docstring).  ``out``, a complex
    array of a's shape (``a`` itself allowed), receives the result and is
    returned; without it a new buffer is returned.

    ``modulus``, a real array of a's shape, selects the sign-free path for
    an ``a`` that carries s (see ``_presigned``): ``out`` receives fftn(a)
    (no output sign, no scale), and dx^d * |fftn(a)| goes into ``modulus``,
    which is returned.  That is |centered_fft(s * a, d, dx)|, bit for bit
    when dx is a power of two.

    ``fill`` and ``fold``, callbacks for ``tfmult``'s own passes, run in the
    thread piece of batch indices lo:hi (along the last batch axis):
    ``fill(lo, hi)`` writes that piece of ``a`` before it is transformed,
    ``fold(lo, hi)`` reads that piece of the result after it is written.
    An ``a`` given as its own ``out`` may be a ``_repeated`` view of one
    buffer: the transforms of its first axis' steps then run one after
    another in each piece, the callbacks taking the step index first,
    ``fill(step, lo, hi)`` and ``fold(step, lo, hi)``.  Its ``modulus`` has
    the same (steps, ...) shape: a ``_repeated`` view of one real buffer,
    or a plain array whose steps are distinct rows, so that step k's |V|
    stays in ``modulus[k]`` after the later steps reuse ``out``.  Any other
    ``out``, a stride-0 ``x[None]`` included, is transformed as one batch
    with ``fill(lo, hi)`` and ``fold(lo, hi)``.
    """
    return _transform(a, d, np.fft.fftn, out, dx ** d, modulus=modulus, fill=fill,
                      fold=fold)


def centered_ifft(a: np.ndarray, d: int, dx: float) -> np.ndarray:
    """Inverse of :func:`centered_fft` (e^{+2 pi i x.xi} convention)."""
    return _transform(a, d, np.fft.ifftn, None, dx ** d, np.divide)


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


def half_grid(grid: Grid) -> Grid:
    """The half-resolution grid (same L, N/2) of a refinement estimate; it needs N >= 16."""
    if grid.N < 16:
        raise ParameterError("cannot coarsen below N = 8")
    return make_grid(grid.d, grid.L, grid.N // 2)


def coarsen(f: SampledField) -> SampledField:
    """Subsample a field onto its half-resolution grid (``half_grid``).

    Used for the refinement estimates (``tf.refinement``).
    """
    half = half_grid(f.grid)
    v = f.reshaped()
    for _ in range(half.d):
        v = v[::2]
        v = np.moveaxis(v, 0, -1)
    return SampledField(half, v.reshape(-1).copy())
