"""Desk-scale numerical experiments for the time-frequency multiplier bounds.

Each experiment measures a quantity with a known closed form or a structural
prediction (finiteness, monotone growth, refinement stability) and returns
the plain values it measured: a float, or a tuple or list of them.
``probe_ratios`` measures every multiplier ratio ||sigma(D) f|| / ||f||: the
operator probes and the L^1 contrast read its dict, the wave flow its C(t)
and the Schrodinger flow its (p, q) and M^{2,2} ratios.  The CLI's plans
derive the predictions; its measure steps compare the values with them (the
Schrodinger one fits the envelope constant) and turn both into CSV tables.
Experiments are deterministic: every random draw goes through a generator
seeded by the caller (the linear_phase seed is written into its row's
parameters).
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    make_grid,
    psi_profile,
    radial_field,
    radius,
    sample,
)
from .mult import (
    apply_multiplier,
    sin_singular_profile,
    truncated_field,
    unimodular_profile,
    wave_energy,
)
from .tf import (
    Window,
    _position_indices,
    _windowed_sums,
    _wfl1_and_m1inf,
    amalgam_norm_wfl1,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    m_inf_1_norm,
    modulation_norm,
    modulation_norms_multi,
    refinement,
)

DEFAULT_SEED = 20240214
# defaults shared with the CLI experiments
DIVERGENCE_BOXES = (16.0, 32.0, 64.0)
LINEAR_PHASE_CASES = 50
# at about 0.3 ms a case, the most cases one run takes: about half a minute
LINEAR_PHASE_MAX_CASES = 100_000
LP_CONTRAST_LAMBDAS = (1.0, 2.0, 4.0, 8.0)
# the odd Taylor terms k = 0, ..., SIN_SINGULAR_K of the sin-singular series
SIN_SINGULAR_K = 10


def chirp_field(grid: Grid, t: float) -> SampledField:
    """The quadratic chirp e^{i pi t |.|^2}, ``unimodular_profile`` at alpha = 2, sampled."""
    return radial_field(grid, unimodular_profile, 2.0, np.pi * t)


def chirp_aliased(grid: Grid, t: float, halfwidth: float) -> bool:
    """True if the chirp is unresolved within |x| <= halfwidth.

    Its local frequency |t| halfwidth at the edge reaches the Nyquist
    frequency 1 / (2 dx): the phase step between adjacent samples there,
    2 pi |t| halfwidth dx, is at least pi.
    """
    return 2.0 * math.pi * abs(t) * halfwidth * grid.dx >= math.pi


# ---------------------------------------------------------------------------
# chirp STFT closed form


def _chirp_stft_modulus(x, omega, t: float, d: int = 1):
    """``chirp_stft_oracle`` of float arrays, in numpy alone: it also runs on pool threads.

    (omega - t x)^2 overflows only where the Gaussian factor is below
    (1 + t^2)^{-1/4} e^{-pi}, under 1e-77, so that overflow is not reported.
    """
    with np.errstate(over="ignore"):
        dist2 = (omega - t * x) ** 2 if d == 1 else np.sum((omega - t * x) ** 2, axis=-1)
        return (1.0 + t * t) ** (-d / 4.0) * np.exp(-np.pi * dist2 / (1.0 + t * t))


def chirp_stft_oracle(x, omega, t: float, d: int = 1):
    """|V_g chirp(x, omega)| = (1+t^2)^{-d/4} e^{-pi |omega - t x|^2 / (1+t^2)}.

    Exact for the Gaussian window e^{-pi |.|^2}; x and omega may be scalars or
    arrays of d-vectors (last axis of length d, or plain arrays when d = 1).
    """
    return _chirp_stft_modulus(np.asarray(x, dtype=float), np.asarray(omega, dtype=float), t, d)


def _chirp_stft_region(grid: Grid, t: float) -> tuple:
    """(positions, frequencies, frequency mask) where ``verify_chirp_stft`` compares.

    The region is |x| <= L/4, |w| <= N/(4L); the positions are the ones
    its pass selects, in pass order, and the mask picks the frequencies out
    of the lattice.  The check is 1D, so a 2D grid raises ParameterError.
    So does a t whose closed form is not finite there (nan where (1 + t^2)
    and |w - t x|^2 both overflow): the check would compare against nan.
    |w - t x| is largest at the region's corners, so they decide it.
    """
    if grid.d != 1:
        raise ParameterError("chirp STFT check is one-dimensional")
    xs = grid.axis_positions()[_position_indices(grid, 1, grid.L / 4.0)[0]]
    pw = np.abs(grid.axis_frequencies()) <= grid.N * grid.dxi / 4.0
    oms = grid.axis_frequencies()[pw]
    with np.errstate(all="ignore"):
        corners = _chirp_stft_modulus(xs[[0, -1], None], oms[None, [0, -1]], t)
    if not np.isfinite(corners).all():
        raise ParameterError(f"t = {t:g}: the closed-form chirp STFT is not finite on the "
                             f"grid L = {grid.L:g}, N = {grid.N} (|x| <= L/4, |w| <= N/(4L))")
    return xs, oms, pw


# The share of a ``chirp_stft`` tolerance that the chirp's first frequency
# alias may take (``_check_chirp_alias``).  The check's deviation equals the
# alias's closed form to 3 digits at its pass threshold, bisected with
# ``verify_chirp_stft`` at tolerance 1e-6: |t| = 4.7615 on L = 32, N = 2048;
# 3.9287 on 16, 512; 5.4347 on 20, 1024; 2.6373 on 64, 4096; 3.1032 on 12,
# 256.  On L = 8, N = 256 the box's periodization adds 2.5e-7 (threshold
# 5.8821, alias 7.5e-7), which the other half covers.
CHIRP_ALIAS_SHARE = 0.5


# The least box of a ``chirp_stft`` row with t != 0.  The compared positions
# |x| <= L/4 lie within L/4 of the box's edge, where the periodized chirp
# jumps and the window still reaches it.  Bisected with ``verify_chirp_stft``
# at tolerance 1e-6, the rows of t = 0.5, 1 and 2 pass from L = 7.554,
# 7.559 and 7.240 on N = 128; 7.581, 7.582 and 7.578 on N = 256; 7.587,
# 7.588 and 7.586 on N = 512.  At L = 8 they read at most 2.7e-7, within the
# half of the tolerance that ``CHIRP_ALIAS_SHARE`` leaves.  t = 0 has no jump
# (3.8e-10 at L = 5).
CHIRP_MIN_BOX = 8.0


def _check_chirp_box(grid: Grid, t: float) -> None:
    """Raise for a t != 0 on a box below ``CHIRP_MIN_BOX``."""
    if t != 0 and not grid.L >= CHIRP_MIN_BOX:
        raise ParameterError(
            f"t = {t:g}: the chirp STFT check needs a box L >= {CHIRP_MIN_BOX:g} for t != 0, "
            f"and L = {grid.L:g}: the periodized chirp's jump at the box's edge reaches the "
            f"compared positions |x| <= L/4")


def _check_chirp_alias(grid: Grid, t: float, tolerance: float) -> None:
    """Raise unless the chirp's first frequency alias stays below its share of ``tolerance``.

    On the lattice dx = L/N the chirp's STFT is the continuum one
    periodized in frequency with period N/L.  Over the compared positions
    |x| <= L/4 the ridge w = t x has a first alias t x -/+ N/L that comes
    within gap = 3N/(4L) - |t| L/4 of the compared band |w| <= N/(4L), at
    a corner of the region, and enters it at gap <= 0.  There the closed
    form gives the alias |V| = (1 + t^2)^{-1/4} e^{-pi gap^2 / (1 + t^2)},
    which is the deviation ``verify_chirp_stft`` reads: so a t whose alias
    reaches ``CHIRP_ALIAS_SHARE`` of the tolerance raises ParameterError.
    The quarter-box local frequency |t| L/4 against the Nyquist frequency
    N/(2L) does not predict it: the row of L = 32, N = 2048 passes up to
    |t| L/4 = 38 against 32, and that of L = 8, N = 256 fails from 12
    against 16.
    """
    gap = 3.0 * grid.N / (4.0 * grid.L) - abs(t) * grid.L / 4.0
    with np.errstate(all="ignore"):  # a nan alias (inf / inf) is rejected below
        alias = float(chirp_stft_oracle(0.0, max(0.0, gap), t))
    if not alias < CHIRP_ALIAS_SHARE * tolerance:
        raise ParameterError(
            f"t = {t:g}: on the grid L = {grid.L:g}, N = {grid.N} the chirp's first frequency "
            f"alias lies 3N/(4L) - |t|L/4 = {gap:.4g} from the compared band |w| <= N/(4L), "
            f"where its closed-form |V| is {alias:.3g}, not below {CHIRP_ALIAS_SHARE:g} times "
            f"the tolerance {tolerance:g}")


def verify_chirp_stft(f: SampledField, g: Window, t: float, region) -> float:
    """Max |V_g f - oracle| of the chirp f = ``chirp_field(grid, t)`` against the closed form.

    g is ``gaussian_window(grid)``.  The maximum deviation is taken over
    the central half of the lattice in both position and frequency,
    ``region = _chirp_stft_region(grid, t)``, where window periodization is
    negligible.  |V| is streamed over those positions from
    the sign-free path, which scales the real modulus by dx: that is |V| of
    ``stft`` bit for bit when dx is a power of two, and within a rounding
    of each value (a relative 1e-15) otherwise.  The pass's ``reduce``
    writes each position row's max |V - oracle| in the thread piece that
    wrote the row; a max is exact, so the pieces and steps change no bit.
    """
    grid = f.grid
    xs, oms, pw = region
    errs = np.empty(xs.size)

    def reduce(first, A, lo, hi):
        at = slice(first + lo, first + hi)
        oracle = _chirp_stft_modulus(xs[at, None], oms[None, :], t)
        np.max(np.abs(A[lo:hi, pw] - oracle), axis=1, out=errs[at])

    _windowed_sums(f, g, 1, grid.L / 4.0, {}, None, reduce)
    return float(np.max(errs))


# ---------------------------------------------------------------------------
# exact amalgam / M^{1,inf} constants


def w_norm_prediction(t: float, d: int) -> float:
    return (1.0 + t * t) ** (d / 4.0)


def m1inf_prediction(t: float, d: int) -> float:
    """(1 + t^2)^{d/4} |t|^{-d}; ParameterError where it overflows float64 (a subnormal t)."""
    try:
        return (1.0 + t * t) ** (d / 4.0) * abs(t) ** (-d)
    except OverflowError:
        raise ParameterError(f"t = {t:g}: the closed-form M^(1,inf) constant "
                             "(1 + t^2)^(d/4) |t|^(-d) overflows float64") from None


def _amalgam_grid(d: int) -> tuple:
    """(grid, stride) of the W rows: L = 16 with N = 2048 in 1D, N = 256 at stride 4 in 2D."""
    return make_grid(d, 16.0, 2048 if d == 1 else 256), 1 if d == 1 else 4


def _check_quarter_box_chirps(grid: Grid, t_list) -> None:
    """Each t's chirp is resolved in the quarter box |x| <= L/4 where the 1D norms read it.

    ``chirp_aliased`` with half-width L/4: on the L = 16, N = 2048 grid
    that is |t| < 16.  At t = 17 the M^{1,inf} row was off by 0.45.
    """
    for t in t_list:
        if chirp_aliased(grid, t, grid.L / 4.0):
            raise ParameterError(
                f"t = {t:g}: the chirp's local frequency |t| L/4 reaches the Nyquist "
                f"frequency of the grid L = {grid.L:g}, N = {grid.N} inside the quarter box; "
                f"the 1D amalgam constants need |t| < {2.0 / (grid.dx * grid.L):g}")


# Largest |t| of a 2D W row.  The rows run on the fixed L = 16, N = 256 grid
# of ``_amalgam_grid(2)``, where the chirp aliases inside the quarter box from
# |t| = 2 on; W sums |V| over a full period of frequencies, so the rows stay
# close to the closed form a while longer.  Relative deviations measured:
# 2.09e-6 at t = 4, 2.46e-5 at 4.5, 1.52e-4 at 5, 6.06e-4 at 5.5 and 1.77e-3
# at 6.  Up to |t| = 4 they stay below 1e-5, the scale of the largest
# deviation of the 1D default rows (7.18e-6).
W_MAX_T_2D = 4.0


def _check_2d_w_chirps(grid: Grid, t_list) -> None:
    """Each |t| is at most ``W_MAX_T_2D``, so the 2D W row of t resolves its chirp."""
    for t in t_list:
        if abs(t) > W_MAX_T_2D:
            raise ParameterError(
                f"t = {t:g}: the 2D W rows run on the grid L = {grid.L:g}, N = {grid.N}, "
                f"which resolves the chirp to within 1e-5 only for |t| <= {W_MAX_T_2D:g}")


def _grid_size(samples: float) -> float:
    """The power of two >= samples, at least 256; inf when samples is not finite."""
    return 1 << max(8, math.ceil(math.log2(samples))) if math.isfinite(samples) else math.inf


# Largest N per axis of a 2D M^{1,inf} grid.  t = 8 picks it, at about 16
# times the work of the t = 4 row (16641 positions x 1024^2 against 4225 x
# 512^2); t = 16 would pick N = 2048, and t = 1000 a 128 GiB grid.
M1INF_MAX_N_2D = 1024


def _m1inf_grid_2d(t: float) -> tuple:
    """Alias-free grid for the 2D M^{1,inf} measurement of the chirp (t != 0).

    The box must hold several widths of the ridge cross-section and the
    Nyquist frequency must exceed the largest local chirp frequency, so both
    grow with |t| (the chirps of t and -t are conjugate, so they take one
    grid).  A t whose grid needs N > ``M1INF_MAX_N_2D`` raises
    ParameterError.
    """
    c = np.pi * t * t / (1.0 + t * t)
    L = max(9.0, 4.0 * 3.5 / math.sqrt(c)) if c > 0 else math.inf  # c underflows for tiny t
    nyq = abs(t) * L / 4.0 + 3.0 * math.sqrt(1.0 + t * t)
    N = _grid_size(2.0 * L * nyq)
    if N > M1INF_MAX_N_2D:
        raise ParameterError(f"t = {t:g} needs an N = {N} grid for the 2D M^(1,inf) norm, "
                             f"above the cap N = {M1INF_MAX_N_2D}")
    return make_grid(2, L, N), 4


def _small_t_grid(t: float) -> Grid:
    """The 1D grid of both amalgam rows of a t with 0 < |t| < 0.5: a box of L |t| >= 8.

    The L = 16 box of ``_amalgam_grid(1)`` cuts off the M^{1,inf} ridge of
    a small t (relative deviation 0.049 at t = 0.2, 0.62 at t = 0.05), and
    the deviation falls once L |t| >= 8.  So L = 16 2^ceil(log2(0.5/|t|)),
    and N follows the Nyquist rule of ``_divergence_grid``.  A t whose grid
    needs N > ``DIVERGENCE_MAX_N``, that is |t| < 1/256, raises
    ParameterError.
    """
    try:
        L = math.ldexp(16.0, math.ceil(-math.log2(2.0 * abs(t))))
    except OverflowError:  # L past the float64 range, for |t| <= 2^-1021
        L = math.inf
    N = _nyquist_size(L, abs(t))
    if N > DIVERGENCE_MAX_N:
        raise ParameterError(f"t = {t:g}: the 1D amalgam rows of this t need the box "
                             f"L = {L:g} on an N = {N:g} grid, above the cap "
                             f"N = {DIVERGENCE_MAX_N}")
    return make_grid(1, L, N)


def _amalgam_checks(t_list, base: Grid) -> tuple:
    """The windows {t: (window, stride)} of the ts with a grid of their own, and the predictions.

    A 2D t != 0 measures M^{1,inf} on its own grid (``_m1inf_grid_2d``); a
    1D t with 0 < |t| < 0.5 measures both rows on its own grid
    (``_small_t_grid``); every other row runs on the W rows' grid ``base``.
    Derived before any pass: a t above a grid cap, or whose prediction
    overflows, raises ParameterError; so does a t whose chirp ``base`` does
    not resolve, in 1D one that aliases in the quarter box
    (``_check_quarter_box_chirps``) and in 2D one above ``W_MAX_T_2D``.
    The 2D grid cap is checked first and the 1D one last, so in 2D its
    message takes precedence and in 1D the prediction's does.  The
    M^{1,inf} prediction is nan where no M^{1,inf} row is measured
    (t = 0).  Each window is the Gaussian on the t's grid, built once
    every check has passed.
    """
    if base.d == 1:
        _check_quarter_box_chirps(base, t_list)
    else:
        grids = {t: _m1inf_grid_2d(t) for t in t_list if t != 0}
        _check_2d_w_chirps(base, t_list)
    w_preds = [w_norm_prediction(t, base.d) for t in t_list]
    m1_preds = [m1inf_prediction(t, base.d) if t != 0 else float("nan") for t in t_list]
    if base.d == 1:
        grids = {t: (_small_t_grid(t), 1) for t in t_list if 0 < abs(t) < 0.5}
    windows = {t: (gaussian_window(grid), stride) for t, (grid, stride) in grids.items()}
    return windows, w_preds, m1_preds


def verify_amalgam_constants(t_list, g: Window, stride: int, m1_preds, windows) -> list:
    """(w, w_refinement, m1) of each t: the W(FL1, l-inf) and M^{1,inf} norms of its chirp.

    g is the Gaussian window on the W rows' grid, which with ``stride``
    comes from ``_amalgam_grid``; ``m1_preds`` and ``windows`` come from
    ``_amalgam_checks``: each t's M^{1,inf} prediction, nan where no
    M^{1,inf} row is measured, and {t: (window, stride)} of each t with a
    grid of its own.  Sup-type quantities are restricted to the central
    half of the position lattice; edge positions wrap the window around
    the periodic box and do not represent any continuum translate.  In 1D
    both norms read the same |V|, so one pass measures them, on the t's own
    grid if it has one (0 < |t| < 0.5) and on g's otherwise, and W is
    refined at half resolution; in 2D M^{1,inf} takes the t's own grid and
    W is not refined (w_refinement None).  m1 is nan where no M^{1,inf} row
    is measured.  Each chirp is sampled here, just before its pass, and
    handed to it with no other reference, so it is freed when the pass
    returns: a 2D t's W chirp is gone before its M^{1,inf} chirp is
    sampled, and only one 2D chirp is alive at a time.  The 2D chirps held
    together would take 11 MiB, while a 2D Gaussian window keeps only its
    1D factors, 2N floats.
    """
    rows = []
    for t, m1_pred in zip(t_list, m1_preds):
        with_m1 = not math.isnan(m1_pred)
        if g.grid.d == 1:
            gt, st = windows.get(t, (g, stride))
            rows.append(_wfl1_and_m1inf(chirp_field(gt.grid, t), gt, st, gt.grid.L / 4.0,
                                        with_m1))
        else:
            w = amalgam_norm_wfl1(chirp_field(g.grid, t), g, stride=stride,
                                  position_halfwidth=g.grid.L / 4.0)
            m1 = float("nan")
            if with_m1:
                gm, mstride = windows[t]
                m1 = m_1_inf_norm(chirp_field(gm.grid, t), gm, stride=mstride,
                                  position_halfwidth=gm.grid.L / 4.0)
            rows.append((w, None, m1))
    return rows


# ---------------------------------------------------------------------------
# M^{inf,1} divergence


# Largest N of a divergence box's grid.  A box streams |V| on N / 2
# positions x N frequencies: at N = 65536 (t = 4, L = 128) about 30 s on two
# cores, while l_list = 16, 1e6 would give the box L = 1e6 N = 2^39 and 4 TiB.
DIVERGENCE_MAX_N = 1 << 16
# The least L_1 |t|, the first box in the chirp's own scale, on which the
# ridge grows by the required (1 + ratio) / 2 per box.  Bisected with
# ``tfmult run``: 2.016 on the boxes 16, 32, 64; 2.015 on 16, 17; 2.004 on
# 32, 64; 2.065 on 8, 12; failing at 1.98 and passing at 2.07 on 64, 128,
# 256 and on 10, 15; the same for -t.
DIVERGENCE_MIN_BOX_T = 2.07
# The least first box L_1.  On smaller boxes the window, of width about 1,
# fills the quarter box, and the pass threshold of L_1 |t| rises above
# DIVERGENCE_MIN_BOX_T.  Bisected with ``tfmult run`` on the boxes L_1, 2 L_1:
# 4.10 at L_1 = 3, 2.46 at 4, 2.20 at 5, 2.12 at 6, 2.09 at 7, 2.068 at 7.9,
# 2.065 at 8 (also on 8, 9; 8, 24 and 8, 16, 32) and 2.04 at 10.  Below
# L_1 = 3 runs pass and fail erratically: at t = 2 the boxes 1, 2 pass, 2, 4
# fail and 3, 6 pass.
DIVERGENCE_MIN_BOX = 8.0


def _nyquist_size(L: float, t: float) -> float:
    """N of the box-L grid of the chirp of t > 0: a Nyquist frequency above t L / 4 by a margin."""
    return _grid_size(2.0 * L * (t * L / 4.0 + 2.0 * math.sqrt(1.0 + t * t) + 4.0))


def _divergence_grid(L: float, t: float) -> Grid:
    """The box-L grid of the chirp of t > 0, N by ``_nyquist_size``.

    A box whose grid needs N > ``DIVERGENCE_MAX_N`` raises ParameterError.
    """
    N = _nyquist_size(L, t)
    if N > DIVERGENCE_MAX_N:
        raise ParameterError(f"box L = {L:g} needs an N = {N} grid for the M^(inf,1) "
                             f"divergence, above the cap N = {DIVERGENCE_MAX_N}")
    return make_grid(1, L, N)


def _check_boxes(box_sizes) -> None:
    if len(box_sizes) < 2:
        raise ParameterError("the divergence needs at least 2 boxes to grow over")
    if not all(L > 0 for L in box_sizes):
        raise ParameterError(f"box sizes must be positive, got {list(box_sizes)}")
    if not all(b > a for a, b in zip(box_sizes, box_sizes[1:])):
        raise ParameterError(f"box sizes must strictly increase, got {list(box_sizes)}")


def _divergence_grids(t: float, box_sizes) -> list:
    """The grid of every box, derived before any pass, so a box above the cap raises at once.

    The chirps of t and -t are conjugate and take one grid; t = 0 (the
    constant symbol) takes that of t = 0.25.  A t != 0 whose first box is
    below ``DIVERGENCE_MIN_BOX_T`` / |t| or below ``DIVERGENCE_MIN_BOX``
    raises ParameterError: on it the ridge is too flat to grow by the
    required factor.
    """
    _check_boxes(box_sizes)
    L1 = box_sizes[0]
    if t != 0 and (L1 * abs(t) < DIVERGENCE_MIN_BOX_T or L1 < DIVERGENCE_MIN_BOX):
        smallest = DIVERGENCE_MIN_BOX_T / abs(t)
        bound = (f"{DIVERGENCE_MIN_BOX_T:g}/|t| = {smallest:.4g}" if smallest > DIVERGENCE_MIN_BOX
                 else f"{DIVERGENCE_MIN_BOX:g} for every t")
        raise ParameterError(f"t = {t:g}: the first box L = {L1:g} is too small for the chirp's "
                             f"M^(inf,1) ridge to grow; it must be at least {bound}")
    return [_divergence_grid(L, max(abs(t), 0.25)) for L in box_sizes]


def verify_m_inf_1_divergence(t: float, windows) -> list:
    """M^{inf,1}-type norm of the chirp on growing boxes, one value per box.

    ``windows`` holds the Gaussian window on each box's grid, as
    ``_divergence_grids`` derives them.  The continuum integral diverges;
    on a box the sup-in-position slice is bounded below along the ridge
    omega = t x, so the measured value grows linearly with the box size.
    t = 0 gives the constant symbol and the divergence assertion does not
    apply.
    """
    return [m_inf_1_norm(chirp_field(g.grid, t), g, position_halfwidth=g.grid.L / 4.0)
            for g in windows]


# ---------------------------------------------------------------------------
# dyadic FL1 series (homogeneous phases)


def _dyadic_grid() -> Grid:
    return make_grid(1, 16.0, 2048)


def _check_series_depth(K: int, J: int) -> None:
    """10 <= K <= 170 and 5 <= J <= 1000.

    The k-th term divides by k!, and 171! is not a float.  J only splits
    each term's geometric sum: J terms are summed one by one and the rest
    is the exact remainder ratio^(J+1) / (1 - ratio), so the cap on J,
    which bounds that loop, costs the bound no validity.
    """
    if K < 10 or J < 5:
        raise ParameterError(f"need K >= 10 and J >= 5, got k = {K}, j = {J}")
    if K > 170:
        raise ParameterError(f"k = {K}: the series depth K may be at most 170, "
                             "since the k-th term divides by k! and 171! is not a float")
    if J > 1000:
        raise ParameterError(f"j = {J}: the geometric depth J may be at most 1000; the exact "
                             "tail ratio^(J+1) / (1 - ratio) covers the rest of the sum")


def _check_dyadic_alpha(alpha: float) -> None:
    """alpha > 0, and large enough that 2^-alpha < 1, so the series tail is finite."""
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if not 2.0 ** -alpha < 1.0:
        raise ParameterError(f"alpha = {alpha:g}: 2^-alpha rounds to 1, so the series tail "
                             "1 / (1 - 2^-alpha) divides by zero; alpha must exceed about "
                             "8.01e-17")


def _dyadic_term(grid: Grid, k: int, alpha: float) -> SampledField:
    """|x|^{k alpha} psi(|x|), the annulus factor of the series' k-th Taylor term.

    psi vanishes where |x| < 1, so no sample shrinks as k grows: the k = K
    term holds the largest.
    """
    return radial_field(grid, lambda rho: rho ** (k * alpha) * psi_profile(rho))


def _check_sin_singular(alpha: float, delta: float) -> None:
    if not (0.0 < delta <= alpha <= 1.0):
        raise ParameterError(f"need 0 < delta <= alpha <= 1, got {alpha}, {delta}")


def _refined_fl1(field: SampledField) -> tuple:
    """The FL1 norm of a field and its ``refinement`` estimate."""
    value = fl1_norm(field)
    return value, refinement([value], lambda h: [fl1_norm(h)], field)[0]


def dyadic_fl1_series(chi: SampledField, alpha: float, K: int, J: int) -> tuple:
    """Taylor-in-the-exponent series bound for e^{i |.|^alpha} * chi in FL1.

    ``chi`` is the cutoff chi(|x|) sampled on the series' grid
    (``bump_chi(_dyadic_grid())``); alpha, K and J have passed
    ``_check_dyadic_alpha`` and ``_check_series_depth``.  Each Taylor term
    |.|^{k alpha} chi is decomposed over dyadic annuli; the annulus factor
    |.|^{k alpha} psi has a scale-independent FL1 norm, so the term's norm
    is bounded by a geometric sum plus an explicit tail.  The resulting
    exponential series dominates the directly measured FL1 norm.  Returns
    (direct_fl1, direct_refinement, series_bound, cauchy_k), cauchy_k the
    first k whose term is below 1e-6 of the partial sum, or None.
    """
    grid = chi.grid
    chi_l1 = fl1_norm(chi)

    partial = 0.0
    cauchy_k = None
    for k in range(K + 1):
        psi_l1 = fl1_norm(_dyadic_term(grid, k, alpha))
        if k == 0:
            phi_bound = chi_l1
        else:
            ratio = 2.0 ** (-k * alpha)
            geom = sum(ratio ** j for j in range(1, J + 1))
            tail = ratio ** (J + 1) / (1.0 - ratio)
            phi_bound = (geom + tail) * psi_l1
        term = phi_bound / math.factorial(k)
        partial += term
        if cauchy_k is None and k >= 1 and term < 1e-6 * partial:
            cauchy_k = k

    direct = _refined_fl1(truncated_field(grid, unimodular_profile, alpha))
    return (*direct, partial, cauchy_k)


def verify_sin_singular_fl1(grid: Grid, alpha: float, delta: float) -> tuple:
    """FL1 membership of the truncated singular symbol sin(|.|^alpha)/|.|^delta.

    Measures, on ``grid`` (``_dyadic_grid()``) and for an (alpha, delta)
    that has passed ``_check_sin_singular``, the direct FL1 norm (with
    refinement stability) and the odd Taylor series whose terms are
    |.|^{(2k+1) alpha - delta} chi / (2k+1)!, k = 0, ..., ``SIN_SINGULAR_K``.
    Returns (direct_fl1, direct_refinement, cauchy), cauchy true if a term
    from k = 1 on is below 1e-6 of the partial sum.
    """
    direct = _refined_fl1(truncated_field(grid, sin_singular_profile, alpha, delta))

    total = 0.0
    cauchy = False
    for k in range(SIN_SINGULAR_K + 1):
        exponent = (2 * k + 1) * alpha - delta
        term_field = truncated_field(
            grid, lambda rho: np.where(rho > 0, rho ** exponent, 1.0 if exponent == 0 else 0.0))
        term = fl1_norm(term_field) / math.factorial(2 * k + 1)
        total += term
        if k >= 1 and term < 1e-6 * total:
            cauchy = True
    return (*direct, cauchy)


# ---------------------------------------------------------------------------
# linear phase invariance


def linear_phase_invariance(sigma_field: SampledField, g: Window, x: float,
                            a: float, b: float) -> tuple:
    """FL1 norm of sigma * T_x g before and after a linear phase e^{i(a + b xi)}.

    x snaps to the nearest lattice point (circular translate); b aligned to
    2 pi * (integer) / L makes the two values agree to ~1e-12.
    """
    grid = sigma_field.grid
    if grid.d != 1:
        raise ParameterError("linear phase check is one-dimensional")
    shift = int(round(x / grid.dx))
    gv = np.roll(g.field.values, shift)
    h = SampledField(grid, sigma_field.values * np.conj(gv))
    before = fl1_norm(h)
    xi = grid.axis_positions()
    phase = np.exp(1j * (a + b * xi))
    h2 = SampledField(grid, sigma_field.values * phase * np.conj(gv))
    after = fl1_norm(h2)
    return before, after


def lattice_aligned_b(grid: Grid, m: int) -> float:
    """A linear-phase slope whose frequency shift lands on the dual lattice."""
    return 2.0 * np.pi * m / grid.L


def _check_case_count(n: int) -> None:
    if n < 1:
        raise ParameterError(f"need at least 1 random case, got {n}")
    if n > LINEAR_PHASE_MAX_CASES:
        raise ParameterError(f"at most {LINEAR_PHASE_MAX_CASES} random cases, got {n}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")


def _linear_phase_grid() -> Grid:
    return make_grid(1, 16.0, 512)


def linear_phase_random_cases(g: Window, n: int = LINEAR_PHASE_CASES,
                              seed: int = DEFAULT_SEED) -> list:
    """Seeded random (symbol, x, a, b) draws for the linear-phase invariance check.

    g is the Gaussian window on the cases' grid (``_linear_phase_grid``);
    n and seed have passed ``_check_case_count`` and ``_check_seed``.
    Symbols are drawn from the unimodular, chirp, and truncated singular
    families, sampled on the position lattice; b is always lattice-aligned.
    Returns (label, before, after) triples.
    """
    grid = g.grid
    rng = np.random.default_rng(seed)
    xs = grid.axis_positions()
    out = []
    for i in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            alpha = float(rng.uniform(0.25, 2.0))
            f = radial_field(grid, unimodular_profile, alpha)
            label = f"unimodular_a{alpha:.3f}"
        elif kind == 1:
            t = float(rng.uniform(0.25, 2.0))
            f = chirp_field(grid, t)
            label = f"chirp_t{t:.3f}"
        else:
            alpha = float(rng.uniform(0.5, 1.0))
            delta = float(rng.uniform(0.1, alpha))
            f = truncated_field(grid, sin_singular_profile, alpha, delta)
            label = f"sin_singular_a{alpha:.3f}_d{delta:.3f}"
        x = float(rng.choice(xs[np.abs(xs) <= grid.L / 4]))
        a = float(rng.uniform(0, 2 * np.pi))
        m = int(rng.integers(-grid.N // 4, grid.N // 4 + 1))
        b = lattice_aligned_b(grid, m)
        before, after = linear_phase_invariance(f, g, x, a, b)
        out.append((label, before, after))
    return out


# ---------------------------------------------------------------------------
# multiplier ratios ||sigma(D) f|| / ||f||: operator norm probes, L^1 contrast


def gaussian_data(grid: Grid, lam: float, x0: float = 0.0, xi0: float = 0.0,
                  b: float = 0.0) -> SampledField:
    """e^{2 pi i xi0 x_1} e^{i pi b |x|^2} e^{-pi lam |x - x0 e_1|^2} sampled on the grid.

    The Gaussian of width lam^{-1/2}, translated by x0 and modulated by xi0
    along the first axis and chirped by b (the chirp is ``unimodular_profile``
    at alpha = 2).  The chirp of b = 0 is 1 and is not sampled: 0 |x|^2 is
    nan where |x|^2 overflows a huge box, on which the Gaussian is 0.
    """
    def fn(*xs):
        mod = np.exp(2j * np.pi * xi0 * xs[0])
        if b:
            mod = mod * unimodular_profile(radius(xs), 2.0, np.pi * b)
        return mod * np.exp(-np.pi * lam * radius((xs[0] - x0, *xs[1:])) ** 2)
    return sample(fn, grid)


# label -> (lam, x0, xi0, b) of ``gaussian_data``: the operator-norm probes
PROBES = {
    **{f"gauss_l{lam:g}": (lam, 0.0, 0.0, 0.0) for lam in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)},
    "gauss_shift2": (1.0, 2.0, 0.0, 0.0),
    "gauss_mod2": (1.0, 0.0, 2.0, 0.0),
    "gauss_chirped": (1.0, 0.0, 0.0, 1.0),
}
# label -> (lam, x0, xi0, b): the initial data of the Schrodinger flow
INITIAL_DATA = {
    "gauss": (1.0, 0.0, 0.0, 0.0),
    "mod_shift_gauss": (1.0, 1.0, 1.0, 0.0),
}


def probe_family(grid: Grid) -> list:
    """[(label, field)] of the dilated, translated, modulated and chirped ``PROBES``."""
    return [(label, gaussian_data(grid, *params)) for label, params in PROBES.items()]


# The least N/L of the coarser ``operator_probe`` grid: below it the ratios
# of the two grids differ by the 0.05 the experiment allows, first at
# alpha = 2, (p, q) = (1, 1) (rows of alpha <= 1 pass at N/L = 4, those of
# 1.5 and 2 fail there).  Bisected over L: the threshold lies at
# N/L = 5.41 on N = 128 and 256 (L = 23.66 and 47.25), and 5.38 on N = 64
# (L = 11.89); at N/L = 5.5 the change reads 0.035 to 0.039 on N = 64 to 512.
# L = 32 fails on N = 128 (change 0.30) and passes on 256, L = 20 fails on
# 64 (0.087) and passes on 128 (0.011).  Boxes down to L = 0.5 pass above it.
PROBE_MIN_N_PER_L = 5.5


def _check_probe_grid(grid: Grid) -> None:
    """Raise unless the coarser ``operator_probe`` grid has N/L >= ``PROBE_MIN_N_PER_L``."""
    if not grid.N / grid.L >= PROBE_MIN_N_PER_L:
        raise ParameterError(
            f"n = {grid.N}, l = {grid.L:g}: the operator probes are resolved only for "
            f"n/l >= {PROBE_MIN_N_PER_L:g}, and n/l = {grid.N / grid.L:.4g}")


def probe_ratios(symbols: dict, fields: dict, norms, products=None) -> dict:
    """{(key, label): {name: ||sigma(D) f|| / ||f||}} for every symbol and field.

    ``symbols`` maps a key to a Symbol and ``fields`` a label to a field,
    all on one grid; ``norms(h)`` returns the {name: norm} of a field h, so
    one call may share a pass among several norms.  Each ||f|| and each
    sigma(D) f is measured once.  The ratios are lower bounds for the
    operator norms; the experiments read them as such.  A norm of f that
    underflows to 0 raises ParameterError naming the norm and the field.
    A dict given as ``products`` receives each sigma(D) f under (key, label).
    """
    out = {}
    for label, f in fields.items():
        base = norms(f)
        for name, value in base.items():
            _nonzero_norm(value, name, f"the field {label}")
        for key, sigma in symbols.items():
            h = apply_multiplier(sigma, f)
            moved = norms(h if products is None else products.setdefault((key, label), h))
            out[(key, label)] = {name: moved[name] / value for name, value in base.items()}
    return out


def fresnel_l1_ratio(t: float, lam: float) -> float:
    """Closed form ||H f_lam||_1 / ||f_lam||_1 for the quadratic phase e^{i t xi^2}.

    The evolved Gaussian is again a generalized Gaussian; completing the
    square gives the ratio (pi^2 + t^2 lam^2)^{1/4} / sqrt(pi), strictly
    increasing in lam for t != 0.
    """
    return (np.pi ** 2 + (t * lam) ** 2) ** 0.25 / math.sqrt(np.pi)


def _check_dilations(lambdas) -> None:
    """Positive and strictly increasing: the L^1 ratios must grow from each lambda to the next."""
    if not all(lam > 0 for lam in lambdas):
        raise ParameterError(f"Gaussian dilations must be positive, got {list(lambdas)}")
    if not all(b > a for a, b in zip(lambdas, lambdas[1:])):
        raise ParameterError(f"Gaussian dilations must strictly increase, got {list(lambdas)}")


def _check_fresnel_ratios(t: float, lambdas) -> list:
    """Each lambda's closed-form L^1 ratio at this t, checked to be a finite float."""
    ratios = []
    for lam in lambdas:
        try:
            ratio = fresnel_l1_ratio(t, lam)
        except OverflowError:
            ratio = math.inf
        if not math.isfinite(ratio):
            raise ParameterError(
                f"lambda = {lam:g}: the closed-form L^1 ratio (pi^2 + (t lambda)^2)^(1/4) / "
                f"sqrt(pi) is not a finite float at t = {t:g}"
            )
        ratios.append(ratio)
    return ratios


def _lp_contrast_grid() -> Grid:
    return make_grid(1, 32.0, 2048)


# ---------------------------------------------------------------------------
# conservation experiments


def schrodinger_envelope(t: float, d: int) -> float:
    """(t^2 + 4 pi^2)^{d/4}, the growth bound of the Schrodinger flow's norm ratios."""
    envelope = (t * t + 4 * np.pi ** 2) ** (d / 4.0)
    if not math.isfinite(envelope):
        raise ParameterError(f"the envelope (t^2 + 4 pi^2)^(d/4) overflows at t = {t:g}")
    return envelope


def _nonzero_norm(value: float, name, what: str) -> float:
    """``value``, the ``name`` norm of the nonzero field ``what``, unless it underflowed to 0.

    ``name`` is the (p, q) of a modulation norm or the name of any other norm.
    """
    if value == 0.0:
        name = "({:g}, {:g})".format(*name) if isinstance(name, tuple) else name
        raise ParameterError(f"the {name} norm of {what} underflows to 0: "
                             "a power it sums falls below the float64 range")
    return value


def schrodinger_conservation(fields: dict, window: Window, p, q, symbols: dict) -> tuple:
    """Phase-space norm growth of free Schrodinger evolution.

    ``symbols`` maps each t to e^{i t |xi|^2} (``symbol_unimodular`` at
    alpha = 2).  ``probe_ratios`` measures ||u(., t)|| / ||f|| of each
    initial field in the (p, q) modulation norm; the same passes give the
    M^{2,2} ratios, which Moyal's formula and the unitary flow make exactly
    1.  Returns (ratios, l2_ratios), both keyed by (label, t).
    """
    pq, l2 = (float(p), float(q)), (2.0, 2.0)
    pq_list = list(dict.fromkeys([pq, l2]))
    measured = probe_ratios(symbols, fields,
                            lambda h: modulation_norms_multi(h, window, pq_list))
    return ({(label, t): r[pq] for (t, label), r in measured.items()},
            {(label, t): r[l2] for (t, label), r in measured.items()})


def wave_conservation(f: SampledField, window: Window, p, q, t_list, flows: dict) -> tuple:
    """Measured envelope constants and energy conservation for the wave flow from (f, 0).

    ``flows`` maps the data's grid and its half-resolution grid to {t:
    ``wave_symbols``} for each t of t_list, and the data's grid also for
    t = 0, the energy baseline.  ``probe_ratios`` measures C(t) =
    ||u(., t)|| / ||f|| in the (p, q) modulation norm on each grid, the half
    grid's for the ``refinement`` estimate; f, the Gaussian
    ``INITIAL_DATA["gauss"]``, is named the field gauss.  The energy at each
    t of t_list reads the u = cos(t|D|) f that C(t) measured on the data grid.
    Returns (c_values, refinement, energy_drift): C(t) and its relative
    change at half resolution per t, and the largest relative deviation of
    the energy from its t = 0 value.
    """
    def constants(f, window, products=None):
        symbols = {t: flows[f.grid][t][0] for t in t_list}
        ratios = probe_ratios(symbols, {"gauss": f},
                              lambda h: {(p, q): modulation_norm(h, window, p, q)}, products)
        return [ratios[(t, "gauss")][(p, q)] for t in t_list]

    def energy(t, u):
        return wave_energy(u, apply_multiplier(flows[f.grid][t][1], f))

    moved = {}  # (t, "gauss") -> cos(t|D|) f, as probe_ratios made it for C(t)
    cs = constants(f, window, moved)
    e0 = energy(0.0, apply_multiplier(flows[f.grid][0.0][0], f))
    drift = max([0.0, *(abs(energy(t, u) - e0) / max(e0, 1e-300) for (t, _), u in moved.items())])
    return cs, refinement(cs, constants, f, window), drift
