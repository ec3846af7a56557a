"""Desk-scale numerical experiments for the time-frequency multiplier bounds.

Each experiment measures a quantity with a known closed form or a structural
prediction (finiteness, monotone growth, refinement stability) and returns a
small report object, or, for the multiplier ratios ||sigma(D) f|| / ||f|| of
the operator probes, the L^1 contrast and the Schrodinger flow, the dict of
``probe_ratios``, which measures the wave flow's C(t) too; the CLI turns
these into CSV tables.  Experiments are deterministic: every random draw
goes through a seeded generator recorded in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass
class ChirpStftReport:
    max_abs_error: float
    aliasing_warning: bool


def verify_chirp_stft(f: SampledField, g: Window, t: float, region) -> ChirpStftReport:
    """Compare the discrete STFT of the chirp f = ``chirp_field(grid, t)`` against the closed form.

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

    def reduce(first, rows_of, lo, hi):
        at = slice(first + lo, first + hi)
        oracle = _chirp_stft_modulus(xs[at, None], oms[None, :], t)
        np.max(np.abs(rows_of(1.0)[lo:hi, pw] - oracle), axis=1, out=errs[at])

    _windowed_sums(f, g, 1, grid.L / 4.0, {}, None, (), reduce)
    return ChirpStftReport(float(np.max(errs)), chirp_aliased(grid, t, grid.L / 2.0))


# ---------------------------------------------------------------------------
# exact amalgam / M^{1,inf} constants


@dataclass
class AmalgamRow:
    t: float
    w_measured: float
    w_predicted: float
    m1inf_measured: float  # nan where no M^{1,inf} row is measured
    m1inf_predicted: float
    w_refinement: float | None = None

    @property
    def w_rel_err(self) -> float:
        return abs(self.w_measured - self.w_predicted) / self.w_predicted

    @property
    def m1inf_rel_err(self) -> float:
        if math.isnan(self.m1inf_measured):
            return float("nan")
        return abs(self.m1inf_measured - self.m1inf_predicted) / self.m1inf_predicted


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


def _amalgam_checks(t_list, base: Grid) -> tuple:
    """The 2D M^{1,inf} windows {t: (window, stride)} and each t's M^{1,inf} prediction.

    Derived before any pass: a t above the 2D grid cap, or whose prediction
    overflows, raises ParameterError; so does a t whose chirp the W rows'
    grid ``base`` does not resolve, in 1D one that aliases in the quarter
    box (``_check_quarter_box_chirps``) and in 2D one above ``W_MAX_T_2D``,
    checked after the grid cap, whose message takes precedence.  The
    prediction is nan where no M^{1,inf} row is measured (t = 0).  Each
    window is the Gaussian on the t's grid (``_m1inf_grid_2d``), built
    once every check has passed.
    """
    m1_grids = {}
    if base.d == 1:
        _check_quarter_box_chirps(base, t_list)
    else:
        m1_grids = {t: _m1inf_grid_2d(t) for t in t_list if t != 0}
        _check_2d_w_chirps(base, t_list)
    preds = [m1inf_prediction(t, base.d) if t != 0 else float("nan") for t in t_list]
    return {t: (gaussian_window(grid), stride) for t, (grid, stride) in m1_grids.items()}, preds


def verify_amalgam_constants(t_list, g: Window, stride: int, m1_preds, m1_windows) -> list:
    """Measure the W(FL1, l-inf) and M^{1,inf} norms of the chirp family.

    g is the Gaussian window on the W rows' grid, which with ``stride``
    comes from ``_amalgam_grid``; ``m1_preds`` and, in 2D, ``m1_windows``
    come from ``_amalgam_checks``: each t's M^{1,inf} prediction, nan where
    no M^{1,inf} row is measured, and {t: (window, stride)} of each t's 2D
    M^{1,inf} pass.  Sup-type quantities are restricted to the central half
    of the position lattice; edge positions wrap the window around the
    periodic box and do not represent any continuum translate.  In 1D both
    norms read the same |V|, so one pass measures them, and W is refined at
    half resolution; in 2D M^{1,inf} takes its own grid and W is not
    refined.  Each chirp is sampled here, just before its pass: the 2D
    chirps held at once would take 11 MiB, while a 2D Gaussian window keeps
    only its 1D factors, 2N floats.
    """
    base = g.grid
    hw = base.L / 4.0
    rows = []
    for t, m1_pred in zip(t_list, m1_preds):
        f = chirp_field(base, t)
        with_m1 = not math.isnan(m1_pred)
        if base.d == 1:
            w, w_ref, m1 = _wfl1_and_m1inf(f, g, stride, hw, with_m1)
        else:
            w = amalgam_norm_wfl1(f, g, stride=stride, position_halfwidth=hw).value
            w_ref, m1 = None, float("nan")
            if with_m1:
                gm, mstride = m1_windows[t]
                m1 = m_1_inf_norm(chirp_field(gm.grid, t), gm, stride=mstride,
                                  position_halfwidth=gm.grid.L / 4.0).value
        rows.append(AmalgamRow(t, w, w_norm_prediction(t, base.d), m1, m1_pred,
                               w_refinement=w_ref))
    return rows


# ---------------------------------------------------------------------------
# M^{inf,1} divergence


@dataclass
class DivergenceReport:
    box_sizes: list
    values: list
    growth_factors: list


# Largest N of a divergence box's grid.  A box streams |V| on N / 2
# positions x N frequencies: at N = 65536 (t = 4, L = 128) about 30 s on two
# cores, while l_list = 16, 1e6 would give the box L = 1e6 N = 2^39 and 4 TiB.
DIVERGENCE_MAX_N = 1 << 16


def _divergence_grid(L: float, t: float) -> Grid:
    """The box-L grid of the chirp of t > 0: its Nyquist frequency exceeds t L / 4 by a margin.

    A box whose grid needs N > ``DIVERGENCE_MAX_N`` raises ParameterError.
    """
    N = _grid_size(2.0 * L * (t * L / 4.0 + 2.0 * math.sqrt(1.0 + t * t) + 4.0))
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
    constant symbol) takes that of t = 0.25.
    """
    _check_boxes(box_sizes)
    return [_divergence_grid(L, max(abs(t), 0.25)) for L in box_sizes]


def verify_m_inf_1_divergence(t: float, windows) -> DivergenceReport:
    """M^{inf,1}-type norm of the chirp on growing boxes.

    ``windows`` holds the Gaussian window on each box's grid, as
    ``_divergence_grids`` derives them.  The continuum integral diverges;
    on a box the sup-in-position slice is bounded below along the ridge
    omega = t x, so the measured value grows linearly with the box size.
    t = 0 gives the constant symbol and the divergence assertion does not
    apply.
    """
    grids = [g.grid for g in windows]
    values = [m_inf_1_norm(chirp_field(grid, t), g, position_halfwidth=grid.L / 4.0).value
              for grid, g in zip(grids, windows)]
    growth = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    return DivergenceReport([grid.L for grid in grids], values, growth)


# ---------------------------------------------------------------------------
# dyadic FL1 series (homogeneous phases)


@dataclass
class DyadicSeriesReport:
    per_k: list  # (k, psi_k FL1, phi_k FL1 bound, partial series sum)
    direct_fl1: float
    direct_refinement: float
    series_bound: float
    cauchy_k: int | None  # first k where the relative increment < 1e-6


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
    value = fl1_norm(field).value
    return value, refinement([value], lambda h: [fl1_norm(h).value], field)[0]


def dyadic_fl1_series(chi: SampledField, alpha: float, K: int, J: int) -> DyadicSeriesReport:
    """Taylor-in-the-exponent series bound for e^{i |.|^alpha} * chi in FL1.

    ``chi`` is the cutoff chi(|x|) sampled on the series' grid
    (``bump_chi(_dyadic_grid())``); alpha, K and J have passed
    ``_check_dyadic_alpha`` and ``_check_series_depth``.  Each Taylor term
    |.|^{k alpha} chi is decomposed over dyadic annuli; the annulus factor
    |.|^{k alpha} psi has a scale-independent FL1 norm, so the term's norm
    is bounded by a geometric sum plus an explicit tail.  The resulting
    exponential series dominates the directly measured FL1 norm.
    """
    grid = chi.grid
    chi_l1 = fl1_norm(chi).value

    per_k = []
    partial = 0.0
    cauchy_k = None
    for k in range(K + 1):
        psi_l1 = fl1_norm(_dyadic_term(grid, k, alpha)).value
        if k == 0:
            phi_bound = chi_l1
        else:
            ratio = 2.0 ** (-k * alpha)
            geom = sum(ratio ** j for j in range(1, J + 1))
            tail = ratio ** (J + 1) / (1.0 - ratio)
            phi_bound = (geom + tail) * psi_l1
        term = phi_bound / math.factorial(k)
        partial += term
        per_k.append((k, psi_l1, phi_bound, partial))
        if cauchy_k is None and k >= 1 and term < 1e-6 * partial:
            cauchy_k = k

    direct = _refined_fl1(truncated_field(grid, unimodular_profile, alpha))
    return DyadicSeriesReport(per_k, *direct, partial, cauchy_k)


@dataclass
class SinSingularReport:
    direct_fl1: float
    direct_refinement: float
    cauchy: bool


def verify_sin_singular_fl1(grid: Grid, alpha: float, delta: float) -> SinSingularReport:
    """FL1 membership of the truncated singular symbol sin(|.|^alpha)/|.|^delta.

    Measures, on ``grid`` (``_dyadic_grid()``) and for an (alpha, delta)
    that has passed ``_check_sin_singular``, the direct FL1 norm (with
    refinement stability) and the odd Taylor series whose terms are
    |.|^{(2k+1) alpha - delta} chi / (2k+1)!, k = 0, ..., ``SIN_SINGULAR_K``.
    """
    direct = _refined_fl1(truncated_field(grid, sin_singular_profile, alpha, delta))

    total = 0.0
    cauchy = False
    for k in range(SIN_SINGULAR_K + 1):
        exponent = (2 * k + 1) * alpha - delta
        term_field = truncated_field(
            grid, lambda rho: np.where(rho > 0, rho ** exponent, 1.0 if exponent == 0 else 0.0))
        term = fl1_norm(term_field).value / math.factorial(2 * k + 1)
        total += term
        if k >= 1 and term < 1e-6 * total:
            cauchy = True
    return SinSingularReport(*direct, cauchy)


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
    before = fl1_norm(h).value
    xi = grid.axis_positions()
    phase = np.exp(1j * (a + b * xi))
    h2 = SampledField(grid, sigma_field.values * phase * np.conj(gv))
    after = fl1_norm(h2).value
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


@dataclass
class SchrodingerConservationReport:
    ratios: dict          # (label, t) -> ratio
    c_values: dict        # (label, t) -> ratio / (t^2 + 4 pi^2)^{d/4}
    fitted_c: float
    stability: float      # (max - min) / max over all c_values
    l2_ratios: dict       # (label, t) -> M^{2,2} ratio


def _nonzero_norm(value: float, name, what: str) -> float:
    """``value``, the ``name`` norm of the nonzero field ``what``, unless it underflowed to 0.

    ``name`` is the (p, q) of a modulation norm or the name of any other norm.
    """
    if value == 0.0:
        name = "({:g}, {:g})".format(*name) if isinstance(name, tuple) else name
        raise ParameterError(f"the {name} norm of {what} underflows to 0: "
                             "a power it sums falls below the float64 range")
    return value


def schrodinger_conservation(fields: dict, window: Window, p, q, symbols: dict,
                             envelopes: dict) -> SchrodingerConservationReport:
    """Phase-space norm growth of free Schrodinger evolution.

    ``symbols`` maps each t to e^{i t |xi|^2} (``symbol_unimodular`` at
    alpha = 2) and ``envelopes`` maps it to (t^2 + 4 pi^2)^{d/4}
    (``schrodinger_envelope``).  ``probe_ratios`` measures ||u(., t)|| / ||f||
    of each initial field in the (p, q) modulation norm; the same passes
    give the M^{2,2} ratios (``l2_ratios``), which Moyal's formula and the
    unitary flow make exactly 1.  Each ratio over its envelope is an
    envelope constant, fitted by their maximum.
    """
    pq, l2 = (float(p), float(q)), (2.0, 2.0)
    pq_list = list(dict.fromkeys([pq, l2]))
    measured = probe_ratios(symbols, fields,
                            lambda h: modulation_norms_multi(h, window, pq_list))
    ratios = {(label, t): r[pq] for (t, label), r in measured.items()}
    l2_ratios = {(label, t): r[l2] for (t, label), r in measured.items()}
    c_values = {(label, t): r / envelopes[t] for (label, t), r in ratios.items()}
    vals = list(c_values.values())
    fitted = max(vals)
    stability = (fitted - min(vals)) / fitted
    return SchrodingerConservationReport(ratios, c_values, fitted, stability, l2_ratios)


@dataclass
class WaveConservationReport:
    c_values: list          # C(t) = ||u(., t)|| / ||f||
    refinement: list        # relative change of C(t) at half resolution
    energy_drift: float     # max relative wave-energy deviation over t_list


def wave_conservation(f: SampledField, window: Window, p, q, t_list,
                      flows: dict) -> WaveConservationReport:
    """Measured envelope constants and energy conservation for the wave flow from (f, 0).

    ``flows`` maps the data's grid and its half-resolution grid to {t:
    ``wave_symbols``} for each t of t_list, and the data's grid also for
    t = 0, the energy baseline.  ``probe_ratios`` measures C(t) =
    ||u(., t)|| / ||f|| in the (p, q) modulation norm on each grid, the half
    grid's for the ``refinement`` estimate; f, the Gaussian
    ``INITIAL_DATA["gauss"]``, is named the field gauss.  The energy at each
    t of t_list reads the u = cos(t|D|) f that C(t) measured on the data grid.
    """
    def constants(f, window, products=None):
        symbols = {t: flows[f.grid][t][0] for t in t_list}
        ratios = probe_ratios(symbols, {"gauss": f},
                              lambda h: {(p, q): modulation_norm(h, window, p, q).value}, products)
        return [ratios[(t, "gauss")][(p, q)] for t in t_list]

    def energy(t, u):
        return wave_energy(u, apply_multiplier(flows[f.grid][t][1], f))

    moved = {}  # (t, "gauss") -> cos(t|D|) f, as probe_ratios made it for C(t)
    cs = constants(f, window, moved)
    e0 = energy(0.0, apply_multiplier(flows[f.grid][0.0][0], f))
    drift = max([0.0, *(abs(energy(t, u) - e0) / max(e0, 1e-300) for (t, _), u in moved.items())])
    return WaveConservationReport(cs, refinement(cs, constants, f, window), drift)
