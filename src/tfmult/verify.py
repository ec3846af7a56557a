"""Desk-scale numerical experiments for the time-frequency multiplier bounds.

Each experiment measures a quantity with a known closed form or a structural
prediction (finiteness, monotone growth, refinement stability) and returns a
small report object; the CLI turns these into CSV tables.  Experiments are
deterministic: every random draw goes through a seeded generator recorded in
the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    coarsen,
    l1_norm,
    make_grid,
    radius,
    sample,
)
from .mult import Symbol, apply_multiplier, sin_singular_profile, symbol_unimodular
from .tf import (
    Window,
    _stft_chunks,
    _wfl1_and_m1inf,
    amalgam_norm_wfl1,
    chi_profile,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    m_inf_1_norm,
    modulation_norm,
    modulation_norms_multi,
    psi_profile,
    resample_window,
)

DEFAULT_SEED = 20240214
# defaults shared with the CLI experiments
DIVERGENCE_BOXES = (16.0, 32.0, 64.0)
LINEAR_PHASE_CASES = 50
# at about 0.3 ms a case, the most cases one run takes: about half a minute
LINEAR_PHASE_MAX_CASES = 100_000
LP_CONTRAST_LAMBDAS = (1.0, 2.0, 4.0, 8.0)


def chirp_field(grid: Grid, t: float) -> SampledField:
    """The quadratic chirp e^{i pi t |.|^2} sampled on the position lattice.

    The position lattice plays the role of the frequency variable of the
    symbol; the STFT machinery does not care what the variable is called.
    """
    return sample(lambda *xs: np.exp(1j * np.pi * t * radius(xs) ** 2), grid)


def chirp_aliased(grid: Grid, t: float) -> bool:
    """Aliasing guard: chirp phase step between adjacent samples >= pi."""
    xmax = grid.L / 2.0
    return 2.0 * np.pi * abs(t) * xmax * grid.dx >= np.pi


# ---------------------------------------------------------------------------
# chirp STFT closed form


def chirp_stft_oracle(x, omega, t: float, d: int = 1):
    """|V_g chirp(x, omega)| = (1+t^2)^{-d/4} e^{-pi |omega - t x|^2 / (1+t^2)}.

    Exact for the Gaussian window e^{-pi |.|^2}; x and omega may be scalars or
    arrays of d-vectors (last axis of length d, or plain arrays when d = 1).
    """
    x = np.asarray(x, dtype=float)
    omega = np.asarray(omega, dtype=float)
    if d == 1:
        dist2 = (omega - t * x) ** 2
    else:
        dist2 = np.sum((omega - t * x) ** 2, axis=-1)
    return (1.0 + t * t) ** (-d / 4.0) * np.exp(-np.pi * dist2 / (1.0 + t * t))


@dataclass
class ChirpStftReport:
    grid: Grid
    t: float
    max_abs_error: float
    aliasing_warning: bool


def verify_chirp_stft(grid: Grid, t: float, f: SampledField | None = None) -> ChirpStftReport:
    """Compare the discrete STFT of the chirp against the closed form.

    The maximum deviation is taken over the central half of the lattice in
    both position and frequency, where window periodization is negligible.
    |V| is streamed over those positions, step by step, from the sign-free
    path, which scales the real modulus by dx: that is |V| of ``stft`` bit
    for bit when dx is a power of two, and within a rounding of each value
    (a relative 1e-15) otherwise.  ``f``, when given, is ``chirp_field(grid, t)``.
    """
    if grid.d != 1:
        raise ParameterError("chirp STFT check is one-dimensional")
    f = chirp_field(grid, t) if f is None else f
    xs = grid.axis_positions()
    oms = grid.axis_frequencies()
    pw = np.abs(oms) <= grid.N * grid.dxi / 4.0
    errs = []
    for js, A in _stft_chunks(f, gaussian_window(grid), halfwidth=grid.L / 4.0):
        oracle = chirp_stft_oracle(xs[js][:, None], oms[pw][None, :], t)
        errs.append(np.max(np.abs(A[:, pw] - oracle)))
    return ChirpStftReport(grid, t, float(np.max(errs)), chirp_aliased(grid, t))


# ---------------------------------------------------------------------------
# exact amalgam / M^{1,inf} constants


@dataclass
class AmalgamRow:
    t: float
    w_measured: float
    w_predicted: float
    m1inf_measured: float  # nan when not applicable (t = 0 or skipped)
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
    if d == 1:
        return make_grid(1, 16.0, 2048), 1
    return make_grid(2, 16.0, 256), 4


def _check_quarter_box_chirps(grid: Grid, t_list) -> None:
    """Each t's chirp is resolved in the quarter box |x| <= L/4 where the 1D norms read it.

    The quarter-box form of ``chirp_aliased``: the chirp's local frequency
    |t| L/4 at the box's edge must stay below the Nyquist frequency
    1 / (2 dx), that is 2 pi |t| (L/4) dx < pi.  On the L = 16, N = 2048
    grid that is |t| < 16.  At t = 17 the M^{1,inf} row was off by 0.45.
    """
    for t in t_list:
        if 2.0 * math.pi * abs(t) * (grid.L / 4.0) * grid.dx >= math.pi:
            raise ParameterError(
                f"t = {t:g}: the chirp's local frequency |t| L/4 reaches the Nyquist "
                f"frequency of the grid L = {grid.L:g}, N = {grid.N} inside the quarter box; "
                f"the 1D amalgam constants need |t| < {2.0 / (grid.dx * grid.L):g}")


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


def _m1inf_grids_2d(t_list) -> dict:
    """{t: ``_m1inf_grid_2d(t)``} for each t of a 2D run that measures M^{1,inf} (t != 0)."""
    return {t: _m1inf_grid_2d(t) for t in t_list if t != 0}


def _amalgam_checks(t_list, d: int, base: Grid, include_m1inf: bool = True) -> tuple:
    """The 2D M^{1,inf} grids {t: (grid, stride)} and each t's M^{1,inf} prediction.

    Derived before any pass: a t above the 2D grid cap, or whose prediction
    overflows, raises ParameterError; so does, in 1D, a t whose chirp
    aliases in the quarter box of ``base`` (``_check_quarter_box_chirps``).
    The prediction is nan where no M^{1,inf} row is measured (t = 0).
    """
    if d == 1:
        _check_quarter_box_chirps(base, t_list)
    m1_grids = _m1inf_grids_2d(t_list) if d == 2 and include_m1inf else {}
    return m1_grids, [m1inf_prediction(t, d) if t != 0 and include_m1inf else float("nan")
                      for t in t_list]


def verify_amalgam_constants(t_list, d: int = 1, grid: Grid | None = None,
                             include_m1inf: bool = True) -> list:
    """Measure the W(FL1, l-inf) and M^{1,inf} norms of the chirp family.

    Sup-type quantities are restricted to the central half of the position
    lattice; edge positions wrap the window around the periodic box and do
    not represent any continuum translate.  In 1D both norms read the same
    |V|, so one pass measures them, and W is refined at half resolution; in
    2D M^{1,inf} takes its own grid (``_m1inf_grid_2d``) and W is not
    refined.  Every check runs before any pass (``_amalgam_checks``).
    """
    base, stride = _amalgam_grid(d) if grid is None else (grid, 1 if d == 1 else 4)
    m1_grids, m1_preds = _amalgam_checks(t_list, d, base, include_m1inf)
    g = gaussian_window(base)
    hw = base.L / 4.0
    rows = []
    for t, m1_pred in zip(t_list, m1_preds):
        f = chirp_field(base, t)
        with_m1 = not math.isnan(m1_pred)
        if d == 1:
            w, w_ref, m1 = _wfl1_and_m1inf(f, g, stride, hw, with_m1)
        else:
            w = amalgam_norm_wfl1(f, g, stride=stride, position_halfwidth=hw,
                                  refine=False).value
            w_ref, m1 = None, float("nan")
            if with_m1:
                mg, mstride = m1_grids[t]
                m1 = m_1_inf_norm(chirp_field(mg, t), gaussian_window(mg), stride=mstride,
                                  position_halfwidth=mg.L / 4.0, refine=False).value
        rows.append(AmalgamRow(t, w, w_norm_prediction(t, d), m1, m1_pred,
                               w_refinement=w_ref))
    return rows


# ---------------------------------------------------------------------------
# M^{inf,1} divergence


@dataclass
class DivergenceReport:
    t: float
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


def _divergence_grids(t: float, box_sizes) -> list:
    """The grid of every box, derived before any pass, so a box above the cap raises at once.

    The chirps of t and -t are conjugate and take one grid; t = 0 (the
    constant symbol) takes that of t = 0.25.
    """
    _check_boxes(box_sizes)
    return [_divergence_grid(L, max(abs(t), 0.25)) for L in box_sizes]


def verify_m_inf_1_divergence(t: float, box_sizes=DIVERGENCE_BOXES,
                              grids=None) -> DivergenceReport:
    """M^{inf,1}-type norm of the chirp on growing boxes.

    The continuum integral diverges; on a box the sup-in-position slice is
    bounded below along the ridge omega = t x, so the measured value grows
    linearly with the box size.  t = 0 gives the constant symbol and the
    divergence assertion does not apply.  ``grids``, when given, is
    ``_divergence_grids(t, box_sizes)``.
    """
    values = []
    for grid in grids or _divergence_grids(t, box_sizes):
        f = chirp_field(grid, t)
        values.append(
            m_inf_1_norm(
                f,
                gaussian_window(grid),
                position_halfwidth=grid.L / 4.0,
                refine=False,
            ).value
        )
    growth = [values[i + 1] / values[i] for i in range(len(values) - 1)]
    return DivergenceReport(t, list(box_sizes), values, growth)


# ---------------------------------------------------------------------------
# dyadic FL1 series (homogeneous phases)


@dataclass
class DyadicSeriesReport:
    alpha: float
    K: int
    J: int
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
    return sample(lambda *xs: radius(xs) ** (k * alpha) * psi_profile(radius(xs)), grid)


def _check_sin_singular(alpha: float, delta: float) -> None:
    if not (0.0 < delta <= alpha <= 1.0):
        raise ParameterError(f"need 0 < delta <= alpha <= 1, got {alpha}, {delta}")


def dyadic_fl1_series(alpha: float, K: int = 40, J: int = 20,
                      grid: Grid | None = None) -> DyadicSeriesReport:
    """Taylor-in-the-exponent series bound for e^{i |.|^alpha} * chi in FL1.

    Each Taylor term |.|^{k alpha} chi is decomposed over dyadic annuli; the
    annulus factor |.|^{k alpha} psi has a scale-independent FL1 norm, so the
    term's norm is bounded by a geometric sum plus an explicit tail.  The
    resulting exponential series dominates the directly measured FL1 norm.
    """
    _check_dyadic_alpha(alpha)
    _check_series_depth(K, J)
    grid = grid or _dyadic_grid()

    chi_f = sample(lambda *xs: chi_profile(radius(xs)), grid)
    chi_l1 = fl1_norm(chi_f, refine=False).value

    per_k = []
    partial = 0.0
    cauchy_k = None
    for k in range(K + 1):
        psi_l1 = fl1_norm(_dyadic_term(grid, k, alpha), refine=False).value
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

    direct = fl1_norm(
        sample(lambda *xs: np.exp(1j * radius(xs) ** alpha) * chi_profile(radius(xs)),
               grid),
        refine=True,
    )
    return DyadicSeriesReport(
        alpha, K, J, per_k, direct.value, direct.refinement_estimate, partial, cauchy_k
    )


@dataclass
class SinSingularReport:
    alpha: float
    delta: float
    direct_fl1: float
    direct_refinement: float
    series_partials: list
    cauchy: bool


def verify_sin_singular_fl1(alpha: float, delta: float, K: int = 10,
                            grid: Grid | None = None) -> SinSingularReport:
    """FL1 membership of the truncated singular symbol sin(|.|^alpha)/|.|^delta.

    Measures the direct FL1 norm (with refinement stability) and the odd
    Taylor series whose terms are |.|^{(2k+1) alpha - delta} chi / (2k+1)!.
    """
    _check_sin_singular(alpha, delta)
    grid = grid or _dyadic_grid()
    sigma = sample(lambda *xs: sin_singular_profile(radius(xs), alpha, delta)
                   * chi_profile(radius(xs)), grid)
    direct = fl1_norm(sigma, refine=True)

    partials = []
    total = 0.0
    cauchy = False
    for k in range(K + 1):
        exponent = (2 * k + 1) * alpha - delta
        term_field = sample(
            lambda *xs: np.where(radius(xs) > 0, radius(xs) ** exponent,
                                 1.0 if exponent == 0 else 0.0)
            * chi_profile(radius(xs)),
            grid,
        )
        term = fl1_norm(term_field, refine=False).value / math.factorial(2 * k + 1)
        total += term
        partials.append(total)
        if k >= 1 and term < 1e-6 * total:
            cauchy = True
    return SinSingularReport(alpha, delta, direct.value, direct.refinement_estimate,
                             partials, cauchy)


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
    before = fl1_norm(h, refine=False).value
    xi = grid.axis_positions()
    phase = np.exp(1j * (a + b * xi))
    h2 = SampledField(grid, sigma_field.values * phase * np.conj(gv))
    after = fl1_norm(h2, refine=False).value
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


def linear_phase_random_cases(n: int = LINEAR_PHASE_CASES, seed: int = DEFAULT_SEED,
                              grid: Grid | None = None) -> list:
    """Seeded random (symbol, x, a, b) draws for the linear-phase invariance check.

    Symbols are drawn from the unimodular, chirp, and truncated singular
    families, sampled on the position lattice; b is always lattice-aligned.
    Returns (label, before, after) triples.
    """
    _check_case_count(n)
    _check_seed(seed)
    grid = grid or make_grid(1, 16.0, 512)
    rng = np.random.default_rng(seed)
    g = gaussian_window(grid)
    xs = grid.axis_positions()
    out = []
    for i in range(n):
        kind = rng.integers(0, 3)
        if kind == 0:
            alpha = float(rng.uniform(0.25, 2.0))
            f = sample(lambda *p: np.exp(1j * radius(p) ** alpha), grid)
            label = f"unimodular_a{alpha:.3f}"
        elif kind == 1:
            t = float(rng.uniform(0.25, 2.0))
            f = chirp_field(grid, t)
            label = f"chirp_t{t:.3f}"
        else:
            alpha = float(rng.uniform(0.5, 1.0))
            delta = float(rng.uniform(0.1, alpha))
            f = sample(lambda *p: sin_singular_profile(radius(p), alpha, delta)
                       * chi_profile(radius(p)), grid)
            label = f"sin_singular_a{alpha:.3f}_d{delta:.3f}"
        x = float(rng.choice(xs[np.abs(xs) <= grid.L / 4]))
        a = float(rng.uniform(0, 2 * np.pi))
        m = int(rng.integers(-grid.N // 4, grid.N // 4 + 1))
        b = lattice_aligned_b(grid, m)
        before, after = linear_phase_invariance(f, g, x, a, b)
        out.append((label, before, after))
    return out


# ---------------------------------------------------------------------------
# operator norm probes


@dataclass
class ProbeReport:
    p: float
    q: float
    labels: list
    ratios: list
    max_ratio: float
    grid: Grid


def _dilated_gaussian(grid: Grid, lam: float) -> SampledField:
    """e^{-pi lam |.|^2} sampled on the position lattice."""
    return sample(lambda *xs: np.exp(-np.pi * lam * radius(xs) ** 2), grid)


def probe_family(grid: Grid, lambdas=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)) -> list:
    """Dilated, translated, modulated, and chirped Gaussians on the grid."""
    fams = [(f"gauss_l{lam:g}", _dilated_gaussian(grid, lam)) for lam in lambdas]
    fams.append(("gauss_shift2",
                 sample(lambda *xs: np.exp(-np.pi * ((xs[0] - 2.0) ** 2
                        + sum(x ** 2 for x in xs[1:]))), grid)))
    fams.append(("gauss_mod2",
                 sample(lambda *xs: np.exp(2j * np.pi * 2.0 * xs[0])
                        * np.exp(-np.pi * radius(xs) ** 2), grid)))
    fams.append(("gauss_chirped",
                 sample(lambda *xs: np.exp(1j * np.pi * radius(xs) ** 2)
                        * np.exp(-np.pi * radius(xs) ** 2), grid)))
    return fams


def probe_base_norms(family, window: Window, pq_list) -> dict:
    """{label: {(p, q): ||f||}} for every probe f of the family, one pass each."""
    return {label: modulation_norms_multi(f, window, pq_list) for label, f in family}


def probe_ratios(sigma: Symbol, pq_list, family=None, window: Window | None = None,
                 base_norms: dict | None = None) -> dict:
    """Norm ratios ||H_sigma f|| / ||f|| over a probe family, all (p, q) at once.

    Lower bounds for the operator norm; the suite asserts boundedness through
    refinement stability, not a true operator norm.  ``base_norms``, from
    ``probe_base_norms`` of the same family, window and (p, q) list, saves
    recomputing the ||f||, which do not depend on sigma.
    """
    grid = sigma.grid
    family = family if family is not None else probe_family(grid)
    g = window or gaussian_window(grid)
    if base_norms is None:
        base_norms = probe_base_norms(family, g, pq_list)
    reports = {pq: ProbeReport(pq[0], pq[1], [], [], 0.0, grid)
               for pq in pq_list}
    for label, f in family:
        base = base_norms[label]
        out = apply_multiplier(sigma, f)
        moved = modulation_norms_multi(out, g, pq_list)
        for pq in pq_list:
            r = moved[pq] / base[pq]
            rep = reports[pq]
            rep.labels.append(label)
            rep.ratios.append(r)
            rep.max_ratio = max(rep.max_ratio, r)
    return reports


@dataclass
class LpContrastReport:
    t: float
    lambdas: list
    l1_ratios: list
    l1_oracle: list
    m11_ratios: list


def fresnel_l1_ratio(t: float, lam: float) -> float:
    """Closed form ||H f_lam||_1 / ||f_lam||_1 for the quadratic phase e^{i t xi^2}.

    The evolved Gaussian is again a generalized Gaussian; completing the
    square gives the ratio (pi^2 + t^2 lam^2)^{1/4} / sqrt(pi), strictly
    increasing in lam for t != 0.
    """
    return (np.pi ** 2 + (t * lam) ** 2) ** 0.25 / math.sqrt(np.pi)


def _check_dilations(lambdas) -> None:
    if not all(lam > 0 for lam in lambdas):
        raise ParameterError(f"Gaussian dilations must be positive, got {list(lambdas)}")


def _check_fresnel_ratios(t: float, lambdas) -> None:
    """Each lambda's closed-form L^1 ratio at this t is a finite float."""
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


def _lp_contrast_grid() -> Grid:
    return make_grid(1, 32.0, 2048)


def lp_contrast_probe(t: float, lambdas=LP_CONTRAST_LAMBDAS, grid: Grid | None = None,
                      fields=None) -> LpContrastReport:
    """L^1 growth versus modulation-norm stability over dilated Gaussians.

    The symbol e^{i t xi^2} is the Schrodinger propagator's, so a t whose
    largest phase on the grid is not resolved (``symbol_unimodular``), or a
    lambda whose closed-form ratio overflows, raises ParameterError.
    ``fields``, when given, are the ``_dilated_gaussian`` of each lambda.
    """
    _check_dilations(lambdas)
    grid = grid or _lp_contrast_grid()
    sigma = symbol_unimodular(grid, 2.0, t=t)
    _check_fresnel_ratios(t, lambdas)
    g = gaussian_window(grid)
    l1_ratios, oracle, m11 = [], [], []
    for lam, f in zip(lambdas, fields or (_dilated_gaussian(grid, lam) for lam in lambdas)):
        out = apply_multiplier(sigma, f)
        l1_ratios.append(l1_norm(out) / l1_norm(f))
        oracle.append(fresnel_l1_ratio(t, lam))
        m11.append(
            modulation_norm(out, g, 1, 1, refine=False).value
            / modulation_norm(f, g, 1, 1, refine=False).value
        )
    return LpContrastReport(t, list(lambdas), l1_ratios, oracle, m11)


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
    p: float
    q: float
    t_list: list
    ratios: dict          # (label, t) -> ratio
    c_values: dict        # (label, t) -> ratio / (t^2 + 4 pi^2)^{d/4}
    fitted_c: float
    stability: float      # (max - min) / max over all c_values
    l2_ratios: dict       # (label, t) -> M^{2,2} ratio


def _nonzero_norm(value: float, p, q, what: str) -> float:
    """``value``, a (p, q) norm of the nonzero field ``what``, unless it underflowed to 0."""
    if value == 0.0:
        raise ParameterError(f"the ({p:g}, {q:g}) norm of {what} underflows to 0: "
                             "|V|^p or its q-th power falls below the float64 range")
    return value


def schrodinger_conservation(fields, window: Window, p, q,
                             t_list) -> SchrodingerConservationReport:
    """Phase-space norm growth of free Schrodinger evolution.

    For each initial field, measures ||u(., t)|| / ||f|| in the (p, q)
    modulation norm and the implied envelope constant against
    (t^2 + 4 pi^2)^{d/4}.  The same passes also give the M^{2,2} ratios
    (``l2_ratios``), which Moyal's formula and the unitary flow make exactly 1.
    """
    from .mult import schrodinger_propagate

    pq, l2 = (float(p), float(q)), (2.0, 2.0)
    pq_list = list(dict.fromkeys([pq, l2]))
    ratios, c_values, l2_ratios = {}, {}, {}
    for label, f in fields:
        d = f.grid.d
        base = modulation_norms_multi(f, window, pq_list)
        _nonzero_norm(base[pq], p, q, f"the initial field {label}")
        for t in t_list:
            envelope = schrodinger_envelope(t, d)
            u = schrodinger_propagate(f, t).u
            norms = modulation_norms_multi(u, window, pq_list)
            r = norms[pq] / base[pq]
            ratios[(label, t)] = r
            c_values[(label, t)] = r / envelope
            l2_ratios[(label, t)] = norms[l2] / base[l2]
    vals = list(c_values.values())
    fitted = max(vals)
    stability = (fitted - min(vals)) / fitted
    return SchrodingerConservationReport(pq[0], pq[1], list(t_list), ratios, c_values,
                                         fitted, stability, l2_ratios)


@dataclass
class WaveConservationReport:
    p: float
    q: float
    t_list: list
    c_values: list          # C(t) = ||u(., t)|| / (||f|| + ||g||)
    refinement: list        # relative change of C(t) at half resolution
    energy_drift: float     # max relative wave-energy deviation over t_list


def _norm_unless_zero(h: SampledField, window: Window, p, q) -> float:
    """The (p, q) modulation norm of h, with no STFT pass when h is all zero.

    Every |V| of a zero field is 0, so its norm is exactly 0.0, and adding
    0.0 to a norm changes no bit.
    """
    if not h.values.any():
        return 0.0
    return modulation_norm(h, window, p, q, refine=False).value


def wave_conservation(f: SampledField, g0: SampledField, window: Window, p, q,
                      t_list) -> WaveConservationReport:
    """Measured envelope constants and energy conservation for the wave flow."""
    from .mult import wave_energy, wave_propagate

    denom = _nonzero_norm(_norm_unless_zero(f, window, p, q)
                          + _norm_unless_zero(g0, window, p, q), p, q, "the initial data")
    fc, gc = coarsen(f), coarsen(g0)
    wc = resample_window(window, fc.grid)
    denom_c = _nonzero_norm(_norm_unless_zero(fc, wc, p, q) + _norm_unless_zero(gc, wc, p, q),
                            p, q, "the coarsened initial data")
    e0 = wave_energy(wave_propagate(f, g0, 0.0))
    cs, refs = [], []
    drift = 0.0
    for t in t_list:
        state = wave_propagate(f, g0, t)
        c = modulation_norm(state.u, window, p, q, refine=False).value / denom
        state_c = wave_propagate(fc, gc, t)
        c_half = modulation_norm(state_c.u, wc, p, q, refine=False).value / denom_c
        cs.append(c)
        refs.append(abs(c - c_half) / max(c, 1e-300))
        drift = max(drift, abs(wave_energy(state) - e0) / max(e0, 1e-300))
    return WaveConservationReport(float(p), float(q), list(t_list), cs, refs, drift)
