"""Desk-scale numerical experiments for the time-frequency multiplier bounds.

Each experiment measures a quantity with a known closed form or a structural
prediction (finiteness, monotone growth, refinement stability) and returns a
small report object; the CLI turns these into CSV tables.  Experiments are
deterministic: every random draw goes through a seeded generator recorded in
the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

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
    stft,
)

DEFAULT_SEED = 20240214


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


def verify_chirp_stft(grid: Grid, t: float) -> ChirpStftReport:
    """Compare the discrete STFT of the chirp against the closed form.

    The maximum deviation is taken over the central half of the lattice in
    both position and frequency, where window periodization is negligible.
    """
    if grid.d != 1:
        raise ParameterError("chirp STFT check is one-dimensional")
    f = chirp_field(grid, t)
    V = stft(f, gaussian_window(grid))
    xs = grid.axis_positions()
    oms = grid.axis_frequencies()
    px = np.abs(xs) <= grid.L / 4.0
    pw = np.abs(oms) <= grid.N * grid.dxi / 4.0
    sub = np.abs(V.values)[np.ix_(px, pw)]
    oracle = chirp_stft_oracle(xs[px][:, None], oms[pw][None, :], t)
    err = float(np.max(np.abs(sub - oracle)))
    return ChirpStftReport(grid, t, err, chirp_aliased(grid, t))


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
    return (1.0 + t * t) ** (d / 4.0) * abs(t) ** (-d)


def _amalgam_grid(d: int) -> tuple:
    if d == 1:
        return make_grid(1, 16.0, 2048), 1
    return make_grid(2, 16.0, 256), 4


def _m1inf_grid_2d(t: float) -> tuple:
    """Alias-free grid for the 2D M^{1,inf} measurement of the chirp.

    The box must hold several widths of the ridge cross-section and the
    Nyquist frequency must exceed the largest local chirp frequency, so both
    grow with t.
    """
    c = np.pi * t * t / (1.0 + t * t)
    L = max(9.0, 4.0 * 3.5 / math.sqrt(c))
    nyq = t * L / 4.0 + 3.0 * math.sqrt(1.0 + t * t)
    N = 1 << max(8, math.ceil(math.log2(2.0 * L * nyq)))
    return make_grid(2, L, N), 4


def verify_amalgam_constants(t_list, d: int = 1, grid: Grid | None = None,
                             include_m1inf: bool = True) -> list:
    """Measure the W(FL1, l-inf) and M^{1,inf} norms of the chirp family.

    Sup-type quantities are restricted to the central half of the position
    lattice; edge positions wrap the window around the periodic box and do
    not represent any continuum translate.
    """
    base, stride = _amalgam_grid(d) if grid is None else (grid, 1 if d == 1 else 4)
    g = gaussian_window(base)
    rows = []
    for t in t_list:
        f = chirp_field(base, t)
        w = amalgam_norm_wfl1(
            f, g, stride=stride, position_halfwidth=base.L / 4.0, refine=(d == 1)
        )
        if t == 0 or not include_m1inf:
            m1 = float("nan")
            m1_pred = float("nan")
        else:
            m1_pred = m1inf_prediction(t, d)
            if d == 1:
                m1 = m_1_inf_norm(
                    f, g, stride=stride, position_halfwidth=base.L / 4.0, refine=False
                ).value
            else:
                mg, mstride = _m1inf_grid_2d(t)
                mf = chirp_field(mg, t)
                m1 = m_1_inf_norm(
                    mf,
                    gaussian_window(mg),
                    stride=mstride,
                    position_halfwidth=mg.L / 4.0,
                    refine=False,
                ).value
        rows.append(
            AmalgamRow(t, w.value, w_norm_prediction(t, d), m1, m1_pred,
                       w_refinement=w.refinement_estimate)
        )
    return rows


# ---------------------------------------------------------------------------
# M^{inf,1} divergence


@dataclass
class DivergenceReport:
    t: float
    box_sizes: list
    values: list
    growth_factors: list


def _divergence_grid(L: float, t: float) -> Grid:
    nyq = t * L / 4.0 + 2.0 * math.sqrt(1.0 + t * t) + 4.0
    N = 1 << max(8, math.ceil(math.log2(2.0 * L * nyq)))
    return make_grid(1, L, N)


def _check_boxes(box_sizes) -> None:
    if len(box_sizes) < 2:
        raise ParameterError("the divergence needs at least 2 boxes to grow over")
    if not all(L > 0 for L in box_sizes):
        raise ParameterError(f"box sizes must be positive, got {list(box_sizes)}")


def verify_m_inf_1_divergence(t: float, box_sizes=(16.0, 32.0, 64.0)) -> DivergenceReport:
    """M^{inf,1}-type norm of the chirp on growing boxes.

    The continuum integral diverges; on a box the sup-in-position slice is
    bounded below along the ridge omega = t x, so the measured value grows
    linearly with the box size.  t = 0 gives the constant symbol and the
    divergence assertion does not apply.
    """
    _check_boxes(box_sizes)
    values = []
    for L in box_sizes:
        grid = _divergence_grid(L, max(t, 0.25))
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
    if K < 10 or J < 5:
        raise ParameterError("need K >= 10 and J >= 5")


def _check_dyadic_alpha(alpha: float) -> None:
    if not alpha > 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")


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
        psi_k = sample(
            lambda *xs: radius(xs) ** (k * alpha) * psi_profile(radius(xs)), grid
        )
        psi_l1 = fl1_norm(psi_k, refine=False).value
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


def linear_phase_random_cases(n: int = 50, seed: int = DEFAULT_SEED,
                              grid: Grid | None = None) -> list:
    """Seeded random (symbol, x, a, b) draws for the linear-phase invariance check.

    Symbols are drawn from the unimodular, chirp, and truncated singular
    families, sampled on the position lattice; b is always lattice-aligned.
    Returns (label, before, after) triples.
    """
    _check_case_count(n)
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
# Taylor remainder and phase smoothness probes


@dataclass
class TaylorReport:
    x: float
    curvature_bound: float  # measured sup of |mu''| on the window support
    max_r_ratio: float      # max |r_x| / (C/2 |xi-x|^2)
    max_dr_ratio: float     # max |r_x'| / (C |xi-x|)
    ok: bool


def _fd2(mu, xi: np.ndarray, h: float) -> np.ndarray:
    # centered 4th-order second derivative
    return (
        -mu(xi - 2 * h) + 16 * mu(xi - h) - 30 * mu(xi)
        + 16 * mu(xi + h) - mu(xi + 2 * h)
    ) / (12.0 * h * h)


def _fd1(mu, xi: np.ndarray, h: float) -> np.ndarray:
    # centered 4th-order first derivative
    return (mu(xi - 2 * h) - 8 * mu(xi - h) + 8 * mu(xi + h) - mu(xi + 2 * h)) / (12.0 * h)


def taylor_remainder_probe(mu, x: float, grid: Grid, support_radius: float = 3.0,
                           slack: float = 1e-6) -> TaylorReport:
    """Check |r_x| <= (C/2)|xi-x|^2 and |r_x'| <= C|xi-x| on the window support.

    r_x is the phase minus its linear Taylor polynomial at x; C is the
    finite-difference sup of |mu''| over the support, and the bounds carry a
    small slack for finite-difference error.
    """
    h = grid.dxi
    xi = x + np.arange(-support_radius, support_radius + h / 2, h)
    xi = xi[np.abs(xi - x) > 0]
    C = float(np.max(np.abs(_fd2(mu, np.append(xi, x), h))))
    mu_x = float(np.real(np.asarray(mu(np.array([x])))[0]))
    dmu_x = float(np.real(_fd1(mu, np.array([x]), h)[0]))
    r = np.real(np.asarray(mu(xi))) - mu_x - dmu_x * (xi - x)
    dr = _fd1(mu, xi, h) - dmu_x
    u = np.abs(xi - x)
    tol = slack * max(C, 1.0) + 1e-9
    r_ratio = float(np.max(np.abs(r) / (0.5 * C * u ** 2 + tol)))
    dr_ratio = float(np.max(np.abs(dr) / (C * u + tol)))
    return TaylorReport(x, C, r_ratio, dr_ratio, ok=(r_ratio <= 1.0 + slack and
                                                     dr_ratio <= 1.0 + slack))


def phase_smoothness_probe(mu, order_max: int, annulus=(1.0, 4.0),
                           step: float = 1.0 / 32.0) -> dict:
    """Finite-difference sup estimates of |d^m mu| for 2 <= m <= order_max.

    Sampled over the annulus (plus a stencil margin); returns {m: sup}.
    """
    if order_max < 2:
        raise ParameterError("order_max must be >= 2")
    lo, hi = annulus
    margin = 2 * step * order_max
    xi = np.arange(lo - margin, hi + margin + step / 2, step)
    vals = np.real(np.asarray(mu(xi), dtype=complex))
    sups = {}
    der = vals
    for m in range(1, order_max + 1):
        der = (der[:-4] - 8 * der[1:-3] + 8 * der[3:-1] - der[4:]) / (12.0 * step)
        xi = xi[2:-2]
        if m >= 2:
            inside = (xi >= lo) & (xi <= hi)
            sups[m] = float(np.max(np.abs(der[inside]))) if inside.any() else 0.0
    return sups


# ---------------------------------------------------------------------------
# operator norm probes


@dataclass
class ProbeReport:
    descriptor: str
    p: float
    q: float
    labels: list
    ratios: list
    max_ratio: float
    grid: Grid


def probe_family(grid: Grid, lambdas=(0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)) -> list:
    """Dilated, translated, modulated, and chirped Gaussians on the grid."""
    fams = []
    for lam in lambdas:
        fams.append((f"gauss_l{lam:g}",
                     sample(lambda *xs: np.exp(-np.pi * lam * radius(xs) ** 2), grid)))
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
    reports = {pq: ProbeReport(sigma.descriptor, pq[0], pq[1], [], [], 0.0, grid)
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


def lp_contrast_probe(t: float, lambdas=(1.0, 2.0, 4.0, 8.0),
                      grid: Grid | None = None) -> LpContrastReport:
    """L^1 growth versus modulation-norm stability over dilated Gaussians."""
    _check_dilations(lambdas)
    grid = grid or make_grid(1, 32.0, 2048)
    sigma = symbol_unimodular(grid, 2.0, t=t)
    g = gaussian_window(grid)
    l1_ratios, oracle, m11 = [], [], []
    for lam in lambdas:
        f = sample(lambda *xs: np.exp(-np.pi * lam * radius(xs) ** 2), grid)
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


@dataclass
class SchrodingerConservationReport:
    p: float
    q: float
    t_list: list
    ratios: dict          # (label, t) -> ratio
    c_values: dict        # (label, t) -> ratio / (t^2 + 4 pi^2)^{d/4}
    fitted_c: float
    stability: float      # (max - min) / max over all c_values


def schrodinger_conservation(fields, window: Window, p, q, t_list,
                             refine: bool = False) -> SchrodingerConservationReport:
    """Phase-space norm growth of free Schrodinger evolution.

    For each initial field, measures ||u(., t)|| / ||f|| in the (p, q)
    modulation norm and the implied envelope constant against
    (t^2 + 4 pi^2)^{d/4}.
    """
    from .mult import schrodinger_propagate

    ratios, c_values = {}, {}
    for label, f in fields:
        d = f.grid.d
        base = modulation_norm(f, window, p, q, refine=False).value
        for t in t_list:
            u = schrodinger_propagate(f, t).u
            r = modulation_norm(u, window, p, q, refine=refine).value / base
            ratios[(label, t)] = r
            c_values[(label, t)] = r / (t * t + 4 * np.pi ** 2) ** (d / 4.0)
    vals = list(c_values.values())
    fitted = max(vals)
    stability = (fitted - min(vals)) / fitted
    return SchrodingerConservationReport(float(p), float(q), list(t_list), ratios,
                                         c_values, fitted, stability)


@dataclass
class WaveConservationReport:
    p: float
    q: float
    t_list: list
    c_values: list          # C(t) = ||u(., t)|| / (||f|| + ||g||)
    refinement: list        # relative change of C(t) at half resolution
    energy_drift: float     # max relative wave-energy deviation over t_list


def wave_conservation(f: SampledField, g0: SampledField, window: Window, p, q,
                      t_list) -> WaveConservationReport:
    """Measured envelope constants and energy conservation for the wave flow."""
    from .mult import wave_energy, wave_propagate

    denom = (modulation_norm(f, window, p, q, refine=False).value
             + modulation_norm(g0, window, p, q, refine=False).value)
    fc, gc = coarsen(f), coarsen(g0)
    wc = resample_window(window, fc.grid)
    denom_c = (modulation_norm(fc, wc, p, q, refine=False).value
               + modulation_norm(gc, wc, p, q, refine=False).value)
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
