"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

Tolerances are fixed here, not tuned per run.  Every quantitative check
compares a measured value against a closed form, a structural prediction
(monotone growth, finiteness, refinement stability), or an exact algebraic
identity of the discrete transform.
"""

import math

import numpy as np
import pytest

from tfmult import l2_norm, make_grid, sample
from tfmult.core import SampledField, half_grid, l1_norm
from tfmult.mult import Symbol, apply_multiplier, symbol_unimodular, wave_symbols
from tfmult.tf import bump_chi, gaussian_window, modulation_norm, modulation_norms_multi
from tfmult import verify
from tfmult.verify import DEFAULT_SEED


def _schrodinger(f, t):
    """The free Schrodinger flow e^{it|D|^2} f."""
    return apply_multiplier(symbol_unimodular(f.grid, 2.0, t), f)


def _report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_chirp_stft_closed_form():
    grid = make_grid(1, 32.0, 2048)
    g = gaussian_window(grid)
    errs = {t: verify.verify_chirp_stft(verify.chirp_field(grid, t), g, t,
                                        verify._chirp_stft_region(grid, t))
            for t in (0.0, 0.5, 1.0, 2.0)}
    worst = max(errs.values())
    _report(1, worst < 1e-6, f"chirp STFT max abs error {worst:.3e} < 1e-6")


def _amalgam_errors(d, with_m1inf):
    """[(W, M^{1,inf}) relative error] of the default t_list; M^{1,inf} nan when not measured."""
    t_list = (0.5, 1.0, 2.0, 4.0)
    grid, stride = verify._amalgam_grid(d)
    windows, w_preds, m1_preds = verify._amalgam_checks(t_list, grid)
    m1_asked = m1_preds  # a nan prediction measures no M^{1,inf} row
    if not with_m1inf:
        windows, m1_asked = {}, [math.nan] * len(t_list)
    rows = verify.verify_amalgam_constants(t_list, gaussian_window(grid), stride, m1_asked,
                                           windows)
    return [(abs(w - wp) / wp, abs(m1 - mp) / mp)
            for (w, _, m1), wp, mp in zip(rows, w_preds, m1_preds)]


def test_criterion_02_amalgam_constant():
    worst1 = max(w for w, _ in _amalgam_errors(1, with_m1inf=False))
    worst2 = max(w for w, _ in _amalgam_errors(2, with_m1inf=False))
    ok = worst1 < 0.02 and worst2 < 0.05
    _report(2, ok, f"W(FL1) rel err d=1 {worst1:.2%} < 2%, d=2 {worst2:.2%} < 5%")


def test_criterion_03_m1inf_constant():
    worst = max(m1 for _, m1 in _amalgam_errors(1, with_m1inf=True))
    _report(3, worst < 0.02, f"M(1,inf) constant rel err {worst:.2%} < 2%")


def test_criterion_04_m_inf_1_divergence():
    grids = verify._divergence_grids(1.0, (16.0, 32.0, 64.0))
    values = verify.verify_m_inf_1_divergence(1.0, [gaussian_window(grid) for grid in grids])
    growth = [b / a for a, b in zip(values, values[1:])]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    ok = increasing and all(g >= 1.5 for g in growth)
    _report(4, ok, f"values {['%.3f' % v for v in values]}, "
                   f"growth {['%.3f' % g for g in growth]} >= 1.5")


def test_criterion_05_dyadic_series_bound():
    details = []
    ok = True
    chi = bump_chi(verify._dyadic_grid()).field
    for alpha in (0.5, 1.0, 2.0):
        direct, refine, bound, cauchy_k = verify.dyadic_fl1_series(chi, alpha, 40, 20)
        good = (math.isfinite(bound)
                and bound >= direct
                and cauchy_k is not None and cauchy_k <= 40
                and refine < 0.01)
        ok = ok and good
        details.append(f"a={alpha:g}: bound {bound:.3f} >= "
                       f"direct {direct:.3f}, cauchy@{cauchy_k}, "
                       f"refine {refine:.1e}")
    _report(5, ok, "; ".join(details))


def test_criterion_06_linear_phase_invariance():
    cases = verify.linear_phase_random_cases(gaussian_window(verify._linear_phase_grid()), 50,
                                             seed=DEFAULT_SEED)
    devs = [abs(after - before) / before for _, before, after in cases]
    failures = sum(d >= 1e-12 for d in devs)
    _report(6, failures == 0 and len(cases) == 50,
            f"50 seeded cases, worst rel dev {max(devs):.3e} < 1e-12, "
            f"{failures} failures")


def test_criterion_07_operator_probe_stability():
    pq_list = [(1.0, 1.0), (2.0, 2.0), (float("inf"), 1.0), (1.0, float("inf"))]
    alphas = (0.5, 1.0, 1.5, 2.0)
    maxima = {}
    for N in (512, 1024):
        grid = make_grid(1, 32.0, N)
        family, g = dict(verify.probe_family(grid)), gaussian_window(grid)
        ratios = verify.probe_ratios({alpha: symbol_unimodular(grid, alpha, t=1.0)
                                      for alpha in alphas}, family,
                                     lambda h: modulation_norms_multi(h, g, pq_list))
        maxima[N] = {(alpha, pq): max(ratios[(alpha, label)][pq] for label in family)
                     for alpha in alphas for pq in pq_list}
    worst_change = 0.0
    for key, a in maxima[512].items():
        worst_change = max(worst_change, abs(a - maxima[1024][key]) / a)
    _report(7, worst_change < 0.05,
            f"max probe-ratio change under grid doubling {worst_change:.2%} < 5%")


def test_criterion_08_lp_contrast():
    grid = verify._lp_contrast_grid()
    g = gaussian_window(grid)
    fields = {lam: verify.gaussian_data(grid, lam) for lam in (1.0, 2.0, 4.0, 8.0)}
    ratios = verify.probe_ratios(
        {1.0: symbol_unimodular(grid, 2.0, t=1.0)}, fields,
        lambda h: {"L1": l1_norm(h), "M11": modulation_norm(h, g, 1, 1)})
    l1 = [ratios[(1.0, lam)]["L1"] for lam in fields]
    m11 = [ratios[(1.0, lam)]["M11"] for lam in fields]
    increasing = all(b > a for a, b in zip(l1, l1[1:]))
    spread = max(m11) / min(m11)
    _report(8, increasing and spread < 3.0,
            f"L1 ratios {['%.3f' % r for r in l1]} increasing, "
            f"M(1,1) spread {spread:.3f} < 3")


def test_criterion_09_schrodinger_envelope():
    grid = make_grid(1, 32.0, 2048)
    w = gaussian_window(grid)
    fields = {
        "gauss": sample(lambda x: np.exp(-np.pi * x ** 2), grid),
        "modshift": sample(lambda x: np.exp(2j * np.pi * x) * np.exp(-np.pi * (x - 1.0) ** 2),
                           grid),
    }
    t_list = (0.5, 1.0, 2.0, 4.0)
    symbols = {t: symbol_unimodular(grid, 2.0, t) for t in t_list}
    envelopes = {t: verify.schrodinger_envelope(t, 1) for t in t_list}
    ratios, l2_ratios = verify.schrodinger_conservation(fields, w, 1, float("inf"), symbols)
    # the fit of the CLI's measure step: each ratio over its envelope, fitted by the maximum
    c = {k: r / envelopes[k[1]] for k, r in ratios.items()}
    fitted = max(c.values())
    stability = (fitted - min(c.values())) / fitted
    envelope_ok = all(
        ratios[k] <= fitted * (k[1] ** 2 + 4 * np.pi ** 2) ** 0.25 * (1 + 1e-12)
        for k in ratios
    )
    l2_dev = max(abs(r - 1.0) for r in l2_ratios.values())
    ok = envelope_ok and stability < 0.10 and l2_dev < 1e-10
    _report(9, ok, f"envelope holds, fitted C {fitted:.4f} stable to "
                   f"{stability:.2%} < 10%, p=q=2 dev {l2_dev:.2e} < 1e-10")


def test_criterion_10_wave_envelope_and_energy():
    grid = make_grid(1, 32.0, 2048)
    w = gaussian_window(grid)
    f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
    t_list = (0.5, 1.0, 2.0)
    flows = {h: {t: wave_symbols(h, t) for t in (0.0, *t_list)} for h in (grid, half_grid(grid))}
    ok = True
    details = []
    for pq in ((1, 1), (2, 2)):
        c_values, refinement, drift = verify.wave_conservation(f, w, *pq, t_list, flows)
        finite = all(math.isfinite(c) for c in c_values)
        stable = all(r < 0.01 for r in refinement)
        ok = ok and finite and stable and drift < 1e-10
        details.append(f"pq={pq}: C {['%.4f' % c for c in c_values]}, "
                       f"drift {drift:.2e}")
    _report(10, ok, "; ".join(details))


def test_criterion_11_algebraic_identities():
    rng = np.random.default_rng(DEFAULT_SEED)
    grid = make_grid(1, 16.0, 512)
    worst_comp = worst_group = worst_iso = 0.0
    n_cases = 200
    for _ in range(n_cases):
        a1, a2 = rng.uniform(0.25, 2.0, 2)
        t1, t2 = rng.uniform(-2.0, 2.0, 2)
        f = SampledField(grid, rng.standard_normal(grid.npoints)
                         + 1j * rng.standard_normal(grid.npoints))
        nf = l2_norm(f)
        s1 = symbol_unimodular(grid, float(a1), float(t1))
        s2 = symbol_unimodular(grid, float(a2), float(t2))
        lhs = apply_multiplier(s1, apply_multiplier(s2, f))
        rhs = apply_multiplier(Symbol(grid, s1.values * s2.values), f)
        worst_comp = max(worst_comp,
                         l2_norm(SampledField(grid, lhs.values - rhs.values)) / nf)
        u1 = _schrodinger(_schrodinger(f, float(t1)), float(t2))
        u2 = _schrodinger(f, float(t1 + t2))
        worst_group = max(worst_group,
                          l2_norm(SampledField(grid, u1.values - u2.values)) / nf)
        worst_iso = max(worst_iso, abs(l2_norm(apply_multiplier(s1, f)) - nf) / nf)
    ok = worst_comp < 1e-10 and worst_group < 1e-10 and worst_iso < 1e-10
    _report(11, ok, f"{n_cases} seeded cases: composition {worst_comp:.2e}, "
                    f"group law {worst_group:.2e}, isometry {worst_iso:.2e}, "
                    f"all < 1e-10")
