"""Experiment drivers: oracles, report plumbing, and edge-case handling."""

import math
import re
import weakref

import numpy as np
import pytest

from tfmult.core import (ParameterError, SampledField, chi_profile, default_grid, half_grid,
                         l1_norm, make_grid, psi_profile, radial_field, radius, sample)
from tfmult.mult import (
    apply_multiplier,
    sin_singular_profile,
    symbol_unimodular,
    truncated_field,
    unimodular_profile,
    wave_energy,
    wave_symbols,
)
from tfmult.tf import (
    amalgam_norm_wfl1,
    bump_chi,
    custom_window,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    modulation_norm,
    modulation_norms_multi,
    refinement,
    stft,
)
from tfmult import verify
from tfmult.verify import (
    DEFAULT_SEED,
    chirp_aliased,
    chirp_stft_oracle,
    dyadic_fl1_series,
    fresnel_l1_ratio,
    lattice_aligned_b,
    linear_phase_invariance,
    linear_phase_random_cases,
    m1inf_prediction,
    verify_chirp_stft,
    verify_sin_singular_fl1,
    w_norm_prediction,
)


def _chirp_check(grid, t):
    """``verify_chirp_stft`` of the inputs that the chirp_stft plan derives."""
    return verify_chirp_stft(verify.chirp_field(grid, t), gaussian_window(grid), t,
                             verify._chirp_stft_region(grid, t))


def _schrodinger(fields, window, p, q, t_list):
    """``schrodinger_conservation`` of the symbols that its plan derives."""
    symbols = {t: symbol_unimodular(window.grid, 2.0, t) for t in t_list}
    return verify.schrodinger_conservation(fields, window, p, q, symbols)


def _wave(f, window, p, q, t_list):
    """``wave_conservation`` of the multipliers that its plan derives."""
    flows = {h: {t: wave_symbols(h, t) for t in (0.0, *t_list)}
             for h in (f.grid, half_grid(f.grid))}
    return verify.wave_conservation(f, window, p, q, t_list, flows)


def _divergence(t, boxes):
    """``verify_m_inf_1_divergence`` of the windows that the m_inf_1_divergence plan derives."""
    return verify.verify_m_inf_1_divergence(
        t, [gaussian_window(grid) for grid in verify._divergence_grids(t, boxes)])


class TestChirpOracle:
    def test_peak_on_ridge(self):
        # maximum of |V| sits on the line omega = t x with height (1+t^2)^{-1/4}
        t = 2.0
        assert np.isclose(chirp_stft_oracle(1.0, 2.0, t), (1 + t * t) ** -0.25)
        assert chirp_stft_oracle(1.0, 0.0, t) < chirp_stft_oracle(1.0, 2.0, t)

    def test_t_zero_reduces_to_window_transform(self):
        assert np.isclose(chirp_stft_oracle(0.3, 0.7, 0.0), np.exp(-np.pi * 0.49))

    def test_2d_factorizes(self):
        x = np.array([0.5, -0.25])
        w = np.array([1.0, 0.5])
        v2 = chirp_stft_oracle(x, w, 1.0, d=2)
        v1 = (chirp_stft_oracle(x[0], w[0], 1.0)
              * chirp_stft_oracle(x[1], w[1], 1.0))
        assert np.isclose(v2, v1)

    def test_aliasing_guard(self):
        assert chirp_aliased(make_grid(1, 32.0, 2048), 2.0, 16.0)
        assert not chirp_aliased(make_grid(1, 32.0, 2048), 1.0, 16.0)

    @pytest.mark.parametrize("L,N,t", [(32.0, 2048, 4.8), (16.0, 512, 4.0), (64.0, 4096, -2.7)])
    def test_deviation_past_the_alias_bound_is_the_alias(self, L, N, t):
        # the plan's rule reads the check's deviation off the closed form of
        # the chirp's first frequency alias, to 3 digits
        grid = make_grid(1, L, N)
        with pytest.raises(ParameterError, match="first frequency alias"):
            verify._check_chirp_alias(grid, t, 1e-6)
        gap = 3.0 * N / (4.0 * L) - abs(t) * L / 4.0
        err = verify.verify_chirp_stft(verify.chirp_field(grid, t), gaussian_window(grid), t,
                                       verify._chirp_stft_region(grid, t))
        assert err == pytest.approx(chirp_stft_oracle(0.0, gap, t), rel=1e-3)

    @pytest.mark.filterwarnings("error")
    def test_closed_form_overflow_warns_nothing(self):
        # (w - t x)^2 overflows where the closed form is 0; the plan rejects
        # this box (below CHIRP_MIN_BOX), so only the check itself runs on it
        grid = make_grid(1, 1e-300, 16)
        err = verify.verify_chirp_stft(verify.chirp_field(grid, 1e100), gaussian_window(grid),
                                       1e100, verify._chirp_stft_region(grid, 1e100))
        assert err < 1e-6

    def test_verify_rejects_2d(self):
        with pytest.raises(ParameterError):
            verify._chirp_stft_region(make_grid(2, 16.0, 32), 1.0)

    @staticmethod
    def _materialized_error(grid, t):
        """The check's former formula: |V| of the whole materialized STFT."""
        f = verify.chirp_field(grid, t)
        V = stft(f, gaussian_window(grid))
        xs, oms = grid.axis_positions(), grid.axis_frequencies()
        px = np.abs(xs) <= grid.L / 4.0
        pw = np.abs(oms) <= grid.N * grid.dxi / 4.0
        sub = np.abs(V.values)[np.ix_(px, pw)]
        oracle = chirp_stft_oracle(xs[px][:, None], oms[pw][None, :], t)
        return float(np.max(np.abs(sub - oracle)))

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_streamed_equals_materialized(self, t):
        grid = default_grid(1)  # dx = 1/64: the streamed |V| is exact
        assert _chirp_check(grid, t) == self._materialized_error(grid, t)

    def test_streamed_within_a_rounding_when_dx_is_not_a_power_of_two(self):
        # dx = 3/64 scales the real modulus instead of the signed transform:
        # each |V| <= 1 moves by at most a relative 1e-15
        grid = make_grid(1, 24.0, 512)
        for t in (0.5, 1.0):
            got = _chirp_check(grid, t)
            assert abs(got - self._materialized_error(grid, t)) <= 1e-15

    def test_small_grid_error_still_modest(self):
        assert _chirp_check(make_grid(1, 16.0, 512), 0.5) < 1e-6


class TestPredictions:
    @pytest.mark.parametrize("t,d,expected", [
        (1.0, 1, 2.0 ** 0.25),
        (1.0, 2, 2.0 ** 0.5),
        (2.0, 1, 5.0 ** 0.25),
    ])
    def test_w_norm_prediction(self, t, d, expected):
        assert np.isclose(w_norm_prediction(t, d), expected)

    def test_m1inf_prediction_values(self):
        assert np.isclose(m1inf_prediction(1.0, 1), 2.0 ** 0.25)
        assert np.isclose(m1inf_prediction(0.5, 1), 1.25 ** 0.25 / 0.5)
        assert np.isclose(m1inf_prediction(0.5, 1), 2.1147425268811283, rtol=1e-12)

    def test_2d_m1inf_grid_cap(self):
        # t = 8 picks the largest grid allowed, about 16 times the t = 4 work;
        # t = 16 picked N = 2048 and t = 1e3 a 128 GiB grid, and both ran
        assert verify._m1inf_grid_2d(8.0)[0].N == verify.M1INF_MAX_N_2D == 1024
        for t, N in [(16.0, 2048), (1e3, 131072), (1e300, math.inf)]:
            message = re.escape(f"t = {t:g} needs an N = {N} grid")
            with pytest.raises(ParameterError, match=message):
                verify._m1inf_grid_2d(t)
        # the plan derives every grid before the first pass
        with pytest.raises(ParameterError, match="t = 16 needs an N = 2048 grid"):
            verify._amalgam_checks((0.5, 16.0), verify._amalgam_grid(2)[0])

    def test_2d_w_rows_take_a_resolved_t(self):
        # t = 10 passed validate, and run failed the W row's check on the
        # N = 256 grid after minutes of M^(1,inf) passes
        base = verify._amalgam_grid(2)[0]
        verify._amalgam_checks((0.5, 4.0, -4.0), base)
        for t in (4.01, -4.5, 10.0):
            message = re.escape(f"t = {t:g}: the 2D W rows run on the grid L = 16, N = 256")
            with pytest.raises(ParameterError, match=message):
                verify._amalgam_checks((1.0, t), base)
        # a t above the M^(1,inf) grid cap is named by the cap
        with pytest.raises(ParameterError, match="t = 16 needs an N = 2048 grid"):
            verify._amalgam_checks((10.0, 16.0), base)

    @pytest.mark.parametrize("t", [0.5, 4.0, 10.0])
    def test_2d_m1inf_grid_ignores_the_sign_of_t(self, t):
        # the chirps of t and -t are conjugate; t = -16 took the N = 256
        # grid and passed the cap
        assert verify._m1inf_grid_2d(-t) == verify._m1inf_grid_2d(t)
        with pytest.raises(ParameterError, match="t = -16 needs an N = 2048 grid"):
            verify._m1inf_grid_2d(-16.0)

    def test_2d_m1inf_grid_of_a_tiny_t(self):
        # pi t^2 / (1 + t^2) underflowed to 0, and its root divided by zero
        with pytest.raises(ParameterError, match="t = 1e-300 needs an N = inf grid"):
            verify._m1inf_grid_2d(1e-300)

    @pytest.mark.parametrize("t,L,N", [(0.45, 32, 1024), (0.25, 32, 1024), (0.2, 64, 2048),
                                       (-0.2, 64, 2048), (0.1, 128, 4096), (0.05, 256, 8192),
                                       (0.01, 1024, 32768), (2.0 ** -8, 2048, 65536)])
    def test_1d_small_t_grid(self, t, L, N):
        # the L = 16 box cut off the M^(1,inf) ridge of a small t: t = 0.2
        # read 0.049 off the prediction and run exited 1
        grid = verify._small_t_grid(t)
        assert (grid.L, grid.N) == (L, N) and grid.L * abs(t) >= 8.0
        assert not chirp_aliased(grid, t, grid.L / 4.0)

    @pytest.mark.parametrize("t,L,N", [(0.0039, "4096", "131072"),
                                       (1e-300, "1.07151e+301", "3.42883e+302"),
                                       (-5e-324, "inf", "inf")])
    def test_1d_small_t_grid_cap(self, t, L, N):
        message = re.escape(f"t = {t:g}: the 1D amalgam rows of this t need the box L = {L} on "
                            f"an N = {N} grid, above the cap N = {verify.DIVERGENCE_MAX_N}")
        with pytest.raises(ParameterError, match=message):
            verify._small_t_grid(t)

    def test_1d_windows_of_the_small_ts(self):
        # t = 0 and |t| >= 0.5 keep the W rows' grid, so their bytes stay
        base = verify._amalgam_grid(1)[0]
        windows = verify._amalgam_checks((0.0, 0.2, 0.5, -1.0, -0.05), base)[0]
        assert {t: (w.grid.L, w.grid.N, stride) for t, (w, stride) in windows.items()} == {
            0.2: (64.0, 2048, 1), -0.05: (256.0, 8192, 1)}


class TestDyadicSeries:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            verify._check_dyadic_alpha(0.0)
        with pytest.raises(ParameterError):
            verify._check_series_depth(5, 20)

    def test_rejects_alpha_whose_series_tail_divides_by_zero(self):
        # 2^-alpha rounds to 1, and 1 / (1 - 2^-alpha) raised ZeroDivisionError
        with pytest.raises(ParameterError, match="alpha = 1e-300: 2\\^-alpha rounds to 1"):
            verify._check_dyadic_alpha(1e-300)
        verify._check_dyadic_alpha(8.1e-17)
        with pytest.raises(ParameterError):
            verify._check_dyadic_alpha(8.0e-17)

    def test_rejects_depths_past_the_caps(self):
        # K = 171 raised OverflowError dividing by 171!, and J = 1e8 ran for minutes
        with pytest.raises(ParameterError, match="k = 171: the series depth K may be at most"):
            verify._check_series_depth(171, 20)
        with pytest.raises(ParameterError, match="j = 100000000: the geometric depth J"):
            verify._check_series_depth(40, 100_000_000)
        verify._check_series_depth(170, 1000)

    def test_sin_singular_requires_admissible_exponents(self):
        with pytest.raises(ParameterError):
            verify._check_sin_singular(1.5, 0.5)
        with pytest.raises(ParameterError):
            verify._check_sin_singular(0.5, 0.7)

    def test_sin_singular_finite(self):
        direct, refinement_estimate, _ = verify_sin_singular_fl1(verify._dyadic_grid(), 0.5, 0.25)
        assert math.isfinite(direct)
        assert refinement_estimate < 0.01


class TestLinearPhase:
    def test_aligned_slope_preserves_fl1(self):
        grid = make_grid(1, 16.0, 512)
        f = verify.chirp_field(grid, 1.0)
        from tfmult.tf import gaussian_window
        g = gaussian_window(grid)
        b = lattice_aligned_b(grid, 5)
        before, after = linear_phase_invariance(f, g, 1.0, 0.7, b)
        assert abs(after - before) / before < 1e-12

    def test_unaligned_slope_detectably_differs(self):
        grid = make_grid(1, 16.0, 512)
        f = verify.chirp_field(grid, 1.0)
        from tfmult.tf import gaussian_window
        g = gaussian_window(grid)
        before, after = linear_phase_invariance(f, g, 1.0, 0.0, 0.37)
        # an off-lattice shift changes the trapezoid values but only slightly
        assert abs(after - before) / before < 0.05

    def test_cases_deterministic(self):
        g = gaussian_window(verify._linear_phase_grid())
        a = linear_phase_random_cases(g, 5, seed=123)
        b = linear_phase_random_cases(g, 5, seed=123)
        assert [r[0] for r in a] == [r[0] for r in b]
        assert all(np.isclose(x[1], y[1]) for x, y in zip(a, b))


class TestProbesAndContrast:
    def test_fresnel_oracle_matches_measurement(self):
        grid = verify._lp_contrast_grid()
        fields = {lam: verify.gaussian_data(grid, lam) for lam in (1.0, 4.0)}
        ratios = verify.probe_ratios({0.5: symbol_unimodular(grid, 2.0, t=0.5)}, fields,
                                     lambda h: {"L1": l1_norm(h)})
        for lam in fields:
            measured, predicted = ratios[(0.5, lam)]["L1"], fresnel_l1_ratio(0.5, lam)
            assert abs(measured - predicted) / predicted < 1e-6

    def test_lp_contrast_rejects_an_unresolved_phase(self):
        # (t lam)^2 overflowed in fresnel_l1_ratio with an OverflowError; the
        # plan builds the symbol before it takes the closed-form ratios
        with pytest.raises(ParameterError, match="t = 1e\\+300: the largest propagator phase"):
            symbol_unimodular(verify._lp_contrast_grid(), 2.0, t=1e300)

    @pytest.mark.parametrize("t,lambdas", [(1.0, (1.0, 1e300)), (1e6, (1e149,)),
                                           (0.0, (float("inf"),))])
    def test_lp_contrast_rejects_an_overflowing_oracle(self, t, lambdas):
        # (t lam)^2 raised OverflowError, or the ratio came out inf or nan
        with pytest.raises(ParameterError, match="the closed-form L\\^1 ratio"):
            verify._check_fresnel_ratios(t, lambdas)

    def test_fresnel_t_zero_flat(self):
        assert np.isclose(fresnel_l1_ratio(0.0, 8.0), 1.0)

    def test_probe_ratios_l2_exactly_one(self):
        grid = make_grid(1, 16.0, 256)
        sig = symbol_unimodular(grid, 1.0, t=1.0)
        family, g = dict(verify.probe_family(grid)), gaussian_window(grid)
        ratios = verify.probe_ratios({1.0: sig}, family,
                                     lambda h: modulation_norms_multi(h, g, [(2.0, 2.0)]))
        assert list(ratios) == [(1.0, label) for label in verify.PROBES]
        assert np.allclose([r[(2.0, 2.0)] for r in ratios.values()], 1.0, atol=1e-12)

    def test_probe_ratios_equal_ratios_of_single_norms(self):
        # one pass of each field serves every symbol: each ratio is that of two single norms
        grid = make_grid(1, 16.0, 256)
        symbols = {alpha: symbol_unimodular(grid, alpha, t=1.0) for alpha in (0.0, 1.5)}
        pq_list = [(1.0, 1.0), (2.0, 2.0), (math.inf, 1.0), (1.0, math.inf)]
        family = dict(verify.probe_family(grid))
        g = gaussian_window(grid)
        ratios = verify.probe_ratios(symbols, family,
                                     lambda h: modulation_norms_multi(h, g, pq_list))
        assert ratios.keys() == {(alpha, label) for alpha in symbols for label in family}
        for (alpha, label), r in ratios.items():
            f = family[label]
            assert list(r) == pq_list
            for pq in pq_list:
                moved = modulation_norm(apply_multiplier(symbols[alpha], f), g, *pq)
                assert r[pq] == moved / modulation_norm(f, g, *pq), (alpha, pq, label)

    def test_probe_ratios_measure_each_field_and_product_once(self):
        grid = make_grid(1, 16.0, 128)
        symbols = {alpha: symbol_unimodular(grid, alpha) for alpha in (0.5, 1.0, 2.0)}
        fields = dict(verify.probe_family(grid))
        measured = []

        def norms(h):
            measured.append(h)
            return {"L1": l1_norm(h)}

        verify.probe_ratios(symbols, fields, norms)
        assert len(measured) == len(fields) * (1 + len(symbols))

    def test_probe_ratios_hand_out_the_products_they_measure(self):
        grid = make_grid(1, 16.0, 128)
        symbols = {alpha: symbol_unimodular(grid, alpha) for alpha in (0.5, 2.0)}
        fields = dict(verify.probe_family(grid))
        measured, products = [], {}

        def norms(h):
            measured.append(h)
            return {"L1": l1_norm(h)}

        verify.probe_ratios(symbols, fields, norms, products)
        assert list(products) == [(key, label) for label in fields for key in symbols]
        for (key, label), h in products.items():
            assert any(h is m for m in measured), (key, label)
            want = apply_multiplier(symbols[key], fields[label]).values
            assert np.array_equal(h.values.view(np.uint64), want.view(np.uint64)), (key, label)

    @pytest.mark.parametrize("norms,message", [
        (lambda g: lambda h: modulation_norms_multi(h, g, [(1e300, math.inf)]),
         "the (1e+300, inf) norm of the field gauss_l0.125 underflows to 0"),
        (lambda g: lambda h: {"L1": 0.0 * l1_norm(h)},
         "the L1 norm of the field gauss_l0.125 underflows to 0"),
    ], ids=["modulation", "named"])
    def test_probe_ratios_reject_an_underflowing_norm(self, norms, message):
        # only the Schrodinger measure step checked its base norms: the
        # others divided by 0
        grid = make_grid(1, 16.0, 128)
        with pytest.raises(ParameterError, match=re.escape(message)):
            verify.probe_ratios({1.0: symbol_unimodular(grid, 1.0)},
                                dict(verify.probe_family(grid)), norms(gaussian_window(grid)))

    def test_probe_family_labels_unique(self):
        grid = make_grid(1, 16.0, 128)
        fam = verify.probe_family(grid)
        labels = [lab for lab, _ in fam]
        assert len(labels) == len(set(labels))


class TestMergedPasses:
    """Norms measured in one shared pass equal those of separate single-spec calls."""

    def test_amalgam_1d_equals_single_norms(self):
        grid = make_grid(1, 16.0, 512)
        g = gaussian_window(grid)
        t_list = (0.0, 0.5, 2.0)
        m1_preds = verify._amalgam_checks(t_list, grid)[2]
        rows = verify.verify_amalgam_constants(t_list, g, 1, m1_preds, {})
        for t, (w_measured, w_refinement, m1_measured) in zip(t_list, rows):
            f = verify.chirp_field(grid, t)
            w = amalgam_norm_wfl1(f, g, position_halfwidth=grid.L / 4.0)
            ref = refinement([w], lambda h, gh: [
                amalgam_norm_wfl1(h, gh, position_halfwidth=grid.L / 4.0)], f, g)
            assert (w_measured, w_refinement) == (w, ref[0])
            if t == 0:
                assert math.isnan(m1_measured)
            else:
                m1 = m_1_inf_norm(f, g, position_halfwidth=grid.L / 4.0)
                assert m1_measured == m1
        # a nan prediction measures no M^{1,inf} row
        [(w_skipped, _, m1_skipped)] = verify.verify_amalgam_constants((0.5,), g, 1, [math.nan], {})
        assert w_skipped == rows[1][0]
        assert math.isnan(m1_skipped)

    def test_amalgam_1d_small_t_on_its_own_grid(self):
        # both rows of a small t read one pass on the t's grid, W refined there
        t = 0.2
        base = make_grid(1, 16.0, 512)
        windows, _, m1_preds = verify._amalgam_checks((t,), base)
        [row] = verify.verify_amalgam_constants((t,), gaussian_window(base), 1, m1_preds, windows)
        g = gaussian_window(verify._small_t_grid(t))
        hw = g.grid.L / 4.0
        f = verify.chirp_field(g.grid, t)
        w = amalgam_norm_wfl1(f, g, position_halfwidth=hw)
        [ref] = refinement([w], lambda h, gh: [amalgam_norm_wfl1(h, gh, position_halfwidth=hw)],
                           f, g)
        assert row == (w, ref, m_1_inf_norm(f, g, position_halfwidth=hw))

    def test_amalgam_2d_holds_one_chirp_at_a_time(self, monkeypatch):
        # the W chirp of a t stayed alive while its M^{1,inf} chirp was
        # sampled, so two 2D chirps were held at once (5 MiB at t = 4)
        base, stride = verify._amalgam_grid(2)
        t_list = (0.5, 1.0, 0.0, -0.5)
        windows, _, m1_preds = verify._amalgam_checks(t_list, base)
        made, sample_chirp = [], verify.chirp_field

        def chirp_field(grid, t):
            if grid != base:  # an M^{1,inf} chirp: every earlier one is dead
                assert [ref() for ref in made] == [None] * len(made), (t, len(made))
            f = sample_chirp(grid, t)
            made.extend([weakref.ref(f), weakref.ref(_owner(f.values))])
            return f

        monkeypatch.setattr(verify, "chirp_field", chirp_field)
        monkeypatch.setattr(verify, "amalgam_norm_wfl1", lambda f, g, **kwargs: 1.0)
        monkeypatch.setattr(verify, "m_1_inf_norm", lambda f, g, **kwargs: 2.0)
        rows = verify.verify_amalgam_constants(t_list, gaussian_window(base), stride, m1_preds,
                                               windows)
        assert len(made) == 2 * 7
        assert [(w, ref, m1 if t else None) for t, (w, ref, m1) in zip(t_list, rows)] == [
            (1.0, None, 2.0), (1.0, None, 2.0), (1.0, None, None), (1.0, None, 2.0)]

    def test_schrodinger_equals_single_norms(self):
        grid = make_grid(1, 16.0, 512)
        w = gaussian_window(grid)
        fields = {"gauss": sample(lambda x: np.exp(-np.pi * x ** 2), grid),
                  "shifted": sample(lambda x: np.exp(-np.pi * (x - 1.0) ** 2), grid)}
        t_list = (0.5, 2.0)
        ratios, l2_ratios = _schrodinger(fields, w, 1, math.inf, t_list)
        assert set(l2_ratios) == set(ratios)

        def single(f, u, p, q):
            return modulation_norm(u, w, p, q) / modulation_norm(f, w, p, q)

        for label, f in fields.items():
            for t in t_list:
                u = apply_multiplier(symbol_unimodular(grid, 2.0, t), f)
                assert ratios[(label, t)] == single(f, u, 1, math.inf)
                assert l2_ratios[(label, t)] == single(f, u, 2, 2)
        # at (p, q) = (2, 2) both sets of ratios are the M^{2,2} ones
        l2, l2_again = _schrodinger(fields, w, 2, 2, t_list)
        assert l2 == l2_again == l2_ratios


class TestConservationDrivers:
    def test_schrodinger_l2_flat_for_random_data(self):
        grid = make_grid(1, 16.0, 512)
        from tfmult.tf import gaussian_window
        rng = np.random.default_rng(DEFAULT_SEED)
        from tfmult.core import SampledField
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        ratios, _ = _schrodinger({"rand": f}, gaussian_window(grid), 2, 2, (0.5, 2.0))
        assert all(abs(r - 1.0) < 1e-10 for r in ratios.values())

    def test_schrodinger_envelope_overflow_names_t(self):
        # (t^2 + 4 pi^2)^{1/4} is inf for t = 1e300, so every c was 0
        with pytest.raises(ParameterError, match="overflows at t = 1e\\+300"):
            verify.schrodinger_envelope(1e300, 1)

    def test_divergence_ignores_the_sign_of_t(self):
        # t = -4 was measured on the t = 0.25 grids (N = 256 and 1024
        # instead of 1024 and 4096) and read 7.87 and 15.76; |V| of the
        # conjugate chirp is |V| mirrored in frequency, so the values agree
        boxes = (16.0, 32.0)
        neg = _divergence(-4.0, boxes)
        pos = _divergence(4.0, boxes)
        np.testing.assert_allclose(neg, pos, rtol=1e-12, atol=0.0)
        assert neg[1] / neg[0] >= 1.5

    def test_divergence_grid_cap(self):
        # l_list = 16, 1e6 picked N = 2^39 for the second box and failed to
        # allocate 4 TiB; every box's grid is now derived before any pass
        assert verify._divergence_grid(128.0, 4.0).N == verify.DIVERGENCE_MAX_N == 65536
        with pytest.raises(ParameterError, match="box L = 256 needs an N = 262144 grid"):
            verify._divergence_grid(256.0, 4.0)
        with pytest.raises(ParameterError, match="box L = 1e\\+06 needs an N = 549755813888"):
            verify._divergence_grids(1.0, (16.0, 1e6))
        with pytest.raises(ParameterError, match="box L = 16 needs an N = inf grid"):
            verify._divergence_grids(1e300, (16.0, 32.0))

    def test_divergence_t_zero_flat(self):
        values = _divergence(0.0, (16.0, 32.0))
        # constant symbol: no ridge, the boxed norm saturates instead of growing
        assert values[1] / values[0] < 1.5


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns the memory a views."""
    while a.base is not None:
        a = a.base
    return a


def _bits(field_or_values):
    values = getattr(field_or_values, "values", field_or_values)
    return np.ascontiguousarray(values).view(np.uint64)


def _same_bits(a, b) -> bool:
    return np.array_equal(_bits(a), _bits(b))


class TestSharedDefinitions:
    """Each shared sampler equals, bit for bit, the expression it replaced.

    The references are the hand-written samplers the experiments used
    before; the grids are those the experiments measure on.
    """

    PROBE_GRIDS = [make_grid(1, 32.0, 512), make_grid(1, 32.0, 1024), make_grid(1, 20.0, 512)]
    FLOW_GRIDS = [make_grid(1, 32.0, 2048), make_grid(1, 24.0, 1024)]

    @staticmethod
    def _old_probes(grid):
        def gauss(lam):
            return sample(lambda *xs: np.exp(-np.pi * lam * radius(xs) ** 2), grid)

        out = {f"gauss_l{lam:g}": gauss(lam) for lam in (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)}
        out["gauss_shift2"] = sample(lambda *xs: np.exp(-np.pi * ((xs[0] - 2.0) ** 2 + sum(
            x ** 2 for x in xs[1:]))), grid)
        out["gauss_mod2"] = sample(lambda *xs: np.exp(2j * np.pi * 2.0 * xs[0])
                                   * np.exp(-np.pi * radius(xs) ** 2), grid)
        out["gauss_chirped"] = sample(lambda *xs: np.exp(1j * np.pi * radius(xs) ** 2)
                                      * np.exp(-np.pi * radius(xs) ** 2), grid)
        return out

    def test_gaussian_data_from_their_tables(self):
        for grid in self.PROBE_GRIDS:
            old = self._old_probes(grid)
            family = verify.probe_family(grid)
            assert [label for label, _ in family] == list(old) == list(verify.PROBES)
            for label, f in family:
                assert _same_bits(f, old[label]), (grid, label)
        for grid in self.FLOW_GRIDS:
            old = {"gauss": sample(lambda x: np.exp(-np.pi * x ** 2), grid),
                   "mod_shift_gauss": sample(lambda x: np.exp(2j * np.pi * x)
                                             * np.exp(-np.pi * (x - 1.0) ** 2), grid)}
            assert list(verify.INITIAL_DATA) == list(old)
            for label, params in verify.INITIAL_DATA.items():
                assert _same_bits(verify.gaussian_data(grid, *params), old[label]), (grid, label)
        # lp_contrast's dilations: its defaults, and two that no power of two scales exactly
        grid = verify._lp_contrast_grid()
        for lam in (*verify.LP_CONTRAST_LAMBDAS, 0.3, 3.0):
            old = sample(lambda *xs: np.exp(-np.pi * lam * radius(xs) ** 2), grid)
            assert _same_bits(verify.gaussian_data(grid, lam), old), lam

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 4.0])
    def test_chirp_is_the_alpha_2_multiplier(self, t):
        grids = [default_grid(1), verify._amalgam_grid(1)[0], verify._amalgam_grid(2)[0],
                 make_grid(1, 16.0, 512), *verify._divergence_grids(t, verify.DIVERGENCE_BOXES)]
        if t != 0:
            grids.append(verify._m1inf_grid_2d(t)[0])
        for grid in grids:
            old = sample(lambda *xs: np.exp(1j * np.pi * t * radius(xs) ** 2), grid)
            assert _same_bits(verify.chirp_field(grid, t), old), grid

    @pytest.mark.parametrize("t", [1.0, -0.5, 0.0])
    def test_alpha_0_symbol_is_the_constant_phase(self, t):
        for grid in self.PROBE_GRIDS:
            old = np.exp(1j * (t * np.ones(grid.shape))).reshape(-1)
            assert _same_bits(symbol_unimodular(grid, 0.0, t), old)

    def test_truncated_symbols(self):
        grid = verify._dyadic_grid()
        for alpha in (0.5, 0.75, 1.0, 2.0):
            old = sample(lambda *xs: np.exp(1j * radius(xs) ** alpha) * chi_profile(radius(xs)),
                         grid)
            assert _same_bits(truncated_field(grid, unimodular_profile, alpha), old)
        for alpha, delta in ((1.0, 1.0), (0.8, 0.5)):
            old = sample(lambda *xs: sin_singular_profile(radius(xs), alpha, delta)
                         * chi_profile(radius(xs)), grid)
            assert _same_bits(truncated_field(grid, sin_singular_profile, alpha, delta), old)

    def test_radial_samplers(self):
        # bump_chi, the annulus window and the dyadic terms sampled profile(|x|) by hand
        for grid in (verify._dyadic_grid(), make_grid(2, 16.0, 64)):
            old = sample(lambda *xs: chi_profile(radius(xs)), grid)
            assert _same_bits(bump_chi(grid).field, old), grid
            old = sample(lambda *xs: psi_profile(radius(xs)), grid)
            assert _same_bits(custom_window(radial_field(grid, psi_profile)).field, old), grid
        grid = verify._dyadic_grid()
        for alpha in (0.5, 1.0, 2.0):
            for k in (0, 1, 40):
                old = sample(lambda *xs: radius(xs) ** (k * alpha) * psi_profile(radius(xs)), grid)
                assert _same_bits(verify._dyadic_term(grid, k, alpha), old), (alpha, k)

    def test_chirp_resolution_rule_at_both_boxes(self):
        grids = [default_grid(1), verify._amalgam_grid(1)[0], make_grid(1, 10.0, 256)]
        for grid in grids:
            for t in (0.0, 0.5, -1.0, 7.99, 8.0, 8.01, -8.0, 15.99, 16.0, 16.01, -16.0, 1e300):
                half = 2.0 * np.pi * abs(t) * (grid.L / 2.0) * grid.dx >= np.pi
                quarter = 2.0 * math.pi * abs(t) * (grid.L / 4.0) * grid.dx >= math.pi
                assert chirp_aliased(grid, t, grid.L / 2.0) == half
                assert chirp_aliased(grid, t, grid.L / 4.0) == quarter
                if quarter:
                    with pytest.raises(ParameterError, match="local frequency"):
                        verify._check_quarter_box_chirps(grid, [t])
                else:
                    verify._check_quarter_box_chirps(grid, [t])


def _half(f):
    """f subsampled by hand onto the half-resolution grid: every other point per axis."""
    g = f.grid
    half = make_grid(g.d, g.L, g.N // 2)
    return SampledField(half, f.reshaped()[(slice(None, None, 2),) * g.d].reshape(-1))


def _change(v, v_half):
    return abs(v - v_half) / max(abs(v), 1e-300)


class TestOneRefinementRule:
    """Every refinement estimate equals, bit for bit, a hand-written coarsen and re-measure."""

    def test_w_rows(self):
        grid = make_grid(1, 16.0, 512)
        hw = grid.L / 4.0
        g, gh = gaussian_window(grid), gaussian_window(make_grid(1, 16.0, 256))
        t_list = (0.0, 1.0)
        m1_preds = verify._amalgam_checks(t_list, grid)[2]
        rows = verify.verify_amalgam_constants(t_list, g, 1, m1_preds, {})
        for t, (w_measured, w_refinement, _) in zip(t_list, rows):
            f = verify.chirp_field(grid, t)
            w = amalgam_norm_wfl1(f, g, position_halfwidth=hw)
            w_half = amalgam_norm_wfl1(_half(f), gh, position_halfwidth=hw)
            assert (w_measured, w_refinement) == (w, _change(w, w_half)), t

    def test_direct_fl1_rows(self):
        grid = verify._dyadic_grid()
        fields = {
            "dyadic_series": (dyadic_fl1_series(bump_chi(grid).field, 1.5, 10, 5),
                              truncated_field(grid, unimodular_profile, 1.5)),
            "sin_singular_fl1": (verify_sin_singular_fl1(grid, 0.8, 0.5),
                                 truncated_field(grid, sin_singular_profile, 0.8, 0.5)),
        }
        for name, (measured, field) in fields.items():
            v, v_half = fl1_norm(field), fl1_norm(_half(field))
            assert measured[:2] == (v, _change(v, v_half)), name

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (math.inf, 1.0)])
    def test_wave_rows(self, p, q):
        grid = make_grid(1, 16.0, 256)
        w, wh = gaussian_window(grid), gaussian_window(make_grid(1, 16.0, 128))
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        t_list = (0.5, 2.0)
        c_values, refinement_estimates, energy_drift = _wave(f, w, p, q, t_list)

        def flow(f, t):
            return [apply_multiplier(sigma, f) for sigma in wave_symbols(f.grid, t)]

        def constants(f, w):
            return [modulation_norm(flow(f, t)[0], w, p, q)
                    / modulation_norm(f, w, p, q) for t in t_list]

        cs = constants(f, w)
        half = constants(_half(f), wh)
        assert c_values == cs
        assert refinement_estimates == [_change(c, c_half) for c, c_half in zip(cs, half)]
        e0 = wave_energy(*flow(f, 0.0))
        drift = [abs(wave_energy(*flow(f, t)) - e0) / max(e0, 1e-300)
                 for t in t_list]
        assert energy_drift == max([0.0, *drift])

    def test_wave_applies_each_multiplier_once(self, monkeypatch):
        # the energy applied cos(t|D|) to f again after C(t) had: 14 products
        # where 11 are distinct, cos(t|D|) f for each t on both grids, both
        # multipliers of t = 0 for the baseline, and -|D| sin(t|D|) f per t
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        applied = []

        def counted(sigma, h):
            applied.append((id(sigma), id(h)))
            return apply_multiplier(sigma, h)

        monkeypatch.setattr(verify, "apply_multiplier", counted)
        _wave(f, gaussian_window(grid), 1.0, 1.0, (0.5, 1.0, 2.0))
        assert len(applied) == len(set(applied)) == 11

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kind", ["gaussian", "custom"])
    def test_modulation_norm(self, stride, kind):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2) * np.cos(3.0 * x), grid)
        g = gaussian_window(grid)
        gh = gaussian_window(make_grid(1, 16.0, 128))
        if kind == "custom":
            g, gh = custom_window(g.field), custom_window(_half(g.field))
        v = modulation_norm(f, g, 1, 2, stride=stride)
        ref = refinement([v], lambda h, gh: [modulation_norm(h, gh, 1, 2, stride=max(1, stride // 2))],
                         f, g)
        v_half = modulation_norm(_half(f), gh, 1, 2, stride=max(1, stride // 2))
        assert ref == [_change(v, v_half)]
