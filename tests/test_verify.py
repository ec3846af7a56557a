"""Experiment drivers: oracles, report plumbing, and edge-case handling."""

import math
import re

import numpy as np
import pytest

from tfmult.core import ParameterError, default_grid, make_grid, sample
from tfmult.mult import schrodinger_propagate, symbol_unimodular
from tfmult.tf import amalgam_norm_wfl1, gaussian_window, m_1_inf_norm, modulation_norm, stft
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
        assert chirp_aliased(make_grid(1, 32.0, 2048), 2.0)
        assert not chirp_aliased(make_grid(1, 32.0, 2048), 1.0)

    def test_verify_rejects_2d(self):
        with pytest.raises(ParameterError):
            verify_chirp_stft(make_grid(2, 16.0, 32), 1.0)

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
        assert verify_chirp_stft(grid, t).max_abs_error == self._materialized_error(grid, t)

    def test_streamed_within_a_rounding_when_dx_is_not_a_power_of_two(self):
        # dx = 3/64 scales the real modulus instead of the signed transform:
        # each |V| <= 1 moves by at most a relative 1e-15
        grid = make_grid(1, 24.0, 512)
        for t in (0.5, 1.0):
            got = verify_chirp_stft(grid, t).max_abs_error
            assert abs(got - self._materialized_error(grid, t)) <= 1e-15

    def test_small_grid_error_still_modest(self):
        rep = verify_chirp_stft(make_grid(1, 16.0, 512), 0.5)
        assert rep.max_abs_error < 1e-6


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

    def test_2d_m1inf_grid_cap(self, monkeypatch):
        # t = 8 picks the largest grid allowed, about 16 times the t = 4 work;
        # t = 16 picked N = 2048 and t = 1e3 a 128 GiB grid, and both ran
        assert verify._m1inf_grid_2d(8.0)[0].N == verify.M1INF_MAX_N_2D == 1024
        for t, N in [(16.0, 2048), (1e3, 131072), (1e300, math.inf)]:
            message = re.escape(f"t = {t:g} needs an N = {N} grid")
            with pytest.raises(ParameterError, match=message):
                verify._m1inf_grid_2d(t)

        def no_pass(grid, t):
            raise AssertionError("a pass started")

        # every grid is derived before the first pass
        monkeypatch.setattr(verify, "chirp_field", no_pass)
        with pytest.raises(ParameterError, match="t = 16 needs an N = 2048 grid"):
            verify.verify_amalgam_constants((0.5, 16.0), d=2)


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


class TestDyadicSeries:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            dyadic_fl1_series(0.0)
        with pytest.raises(ParameterError):
            dyadic_fl1_series(1.0, K=5)

    def test_rejects_alpha_whose_series_tail_divides_by_zero(self):
        # 2^-alpha rounds to 1, and 1 / (1 - 2^-alpha) raised ZeroDivisionError
        with pytest.raises(ParameterError, match="alpha = 1e-300: 2\\^-alpha rounds to 1"):
            dyadic_fl1_series(1e-300)
        verify._check_dyadic_alpha(8.1e-17)
        with pytest.raises(ParameterError):
            verify._check_dyadic_alpha(8.0e-17)

    def test_rejects_depths_past_the_caps(self):
        # K = 171 raised OverflowError dividing by 171!, and J = 1e8 ran for minutes
        with pytest.raises(ParameterError, match="k = 171: the series depth K may be at most"):
            dyadic_fl1_series(0.01, K=171)
        with pytest.raises(ParameterError, match="j = 100000000: the geometric depth J"):
            dyadic_fl1_series(1.0, J=100_000_000)
        verify._check_series_depth(170, 1000)

    def test_partial_sums_monotone(self):
        rep = dyadic_fl1_series(1.0, K=15)
        partials = [row[3] for row in rep.per_k]
        assert all(b >= a for a, b in zip(partials, partials[1:]))

    def test_sin_singular_requires_admissible_exponents(self):
        with pytest.raises(ParameterError):
            verify_sin_singular_fl1(1.5, 0.5)
        with pytest.raises(ParameterError):
            verify_sin_singular_fl1(0.5, 0.7)

    def test_sin_singular_finite(self):
        rep = verify_sin_singular_fl1(0.5, 0.25)
        assert math.isfinite(rep.direct_fl1)
        assert rep.direct_refinement < 0.01


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
        a = linear_phase_random_cases(5, seed=123)
        b = linear_phase_random_cases(5, seed=123)
        assert [r[0] for r in a] == [r[0] for r in b]
        assert all(np.isclose(x[1], y[1]) for x, y in zip(a, b))


class TestProbesAndContrast:
    def test_fresnel_oracle_matches_measurement(self):
        rep = verify.lp_contrast_probe(0.5, (1.0, 4.0))
        for measured, predicted in zip(rep.l1_ratios, rep.l1_oracle):
            assert abs(measured - predicted) / predicted < 1e-6

    def test_lp_contrast_rejects_an_unresolved_phase(self):
        # (t lam)^2 overflowed in fresnel_l1_ratio with an OverflowError
        with pytest.raises(ParameterError, match="t = 1e\\+300: the largest propagator phase"):
            verify.lp_contrast_probe(1e300)

    @pytest.mark.parametrize("t,lambdas", [(1.0, (1.0, 1e300)), (1e6, (1e149,)),
                                           (0.0, (float("inf"),))])
    def test_lp_contrast_rejects_an_overflowing_oracle(self, t, lambdas):
        # (t lam)^2 raised OverflowError, or the ratio came out inf or nan
        with pytest.raises(ParameterError, match="the closed-form L\\^1 ratio"):
            verify.lp_contrast_probe(t, lambdas)

    def test_fresnel_t_zero_flat(self):
        assert np.isclose(fresnel_l1_ratio(0.0, 8.0), 1.0)

    def test_probe_ratios_l2_exactly_one(self):
        grid = make_grid(1, 16.0, 256)
        sig = symbol_unimodular(grid, 1.0, t=1.0)
        rep = verify.probe_ratios(sig, [(2.0, 2.0)])[(2.0, 2.0)]
        assert np.allclose(rep.ratios, 1.0, atol=1e-12)

    def test_probe_ratios_with_precomputed_base_norms(self):
        grid = make_grid(1, 16.0, 256)
        sig = symbol_unimodular(grid, 1.5, t=1.0)
        pq_list = [(1.0, 1.0), (2.0, 2.0), (math.inf, 1.0), (1.0, math.inf)]
        family = verify.probe_family(grid)
        g = gaussian_window(grid)
        base = verify.probe_base_norms(family, g, pq_list)
        assert verify.probe_ratios(sig, pq_list, family, g, base) == \
            verify.probe_ratios(sig, pq_list)

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
        rows = verify.verify_amalgam_constants((0.0, 0.5, 2.0), d=1, grid=grid)
        for row in rows:
            f = verify.chirp_field(grid, row.t)
            w = amalgam_norm_wfl1(f, g, position_halfwidth=grid.L / 4.0)
            assert (row.w_measured, row.w_refinement) == (w.value, w.refinement_estimate)
            if row.t == 0:
                assert math.isnan(row.m1inf_measured)
            else:
                m1 = m_1_inf_norm(f, g, position_halfwidth=grid.L / 4.0, refine=False)
                assert row.m1inf_measured == m1.value
        skipped = verify.verify_amalgam_constants((0.5,), d=1, grid=grid, include_m1inf=False)
        assert skipped[0].w_measured == rows[1].w_measured
        assert math.isnan(skipped[0].m1inf_measured)

    def test_schrodinger_equals_single_norms(self):
        grid = make_grid(1, 16.0, 512)
        w = gaussian_window(grid)
        fields = [("gauss", sample(lambda x: np.exp(-np.pi * x ** 2), grid)),
                  ("shifted", sample(lambda x: np.exp(-np.pi * (x - 1.0) ** 2), grid))]
        t_list = (0.5, 2.0)
        rep = verify.schrodinger_conservation(fields, w, 1, math.inf, t_list)
        assert set(rep.l2_ratios) == set(rep.ratios)

        def single(f, u, p, q):
            return (modulation_norm(u, w, p, q, refine=False).value
                    / modulation_norm(f, w, p, q, refine=False).value)

        for label, f in fields:
            for t in t_list:
                u = schrodinger_propagate(f, t).u
                assert rep.ratios[(label, t)] == single(f, u, 1, math.inf)
                assert rep.l2_ratios[(label, t)] == single(f, u, 2, 2)
        # at (p, q) = (2, 2) both sets of ratios are the M^{2,2} ones
        l2 = verify.schrodinger_conservation(fields, w, 2, 2, t_list)
        assert l2.ratios == l2.l2_ratios == rep.l2_ratios

    def test_wave_skips_the_zero_field_with_the_same_bits(self, monkeypatch):
        grid = make_grid(1, 16.0, 256)
        w = gaussian_window(grid)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g0 = sample(lambda x: np.zeros_like(x), grid)
        passes = []
        norm = verify.modulation_norm

        def counted(*args, **kwargs):
            passes.append(args[0])
            return norm(*args, **kwargs)

        monkeypatch.setattr(verify, "modulation_norm", counted)
        for pq in ((1, 1), (2, 2), (math.inf, 1)):
            passes.clear()
            skipped = verify.wave_conservation(f, g0, w, *pq, (0.5, 2.0))
            assert passes and not any(np.array_equal(h.values, 0) for h in passes)
            with monkeypatch.context() as mp:
                mp.setattr(verify, "_norm_unless_zero",
                           lambda h, window, p, q: norm(h, window, p, q, refine=False).value)
                assert skipped == verify.wave_conservation(f, g0, w, *pq, (0.5, 2.0))


class TestConservationDrivers:
    def test_schrodinger_l2_flat_for_random_data(self):
        grid = make_grid(1, 16.0, 512)
        from tfmult.tf import gaussian_window
        rng = np.random.default_rng(DEFAULT_SEED)
        from tfmult.core import SampledField
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        rep = verify.schrodinger_conservation([("rand", f)], gaussian_window(grid),
                                              2, 2, (0.5, 2.0))
        assert all(abs(r - 1.0) < 1e-10 for r in rep.ratios.values())

    def test_schrodinger_envelope_overflow_names_t(self):
        # (t^2 + 4 pi^2)^{1/4} is inf for t = 1e300, so every c was 0
        grid = make_grid(1, 16.0, 64)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        with pytest.raises(ParameterError, match="overflows at t = 1e\\+300"):
            verify.schrodinger_conservation([("gauss", f)], gaussian_window(grid), 1, 1,
                                            (1.0, 1e300))

    def test_divergence_ignores_the_sign_of_t(self):
        # t = -4 was measured on the t = 0.25 grids (N = 256 and 1024
        # instead of 1024 and 4096) and read 7.87 and 15.76; |V| of the
        # conjugate chirp is |V| mirrored in frequency, so the values agree
        boxes = (16.0, 32.0)
        neg = verify.verify_m_inf_1_divergence(-4.0, boxes)
        pos = verify.verify_m_inf_1_divergence(4.0, boxes)
        np.testing.assert_allclose(neg.values, pos.values, rtol=1e-12, atol=0.0)
        assert neg.growth_factors[0] >= 1.5

    def test_divergence_grid_cap(self, monkeypatch):
        # l_list = 16, 1e6 picked N = 2^39 for the second box and failed to
        # allocate 4 TiB; every box's grid is now derived before any pass
        assert verify._divergence_grid(128.0, 4.0).N == verify.DIVERGENCE_MAX_N == 65536
        with pytest.raises(ParameterError, match="box L = 256 needs an N = 262144 grid"):
            verify._divergence_grid(256.0, 4.0)

        def no_pass(grid, t):
            raise AssertionError("a pass started")

        monkeypatch.setattr(verify, "chirp_field", no_pass)
        with pytest.raises(ParameterError, match="box L = 1e\\+06 needs an N = 549755813888"):
            verify.verify_m_inf_1_divergence(1.0, (16.0, 1e6))
        with pytest.raises(ParameterError, match="box L = 16 needs an N = inf grid"):
            verify.verify_m_inf_1_divergence(1e300, (16.0, 32.0))

    def test_divergence_t_zero_flat(self):
        rep = verify.verify_m_inf_1_divergence(0.0, (16.0, 32.0))
        # constant symbol: no ridge, the boxed norm saturates instead of growing
        assert rep.values[1] / rep.values[0] < 1.5
