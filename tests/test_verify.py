"""Experiment drivers: oracles, report plumbing, and edge-case handling."""

import math

import numpy as np
import pytest

from tfmult.core import ParameterError, make_grid, sample
from tfmult.mult import symbol_unimodular
from tfmult.tf import gaussian_window
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
    phase_smoothness_probe,
    taylor_remainder_probe,
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


class TestDyadicSeries:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            dyadic_fl1_series(0.0)
        with pytest.raises(ParameterError):
            dyadic_fl1_series(1.0, K=5)

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


class TestSmoothnessProbes:
    def test_taylor_remainder_quadratic_phase(self):
        grid = make_grid(1, 16.0, 1024)
        rep = taylor_remainder_probe(lambda xi: xi ** 2, 2.0, grid)
        assert rep.ok
        assert np.isclose(rep.curvature_bound, 2.0, rtol=1e-6)

    def test_taylor_remainder_alpha_phase(self):
        grid = make_grid(1, 16.0, 1024)
        rep = taylor_remainder_probe(lambda xi: np.abs(xi) ** 1.5, 3.0, grid,
                                     support_radius=2.0)
        assert rep.ok

    def test_phase_smoothness_monomial(self):
        # mu = xi^3 on [1, 4]: sup|mu''| = 24, sup|mu'''| = 6
        sups = phase_smoothness_probe(lambda xi: xi ** 3, order_max=3)
        assert np.isclose(sups[2], 24.0, rtol=1e-6)
        assert np.isclose(sups[3], 6.0, rtol=1e-6)

    def test_phase_smoothness_rejects_low_order(self):
        with pytest.raises(ParameterError):
            phase_smoothness_probe(lambda xi: xi, order_max=1)


class TestProbesAndContrast:
    def test_fresnel_oracle_matches_measurement(self):
        rep = verify.lp_contrast_probe(0.5, (1.0, 4.0))
        for measured, predicted in zip(rep.l1_ratios, rep.l1_oracle):
            assert abs(measured - predicted) / predicted < 1e-6

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

    def test_divergence_t_zero_flat(self):
        rep = verify.verify_m_inf_1_divergence(0.0, (16.0, 32.0))
        # constant symbol: no ridge, the boxed norm saturates instead of growing
        assert rep.values[1] / rep.values[0] < 1.5
