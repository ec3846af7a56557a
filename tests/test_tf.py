"""STFT correctness, window machinery, and mixed-norm reductions."""

import numpy as np
import pytest

from tfmult.core import ParameterError, SampledField, l2_norm, make_grid, sample
from tfmult.tf import (
    amalgam_norm_wfl1,
    annulus_psi,
    bump_chi,
    chi_profile,
    custom_window,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    m_inf_1_norm,
    mixed_norm,
    modulation_norm,
    modulation_norms_multi,
    psi_profile,
    resample_window,
    stft,
)


class TestProfiles:
    def test_chi_plateau_and_support(self):
        rho = np.array([0.0, 0.5, 1.0, 2.0, 2.5, 10.0])
        chi = chi_profile(rho)
        assert np.allclose(chi[:3], 1.0)
        assert np.allclose(chi[3:], 0.0)

    def test_chi_scalar(self):
        assert chi_profile(0.5) == 1.0
        assert 0.0 < chi_profile(1.5) < 1.0

    def test_chi_smooth_transition_monotone(self):
        rho = np.linspace(1.0, 2.0, 101)
        chi = chi_profile(rho)
        assert np.all(np.diff(chi) <= 1e-12)

    def test_psi_support_annulus(self):
        rho = np.array([0.5, 0.99, 1.5, 3.0, 4.01, 8.0])
        psi = psi_profile(rho)
        assert psi[0] == 0.0 and psi[1] == 0.0
        assert psi[2] > 0.0 and psi[3] > 0.0
        assert psi[4] == 0.0 and psi[5] == 0.0

    def test_psi_telescoping_partition(self):
        # sum_{j=1..J} psi(2^j rho) converges to chi(rho) pointwise
        rho = np.linspace(0.01, 2.0, 301)
        total = sum(psi_profile(2.0 ** j * rho) for j in range(1, 20))
        assert np.max(np.abs(total - chi_profile(rho))) < 1e-12


class TestWindows:
    def test_gaussian_window_normalization(self):
        g = make_grid(1, 16.0, 512)
        w = gaussian_window(g)
        mid = g.N // 2
        assert np.isclose(w.field.values[mid], 1.0)

    def test_resample_analytic(self):
        g = make_grid(1, 16.0, 512)
        g2 = make_grid(1, 16.0, 256)
        w2 = resample_window(gaussian_window(g), g2)
        direct = gaussian_window(g2)
        assert np.allclose(w2.field.values, direct.field.values)

    def test_resample_custom_coarsen(self):
        g = make_grid(1, 16.0, 512)
        w = custom_window(sample(lambda x: np.exp(-x ** 4), g))
        w2 = resample_window(w, make_grid(1, 16.0, 256))
        assert np.allclose(w2.field.values, w.field.values[::2])

    def test_bump_and_annulus_windows(self):
        g = make_grid(1, 16.0, 512)
        assert np.max(np.abs(bump_chi(g).field.values)) == 1.0
        psi_vals = annulus_psi(g).field.values
        x = g.axis_positions()
        assert np.all(np.abs(psi_vals[np.abs(x) < 1.0]) == 0.0)


class TestStft:
    def test_gaussian_pair_closed_form(self):
        # V_g g(x, w) = 2^{-1/2} e^{-pi(x^2+w^2)/2} e^{-pi i x w} for g = e^{-pi t^2}
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda t: np.exp(-np.pi * t ** 2), grid)
        V = stft(f, gaussian_window(grid))
        xs = grid.axis_positions()
        oms = grid.axis_frequencies()
        keep_x = np.abs(xs) <= 4.0
        keep_w = np.abs(oms) <= 4.0
        sub = np.abs(V.values)[np.ix_(keep_x, keep_w)]
        X = xs[keep_x][:, None]
        W = oms[keep_w][None, :]
        oracle = 2.0 ** -0.5 * np.exp(-np.pi * (X ** 2 + W ** 2) / 2.0)
        assert np.max(np.abs(sub - oracle)) < 1e-12

    def test_stride_subsamples_rows(self):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda t: np.exp(-np.pi * t ** 2), grid)
        g = gaussian_window(grid)
        full = stft(f, g)
        strided = stft(f, g, stride=4)
        assert strided.values.shape[0] == full.values.shape[0] // 4
        assert np.allclose(strided.values, full.values[::4])

    def test_2d_matches_separable_product(self):
        grid2 = make_grid(2, 8.0, 32)
        grid1 = make_grid(1, 8.0, 32)
        f2 = sample(lambda x, y: np.exp(-np.pi * (x ** 2 + y ** 2)), grid2)
        f1 = sample(lambda x: np.exp(-np.pi * x ** 2), grid1)
        V2 = stft(f2, gaussian_window(grid2))
        V1 = stft(f1, gaussian_window(grid1)).values
        # separable input and window: |V2| factorizes across the two axes
        a = np.abs(V2.values).reshape(32, 32, 32, 32)
        b = np.abs(V1)[:, None, :, None] * np.abs(V1)[None, :, None, :]
        assert np.max(np.abs(a - b)) < 1e-10


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.npoints
    return SampledField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))


class TestRowColumn2D:
    """The tensor-product (row-column) path against the per-position path."""

    def test_gaussian_carries_factors(self):
        grid = make_grid(2, 8.0, 32)
        w = gaussian_window(grid)
        assert np.array_equal(w.field.reshaped(), np.outer(*w.factors))
        assert resample_window(w, make_grid(2, 8.0, 16)).factors is not None
        assert custom_window(w.field).factors is None
        assert bump_chi(grid).factors is None

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_stft_matches_per_position(self, N, stride):
        grid = make_grid(2, 8.0, N)
        f = _random_field(grid, N + stride)
        g = gaussian_window(grid)
        a = stft(f, g, stride)
        b = stft(f, custom_window(g.field), stride)
        assert np.array_equal(a.position_indices, b.position_indices)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("quarter_box", [False, True])
    def test_norms_match_per_position(self, N, stride, quarter_box):
        grid = make_grid(2, 8.0, N)
        f = _random_field(grid, N + stride)
        g = gaussian_window(grid)
        c = custom_window(g.field)
        hw = grid.L / 4.0 if quarter_box else None
        for norm in (amalgam_norm_wfl1, m_1_inf_norm, m_inf_1_norm):
            a = norm(f, g, stride=stride, position_halfwidth=hw, refine=False).value
            b = norm(f, c, stride=stride, position_halfwidth=hw, refine=False).value
            assert np.isclose(a, b, rtol=1e-12, atol=0.0), norm.__name__
        if not quarter_box:
            for p in (1, 2):
                a = modulation_norm(f, g, p, p, stride=stride, refine=False).value
                b = modulation_norm(f, c, p, p, stride=stride, refine=False).value
                assert np.isclose(a, b, rtol=1e-12, atol=0.0), p

    def test_moyal_2d(self):
        # ||V_g f||_{L2} = ||f||_2 ||g||_2, exact on the lattice
        grid = make_grid(2, 8.0, 32)
        f = _random_field(grid, 5)
        g = gaussian_window(grid)
        val = modulation_norm(f, g, 2, 2, refine=False).value
        assert np.isclose(val, l2_norm(f) * l2_norm(g.field), rtol=1e-10, atol=0.0)


class TestMixedNorms:
    def test_p2_q2_equals_l2_product(self):
        # ||V_g f||_{L2} = ||f||_2 ||g||_2 (orthogonality relations)
        grid = make_grid(1, 16.0, 512)
        rng = np.random.default_rng(3)
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        g = gaussian_window(grid)
        val = modulation_norm(f, g, 2, 2, refine=False).value
        assert np.isclose(val, l2_norm(f) * l2_norm(g.field), rtol=1e-10)

    @pytest.mark.parametrize("p,q", [(1, 1), (1, np.inf), (np.inf, 1), (2, 2)])
    def test_multi_matches_single(self, p, q):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2) * np.cos(x), grid)
        g = gaussian_window(grid)
        multi = modulation_norms_multi(f, g, [(p, q)])
        single = modulation_norm(f, g, p, q, refine=False).value
        assert np.isclose(multi[(p, q)], single, rtol=1e-12)

    def test_rejects_bad_exponent(self):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        with pytest.raises(ParameterError):
            modulation_norm(f, gaussian_window(grid), 0.5, 1)

    def test_gaussian_modulation_norm_scaling(self):
        # ||g||_{M^{1,1}} with g = e^{-pi x^2}: V has |V|(x,w) = 2^{-1/2}
        # e^{-pi(x^2+w^2)/2}, so the (1,1) norm is 2^{-1/2} * 2 = sqrt(2)
        grid = make_grid(1, 32.0, 1024)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        val = modulation_norm(f, gaussian_window(grid), 1, 1, refine=False).value
        assert np.isclose(val, np.sqrt(2.0), rtol=1e-8)

    def test_fl1_gaussian(self):
        grid = make_grid(1, 32.0, 2048)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        rep = fl1_norm(f)
        assert np.isclose(rep.value, 1.0, atol=1e-10)
        assert rep.refinement_estimate < 1e-8

    def test_constant_field_amalgam(self):
        # f = 1: V_g f(x, w) = conj(ghat)(w) up to phase, so the W(FL1)
        # norm is ||ghat||_1 = 1 for the normalized Gaussian window
        grid = make_grid(1, 16.0, 1024)
        f = sample(lambda x: np.ones_like(x, dtype=complex), grid)
        val = amalgam_norm_wfl1(f, gaussian_window(grid),
                                position_halfwidth=grid.L / 4.0).value
        assert np.isclose(val, 1.0, rtol=1e-8)

    def test_m_inf_1_vs_m_1_inf_orders(self):
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        a = m_inf_1_norm(f, g, refine=False).value
        b = m_1_inf_norm(f, g, refine=False).value
        # for the Gaussian both equal 2^{-1/2} * integral of a Gaussian slice
        assert np.isclose(a, b, rtol=1e-8)
        assert np.isclose(a, 1.0, rtol=1e-6)

    def test_refinement_estimate_small_for_smooth(self):
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        rep = modulation_norm(f, gaussian_window(grid), 1, 1, refine=True)
        assert rep.refinement_estimate is not None
        assert rep.refinement_estimate < 1e-6
