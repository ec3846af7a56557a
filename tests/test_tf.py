"""STFT correctness, window machinery, and mixed-norm reductions."""

import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from tfmult import core, tf
from tfmult.core import ParameterError, SampledField, centered_fft, l2_norm, make_grid, sample
from tfmult.tf import (
    _CHUNK_BYTES,
    FREQUENCIES_INNER,
    POSITIONS_INNER,
    _norms,
    amalgam_norm_wfl1,
    annulus_psi,
    bump_chi,
    chi_profile,
    custom_window,
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
from tfmult.verify import _divergence_grid, chirp_field


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
        # one pass over all four pairs does the same arithmetic as one pass
        # per pair; (1, 1) and (1, inf) share the p = 1 accumulator
        pairs = [(1.0, 1.0), (2.0, 2.0), (np.inf, 1.0), (1.0, np.inf)]
        specs = [(a, b, POSITIONS_INNER) for a, b in pairs]
        specs.append((1.0, np.inf, FREQUENCIES_INNER))
        for grid in (make_grid(1, 16.0, 256), make_grid(2, 8.0, 32)):
            f = sample(lambda *xs: np.exp(-np.pi * sum(x ** 2 for x in xs))
                       * np.cos(xs[0]), grid)
            g = gaussian_window(grid)
            single = modulation_norm(f, g, p, q, refine=False).value
            assert modulation_norms_multi(f, g, pairs)[(p, q)] == single
            wfl1 = amalgam_norm_wfl1(f, g, refine=False).value
            vals = _norms(f, g, specs)
            assert vals[pairs.index((p, q))] == single
            assert vals[-1] == wfl1
            # the frequencies-inner value against the materialized STFT
            A = np.abs(stft(f, g).values)
            direct = np.max(np.sum(A, axis=1)) * grid.dxi ** grid.d
            assert np.isclose(wfl1, direct, rtol=1e-14, atol=0.0)

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

    def test_streamed_norm_peak_memory(self):
        # one streamed chunk of the N = 4096 divergence grid is _CHUNK_BYTES of
        # V; the previous chunk's V and gather block must be freed before the
        # next chunk is gathered, or the peak reaches 4.5 chunks
        grid = _divergence_grid(64.0, 1.0)
        assert grid.N == 4096
        f = chirp_field(grid, 1.0)
        g = gaussian_window(grid)
        tf._release_spares()  # a cold pass: no spare buffer to reuse
        tracemalloc.start()
        try:
            m_inf_1_norm(f, g, position_halfwidth=grid.L / 4, refine=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _CHUNK_BYTES

    @pytest.mark.parametrize("case", ["1d_m_inf_1", "2d_bump_wfl1"])
    def test_reused_chunk_buffers_peak_memory(self, case):
        # a pass holds one chunk of V (transformed in place) and one real |V|
        # buffer; a fresh gather, product or |V| per chunk pushes the peak
        # past two chunks
        if case == "1d_m_inf_1":
            grid = _divergence_grid(64.0, 1.0)
            assert grid.N == 4096
            f, g = chirp_field(grid, 1.0), gaussian_window(grid)

            def norm():
                m_inf_1_norm(f, g, position_halfwidth=grid.L / 4, refine=False)
        else:
            grid = make_grid(2, 16.0, 64)
            f, g = chirp_field(grid, 1.0), bump_chi(grid)

            def norm():
                amalgam_norm_wfl1(f, g, stride=2, refine=False)
        tf._release_spares()  # a cold pass: no spare buffer to reuse
        tracemalloc.start()
        try:
            norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _CHUNK_BYTES

    def test_overflow_raises(self):
        grid = make_grid(1, 32.0, 1024)
        f = sample(lambda x: 1e200 * np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        with np.errstate(over="ignore"), pytest.raises(ParameterError, match=r"\(2, 2\)"):
            modulation_norm(f, g, 2, 2, refine=False)
        val = modulation_norm(f, g, 1, 1, refine=False).value
        assert val == 1.4142135623730956e+200


def _reference_rows(f, g, flat_idx):
    """V_g f at the given flat positions, one position at a time, no chunk buffer."""
    grid = f.grid
    N, dx = grid.N, grid.dx
    fv = f.reshaped()
    if grid.d == 1:
        return np.stack([centered_fft(fv * np.conj(np.roll(g.field.values, j - N // 2)), 1, dx)
                         for j in flat_idx])
    rows = []
    for i, j in (divmod(int(n), N) for n in flat_idx):
        if g.factors is None:
            gv = np.roll(g.field.reshaped(), (i - N // 2, j - N // 2), axis=(0, 1))
            rows.append(centered_fft(fv * np.conj(gv), 2, dx).reshape(-1))
        else:
            g0, g1 = g.factors
            H = centered_fft(np.ascontiguousarray(fv.T) * np.conj(np.roll(g0, i - N // 2)), 1, dx)
            H = np.ascontiguousarray(H.T)
            rows.append(centered_fft(H * np.conj(np.roll(g1, j - N // 2)), 1, dx).reshape(-1))
    return np.stack(rows)


class TestReusedChunkBuffers:
    """Small chunk sizes, so every pass reuses its buffers and ends on a partial chunk."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("halfwidth", [None, 2.0])
    def test_chunks_match_per_position_reference(self, monkeypatch, window, stride,
                                                 halfwidth):
        d = 1 if window.endswith("1d") else 2
        grid = make_grid(d, 8.0, 64 if d == 1 else 32)
        # 5 positions per windowed chunk, 3 columns per row-column block
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_ROW_COLUMN_CHUNK_BYTES", 3 * 16 * grid.npoints)
        rng = np.random.default_rng(5 + d + stride)
        f = SampledField(grid, rng.standard_normal(grid.npoints)
                         + 1j * rng.standard_normal(grid.npoints))
        g = bump_chi(grid) if window == "bump_2d" else gaussian_window(grid)
        chunks = [(js.copy(), V.copy()) for js, V in tf._stft_chunks(f, g, stride, halfwidth)]
        js = np.concatenate([c[0] for c in chunks])
        assert np.array_equal(np.concatenate([c[1] for c in chunks]),
                              _reference_rows(f, g, js))
        if halfwidth is None:
            naxis = len(range(0, grid.N, stride))
            assert naxis ** d % 5 and naxis % 3  # partial last chunks
            assert np.array_equal(js, np.arange(grid.npoints).reshape(grid.shape)[
                (slice(None, None, stride),) * d].reshape(-1))
            assert np.array_equal(stft(f, g, stride).values, _reference_rows(f, g, js))

    @pytest.mark.parametrize("stride,halfwidth", [(0, None), (1.5, None), (1, -1.0)])
    def test_rejects_empty_or_fractional_position_grid(self, stride, halfwidth):
        grid = make_grid(1, 16.0, 64)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        with pytest.raises(ParameterError):
            m_inf_1_norm(f, g, stride, halfwidth, refine=False)
        with pytest.raises(ParameterError):
            amalgam_norm_wfl1(f, g, stride, halfwidth, refine=False)


# (1, 1), (2, 1), (inf, 1) and (1, inf), each in both orders
SPECS = [(p, q, order) for p, q in [(1.0, 1.0), (2.0, 1.0), (np.inf, 1.0), (1.0, np.inf)]
         for order in (POSITIONS_INNER, FREQUENCIES_INNER)]


def _case(window, L=8.0, seed=0):
    d = 1 if window.endswith("1d") else 2
    grid = make_grid(d, L, 64 if d == 1 else 32)
    g = bump_chi(grid) if window == "bump_2d" else gaussian_window(grid)
    return _random_field(grid, seed), g


def _reference_norms(f, g, specs, stride, halfwidth):
    """The specs reduced from np.abs(stft(...).values), position sums chunk by chunk.

    Positions-inner sums run down each frequency column in the order and
    with the chunk boundaries of ``_stft_chunks``; frequencies-inner ones
    along each row.  |V|^p is ``np.power`` and the roots are ``**``, as in
    ``_norms``.
    """
    grid = f.grid
    S = stft(f, g, stride)
    keep = np.ones(S.position_indices.size, dtype=bool)
    if halfwidth is not None:
        for axis_index in np.unravel_index(S.position_indices, grid.shape):
            keep &= np.abs(grid.axis_positions()[axis_index]) <= halfwidth
    A = np.abs(S.values[keep])
    sizes = [len(js) for js, _ in tf._stft_chunks(f, g, stride, halfwidth)]
    chunks = np.split(A, np.cumsum(sizes)[:-1])
    wx, wxi = (grid.dx * stride) ** grid.d, grid.dxi ** grid.d

    def lp(a, p, w, axis):
        if p == np.inf:
            return np.max(a, axis=axis)
        return (np.sum(np.power(a, p), axis=axis) * w) ** (1.0 / p)

    values = []
    for p, q, order in specs:
        if order == FREQUENCIES_INNER:
            values.append(float(lp(lp(A, p, wxi, 1), q, wx, None)))
            continue
        if p == np.inf:
            inner = A.max(axis=0)
        else:
            s = np.zeros(grid.npoints)
            for c in chunks:
                s = s + np.sum(np.power(c, p), axis=0)
            inner = (s * wx) ** (1.0 / p)
        values.append(float(lp(inner, q, wxi, None)))
    return values


class TestSignFreeModulus:
    """The norms read |V| from the sign-free path; stft() keeps the signed one."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("L", [8.0, 9.0, 17.66])
    @pytest.mark.parametrize("stride,quarter_box", [(1, False), (3, True)])
    def test_matches_abs_of_stft(self, window, L, stride, quarter_box):
        f, g = _case(window, L, seed=int(L) + stride)
        grid = f.grid
        hw = grid.L / 4.0 if quarter_box else None
        rows = np.concatenate([A.copy() for _, A in tf._stft_chunks(f, g, stride, hw, True)])
        V = np.concatenate([V.copy() for _, V in tf._stft_chunks(f, g, stride, hw)])
        signed = np.abs(V)
        got = _norms(f, g, SPECS, stride, hw)
        want = _reference_norms(f, g, SPECS, stride, hw)
        if L == 8.0:  # dx = 1/8 or 1/4: scaling |V| by dx^d is exact
            assert np.array_equal(rows, signed)
            assert got == want
        else:
            np.testing.assert_allclose(rows, signed, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)


class TestTwoWorkers:
    """Splitting every chunk stage over two threads changes no bit."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("quarter_box", [False, True])
    def test_matches_one_worker(self, monkeypatch, split_workers, window, stride,
                                quarter_box):
        f, g = _case(window, seed=stride)
        grid = f.grid
        # odd sizes: 5 positions per windowed chunk, 3 columns per row-column block
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_ROW_COLUMN_CHUNK_BYTES", 3 * 16 * grid.npoints)
        hw = grid.L / 4.0 if quarter_box else None
        runs = []
        for workers in (1, 2):
            with split_workers(workers):
                chunks = [(js.copy(), V.copy()) for modulus in (False, True)
                          for js, V in tf._stft_chunks(f, g, stride, hw, modulus)]
                runs.append((chunks, _norms(f, g, SPECS, stride, hw)))
                assert (core._pool[1] is not None) == (workers == 2)
        (chunks1, norms1), (chunks2, norms2) = runs
        assert len(chunks1) == len(chunks2)
        for (js1, V1), (js2, V2) in zip(chunks1, chunks2):
            assert np.array_equal(js1, js2) and np.array_equal(V1, V2)
        assert norms1 == norms2


class TestSpareBuffers:
    """Passes reuse the spare chunk buffers of earlier passes; concurrent ones do not."""

    @staticmethod
    def _small_chunks(monkeypatch, grid):
        # 5 positions per windowed chunk, 3 columns per row-column block
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_ROW_COLUMN_CHUNK_BYTES", 3 * 16 * grid.npoints)

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("modulus", [False, True])
    def test_consecutive_passes_share_buffers(self, monkeypatch, window, modulus):
        f, g = _case(window)
        self._small_chunks(monkeypatch, f.grid)
        tf._release_spares()
        passes = []
        for _ in range(3):
            chunks = tf._stft_chunks(f, g, 1, None, modulus)
            first = next(chunks)[1]
            passes.append((first, [first.copy()] + [V.copy() for _, V in chunks]))
        (cold_view, cold), (warm_view, warm), (_, warmer) = passes
        assert np.shares_memory(cold_view, warm_view)
        for rows in (warm, warmer):
            assert len(rows) == len(cold) > 1
            assert all(np.array_equal(a, b) for a, b in zip(rows, cold))

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    def test_interleaved_passes_get_their_own_buffers(self, monkeypatch, window):
        f, g = _case(window)
        self._small_chunks(monkeypatch, f.grid)
        tf._norms(f, g, SPECS)  # leaves spares of every role
        one, two = (tf._stft_chunks(f, g, 1, None, True) for _ in range(2))
        n = 0
        for (js1, A1), (js2, A2) in zip(one, two):
            assert not np.shares_memory(A1, A2)
            assert np.array_equal(js1, js2) and np.array_equal(A1, A2)
            n += 1
        assert n > 1

    def test_nested_pass_keeps_the_outer_rows(self, monkeypatch):
        f, g = _case("gaussian_1d")
        self._small_chunks(monkeypatch, f.grid)
        want = _norms(f, g, SPECS)
        outer = tf._stft_chunks(f, g, 1, None, True)
        _, A = next(outer)
        before = A.copy()
        assert _norms(f, g, SPECS) == want
        assert np.array_equal(A, before)
        outer.close()

    def test_closed_partly_read_pass_returns_its_buffers(self, monkeypatch):
        f, g = _case("gaussian_2d")
        self._small_chunks(monkeypatch, f.grid)
        tf._release_spares()
        chunks = tf._stft_chunks(f, g, 1, None, True)
        _, A = next(chunks)
        assert not tf._spares
        chunks.close()
        assert set(tf._spares) == {"chunk", "modulus", "H", "HT"}
        assert np.shares_memory(tf._spares["modulus"], A)

    def test_larger_pass_drops_every_spare(self):
        small, g = _case("gaussian_2d")
        _norms(small, g, SPECS)
        assert set(tf._spares) >= {"chunk", "modulus", "power", "H", "HT"}
        old = dict(tf._spares)
        big = make_grid(2, 8.0, 2 * small.grid.N)
        chunks = tf._stft_chunks(_random_field(big, 1), gaussian_window(big), 1, None, True)
        next(chunks)
        assert not tf._spares  # "power", unused by this pass, went too
        chunks.close()
        assert not any(np.shares_memory(tf._spares[r], old[r]) for r in tf._spares)

    def test_stft_leaves_no_spare(self):
        f, g = _case("gaussian_1d")
        _norms(f, g, SPECS)
        assert set(tf._spares) >= {"chunk", "modulus", "power"}
        stft(f, g)
        assert tf._spares == {}

    def test_warm_pass_allocates_no_chunk(self):
        grid = _divergence_grid(64.0, 1.0)
        assert grid.N == 4096
        f, g = chirp_field(grid, 1.0), gaussian_window(grid)

        def norm():
            return m_inf_1_norm(f, g, position_halfwidth=grid.L / 4, refine=False).value

        want = norm()
        tracemalloc.start()
        try:
            assert norm() == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _CHUNK_BYTES // 16

    def test_threads_give_equal_norms(self, monkeypatch):
        # more threads than cores, switching often: two passes that got the
        # same spare would overwrite each other's rows
        f, g = _case("gaussian_2d")
        self._small_chunks(monkeypatch, f.grid)
        want = _norms(f, g, SPECS)
        nthreads = 4
        start = threading.Barrier(nthreads)
        got = [[] for _ in range(nthreads)]

        def run(k):
            start.wait(10)
            for _ in range(10):
                got[k].append(_norms(f, g, SPECS))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(nthreads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want] * 10] * nthreads

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_forked_child_can_run_a_pass(self):
        # the child inherits the store, but not the thread that holds its lock
        f, g = _case("gaussian_1d")
        want = _norms(f, g, SPECS)
        ctx = multiprocessing.get_context("fork")
        with tf._spares_lock:
            child = ctx.Process(target=_norms_in_child, args=(f, g, want))
            child.start()
        child.join(30)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
        assert not hung and child.exitcode == 0


def _norms_in_child(f, g, want):
    os._exit(0 if _norms(f, g, SPECS) == want else 1)
