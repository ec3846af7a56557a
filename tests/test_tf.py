"""STFT correctness, window machinery, and mixed-norm reductions."""

import inspect
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from tfmult import core, mult, tf, verify
from tfmult.core import (ParameterError, SampledField, centered_fft, chi_profile, l2_norm,
                         make_grid, psi_profile, radial_field, sample)
from tfmult.tf import (
    _CHUNK_BYTES,
    FREQUENCIES_INNER,
    POSITIONS_INNER,
    _norms,
    amalgam_norm_wfl1,
    bump_chi,
    coarsen_window,
    custom_window,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    m_inf_1_norm,
    modulation_norm,
    modulation_norms_multi,
    refinement,
    stft,
)
from tfmult.verify import (_chirp_stft_region, _divergence_grid, _m1inf_grid_2d, chirp_field,
                           verify_chirp_stft)


def _annulus(grid):
    """The annular window psi(|x|), a sampled window that vanishes near the origin."""
    return custom_window(radial_field(grid, psi_profile))


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
        w2 = coarsen_window(gaussian_window(g))
        direct = gaussian_window(g2)
        assert np.allclose(w2.field.values, direct.field.values)

    def test_resample_custom_coarsen(self):
        g = make_grid(1, 16.0, 512)
        w = custom_window(sample(lambda x: np.exp(-x ** 4), g))
        w2 = coarsen_window(w)
        assert np.allclose(w2.field.values, w.field.values[::2])

    @pytest.mark.parametrize("make", [gaussian_window, bump_chi, _annulus])
    @pytest.mark.parametrize("d,N", [(1, 16), (1, 64), (1, 256), (1, 2048),
                                     (2, 16), (2, 64), (2, 256)])
    def test_coarsening_is_the_window_rebuilt_on_the_half_grid(self, make, d, N):
        # the one coarsening rule, subsampling, replaced rebuilding each
        # analytic window on the half grid: the bits must be the same
        def bits(w):
            return w.field.values.view(np.uint64)

        for L in (0.001, 0.7, 1.0, 3.0, 12.345, 16.0, 32.0, 100.0):
            w = make(make_grid(d, L, N))
            half, rebuilt = coarsen_window(w), make(core.half_grid(w.grid))
            assert half.grid == rebuilt.grid
            assert np.array_equal(bits(half), bits(rebuilt)), (L, N)
            if w.factors is not None:
                assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                           for a, b in zip(half.factors, rebuilt.factors))

    def test_2d_gaussian_keeps_no_samples(self):
        # the window stored the N^d outer product of its factors: 16 MiB here
        grid = make_grid(2, 16.0, 1024)
        tracemalloc.start()
        try:
            w = gaussian_window(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert w.samples is None and [g.shape for g in w.factors] == [(1024,), (1024,)]

    def test_bump_and_annulus_windows(self):
        g = make_grid(1, 16.0, 512)
        assert np.max(np.abs(bump_chi(g).field.values)) == 1.0
        psi_vals = _annulus(g).field.values
        x = g.axis_positions()
        assert np.all(np.abs(psi_vals[np.abs(x) < 1.0]) == 0.0)


def _gaussian_pair(x, w):
    """V_g g(x, w) = 2^{-1/2} e^{-pi(x^2+w^2)/2} e^{-pi i x w} for g = e^{-pi t^2}."""
    return 2.0 ** -0.5 * np.exp(-np.pi * (x ** 2 + w ** 2) / 2.0) * np.exp(-1j * np.pi * x * w)


class TestStft:
    def test_gaussian_pair_closed_form(self):
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda t: np.exp(-np.pi * t ** 2), grid)
        V = stft(f, gaussian_window(grid))
        xs = grid.axis_positions()
        oms = grid.axis_frequencies()
        keep_x = np.abs(xs) <= 4.0
        keep_w = np.abs(oms) <= 4.0
        sub = V.values[np.ix_(keep_x, keep_w)]
        oracle = _gaussian_pair(xs[keep_x][:, None], oms[keep_w][None, :])
        # the phase too: the conjugate convention misses by 0.46
        assert np.max(np.abs(sub - oracle)) < 1e-12

    def test_gaussian_pair_closed_form_2d(self):
        # the row-column path: V_g g is the tensor product of the 1D form.
        # Every 4th position keeps the matrix at 16 MiB.
        grid = make_grid(2, 8.0, 64)
        f = sample(lambda x, y: np.exp(-np.pi * (x ** 2 + y ** 2)), grid)
        V = stft(f, gaussian_window(grid), stride=4)
        xs = grid.axis_positions()[::4]
        oms = grid.axis_frequencies()
        keep_x = np.abs(xs) <= grid.L / 4
        keep_w = np.abs(oms) <= grid.L / 4
        sub = V.values.reshape(xs.size, xs.size, grid.N, grid.N)[
            np.ix_(keep_x, keep_x, keep_w, keep_w)]
        X, W = xs[keep_x], oms[keep_w]
        oracle = (_gaussian_pair(X[:, None, None, None], W[None, None, :, None])
                  * _gaussian_pair(X[None, :, None, None], W[None, None, None, :]))
        assert np.max(np.abs(sub - oracle)) < 1e-10

    def test_stride_subsamples_rows(self):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda t: np.exp(-np.pi * t ** 2), grid)
        g = gaussian_window(grid)
        full = stft(f, g)
        strided = stft(f, g, stride=4)
        assert strided.values.shape[0] == full.values.shape[0] // 4
        assert np.allclose(strided.values, full.values[::4])

    def test_cold_stft_holds_only_its_matrix(self):
        # the matrix is transformed in place: a chunk buffer beside it, as
        # the 1D N = 2048 matrix once had, doubles the peak
        grid = make_grid(1, 32.0, 2048)
        f, g = chirp_field(grid, 1.0), gaussian_window(grid)
        tf._release_spares()
        tracemalloc.start()
        try:
            V = stft(f, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.values.nbytes == 64 << 20
        assert peak <= 68 << 20

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
        assert coarsen_window(w).factors is not None
        assert custom_window(w.field).factors is None
        assert bump_chi(grid).factors is None

    @pytest.mark.parametrize("N", [32, 64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_stft_matches_per_position(self, N, stride):
        grid = make_grid(2, 8.0, N)
        f = _random_field(grid, N + stride)
        g = gaussian_window(grid)
        a = stft(f, g, stride)
        assert np.array_equal(a.position_indices, _selected_positions(grid, stride, None))
        b = _reference_rows(f, g, a.position_indices)
        assert np.max(np.abs(a.values - b)) <= 1e-12 * np.max(np.abs(b))

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
            a = norm(f, g, stride=stride, position_halfwidth=hw)
            b = norm(f, c, stride=stride, position_halfwidth=hw)
            assert np.isclose(a, b, rtol=1e-12, atol=0.0), norm.__name__
        if not quarter_box:
            for p in (1, 2):
                a = modulation_norm(f, g, p, p, stride=stride)
                b = modulation_norm(f, c, p, p, stride=stride)
                assert np.isclose(a, b, rtol=1e-12, atol=0.0), p

    def test_moyal_2d(self):
        # ||V_g f||_{L2} = ||f||_2 ||g||_2, exact on the lattice
        grid = make_grid(2, 8.0, 32)
        f = _random_field(grid, 5)
        g = gaussian_window(grid)
        val = modulation_norm(f, g, 2, 2)
        assert np.isclose(val, l2_norm(f) * l2_norm(g.field), rtol=1e-10, atol=0.0)


class TestMixedNorms:
    def test_p2_q2_equals_l2_product(self):
        # ||V_g f||_{L2} = ||f||_2 ||g||_2 (orthogonality relations)
        grid = make_grid(1, 16.0, 512)
        rng = np.random.default_rng(3)
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        g = gaussian_window(grid)
        val = modulation_norm(f, g, 2, 2)
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
            single = modulation_norm(f, g, p, q)
            assert modulation_norms_multi(f, g, pairs)[(p, q)] == single
            wfl1 = amalgam_norm_wfl1(f, g)
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
        val = modulation_norm(f, gaussian_window(grid), 1, 1)
        assert np.isclose(val, np.sqrt(2.0), rtol=1e-8)

    def test_fl1_gaussian(self):
        grid = make_grid(1, 32.0, 2048)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        value = fl1_norm(f)
        assert np.isclose(value, 1.0, atol=1e-10)
        assert refinement([value], lambda h: [fl1_norm(h)], f)[0] < 1e-8

    def test_constant_field_amalgam(self):
        # f = 1: V_g f(x, w) = conj(ghat)(w) up to phase, so the W(FL1)
        # norm is ||ghat||_1 = 1 for the normalized Gaussian window
        grid = make_grid(1, 16.0, 1024)
        f = sample(lambda x: np.ones_like(x, dtype=complex), grid)
        val = amalgam_norm_wfl1(f, gaussian_window(grid),
                                position_halfwidth=grid.L / 4.0)
        assert np.isclose(val, 1.0, rtol=1e-8)

    def test_m_inf_1_vs_m_1_inf_orders(self):
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        a = m_inf_1_norm(f, g)
        b = m_1_inf_norm(f, g)
        # for the Gaussian both equal 2^{-1/2} * integral of a Gaussian slice
        assert np.isclose(a, b, rtol=1e-8)
        assert np.isclose(a, 1.0, rtol=1e-6)

    def test_refinement_estimate_small_for_smooth(self):
        grid = make_grid(1, 16.0, 512)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        (ref,) = refinement([modulation_norm(f, g, 1, 1)],
                            lambda h, gh: [modulation_norm(h, gh, 1, 1)], f, g)
        assert ref < 1e-6

    def test_norms_are_python_floats(self):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2) * np.cos(3.0 * x), grid)
        g = gaussian_window(grid)
        values = [modulation_norm(f, g, 1, 2), amalgam_norm_wfl1(f, g), m_inf_1_norm(f, g),
                  m_1_inf_norm(f, g), fl1_norm(f),
                  *modulation_norms_multi(f, g, [(1, 1), (2, 2), (np.inf, 1)]).values()]
        assert [type(v) for v in values] == [float] * 8

    def test_refine_only_false(self):
        grid = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        assert modulation_norm(f, g, 1, 1, refine=False) == modulation_norm(f, g, 1, 1)
        with pytest.raises(ParameterError, match="tf.refinement"):
            modulation_norm(f, g, 1, 1, refine=True)

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
            m_inf_1_norm(f, g, position_halfwidth=grid.L / 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * _CHUNK_BYTES

    @pytest.mark.parametrize("case", ["1d_m_inf_1", "2d_bump_wfl1"])
    def test_reused_chunk_buffers_peak_memory(self, case):
        # a pass holds at most one chunk of complex rows (one block on the |V|
        # path) and one real |V| buffer; a fresh gather, product or |V| per
        # chunk pushes the peak past two chunks
        if case == "1d_m_inf_1":
            grid = _divergence_grid(64.0, 1.0)
            assert grid.N == 4096
            f, g = chirp_field(grid, 1.0), gaussian_window(grid)

            def norm():
                m_inf_1_norm(f, g, position_halfwidth=grid.L / 4)
        else:
            grid = make_grid(2, 16.0, 64)
            f, g = chirp_field(grid, 1.0), bump_chi(grid)

            def norm():
                amalgam_norm_wfl1(f, g, stride=2)
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
            modulation_norm(f, g, 2, 2)
        val = modulation_norm(f, g, 1, 1)
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


def _pass_groups(grid, g, positions) -> list:
    """``positions`` (row-major) split into the chunks a norm pass reads |V| in.

    Windowed: chunks of ``tf._CHUNK_BYTES // (16 N^d)`` positions.
    Row-column: per position row, blocks of ``tf._BLOCK_BYTES // (16 N^2)``
    columns.
    """
    if not tf._row_column(g):
        rows = min(max(1, tf._CHUNK_BYTES // (16 * grid.npoints)), positions.size)
        return [positions[s : s + rows] for s in range(0, positions.size, rows)]
    ncols = np.unique(positions % grid.N).size
    cols = min(max(1, tf._BLOCK_BYTES // (16 * grid.npoints)), ncols)
    return [row[s : s + cols] for row in positions.reshape(-1, ncols)
            for s in range(0, ncols, cols)]


def _stft_rows(f, g, stride, halfwidth):
    """(positions, signed rows) of V_g f, kept to the positions with |x| <= halfwidth.

    Windowed: the rows of ``stft``.  Row-column: ``_reference_rows``, the
    signed rows of the row-column transform, which ``stft`` does not take.
    """
    if tf._row_column(g):
        js = _selected_positions(f.grid, stride, halfwidth)
        return js, _reference_rows(f, g, js)
    V = stft(f, g, stride)
    keep = np.isin(V.position_indices, _selected_positions(f.grid, stride, halfwidth))
    return V.position_indices[keep], V.values[keep]


def _signed_chunks(f, g, stride, halfwidth) -> list:
    """np.abs of ``_stft_rows``, in the chunks a norm pass reads."""
    js, V = _stft_rows(f, g, stride, halfwidth)
    groups = _pass_groups(f.grid, g, js)
    return list(zip(groups, np.split(np.abs(V), np.cumsum([len(c) for c in groups])[:-1])))


def _pass_rows(f, g, stride, halfwidth, views=None) -> list:
    """(positions, |V| rows) per step or block, copied, as a norm pass's ``reduce`` reads them.

    Both paths hand ``reduce(first, A, lo, hi)`` the |V| rows A of the step
    or block whose first position has ordinal ``first``, to read rows lo:hi.  Pieces
    of a step may finish in either order, so each is recorded with its
    ordinal first + lo and sorted, then joined per step.  The uncopied
    rows go to ``views`` when given.
    """
    views = [] if views is None else views
    pieces = []

    def reduce(first, A, lo, hi):
        views.append(A)
        pieces.append((first + lo, first, A[lo:hi].copy()))

    path = tf._row_column_sums if tf._row_column(g) else tf._windowed_sums
    path(f, g, stride, halfwidth, {}, None, reduce)
    steps = {}
    for _, first, rows in sorted(pieces, key=lambda piece: piece[0]):
        steps.setdefault(first, []).append(rows)
    positions = _selected_positions(f.grid, stride, halfwidth)
    return [(positions[first : first + sum(map(len, parts))], np.concatenate(parts))
            for first, parts in steps.items()]


def _as_chunks(steps, chunks) -> list:
    """``steps`` of (positions, rows) joined into the chunks of ``chunks``, in order.

    Steps are taken until they hold as many positions as the chunk, so a
    step that straddles a chunk boundary gives positions unequal to the
    chunk's.
    """
    steps, joined = list(steps), []
    for js, _ in chunks:
        parts = []
        while steps and sum(len(p) for p, _ in parts) < len(js):
            parts.append(steps.pop(0))
        joined.append((np.concatenate([p for p, _ in parts]),
                       np.concatenate([A for _, A in parts])))
    assert not steps
    return joined


def _modulus_chunks(f, g, stride, halfwidth) -> list:
    """(positions, |V| rows) per chunk of a norm pass, sign-free, without tf's buffers.

    Windowed: ``_chunk_buffer_rows``.  Row-column: H signed once per
    position row, as in ``_reference_rows``; each block of columns is H
    times the presigned g1's conj(T_x g1), made with np.roll, and goes
    through one ``centered_fft(..., modulus=)`` call.
    """
    if not tf._row_column(g):
        return list(_chunk_buffer_rows(f, g, stride, halfwidth))
    grid = f.grid
    N, dx = grid.N, grid.dx
    g0, g1 = g.factors
    g1 = core._presigned(g1, 1)
    fT = np.ascontiguousarray(f.reshaped().T)
    chunks, H, row = [], None, None
    for js in _pass_groups(grid, g, _selected_positions(grid, stride, halfwidth)):
        if js[0] // N != row:
            row = js[0] // N
            H = centered_fft(fT * np.conj(np.roll(g0, row - N // 2)), 1, dx)
            H = np.ascontiguousarray(H.T)
        block = np.stack([H * np.conj(np.roll(g1, j % N - N // 2)) for j in js])
        A = np.empty((len(js), grid.npoints))
        centered_fft(block, 1, dx, out=block, modulus=A.reshape(block.shape))
        chunks.append((js, A))
    return chunks


class TestReusedChunkBuffers:
    """Small chunk sizes, so every pass reuses its buffers and ends on a partial chunk."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("halfwidth", [None, 2.0])
    def test_chunks_match_per_position_reference(self, monkeypatch, window, stride,
                                                 halfwidth):
        d = 1 if window.endswith("1d") else 2
        grid = make_grid(d, 8.0, 64 if d == 1 else 32)
        # 5 positions per windowed chunk, 3 rows per block: a windowed |V| chunk
        # walks a full step and a short one, a row-column block has 3 columns
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)
        rng = np.random.default_rng(5 + d + stride)
        f = SampledField(grid, rng.standard_normal(grid.npoints)
                         + 1j * rng.standard_normal(grid.npoints))
        g = bump_chi(grid) if window == "bump_2d" else gaussian_window(grid)
        js, V = _stft_rows(f, g, stride, halfwidth)
        assert np.array_equal(js, _selected_positions(grid, stride, halfwidth))
        assert np.array_equal(V, _reference_rows(f, g, js))
        want = _modulus_chunks(f, g, stride, halfwidth)
        steps = _pass_rows(f, g, stride, halfwidth)
        assert max(len(js) for js, _ in steps) <= 3  # a step is one block, a chunk 5 rows
        chunks = _as_chunks(steps, want)
        assert len(chunks) == len(want) > 1
        for (js1, A1), (js2, A2) in zip(chunks, want):
            assert np.array_equal(js1, js2) and np.array_equal(A1, A2)
        if halfwidth is None:
            naxis = len(range(0, grid.N, stride))
            assert naxis ** d % 5 and naxis % 3  # partial last chunks

    @pytest.mark.parametrize("stride,halfwidth", [(0, None), (1.5, None), (1, -1.0)])
    def test_rejects_empty_or_fractional_position_grid(self, stride, halfwidth):
        grid = make_grid(1, 16.0, 64)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        g = gaussian_window(grid)
        with pytest.raises(ParameterError):
            m_inf_1_norm(f, g, stride, halfwidth)
        with pytest.raises(ParameterError):
            amalgam_norm_wfl1(f, g, stride, halfwidth)


# (1, 1), (2, 1), (inf, 1) and (1, inf), each in both orders
SPECS = [(p, q, order) for p, q in [(1.0, 1.0), (2.0, 1.0), (np.inf, 1.0), (1.0, np.inf)]
         for order in (POSITIONS_INNER, FREQUENCIES_INNER)]


def _case(window, L=8.0, seed=0):
    d = 1 if window.endswith("1d") else 2
    grid = make_grid(d, L, 64 if d == 1 else 32)
    g = bump_chi(grid) if window.startswith("bump") else gaussian_window(grid)
    return _random_field(grid, seed), g


def _selected_positions(grid, stride, halfwidth):
    """Flat indices of every ``stride``-th lattice point per axis with |x| <= halfwidth.

    Row-major, selected from ``grid.axis_positions()`` without
    ``tf._position_indices``.
    """
    idx = np.indices(grid.shape)[(slice(None),) + (slice(None, None, stride),) * grid.d]
    keep = np.ones(idx.shape[1:], dtype=bool)
    if halfwidth is not None:
        for axis_index in idx:
            keep &= np.abs(grid.axis_positions()[axis_index]) <= halfwidth
    return np.ravel_multi_index(tuple(idx), grid.shape)[keep]


def _reference_norms(f, g, specs, stride, halfwidth, chunks=None):
    """The specs reduced on one thread from (positions, |V| rows) chunks.

    The chunks default to ``_modulus_chunks``.  Positions-inner sums run
    down each frequency column in chunk order, one chunk's sum at a time;
    frequencies-inner ones along each row.  |V|^p is ``np.power`` and the
    roots are ``**``, whose bits the in-place ``np.power`` of ``_norms``
    gives.  The chunks' positions must be those of ``_selected_positions``.
    """
    grid = f.grid
    positions = _selected_positions(grid, stride, halfwidth)
    if chunks is None:
        chunks = _modulus_chunks(f, g, stride, halfwidth)
    seen = []
    wx, wxi = (grid.dx * stride) ** grid.d, grid.dxi ** grid.d

    def lp(a, p, w, axis):
        if p == np.inf:
            return np.max(a, axis=axis)
        return (np.sum(np.power(a, p), axis=axis) * w) ** (1.0 / p)

    inner = _reference_sums([p for p, _, order in specs if order == POSITIONS_INNER], chunks)
    rows = {p: [] for p, _, order in specs if order == FREQUENCIES_INNER}
    for js, A in chunks:
        seen.append(js.copy())
        for p in rows:
            rows[p].append(lp(A, p, wxi, 1))
    assert np.array_equal(np.concatenate(seen), positions)
    values = []
    for p, q, order in specs:
        if order == FREQUENCIES_INNER:
            values.append(float(lp(np.concatenate(rows[p]), q, wx, None)))
        else:
            s = inner[p] if p == np.inf else (inner[p] * wx) ** (1.0 / p)
            values.append(float(lp(s, q, wxi, None)))
    return values


def _reference_sums(ps, chunks) -> dict:
    """Per-frequency sum of |V|^p over positions (max for p = inf), one chunk's sum at a time."""
    inner = dict.fromkeys(ps, 0.0)
    for _, A in chunks:
        for p in inner:
            if p == np.inf:
                inner[p] = np.maximum(inner[p], A.max(axis=0))
            else:
                inner[p] = inner[p] + np.sum(np.power(A, p), axis=0)
    return inner


class TestSignFreeModulus:
    """The norms read |V| from the sign-free path; ``_stft_rows`` are the signed rows."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("L", [8.0, 9.0, 17.66])
    @pytest.mark.parametrize("stride,quarter_box", [(1, False), (3, True)])
    def test_matches_abs_of_stft(self, window, L, stride, quarter_box):
        f, g = _case(window, L, seed=int(L) + stride)
        grid = f.grid
        hw = grid.L / 4.0 if quarter_box else None
        rows = np.concatenate([A for _, A in _pass_rows(f, g, stride, hw)])
        signed = np.abs(_stft_rows(f, g, stride, hw)[1])
        got = _norms(f, g, SPECS, stride, hw)
        want = _reference_norms(f, g, SPECS, stride, hw, _signed_chunks(f, g, stride, hw))
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
        # odd sizes: 5 positions per windowed chunk, 3 rows per block (a full
        # step and a short one of a |V| chunk, 3 columns of a row-column block)
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)
        hw = grid.L / 4.0 if quarter_box else None
        runs = []
        for workers in (1, 2):
            with split_workers(workers):
                runs.append((stft(f, g, stride).values, _pass_rows(f, g, stride, hw),
                             _norms(f, g, SPECS, stride, hw)))
                assert (core._pool[1] is not None) == (workers == 2)
        (V1, chunks1, norms1), (V2, chunks2, norms2) = runs
        assert np.array_equal(V1, V2)
        assert len(chunks1) == len(chunks2) > 1
        for (js1, V1), (js2, V2) in zip(chunks1, chunks2):
            assert np.array_equal(js1, js2) and np.array_equal(V1, V2)
        assert norms1 == norms2


def _chunk_buffer_rows(f, g, stride, halfwidth):
    """Yield (positions, |V| rows) per chunk as one chunk-sized complex buffer gives them.

    Each chunk of ``tf._CHUNK_BYTES // (16 N^d)`` positions is the presigned
    field times every position's conj(T_x g), made with np.roll, transformed
    in one ``centered_fft(..., modulus=)`` call: the windowed |V| path
    before its chunks walked one small block.
    """
    grid = f.grid
    positions = _selected_positions(grid, stride, halfwidth)
    fv, gv = core._presigned(f.reshaped(), grid.d), g.field.reshaped()
    axes = tuple(range(grid.d))
    for js in _pass_groups(grid, g, positions):
        chunk = np.empty((len(js), *grid.shape), dtype=complex)
        for m, j in enumerate(js):
            shift = tuple(int(k) - grid.N // 2 for k in np.unravel_index(j, grid.shape))
            chunk[m] = fv * np.conj(np.roll(gv, shift, axis=axes))
        A = np.empty((len(js), grid.npoints))
        centered_fft(chunk, grid.d, grid.dx, out=chunk, modulus=A.reshape(chunk.shape))
        yield js, A


class TestWalkedModulus:
    """A windowed |V| chunk walks one block of _BLOCK_BYTES step by step, with every bit kept."""

    @pytest.mark.parametrize("window", ["gaussian_1d", "bump_1d", "bump_2d"])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("quarter_box", [False, True])
    def test_equals_the_chunk_buffer_reference(self, monkeypatch, split_workers, window,
                                               stride, quarter_box):
        # 8 positions per chunk, 3 rows per block: a full chunk walks two
        # steps and a short one
        f, g = _case(window, seed=7 + stride)
        grid = f.grid
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 8 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)
        hw = grid.L / 4 if quarter_box else None
        want = list(_chunk_buffer_rows(f, g, stride, hw))
        assert len(want[0][0]) == 8
        want_norms = _reference_norms(f, g, SPECS, stride, hw, want)
        for workers in (1, 2):
            with split_workers(workers):
                got = _as_chunks(_pass_rows(f, g, stride, hw), want)
                assert len(got) == len(want)
                for (js1, A1), (js2, A2) in zip(got, want):
                    assert np.array_equal(js1, js2) and np.array_equal(A1, A2)
                assert _norms(f, g, SPECS, stride, hw) == want_norms

    def test_traced_shapes_hold_every_transform(self, monkeypatch):
        # a tracer counts a centered_fft call's FFT work from a.shape alone:
        # per 8-position chunk, one call per step, two full 3-row steps and
        # a short 2-row one
        f, g = _case("gaussian_1d")
        N = f.grid.N
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 8 * 16 * N)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * N)
        shapes = []
        transform = tf.centered_fft

        def traced(a, d, *args, **kwargs):
            shapes.append((a.shape, d))
            return transform(a, d, *args, **kwargs)

        monkeypatch.setattr(tf, "centered_fft", traced)
        tf._windowed_sums(f, g, 1, None, {}, None)
        assert shapes == [((3, N), 1), ((3, N), 1), ((2, N), 1)] * (N // 8)

    @pytest.mark.parametrize("case", ["m_inf_1_n4096", "m22_m11_n2048"])
    def test_cold_pass_holds_one_block(self, case):
        # a cold pass holds one complex block and at most a chunk's real |V|
        # rows (and |V|^p rows for p = 2), half a chunk each; a chunk-sized
        # complex buffer as well would add 60 MiB.  Its rows now go through
        # two step buffers, far below this bound (TestStepFold)
        if case == "m_inf_1_n4096":
            grid = _divergence_grid(64.0, 1.0)
            assert grid.N == 4096
            f, g = chirp_field(grid, 1.0), gaussian_window(grid)

            def norm():
                m_inf_1_norm(f, g, position_halfwidth=grid.L / 4)
        else:
            grid = make_grid(1, 32.0, 2048)
            f, g = chirp_field(grid, 1.0), gaussian_window(grid)

            def norm():
                modulation_norms_multi(f, g, [(2.0, 2.0), (1.0, 1.0)])
        real_buffers = 1 if case == "m_inf_1_n4096" else 2
        tf._release_spares()
        tracemalloc.start()
        try:
            norm()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= real_buffers * _CHUNK_BYTES // 2 + 2 * tf._BLOCK_BYTES


class TestStepFold:
    """A windowed pass folds each step inside the next step's hand-off, in two step buffers."""

    @pytest.mark.parametrize("R", [1, 2, 3, 8, 129])
    @pytest.mark.parametrize("M", [2, 3, 8, 2048])
    def test_axis_0_sum_adds_rows_in_order(self, R, M):
        # the fact the bits rest on: numpy sums a C-contiguous float64 block
        # along axis 0 row by row, for the whole block and for its column
        # slices of two or more columns; so a chunk's sum may continue from
        # a partial kept in a leading row, step by step
        rng = np.random.default_rng(R * 4096 + M)
        block = rng.random((R, M)) * 10.0 ** rng.integers(-8, 9, (R, M))
        for lo, hi in {(0, M), (0, 2), (M - 2, M), (M // 2 - 1, M)}:
            a = block[:, lo:hi]
            by_rows = a[0].copy()
            for row in a[1:]:
                by_rows = by_rows + row
            assert np.array_equal(np.sum(a, axis=0), by_rows)
            for k in {1, R // 2, R - 1} - {0}:
                step = np.full((1 + R - k, M), np.nan)
                step[1:] = block[k:]
                np.sum(block[:k, lo:hi], axis=0, out=step[0, lo:hi])
                assert np.array_equal(np.sum(step[:, lo:hi], axis=0), by_rows)

    def test_one_column_of_eight_rows_is_summed_pairwise(self):
        # why no fold piece is narrower than two columns: numpy 2.4.6 sums a
        # one-column slice of 8 or more rows pairwise, not row by row
        e = 2.0 ** -53
        block = np.array([[1.0, 1.0]] + [[e, e]] * 7)
        assert np.sum(block, axis=0)[0] == 1.0  # 1 + e rounds to 1, seven times
        assert np.sum(block[:, :1], axis=0)[0] == 1.0 + 3 * 2.0 ** -52

    def test_cold_powered_pass_holds_two_steps(self):
        # the (1, inf) + (2, 2) pass of schrodinger_conservation at N = 2048:
        # one complex block, then a pair of step buffers for |V|; chunk-sized
        # |V| and |V|^2 buffers held 68.9 MiB
        grid = make_grid(1, 32.0, 2048)
        f, g = chirp_field(grid, 1.0), gaussian_window(grid)
        tf._release_spares()
        tracemalloc.start()
        try:
            _norms(f, g, [(1.0, np.inf, POSITIONS_INNER), (2.0, 2.0, POSITIONS_INNER)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20
        rows = tf._BLOCK_BYTES // (16 * grid.npoints)
        two_steps = 2 * (1 + rows) * grid.npoints * 8
        assert set(tf._spares) == {"chunk", "modulus"}
        assert all(buf.nbytes <= two_steps for buf in tf._spares.values())

    def test_cold_powered_pass_keeps_no_power_buffers(self):
        # the same pass takes |V|^2 where it sums it, in the |V| rows the fold
        # has read: it holds the block, the |V| pair and under 0.75 MiB more
        # (accumulators, leads and numpy's FFT buffers); a pair of step-sized
        # |V|^2 buffers as well added 4.03 MiB (12.76 MiB traced in all)
        grid = make_grid(1, 32.0, 2048)
        f, g = chirp_field(grid, 1.0), gaussian_window(grid)
        tf._release_spares()
        tracemalloc.start()
        try:
            _norms(f, g, [(1.0, np.inf, POSITIONS_INNER), (2.0, 2.0, POSITIONS_INNER)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert set(tf._spares) == {"chunk", "modulus"}
        assert peak <= sum(buf.nbytes for buf in tf._spares.values()) + (3 << 18)

    @pytest.mark.parametrize("spec", [(np.inf, 1.0, POSITIONS_INNER), tf._WFL1])
    def test_cold_2d_pass_holds_no_transposed_field(self, spec):
        # a row-column pass at one position holds H, whose axis-0 transform
        # runs in place along its columns, and the one-column block
        # (complex), the block's |V| row, col and a positions-inner
        # accumulator (real), and during a transform numpy's FFT buffers,
        # about 0.27 MiB; the transposed field and an HT buffer beside H
        # added 2 MiB (here N = 256: the block is one k0 tile)
        grid = make_grid(2, 16.0, 256)
        f, g = sample(lambda x, y: np.exp(-np.pi * (x ** 2 + y ** 2)), grid), gaussian_window(grid)
        _norms(f, g, [spec], stride=grid.N)  # numpy's FFT imports what it loads lazily
        tf._release_spares()
        tracemalloc.start()
        try:
            _norms(f, g, [spec], stride=grid.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M = grid.npoints
        real_rows = 3 if spec[2] == POSITIONS_INNER else 2
        assert peak <= 2 * 16 * M + real_rows * 8 * M + (1 << 19)
        assert set(tf._spares) == {"chunk", "modulus", "H"}

    def test_cold_512_pass_holds_one_k0_tile(self):
        # one position of an N = 512 positions-inner pass holds H (4 MiB),
        # one k0 tile of the block (1 MiB) and of its |V| (0.5 MiB), col and
        # the accumulator (2 MiB each) and numpy's FFT buffers: 10.3 MiB
        # traced; the whole one-column block and its |V| (4 and 2 MiB) held
        # 14.3 MiB
        grid = make_grid(2, 16.0, 512)
        f, g = sample(lambda x, y: np.exp(-np.pi * (x ** 2 + y ** 2)), grid), gaussian_window(grid)
        _norms(f, g, [tf._M1INF], stride=grid.N)  # numpy's FFT imports what it loads lazily
        tf._release_spares()
        tracemalloc.start()
        try:
            _norms(f, g, [tf._M1INF], stride=grid.N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        M = grid.npoints
        assert peak <= 16 * M + 16 * M // 4 + 8 * M // 4 + 2 * 8 * M + (1 << 20)
        assert {role: buf.nbytes for role, buf in tf._spares.items()} == {
            "H": 16 * M, "chunk": 16 * M // 4, "modulus": 8 * M // 4}

    @pytest.mark.parametrize("spec", [(1.0, np.inf, POSITIONS_INNER),
                                      (np.inf, 1.0, POSITIONS_INNER),
                                      (2.0, 2.0, POSITIONS_INNER)])
    def test_reduction_after_a_2d_pass_holds_nothing_new(self, monkeypatch, spec):
        # the M^{1,inf} accumulator is scaled in place: acc[p] * wx was a
        # new N^2 array beside the pass's spares, 4.00 MiB traced against
        # 3.77 at the end of the pass; M^{inf,1} has no such product; the
        # (2, 2) sum over frequencies squares into col: acc[p] ** 2 was a new
        # N^2 array, 4.50 MiB traced against 4.27
        grid = make_grid(2, 16.0, 256)
        f, g = sample(lambda x, y: np.exp(-np.pi * (x ** 2 + y ** 2)), grid), gaussian_window(grid)
        _norms(f, g, [spec], stride=4, halfwidth=0.0)  # numpy's FFT imports what it loads lazily
        tf._release_spares()
        passes, peaks = tf._row_column_sums, []

        def traced(*args, **kwargs):
            passes(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(tf, "_row_column_sums", traced)
        tracemalloc.start()
        try:
            _norms(f, g, [spec], stride=4, halfwidth=0.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[0] == peaks[1]

    @pytest.mark.parametrize("window", ["gaussian_1d", "bump_2d", "gaussian_2d"])
    def test_powers_of_one_pass_equal_single_passes(self, monkeypatch, split_workers, window):
        # 5 positions per chunk, 3 per step: each chunk's sums run on across a
        # step; a pass with two powers takes the last in place of |V| and the
        # other in a scratch, and the reversed order swaps the two.  The
        # norms sum over 64 or 1024 frequencies, which can hide a rounding of
        # one accumulator, so the accumulators are compared too
        f, g = _case(window, seed=5)
        M = f.grid.npoints
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * M)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * M)
        pqs = [(1.0, 1.0), (np.inf, 1.0), (2.0, 2.0), (1.5, 3.0)]
        specs = [(p, q, order) for p, q in pqs for order in (POSITIONS_INNER, FREQUENCIES_INNER)]
        want = _reference_norms(f, g, specs, 1, None)
        ps = [p for p, _ in pqs]
        sums = _reference_sums(ps, _modulus_chunks(f, g, 1, None))
        path = tf._row_column_sums if tf._row_column(g) else tf._windowed_sums
        for workers in (1, 2):
            with split_workers(workers):
                assert [_norms(f, g, [spec])[0] for spec in specs] == want
                assert _norms(f, g, specs) == want
                assert _norms(f, g, specs[::-1]) == want[::-1]
                for order in (ps, ps[::-1]):
                    acc = {p: np.zeros(M) for p in order}
                    path(f, g, 1, None, acc, np.empty(M))
                    assert all(np.array_equal(acc[p], sums[p]) for p in ps)

    def test_cold_chirp_stft_check_holds_two_steps(self):
        # verify_chirp_stft reads |V| step by step: 44.4 MiB with chunk-sized |V|
        grid = core.default_grid(1)
        f, g, region = chirp_field(grid, 1.0), gaussian_window(grid), _chirp_stft_region(grid, 1.0)
        tf._release_spares()
        tracemalloc.start()
        try:
            verify_chirp_stft(f, g, 1.0, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 << 20

    def test_each_step_folds_in_the_next_hand_off(self, monkeypatch, split_workers):
        # 8 positions per chunk, 3 rows per step, N = 64: each step is one
        # hand-off over its rows, which also folds the step before, and the
        # last step's fold is one more hand-off over the N frequencies
        f, g = _case("gaussian_1d")
        N = f.grid.N
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 8 * 16 * N)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * N)
        monkeypatch.setattr(core, "_SPLIT_BYTES", 0)
        calls = []
        split = core._split

        def counting(fn, n, nbytes):
            calls.append(n)
            return split(fn, n, nbytes)

        with split_workers(2):
            monkeypatch.setattr(core, "_split", counting)
            monkeypatch.setattr(tf, "_split", counting)
            _norms(f, g, SPECS)
        assert calls == [3, 3, 2] * (N // 8) + [N]


class TestFusedFold:
    """The row-column positions-inner sums run in the FFT's pieces, one hand-off per row."""

    POSITIONS = [(p, q, POSITIONS_INNER) for p, q in [(1.0, 1.0), (2.0, 2.0), (np.inf, 1.0)]]

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d"])
    @pytest.mark.parametrize("specs", ["positions", "mixed"])
    def test_one_and_two_workers_equal_the_reference(self, monkeypatch, split_workers,
                                                     window, specs):
        # 3 positions per row-column block (5 per windowed chunk): a fold
        # that split the positions instead of k0 would change the order of
        # each frequency's sum, and with two threads race on it
        f, g = _case(window, seed=4)
        grid = f.grid
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)
        specs = self.POSITIONS if specs == "positions" else SPECS
        want = _reference_norms(f, g, specs, 1, None)
        for workers in (1, 2):
            with split_workers(workers):
                assert _norms(f, g, specs) == want

    @pytest.mark.parametrize("rows, tile", [(4, 4), (6, 4), (8, 8), (16, 16)])
    def test_k0_tiles_equal_the_untiled_pass(self, monkeypatch, split_workers, rows, tile):
        # one-column blocks with no reduce go through k0 tiles of a power of
        # two rows, the walk's steps tile by tile: each accumulator column
        # still takes one |V| row per position, in position order, on one
        # thread, so every value is == the pass whose one tile is all of k0;
        # the M^{1,inf} pass walks its two probe rows too, per column (on
        # this noise every k0 row can hold the sup, so it then walks all of k0)
        f, g = _case("gaussian_2d", seed=6)
        N = f.grid.N
        specs = [(p, q, POSITIONS_INNER) for p, q in [(1.0, np.inf), (np.inf, 1.0), (2.0, 2.0)]]
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 16 * N * N)
        monkeypatch.setattr(tf, "_TILE_BYTES", 16 * N * N)
        with split_workers(1):
            want = [_norms(f, g, [spec], 2) for spec in specs] + [_norms(f, g, specs, 2)]
        monkeypatch.setattr(tf, "_TILE_BYTES", 16 * N * rows)
        shapes = []
        transform = tf.centered_fft

        def traced(a, d, *args, **kwargs):
            shapes.append(a.shape)
            return transform(a, d, *args, **kwargs)

        monkeypatch.setattr(tf, "centered_fft", traced)
        for workers in (1, 2):
            with split_workers(workers):
                assert [_norms(f, g, [spec], 2) for spec in specs] + [_norms(f, g, specs, 2)] \
                    == want
        assert set(shapes) == {(N, N), (N // tile * N // 2, 1, tile, N), (N // 2, 1, 2, N)}

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 4.0])
    def test_default_m1inf_configurations(self, split_workers, t):
        # each default 2D M^{1,inf} row's grid, stride, chirp and window, on
        # its central 9 x 9 positions: at N = 256 (4 columns per block) a
        # position row is 2 blocks and a short one, as the full row is 8 and
        # a short one; at N = 512 every block is one column
        mg, stride = _m1inf_grid_2d(t)
        f, g = chirp_field(mg, t), gaussian_window(mg)
        hw = 4 * stride * mg.dx
        want = _reference_norms(f, g, [tf._M1INF], stride, hw)
        for workers in (1, 2):
            with split_workers(workers):
                assert _norms(f, g, [tf._M1INF], stride, hw) == want

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([16, 32]), st.sampled_from([8.0, 9.0]),
           st.sampled_from([1, 2, 3]), st.sampled_from([3, 5, 7]), st.booleans(),
           st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0, np.inf]),
                              st.sampled_from([1.0, 2.0, np.inf])), min_size=1, max_size=3))
    def test_random_tensor_products(self, split_workers, seed, N, L, stride, cols, quarter,
                                    pqs):
        # every position row ends on a short block; L = 9 makes dx no power of
        # two, where only the sign-free rows give the reference's bits
        grid = make_grid(2, L, N)
        hw = L / 4 if quarter else None
        _, axis_idx = tf._position_indices(grid, stride, hw)
        assume(axis_idx[1].size % cols)
        f, g = _random_field(grid, seed), gaussian_window(grid)
        specs = [(p, q, POSITIONS_INNER) for p, q in pqs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tf, "_BLOCK_BYTES", cols * 16 * grid.npoints)
            want = _reference_norms(f, g, specs, stride, hw)
            for workers in (1, 2):
                with split_workers(workers):
                    assert _norms(f, g, specs, stride, hw) == want

    def test_traced_shapes_hold_every_transform(self, monkeypatch):
        # a tracer counts a centered_fft call's FFT work from a.shape alone:
        # per position row, H (N lines) and the row's N columns (N lines
        # each), 10 blocks of 3 in one call and the short block of 2 in one
        f, g = _case("gaussian_2d")
        N = f.grid.N
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * N * N)
        shapes = []
        transform = tf.centered_fft

        def traced(a, d, *args, **kwargs):
            shapes.append((a.shape, d))
            return transform(a, d, *args, **kwargs)

        monkeypatch.setattr(tf, "centered_fft", traced)
        _norms(f, g, self.POSITIONS)
        assert shapes == [((N, N), 1), ((10, 3, N, N), 1), ((1, 2, N, N), 1)] * N

    @staticmethod
    def _hand_offs(monkeypatch, split_workers, specs) -> list:
        """The n of every _split call of a 2D pass on 3-column blocks, N = 32."""
        f, g = _case("gaussian_2d")
        grid = f.grid
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)
        calls = []
        split = core._split

        def counting(fn, n, nbytes):
            calls.append(n)
            return split(fn, n, nbytes)

        with split_workers(2):
            monkeypatch.setattr(core, "_split", counting)
            monkeypatch.setattr(tf, "_split", counting)
            _norms(f, g, specs)
        return calls

    def test_row_column_hands_each_transform_off_once(self, monkeypatch, split_workers):
        # per position row: H's transform in place (with the window multiply),
        # then the row's full column blocks in one hand-off and
        # its short last block (32 = 10 * 3 + 2 columns) in another, each
        # with the window multiply and the positions-inner sums
        calls = self._hand_offs(monkeypatch, split_workers, self.POSITIONS)
        assert calls == [32] * (3 * 32)

    def test_mixed_pass_folds_in_each_block_hand_off(self, monkeypatch, split_workers):
        # with frequencies-inner specs too, each of a row's 11 blocks is its
        # own hand-off (the positions-inner sums inside it, split over k0),
        # and its rows are reduced in one more, split over its columns
        calls = self._hand_offs(monkeypatch, split_workers, SPECS)
        assert calls == ([32] + [32, 3] * 10 + [32, 2]) * 32

    def test_frequencies_inner_pass_hands_off_as_a_mixed_one(self, monkeypatch,
                                                             split_workers):
        # a pass with no positions-inner spec takes the same path as a mixed
        # one: each block its own hand-off and transform call, with nothing
        # to fold, and its rows reduced in one more hand-off
        shapes = []
        transform = tf.centered_fft

        def traced(a, d, *args, **kwargs):
            shapes.append(a.shape)
            return transform(a, d, *args, **kwargs)

        monkeypatch.setattr(tf, "centered_fft", traced)
        passes = []
        for specs in ([tf._WFL1], SPECS):
            shapes.clear()
            calls = self._hand_offs(monkeypatch, split_workers, specs)
            passes.append((list(calls), list(shapes)))  # later passes count on in calls
        (w_calls, w_shapes), (mixed_calls, mixed_shapes) = passes
        assert w_calls == mixed_calls == ([32] + [32, 3] * 10 + [32, 2]) * 32
        assert w_shapes == mixed_shapes


def _full_range_m1inf(f, g, stride, halfwidth) -> float:
    """M^{1,inf} from ``_row_column_sums`` over every k0 row, reduced as ``_norms`` does."""
    grid = f.grid
    acc = np.zeros(grid.npoints)
    tf._row_column_sums(f, g, stride, halfwidth, {1.0: acc}, np.empty(grid.npoints))
    return float(np.max(acc * (grid.dx * stride) ** 2))


def _pruning_field(kind, grid):
    """A 2D field whose M^{1,inf} sup the k0 bound must not lose."""
    N = grid.N
    x0, x1 = grid.position_meshes()
    gauss = np.exp(-np.pi * (x0 ** 2 + x1 ** 2))
    if kind == "noise":
        return _random_field(grid, 7)
    if kind == "zero":
        return SampledField(grid, np.zeros(grid.npoints, complex))
    if kind == "chirp":
        return chirp_field(grid, 1.0)
    if kind == "ridges":  # two equal wave packets, 32 k0 rows apart
        values = gauss * 2.0 * np.cos(2.0 * np.pi * 2.0 * x0)
    else:  # a plane wave on the first (Nyquist) or the last k0 row, constant in x1
        k0 = 0 if kind == "nyquist" else N - 1
        values = np.exp(2j * np.pi * (k0 - N // 2) / grid.L * x0) + 0.0 * x1
    return SampledField(grid, values.reshape(-1))


class TestK0Pruning:
    """A pass of M^{1,inf} alone walks only the k0 rows whose bound reaches a computed sum."""

    @pytest.mark.parametrize("stride", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["noise", "nyquist", "top", "ridges", "zero", "chirp"])
    def test_equals_the_full_range_pass(self, split_workers, kind, stride):
        # the skipped rows stay 0 and their sums lie below a computed one,
        # so the sup is that of the pass over every k0 row bit for bit
        grid = make_grid(2, 8.0, 64)
        f, g = _pruning_field(kind, grid), gaussian_window(grid)
        want = _full_range_m1inf(f, g, stride, None)
        for workers in (1, 2):
            with split_workers(workers):
                assert m_1_inf_norm(f, g, stride) == want

    @pytest.mark.parametrize("kind", ["noise", "nyquist", "top", "ridges", "chirp"])
    def test_tiled_range_equals_the_full_range_pass(self, monkeypatch, split_workers, kind):
        # one-column blocks, so the kept range goes through k0 tiles of at
        # most 8 rows, each a multiple of four rows
        grid = make_grid(2, 8.0, 64)
        N = grid.N
        f, g = _pruning_field(kind, grid), gaussian_window(grid)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 16 * N * N)
        monkeypatch.setattr(tf, "_TILE_BYTES", 16 * N * 8)
        want = _full_range_m1inf(f, g, 4, None)
        for workers in (1, 2):
            with split_workers(workers):
                assert m_1_inf_norm(f, g, 4) == want

    def test_default_t4_configuration(self, split_workers):
        # the default t = 4 row's N = 512 grid, stride, chirp and window on
        # its central 9 x 9 positions: one-column blocks in k0 tiles
        mg, stride = _m1inf_grid_2d(4.0)
        f, g = chirp_field(mg, 4.0), gaussian_window(mg)
        hw = 4 * stride * mg.dx
        want = _full_range_m1inf(f, g, stride, hw)
        for workers in (1, 2):
            with split_workers(workers):
                assert m_1_inf_norm(f, g, stride, hw) == want

    @staticmethod
    def _transformed_shapes(monkeypatch, passes) -> list:
        """The traced ``a.shape`` of every transform call that ``passes()`` makes."""
        shapes = []
        transform = tf.centered_fft

        def traced(a, d, *args, **kwargs):
            shapes.append(a.shape)
            return transform(a, d, *args, **kwargs)

        monkeypatch.setattr(tf, "centered_fft", traced)
        passes()
        return shapes

    @pytest.mark.parametrize("kind, rows", [("nyquist", 4), ("top", 4), ("ridges", 36)])
    def test_walks_only_the_rows_that_can_hold_the_sup(self, monkeypatch, kind, rows):
        # each position row: H three times (bound, probe, walk), the two probe
        # rows and then the kept range, a multiple of four rows; a plane wave
        # keeps its own k0 row, the two packets the 33 rows from one to the other
        grid = make_grid(2, 8.0, 64)
        N = grid.N
        f, g = _pruning_field(kind, grid), gaussian_window(grid)
        shapes = self._transformed_shapes(monkeypatch, lambda: m_1_inf_norm(f, g, 4))
        assert len(shapes) == 5 * N // 4
        walks = [shape[-2] for shape in shapes if len(shape) == 4]
        assert walks == [2] * (N // 4) + [rows] * (N // 4)

    def test_a_pass_with_other_specs_walks_every_row(self, monkeypatch):
        # M^{1,inf} beside another spec, or W with it, reads every k0 row
        grid = make_grid(2, 8.0, 64)
        f, g = _pruning_field("nyquist", grid), gaussian_window(grid)

        def passes():
            _norms(f, g, [tf._M1INF, (1.0, 1.0, POSITIONS_INNER)], 4)
            _norms(f, g, [tf._M1INF, tf._WFL1], 4)

        shapes = self._transformed_shapes(monkeypatch, passes)
        assert {shape[-2] for shape in shapes if len(shape) == 4} == {grid.N}


class TestSpareBuffers:
    """Passes reuse the spare chunk buffers of earlier passes; concurrent ones do not."""

    @staticmethod
    def _small_chunks(monkeypatch, grid):
        # 5 positions per windowed chunk, 3 rows per block: a windowed |V| chunk
        # walks a full step and a short one, a row-column block has 3 columns
        monkeypatch.setattr(tf, "_CHUNK_BYTES", 5 * 16 * grid.npoints)
        monkeypatch.setattr(tf, "_BLOCK_BYTES", 3 * 16 * grid.npoints)

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    @pytest.mark.parametrize("whole_norms", [False, True])
    def test_consecutive_passes_share_buffers(self, monkeypatch, window, whole_norms):
        # each pass takes the spares the one before gave back: the |V| rows
        # it reads lie in the same buffer, and a whole _norms pass leaves the
        # same spare of every role it took
        f, g = _case(window)
        self._small_chunks(monkeypatch, f.grid)
        tf._release_spares()

        def one_pass():
            if whole_norms:
                values = _norms(f, g, SPECS)
                return [tf._spares[r] for r in sorted(tf._spares)], [np.array(values)]
            views = []
            return views, [A for _, A in _pass_rows(f, g, 1, None, views)]

        (cold_views, cold), (warm_views, warm), (_, warmer) = (one_pass() for _ in range(3))
        assert len(warm_views) == len(cold_views) > 1
        assert all(np.shares_memory(a, b) for a, b in zip(cold_views, warm_views))
        for rows in (warm, warmer):
            assert len(rows) == len(cold)
            assert all(np.array_equal(a, b) for a, b in zip(rows, cold))

    @pytest.mark.parametrize("window", ["gaussian_1d", "gaussian_2d", "bump_2d"])
    def test_pass_whose_reduce_raises_returns_its_buffers(self, monkeypatch, window):
        # the pass stops at its first reduce; its buffers still become the
        # spares, and the next pass, which reads them, equals a cold one
        f, g = _case(window)
        self._small_chunks(monkeypatch, f.grid)
        tf._release_spares()
        cold = _norms(f, g, SPECS)
        tf._release_spares()

        def reduce(first, A, lo, hi):
            raise RuntimeError("stop")

        path = tf._row_column_sums if tf._row_column(g) else tf._windowed_sums
        M = f.grid.npoints
        with pytest.raises(RuntimeError, match="stop"):
            path(f, g, 1, None, {2.0: np.zeros(M)}, np.empty(M), reduce)
        assert {"chunk", "modulus"} <= set(tf._spares)
        spares = dict(tf._spares)
        assert _norms(f, g, SPECS) == cold
        assert all(tf._spares[r] is buf for r, buf in spares.items())

    def test_larger_pass_drops_every_spare(self):
        small, g = _case("gaussian_2d")
        _norms(small, g, SPECS)
        assert set(tf._spares) == {"chunk", "modulus", "power", "H"}
        old = dict(tf._spares)
        big = make_grid(2, 8.0, 2 * small.grid.N)
        during = []

        def reduce(first, A, lo, hi):
            during.append(set(tf._spares))

        tf._windowed_sums(_random_field(big, 1), gaussian_window(big), 1, None, {}, None, reduce)
        assert during and not any(during)  # "power", unused by this pass, went too
        assert set(tf._spares) == {"chunk", "modulus"}
        assert not any(np.shares_memory(tf._spares[r], old[r]) for r in tf._spares)

    def test_stft_leaves_no_spare(self):
        f, g = _case("gaussian_1d")
        _norms(f, g, SPECS)
        assert set(tf._spares) == {"chunk", "modulus"}
        stft(f, g)
        assert tf._spares == {}

    def test_warm_pass_allocates_no_chunk(self):
        grid = _divergence_grid(64.0, 1.0)
        assert grid.N == 4096
        f, g = chirp_field(grid, 1.0), gaussian_window(grid)

        def norm():
            return m_inf_1_norm(f, g, position_halfwidth=grid.L / 4)

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


class TestPoolThreads:
    """What a pass runs on a pool thread calls only numpy, never a public ``tfmult`` function.

    ``bench/tracer.py`` keeps one span stack for all threads, and the
    ``reduce`` hooks of the |V| paths run in the transform's thread pieces.
    """

    def test_public_functions_run_on_the_callers_thread(self, monkeypatch, split_workers):
        modules = (core, tf, mult, verify)
        caller = threading.current_thread()
        calls, pieces = [], []

        def wrap(name, fn):
            def recorded(*args, **kwargs):
                calls.append((name, threading.current_thread()))
                return fn(*args, **kwargs)
            return recorded

        wrappers = {id(obj): wrap(f"{mod.__name__}.{name}", obj)
                    for mod in modules for name, obj in vars(mod).items()
                    if inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__}
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(mod, name, wrappers[id(obj)])
        split = core._split

        def recording(fn, n, nbytes):
            def piece(lo, hi):
                pieces.append(threading.current_thread())
                return fn(lo, hi)
            return split(piece, n, nbytes)

        with split_workers(2):
            monkeypatch.setattr(core, "_split", recording)
            monkeypatch.setattr(tf, "_split", recording)
            grid = core.default_grid(1)
            verify.verify_chirp_stft(verify.chirp_field(grid, 1.0), tf.gaussian_window(grid), 1.0,
                                     verify._chirp_stft_region(grid, 1.0))
            for window in ("gaussian_1d", "gaussian_2d", "bump_2d"):
                f, g = _case(window)
                _norms(f, g, SPECS)
        assert any(t is not caller for t in pieces)  # the pool took some pieces
        assert {name for name, _ in calls} >= {"tfmult.core.centered_fft",
                                               "tfmult.verify.verify_chirp_stft"}
        assert [name for name, t in calls if t is not caller] == []
