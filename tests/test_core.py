"""Grid construction, sampling, and centered transform invariants."""

import numpy as np
import pytest

from tfmult.core import (
    Grid,
    GridMismatchError,
    ParameterError,
    SampledField,
    SamplingError,
    centered_fft,
    centered_ifft,
    coarsen,
    default_grid,
    forward_transform,
    inverse_transform,
    l1_norm,
    l2_norm,
    make_grid,
    require_same_grid,
    sample,
)


class TestMakeGrid:
    def test_basic_1d(self):
        g = make_grid(1, 32.0, 2048)
        assert g.dx == 32.0 / 2048
        assert g.dxi == 1.0 / 32.0
        assert g.npoints == 2048
        assert g.shape == (2048,)

    def test_basic_2d(self):
        g = make_grid(2, 16.0, 256)
        assert g.npoints == 256 ** 2
        assert g.shape == (256, 256)

    @pytest.mark.parametrize("d", [0, 3])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ParameterError):
            make_grid(d, 16.0, 256)

    @pytest.mark.parametrize("N", [255, 6, 0, 100])
    def test_rejects_bad_size(self, N):
        with pytest.raises(ParameterError):
            make_grid(1, 16.0, N)

    def test_rejects_bad_box(self):
        with pytest.raises(ParameterError):
            make_grid(1, -1.0, 256)

    @pytest.mark.parametrize("L,N", [(np.inf, 256), (np.nan, 256), (1e-320, 256),
                                     (1e-306, 2048)])
    def test_rejects_non_finite_or_subnormal_spacing(self, L, N):
        # L/N must be a normal float: 1e-306 / 2048 is subnormal
        with pytest.raises(ParameterError):
            make_grid(2, L, N)

    def test_defaults(self):
        assert default_grid(1) == make_grid(1, 32.0, 2048)
        assert default_grid(2) == make_grid(2, 16.0, 256)

    def test_lattice_is_centered(self):
        g = make_grid(1, 16.0, 64)
        x = g.axis_positions()
        assert x[0] == -8.0
        assert x[g.N // 2] == 0.0
        assert np.isclose(x[-1], 8.0 - g.dx)
        xi = g.axis_frequencies()
        assert xi[g.N // 2] == 0.0
        assert np.isclose(xi[1] - xi[0], 1.0 / 16.0)

    def test_sampling_density_identity(self):
        g = make_grid(1, 32.0, 2048)
        assert np.isclose(g.dx * g.dxi * g.N, 1.0)


class TestSample:
    def test_gaussian_values(self):
        g = make_grid(1, 16.0, 128)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), g)
        mid = g.N // 2
        assert np.isclose(f.values[mid], 1.0)
        assert f.values.shape == (128,)

    def test_2d_meshes(self):
        g = make_grid(2, 8.0, 32)
        f = sample(lambda x, y: x + 1j * y, g)
        a = f.reshaped()
        assert np.isclose(a[g.N // 2, g.N // 2], 0.0)
        assert np.isclose(a[g.N // 2 + 1, g.N // 2], g.dx)

    def test_nonfinite_rejected(self):
        g = make_grid(1, 16.0, 128)
        with pytest.raises(SamplingError):
            sample(lambda x: 1.0 / x, g)


class TestCenteredTransform:
    def test_gaussian_is_fixed_point(self):
        g = make_grid(1, 32.0, 1024)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), g)
        F = forward_transform(f)
        oracle = np.exp(-np.pi * g.axis_frequencies() ** 2)
        assert np.max(np.abs(F.values - oracle)) < 1e-12

    def test_round_trip(self):
        g = make_grid(1, 16.0, 512)
        rng = np.random.default_rng(7)
        f = SampledField(g, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_round_trip_2d(self):
        g = make_grid(2, 8.0, 64)
        rng = np.random.default_rng(8)
        f = SampledField(g, (rng.standard_normal(g.npoints)
                             + 1j * rng.standard_normal(g.npoints)))
        back = inverse_transform(forward_transform(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_plancherel(self):
        # transform output lives on the frequency lattice, weight dxi
        g = make_grid(1, 16.0, 512)
        rng = np.random.default_rng(9)
        f = SampledField(g, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        F = forward_transform(f)
        freq_l2 = np.sqrt(g.dxi * np.sum(np.abs(F.values) ** 2))
        assert np.isclose(l2_norm(f), freq_l2, rtol=1e-12)

    def test_translation_modulation(self):
        # shifting by one lattice step multiplies the transform by e^{-2pi i dx xi}
        g = make_grid(1, 16.0, 256)
        rng = np.random.default_rng(10)
        v = rng.standard_normal(256)
        F0 = forward_transform(SampledField(g, v.astype(complex))).values
        F1 = forward_transform(SampledField(g, np.roll(v, 1).astype(complex))).values
        phase = np.exp(-2j * np.pi * g.dx * g.axis_frequencies())
        assert np.max(np.abs(F1 - phase * F0)) < 1e-10

    def test_batched_rows(self):
        g = make_grid(1, 16.0, 128)
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((5, 128)) + 1j * rng.standard_normal((5, 128))
        batch = centered_fft(rows, 1, g.dx)
        single = np.stack([centered_fft(r, 1, g.dx) for r in rows])
        assert np.max(np.abs(batch - single)) < 1e-12
        back = centered_ifft(batch, 1, g.dx)
        assert np.max(np.abs(back - rows)) < 1e-12


class TestNormsAndCoarsen:
    def test_l1_l2_gaussian(self):
        g = make_grid(1, 32.0, 2048)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), g)
        assert np.isclose(l1_norm(f), 1.0, atol=1e-10)
        assert np.isclose(l2_norm(f), 2.0 ** -0.25, atol=1e-10)

    def test_coarsen_subsamples(self):
        g = make_grid(1, 16.0, 256)
        f = sample(lambda x: np.exp(-x ** 2), g)
        fc = coarsen(f)
        assert fc.grid == make_grid(1, 16.0, 128)
        assert np.allclose(fc.values, f.values[::2])

    def test_coarsen_2d(self):
        g = make_grid(2, 8.0, 32)
        f = sample(lambda x, y: np.exp(-(x ** 2 + y ** 2)), g)
        fc = coarsen(f)
        assert fc.grid.N == 16
        assert np.allclose(fc.reshaped(), f.reshaped()[::2, ::2])

    def test_grid_mismatch_raises(self):
        a = SampledField(make_grid(1, 16.0, 128), np.zeros(128, complex))
        b = SampledField(make_grid(1, 16.0, 256), np.zeros(256, complex))
        with pytest.raises(GridMismatchError):
            require_same_grid(a.grid, b.grid)


class TestCheckerboardKernel:
    """The shift-free kernel against the fftshift/ifftshift formula it replaces."""

    @staticmethod
    def _shift_formula(a, d, dx, inverse=False):
        axes = tuple(range(a.ndim - d, a.ndim))
        fft = np.fft.ifftn if inverse else np.fft.fftn
        out = np.fft.fftshift(fft(np.fft.ifftshift(a, axes=axes), axes=axes), axes=axes)
        if inverse:
            out /= dx ** d
        else:
            out *= dx ** d
        return out

    @pytest.mark.parametrize(
        "d,N",
        [(1, 2 ** k) for k in range(3, 13)] + [(2, 2 ** k) for k in range(3, 10)],
    )
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    def test_equals_shift_formula(self, d, N, batch):
        rng = np.random.default_rng(N + 7 * d + len(batch))
        shape = batch + (N,) * d
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        before = a.copy()
        dx = 37.3 / N  # not a power of two, so the dx^d scaling rounds
        fwd = centered_fft(a, d, dx)
        inv = centered_ifft(a, d, dx)
        assert np.array_equal(fwd, self._shift_formula(a, d, dx))
        assert np.array_equal(inv, self._shift_formula(a, d, dx, inverse=True))
        assert np.array_equal(a, before)  # the input is not mutated

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("aliased", [True, False])
    def test_out_buffer(self, d, N, batch, aliased):
        rng = np.random.default_rng(N + d + len(batch))
        shape = batch + (N,) * d
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expected = centered_fft(a, d, 37.3 / N)
        buf = a if aliased else np.full(shape, np.nan, dtype=complex)
        result = centered_fft(a, d, 37.3 / N, out=buf)
        assert result is buf
        assert np.array_equal(result, expected)

    def test_real_input(self):
        a = np.random.default_rng(12).standard_normal((4, 64))
        out = centered_fft(a, 1, 0.3)
        assert out.dtype == np.complex128
        assert np.array_equal(out, self._shift_formula(a, 1, 0.3))

    @pytest.mark.parametrize("shape,d", [((6,), 1), ((2,), 1), ((3, 10), 1), ((8, 6), 2)])
    def test_rejects_axis_not_divisible_by_four(self, shape, d):
        a = np.ones(shape, dtype=complex)
        for transform in (centered_fft, centered_ifft):
            with pytest.raises(ParameterError, match="divisible by 4"):
                transform(a, d, 1.0)
