"""Grid construction, sampling, and centered transform invariants."""

import multiprocessing
import os
import subprocess
import sys
import re
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tfmult
from tfmult import core, verify
from tfmult.core import (
    Grid,
    GridMismatchError,
    ParameterError,
    SampledField,
    SamplingError,
    _checkerboard,
    _presigned,
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

    @pytest.mark.parametrize("d,N", [(1, 2 ** 40), (2, 2048)])
    def test_rejects_more_points_than_the_cap(self, d, N):
        # sample(fn, make_grid(1, 32.0, 2**40)) raised numpy's 8 TiB MemoryError
        with pytest.raises(ParameterError, match=rf"d = {d} grid with N = {N} has N\^d = "
                                                 rf"{N ** d} points, above the cap of 1048576"):
            sample(lambda *xs: xs[0], make_grid(d, 32.0, N))
        make_grid(d, 32.0, 2 ** (20 // d))  # the cap itself is a grid

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

    @pytest.mark.parametrize("d", [1, 2])
    def test_keeps_a_result_that_is_the_lattice(self, d):
        # the sampler copied every result, so each sampled field was made twice
        g = make_grid(d, 8.0, 32)
        made = []

        def fn(*xs):
            made.append(np.exp(1j * np.pi * core.radius(xs) ** 2))
            return made[-1]

        f = sample(fn, g)
        assert np.shares_memory(f.values, made[0])
        assert np.array_equal(f.values, made[0].reshape(-1))

    @pytest.mark.parametrize("result", [
        lambda x, y: np.exp(1j * x),  # an (N, 1) column, broadcast
        lambda x, y: np.exp(1j * (x + y)).T,  # a view, not C-contiguous
        lambda x, y: np.exp(1j * (x + y))[:, :],  # a view that does not own its data
        lambda x, y: _read_only(np.exp(1j * (x + y))),
    ], ids=["column", "transpose", "view", "read_only"])
    def test_copies_any_other_result(self, result):
        g = make_grid(2, 8.0, 32)
        made = []

        def fn(*xs):
            made.append(result(*xs))
            return made[-1]

        f = sample(fn, g)
        assert not np.shares_memory(f.values, made[0])
        assert f.values.shape == (g.npoints,) and f.values.flags.writeable
        expected = np.broadcast_to(made[0], g.shape).reshape(-1)
        assert np.array_equal(f.values.view(np.uint64), expected.view(np.uint64))


def _read_only(a):
    a.flags.writeable = False
    return a


def _dense_meshes(grid, axis):
    """The dense (N,)*d coordinate arrays of one lattice, as np.meshgrid makes them."""
    return np.meshgrid(*([axis] * grid.d), indexing="ij")


class TestSparseMeshes:
    """The sampler hands fn sparse meshes; every sample keeps the bits of dense ones."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_meshes_broadcast_to_the_lattice(self, d):
        g = make_grid(d, 8.0, 32)
        for sparse, dense in [(g.position_meshes(), _dense_meshes(g, g.axis_positions())),
                              (g.frequency_meshes(), _dense_meshes(g, g.axis_frequencies()))]:
            assert [m.shape for m in sparse] == ([(32,)] if d == 1 else [(32, 1), (1, 32)])
            assert all(np.array_equal(np.broadcast_to(m, g.shape), n)
                       for m, n in zip(sparse, dense))

    @pytest.mark.parametrize("fn", [
        lambda x, y: np.exp(-np.pi * x ** 2) * np.exp(1j * x),  # x_0 alone: an (N, 1) column
        lambda x, y: np.exp(-np.pi * y ** 2),  # x_1 alone: a (1, N) row
        lambda x, y: np.exp(1j * np.pi * (x ** 2 + y ** 2)) * np.cos(x - y),
    ], ids=["x0", "x1", "both"])
    def test_sample_equals_the_dense_mesh_result(self, fn):
        g = make_grid(2, 12.0, 64)
        dense = np.asarray(fn(*_dense_meshes(g, g.axis_positions())), dtype=np.complex128)
        f = sample(fn, g)
        assert f.values.flags.writeable and f.values.flags.c_contiguous
        assert np.array_equal(f.values.view(np.uint64), dense.reshape(-1).view(np.uint64))

    def test_constant_samples_to_the_full_field(self):
        g = make_grid(2, 8.0, 32)
        f = sample(lambda x, y: 2.5 - 1j, g)
        assert f.values.shape == (g.npoints,) and f.values.flags.writeable
        assert np.array_equal(f.values, np.full(g.npoints, 2.5 - 1j))

    @pytest.mark.parametrize("fn,coord", [
        # one bad lattice point, at x = (1, -0.75)
        (lambda x, y: 1.0 / ((x - 1.0) ** 2 + (y + 0.75) ** 2), (1.0, -0.75)),
        # a column that is inf at x_0 = 0: the first bad point has the first x_1
        (lambda x, y: 1.0 / x, (0.0, -4.0)),
        # a row that is inf at x_1 = 0: the first bad point has the first x_0
        (lambda x, y: 1.0 / y, (-4.0, 0.0)),
    ], ids=["point", "column", "row"])
    def test_nonfinite_2d_sample_names_its_point(self, fn, coord):
        g = make_grid(2, 8.0, 32)
        with pytest.raises(SamplingError, match=re.escape(f"non-finite sample at x = {coord}")):
            sample(fn, g)

    @pytest.mark.parametrize("d,L,N", [(1, 32.0, 2048), (2, 16.0, 256), (2, 6.0, 16)])
    def test_frequency_radius_keeps_its_bits(self, d, L, N):
        g = make_grid(d, L, N)
        s = np.zeros(g.shape)
        for m in _dense_meshes(g, g.axis_frequencies()):
            s += m * m
        r = g.frequency_radius()
        assert r.shape == g.shape and r.flags.c_contiguous
        assert np.array_equal(r.view(np.uint64), np.sqrt(s).view(np.uint64))

    def test_2d_chirp_sampling_holds_little_beside_its_field(self):
        # dense meshes, their radius and the chirp's temporaries held 3.5
        # times the field at once
        g = make_grid(2, 16.0, 256)
        tracemalloc.start()
        try:
            f = verify.chirp_field(g, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * f.values.nbytes

    def test_512_chirp_sampling_holds_only_its_radius_beside_its_field(self):
        # |x| (2 MiB) beside the 4 MiB field, whose imaginary part holds the
        # phase: the real phase t|x|^2 and the complex 1j * phase beside them
        # held 8.14 MiB
        g = make_grid(2, 22.4, 512)
        verify.chirp_field(g, 4.0)  # numpy loads what it loads lazily
        tracemalloc.start()
        try:
            f = verify.chirp_field(g, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * f.values.nbytes + (1 << 18)


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

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("dx", [0.125, 37.3 / 64])
    @pytest.mark.parametrize("aliased", [True, False])
    def test_modulus(self, d, N, batch, dx, aliased):
        # on the presigned input the transform is the signed kernel up to the
        # output sign and the dx^d scale, and the modulus scaled by dx^d is
        # exact when dx is a power of two
        rng = np.random.default_rng(N + d + len(batch))
        shape = batch + (N,) * d
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        presigned = _presigned(a, d)
        before = presigned.copy()
        signed = centered_fft(a, d, dx)
        out = presigned if aliased else np.full(shape, np.nan, dtype=complex)
        modulus = np.full(shape, np.nan)
        assert centered_fft(presigned, d, dx, out=out, modulus=modulus) is modulus
        assert np.array_equal(out * _checkerboard((N,) * d, dx ** d), signed)
        if dx == 0.125:
            assert np.array_equal(modulus, np.abs(signed))
        else:
            np.testing.assert_allclose(modulus, np.abs(signed), rtol=1e-15, atol=0.0)
        if not aliased:
            assert np.array_equal(presigned, before)

    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
    def test_translates_of_presigned_are_presigned(self, d, N):
        # a window presigned once yields presigned translates, up to one sign
        rng = np.random.default_rng(N + d)
        g = rng.standard_normal((N,) * d) + 1j * rng.standard_normal((N,) * d)
        axes = tuple(range(d))
        for shift in [(0,) * d, (1,) * d, (3, 6)[:d], (N - 1, 2)[:d]]:
            moved = np.roll(_presigned(g, d), shift, axes)
            sign = (-1.0) ** sum(shift)
            assert np.array_equal(moved, sign * _presigned(np.roll(g, shift, axes), d))


class TestThreadSplit:
    @pytest.mark.parametrize("d,N", [(1, 64), (2, 16)])
    @pytest.mark.parametrize("batch", [(), (1,), (5,), (2, 3)])
    def test_split_batches_match_one_worker(self, split_workers, d, N, batch):
        rng = np.random.default_rng(N + d + len(batch))
        shape = batch + (N,) * d
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        results = []
        for workers in (1, 2):
            with split_workers(workers):
                modulus = np.empty(shape)
                results.append((centered_fft(a, d, 0.3), centered_ifft(a, d, 0.3),
                                centered_fft(a, d, 0.3, modulus=modulus)))
        for one, two in zip(*results):
            assert np.array_equal(one, two)

    def test_parts_cover_the_range_once(self, split_workers):
        for workers in (1, 2):
            with split_workers(workers):
                for n in (1, 2, 5, 64):
                    parts = core._split(lambda lo, hi: (lo, hi), n, 1 << 30)
                    assert len(parts) == min(workers, n)
                    assert [lo for lo, _ in parts] == [0] + [hi for _, hi in parts[:-1]]
                    assert parts[-1][1] == n

    def test_worker_error_is_raised(self, split_workers):
        def fail(lo, hi):
            raise FloatingPointError("in the pool")

        with split_workers(2), pytest.raises(FloatingPointError, match="in the pool"):
            core._split(_in_pool_thread(fail), 4, 1 << 30)

    def test_workers_keep_the_callers_errstate(self, split_workers):
        a = np.full(2, 1e200)
        with split_workers(2), np.errstate(over="raise"), pytest.raises(FloatingPointError):
            core._split(_in_pool_thread(lambda lo, hi: a * a), 4, 1 << 30)

    def test_worker_cap_follows_usable_cores(self, monkeypatch):
        threads, pool = threading.active_count(), core._pool
        for cores, workers in [({0}, 1), (set(range(8)), 2)]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cores: c, raising=False)
            assert core._worker_count() == workers
        assert threading.active_count() == threads and core._pool is pool

    def test_one_core_runs_inline(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(core, "_pool", None)
        monkeypatch.setattr(core, "_SPLIT_BYTES", 0)
        threads = threading.active_count()
        assert core._split(lambda lo, hi: (lo, hi), 64, 1 << 30) == [(0, 64)]
        assert core._pool == (1, None)
        assert threading.active_count() == threads

    def test_import_starts_no_thread(self):
        # set-up time: the pool and concurrent.futures wait for the first split
        code = ("import sys, threading, tfmult.cli; "
                "print('concurrent.futures' in sys.modules, threading.active_count())")
        env = dict(os.environ, PYTHONPATH=str(Path(tfmult.__file__).resolve().parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout.split()
        assert out == ["False", "1"]

    @pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork")
    def test_forked_child_can_split(self, split_workers):
        # the child inherits the pool object but not its thread
        with split_workers(2):
            core._split(lambda lo, hi: None, 4, 1 << 30)
            child = multiprocessing.get_context("fork").Process(target=_split_in_child)
            child.start()
            child.join(30)
            hung = child.is_alive()
            if hung:
                child.kill()
                child.join()
        assert not hung and child.exitcode == 0


class TestFillFold:
    """``centered_fft``'s fill and fold run in each thread piece, around its transform."""

    @pytest.mark.parametrize("batch", [(5,), (3, 6)])
    @pytest.mark.parametrize("modulus", [False, True])
    def test_fill_before_fold_once_per_piece(self, split_workers, batch, modulus):
        # the last batch axis is split; each piece is filled, then
        # transformed, then folded, and the pieces cover it once
        N = 16
        shape = batch + (N,)
        rng = np.random.default_rng(len(batch))
        src = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = centered_fft(src, 1, 0.125)
        source = _presigned(src, 1) if modulus else src
        for workers in (1, 2):
            with split_workers(workers):
                a = np.full(shape, np.nan, dtype=complex)
                out = np.full(shape, np.nan) if modulus else a
                seen, lock = [], threading.Lock()

                def fill(lo, hi):
                    a[..., lo:hi, :] = source[..., lo:hi, :]
                    with lock:
                        seen.append(("fill", lo, hi))

                def fold(lo, hi):
                    # the piece's output is written by now
                    assert not np.isnan(out[..., lo:hi, :]).any()
                    with lock:
                        seen.append(("fold", lo, hi))

                kwargs = {"modulus": out} if modulus else {}
                got = centered_fft(a, 1, 0.125, out=a, fill=fill, fold=fold, **kwargs)
            pieces = sorted({(lo, hi) for _, lo, hi in seen})
            assert len(pieces) == min(workers, batch[-1])
            assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
            assert pieces[-1][1] == batch[-1]
            for piece in pieces:
                steps = [kind for kind, *lohi in seen if tuple(lohi) == piece]
                assert steps == ["fill", "fold"]
            if modulus:
                assert np.array_equal(got, np.abs(want))
            else:
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("d,batch", [(1, (7,)), (1, (3, 8)), (2, (5,))])
    @pytest.mark.parametrize("modulus", [False, True])
    def test_fill_equals_fill_then_transform(self, split_workers, d, batch, modulus):
        N = 16
        shape = batch + (N,) * d
        rng = np.random.default_rng(d + len(batch))
        f = rng.standard_normal((N,) * d) + 1j * rng.standard_normal((N,) * d)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if modulus:
            f = _presigned(f, d)
        axis = len(batch) - 1
        results = []
        for workers in (1, 2):
            with split_workers(workers):
                buf = np.empty(shape, dtype=complex)

                def fill(lo, hi):
                    piece = (slice(None),) * axis + (slice(lo, hi),)
                    np.multiply(f, w[piece], out=buf[piece])

                A = np.empty(shape) if modulus else None
                first = np.empty(shape) if modulus else None
                fused = centered_fft(buf, d, 0.3, out=buf, modulus=A, fill=fill)
                plain = centered_fft(f * w, d, 0.3, modulus=first)
                assert np.array_equal(fused, plain)
                results.append(fused.copy())
        assert np.array_equal(*results)

    @pytest.mark.parametrize("own_out", [False, True])
    def test_stride_zero_out_is_one_batch(self, own_out):
        # x[None] has a first axis of stride 0, but only a _repeated view is
        # walked step by step: the callbacks keep their (lo, hi) arguments
        rng = np.random.default_rng(3)
        src = rng.standard_normal((6, 16)) + 1j * rng.standard_normal((6, 16))
        x = src.copy()
        out = x[None]
        assert out.strides[0] == 0
        seen = []
        centered_fft(out if own_out else src[None], 1, 0.125, out=out,
                     fill=lambda lo, hi: seen.append(("fill", lo, hi)),
                     fold=lambda lo, hi: seen.append(("fold", lo, hi)))
        assert seen == [("fill", 0, 6), ("fold", 0, 6)]
        assert np.array_equal(x, centered_fft(src, 1, 0.125))

    @pytest.mark.parametrize("modulus", [False, True])
    def test_repeated_view_walks_its_steps(self, split_workers, modulus):
        # each step refills the one buffer and is folded before the next
        rng = np.random.default_rng(4)
        src = rng.standard_normal((3, 6, 16)) + 1j * rng.standard_normal((3, 6, 16))
        want = centered_fft(src, 1, 0.125)
        for workers in (1, 2):
            with split_workers(workers):
                buf = np.empty((6, 16), dtype=complex)
                A = np.empty((6, 16))
                got = np.empty((3, 6, 16), dtype=complex if not modulus else float)
                res = A if modulus else buf

                def fill(step, lo, hi):
                    buf[lo:hi] = _presigned(src[step], 1)[lo:hi] if modulus else src[step, lo:hi]

                def fold(step, lo, hi):
                    got[step, lo:hi] = res[lo:hi]

                steps = core._repeated(buf, 3)
                centered_fft(steps, 1, 0.125, out=steps,
                             modulus=core._repeated(A, 3) if modulus else None,
                             fill=fill, fold=fold)
                assert np.array_equal(got, np.abs(want) if modulus else want)


    def test_walked_modulus_keeps_each_step_in_its_rows(self, split_workers):
        # a plain (steps, ...) modulus: each step's |result| stays in its own
        # rows while the next steps reuse the one complex buffer
        rng = np.random.default_rng(5)
        src = rng.standard_normal((3, 6, 16)) + 1j * rng.standard_normal((3, 6, 16))
        want = np.abs(centered_fft(src, 1, 0.125))
        for workers in (1, 2):
            with split_workers(workers):
                buf = np.empty((6, 16), dtype=complex)
                A = np.full((3, 6, 16), np.nan)

                def fill(step, lo, hi):
                    buf[lo:hi] = _presigned(src[step], 1)[lo:hi]

                steps = core._repeated(buf, 3)
                got = centered_fft(steps, 1, 0.125, out=steps, modulus=A, fill=fill)
                assert got is A and np.array_equal(A, want)


def _in_pool_thread(fn):
    """A split piece that runs fn on a pool thread; the caller's piece waits for it."""
    ran = threading.Event()

    def piece(lo, hi):
        if threading.current_thread() is threading.main_thread():
            ran.wait(10)
            return None
        try:
            return fn(lo, hi)
        finally:
            ran.set()

    return piece


def _split_in_child():
    a = np.arange(8.0)
    parts = core._split(lambda lo, hi: a[lo:hi].sum(), 8, 1 << 30)
    sys.exit(0 if len(parts) > 1 and sum(parts) == 28.0 else 1)
