"""Exact identities of the discrete STFT, checked on random inputs.

Moyal's formula and the lattice covariances hold exactly on the periodic
lattice, so the only slack is floating-point rounding.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tfmult.core import SampledField, coarsen, l2_norm, make_grid, sample
from tfmult.tf import gaussian_window, modulation_norm, stft

RTOL = 1e-12
PROPERTY = settings(max_examples=8, deadline=None)

# (d, L, N) with at most 256 STFT rows
grids = st.sampled_from([(1, 8.0, 64), (1, 16.0, 128), (1, 16.0, 256), (2, 4.0, 16)])


def _field(grid, seed):
    rng = np.random.default_rng(seed)
    n = grid.npoints
    return SampledField(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _abs_stft(f):
    """|V_g f| for the Gaussian window, shaped (positions..., frequencies...)."""
    grid = f.grid
    A = np.abs(stft(f, gaussian_window(grid)).values)
    return A.reshape(grid.shape * 2)


def _close(a, b):
    return np.allclose(a, b, rtol=RTOL, atol=RTOL * np.max(np.abs(b)))


@PROPERTY
@given(grids, st.integers(0, 2 ** 32 - 1))
def test_moyal(dims, seed):
    # ||V_g f||_{L2} = ||f||_2 ||g||_2
    grid = make_grid(*dims)
    f = _field(grid, seed)
    g = gaussian_window(grid)
    val = modulation_norm(f, g, 2, 2, refine=False).value
    assert np.isclose(val, l2_norm(f) * l2_norm(g.field), rtol=RTOL, atol=0.0)


@PROPERTY
@given(grids, st.integers(0, 2 ** 32 - 1), st.integers(-300, 300), st.integers(-300, 300))
def test_translation_covariance(dims, seed, k0, k1):
    # a circular shift of f by k samples shifts the rows of |V_g f| by k
    grid = make_grid(*dims)
    f = _field(grid, seed)
    shift = (k0, k1)[: grid.d]
    axes = tuple(range(grid.d))
    moved = SampledField(grid, np.roll(f.reshaped(), shift, axis=axes))
    assert _close(_abs_stft(moved), np.roll(_abs_stft(f), shift, axis=axes))


@PROPERTY
@given(grids, st.integers(0, 2 ** 32 - 1), st.integers(-300, 300), st.integers(-300, 300))
def test_modulation_covariance(dims, seed, m0, m1):
    # multiplying f by e^{2 pi i m.x / L} shifts the columns of |V_g f| by m
    grid = make_grid(*dims)
    f = _field(grid, seed)
    m = (m0, m1)[: grid.d]
    meshes = grid.position_meshes()
    phase = np.exp(2j * np.pi * sum(mj * x for mj, x in zip(m, meshes)) / grid.L)
    moved = SampledField(grid, f.reshaped() * phase)
    axes = tuple(range(grid.d, 2 * grid.d))
    assert _close(_abs_stft(moved), np.roll(_abs_stft(f), m, axis=axes))


@PROPERTY
@given(st.sampled_from([1, 2]), st.floats(0.5, 64.0), st.integers(4, 7),
       st.floats(0.1, 4.0), st.floats(-4.0, 4.0))
def test_coarsen_equals_sampling_on_the_coarse_grid(d, L, log2n, a, b):
    # every second fine position is a coarse position, bit for bit: the coarse
    # spacing L / (N/2) is exactly twice L / N, and doubling is exact
    def fn(*xs):
        return np.exp(-np.pi * a * sum(x * x for x in xs)) * np.exp(1j * np.pi * b * xs[0] ** 2)

    N = 2 ** log2n
    fine = sample(fn, make_grid(d, L, N))
    assert np.array_equal(coarsen(fine).values, sample(fn, make_grid(d, L, N // 2)).values)
