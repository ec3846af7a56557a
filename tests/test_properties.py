"""Exact identities of the discrete STFT, checked on random inputs.

Moyal's formula and the lattice covariances hold exactly on the periodic
lattice, so the only slack is floating-point rounding.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from tfmult.core import SampledField, centered_ifft, coarsen, l2_norm, make_grid, sample
from tfmult.tf import custom_window, gaussian_window, modulation_norm, stft

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


# The signed STFT's complex values for each kind of window: 1D, 2D without
# factors and the 2D Gaussian with its factors (True), all on the windowed
# transform; dx = 12/128 and 6/16 are no powers of two.
signed_paths = st.sampled_from([
    ((1, 8.0, 64), True), ((1, 12.0, 128), True),
    ((2, 4.0, 16), True), ((2, 6.0, 16), True),
    ((2, 4.0, 16), False), ((2, 6.0, 16), False),
])
# the largest error of each identity relative to its largest value; measured
# at 2e-15 or below, while a conjugated phase misses by more than 1
TRANSLATION_RTOL = 1e-12
MODULATION_RTOL = 1e-12
INVERSION_RTOL = 1e-12


def _signed_case(path, seed):
    """(grid, f, window, V_g f shaped (positions..., frequencies...)) on one path."""
    dims, row_column = path
    grid = make_grid(*dims)
    g = gaussian_window(grid)
    if not row_column:
        g = custom_window(g.field)
    f = _field(grid, seed)
    return grid, f, g, stft(f, g).values.reshape(grid.shape * 2)


def _turns(grid, k):
    """sum_j k_j (i_j - N/2) mod N on the index lattice: a lattice phase, in N-ths of a turn."""
    centered = np.arange(grid.N) - grid.N // 2
    meshes = np.meshgrid(*([centered] * grid.d), indexing="ij")
    return sum(kj * m for kj, m in zip(k, meshes)) % grid.N


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@PROPERTY
@given(signed_paths, st.integers(0, 2 ** 32 - 1), st.integers(-300, 300),
       st.integers(-300, 300))
def test_translation_covariance_with_phase(path, seed, k0, k1):
    # V(T_y f)(x, w) = e^{-2 pi i y.w} V f(x - y, w) for the lattice step
    # y = k dx, where y.w = sum k_j (m_j - N/2) / N exactly
    grid, f, g, V = _signed_case(path, seed)
    k = (k0, k1)[: grid.d]
    axes = tuple(range(grid.d))
    moved = SampledField(grid, np.roll(f.reshaped(), k, axis=axes))
    got = stft(moved, g).values.reshape(V.shape)
    want = np.exp(-2j * np.pi * _turns(grid, k) / grid.N) * np.roll(V, k, axis=axes)
    assert _rel_err(got, want) < TRANSLATION_RTOL


@PROPERTY
@given(signed_paths, st.integers(0, 2 ** 32 - 1), st.integers(-300, 300),
       st.integers(-300, 300))
def test_modulation_covariance_complex(path, seed, m0, m1):
    # V(M_eta f)(x, w) = V f(x, w - eta) for the dual-lattice step eta = m / L,
    # where eta.x = sum m_j (k_j - N/2) / N exactly
    grid, f, g, V = _signed_case(path, seed)
    m = (m0, m1)[: grid.d]
    moved = SampledField(grid, f.reshaped() * np.exp(2j * np.pi * _turns(grid, m) / grid.N))
    got = stft(moved, g).values.reshape(V.shape)
    want = np.roll(V, m, axis=tuple(range(grid.d, 2 * grid.d)))
    assert _rel_err(got, want) < MODULATION_RTOL


@PROPERTY
@given(signed_paths, st.integers(0, 2 ** 32 - 1))
def test_inversion(path, seed):
    # sum_x IDFT_w[V(x, .)] T_x g = f sum |g|^2 over the whole position lattice
    grid, f, g, V = _signed_case(path, seed)
    rows = centered_ifft(V.reshape(-1, *grid.shape), grid.d, grid.dx)
    gv = g.field.reshaped()
    recon = np.zeros(grid.shape, dtype=complex)
    for x, row in zip(np.ndindex(grid.shape), rows):
        recon += row * np.roll(gv, tuple(j - grid.N // 2 for j in x), axis=tuple(range(grid.d)))
    want = f.reshaped() * np.sum(np.abs(gv) ** 2)
    assert _rel_err(recon, want) < INVERSION_RTOL
