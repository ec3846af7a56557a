"""Exact identities of the discrete STFT, checked on random inputs.

Moyal's formula and the lattice covariances hold exactly on the periodic
lattice, so the only slack is floating-point rounding.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tfmult import verify
from tfmult.core import (SampledField, centered_ifft, coarsen, inverse_transform, l2_norm,
                         make_grid, sample)
from tfmult.mult import (Symbol, apply_multiplier, sin_singular_profile, symbol_unimodular,
                         truncated_field)
from tfmult.tf import (Window, amalgam_norm_wfl1, custom_window, gaussian_window,
                       modulation_norm, stft)

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
    val = modulation_norm(f, g, 2, 2)
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


# The paper's theorem on the periodic lattice.  Factor the window in
# frequency, g^ = g1^ g2^ with g1^ = g2^ = e^{-pi xi^2 / 2}: by Parseval
# |V_g(sigma(D) f)(., xi)| is the modulus of a circular convolution of
# F^-1(sigma T_xi conj g1^) with a modulated V_{g2} f(., xi), and Young's
# inequality bounds its L^p norm by the FL^1 norm of sigma T_xi conj g1^,
# at most the W(FL^1, l^inf) norm of sigma with window g1^, times that of
# V_{g2} f(., xi).  So for every (p, q)
#   ||sigma(D) f||_{M^{p,q}_g} <= ||sigma||_{W(FL^1, l^inf), g1^} ||f||_{M^{p,q}_{g2}},
# with equality for the constant symbols (alpha = 0) at p = 1, q = inf.  The
# paper's byproduct, the singular symbols chi |xi|^-delta sin(|xi|^alpha) with
# 0 <= delta <= alpha, are bounded by the same inequality.
_THEOREM_GRID = make_grid(1, 32.0, 512)
# the frequency lattice of the theorem's grid, as the positions of a grid of its own
_FREQUENCY_GRID = make_grid(1, 512 / 32.0, 512)
_G1_HAT = np.exp(-np.pi * _THEOREM_GRID.axis_frequencies() ** 2 / 2)
_G = custom_window(inverse_transform(SampledField(_THEOREM_GRID, _G1_HAT * _G1_HAT)))
_G2 = custom_window(inverse_transform(SampledField(_THEOREM_GRID, _G1_HAT)))
_W_WINDOW = custom_window(SampledField(_FREQUENCY_GRID, _G1_HAT))
_EXPONENTS = st.one_of(st.just(math.inf), st.floats(1.0, 8.0))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.floats(0.0, 1.0),
       st.sampled_from(sorted(verify.PROBES)), _EXPONENTS, _EXPONENTS)
@example(0.0, 1.0, 0.0, "gauss_l1", 1.0, math.inf)  # the bound is attained
@example(1.0, 1.0, 1.0, "gauss_l1", 1.0, math.inf)  # the singular symbol comes closest
def test_multiplier_bound_on_the_lattice(alpha, t, delta_share, probe, p, q):
    # sigma's samples on the frequency lattice are those of a field on _FREQUENCY_GRID
    singular = truncated_field(_FREQUENCY_GRID, sin_singular_profile, alpha, delta_share * alpha)
    f = verify.gaussian_data(_THEOREM_GRID, *verify.PROBES[probe])
    rhs = modulation_norm(f, _G2, p, q)
    for sigma in (symbol_unimodular(_THEOREM_GRID, alpha, t),
                  Symbol(_THEOREM_GRID, singular.values)):
        w = amalgam_norm_wfl1(SampledField(_FREQUENCY_GRID, sigma.values), _W_WINDOW)
        lhs = modulation_norm(apply_multiplier(sigma, f), _G, p, q)
        assert lhs <= w * rhs * (1 + 1e-12)


# The same inequality in 2D for a tensor product f = f0 x f1 of two probes,
# on L = 16, N = 64: g1^ = e^{-pi |xi|^2 / 2} is e^{-pi xi0^2 / 2} x
# e^{-pi xi1^2 / 2}, so every window is the product of two equal 1D lattice
# windows, held as factors.
_GRID_1D = make_grid(1, 16.0, 64)
_THEOREM_GRID_2D = make_grid(2, 16.0, 64)
_G1_HAT_1D = np.exp(-np.pi * _GRID_1D.axis_frequencies() ** 2 / 2)


def _product_window(grid, factor):
    return Window(grid, factors=(factor, factor))


_G_2D = _product_window(_THEOREM_GRID_2D, inverse_transform(
    SampledField(_GRID_1D, _G1_HAT_1D * _G1_HAT_1D)).values)
_G2_2D = _product_window(_THEOREM_GRID_2D, inverse_transform(
    SampledField(_GRID_1D, _G1_HAT_1D)).values)
_W_WINDOW_2D = _product_window(make_grid(2, 64 / 16.0, 64), _G1_HAT_1D)


# Each example makes three 2D passes of 64^4 |V| values, about 0.2 s each, so
# the test draws one example beside the attained one, with the exponents
# whose powers are cheapest.
@settings(max_examples=1, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(-3.0, 3.0), st.sampled_from(sorted(verify.PROBES)),
       st.sampled_from(sorted(verify.PROBES)), st.sampled_from([1.0, 2.0, math.inf]),
       st.sampled_from([1.0, 2.0, math.inf]))
@example(0.0, 1.0, "gauss_l1", "gauss_l2", 1.0, math.inf)  # within 0.16% of the bound
def test_multiplier_bound_on_the_2d_lattice(alpha, t, probe0, probe1, p, q):
    f0, f1 = (verify.gaussian_data(_GRID_1D, *verify.PROBES[k]).values for k in (probe0, probe1))
    f = SampledField(_THEOREM_GRID_2D, np.multiply.outer(f0, f1))
    sigma = symbol_unimodular(_THEOREM_GRID_2D, alpha, t)
    w = amalgam_norm_wfl1(SampledField(_W_WINDOW_2D.grid, sigma.values), _W_WINDOW_2D)
    lhs = modulation_norm(apply_multiplier(sigma, f), _G_2D, p, q)
    assert lhs <= w * modulation_norm(f, _G2_2D, p, q) * (1 + 1e-12)
