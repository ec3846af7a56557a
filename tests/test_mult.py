"""Symbol constructors, multiplier application, and the Schrodinger and wave flows."""

import numpy as np
import pytest

from tfmult.core import ParameterError, SampledField, l2_norm, make_grid, sample
from tfmult.mult import (
    Symbol,
    apply_multiplier,
    sin_singular_profile,
    symbol_unimodular,
    unimodular_profile,
    wave_energy,
    wave_symbols,
)


@pytest.fixture
def grid():
    return make_grid(1, 16.0, 512)


def _schrodinger(f, t):
    """The free Schrodinger flow e^{it|D|^2} f."""
    return apply_multiplier(symbol_unimodular(f.grid, 2.0, t), f)


def _wave(f, t):
    """(u, u_t) at time t of the wave flow from (u, u_t)(0) = (f, 0)."""
    return tuple(apply_multiplier(sigma, f) for sigma in wave_symbols(f.grid, t))


class TestSymbols:
    @pytest.mark.parametrize("rho", [0.0, 0.75, np.float64(2.5)])
    def test_unimodular_profile_of_a_scalar_is_a_scalar(self, rho):
        value = unimodular_profile(rho, 2.0, 3.0)
        assert np.isscalar(value) and value == np.exp(1j * (3.0 * rho ** 2.0))

    def test_unimodular_profile_keeps_its_bits_and_its_input(self):
        rho = np.linspace(0.0, 8.0, 1001).reshape(7, 143)
        kept = rho.copy()
        value = unimodular_profile(rho, 1.5, 0.7)
        assert np.array_equal(rho, kept) and value.shape == rho.shape
        want = np.exp(1j * (0.7 * kept ** 1.5))
        assert np.array_equal(value.view(np.uint64), want.view(np.uint64))

    def test_unimodular_profile_returns_the_buffer_it_owns(self):
        # it returned a view of its exp buffer, which the sampler then copied
        value = unimodular_profile(np.linspace(0.0, 8.0, 64).reshape(8, 8), 2.0, 1.0)
        assert value.base is None and value.flags.owndata and value.flags.writeable
        grid = make_grid(2, 8.0, 32)
        f = sample(lambda *xs: unimodular_profile(np.hypot(*xs), 2.0, 1.0), grid)
        assert f.values.base is not None and f.values.base.base is None

    def test_unimodular_is_unimodular(self, grid):
        s = symbol_unimodular(grid, 1.5, t=0.7)
        assert np.allclose(np.abs(s.values), 1.0)

    def test_unimodular_alpha_zero_constant(self, grid):
        s = symbol_unimodular(grid, 0.0, t=2.0)
        assert np.allclose(s.values, np.exp(2.0j))

    def test_unimodular_rejects_alpha_out_of_range(self, grid):
        with pytest.raises(ParameterError):
            symbol_unimodular(grid, 2.5)
        with pytest.raises(ParameterError):
            symbol_unimodular(grid, -0.1)

    def test_unimodular_rejects_an_unresolved_phase(self):
        # |xi|^alpha overflowed to inf and the symbol was nan, with numpy warnings
        with pytest.raises(ParameterError, match="whose \\|xi\\| overflows float64"):
            symbol_unimodular(make_grid(1, 1e-300, 512), 0.5)
        with pytest.raises(ParameterError, match="t = 1e\\+100: the largest propagator phase "
                                                 "t\\|xi\\|\\^1.5"):
            symbol_unimodular(make_grid(1, 16.0, 512), 1.5, t=1e100)

    def test_sin_singular_origin_value(self):
        assert sin_singular_profile(0.0, 1.0, 1.0) == 1.0
        assert sin_singular_profile(0.0, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_sin_singular_origin_value_at_delta_zero(self, alpha):
        # at alpha = delta = 0 the origin read 1.0, while the symbol
        # |xi|^-0 sin(|xi|^0) is the constant sin(1) = 0.8414709848
        rho = np.array([0.0, 0.25, 1.0, 3.0])
        values = sin_singular_profile(rho, alpha, 0.0)
        assert values[0] == (np.sin(1.0) if alpha == 0 else 0.0)
        assert np.array_equal(values[1:], np.sin(rho[1:] ** alpha))
        if alpha == 0:
            assert np.all(values == values[1])


class TestApply:
    def test_identity_symbol(self, grid):
        rng = np.random.default_rng(1)
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        one = Symbol(grid, np.ones(grid.npoints, dtype=complex))
        out = apply_multiplier(one, f)
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_l2_isometry(self, grid):
        rng = np.random.default_rng(2)
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        s = symbol_unimodular(grid, 1.3, t=-0.9)
        assert np.isclose(l2_norm(apply_multiplier(s, f)), l2_norm(f), rtol=1e-12)

    def test_composition_commutes(self, grid):
        rng = np.random.default_rng(3)
        f = SampledField(grid, rng.standard_normal(512) + 1j * rng.standard_normal(512))
        s1 = symbol_unimodular(grid, 0.5, t=1.0)
        s2 = symbol_unimodular(grid, 2.0, t=0.3 * np.pi)
        a = apply_multiplier(s1, apply_multiplier(s2, f))
        b = apply_multiplier(s2, apply_multiplier(s1, f))
        c = apply_multiplier(Symbol(grid, s1.values * s2.values), f)
        assert np.max(np.abs(a.values - b.values)) < 1e-12
        assert np.max(np.abs(a.values - c.values)) < 1e-12

    def test_does_not_mutate_input(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        saved = f.values.copy()
        apply_multiplier(symbol_unimodular(grid, 1.0), f)
        assert np.array_equal(f.values, saved)


class TestSchrodinger:
    def test_t_zero_identity(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        out = _schrodinger(f, 0.0)
        assert np.max(np.abs(out.values - f.values)) < 1e-14

    def test_group_law(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2) * np.cos(2 * x), grid)
        u1 = _schrodinger(_schrodinger(f, 0.7), 1.1)
        u2 = _schrodinger(f, 1.8)
        assert np.max(np.abs(u1.values - u2.values)) < 1e-12

    def test_mass_conserved(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        u = _schrodinger(f, 2.0)
        assert np.isclose(l2_norm(u), l2_norm(f), rtol=1e-12)

    def test_gaussian_spreading_closed_form(self):
        # |u(x, t)|^2 for e^{-pi x^2} initial data has variance growing as
        # (1 + t^2/pi^2 * pi^2) -> peak amplitude (1 + t^2/pi^2)^{-1/4}... use
        # the exact peak value |u(0, t)| = (1 + t^2 / pi^2)^{-1/4}
        grid = make_grid(1, 64.0, 4096)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        t = 1.5
        u = _schrodinger(f, t)
        peak = np.abs(u.values[grid.N // 2])
        oracle = (1.0 + (t / np.pi) ** 2) ** -0.25
        assert np.isclose(peak, oracle, rtol=1e-8)


    @pytest.mark.parametrize("t", [2.0 ** 25, -2.0 ** 25, 1e100])
    def test_unresolved_phase_raises(self, grid, t):
        # the top |xi| on the grid is 256 / 16 = 16, so from t = 2^25 on the
        # phase t|xi|^2 reaches 2^33, whose ulp 2^-19 rad is above 1e-6; at
        # t = 1e100 the ulp is 2e87 rad and the flow would be rounding noise
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        with pytest.raises(ParameterError, match="the largest propagator phase"):
            symbol_unimodular(grid, 2.0, t)
        resolved = np.nextafter(abs(t), 0.0) if abs(t) == 2.0 ** 25 else 1.0
        assert np.isfinite(_schrodinger(f, resolved).values).all()


class TestWave:
    def test_t_zero_identity(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        u, v = _wave(f, 0.0)
        assert np.max(np.abs(u.values - f.values)) < 1e-13
        assert np.max(np.abs(v.values)) < 1e-13

    def test_energy_conserved(self, grid):
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        e0 = wave_energy(*_wave(f, 0.0))
        for t in (0.5, 1.0, 3.0):
            et = wave_energy(*_wave(f, t))
            assert abs(et - e0) / e0 < 1e-12

    def test_dalembert_splitting(self):
        # zero initial velocity: u = (F(x - s) + F(x + s)) / 2 where the
        # shift is s = t / (2 pi) under the 2 pi frequency convention; this
        # is the cos(t|D|) f that the wave plan's multiplier gives
        grid = make_grid(1, 64.0, 2048)
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        t = 4.0
        s = t / (2.0 * np.pi)
        u = _wave(f, t)[0]
        x = grid.axis_positions()
        oracle = 0.5 * (np.exp(-np.pi * (x - s) ** 2) + np.exp(-np.pi * (x + s) ** 2))
        assert np.max(np.abs(u.values - oracle)) < 1e-10

    @pytest.mark.parametrize("t", [2.0 ** 29, -2.0 ** 29, 1e300])
    def test_unresolved_phase_raises(self, grid, t):
        # the top |xi| is 16, so from t = 2^29 on the phase t|xi| reaches
        # 2^33, whose ulp 2^-19 rad is above 1e-6; at t = 1e300 every nonzero
        # phase has an ulp of 1e283 rad or more
        f = sample(lambda x: np.exp(-np.pi * x ** 2), grid)
        with pytest.raises(ParameterError, match="the largest propagator phase"):
            wave_symbols(grid, t)
        resolved = np.nextafter(abs(t), 0.0) if abs(t) == 2.0 ** 29 else 1.0
        assert all(np.isfinite(h.values).all() for h in _wave(f, resolved))
