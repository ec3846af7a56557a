"""Symbol constructors, FFT-based multiplier application, and propagators.

A multiplier acts as f -> inverse_transform(sigma * forward_transform(f));
diagonal in frequency, so composition is pointwise multiplication of symbols
and unimodular symbols are exact discrete L2 isometries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    chi_profile,
    forward_transform,
    inverse_transform,
    radial_field,
    require_same_grid,
)


@dataclass
class Symbol:
    """Samples of a multiplier on the frequency lattice; a real multiplier may keep real values.

    ``aliasing_warning`` is set when the symbol's phase changes by more than
    pi between adjacent frequency samples somewhere on the lattice; such a
    symbol is undersampled and norm estimates computed from it are suspect.
    """

    grid: Grid
    values: np.ndarray  # flat, length N^d
    aliasing_warning: bool = False


def _phase_aliased(phase: np.ndarray) -> bool:
    """True if the (unwrapped) phase jumps by >= pi between neighbors."""
    for ax in range(phase.ndim):
        if phase.size and np.max(np.abs(np.diff(phase, axis=ax))) >= np.pi:
            return True
    return False


def _check_unimodular_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 2.0):
        raise ParameterError(f"alpha must lie in [0, 2], got {alpha}")


def unimodular_phase(rho, alpha: float, t: float = 1.0):
    """t rho^alpha, the phase of the multiplier e^{i t |xi|^alpha} at |xi| = rho.

    rho^0 is 1 at rho = 0 too, so alpha = 0 gives the constant phase t.
    """
    return t * rho ** alpha


def unimodular_profile(rho, alpha: float, t: float = 1.0):
    """e^{i t rho^alpha}; the chirp e^{i pi t |x|^2} is alpha = 2 with pi t for t.

    The phase is exponentiated in place; a scalar rho gives a scalar.
    """
    z = np.asarray(1j * unimodular_phase(rho, alpha, t))
    return np.exp(z, out=z)[()]


def symbol_unimodular(grid: Grid, alpha: float, t: float = 1.0) -> Symbol:
    """e^{i t |xi|^alpha}; alpha restricted to [0, 2].

    A t whose largest phase on the grid is not resolved
    (``_check_phase_resolution``) raises ParameterError.
    """
    _check_unimodular_alpha(alpha)
    _check_phase_resolution(grid, t, alpha)
    phase = unimodular_phase(grid.frequency_radius(), alpha, t)
    return Symbol(grid, np.exp(1j * phase).reshape(-1),
                  aliasing_warning=_phase_aliased(phase))


def sin_singular_profile(rho, alpha: float, delta: float) -> np.ndarray:
    """sin(rho^alpha) / rho^delta for rho >= 0, with its removable value at 0.

    For delta = 0 the formula holds at rho = 0 too, since rho^0 = 1 there:
    the value is sin(1) at alpha = 0, where the symbol is the constant
    sin(1), and 0 for alpha > 0.  For delta > 0 the value at rho = 0 is the
    limit 1 for delta = alpha and 0 for delta < alpha; callers check their
    own parameter range.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    nz = (rho > 0) | (delta == 0)
    out[nz] = np.sin(rho[nz] ** alpha) / rho[nz] ** delta
    out[~nz] = 1.0 if delta == alpha else 0.0
    return out


def truncated_field(grid: Grid, profile, *params) -> SampledField:
    """profile(|x|, *params) chi(|x|): the symbol cut off to |x| <= 2 by ``chi_profile``."""
    return radial_field(grid, lambda rho: profile(rho, *params) * chi_profile(rho))


def multiply_symbols(a: Symbol, b: Symbol) -> Symbol:
    require_same_grid(a.grid, b.grid)
    return Symbol(a.grid, a.values * b.values,
                  aliasing_warning=a.aliasing_warning or b.aliasing_warning)


def apply_multiplier(sigma: Symbol, f: SampledField) -> SampledField:
    """inverse_transform(sigma * forward_transform(f))."""
    require_same_grid(sigma.grid, f.grid)
    F = forward_transform(f)
    F.values *= sigma.values
    return inverse_transform(F)


# ---------------------------------------------------------------------------
# propagators

# The largest ulp, in radians, that a propagator phase may have on its grid.
# Past it cos and sin of the phase carry that much rounding, and at t = 1e300
# every nonzero wave phase has an ulp of 1e283 rad, so the flow is noise.  A
# millionth of a radian moves no norm by more than about 1e-6, far inside
# every tolerance of the conservation experiments.
PHASE_ULP_MAX = 1e-6


def _check_phase_resolution(grid: Grid, t: float, power: float) -> None:
    """Raise unless the largest phase |t| |xi|^power on the grid has an ulp <= PHASE_ULP_MAX."""
    with np.errstate(over="ignore", invalid="ignore"):  # named below, not warned
        xi_max = np.max(grid.frequency_radius())
        top = float(abs(t) * xi_max ** power)
    if not np.isfinite(xi_max):
        raise ParameterError(
            f"the grid L = {grid.L:g}, N = {grid.N} has a frequency lattice of spacing "
            f"1/L = {grid.dxi:g} whose |xi| overflows float64"
        )
    if not math.ulp(top) <= PHASE_ULP_MAX:
        raise ParameterError(
            f"t = {t:g}: the largest propagator phase t|xi|^{power:g} on the grid, {top:.4g} rad, "
            f"has an ulp of {math.ulp(top):.3g} rad, above {PHASE_ULP_MAX:g}"
        )


def wave_symbols(grid: Grid, t: float) -> tuple:
    """(cos(t|xi|), -|xi| sin(t|xi|)), the multipliers of the wave flow from (f, 0).

    They take f_hat to u_hat and to v_hat = u_t_hat at time t.  A t whose
    largest phase t|xi| is not resolved (``_check_phase_resolution``) raises
    ParameterError.
    """
    _check_phase_resolution(grid, t, 1)
    rho = grid.frequency_radius().reshape(-1)
    return Symbol(grid, np.cos(t * rho)), Symbol(grid, -rho * np.sin(t * rho))


def schrodinger_propagate(f: SampledField, t: float) -> SampledField:
    """Free Schrodinger evolution: u_hat(xi, t) = e^{i t |xi|^2} f_hat(xi).

    A t whose largest phase is not resolved (``_check_phase_resolution``)
    raises ParameterError.
    """
    return apply_multiplier(symbol_unimodular(f.grid, 2.0, t), f)


def wave_propagate(f: SampledField, g: SampledField, t: float) -> tuple:
    """(u, u_t) at time t of the wave evolution from (u, u_t)(0) = (f, g).

    u_hat = cos(t|xi|) f_hat + sin(t|xi|)/|xi| g_hat, the xi = 0 entry of the
    second multiplier set to its limit t; v_hat = -|xi| sin(t|xi|) f_hat
    + cos(t|xi|) g_hat (``wave_symbols`` gives the multipliers of f_hat).
    Per mode this is an exact rotation of (|xi| u_hat, v_hat), so the
    discrete wave energy is conserved.  A t whose largest phase t|xi| is not
    resolved (``_check_phase_resolution``) raises ParameterError.
    """
    require_same_grid(f.grid, g.grid)
    grid = f.grid
    cos, vel = wave_symbols(grid, t)
    rho = grid.frequency_radius().reshape(-1)
    F = forward_transform(f).values
    G = forward_transform(g).values
    sinc = np.empty_like(rho)
    nz = rho > 0
    sinc[nz] = np.sin(t * rho[nz]) / rho[nz]
    sinc[~nz] = t
    U = cos.values * F + sinc * G
    V = vel.values * F + cos.values * G
    return inverse_transform(SampledField(grid, U)), inverse_transform(SampledField(grid, V))


def wave_energy(u: SampledField, v: SampledField) -> float:
    """Discrete phase-space energy dxi^d * sum(|xi u_hat|^2 + |v_hat|^2) of (u, u_t) = (u, v)."""
    require_same_grid(u.grid, v.grid)
    grid = u.grid
    rho = grid.frequency_radius().reshape(-1)
    U = forward_transform(u).values
    V = forward_transform(v).values
    return float(grid.dxi ** grid.d * np.sum(np.abs(rho * U) ** 2 + np.abs(V) ** 2))
