"""Symbol constructors, FFT-based multiplier application, and propagators.

A multiplier acts as f -> inverse_transform(sigma * forward_transform(f));
diagonal in frequency, so composition is pointwise multiplication of symbols
and unimodular symbols are exact discrete L2 isometries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Grid,
    ParameterError,
    SampledField,
    forward_transform,
    inverse_transform,
    require_same_grid,
)
from .tf import chi_profile


@dataclass
class Symbol:
    """Complex samples of a multiplier on the frequency lattice.

    ``aliasing_warning`` is set when the symbol's phase changes by more than
    pi between adjacent frequency samples somewhere on the lattice; such a
    symbol is undersampled and norm estimates computed from it are suspect.
    """

    grid: Grid
    values: np.ndarray  # flat, length N^d
    descriptor: str
    params: dict
    aliasing_warning: bool = False

    def reshaped(self) -> np.ndarray:
        return self.values.reshape(self.grid.shape)


def _phase_aliased(phase: np.ndarray) -> bool:
    """True if the (unwrapped) phase jumps by >= pi between neighbors."""
    for ax in range(phase.ndim):
        if phase.size and np.max(np.abs(np.diff(phase, axis=ax))) >= np.pi:
            return True
    return False


def _check_unimodular_alpha(alpha: float) -> None:
    if not (0.0 <= alpha <= 2.0):
        raise ParameterError(f"alpha must lie in [0, 2], got {alpha}")


def symbol_unimodular(grid: Grid, alpha: float, t: float = 1.0, r: float = 1.0) -> Symbol:
    """e^{i t |xi|_{2r}^alpha}; alpha restricted to [0, 2], r >= 1.

    r = 1 gives the Euclidean norm |xi|.
    """
    _check_unimodular_alpha(alpha)
    if not r >= 1.0:
        raise ParameterError(f"r must be >= 1, got {r}")
    phase = t * grid.frequency_radius(r) ** alpha if alpha > 0 else t * np.ones(grid.shape)
    vals = np.exp(1j * phase)
    return Symbol(
        grid,
        vals.reshape(-1),
        "unimodular",
        {"alpha": alpha, "t": t, "r": r},
        aliasing_warning=_phase_aliased(phase),
    )


def symbol_gaussian_chirp(grid: Grid, t: float) -> Symbol:
    """The quadratic chirp e^{i pi t |xi|^2}."""
    phase = np.pi * t * grid.frequency_radius() ** 2
    return Symbol(
        grid,
        np.exp(1j * phase).reshape(-1),
        "gaussian_chirp",
        {"t": t},
        aliasing_warning=_phase_aliased(phase),
    )


def sin_singular_profile(rho, alpha: float, delta: float) -> np.ndarray:
    """sin(rho^alpha) / rho^delta for rho >= 0, with its removable value at 0.

    The value at rho = 0 is the limit for delta = alpha and 0 for delta <
    alpha; callers check their own parameter range.
    """
    rho = np.asarray(rho, dtype=float)
    out = np.empty_like(rho)
    nz = rho > 0
    out[nz] = np.sin(rho[nz] ** alpha) / rho[nz] ** delta
    out[~nz] = 1.0 if delta == alpha else 0.0
    return out


def symbol_sin_singular(grid: Grid, alpha: float, delta: float) -> Symbol:
    """sin(|xi|^alpha) / |xi|^delta with the removable value at xi = 0.

    Requires 0 < delta <= alpha; for delta > alpha the symbol is unbounded
    near the origin and is rejected.
    """
    if not (0.0 < delta <= alpha):
        raise ParameterError(f"need 0 < delta <= alpha, got alpha={alpha}, delta={delta}")
    vals = sin_singular_profile(grid.frequency_radius(), alpha, delta)
    return Symbol(grid, vals.astype(np.complex128).reshape(-1), "sin_singular",
                  {"alpha": alpha, "delta": delta})


def symbol_piecewise(grid: Grid, b, coeff) -> Symbol:
    """Piecewise-constant symbol: value c_n on the half-open cell n + prod(0, b_j].

    A lattice point landing exactly on a cell face takes the coefficient of
    the adjacent lower cell (the cell whose open lower face it sits on).
    ``coeff`` maps an integer index array of shape (npts, d) to values.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if b.size != grid.d or np.any(b <= 0):
        raise ParameterError(f"b must be {grid.d} positive reals, got {b}")
    meshes = grid.frequency_meshes()
    n = np.empty((grid.npoints, grid.d), dtype=np.int64)
    for j, m in enumerate(meshes):
        q = m.reshape(-1) / b[j]
        near = np.abs(q - np.round(q)) < 1e-9
        nj = np.ceil(q).astype(np.int64) - 1
        nj[near] = np.round(q[near]).astype(np.int64) - 1
        n[:, j] = nj
    vals = np.asarray(coeff(n), dtype=np.complex128).reshape(-1)
    if vals.size != grid.npoints:
        raise ParameterError("coefficient map returned the wrong number of values")
    return Symbol(grid, vals, "piecewise", {"b": tuple(b)})


def custom_symbol(grid: Grid, values, descriptor: str = "custom", params=None) -> Symbol:
    return Symbol(grid, np.asarray(values, dtype=np.complex128).reshape(-1),
                  descriptor, params or {})


def multiply_symbols(a: Symbol, b: Symbol) -> Symbol:
    require_same_grid(a.grid, b.grid)
    return Symbol(a.grid, a.values * b.values, "custom",
                  {"product": (a.descriptor, b.descriptor)},
                  aliasing_warning=a.aliasing_warning or b.aliasing_warning)


def apply_multiplier(sigma: Symbol, f: SampledField) -> SampledField:
    """inverse_transform(sigma * forward_transform(f))."""
    require_same_grid(sigma.grid, f.grid)
    F = forward_transform(f)
    F.values *= sigma.values
    return inverse_transform(F)


def split_sing_osc(sigma: Symbol) -> tuple:
    """(sigma * chi, sigma * (1 - chi)) with the radial bump cutoff chi(|xi|).

    The two parts sum back to sigma exactly; the first vanishes for
    |xi| >= 2, the second for |xi| <= 1.
    """
    rho = sigma.grid.frequency_radius()
    chi = np.asarray(chi_profile(rho)).reshape(-1)
    sing = Symbol(sigma.grid, sigma.values * chi, "custom",
                  {"part": "sing", "of": sigma.descriptor})
    osc = Symbol(sigma.grid, sigma.values * (1.0 - chi), "custom",
                 {"part": "osc", "of": sigma.descriptor})
    return sing, osc


# ---------------------------------------------------------------------------
# propagators


@dataclass
class PropagatorState:
    grid: Grid
    u: SampledField
    t: float
    equation: str  # schrodinger | wave
    v: SampledField | None = None  # time derivative, wave only


def schrodinger_propagate(f: SampledField, t: float) -> PropagatorState:
    """Free Schrodinger evolution: u_hat(xi, t) = e^{i t |xi|^2} f_hat(xi)."""
    sigma = Symbol(
        f.grid,
        np.exp(1j * t * f.grid.frequency_radius() ** 2).reshape(-1),
        "schrodinger",
        {"t": t},
    )
    return PropagatorState(f.grid, apply_multiplier(sigma, f), t, "schrodinger")


def wave_propagate(f: SampledField, g: SampledField, t: float) -> PropagatorState:
    """Wave evolution from (u, u_t)(0) = (f, g).

    u_hat = cos(t|xi|) f_hat + sin(t|xi|)/|xi| g_hat, the xi = 0 entry of the
    second multiplier set to its limit t; v_hat = -|xi| sin(t|xi|) f_hat
    + cos(t|xi|) g_hat.  Per mode this is an exact rotation of (|xi| u_hat,
    v_hat), so the discrete wave energy is conserved.
    """
    require_same_grid(f.grid, g.grid)
    grid = f.grid
    rho = grid.frequency_radius().reshape(-1)
    F = forward_transform(f).values
    G = forward_transform(g).values
    c = np.cos(t * rho)
    sinc = np.empty_like(rho)
    nz = rho > 0
    sinc[nz] = np.sin(t * rho[nz]) / rho[nz]
    sinc[~nz] = t
    U = c * F + sinc * G
    V = -rho * np.sin(t * rho) * F + c * G
    u = inverse_transform(SampledField(grid, U))
    v = inverse_transform(SampledField(grid, V))
    return PropagatorState(grid, u, t, "wave", v=v)


def wave_energy(state: PropagatorState) -> float:
    """Discrete phase-space energy dxi^d * sum(|xi u_hat|^2 + |v_hat|^2)."""
    if state.equation != "wave" or state.v is None:
        raise ParameterError("wave_energy needs a wave state with a v field")
    grid = state.grid
    rho = grid.frequency_radius().reshape(-1)
    U = forward_transform(state.u).values
    V = forward_transform(state.v).values
    return float(grid.dxi ** grid.d * np.sum(np.abs(rho * U) ** 2 + np.abs(V) ** 2))
