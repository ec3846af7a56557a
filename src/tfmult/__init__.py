"""tfmult: STFT-based norms, unimodular Fourier multipliers, and desk-scale checks."""

from .core import (
    Grid,
    GridMismatchError,
    ParameterError,
    SampledField,
    SamplingError,
    default_grid,
    forward_transform,
    inverse_transform,
    l1_norm,
    l2_norm,
    make_grid,
    sample,
)
from .mult import (
    Symbol,
    apply_multiplier,
    symbol_unimodular,
)
from .tf import (
    StftMatrix,
    Window,
    amalgam_norm_wfl1,
    bump_chi,
    fl1_norm,
    gaussian_window,
    m_1_inf_norm,
    m_inf_1_norm,
    modulation_norm,
    stft,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
