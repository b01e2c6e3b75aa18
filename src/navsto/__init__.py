"""Spectral Galerkin simulation and statistical verification for the
stochastic Navier-Stokes equations on the 3D torus, plus a one-dimensional
demonstration of selection by iterated discounted maximization."""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    SpectralField,
    apply_stokes_power,
    mode_table,
    random_divfree_field,
    sobolev_norm,
    stokes_eigenvalue,
    theta,
)
from .nonlinearity import b_direct, b_pseudospectral  # noqa: F401
from .noise import build_covariance  # noqa: F401
from .dynamics import SimConfig, chi_r  # noqa: F401
