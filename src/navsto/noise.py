"""Trace-class covariance construction and reproducible Gaussian sampling.

The covariance square root is the fractional Stokes power A^(-3/4 - alpha0)
scaled by q0 (the isotropic isomorphism choice), so the noise is diagonal in
the divergence-free Fourier polarization basis with per-mode amplitude
sigma_k = q0 lam_k^(-3/4 - alpha0).

Every Gaussian draw comes from a Philox counter keyed by
(seed, path) with the counter encoding (kind, step); within one draw the
modes fill a fixed canonical layout.  Any path segment can therefore be
regenerated bitwise in isolation, which is what makes paired-run tests and
parallel ensembles exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .spectral import ModeTable, SpectralField, mode_table

ALPHA0_MIN = 1.0 / 6.0

# draw kinds (third counter word) so distinct uses never collide
KIND_WIENER = 1
KIND_OU = 2


class DegenerateNoiseError(ValueError):
    pass


@dataclass(frozen=True)
class CovarianceSpec:
    """Per-mode noise amplitudes realizing the regular non-degenerate covariance."""

    alpha0: float
    q0: float
    n: int
    sigma: np.ndarray = field(repr=False)      # (K,) amplitude per stored mode
    sigma_sq_total: float = 0.0                # full trace of the covariance

    @property
    def table(self) -> ModeTable:
        return mode_table(self.n)


def build_covariance(alpha0: float, q0: float, n: int,
                     allow_low_alpha0: bool = False) -> CovarianceSpec:
    """Amplitudes sigma_k = q0 lam_k^(-3/4-alpha0) and the total trace.

    alpha0 > 1/6 is the standing regularity restriction; smaller values are
    exploratory only and need the explicit override.

    Each stored mode carries two polarizations and each polarization two real
    directions (cosine/sine phases), so the trace sums 4 sigma_k^2 per stored
    wavevector.
    """
    if q0 <= 0:
        raise ValueError("q0 must be positive")
    if alpha0 <= ALPHA0_MIN and not allow_low_alpha0:
        raise DegenerateNoiseError(
            f"alpha0 = {alpha0} <= 1/6 violates the regularity assumption "
            "(pass allow_low_alpha0=True to explore anyway)")
    tab = mode_table(n)
    sigma = q0 * tab.lam ** (-0.75 - alpha0)
    if not np.all(sigma > 0):
        raise DegenerateNoiseError("vanishing noise amplitude")
    total = float(4.0 * (sigma**2).sum())
    return CovarianceSpec(alpha0=alpha0, q0=q0, n=n, sigma=sigma,
                          sigma_sq_total=total)


def path_generator(seed: int, path_id: int, step: int, kind: int) -> Generator:
    """Counter-based generator: pure function of (seed, path, step, kind)."""
    counter = np.array([0, 0, kind, step], dtype=np.uint64)
    key = np.array([np.uint64(seed), np.uint64(path_id)], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


def _mode_gaussians(cov: CovarianceSpec, scale: np.ndarray, seed: int,
                    path_ids, step: int, kind: int) -> np.ndarray:
    """Complex mode coefficients with E|c_{k,a}|^2 = scale_k^2, shape (P, K, 2)."""
    tab = cov.table
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    P, K = path_ids.shape[0], tab.n_modes
    g = np.empty((P, K, 2, 2))
    for i, p in enumerate(path_ids):
        rng = path_generator(seed, int(p), step, kind)
        g[i] = rng.standard_normal((K, 2, 2))
    return (g[..., 0] + 1j * g[..., 1]) * (scale / np.sqrt(2.0))[None, :, None]


def _assemble(cov: CovarianceSpec, c: np.ndarray) -> np.ndarray:
    """Combine polarized coefficients (P, K, 2) into field coefficients (P, K, 3)."""
    return np.einsum("pka,kaj->pkj", c, cov.table.pol)


def wiener_block(cov: CovarianceSpec, dt: float, seed: int, path_ids,
                 step: int, amplitude: float = 1.0) -> np.ndarray:
    """Increments of Q^(1/2) W over one step for a batch of paths.

    Per polarized mode the complex coefficient has total variance
    sigma_k^2 dt; incompressibility is structural (polarizations are
    orthogonal to k).
    """
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    tab = cov.table
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    if dt == 0.0:
        return np.zeros((path_ids.shape[0], tab.n_modes, 3), dtype=np.complex128)
    scale = amplitude * cov.sigma * np.sqrt(dt)
    return _assemble(cov, _mode_gaussians(cov, scale, seed, path_ids, step, KIND_WIENER))


def sample_wiener_increment(cov: CovarianceSpec, dt: float, seed: int,
                            path_id: int = 0, step: int = 0) -> SpectralField:
    return SpectralField(cov.n, wiener_block(cov, dt, seed, [path_id], step)[0])


def ou_decay(cov: CovarianceSpec, dt: float, nu: float = 1.0) -> np.ndarray:
    """Per-mode linear decay factor exp(-nu lam_k dt)."""
    return np.exp(-nu * cov.table.lam * dt)


def ou_variance(cov: CovarianceSpec, dt: float, nu: float = 1.0) -> np.ndarray:
    """Exact per-mode variance sigma_k^2 (1 - exp(-2 nu lam_k dt)) / (2 nu lam_k)."""
    lam = cov.table.lam
    return cov.sigma**2 * (-np.expm1(-2.0 * nu * lam * dt)) / (2.0 * nu * lam)


def ou_block(cov: CovarianceSpec, dt: float, seed: int, path_ids, step: int,
             nu: float = 1.0, amplitude: float = 1.0) -> np.ndarray:
    """Exact stochastic-convolution increments for the per-mode OU update."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    scale = amplitude * np.sqrt(ou_variance(cov, dt, nu))
    return _assemble(cov, _mode_gaussians(cov, scale, seed, path_ids, step, KIND_OU))


def sample_ou_increment(cov: CovarianceSpec, dt: float, seed: int,
                        path_id: int = 0, step: int = 0,
                        nu: float = 1.0) -> tuple[np.ndarray, SpectralField]:
    """Decay factors and the Gaussian part of one exact OU update."""
    decay = ou_decay(cov, dt, nu)
    g = ou_block(cov, dt, seed, [path_id], step, nu)[0]
    return decay, SpectralField(cov.n, g)


def q_power_apply(cov: CovarianceSpec, field: SpectralField, sign: float) -> SpectralField:
    """Apply Q^(+1/2) or Q^(-1/2): per-mode multiplication by sigma_k^(+/-1)."""
    if sign not in (0.5, -0.5):
        raise ValueError("sign must be +1/2 or -1/2")
    w = cov.sigma if sign > 0 else 1.0 / cov.sigma
    return SpectralField(cov.n, field.coeffs * w[:, None])


def q_form_sq(cov: CovarianceSpec, coeffs: np.ndarray) -> float:
    """|Q^(1/2) phi|_H^2 = 2 sum_k sigma_k^2 |phi_k|^2, exact in this basis."""
    mag = (coeffs.real**2 + coeffs.imag**2).sum(axis=-1)
    return float(2.0 * (cov.sigma**2 * mag).sum())


def partial_traces(alpha0: float, q0: float, resolutions) -> list[tuple[int, float]]:
    """Partial sums of the trace across resolutions (trace-class diagnostics)."""
    return [(n, build_covariance(alpha0, q0, n).sigma_sq_total) for n in resolutions]


def dump_covariance_csv(cov: CovarianceSpec, path) -> None:
    tab = cov.table
    with open(path, "w") as fh:
        fh.write("k1,k2,k3,pol,sigma\n")
        for k, s in zip(tab.kvec, cov.sigma):
            for pol in (1, 2):
                fh.write(f"{k[0]},{k[1]},{k[2]},{pol},{s:.17g}\n")
