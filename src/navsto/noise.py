"""Trace-class covariance construction and reproducible Gaussian sampling.

The covariance square root is the fractional Stokes power A^(-3/4 - alpha0)
scaled by q0 (the isotropic isomorphism choice), so the noise is diagonal in
the divergence-free Fourier polarization basis with per-mode amplitude
sigma_k = q0 lam_k^(-3/4 - alpha0).

Every Gaussian draw comes from a Philox counter keyed by
(seed, path) with the counter encoding (kind, step); within one draw the
modes fill a fixed canonical layout.  Any path segment can therefore be
regenerated bitwise in isolation, which is what makes paired-run tests,
restarts and parallel ensembles exact (Salmon et al., SC'11, on
counter-based streams): each path tile of an ensemble stepper draws its own
rows' noise on its own thread without changing a bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .spectral import ModeTable, mode_table, weighted_norm_sq

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


def build_covariance(alpha0: float, q0: float, n: int) -> CovarianceSpec:
    """Amplitudes sigma_k = q0 lam_k^(-3/4-alpha0) and the total trace.

    alpha0 > 1/6 is the regularity assumption under which the selection is
    strong Feller; smaller values are rejected.

    Each stored mode carries two polarizations and each polarization two real
    directions (cosine/sine phases), so the trace sums 4 sigma_k^2 per stored
    wavevector.
    """
    if q0 <= 0:
        raise ValueError("q0 must be positive")
    if alpha0 <= ALPHA0_MIN:
        raise DegenerateNoiseError(
            f"alpha0 = {alpha0} <= 1/6 violates the regularity assumption")
    tab = mode_table(n)
    sigma = q0 * tab.lam ** (-0.75 - alpha0)
    if not np.all(sigma > 0):
        raise DegenerateNoiseError("vanishing noise amplitude")
    total = float(4.0 * (sigma**2).sum())
    return CovarianceSpec(alpha0=alpha0, q0=q0, n=n, sigma=sigma,
                          sigma_sq_total=total)


_stream = threading.local()   # one generator per thread, made without OS entropy


def path_generator(seed: int, path_id: int, step: int, kind: int) -> Generator:
    """Counter-based generator: pure function of (seed, path, step, kind); this
    thread's one, in a fresh Philox(counter, key)'s full state until its next call."""
    if not hasattr(_stream, "gen"):
        _stream.gen = Generator(Philox(0))
    _stream.gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": np.zeros(4, dtype=np.uint64),
        "state": {"counter": np.array([0, 0, kind, step], dtype=np.uint64),
                  "key": np.array([np.uint64(seed), np.uint64(path_id)], dtype=np.uint64)},
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return _stream.gen


def _mode_gaussians(cov: CovarianceSpec, scale: np.ndarray, seed: int,
                    path_ids, step: int, kind: int) -> np.ndarray:
    """Complex mode coefficients with E|c_{k,a}|^2 = scale_k^2, shape (P, K, 2).

    Each path draws from its own stream, so the bytes of a row depend on
    nothing else in the batch.
    """
    tab = cov.table
    path_ids = np.atleast_1d(np.asarray(path_ids, dtype=np.int64))
    g = np.empty((path_ids.shape[0], tab.n_modes, 2, 2))   # (path, mode, polarization, re/im)
    for i, p in enumerate(path_ids.tolist()):
        path_generator(seed, p, step, kind).standard_normal(out=g[i])
    g *= (scale / np.sqrt(2.0))[:, None, None]
    return g.view(np.complex128)[..., 0]


def _assemble(cov: CovarianceSpec, c: np.ndarray) -> np.ndarray:
    """Combine polarized coefficients (P, K, 2) into field coefficients (P, K, 3).

    c_0 p_0 + c_1 p_1 per component.  The polarizations p_a are real, so
    each complex product has the bits of the real products of its parts.
    Adding +0 last makes the sum start from +0, as einsum's does: it turns
    -0 into +0 and leaves every other value as is.
    """
    p0, p1 = cov.table.pol[:, 0, :], cov.table.pol[:, 1, :]
    out = np.empty(c.shape[:2] + (3,), dtype=c.dtype)
    for j in range(3):
        o = out[:, :, j]
        np.multiply(c[:, :, 0], p0[:, j], out=o)
        o += c[:, :, 1] * p1[:, j]
        o += 0.0
    return out


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


def q_form_sq(cov: CovarianceSpec, coeffs: np.ndarray) -> float:
    """|Q^(1/2) phi|_H^2 = 2 sum_k sigma_k^2 |phi_k|^2, exact in this basis."""
    return float(weighted_norm_sq(coeffs, cov.sigma**2))


def dump_covariance_csv(cov: CovarianceSpec, path) -> None:
    tab = cov.table
    with open(path, "w") as fh:
        fh.write("k1,k2,k3,pol,sigma\n")
        for k, s in zip(tab.kvec, cov.sigma):
            for pol in (1, 2):
                fh.write(f"{k[0]},{k[1]},{k[2]},{pol},{s:.17g}\n")
