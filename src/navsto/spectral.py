"""Fourier representation of divergence-free mean-zero fields on the unit torus.

Fields are truncated to the cube |k_i| <= N (zero mode excluded).  Only one
representative of each +/-k pair is stored; the conjugate coefficient is
implicit, so reality of the physical field is structural.  The Stokes
operator acts diagonally with eigenvalues lam_k = 4 pi^2 |k|^2.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.random import Generator, Philox

TWO_PI = 2.0 * np.pi
FOUR_PI_SQ = 4.0 * np.pi**2


class AliasError(ValueError):
    """Physical grid too small for an alias-free representation."""


def theta(alpha: float) -> float:
    """Regularity shift for the bilinear estimate scale.

    theta(a) = 1/2 + a/2 for 0 < a <= 1/2 and 1/4 + a beyond.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha <= 0.5:
        return 0.5 + 0.5 * alpha
    return 0.25 + alpha


def _representative_mask(k: np.ndarray) -> np.ndarray:
    """True for the lexicographically positive member of each +/-k pair."""
    k1, k2, k3 = k[:, 0], k[:, 1], k[:, 2]
    return (k1 > 0) | ((k1 == 0) & ((k2 > 0) | ((k2 == 0) & (k3 > 0))))


def _polarization_basis(kvec: np.ndarray) -> np.ndarray:
    """Two real unit vectors orthogonal to each k.

    Gram-Schmidt of the smallest-index coordinate axis not parallel to k,
    completed by the cross product; deterministic across platforms.
    """
    K = kvec.shape[0]
    khat = kvec / np.linalg.norm(kvec, axis=1, keepdims=True)
    pol = np.empty((K, 2, 3))
    eye = np.eye(3)
    # smallest axis index not parallel to k
    parallel = np.abs(np.abs(khat) - 1.0) < 1e-14  # axis-aligned k: khat = +/- e_i
    axis = np.argmax(~parallel, axis=1)
    e = eye[axis]
    p1 = e - (e * khat).sum(axis=1, keepdims=True) * khat
    p1 /= np.linalg.norm(p1, axis=1, keepdims=True)
    p2 = np.cross(khat, p1)
    pol[:, 0] = p1
    pol[:, 1] = p2
    return pol


@dataclass(frozen=True)
class PadLayout:
    """Scatter/gather maps between stored modes and the dense rfft half-block.

    The block has shape (2N+1, 2N+1, N+1): the x and y axes hold the
    wavenumbers 0..N, -N..-1 in that (wrapped) order, the z axis 0..N.  It is
    the only part of a padded rfft half-cube that is non-zero on input or
    kept on output.
    """

    val_slots: np.ndarray   # flat block slots receiving u_k
    val_rows: np.ndarray    # stored-mode rows for those slots
    conj_slots: np.ndarray  # flat block slots receiving conj(u_k)
    conj_rows: np.ndarray
    kx: np.ndarray          # signed integer wavenumber of every block slot
    ky: np.ndarray
    kz: np.ndarray
    neg_rows: np.ndarray    # rows found only through their conjugate slot
    neg_slots: np.ndarray


class ModeTable:
    """Stored-mode layout for resolution N plus cached spectral weights."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("resolution must be >= 1")
        self.n = n
        side = np.arange(-n, n + 1, dtype=np.int64)
        g1, g2, g3 = np.meshgrid(side, side, side, indexing="ij")
        allk = np.stack([g1.ravel(), g2.ravel(), g3.ravel()], axis=1)
        keep = _representative_mask(allk)
        self.kvec = np.ascontiguousarray(allk[keep])           # (K, 3) int64
        self.n_modes = self.kvec.shape[0]
        self.k_sq = (self.kvec.astype(np.float64) ** 2).sum(axis=1)
        self.lam = FOUR_PI_SQ * self.k_sq                      # Stokes eigenvalues
        self.pol = _polarization_basis(self.kvec.astype(np.float64))
        self._pad_cache: dict[int, PadLayout] = {}
        # row of each stored k at [k1+N, k2+N, k3+N] of the box, -1 elsewhere
        self._row = np.full(allk.shape[0], -1, dtype=np.int64)
        self._row[keep] = np.arange(self.n_modes)
        self._row = self._row.reshape((2 * n + 1,) * 3)

    def rows(self, kvec: np.ndarray) -> np.ndarray:
        """Rows of the (..., 3) wavevectors kvec; -1 where k is not stored."""
        kvec = np.asarray(kvec, dtype=np.int64)
        inside = (np.abs(kvec) <= self.n).all(axis=-1)
        # out-of-box k would wrap as negative indices, so look them up at 0
        at = np.where(inside[..., None], kvec + self.n, 0)
        return np.where(inside, self._row[at[..., 0], at[..., 1], at[..., 2]], -1)

    def index_of(self, k) -> int:
        """Index of wavevector k (or its stored representative)."""
        i = int(self.rows(k))
        if i < 0:
            i = int(self.rows(np.negative(k)))
        if i < 0:
            raise KeyError(f"wavevector {tuple(int(x) for x in k)} outside truncation N={self.n}")
        return i

    def is_stored(self, k) -> bool:
        return bool(self.rows(k) >= 0)

    # -- padded half-spectrum layout for rfft-based transforms ------------

    def pad_layout(self, grid: int) -> PadLayout:
        """Scatter/gather maps into the dense half-block for an FFT grid, cached.

        The flat slots of the returned PadLayout index an array of shape
        (2N+1, 2N+1, N+1); its kx/ky/kz are the signed integer wavenumbers of
        every slot.  The block does not depend on `grid`, which is checked
        for an alias-free round trip.
        """
        if grid < 2 * self.n + 1:
            raise AliasError(f"grid {grid} < 2N+1 = {2 * self.n + 1}")
        if grid in self._pad_cache:
            return self._pad_cache[grid]
        n, side = self.n, 2 * self.n + 1
        k, k3 = self.kvec, self.kvec[:, 2]

        def flat(rows, sign):
            s = sign * k[rows]
            return (s[:, 0] % side) * side * (n + 1) + (s[:, 1] % side) * (n + 1) + s[:, 2]

        # k3 == 0 rows fill both their own slot and their conjugate's; k3 < 0
        # rows only appear through their conjugate slot
        val_rows = np.flatnonzero(k3 >= 0)
        conj_rows = np.flatnonzero(k3 <= 0)
        neg_rows = np.flatnonzero(k3 < 0)
        w = np.concatenate([np.arange(n + 1), np.arange(-n, 0)]).astype(np.float64)
        kx, ky, kz = np.meshgrid(w, w, np.arange(n + 1, dtype=np.float64), indexing="ij")
        out = PadLayout(flat(val_rows, 1), val_rows, flat(conj_rows, -1), conj_rows,
                        kx, ky, kz, neg_rows, flat(neg_rows, -1))
        self._pad_cache[grid] = out
        return out


@lru_cache(maxsize=None)
def mode_table(n: int) -> ModeTable:
    return ModeTable(n)


def stokes_eigenvalue(k) -> float:
    """Eigenvalue 4 pi^2 |k|^2 of the Stokes operator at wavevector k."""
    k = np.asarray(k, dtype=np.float64)
    if k.shape != (3,):
        raise ValueError("wavevector must be a 3-vector")
    ksq = float((k**2).sum())
    if ksq == 0.0:
        raise ValueError("zero wavevector has no Stokes eigenvalue (mean-zero fields)")
    return FOUR_PI_SQ * ksq


@dataclass
class SpectralField:
    """Divergence-free mean-zero velocity field in half-stored Fourier form.

    coeffs[i] is the complex 3-vector at table.kvec[i]; the coefficient at
    -k is the conjugate and is never stored.
    """

    n: int
    coeffs: np.ndarray  # (K, 3) complex128

    def __post_init__(self):
        tab = mode_table(self.n)
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (tab.n_modes, 3):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"resolution N={self.n} ({tab.n_modes} stored modes)")

    @property
    def table(self) -> ModeTable:
        return mode_table(self.n)

    @classmethod
    def zero(cls, n: int) -> "SpectralField":
        return cls(n, np.zeros((mode_table(n).n_modes, 3), dtype=np.complex128))

    def copy(self) -> "SpectralField":
        return SpectralField(self.n, self.coeffs.copy())

    def get(self, k) -> np.ndarray:
        """Coefficient at wavevector k (conjugated if k is the implicit member)."""
        c = self.coeffs[self.table.index_of(k)]
        return c.copy() if self.table.is_stored(k) else np.conj(c)

    def set(self, k, value) -> None:
        value = np.asarray(value, dtype=np.complex128)
        i = self.table.index_of(k)
        self.coeffs[i] = value if self.table.is_stored(k) else np.conj(value)

    def __add__(self, other):
        _check_same(self, other)
        return SpectralField(self.n, self.coeffs + other.coeffs)

    def __sub__(self, other):
        _check_same(self, other)
        return SpectralField(self.n, self.coeffs - other.coeffs)

    def __mul__(self, c):
        return SpectralField(self.n, self.coeffs * c)

    __rmul__ = __mul__


def _check_same(u: SpectralField, v: SpectralField):
    if u.n != v.n:
        raise ValueError(f"resolution mismatch: {u.n} vs {v.n}")


# -- diagnostics --------------------------------------------------------------

def divergence_residual(field: SpectralField) -> float:
    """Relative incompressibility residual max_k |k . u_k| / (|k| |u_k|)."""
    tab = field.table
    dot = np.abs((tab.kvec * field.coeffs).sum(axis=1))
    mag = np.linalg.norm(field.coeffs, axis=1) * np.sqrt(tab.k_sq)
    scale = float(mag.max()) if mag.size else 0.0
    if scale == 0.0:
        return 0.0
    return float(dot.max() / scale)


# -- core operations ----------------------------------------------------------

def apply_stokes_power(u: SpectralField, alpha: float) -> SpectralField:
    """Fractional Stokes power A^alpha acting mode-wise by lam_k^alpha."""
    if alpha == 0.0:
        return u.copy()
    w = u.table.lam ** alpha
    return SpectralField(u.n, u.coeffs * w[:, None])


def weighted_norm_sq(coeffs: np.ndarray, *weights):
    """2 sum_k w_k |u_k|^2 of (..., K, 3) coefficients for each weight vector
    w (None: unweighted); sobolev_norm_sq, noise.q_form_sq and the steppers'
    norms (dynamics._norm_sq) are all this sum.

    |u_k|^2 is formed once and shared by all the sums.  With at most one
    weight the sum itself comes back, otherwise a tuple in the given order.
    """
    mag = (coeffs.real**2 + coeffs.imag**2).sum(axis=-1)
    sums = tuple(2.0 * (mag if w is None else mag * w).sum(axis=-1)
                 for w in weights or (None,))
    return sums[0] if len(sums) == 1 else sums


def sobolev_norm_sq(coeffs: np.ndarray, lam: np.ndarray, alpha: float) -> np.ndarray:
    """|A^alpha u|^2 for (..., K, 3) coefficient arrays (batched)."""
    return weighted_norm_sq(coeffs, lam ** (2.0 * alpha) if alpha != 0.0 else None)


def sobolev_norm(u: SpectralField, alpha: float) -> float:
    """Norm |A^alpha u| on the Stokes scale (alpha=0: L2, 1/2: H1-type)."""
    return float(np.sqrt(sobolev_norm_sq(u.coeffs, u.table.lam, alpha)))


def h_inner(u: SpectralField, v: SpectralField) -> float:
    """Real L2 inner product of two fields."""
    _check_same(u, v)
    return float(2.0 * np.real(np.einsum("kj,kj->", u.coeffs, np.conj(v.coeffs))))


def pair_with(coeffs: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Batched <u, phi> for coefficient arrays (..., K, 3) against one field."""
    return 2.0 * np.real(np.einsum("...kj,kj->...", coeffs, np.conj(phi)))


def leray_project(coeffs: np.ndarray, table: ModeTable) -> np.ndarray:
    """Remove the component along k per mode; idempotent by construction."""
    k = table.kvec.astype(coeffs.real.dtype)
    dots = np.einsum("...kj,kj->...k", coeffs, k)
    return coeffs - dots[..., None] * (k / (table.k_sq.astype(k.dtype))[:, None])


def random_divfree_field(n: int, profile, seed: int, stream: int = 0) -> SpectralField:
    """Deterministic random field with per-|k| amplitude from `profile`.

    `profile` maps an array of |k| values to coefficient amplitudes; the two
    polarizations get independent complex Gaussians so that
    E|u_k|^2 = 2 profile(|k|)^2 per stored mode.
    """
    tab = mode_table(n)
    rng = Generator(Philox(counter=np.array([0, 0, 917, stream], dtype=np.uint64),
                           key=np.array([np.uint64(seed), np.uint64(0xF1E7D)], dtype=np.uint64)))
    g = rng.standard_normal((tab.n_modes, 2, 2))
    amp = np.asarray(profile(np.sqrt(tab.k_sq)), dtype=np.float64)
    c = (g[..., 0] + 1j * g[..., 1]) / np.sqrt(2.0) * amp[:, None]
    coeffs = np.einsum("ka,kaj->kj", c, tab.pol)
    return SpectralField(n, coeffs)


def powerlaw_profile(s: float, amplitude: float = 1.0):
    """Amplitude profile |k|^(-s), the standard smooth-test-field choice."""
    def prof(kabs):
        return amplitude * kabs ** (-s)
    return prof


def restrict_field(u: SpectralField, n_small: int) -> SpectralField:
    """Restriction to the smaller truncation cube (coefficients shared).

    Nested test families isolate genuine truncation trends from sampling
    jitter when an estimate is swept across resolutions.
    """
    if n_small > u.n:
        raise ValueError("restriction target exceeds the source resolution")
    big, small = u.table, mode_table(n_small)
    return SpectralField(n_small, u.coeffs[big.rows(small.kvec)])


# -- physical-space transforms ------------------------------------------------

def to_physical(u: SpectralField, grid: int) -> np.ndarray:
    """Sample the field on the uniform grid x_j = j/grid; shape (g, g, g, 3).

    Requires grid >= 2N+1 for an alias-free round trip.
    """
    tab = u.table
    if grid < 2 * tab.n + 1:
        raise AliasError(f"grid {grid} < 2N+1 = {2 * tab.n + 1}; field would alias")
    cube = np.zeros((3, grid, grid, grid), dtype=np.complex128)
    pos = u.coeffs  # (K, 3)
    k = tab.kvec
    idx = tuple((k % grid).T)
    neg_idx = tuple(((-k) % grid).T)
    for j in range(3):
        cube[j][idx] = pos[:, j]
        cube[j][neg_idx] = np.conj(pos[:, j])
    out = np.fft.ifftn(cube, axes=(1, 2, 3)) * grid**3
    return np.ascontiguousarray(np.moveaxis(out.real, 0, -1))


def l2_norm_physical(samples: np.ndarray) -> float:
    """Grid quadrature of the L2 norm (trapezoidal = exact for trig data)."""
    g = samples.shape[0]
    return float(np.sqrt((samples**2).sum() / g**3))


# -- snapshot I/O -------------------------------------------------------------

_HDR = struct.Struct("<ii")
_REC_DTYPE = np.dtype([("k", "<i4", (3,)), ("c", "<f8", (6,))])


def write_snapshot(field: SpectralField, path) -> None:
    """Binary snapshot: little-endian header (N, mode count) + per-mode records."""
    tab = field.table
    rec = np.empty(tab.n_modes, dtype=_REC_DTYPE)
    rec["k"] = tab.kvec.astype(np.int32)
    flat = np.empty((tab.n_modes, 6))
    flat[:, 0::2] = field.coeffs.real
    flat[:, 1::2] = field.coeffs.imag
    rec["c"] = flat
    with open(path, "wb") as fh:
        fh.write(_HDR.pack(field.n, tab.n_modes))
        fh.write(rec.tobytes())


def read_snapshot(path) -> SpectralField:
    with open(path, "rb") as fh:
        n, count = _HDR.unpack(fh.read(_HDR.size))
        rec = np.frombuffer(fh.read(), dtype=_REC_DTYPE)
    tab = mode_table(n)
    if count != tab.n_modes or rec.shape[0] != count:
        raise ValueError(f"snapshot mode count {count} does not match N={n}")
    if not np.array_equal(rec["k"], tab.kvec.astype(np.int32)):
        raise ValueError("snapshot mode ordering does not match canonical table")
    coeffs = rec["c"][:, 0::2] + 1j * rec["c"][:, 1::2]
    return SpectralField(n, coeffs.astype(np.complex128))
