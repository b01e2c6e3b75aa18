"""The advection operator B(u, v) = P_div (u . grad) v on truncated fields.

Two routes: an explicit triad-sum oracle (`b_direct`) and an exactly
dealiased pseudo-spectral evaluation (`b_pseudospectral`).  In Fourier terms
the coefficient of B(u, v) at k is

    2 pi i  sum_{l+m=k} (u_l . m) (v_m - (v_m . k) k / |k|^2),

with modes outside the truncation discarded.  Both routes agree to roundoff;
the direct route exists so the fast one never verifies itself.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import fft as sfft

from .spectral import (
    ModeTable,
    SpectralField,
    TWO_PI,
    leray_project,
    sobolev_norm,
    theta,
)


class PaddingError(ValueError):
    """Configured padding factor cannot dealias the quadratic product."""


#: threads per B kernel call (-1: all cores, as in scipy.fft): batches larger
#: than one tile run their path tiles on this many threads, smaller ones hand
#: it to the FFT calls.  Worker pools set it to 1 in children to avoid
#: oversubscription.  Output bytes depend on neither this setting nor the tile
#: size, because every path's arithmetic touches only its own slice.
FFT_WORKERS = -1

#: cache budget for one tile's pointwise products; the tile size follows from
#: it and the input's shape alone
TILE_BYTES = 3 << 20

_tile_pool_by_pid: tuple | None = None   # (pid, threads, executor)


def set_fft_workers(n: int) -> None:
    global FFT_WORKERS
    FFT_WORKERS = n


def dealias_grid(n: int, pad_factor: float = 1.5) -> int:
    """FFT grid size for an alias-free quadratic product at resolution n."""
    if pad_factor < 1.5:
        raise PaddingError(
            f"padding factor {pad_factor} < 3/2 cannot dealias a quadratic product")
    grid = sfft.next_fast_len(int(math.ceil(pad_factor * (2 * n + 1))))
    # alias wrap of |l+m| <= 2n lands at |s - grid| >= n+1 outside truncation
    assert grid >= 3 * n + 1
    return grid


def _full_modes(field: SpectralField):
    """All nonzero modes of the field, both members of each +/-k pair."""
    tab = field.table
    k = np.concatenate([tab.kvec, -tab.kvec], axis=0)
    c = np.concatenate([field.coeffs, np.conj(field.coeffs)], axis=0)
    return k, c


def b_direct(u: SpectralField, v: SpectralField) -> SpectralField:
    """Brute-force triad convolution; the oracle for the fast path."""
    if u.n != v.n:
        raise ValueError(f"resolution mismatch: {u.n} vs {v.n}")
    n = u.n
    tab = u.table
    side = 2 * n + 1
    vk, vc = _full_modes(v)
    # dense cube of v indexed by m + n per axis, plus the advecting factor grids
    vcube = np.zeros((3, side, side, side), dtype=np.complex128)
    vcube[:, vk[:, 0] + n, vk[:, 1] + n, vk[:, 2] + n] = vc.T
    ax = np.arange(-n, n + 1, dtype=np.float64)
    mgrid = np.meshgrid(ax, ax, ax, indexing="ij")
    uk, uc = _full_modes(u)
    out = np.zeros((3, 4 * n + 1, 4 * n + 1, 4 * n + 1), dtype=np.complex128)
    for l, cl in zip(uk, uc):
        if not (cl[0] or cl[1] or cl[2]):
            continue
        s = cl[0] * mgrid[0] + cl[1] * mgrid[1] + cl[2] * mgrid[2]  # (u_l . m)
        o1, o2, o3 = int(l[0]) + n, int(l[1]) + n, int(l[2]) + n
        out[:, o1:o1 + side, o2:o2 + side, o3:o3 + side] += s[None, :, :, :] * vcube
    # crop k = l + m back to the truncation box and switch to half storage
    kv = tab.kvec
    coeffs = out[:, kv[:, 0] + 2 * n, kv[:, 1] + 2 * n, kv[:, 2] + 2 * n].T
    coeffs = TWO_PI * 1j * coeffs
    return SpectralField(n, leray_project(coeffs, tab))


# -- pseudo-spectral route ----------------------------------------------------

def _scatter_half(coeffs: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Embed (..., K, 3) coefficients into rfft half-cubes (..., 3, g, g, g/2+1)."""
    lay = table.pad_layout(grid)
    gz = grid // 2 + 1
    lead = coeffs.shape[:-2]
    ct = np.ascontiguousarray(np.swapaxes(coeffs, -1, -2))   # (..., 3, K)
    z = np.zeros(lead + (3, grid * grid * gz), dtype=coeffs.dtype)
    z[..., :, lay.val_slots] = ct[..., :, lay.val_rows]
    z[..., :, lay.conj_slots] = np.conj(ct[..., :, lay.conj_rows])
    return z.reshape(lead + (3, grid, grid, gz))


def _gather_half(z: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    lay = table.pad_layout(grid)
    gz = grid // 2 + 1
    lead = z.shape[:-4]
    zf = z.reshape(lead + (3, grid * grid * gz))
    out = np.empty(lead + (3, table.n_modes), dtype=z.dtype)
    out[..., :, lay.val_rows] = zf[..., :, lay.val_slots]
    # k3 < 0 rows only appear through their conjugate slot; k3 == 0 rows sit
    # in both lists and the value slot takes precedence (equal to roundoff)
    out[..., :, lay.neg_rows] = np.conj(zf[..., :, lay.neg_slots])
    return np.ascontiguousarray(np.swapaxes(out, -1, -2))


def b_batch(uc: np.ndarray, vc: np.ndarray, table: ModeTable, grid: int,
            workers: int | None = None) -> np.ndarray:
    """Dealiased (u . grad) v with Leray projection for (..., K, 3) batches."""
    if workers is None:
        workers = FFT_WORKERS
    axes = (-3, -2, -1)
    lay = table.pad_layout(grid)
    u_hat = _scatter_half(uc, table, grid)
    # physical fields carry a 1/grid^3 factor that is repaid at the gather
    u_phys = sfft.irfftn(u_hat, s=(grid, grid, grid), axes=axes, workers=workers)
    v_hat = _scatter_half(vc, table, grid)
    w = None
    for a, ka in enumerate((lay.kx, lay.ky, lay.kz)):
        dva = sfft.irfftn(v_hat * (TWO_PI * 1j * ka), s=(grid, grid, grid),
                          axes=axes, workers=workers)
        term = u_phys[..., a:a + 1, :, :, :] * dva
        w = term if w is None else w + term
    w_hat = sfft.rfftn(w, axes=axes, workers=workers)
    out = _gather_half(w_hat, table, grid) * grid**3
    return leray_project(out, table)


_PROD_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _divergence_form_contract(p_modes: np.ndarray, table: ModeTable) -> np.ndarray:
    """Assemble 2 pi i k_a P_aj(k) from the six symmetric product transforms."""
    k = table.kvec.astype(p_modes.real.dtype)
    out = np.empty(p_modes.shape[:-2] + (table.n_modes, 3), dtype=p_modes.dtype)
    kx, ky, kz = k[:, 0], k[:, 1], k[:, 2]
    pxx, pyy, pzz, pxy, pxz, pyz = (p_modes[..., i, :] for i in range(6))
    out[..., 0] = kx * pxx + ky * pxy + kz * pxz
    out[..., 1] = kx * pxy + ky * pyy + kz * pyz
    out[..., 2] = kx * pxz + ky * pyz + kz * pzz
    return TWO_PI * 1j * out


def _products_to_modes(prods: np.ndarray, table: ModeTable, grid: int,
                       workers: int) -> np.ndarray:
    axes = (-3, -2, -1)
    p_hat = sfft.rfftn(prods, axes=axes, workers=workers)
    # move the product axis next to the modes for the gather
    gathered = _gather_half_scalar(p_hat, table, grid)
    return gathered * grid**3


def _gather_half_scalar(z: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Gather (..., C, g, g, gz) half-cubes to (..., C, K) mode values."""
    lay = table.pad_layout(grid)
    gz = grid // 2 + 1
    lead = z.shape[:-3]
    zf = z.reshape(lead + (grid * grid * gz,))
    out = np.empty(lead + (table.n_modes,), dtype=z.dtype)
    out[..., lay.val_rows] = zf[..., lay.val_slots]
    out[..., lay.neg_rows] = np.conj(zf[..., lay.neg_slots])
    return out


# -- path tiling ----------------------------------------------------------------

def tile_paths(n_products: int, grid: int, itemsize: int) -> int:
    """Paths per tile: as many as keep n_products real grids within TILE_BYTES."""
    return max(1, TILE_BYTES // (n_products * grid**3 * itemsize))


def _tile_pool(threads: int) -> ThreadPoolExecutor:
    """This process's tile pool; a forked child never reuses its parent's."""
    global _tile_pool_by_pid
    key = (os.getpid(), threads)
    if _tile_pool_by_pid is None or _tile_pool_by_pid[:2] != key:
        if _tile_pool_by_pid is not None and _tile_pool_by_pid[0] == key[0]:
            _tile_pool_by_pid[2].shutdown(wait=False)
        _tile_pool_by_pid = key + (ThreadPoolExecutor(threads),)
    return _tile_pool_by_pid[2]


def _path_tiled(kernel, fields: tuple, n_products: int, table: ModeTable, grid: int,
                workers: int | None) -> tuple:
    """Run kernel(*fields, table, grid, workers) over tiles of the path axis.

    The kernel returns one (..., K, 3) array per six products.  Batch-1 calls
    and batches of at most one tile run untiled with `workers` FFT threads;
    larger (P, K, 3) batches run their tiles on `workers` threads, each tile
    with single-threaded FFTs writing its own slice of the outputs.
    """
    if workers is None:
        workers = FFT_WORKERS
    first = fields[0]
    tile = tile_paths(n_products, grid, first.real.itemsize)
    if (first.ndim != 3 or first.shape[0] <= tile
            or any(f.shape != first.shape for f in fields)):
        return kernel(*fields, table, grid, workers)
    table.pad_layout(grid)   # fill the layout cache before the threads read it
    outs = tuple(np.empty_like(first) for _ in range(n_products // 6))

    def run(lo: int) -> None:
        for out, part in zip(outs, kernel(*(f[lo:lo + tile] for f in fields),
                                          table, grid, 1)):
            out[lo:lo + tile] = part

    starts = range(0, first.shape[0], tile)
    threads = workers if workers > 0 else (os.cpu_count() or 1) + 1 + workers
    if threads > 1:
        list(_tile_pool(threads).map(run, starts))
    else:
        for lo in starts:
            run(lo)
    return outs


# -- divergence-form kernels ----------------------------------------------------

def _self_tile(uc, table, grid, workers):
    axes = (-3, -2, -1)
    u_hat = _scatter_half(uc, table, grid)
    up = sfft.irfftn(u_hat, s=(grid, grid, grid), axes=axes, workers=workers)
    lead = up.shape[:-4]
    prods = np.empty(lead + (6,) + up.shape[-3:], dtype=up.dtype)
    for i, (a, b) in enumerate(_PROD_PAIRS):
        np.multiply(up[..., a, :, :, :], up[..., b, :, :, :], out=prods[..., i, :, :, :])
    p_modes = _products_to_modes(prods, table, grid, workers)
    return (leray_project(_divergence_form_contract(p_modes, table), table),)


def b_self_batch(uc: np.ndarray, table: ModeTable, grid: int,
                 workers: int | None = None) -> np.ndarray:
    """B(u, u) in divergence form: 2 pi i k_a (u_a u_j)^ then Leray.

    Exactly equals the convective form for divergence-free u (the extra
    triad factor u_l . l vanishes), at 9 transforms instead of 15.
    """
    return _path_tiled(_self_tile, (uc,), 6, table, grid, workers)[0]


def _linpair_tile(uc, yc, table, grid, workers):
    axes = (-3, -2, -1)
    up = sfft.irfftn(_scatter_half(uc, table, grid), s=(grid, grid, grid),
                     axes=axes, workers=workers)
    yp = sfft.irfftn(_scatter_half(yc, table, grid), s=(grid, grid, grid),
                     axes=axes, workers=workers)
    lead = up.shape[:-4]
    prods = np.empty(lead + (6,) + up.shape[-3:], dtype=up.dtype)
    for i, (a, b) in enumerate(_PROD_PAIRS):
        prods[..., i, :, :, :] = (up[..., a, :, :, :] * yp[..., b, :, :, :]
                                  + yp[..., a, :, :, :] * up[..., b, :, :, :])
    p_modes = _products_to_modes(prods, table, grid, workers)
    return (leray_project(_divergence_form_contract(p_modes, table), table),)


def b_linpair_batch(uc: np.ndarray, yc: np.ndarray, table: ModeTable, grid: int,
                    workers: int | None = None) -> np.ndarray:
    """B(y, u) + B(u, y) in divergence form (both fields divergence-free)."""
    return _path_tiled(_linpair_tile, (uc, yc), 6, table, grid, workers)[0]


def _self_and_linpair_tile(uc, yc, table, grid, workers):
    axes = (-3, -2, -1)
    both = np.stack([uc, yc], axis=-3)            # (..., 2, K, 3)
    lead = uc.shape[:-2]
    hat = _scatter_half(both, table, grid)        # (..., 2, 3, g, g, gz)
    phys = sfft.irfftn(hat, s=(grid, grid, grid), axes=axes, workers=workers)
    up, yp = phys[..., 0, :, :, :, :], phys[..., 1, :, :, :, :]
    prods = np.empty(lead + (12,) + phys.shape[-3:], dtype=phys.dtype)
    scratch = np.empty(lead + phys.shape[-3:], dtype=phys.dtype)
    for i, (a, b) in enumerate(_PROD_PAIRS):
        np.multiply(up[..., a, :, :, :], up[..., b, :, :, :], out=prods[..., i, :, :, :])
        sym = prods[..., 6 + i, :, :, :]
        np.multiply(up[..., a, :, :, :], yp[..., b, :, :, :], out=sym)
        np.multiply(yp[..., a, :, :, :], up[..., b, :, :, :], out=scratch)
        sym += scratch
    p_modes = _products_to_modes(prods, table, grid, workers)
    b_self = leray_project(_divergence_form_contract(p_modes[..., :6, :], table), table)
    b_lin = leray_project(_divergence_form_contract(p_modes[..., 6:, :], table), table)
    return b_self, b_lin


def b_self_and_linpair(uc: np.ndarray, yc: np.ndarray, table: ModeTable, grid: int,
                       workers: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(B(u,u), B(y,u)+B(u,y)) sharing transforms; the tangent-flow hot path."""
    return _path_tiled(_self_and_linpair_tile, (uc, yc), 12, table, grid, workers)


def b_pseudospectral(u: SpectralField, v: SpectralField,
                     pad_factor: float = 1.5) -> SpectralField:
    """Fast evaluation of B(u, v); identical to b_direct up to roundoff."""
    if u.n != v.n:
        raise ValueError(f"resolution mismatch: {u.n} vs {v.n}")
    grid = dealias_grid(u.n, pad_factor)
    coeffs = b_batch(u.coeffs, v.coeffs, u.table, grid)
    return SpectralField(u.n, coeffs)


# -- continuity-estimate probes -----------------------------------------------

def breg_ratio(u: SpectralField, v: SpectralField, alpha: float,
               eps: float | None = None, pad_factor: float = 1.5) -> float:
    """||B(u,v)||_{alpha-1/4} / (||u||_{theta} ||v||_{theta}).

    At the borderline alpha = 1/2 the target exponent drops to 1/4 - eps and
    an explicit eps > 0 is required.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    nu = sobolev_norm(u, theta(alpha))
    nv = sobolev_norm(v, theta(alpha))
    if nu == 0.0 or nv == 0.0:
        raise ZeroDivisionError("breg_ratio undefined for a zero input field")
    if alpha == 0.5:
        if eps is None or eps <= 0:
            raise ValueError("alpha = 1/2 needs an explicit eps > 0")
        target = 0.25 - eps
    else:
        target = alpha - 0.25
    b = b_pseudospectral(u, v, pad_factor)
    return sobolev_norm(b, target) / (nu * nv)


def bnorm_negative_check(u: SpectralField, gamma: float,
                         pad_factor: float = 1.5) -> float:
    """|B(u,u)|_{D(A^-gamma)} / (|u|_H |u|_V) for gamma in (3/2, 2)."""
    if not (1.5 < gamma < 2.0):
        raise ValueError(f"gamma must lie in (3/2, 2), got {gamma}")
    nh = sobolev_norm(u, 0.0)
    nv = sobolev_norm(u, 0.5)
    if nh == 0.0:
        raise ZeroDivisionError("bnorm_negative_check undefined for the zero field")
    b = b_pseudospectral(u, u, pad_factor)
    return sobolev_norm(b, -gamma) / (nh * nv)


def skew_pairing_residual(u: SpectralField, v: SpectralField,
                          pad_factor: float = 1.5) -> float:
    """|<B(u,v), v>| normalised by ||u|| ||v||^2 (zero in exact arithmetic)."""
    b = b_pseudospectral(u, v, pad_factor)
    num = abs(2.0 * np.real(np.einsum("kj,kj->", b.coeffs, np.conj(v.coeffs))))
    den = sobolev_norm(u, 0.0) * sobolev_norm(v, 0.0) ** 2
    if den == 0.0:
        return 0.0
    return num / den
