"""The advection operator B(u, v) = P_div (u . grad) v on truncated fields.

Two routes: an explicit triad-sum oracle (`b_direct`) and an exactly
dealiased pseudo-spectral evaluation (`b_pseudospectral`).  In Fourier terms
the coefficient of B(u, v) at k is

    2 pi i  sum_{l+m=k} (u_l . m) (v_m - (v_m . k) k / |k|^2),

with modes outside the truncation discarded.  Both routes agree to roundoff;
the direct route exists so the fast one never verifies itself.

The pseudo-spectral kernels keep spectra in the dense (2N+1, 2N+1, N+1)
rfft half-block and run padded transforms pruned to its non-zero lines
(Bowman and Roberts, SIAM J. Sci. Comput. 33, 2011): pocketfft along x and y,
and along z one real matrix product with a pruned DFT matrix, in BLAS calls
of one fixed shape, so that a row's bytes do not depend on its batch.  The
kernels do not tile their batches: the ensemble steppers call them on one
cache-sized path tile at a time, from the thread pool here (`map_tiles`).
Every transform runs on the calling thread; FFT_WORKERS sets only the number
of tile-pool threads.
A divergence-form batch whose rows are all one state (byte-equal, as at
step 0 of a run from one start) runs the kernel on its first row alone.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import fft as sfft

from .spectral import (
    ModeTable,
    SpectralField,
    TWO_PI,
    leray_project,
    sobolev_norm,
)


#: tile-pool threads (-1: all cores, as in scipy.fft): the ensemble steppers
#: with B run their path tiles on this many threads.  The kernels' FFTs always
#: run on the calling thread.  On a tile-pool thread map_tiles runs inline, so
#: a stepper's tile never waits on its own pool.
#: `navsto --workers` sets it for one run.  Output bytes depend on neither
#: this setting nor the tile size, because every path's arithmetic touches
#: only its own slice.
FFT_WORKERS = -1

#: cache budget for one tile's pointwise products; the tile size follows from
#: it and the input's shape alone
TILE_BYTES = 3 << 20

_tile_pool_by_pid: tuple | None = None   # (pid, threads, executor)


class _ThreadState(threading.local):
    in_pool = False   # set by the tile pool's initializer on its threads
    prods = None      # this thread's TILE_BYTES products buffer, made on first use


_thread = _ThreadState()


def set_fft_workers(n: int) -> None:
    global FFT_WORKERS
    FFT_WORKERS = n


def dealias_grid(n: int) -> int:
    """FFT grid size for an alias-free quadratic product at resolution n:
    the 3/2 rule (Orszag, J. Atmos. Sci. 28, 1971) on the 2n+1 wavenumbers."""
    grid = sfft.next_fast_len(math.ceil(1.5 * (2 * n + 1)))
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
    """Brute-force triad convolution; the oracle for the fast path.

    One small matrix product per (l_x, l_y): the rows W[m_x, m_y, j, (a, m_z)]
    = m_a v_m[j] of the m with k = l + m in the box and k_x >= 0 (the half
    the mode table stores) times the Toeplitz matrix T[(a, m_z), k_z] =
    u_(l_x, l_y, k_z - m_z)[a], zero where |k_z - m_z| > N.  u need not be
    divergence-free.
    """
    if u.n != v.n:
        raise ValueError(f"resolution mismatch: {u.n} vs {v.n}")
    n = u.n
    tab = u.table
    side = 2 * n + 1
    vk, vc = _full_modes(v)
    uk, uc = _full_modes(u)
    # dense cubes indexed by m + n per axis; u's z axis padded to -2N..2N
    vcube = np.zeros((side, side, side, 3), dtype=np.complex128)
    vcube[vk[:, 0] + n, vk[:, 1] + n, vk[:, 2] + n] = vc
    ucube = np.zeros((side, side, 3, 4 * n + 1), dtype=np.complex128)
    ucube[uk[:, 0] + n, uk[:, 1] + n, :, uk[:, 2] + 2 * n] = uc
    ax = np.arange(-n, n + 1, dtype=np.float64)
    m = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1)   # m_a at m + n
    w = np.einsum("xyza,xyzj->xyjaz", m, vcube).reshape(side, side * 3, 3 * side)
    iz = np.arange(side)
    toeplitz = iz[None, :] - iz[:, None] + 2 * n   # k_z - m_z + 2N at [m_z, k_z]
    out = np.zeros((n + 1, side, 3, side), dtype=np.complex128)   # k_x = 0..N
    for lx in range(-n, n + 1):
        kx, mx = slice(0, n + 1 + min(0, lx)), slice(n - lx, side - max(0, lx))
        wx = w[mx].reshape(-1, 3 * side)   # a view: every m_y row, cropped after
        for ly in range(-n, n + 1):
            ky, my = slice(max(0, ly), side + min(0, ly)), slice(max(0, -ly), side - max(0, ly))
            t = ucube[lx + n, ly + n][:, toeplitz].reshape(3 * side, side)
            out[kx, ky] += (wx @ t).reshape(-1, side, 3, side)[:, my]
    kv = tab.kvec
    coeffs = out[kv[:, 0], kv[:, 1] + n, :, kv[:, 2] + n]
    coeffs = TWO_PI * 1j * coeffs
    return SpectralField(n, leray_project(coeffs, tab))


# -- pseudo-spectral route ----------------------------------------------------
#
# Spectral data live in the dense half-block (..., 2N+1, 2N+1, N+1) of
# spectral.PadLayout, the only part of the padded rfft half-cube that is
# non-zero on input or kept on output.  The two transforms below run one axis
# at a time and skip every line that is all zero on input or dropped on
# output: x and y on pocketfft, in place on views of one (g, g, N+1) cube, and
# z as real BLAS products with pruned DFT matrices, whose fixed call shape
# keeps each row's bytes independent of its batch.

@functools.lru_cache(maxsize=None)
def _z_matrices(n: int, grid: int, dtype) -> tuple:
    """Real matrices of the pruned z-axis DFTs: forward (g, 2(N+1)), cos and
    -sin columns giving (Re, Im) of kz = 0..N, with the 1/g^3 of the 3-D
    transform folded in; inverse (2(N+1), g), the same rows weighted 1 at
    kz = 0 and 2 above (Hermitian symmetry; N < g/2, so no Nyquist row)."""
    ang = 2 * np.pi * (np.outer(np.arange(grid), np.arange(n + 1)) % grid) / grid
    cs = np.stack([np.cos(ang), -np.sin(ang)], axis=-1).reshape(grid, 2 * n + 2)
    weight = np.repeat(np.r_[1.0, np.full(n, 2.0)], 2)
    return (cs / grid**3).astype(dtype), np.ascontiguousarray((cs * weight).T, dtype=dtype)


def _gemm_rows(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m over the rows of a, in BLAS calls of the largest power-of-two row
    count with rows * m.size <= 2**18, the last one zero-padded.  OpenBLAS's
    bits for a row can change with a call's row count, so one count keeps
    each row's bytes its own; at this size OpenBLAS runs on the calling thread."""
    rows = 1 << max(0, ((1 << 18) // m.size).bit_length() - 1)
    out = np.empty((len(a), m.shape[1]), dtype=m.dtype)
    full = len(a) - len(a) % rows
    with np.errstate(over="ignore", invalid="ignore"):   # a blown-up row: silent, as in pocketfft
        for lo in range(0, full, rows):
            np.matmul(a[lo:lo + rows], m, out=out[lo:lo + rows])
        if full < len(a):
            tail = np.pad(a[full:], ((0, rows + full - len(a)), (0, 0)))
            out[full:] = (tail @ m)[:len(a) - full]
    return out


def _wrapped(n: int, grid: int) -> tuple:
    """Block and grid index ranges of the wavenumbers 0..N and -N..-1."""
    return (slice(0, n + 1), slice(0, n + 1)), (slice(n + 1, 2 * n + 1), slice(grid - n, grid))


def _irfft_block(hat: np.ndarray, grid: int) -> np.ndarray:
    """Real grids (..., g, g, g) from half-blocks, unnormalised: sum_k hat_k e^{2 pi i k.x}."""
    n = hat.shape[-1] - 1
    cube = np.zeros(hat.shape[:-3] + (grid, grid, n + 1), dtype=hat.dtype)
    for bx, gx in _wrapped(n, grid):
        for by, gy in _wrapped(n, grid):
            cube[..., gx, gy, :] = hat[..., bx, by, :]
    # in place on views: x over the (2N+1)(N+1) non-zero lines, then y; z is the product
    for _, gy in _wrapped(n, grid):
        sfft.ifft(cube[..., :, gy, :], axis=-3, norm="forward", overwrite_x=True)
    sfft.ifft(cube, axis=-2, norm="forward", overwrite_x=True)
    inv = _z_matrices(n, grid, hat.real.dtype)[1]
    out = _gemm_rows(cube.view(inv.dtype).reshape(-1, 2 * n + 2), inv)
    return out.reshape(hat.shape[:-3] + (grid,) * 3)


def _rfft_block(phys: np.ndarray, n: int) -> np.ndarray:
    """Half-blocks (..., 2N+1, 2N+1, N+1) of real grids, scaled by 1/g^3."""
    grid = phys.shape[-1]
    fwd = _z_matrices(n, grid, phys.dtype)[0]
    cube = _gemm_rows(phys.reshape(-1, grid), fwd).view(np.result_type(phys.dtype, np.complex64))
    cube = cube.reshape(phys.shape[:-1] + (n + 1,))
    # in place on views: x over every kz <= N line, then y over the kept x rows
    sfft.fft(cube, axis=-3, overwrite_x=True)
    for _, gx in _wrapped(n, grid):
        sfft.fft(cube[..., gx, :, :], axis=-2, overwrite_x=True)
    out = np.empty(phys.shape[:-3] + (2 * n + 1, 2 * n + 1, n + 1), dtype=cube.dtype)
    for bx, gx in _wrapped(n, grid):
        for by, gy in _wrapped(n, grid):
            out[..., bx, by, :] = cube[..., gx, gy, :]
    return out


def _scatter_half(coeffs: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Embed (..., K, 3) coefficients into half-blocks (..., 3, 2N+1, 2N+1, N+1)."""
    lay = table.pad_layout(grid)
    block = (2 * table.n + 1, 2 * table.n + 1, table.n + 1)
    lead = coeffs.shape[:-2]
    ct = np.ascontiguousarray(np.swapaxes(coeffs, -1, -2))   # (..., 3, K)
    z = np.zeros(lead + (3, math.prod(block)), dtype=coeffs.dtype)
    z[..., :, lay.val_slots] = ct[..., :, lay.val_rows]
    z[..., :, lay.conj_slots] = np.conj(ct[..., :, lay.conj_rows])
    return z.reshape(lead + (3,) + block)


def _gather_half(z: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Read (..., 3, 2N+1, 2N+1, N+1) half-blocks back to (..., K, 3) coefficients."""
    out = _gather_half_scalar(z, table, grid)
    return np.ascontiguousarray(np.swapaxes(out, -1, -2))


def _gather_half_scalar(z: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Gather (..., C, 2N+1, 2N+1, N+1) half-blocks to (..., C, K) mode values."""
    lay = table.pad_layout(grid)
    zf = z.reshape(z.shape[:-3] + (-1,))
    out = np.empty(z.shape[:-3] + (table.n_modes,), dtype=z.dtype)
    out[..., lay.val_rows] = zf[..., lay.val_slots]
    # k3 < 0 rows only appear through their conjugate slot; k3 == 0 rows sit
    # in both lists and the value slot takes precedence (equal to roundoff)
    out[..., lay.neg_rows] = np.conj(zf[..., lay.neg_slots])
    return out


def b_batch(uc: np.ndarray, vc: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """Dealiased (u . grad) v with Leray projection for (..., K, 3) batches."""
    lay = table.pad_layout(grid)
    u_phys = _irfft_block(_scatter_half(uc, table, grid), grid)
    v_hat = _scatter_half(vc, table, grid)
    w_hat = np.empty_like(v_hat)
    # one component w_j = sum_a u_a d_a v_j in flight at a time, summed in
    # place in the order (t0 + t1) + t2, one gradient at a time: 8 real grids, not 20
    for j in range(3):
        for a, ka in enumerate((lay.kx, lay.ky, lay.kz)):
            d = _irfft_block(v_hat[..., j, :, :, :] * (TWO_PI * 1j * ka), grid)
            d *= u_phys[..., a, :, :, :]
            w = d if a == 0 else np.add(w, d, out=w)
            del d
        w_hat[..., j, :, :, :] = _rfft_block(w, table.n)
        del w
    del u_phys, v_hat
    return leray_project(_gather_half(w_hat, table, grid), table)


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


# -- path tiling ----------------------------------------------------------------

def tile_paths(n_products: int, grid: int, itemsize: int) -> int:
    """Paths per tile: as many as keep n_products real grids within TILE_BYTES."""
    return max(1, TILE_BYTES // (n_products * grid**3 * itemsize))


def _mark_pool_thread() -> None:
    _thread.in_pool = True


def _tile_pool(threads: int) -> ThreadPoolExecutor:
    """This process's tile pool; a forked child never reuses its parent's."""
    global _tile_pool_by_pid
    key = (os.getpid(), threads)
    if _tile_pool_by_pid is None or _tile_pool_by_pid[:2] != key:
        if _tile_pool_by_pid is not None and _tile_pool_by_pid[0] == key[0]:
            _tile_pool_by_pid[2].shutdown(wait=False)
        _tile_pool_by_pid = key + (ThreadPoolExecutor(threads, initializer=_mark_pool_thread),)
    return _tile_pool_by_pid[2]


def map_tiles(run, total: int, tile: int, threaded: bool = True) -> None:
    """Call run(lo) for lo = 0, tile, 2 tile, ... < total on FFT_WORKERS threads.

    dynamics._step_paths is its one caller in the package: each call runs
    one path tile's whole path and writes only its own slice of the
    outputs.  The calls run in order on the calling thread when one thread
    is asked for, when there is one tile, when not `threaded`, or when
    called from a tile-pool thread (which the pool would otherwise wait on).
    """
    starts = range(0, total, tile)
    threads = FFT_WORKERS if FFT_WORKERS > 0 else (os.cpu_count() or 1) + 1 + FFT_WORKERS
    if threaded and threads > 1 and len(starts) > 1 and not _thread.in_pool:
        list(_tile_pool(threads).map(run, starts))
    else:
        for lo in starts:
            run(lo)


# -- divergence-form kernel -----------------------------------------------------

def _products_buffer(shape: tuple, dtype) -> np.ndarray:
    """An uninitialised products array: a view of this thread's buffer when it
    fits in TILE_BYTES (a stepper tile's always does), else a fresh array.

    glibc trims its heap back to the OS whenever the free memory on top
    reaches twice the largest chunk it has handed out by mmap and got back.
    In a process that never freed a larger chunk, a tile whose fresh arrays
    add up to more than that would fault all of them back in on every tile;
    a kept products buffer and the early free of the physical grids keep the
    rest under it.
    """
    nbytes = math.prod(shape) * np.dtype(dtype).itemsize
    if nbytes > TILE_BYTES:
        return np.empty(shape, dtype=dtype)
    if _thread.prods is None or _thread.prods.nbytes < nbytes:   # TILE_BYTES may have grown
        _thread.prods = np.empty(TILE_BYTES, dtype=np.uint8)
    return _thread.prods[:nbytes].view(dtype).reshape(shape)


def _one_state(a: np.ndarray) -> bool:
    """Whether the batch a is (P, K, 3) with P >= 2 rows, all with row 0's bytes.

    Integer views, not ==, so -0 vs +0 and NaN payloads count as different;
    row 1 goes first, so a batch of distinct rows stops after one row.
    """
    if a.ndim != 3 or len(a) < 2:
        return False
    rows = np.ascontiguousarray(a).view(np.int64).reshape(len(a), -1)
    return np.array_equal(rows[1], rows[0]) and bool((rows[2:] == rows[0]).all())


def _divergence_tile(uc, yc, with_self, table, grid):
    """B(u, u) when with_self, then B(y, u) + B(u, y) when y is given.

    Both sets are 2 pi i k_a (v_a w_j)^ then Leray: the divergence form,
    which equals the convective form for divergence-free fields (the extra
    triad factor u_l . l vanishes), at 9 transforms per set instead of 15.
    The pair products u_a y_j + y_a u_j share u's transforms with the self
    products u_a u_j, and all of them run through one forward transform.
    The FFTs run on the calling thread; FFT_WORKERS sets only how many
    tile-pool threads call this.

    A batch whose rows are all one state (u, and y when given, byte-equal
    row by row: step 0 of a run from one start) runs the kernel on its first
    row alone, and each result is that row repeated, as a fresh array.  A
    kernel row depends only on its own input row, so the bytes are those of
    the full batch.
    """
    if yc is not None and yc.shape != uc.shape:
        raise ValueError(f"u and y batches differ in shape: {uc.shape} vs {yc.shape}")
    if _one_state(uc) and (yc is None or _one_state(yc)):
        one = _divergence_tile(uc[:1], None if yc is None else yc[:1], with_self, table, grid)
        return tuple(np.repeat(r, len(uc), axis=0) for r in one)
    fields = uc[..., None, :, :] if yc is None else np.stack([uc, yc], axis=-3)
    phys = _irfft_block(_scatter_half(fields, table, grid), grid)
    up = phys[..., 0, :, :, :, :]
    lead, cube = uc.shape[:-2], phys.shape[-3:]
    n_sets = int(with_self) + (yc is not None)
    prods = _products_buffer(lead + (6 * n_sets,) + cube, phys.dtype)
    yp = scratch = None
    if yc is not None:
        yp = phys[..., 1, :, :, :, :]
        scratch = np.empty(lead + cube, dtype=phys.dtype)
    for i, (a, b) in enumerate(_PROD_PAIRS):
        if with_self:
            np.multiply(up[..., a, :, :, :], up[..., b, :, :, :], out=prods[..., i, :, :, :])
        if yc is not None:
            sym = prods[..., 6 * with_self + i, :, :, :]
            np.multiply(up[..., a, :, :, :], yp[..., b, :, :, :], out=sym)
            np.multiply(yp[..., a, :, :, :], up[..., b, :, :, :], out=scratch)
            sym += scratch
    # freed before the forward transform allocates, so a tile's fresh arrays
    # stay within twice the largest of them (see _products_buffer)
    del phys, up, yp, scratch
    p_hat = _rfft_block(prods, table.n)
    p_modes = _gather_half_scalar(p_hat, table, grid)
    return tuple(leray_project(_divergence_form_contract(p_modes[..., 6 * j:6 * j + 6, :],
                                                         table), table)
                 for j in range(n_sets))


def b_self_batch(uc: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """B(u, u) in divergence form for (..., K, 3) batches of divergence-free u."""
    return _divergence_tile(uc, None, True, table, grid)[0]


def b_linpair_batch(uc: np.ndarray, yc: np.ndarray, table: ModeTable, grid: int) -> np.ndarray:
    """B(y, u) + B(u, y) in divergence form (both fields divergence-free)."""
    return _divergence_tile(uc, yc, False, table, grid)[0]


def b_self_and_linpair(uc: np.ndarray, yc: np.ndarray, table: ModeTable,
                       grid: int) -> tuple[np.ndarray, np.ndarray]:
    """(B(u,u), B(y,u)+B(u,y)) sharing transforms; the tangent-flow hot path."""
    return _divergence_tile(uc, yc, True, table, grid)


def b_pseudospectral(u: SpectralField, v: SpectralField) -> SpectralField:
    """Fast evaluation of B(u, v); identical to b_direct up to roundoff."""
    if u.n != v.n:
        raise ValueError(f"resolution mismatch: {u.n} vs {v.n}")
    grid = dealias_grid(u.n)
    coeffs = b_batch(u.coeffs, v.coeffs, u.table, grid)
    return SpectralField(u.n, coeffs)


def skew_pairing_residual(u: SpectralField, v: SpectralField) -> float:
    """|<B(u,v), v>| normalised by ||u|| ||v||^2 (zero in exact arithmetic)."""
    b = b_pseudospectral(u, v)
    num = abs(2.0 * np.real(np.einsum("kj,kj->", b.coeffs, np.conj(v.coeffs))))
    den = sobolev_norm(u, 0.0) * sobolev_norm(v, 0.0) ** 2
    if den == 0.0:
        return 0.0
    return num / den
