import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import fft as sfft

from navsto import noise as ns
from navsto import nonlinearity as nl
from navsto import spectral as sp


def random_field(n, seed, s=2.0):
    return sp.random_divfree_field(n, sp.powerlaw_profile(s), seed)


def triad_oracle(u, v):
    """Plain-Python triad sum, blind to the library's vectorized layout."""
    n = u.n
    out = sp.SpectralField.zero(n)
    modes = []
    for k, c in zip(u.table.kvec, u.coeffs):
        modes.append((tuple(k), np.array(c)))
        modes.append((tuple(-k), np.conj(c)))
    vmap = {}
    for k, c in zip(v.table.kvec, v.coeffs):
        vmap[tuple(k)] = np.array(c)
        vmap[tuple(-k)] = np.conj(c)
    acc = {}
    for (l, cl) in modes:
        for m, cm in vmap.items():
            k = (l[0] + m[0], l[1] + m[1], l[2] + m[2])
            if k == (0, 0, 0) or max(abs(x) for x in k) > n:
                continue
            coef = 2j * np.pi * (cl[0] * m[0] + cl[1] * m[1] + cl[2] * m[2])
            acc[k] = acc.get(k, 0) + coef * cm
    tab = out.table
    for k, val in acc.items():
        if not tab.is_stored(k):
            continue  # the conjugate partner carries the same information
        kv = np.array(k, dtype=float)
        proj = val - (val @ kv) * kv / (kv @ kv)
        out.coeffs[tab.index_of(k)] = proj
    return out


def b_direct_full_box(u, v):
    """Frozen b_direct: every shifted add over the whole (4N+1)^3 box, then a crop."""
    n, tab, side = u.n, u.table, 2 * u.n + 1
    vk, vc = nl._full_modes(v)
    vcube = np.zeros((3, side, side, side), dtype=np.complex128)
    vcube[:, vk[:, 0] + n, vk[:, 1] + n, vk[:, 2] + n] = vc.T
    ax = np.arange(-n, n + 1, dtype=np.float64)
    mgrid = np.meshgrid(ax, ax, ax, indexing="ij")
    uk, uc = nl._full_modes(u)
    out = np.zeros((3, 4 * n + 1, 4 * n + 1, 4 * n + 1), dtype=np.complex128)
    for l, cl in zip(uk, uc):
        if not (cl[0] or cl[1] or cl[2]):
            continue
        s = cl[0] * mgrid[0] + cl[1] * mgrid[1] + cl[2] * mgrid[2]
        o1, o2, o3 = int(l[0]) + n, int(l[1]) + n, int(l[2]) + n
        out[:, o1:o1 + side, o2:o2 + side, o3:o3 + side] += s[None, :, :, :] * vcube
    kv = tab.kvec
    coeffs = out[:, kv[:, 0] + 2 * n, kv[:, 1] + 2 * n, kv[:, 2] + 2 * n].T
    return sp.leray_project(nl.TWO_PI * 1j * coeffs, tab)


def assert_close_to_full_box(u, v):
    want = b_direct_full_box(u, v)
    assert np.abs(nl.b_direct(u, v).coeffs - want).max() <= 1e-13 * np.abs(want).max()


class TestDirect:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
    def test_cropped_adds_match_full_box(self, n):
        u, v = random_field(n, 60 + n), random_field(n, 70 + n)
        u.coeffs[min(3, u.table.n_modes - 1)] = 0.0   # an all-zero mode
        assert_close_to_full_box(u, v)

    @pytest.mark.parametrize("n", [1, 4])
    def test_matches_full_box_for_u_not_divergence_free(self, n):
        # the oracle's (u_l . m) is general: no term may rely on l . u_l = 0
        rng = np.random.default_rng(80 + n)
        shape = (sp.mode_table(n).n_modes, 3)
        u = sp.SpectralField(n, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        assert np.abs(sp.leray_project(u.coeffs, u.table) - u.coeffs).max() > 0.1
        assert_close_to_full_box(u, random_field(n, 90 + n))

    def test_zero_left_argument(self):
        v = random_field(3, 1)
        z = sp.SpectralField.zero(3)
        b = nl.b_direct(z, v)
        assert np.abs(b.coeffs).max() == 0.0

    def test_single_mode_self_advection_vanishes(self):
        u = sp.SpectralField.zero(3)
        u.set((2, 1, 0), np.array([1.0, -2.0, 0.5j]))
        u = sp.SpectralField(3, sp.leray_project(u.coeffs, u.table))
        b = nl.b_direct(u, u)
        assert np.abs(b.coeffs).max() <= 1e-14

    def test_two_mode_hand_triads(self):
        # u on (1,0,0), v on (0,1,0): output lives on (1,+-1,0)
        n = 2
        a = np.array([0.0, 0.3 - 0.2j, 0.1 + 0.5j])  # a . k1 = 0
        b = np.array([-0.4 + 0.1j, 0.0, 0.25j])      # b . k2 = 0
        u = sp.SpectralField.zero(n); u.set((1, 0, 0), a)
        v = sp.SpectralField.zero(n); v.set((0, 1, 0), b)
        out = nl.b_direct(u, v)

        def proj(vec, k):
            k = np.asarray(k, dtype=float)
            return vec - (vec @ k) * k / (k @ k)

        # (u_l . m) with l = (1,0,0), m = (0,1,0) is a[1]; m = (0,-1,0) flips sign
        expect_pp = 2j * np.pi * a[1] * proj(b, (1, 1, 0))
        expect_pm = 2j * np.pi * (-a[1]) * proj(np.conj(b), (1, -1, 0))
        assert np.allclose(out.get((1, 1, 0)), expect_pp, atol=1e-14)
        assert np.allclose(out.get((1, -1, 0)), expect_pm, atol=1e-14)
        # no other output modes
        total = np.abs(out.coeffs).sum()
        kept = np.abs(expect_pp).sum() + np.abs(expect_pm).sum()
        assert total == pytest.approx(kept, rel=1e-12)

    def test_against_plain_python_oracle(self):
        u, v = random_field(2, 5), random_field(2, 6)
        got = nl.b_direct(u, v)
        want = triad_oracle(u, v)
        scale = np.abs(want.coeffs).max()
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * scale

    def test_resolution_mismatch(self):
        with pytest.raises(ValueError):
            nl.b_direct(random_field(2, 1), random_field(3, 1))


class TestPseudospectral:
    def test_matches_direct_on_random_pairs(self):
        for n in (4, 6):
            for trial in range(5):
                u, v = random_field(n, 10 + trial), random_field(n, 20 + trial)
                bd = nl.b_direct(u, v)
                bp = nl.b_pseudospectral(u, v)
                scale = np.abs(bd.coeffs).max()
                assert np.abs(bp.coeffs - bd.coeffs).max() <= 1e-10 * scale

    def test_zero_right_argument(self):
        u = random_field(3, 2)
        b = nl.b_pseudospectral(u, sp.SpectralField.zero(3))
        assert np.abs(b.coeffs).max() <= 1e-15

    def test_output_incompressible(self):
        b = nl.b_pseudospectral(random_field(5, 3), random_field(5, 4))
        assert sp.divergence_residual(b) <= 1e-12

    def test_paranoia_padding_agrees(self):
        u, v = random_field(4, 7).coeffs, random_field(4, 8).coeffs
        tab = sp.mode_table(4)
        b1 = nl.b_batch(u, v, tab, nl.dealias_grid(4))
        b2 = nl.b_batch(u, v, tab, 18)   # 2x padding of the 9 wavenumbers
        assert np.abs(b1 - b2).max() <= 1e-12 * np.abs(b1).max()

    def test_divergence_form_kernels_agree(self):
        tab = sp.mode_table(4)
        grid = nl.dealias_grid(4)
        u = random_field(4, 9).coeffs
        y = random_field(4, 10).coeffs
        conv_self = nl.b_batch(u, u, tab, grid)
        conv_pair = nl.b_batch(y, u, tab, grid) + nl.b_batch(u, y, tab, grid)
        ds = nl.b_self_batch(u, tab, grid)
        dp = nl.b_linpair_batch(u, y, tab, grid)
        cs, cp = nl.b_self_and_linpair(u, y, tab, grid)
        for got, want in ((ds, conv_self), (cs, conv_self), (dp, conv_pair), (cp, conv_pair)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestPathTiling:
    """B kernels return the bytes of per-path calls on any batch, whatever
    the thread setting (which the divergence-form kernels do not read; their
    FFTs run on the calling thread): the steppers' path tiles rely on it,
    because a row's B must not depend on the rows it is batched with.  A
    batch of one repeated state runs the divergence kernels on one row; its
    near misses, which differ in a bit the kernel reads, run on every row."""

    N = 4
    P = 146   # more than two stepper tiles plus a ragged part, for every kernel and dtype

    @staticmethod
    def kernels(u, y, tab, grid):
        return (nl.b_self_batch(u, tab, grid), nl.b_linpair_batch(u, y, tab, grid),
                *nl.b_self_and_linpair(u, y, tab, grid))

    def per_row(self, u, y, tab, grid):
        """The four kernels' outputs stacked from batch-1 calls, one per distinct row pair."""
        seen = {}
        rows = [seen.setdefault(u[i].tobytes() + y[i].tobytes(),
                                self.kernels(u[i], y[i], tab, grid)) for i in range(self.P)]
        return [np.stack([r[j] for r in rows]) for j in range(4)]

    def near_misses(self, one_u, one_y, y):
        """Batches that differ from a one-state batch in bits the kernel reads."""
        last_ulp = one_u.copy()
        flat = last_ulp[-1].view(np.finfo(one_u.dtype).dtype).reshape(-1)
        flat[5] = np.nextafter(flat[5], np.inf)
        zeros = np.zeros_like(one_u)
        zeros[self.P // 2] = complex(-0.0, -0.0)
        return (("last row one ulp apart", last_ulp, one_y),
                ("one all -0 row among +0 rows", zeros, one_y),
                ("u one state, y not", one_u, y))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_bytes_independent_of_tiles_and_threads(self, dtype, fft_workers,
                                                    fine_thread_switching, monkeypatch):
        tab = sp.mode_table(self.N)
        grid = nl.dealias_grid(self.N)
        real = np.finfo(dtype).dtype
        for n_products in (6, 12):
            tile = nl.tile_paths(n_products, grid, real.itemsize)
            assert self.P > 2 * tile and self.P % tile
        fields = [sp.random_divfree_field(self.N, sp.powerlaw_profile(2.0), seed=900,
                                          stream=i).coeffs for i in range(2 * self.P)]
        u = np.array(fields[:self.P], dtype=dtype)
        y = np.array(fields[self.P:], dtype=dtype)
        per_path = [self.kernels(u[i], y[i], tab, grid) for i in range(self.P)]
        expect = [np.stack([pp[j] for pp in per_path]) for j in range(4)]
        P = self.P
        one_u, one_y = np.repeat(u[:1], P, axis=0), np.repeat(y[:1], P, axis=0)
        one = [np.repeat(r[None], P, axis=0) for r in self.kernels(u[0], y[0], tab, grid)]
        # each case's kernel rows per call: b_self_batch, b_linpair_batch, the joint one
        cases = [("distinct rows", u, y, expect, [P, P, P]),
                 ("one state", one_u, one_y, one, [1, 1, 1])]
        cases += [(name, cu, cy, self.per_row(cu, cy, tab, grid), [1 if cu is one_u else P, P, P])
                  for name, cu, cy in self.near_misses(one_u, one_y, y)]
        rows = []
        irfft = nl._irfft_block
        monkeypatch.setattr(nl, "_irfft_block",
                            lambda hat, *a: rows.append(len(hat)) or irfft(hat, *a))
        for workers in (-1, 5, 1):   # all cores, more threads than cores, serial
            fft_workers(workers)
            for name, cu, cy, want, kernel_rows in cases:
                rows.clear()
                got = self.kernels(cu, cy, tab, grid)
                assert rows == kernel_rows, name
                for g, e in zip(got, want):
                    assert g.dtype == dtype
                    assert g.tobytes() == e.tobytes(), name   # sees -0 vs +0, NaN payloads
                # the single-set entry points are the two halves of the joint one
                assert got[0].tobytes() == got[2].tobytes()
                assert got[1].tobytes() == got[3].tobytes()


@pytest.mark.parametrize("n", [2, 4, 6, 8, 16])
def test_rows_keep_their_bytes_in_any_batch(n, monkeypatch):
    # every kernel row has the bytes of that row run alone and of it at
    # another offset in a shorter batch.  The z passes are BLAS products, whose
    # bits for a row can change with a call's row count; every call has one
    # row count, so the line counts here, none a multiple of it, end in a
    # zero-padded call
    tab, grid = sp.mode_table(n), nl.dealias_grid(n)
    fields = np.array([random_field(n, 700 + 10 * n + i).coeffs for i in range(10)])
    u, y = fields[:5], fields[5:]
    kernels = {
        "b_self_batch": lambda u, y: [nl.b_self_batch(u, tab, grid)],
        "b_self_and_linpair": lambda u, y: nl.b_self_and_linpair(u, y, tab, grid),
        "b_self_and_linpair float32": lambda u, y: nl.b_self_and_linpair(
            u.astype(np.complex64), y.astype(np.complex64), tab, grid),
        "b_batch": lambda u, y: [nl.b_batch(u, y, tab, grid)],
    }
    lines = []
    gemm = nl._gemm_rows
    monkeypatch.setattr(nl, "_gemm_rows",
                        lambda a, m: lines.append((len(a), m.size)) or gemm(a, m))
    for name, kernel in kernels.items():
        lines.clear()
        whole, part = kernel(u, y), kernel(u[1:4], y[1:4])
        alone = [kernel(u[i:i + 1], y[i:i + 1]) for i in range(5)]
        for count, size in lines:
            assert count % (1 << ((1 << 18) // size).bit_length() - 1), (name, count)
        for j, w in enumerate(whole):
            assert part[j].tobytes() == w[1:4].tobytes(), name
            for i in range(5):
                assert alone[i][j].tobytes() == w[i:i + 1].tobytes(), (name, i)


def test_b_kernels_run_their_ffts_on_the_calling_thread(fft_workers, monkeypatch):
    # FFT_WORKERS sets tile-pool threads only: no kernel hands scipy.fft a
    # thread count, whatever the setting
    threaded = []

    class Proxy:
        def __getattr__(self, name):
            fn = getattr(sfft, name)

            def spy(*args, **kwargs):
                # workers is the sixth positional parameter of fft/ifft
                threaded.append("workers" in kwargs or len(args) > 5)
                return fn(*args, **kwargs)
            return spy if callable(fn) else fn

    monkeypatch.setattr(nl, "sfft", Proxy())
    fft_workers(-1)
    tab, grid = sp.mode_table(4), nl.dealias_grid(4)
    u, y = random_field(4, 11), random_field(4, 12)
    for call in (lambda: nl.b_self_batch(u.coeffs, tab, grid),
                 lambda: nl.b_self_and_linpair(u.coeffs, y.coeffs, tab, grid),
                 lambda: nl.b_batch(u.coeffs, y.coeffs, tab, grid),
                 lambda: nl.b_pseudospectral(u, y)):
        threaded.clear()
        call()
        assert threaded and not any(threaded)


def test_products_buffer_grows_with_tile_bytes(monkeypatch):
    # a thread's products buffer made under a small TILE_BYTES is re-made
    # once a larger TILE_BYTES lets a larger tile use it
    tab, grid = sp.mode_table(4), nl.dealias_grid(4)
    u = np.array([random_field(4, 960 + i).coeffs for i in range(5)])
    row_bytes = 6 * grid**3 * 8
    expect = np.stack([nl.b_self_batch(r, tab, grid) for r in u])
    monkeypatch.setattr(nl._thread, "prods", None)
    monkeypatch.setattr(nl, "TILE_BYTES", row_bytes)
    first = nl.b_self_batch(u[:1], tab, grid)
    monkeypatch.setattr(nl, "TILE_BYTES", len(u) * row_bytes)
    got = nl.b_self_batch(u, tab, grid)
    assert nl._thread.prods.nbytes == len(u) * row_bytes
    assert first.tobytes() == expect[:1].tobytes() and got.tobytes() == expect.tobytes()


def test_nested_tiled_calls_run_inline(fft_workers):
    # a map_tiles task calls the B kernels on a batch of several stepper
    # tiles, and the noise block on as many paths; on the pool's threads they
    # run with one FFT thread and the same bytes, and the pool never waits
    # on itself
    n, dt, seed, step = 4, 1e-3, 33, 2
    tab, grid = sp.mode_table(n), nl.dealias_grid(n)
    cov = ns.build_covariance(0.75, 30.0, n)
    p_b = 2 * nl.tile_paths(6, grid, 8) + 3
    u = np.array([random_field(n, 950 + i).coeffs for i in range(p_b)])
    ids = np.arange(p_b)
    expect = (nl.b_self_batch(u, tab, grid), ns.ou_block(cov, dt, seed, ids, step))
    fft_workers(2)
    got, on_pool = {}, {}

    def task(lo):
        on_pool[lo] = nl._thread.in_pool
        got[lo] = (nl.b_self_batch(u, tab, grid), ns.ou_block(cov, dt, seed, ids, step))

    caller = threading.Thread(target=nl.map_tiles, args=(task, 2, 1), daemon=True)
    caller.start()
    caller.join(timeout=120)
    assert not caller.is_alive(), "nested tiled calls wait on their own pool"
    assert on_pool == {0: True, 1: True}
    for outs in got.values():
        for g, e in zip(outs, expect):
            assert g.tobytes() == e.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), paths=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       dtype=st.sampled_from([np.complex128, np.complex64]),
       special=st.lists(st.floats(allow_nan=False, width=32), max_size=8))
def test_scatter_gather_round_trip(n, paths, seed, dtype, special):
    tab = sp.mode_table(n)
    grid = nl.dealias_grid(n)
    rng = np.random.default_rng(seed)
    c = (rng.standard_normal((paths, tab.n_modes, 3))
         + 1j * rng.standard_normal((paths, tab.n_modes, 3))).astype(dtype)
    flat = c.view(np.finfo(dtype).dtype).reshape(-1)
    flat[rng.integers(0, flat.size, len(special))] = special   # +-0, inf, subnormals
    back = nl._gather_half(nl._scatter_half(c, tab, grid), tab, grid)
    assert back.dtype == c.dtype and back.shape == c.shape
    assert back.tobytes() == c.tobytes()


def full_cube_slots(tab, grid):
    """Flat slots of every stored k and of -k in the padded (g, g, g/2+1) half-cube."""
    gz = grid // 2 + 1

    def flat(k):
        return (k[:, 0] % grid) * grid * gz + (k[:, 1] % grid) * gz + k[:, 2]
    return flat(tab.kvec), flat(-tab.kvec)


def full_cube(hat, tab, grid):
    """The dense half-block embedded in the padded half-cube, by explicit k."""
    n, gz = tab.n, grid // 2 + 1
    side = np.r_[0:n + 1, -n:0]
    cube = np.zeros(hat.shape[:-3] + (grid, grid, gz), dtype=hat.dtype)
    cube[..., (side % grid)[:, None], side % grid, :n + 1] = hat
    return cube


def b_batch_full_cube(uc, vc, tab, grid):
    """Frozen full-cube b_batch: scatter to the padded half-cube, irfftn/rfftn."""
    gz = grid // 2 + 1
    pos, neg = full_cube_slots(tab, grid)
    k3 = tab.kvec[:, 2]
    axes = (-3, -2, -1)

    def scatter(c):
        ct = np.swapaxes(c, -1, -2)
        z = np.zeros(ct.shape[:-1] + (grid * grid * gz,), dtype=c.dtype)
        z[..., pos[k3 >= 0]] = ct[..., k3 >= 0]
        z[..., neg[k3 <= 0]] = np.conj(ct[..., k3 <= 0])
        return z.reshape(ct.shape[:-1] + (grid, grid, gz))

    w = (((np.arange(grid) + grid // 2) % grid) - grid // 2).astype(np.float64)
    kx, ky, kz = np.meshgrid(w, w, np.arange(gz, dtype=np.float64), indexing="ij")
    u_phys = sfft.irfftn(scatter(uc), s=(grid,) * 3, axes=axes)
    v_hat = scatter(vc)
    acc = None
    for a, ka in enumerate((kx, ky, kz)):
        dva = sfft.irfftn(v_hat * (nl.TWO_PI * 1j * ka), s=(grid,) * 3, axes=axes)
        term = u_phys[..., a:a + 1, :, :, :] * dva
        acc = term if acc is None else acc + term
    zf = sfft.rfftn(acc, axes=axes).reshape(acc.shape[:-3] + (-1,))
    out = np.empty(zf.shape[:-1] + (tab.n_modes,), dtype=zf.dtype)
    out[..., k3 >= 0] = zf[..., pos[k3 >= 0]]
    out[..., k3 < 0] = np.conj(zf[..., neg[k3 < 0]])
    return sp.leray_project(np.swapaxes(out, -1, -2) * grid**3, tab)


def rel_err(got, want):
    return float(np.abs(got - want).max() / np.abs(want).max())


class TestPrunedTransforms:
    """The pruned block transforms match scipy's full-cube ones, scaled, to
    roundoff: the z passes are BLAS products, so the bytes differ by design.
    The bounds are about ten times the worst relative error of 150 random
    draws (8.8e-16 for float64, 3.1e-7 for float32)."""

    BOUND = {np.complex128: 1e-14, np.complex64: 4e-6}

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), lead=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           dtype=st.sampled_from([np.complex128, np.complex64]))
    def test_match_full_cube_transforms(self, n, lead, seed, dtype):
        tab = sp.mode_table(n)
        grid = nl.dealias_grid(n)
        rng = np.random.default_rng(seed)
        shape = (lead, 2 * n + 1, 2 * n + 1, n + 1)
        hat = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(dtype)
        hat[0, rng.integers(0, 2 * n + 1)] = 0   # an all-zero x row
        got = nl._irfft_block(hat, grid)   # unnormalised: irfftn times g^3
        want = sfft.irfftn(full_cube(hat, tab, grid), s=(grid,) * 3, axes=(-3, -2, -1))
        assert got.dtype == want.dtype and rel_err(got, want * grid**3) <= self.BOUND[dtype]

        phys = rng.standard_normal((lead, grid, grid, grid)).astype(got.dtype)
        got = nl._rfft_block(phys, n)   # rfftn over g^3
        full = sfft.rfftn(phys, axes=(-3, -2, -1))
        side = np.r_[0:n + 1, -n:0] % grid
        want = full[..., side[:, None], side, :n + 1]
        assert got.dtype == want.dtype and rel_err(got, want / grid**3) <= self.BOUND[dtype]

    @pytest.mark.parametrize("n, batch", [pytest.param(16, 1, id="16"),
                                          pytest.param(32, 1, id="32"),
                                          pytest.param(4, 3, id="4-batch3")])
    def test_b_batch_matches_full_cube(self, n, batch):
        tab = sp.mode_table(n)
        grid = nl.dealias_grid(n)
        fields = [[random_field(n, 110 + n + 2 * i + j).coeffs for i in range(batch)]
                  for j in (0, 1)]
        u, v = (f[0] if batch == 1 else np.stack(f) for f in fields)
        got = nl.b_batch(u, v, tab, grid)
        assert rel_err(got, b_batch_full_cube(u, v, tab, grid)) <= self.BOUND[np.complex128]

    def test_b_batch_streams_one_component(self):
        # one velocity component and one of its gradients in flight: about 8
        # real grids per batch-1 call, where the three components at once
        # took about 20
        n = 16
        tab = sp.mode_table(n)
        grid = nl.dealias_grid(n)
        u, v = random_field(n, 5).coeffs, random_field(n, 6).coeffs
        nl.b_batch(u, v, tab, grid)   # tables and layouts outside the count
        tracemalloc.start()
        try:
            nl.b_batch(u, v, tab, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grids = peak / (grid**3 * 8)
        assert grids < 8.6, grids


class TestAlgebra:
    def test_skew_pairing(self):
        for trial in range(6):
            u, v = random_field(4, 30 + trial), random_field(4, 40 + trial)
            assert nl.skew_pairing_residual(u, v) <= 1e-12

    def test_galerkin_self_pairing(self):
        # <P_n B(u,u), u> = 0 for u supported in the truncation
        u = random_field(5, 50)
        assert nl.skew_pairing_residual(u, u) <= 1e-12

    def test_bilinearity(self):
        u, w, v = (random_field(3, s) for s in (60, 61, 62))
        a, b = 1.7, -0.4
        lhs = nl.b_pseudospectral(a * u + b * w, v)
        rhs = a * nl.b_pseudospectral(u, v) + b * nl.b_pseudospectral(w, v)
        assert np.abs(lhs.coeffs - rhs.coeffs).max() <= 1e-12 * np.abs(rhs.coeffs).max()


FIELDS = dict(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), s=st.floats(0.0, 4.0))


@settings(max_examples=40, deadline=None)
@given(**FIELDS)
def test_leray_idempotent(n, seed, s):
    u = random_field(n, seed, s).coeffs
    tab = sp.mode_table(n)
    rng = np.random.default_rng(seed)
    scale = np.abs(u).max()
    coef = rng.standard_normal(tab.n_modes) + 1j * rng.standard_normal(tab.n_modes)
    w = u + scale * coef[:, None] * tab.kvec   # plus a gradient part
    pw = sp.leray_project(w, tab)
    assert np.abs(sp.leray_project(u, tab) - u).max() <= 1e-13 * scale
    assert np.abs(sp.leray_project(pw, tab) - pw).max() <= 1e-13 * np.abs(w).max()


@settings(max_examples=40, deadline=None)
@given(**FIELDS)
def test_self_advection_is_energy_neutral(n, seed, s):
    # <B(u, u), u> = 0 for divergence-free u, on the production kernel
    u = random_field(n, seed, s).coeffs
    tab = sp.mode_table(n)
    b = nl.b_self_batch(u[None], tab, nl.dealias_grid(n))[0]
    h2 = sp.sobolev_norm_sq(u, tab.lam, 0.0)
    v = np.sqrt(sp.sobolev_norm_sq(u, tab.lam, 0.5))
    assert abs(sp.pair_with(b, u)) <= 1e-13 * 2 * np.pi * h2 * v
