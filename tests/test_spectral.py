import numpy as np
import pytest

from navsto import spectral as sp

RNG_SEEDS = list(range(40, 52))


def random_field(n, seed, s=2.0, amp=1.0):
    return sp.random_divfree_field(n, sp.powerlaw_profile(s, amp), seed)


class TestStokesEigenvalue:
    def test_axis_mode(self):
        assert sp.stokes_eigenvalue((1, 0, 0)) == pytest.approx(4 * np.pi**2, rel=1e-15)

    def test_diagonal_mode(self):
        assert sp.stokes_eigenvalue((1, 1, 1)) == pytest.approx(12 * np.pi**2, rel=1e-15)

    def test_sign_symmetry(self):
        for k in [(1, 2, -3), (0, 1, 0), (-2, 0, 5)]:
            mk = tuple(-x for x in k)
            assert sp.stokes_eigenvalue(k) == sp.stokes_eigenvalue(mk)

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            sp.stokes_eigenvalue((0, 0, 0))


class TestStokesPowers:
    def test_zero_power_is_identity(self):
        u = random_field(4, 7)
        v = sp.apply_stokes_power(u, 0.0)
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_exponent_additivity(self):
        u = random_field(4, 8)
        a = sp.apply_stokes_power(sp.apply_stokes_power(u, 0.5), 0.5)
        b = sp.apply_stokes_power(u, 1.0)
        scale = np.abs(b.coeffs).max()
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-12 * scale

    def test_single_mode_scaling(self):
        u = sp.SpectralField.zero(3)
        u.set((1, 0, 0), [0, 1.0, 2.0])
        v = sp.apply_stokes_power(u, 1.0)
        assert np.allclose(v.get((1, 0, 0)), 4 * np.pi**2 * np.array([0, 1.0, 2.0]),
                           rtol=1e-14)

    def test_preserves_invariants(self):
        u = random_field(4, 9)
        v = sp.apply_stokes_power(u, 0.73)
        assert sp.divergence_residual(v) <= 1e-12


class TestNorms:
    def test_zero_field(self):
        z = sp.SpectralField.zero(3)
        for a in (0.0, 0.5, 1.0, -1.75):
            assert sp.sobolev_norm(z, a) == 0.0

    def test_homogeneity(self):
        u = random_field(4, 11)
        c = -2.75
        for a in (0.0, 0.5, 1.25):
            assert sp.sobolev_norm(c * u, a) == pytest.approx(
                abs(c) * sp.sobolev_norm(u, a), rel=1e-13)

    def test_parseval_against_grid_quadrature(self):
        for seed in RNG_SEEDS[:5]:
            u = random_field(5, seed)
            phys = sp.to_physical(u, 4 * 5)
            h = sp.sobolev_norm(u, 0.0)
            assert sp.l2_norm_physical(phys) == pytest.approx(h, rel=1e-10)

    def test_theta_table_exact(self):
        assert sp.theta(0.25) == 0.625
        assert sp.theta(0.5) == 0.75
        assert sp.theta(1.0) == 1.25

    def test_norm_interpolation(self):
        # Cauchy-Schwarz on the spectral side
        for seed in RNG_SEEDS[:6]:
            u = random_field(4, seed)
            for a, b in [(0.0, 1.0), (0.25, 0.75), (0.5, 1.5)]:
                mid = sp.sobolev_norm(u, (a + b) / 2)
                bound = np.sqrt(sp.sobolev_norm(u, a) * sp.sobolev_norm(u, b))
                assert mid <= bound * (1 + 1e-12)


class TestLeray:
    def test_divergence_free_unchanged(self):
        u = random_field(4, 13)
        v = sp.leray_project(u.coeffs, u.table)
        assert np.abs(v - u.coeffs).max() <= 1e-14 * np.abs(u.coeffs).max()

    def test_gradient_field_killed(self):
        tab = sp.mode_table(4)
        scal = np.random.default_rng(3).standard_normal(tab.n_modes) \
            + 1j * np.random.default_rng(4).standard_normal(tab.n_modes)
        grad = scal[:, None] * tab.kvec
        out = sp.leray_project(grad, tab)
        assert np.abs(out).max() <= 1e-12 * np.abs(grad).max()

    def test_idempotence(self):
        tab = sp.mode_table(4)
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((tab.n_modes, 3)) + 1j * rng.standard_normal((tab.n_modes, 3))
        p1 = sp.leray_project(raw, tab)
        p2 = sp.leray_project(p1, tab)
        assert np.abs(p2 - p1).max() <= 1e-12 * np.abs(p1).max()


class TestRandomField:
    def test_deterministic(self):
        a = random_field(4, 99)
        b = random_field(4, 99)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_zero_profile(self):
        u = sp.random_divfree_field(4, lambda k: 0.0 * k, seed=1)
        assert np.abs(u.coeffs).max() == 0.0

    def test_norm_stability_across_seeds(self):
        norms = np.array([sp.sobolev_norm(
            sp.random_divfree_field(6, sp.powerlaw_profile(2.0), seed=s), 0.25)
            for s in range(100)])
        assert np.all(np.isfinite(norms))
        dev = np.abs(norms - norms.mean()) / norms.std(ddof=1)
        assert dev.max() <= 3.0

    def test_incompressible(self):
        assert sp.divergence_residual(random_field(6, 123)) <= 1e-12


class TestTransforms:
    def test_alias_guard(self):
        u = random_field(4, 22)
        with pytest.raises(sp.AliasError):
            sp.to_physical(u, 2 * 4)  # needs >= 2N+1

    def test_cosine_wave_peak(self):
        u = sp.SpectralField.zero(3)
        u.set((2, 0, 0), [0, 0.7, 0.0])  # real coefficient: 1.4 cos(4 pi x) e_y
        phys = sp.to_physical(u, 16)
        assert phys[..., 1].max() == pytest.approx(1.4, rel=1e-12)

    def test_reality_of_physical_field(self):
        # the complex spectral cube of a half-stored field is Hermitian
        u = random_field(4, 23)
        grid = 12
        cube = np.zeros((3, grid, grid, grid), dtype=np.complex128)
        k = u.table.kvec
        idx = tuple((k % grid).T)
        nidx = tuple(((-k) % grid).T)
        for j in range(3):
            cube[j][idx] = u.coeffs[:, j]
            cube[j][nidx] = np.conj(u.coeffs[:, j])
        phys = np.fft.ifftn(cube, axes=(1, 2, 3)) * grid**3
        assert np.abs(phys.imag).max() <= 1e-12 * np.abs(phys.real).max()


class TestSnapshotIO:
    def test_binary_round_trip(self, tmp_path):
        u = random_field(5, 31)
        p = tmp_path / "field.bin"
        sp.write_snapshot(u, p)
        v = sp.read_snapshot(p)
        assert v.n == u.n
        assert np.array_equal(v.coeffs, u.coeffs)

    def test_binary_layout(self, tmp_path):
        u = random_field(3, 32)
        p = tmp_path / "field.bin"
        sp.write_snapshot(u, p)
        raw = p.read_bytes()
        n, count = np.frombuffer(raw[:8], dtype="<i4")
        assert n == 3 and count == u.table.n_modes
        assert len(raw) == 8 + count * (3 * 4 + 6 * 8)

    def test_restrict_field_shares_modes(self):
        u = random_field(8, 34)
        r = sp.restrict_field(u, 4)
        for k in [(1, 0, 0), (2, -3, 1), (4, 4, -4)]:
            assert np.array_equal(r.get(k), u.get(k))


def polarization_basis_loop(kvec):
    """The per-mode axis choice the vectorised basis replaces, kept as reference."""
    khat = kvec / np.linalg.norm(kvec, axis=1, keepdims=True)
    parallel = np.abs(np.abs(khat) - 1.0) < 1e-14
    axis = np.zeros(kvec.shape[0], dtype=np.int64)
    for i in range(kvec.shape[0]):
        a = 0
        while parallel[i, a]:
            a += 1
        axis[i] = a
    e = np.eye(3)[axis]
    p1 = e - (e * khat).sum(axis=1, keepdims=True) * khat
    p1 /= np.linalg.norm(p1, axis=1, keepdims=True)
    return np.stack([p1, np.cross(khat, p1)], axis=1)


class TestModeTable:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_polarization_bytes_match_loop(self, n):
        tab = sp.mode_table(n)
        ref = polarization_basis_loop(tab.kvec.astype(np.float64))
        assert tab.pol.shape == ref.shape and tab.pol.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_block_layout_addresses_every_mode(self, n):
        tab = sp.mode_table(n)
        lay = tab.pad_layout(2 * n + 1)
        side, nz = 2 * n + 1, n + 1
        kx, ky, kz = (a.ravel() for a in (lay.kx, lay.ky, lay.kz))
        assert lay.kx.shape == (side, side, nz)
        slot_k = np.stack([kx, ky, kz], axis=1)
        assert np.array_equal(slot_k[lay.val_slots], tab.kvec[lay.val_rows])
        assert np.array_equal(slot_k[lay.conj_slots], -tab.kvec[lay.conj_rows])
        assert np.array_equal(slot_k[lay.neg_slots], -tab.kvec[lay.neg_rows])
        assert np.array_equal(np.sort(np.r_[lay.val_rows, lay.neg_rows]), np.arange(tab.n_modes))
        # every k with kz >= 0 in the block is filled exactly once
        filled = np.r_[lay.val_slots, lay.conj_slots]
        assert len(np.unique(filled)) == filled.size
        nonzero = (kx != 0) | (ky != 0) | (kz != 0)
        assert np.array_equal(np.sort(filled), np.flatnonzero(nonzero))
        with pytest.raises(sp.AliasError):
            tab.pad_layout(2 * n)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_lookup_of_every_k_in_and_around_the_box(self, n):
        tab = sp.mode_table(n)
        for i, k in enumerate(tab.kvec):
            assert tab.index_of(k) == i and tab.index_of(-k) == i
            assert tab.is_stored(k) and not tab.is_stored(-k)
        # the zero mode and wavevectors just outside the box, which a wrapping
        # negative index would otherwise map onto stored rows
        f = sp.SpectralField.zero(n)
        for k in [(0, 0, 0), (n + 1, 0, 0), (-n - 1, 0, 0), (0, n + 1, -n - 1),
                  (1, -2 * n - 1, 0), (0, 0, 3 * n)]:
            assert not tab.is_stored(k)
            with pytest.raises(KeyError):
                tab.index_of(k)
            with pytest.raises(KeyError):
                f.get(k)
            with pytest.raises(KeyError):
                f.set(k, [0, 1, 0])

    def test_restrict_field_matches_per_mode_lookup(self):
        u = random_field(6, 35)
        r = sp.restrict_field(u, 3)
        rows = [u.table.index_of(k) for k in r.table.kvec]
        assert r.coeffs.tobytes() == u.coeffs[rows].tobytes()


def _old_sobolev_norm_sq(coeffs, lam, alpha):
    w = lam ** (2.0 * alpha) if alpha != 0.0 else np.ones_like(lam)
    mag = (coeffs.real**2 + coeffs.imag**2).sum(axis=-1)
    return 2.0 * (mag * w).sum(axis=-1)


def _old_q_form_sq(sigma, coeffs):
    mag = (coeffs.real**2 + coeffs.imag**2).sum(axis=-1)
    return float(2.0 * (sigma**2 * mag).sum())


@pytest.mark.parametrize("alpha", [0.0, 0.5, sp.theta(0.75)])
def test_one_norm_definition_keeps_the_bytes(alpha):
    # sobolev_norm_sq, noise.q_form_sq and dynamics._norm_sq all compute
    # 2 sum_k w_k |u_k|^2 through weighted_norm_sq, with the bytes of the
    # formulas each used to write out, on one field, a batch and a NaN row
    from navsto import dynamics as dyn
    from navsto import noise as ns
    n = 4
    tab, cov = sp.mode_table(n), ns.build_covariance(0.75, 3.0, n)
    one = random_field(n, 70).coeffs
    batch = np.array([random_field(n, 71 + i, amp=10.0**i).coeffs for i in range(5)])
    batch[2, 7, 1] = np.nan
    for c in (one, batch):
        want = _old_sobolev_norm_sq(c, tab.lam, alpha)
        assert sp.sobolev_norm_sq(c, tab.lam, alpha).tobytes() == want.tobytes()
        w = None if alpha == 0.0 else tab.lam ** (2.0 * alpha)
        assert dyn._norm_sq(c, w).tobytes() == want.tobytes()
        both = dyn._norm_sq(c, None, w)
        assert both[1].tobytes() == want.tobytes()
        assert both[0].tobytes() == _old_sobolev_norm_sq(c, tab.lam, 0.0).tobytes()
    assert np.isnan(sp.sobolev_norm_sq(batch, tab.lam, alpha)[2])
    q = ns.q_form_sq(cov, one)
    assert np.float64(q).tobytes() == np.float64(_old_q_form_sq(cov.sigma, one)).tobytes()
    assert dyn._norm_sq is sp.weighted_norm_sq
