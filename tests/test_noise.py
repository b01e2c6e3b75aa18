import numpy as np
import pytest
from numpy.random import Generator, Philox

from navsto import noise as ns
from navsto import spectral as sp
from navsto.nonlinearity import map_tiles


@pytest.fixture(scope="module")
def cov4():
    return ns.build_covariance(0.25, 1.0, 4)


class TestBuildCovariance:
    def test_low_alpha0_guarded(self):
        with pytest.raises(ns.DegenerateNoiseError):
            ns.build_covariance(1.0 / 6.0, 1.0, 3)

    def test_amplitude_example(self, cov4):
        i = cov4.table.index_of((1, 0, 0))
        assert cov4.sigma[i] == pytest.approx((4 * np.pi**2) ** -1.0, rel=1e-14)
        assert cov4.sigma[i] == pytest.approx(0.025330, rel=1e-4)

    def test_sign_symmetry(self, cov4):
        # sigma is a function of |k| only; -k reuses the stored row
        i = cov4.table.index_of((1, -2, 0))
        j = cov4.table.index_of((-1, 2, 0))
        assert i == j

    def test_trace_monotone_with_shrinking_increment(self):
        t4, t8, t16 = (ns.build_covariance(0.25, 1.0, n).sigma_sq_total for n in (4, 8, 16))
        assert t4 < t8 < t16
        assert (t16 - t8) < (t8 - t4)

    def test_trace_counts_full_eigenbasis(self, cov4):
        # two polarizations times two real phases per stored wavevector
        assert cov4.sigma_sq_total == pytest.approx(4 * (cov4.sigma**2).sum(), rel=1e-15)

    def test_positive_q0_required(self):
        with pytest.raises(ValueError):
            ns.build_covariance(0.25, 0.0, 3)


class TestWienerIncrements:
    def test_zero_dt(self, cov4):
        f = ns.wiener_block(cov4, 0.0, seed=1, path_ids=[0], step=0)[0]
        assert np.abs(f).max() == 0.0

    def test_bitwise_reproducible(self, cov4):
        a = ns.wiener_block(cov4, 0.1, seed=5, path_ids=[3], step=7)
        b = ns.wiener_block(cov4, 0.1, seed=5, path_ids=[3], step=7)
        assert np.array_equal(a, b)
        c = ns.wiener_block(cov4, 0.1, seed=5, path_ids=[3], step=8)
        assert not np.array_equal(a, c)

    def test_block_matches_isolated_regeneration(self, cov4):
        block = ns.wiener_block(cov4, 0.05, seed=9, path_ids=[0, 1, 2], step=4)
        solo = ns.wiener_block(cov4, 0.05, seed=9, path_ids=[1], step=4)
        assert np.array_equal(block[1], solo[0])

    def test_incompressible(self, cov4):
        f = ns.wiener_block(cov4, 0.3, seed=2, path_ids=[0], step=0)[0]
        assert sp.divergence_residual(sp.SpectralField(4, f)) <= 1e-12

    def test_single_mode_variance_mc(self, cov4):
        dt, M = 0.2, 100_000
        i = cov4.table.index_of((1, 0, 0))
        rng_samples = np.empty(M)
        block = ns._mode_gaussians(cov4, cov4.sigma * np.sqrt(dt), 77,
                                   np.arange(M), 0, ns.KIND_WIENER)
        vals = np.abs(block[:, i, 0]) ** 2
        target = cov4.sigma[i] ** 2 * dt
        se = vals.std(ddof=1) / np.sqrt(M)
        assert abs(vals.mean() - target) <= 4 * se

    def test_trace_identity_mc(self, cov4):
        dt, M = 0.1, 2000
        tot = 0.0
        for p in range(M):
            blk = ns.wiener_block(cov4, dt, seed=11, path_ids=[p], step=0)
            tot += sp.sobolev_norm_sq(blk[0], cov4.table.lam, 0.0)
        est = tot / M / dt
        # |Q^(1/2) dW|_H^2 averages to the full trace
        assert est == pytest.approx(cov4.sigma_sq_total, rel=0.05)


class TestOUIncrements:
    def test_small_dt_limit(self, cov4):
        lam = cov4.table.lam
        dt = 1e-4 / lam.max()
        v = ns.ou_variance(cov4, dt)
        assert np.allclose(v, cov4.sigma**2 * dt, rtol=1e-6)

    def test_stationary_variance_mc(self):
        cov = ns.build_covariance(0.25, 1.0, 1)
        i = cov.table.index_of((1, 0, 0))
        lam = cov.table.lam[i]
        decay = ns.ou_decay(cov, 0.05)[i]
        M, steps = 4000, 200  # 200 * 0.05 * lam >> 1: fully relaxed
        z = np.zeros(M, dtype=np.complex128)
        for s in range(steps):
            g = ns.ou_block(cov, 0.05, seed=13, path_ids=np.arange(M), step=s)
            # track one polarization coefficient directly
            c = np.einsum("pj,j->p", g[:, i, :], cov.table.pol[i, 0])
            z = decay * z + c
        vals = np.abs(z) ** 2
        target = cov.sigma[i] ** 2 / (2 * lam)
        se = vals.std(ddof=1) / np.sqrt(M)
        assert abs(vals.mean() - target) <= 4 * se

    def test_zero_amplitude_deterministic(self, cov4):
        g = ns.ou_block(cov4, 0.1, seed=1, path_ids=[0], step=0, amplitude=0.0)
        assert np.abs(g).max() == 0.0

    def test_decay_and_variance_shapes(self, cov4):
        decay = ns.ou_decay(cov4, 0.01)
        field = sp.SpectralField(cov4.n, ns.ou_block(cov4, 0.01, seed=3, path_ids=[0], step=0)[0])
        assert decay.shape == (cov4.table.n_modes,)
        assert np.all((0 < decay) & (decay < 1))
        assert sp.divergence_residual(field) <= 1e-12


def signbits(z):
    return np.signbit(z.real) | np.signbit(z.imag)


def frozen_noise(cov, scale, seed, path_ids, step, kind):
    """The einsum formula the noise block reproduces: (c, assembled) per path."""
    K = cov.table.n_modes
    g = np.empty((len(path_ids), K, 2, 2))
    for i, p in enumerate(path_ids):
        g[i] = ns.path_generator(seed, int(p), step, kind).standard_normal((K, 2, 2))
    c = (g[..., 0] + 1j * g[..., 1]) * (scale / np.sqrt(2.0))[None, :, None]
    return c, np.einsum("pka,kaj->pkj", c, cov.table.pol)


class TestNoiseBlockBytes:
    """Draws and assembly of a batch return the bytes of the einsum formula."""

    DT, SEED, STEP = 2e-3, 31, 5

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_matches_frozen_formula(self, n, fft_workers, fine_thread_switching):
        cov = ns.build_covariance(0.75, 30.0, n)
        tab = cov.table
        ids = np.arange(37)[::-1] + 7   # out of order
        ou_scale = np.sqrt(ns.ou_variance(cov, self.DT))
        cases = [  # (call, scale, kind)
            (lambda: ns.ou_block(cov, self.DT, self.SEED, ids, self.STEP, amplitude=1.5),
             1.5 * ou_scale, ns.KIND_OU),
            (lambda: ns.ou_block(cov, self.DT, self.SEED, ids, self.STEP, amplitude=0.0),
             0.0 * ou_scale, ns.KIND_OU),
            (lambda: ns.wiener_block(cov, self.DT, self.SEED, ids, self.STEP),
             cov.sigma * np.sqrt(self.DT), ns.KIND_WIENER),
        ]
        expect = [frozen_noise(cov, scale, self.SEED, ids, self.STEP, kind)
                  for _, scale, kind in cases]
        # both polarizations vanish on some components (k along an axis); the
        # real sum c_0 p_0 + c_1 p_1 alone would leave -0 on some of them
        both_zero = (tab.pol[:, 0, :] == 0) & (tab.pol[:, 1, :] == 0)
        assert both_zero.any()
        c = expect[0][0]
        bare = c[..., 0, None] * tab.pol[None, :, 0, :] + c[..., 1, None] * tab.pol[None, :, 1, :]
        assert signbits(bare[:, both_zero]).any()

        for workers in (-1, 1, 5):   # all cores, serial, more threads than cores
            fft_workers(workers)
            for (call, scale, kind), (c, field) in zip(cases, expect):
                got = call()
                assert got.dtype == field.dtype and got.shape == field.shape
                assert got.tobytes() == field.tobytes()
                assert not signbits(got[:, both_zero]).any()
            draws = ns._mode_gaussians(cov, cases[0][1], self.SEED, ids, self.STEP,
                                       ns.KIND_OU)
            assert draws.shape == expect[0][0].shape
            assert draws.tobytes() == expect[0][0].tobytes()


def fresh_generator(seed, path_id, step, kind):
    counter = np.array([0, 0, kind, step], dtype=np.uint64)
    key = np.array([seed, path_id], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key))


class TestPathGenerator:
    """The per-thread generator, reset per (path, step), draws what a fresh one does."""

    SEED = 2**63 + 17

    @staticmethod
    def sample(g):
        # three 32-bit draws leave half of a 64-bit word behind for the next call
        return g.random(3, dtype=np.float32).tobytes() + g.standard_normal(7).tobytes()

    def draw(self, path_id, step, kind):
        return self.sample(ns.path_generator(self.SEED, path_id, step, kind))

    def test_out_of_order_draws_match_fresh_generators(self, fft_workers):
        rng = np.random.default_rng(8)
        keys = [(int(p), int(s), int(k)) for p, s, k in
                zip(rng.integers(0, 2**40, 300), rng.integers(0, 50, 300),
                    rng.integers(1, 3, 300))]
        keys += keys[::-1]   # each (path, step) again, after others
        want = [self.sample(fresh_generator(self.SEED, *key)) for key in keys]

        got = [self.draw(*key) for key in keys]
        assert got == want

        got = [None] * len(keys)

        def run(lo):
            for i in range(lo, min(lo + 7, len(keys))):
                got[i] = self.draw(*keys[i])

        fft_workers(2)
        map_tiles(run, len(keys), 7)
        assert got == want


class TestQPowers:
    def test_single_mode_q_form(self, cov4):
        tab = cov4.table
        i = tab.index_of((1, 0, 0))
        phi = sp.SpectralField.zero(4)
        # unit H-norm mode: |phi|_H^2 = 2 |phi_k|^2 = 1
        phi.coeffs[i] = tab.pol[i, 0] / np.sqrt(2.0)
        assert ns.q_form_sq(cov4, phi.coeffs) == pytest.approx(
            cov4.sigma[i] ** 2, rel=1e-14)

    def test_matches_stokes_power_composition(self, cov4):
        # Q^(1/2) = q0 A^(-3/4-alpha0): sigma_k = q0 lam_k^(-3/4-alpha0) on every mode
        want = [cov4.q0 * sp.stokes_eigenvalue(k) ** (-0.75 - cov4.alpha0)
                for k in cov4.table.kvec]
        assert cov4.sigma == pytest.approx(want, rel=1e-14)


def test_covariance_csv_dump(tmp_path, cov4):
    p = tmp_path / "cov.csv"
    ns.dump_covariance_csv(cov4, p)
    lines = p.read_text().splitlines()
    assert lines[0] == "k1,k2,k3,pol,sigma"
    assert len(lines) == 1 + 2 * cov4.table.n_modes
