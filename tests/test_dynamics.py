import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from navsto import dynamics as dyn
from navsto import noise as ns
from navsto import nonlinearity as nl
from navsto import spectral as sp
from navsto import verifier as vf


def cfg_small(**kw):
    base = dict(n=2, dt=1e-4, t_end=1e-3, scheme="em", mode="full",
                alpha0=0.75, q0=1.0, seed=1)
    base.update(kw)
    return dyn.SimConfig(**base)


def single_mode_field(n, k, vec):
    f = sp.SpectralField.zero(n)
    f.set(k, np.asarray(vec, dtype=complex))
    return f


def stokes_z(cfg, path_id=0):
    """The advection-off path driven by the noise of (cfg.seed, path_id)."""
    return dyn.run_ensemble(replace(cfg, mode="stokes"), [path_id], keep_series=True).path(0)


def tangent(cfg, x, h, path_id=0):
    """Final tangent Du h of one path started at x (None: the zero field)."""
    x = np.zeros_like(h.coeffs) if x is None else x.coeffs
    return dyn._tangent_chunk(cfg, x, h.coeffs, np.array([path_id]))[1][0]


class TestChiR:
    def test_plateau_values(self):
        assert dyn.chi_r(4.0, 3.0) == 1.0   # R + 1
        assert dyn.chi_r(5.0, 3.0) == 0.0   # R + 2
        assert dyn.chi_r(0.0, 3.0) == 1.0

    def test_monotone_and_slope(self):
        xs = np.linspace(0.0, 6.0, 240001)
        vals = dyn.chi_r(xs, 3.0)
        assert np.all(np.diff(vals) <= 1e-12)
        slopes = np.diff(vals) / np.diff(xs)
        assert np.abs(slopes).max() == pytest.approx(1.5, abs=1e-3)

    def test_prime_matches_difference_quotient(self):
        xs = np.linspace(4.01, 4.99, 57)
        h = 1e-7
        num = (dyn.chi_r(xs + h, 3.0) - dyn.chi_r(xs - h, 3.0)) / (2 * h)
        assert np.allclose(dyn.chi_r_prime(xs, 3.0), num, atol=1e-5)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            dyn.chi_r(0.5, 0.5)


class TestConfigGuards:
    def test_em_stability_guard(self):
        with pytest.raises(ValueError, match="unstable"):
            dyn.SimConfig(n=6, dt=1e-3, t_end=0.01, scheme="em", mode="full")

    def test_cutoff_needs_level(self):
        with pytest.raises(ValueError):
            dyn.SimConfig(n=2, dt=1e-4, t_end=1e-3, mode="cutoff")

    def test_grid_multiple(self):
        with pytest.raises(ValueError):
            dyn.SimConfig(n=2, dt=3e-4, t_end=1e-3).n_steps


class TestStep:
    def test_zero_fixed_point(self):
        rec = dyn.run_ensemble(cfg_small(mode="deterministic"), [0], keep_series=True).path(0)
        assert np.abs(rec.series).max() == 0.0
        assert rec.tau_r(5.0) == np.inf

    def test_em_linear_decay(self):
        cfg = cfg_small(mode="deterministic")
        x0 = single_mode_field(2, (1, 0, 0), [0, 0.5 + 0.1j, -0.2j])
        rec = dyn.run_ensemble(cfg, [0], x0=x0.coeffs, keep_series=True).path(0)
        lam = sp.stokes_eigenvalue((1, 0, 0))
        expected = x0.get((1, 0, 0)) * (1 - lam * cfg.dt) ** cfg.n_steps
        got = sp.SpectralField(2, rec.series[-1]).get((1, 0, 0))
        assert np.allclose(got, expected, rtol=1e-13)

    def test_expo_linear_decay_exact(self):
        cfg = cfg_small(mode="deterministic", scheme="expo-em")
        x0 = single_mode_field(2, (1, 0, 0), [0, 0.5, 0.25])
        rec = dyn.run_ensemble(cfg, [0], x0=x0.coeffs, keep_series=True).path(0)
        lam = sp.stokes_eigenvalue((1, 0, 0))
        got = sp.SpectralField(2, rec.series[-1]).get((1, 0, 0))
        assert np.allclose(got, x0.get((1, 0, 0)) * np.exp(-lam * cfg.t_end), rtol=1e-13)

    def test_cutoff_matches_full_below_level(self):
        cfg = dyn.SimConfig(n=3, dt=5e-5, t_end=1e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=5.0, seed=3)
        out = dyn.paired_full_cutoff(cfg, np.arange(4), R=1e9)
        assert out["crossings"] == 0
        assert out["mismatch_steps"].sum() == 0
        assert out["max_discrepancy"] == 0.0


class TestEnergyFunctionals:
    def test_e1_zero_at_origin(self):
        rec = dyn.simulate_path(cfg_small(q0=5.0, seed=4))
        assert rec.energy_series(1)[0] == 0.0

    def test_deterministic_e1_strictly_decreasing(self):
        # noise off but sigma^2 kept in the bookkeeping: the -t sigma^2 slope
        # dominates once the O(dt^2) scheme residual is small
        cfg = cfg_small(mode="deterministic", q0=5.0, dt=1e-5, t_end=5e-4)
        x0 = single_mode_field(2, (1, 0, 0), [0, 0.01, 0.005])
        rec = dyn.run_ensemble(cfg, [0], x0=x0.coeffs).path(0)
        e1 = rec.energy_series(1)
        assert np.all(np.diff(e1) < 0)

    def test_discrete_energy_identity(self):
        # |Delta|u|^2 + 2 nu dt |u|_V^2| <= C dt^2 per step, B on, noise off
        cfg = dyn.SimConfig(n=3, dt=5e-5, t_end=2e-3, scheme="em",
                            mode="deterministic", alpha0=0.75, q0=1.0, seed=5)
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.3), seed=6)
        rec = dyn.run_ensemble(cfg, [0], x0=x0.coeffs).path(0)
        resid = np.abs(np.diff(rec.h2) + 2 * cfg.nu * cfg.dt * rec.v2[:-1])
        drift_scale = (rec.v2[:-1] * sp.mode_table(3).lam.max()).max()
        assert resid.max() <= 2.0 * cfg.dt**2 * drift_scale

    def test_richardson_pilot_order_one(self):
        cfg = dyn.SimConfig(n=3, dt=2e-4, t_end=4e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=20.0, seed=7)
        coarse, fine = dyn.coupled_bias_pilot(cfg, np.arange(64))
        d1 = coarse.energy_series(1)[:, -1] - fine.energy_series(1)[:, -1]
        cfg2 = dyn.SimConfig(n=3, dt=1e-4, t_end=4e-3, scheme="em", mode="full",
                             alpha0=0.75, q0=20.0, seed=7)
        coarse2, fine2 = dyn.coupled_bias_pilot(cfg2, np.arange(64))
        d2 = coarse2.energy_series(1)[:, -1] - fine2.energy_series(1)[:, -1]
        m1, m2 = d1.mean(), d2.mean()
        se = np.hypot(d1.std(ddof=1), d2.std(ddof=1)) / np.sqrt(64)
        # halving dt should halve the coupled defect (weak order one)
        assert abs(m2 - 0.5 * m1) <= 4 * se + 0.1 * abs(m1)


class TestStokesAndAuxiliary:
    def test_zero_noise_z_is_zero(self):
        cfg = cfg_small(noise_amplitude=0.0)
        rec = stokes_z(cfg)
        assert np.abs(rec.series).max() == 0.0

    def test_z_mean_zero_ensemble(self):
        cfg = dyn.SimConfig(n=2, dt=1e-3, t_end=0.02, scheme="expo-em", mode="stokes",
                            alpha0=0.25, q0=1.0, seed=8)
        rec = dyn.run_ensemble(cfg, np.arange(3000), keep_final=True)
        tab = sp.mode_table(2)
        i = tab.index_of((1, 0, 0))
        vals = rec.final[:, i, :].real
        se = vals.std(ddof=1) / np.sqrt(vals.shape[0])
        assert np.abs(vals.mean(axis=0)).max() <= 4 * se

    def test_z_variance_matches_ou_formula(self):
        cfg = dyn.SimConfig(n=1, dt=1e-3, t_end=0.05, scheme="expo-em", mode="stokes",
                            alpha0=0.25, q0=1.0, seed=9)
        cov = cfg.covariance()
        rec = dyn.run_ensemble(cfg, np.arange(4000), keep_final=True)
        tab = sp.mode_table(1)
        i = tab.index_of((1, 0, 0))
        lam = tab.lam[i]
        vals = (np.abs(rec.final[:, i, :]) ** 2).sum(axis=1)
        # complex 3-vector collects both polarizations
        target = 2 * cov.sigma[i] ** 2 * (1 - np.exp(-2 * lam * cfg.t_end)) / (2 * lam)
        se = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 4 * se


class TestLinearizedFlow:
    """The tangent that _tangent_chunk co-integrates with each path."""

    def test_zero_direction(self):
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=1e-3, scheme="em", mode="cutoff",
                            r=10.0, alpha0=0.75, q0=5.0, seed=14)
        du = tangent(cfg, None, sp.SpectralField.zero(3))
        assert np.abs(du).max() == 0.0

    def test_linear_part_exact_decay(self):
        cfg = dyn.SimConfig(n=2, dt=1e-4, t_end=1e-3, scheme="expo-em", mode="stokes",
                            alpha0=0.75, q0=1.0, seed=15)
        h = single_mode_field(2, (1, 0, 0), [0, 1.0, 0.0])
        du = tangent(cfg, None, h)
        lam = sp.stokes_eigenvalue((1, 0, 0))
        got = sp.SpectralField(2, du).get((1, 0, 0))
        assert np.allclose(got, np.exp(-lam * cfg.t_end) * np.array([0, 1.0, 0]),
                           rtol=1e-12)

    def test_linearity_in_direction(self):
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=1e-3, scheme="em", mode="cutoff",
                            r=10.0, alpha0=0.75, q0=5.0, seed=16)
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.1), seed=17)
        h1 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 1.0), seed=18)
        h2 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 1.0), seed=19)
        d1 = tangent(cfg, x0, h1)
        d2 = tangent(cfg, x0, h2)
        d12 = tangent(cfg, x0, h1 + h2)
        assert np.abs(d12 - (d1 + d2)).max() <= 1e-10 * max(np.abs(d12).max(), 1e-30)

    def test_matches_finite_difference_with_common_noise(self):
        n = 4
        cfg = dyn.SimConfig(n=n, dt=2e-4, t_end=4e-3, scheme="em", mode="cutoff",
                            r=50.0, alpha0=0.75, q0=10.0, seed=20)
        x0 = sp.random_divfree_field(n, sp.powerlaw_profile(3.0, 0.5), seed=21)
        h = sp.random_divfree_field(n, sp.powerlaw_profile(3.0, 1.0), seed=22)
        du = tangent(cfg, x0, h)
        eps = 1e-5
        up = dyn.run_ensemble(cfg, [0], x0=x0.coeffs + eps * h.coeffs, keep_series=True).path(0)
        um = dyn.run_ensemble(cfg, [0], x0=x0.coeffs - eps * h.coeffs, keep_series=True).path(0)
        fd = (up.series - um.series) / (2 * eps)
        rel = np.abs(du - fd[-1]).max() / np.abs(fd[-1]).max()
        assert rel <= 1e-3

    def test_cutoff_band_term_active(self):
        # x starts far above the chi band, so chi = 0 until the viscous decay
        # carries |u|_W^2 into [R+1, R+2] at step 2 on some paths; there the
        # chi' term is a large part of the step's derivative (dropping it
        # misses the finite difference by up to 2e-1)
        n, R = 4, 170.0
        cfg = dyn.SimConfig(n=n, dt=1e-3, t_end=4e-3, scheme="expo-em", mode="cutoff",
                            r=R, alpha0=0.25, q0=30.0, seed=7)
        x = sp.random_divfree_field(n, sp.powerlaw_profile(3.0), seed=101)
        x = x * np.sqrt(282.8 / float(sp.sobolev_norm_sq(x.coeffs, x.table.lam, sp.theta(0.25))))
        h = sp.random_divfree_field(n, sp.powerlaw_profile(3.0, 0.5), seed=201)
        ids = np.arange(16)
        rec = dyn.run_ensemble(cfg, ids, x0=x.coeffs)
        band = dyn.chi_r_prime(rec.w2[:, :-1], R) != 0.0
        assert not band[:, 0].any() and band[:, 1:].any()   # chi' fires mid-path
        _, du, _ = dyn._tangent_chunk(cfg, x.coeffs, h.coeffs, ids)
        eps = 1e-6
        up = dyn.run_ensemble(cfg, ids, x0=x.coeffs + eps * h.coeffs).final
        um = dyn.run_ensemble(cfg, ids, x0=x.coeffs - eps * h.coeffs).final
        fd = (up - um) / (2 * eps)
        rel = np.abs(du - fd).max(axis=(1, 2)) / np.abs(fd).max(axis=(1, 2))
        assert (rel <= 1e-6).all(), rel


class TestStoppingTime:
    def test_never_reached(self):
        times = np.arange(5) * 0.1
        w2 = np.array([[0.1, 0.2, 0.3, 0.2, 0.1]])
        assert dyn.stopping_time_tau_r_series(w2, times, 1.0)[0] == np.inf

    def test_initial_exceedance(self):
        times = np.arange(3) * 0.1
        w2 = np.array([[2.0, 0.1, 0.1]])
        assert dyn.stopping_time_tau_r_series(w2, times, 1.0)[0] == 0.0

    def test_ramp_detected_at_later_grid_point(self):
        # true crossing of R=1 happens between t=0.1 and t=0.2
        times = np.arange(4) * 0.1
        w2 = np.array([[0.0, 0.9, 1.3, 2.0]])
        assert dyn.stopping_time_tau_r_series(w2, times, 1.0)[0] == pytest.approx(0.2)


class TestControl:
    def _cfg(self, n=4, dt=2e-4, T=0.02):
        return dyn.SimConfig(n=n, dt=dt, t_end=T, scheme="em", mode="cutoff",
                             r=60.0, alpha0=0.75, q0=1.0, seed=30)

    def _fields(self, n=4):
        x = sp.random_divfree_field(n, sp.powerlaw_profile(4.0, 0.02), seed=31)
        y = sp.random_divfree_field(n, sp.powerlaw_profile(4.0, 0.01), seed=32)
        return x, y

    def test_endpoint_by_construction(self):
        cfg = self._cfg()
        x, y = self._fields()
        w_inc, designed, info = dyn.build_control(x, y, cfg.t_end, 60.0, cfg)
        assert np.array_equal(designed[-1], y.coeffs)
        assert info["sup_w2"] <= 60.0

    def test_replay_through_solver(self):
        cfg = self._cfg()
        x, y = self._fields()
        w_inc, designed, info = dyn.build_control(x, y, cfg.t_end, 60.0, cfg)
        rec = dyn.solve_controlled(x, w_inc, 60.0, cfg)
        w_w = sp.mode_table(4).lam ** (2 * sp.theta(cfg.alpha0))
        err = np.sqrt(2 * ((np.abs(rec.series[-1] - y.coeffs) ** 2).sum(-1) * w_w).sum())
        assert err <= 1e-8

    def test_identity_steering_trivial(self):
        cfg = self._cfg()
        x, _ = self._fields()
        w_inc, designed, info = dyn.build_control(x, x, cfg.t_end, 60.0, cfg)
        # interpolation leg is constant once the free drift hands over
        i0 = int(round(info["t_star"] / cfg.dt))
        mid = designed[i0]
        lin = np.abs(designed[i0:] - ((designed[i0:] * 0) + np.linspace(1, 0, designed[i0:].shape[0])[:, None, None] * mid
                                      + np.linspace(0, 1, designed[i0:].shape[0])[:, None, None] * x.coeffs))
        assert lin.max() <= 1e-12 * max(np.abs(designed).max(), 1e-30)

    def test_zero_control_zero_state(self):
        cfg = self._cfg()
        w_inc = np.zeros((cfg.n_steps, sp.mode_table(4).n_modes, 3), dtype=complex)
        rec = dyn.solve_controlled(sp.SpectralField.zero(4), w_inc, 60.0, cfg)
        assert np.abs(rec.series).max() == 0.0

    def test_perturbed_control_continuity(self):
        cfg = self._cfg()
        x, y = self._fields()
        w_inc, _, _ = dyn.build_control(x, y, cfg.t_end, 60.0, cfg)
        delta = sp.random_divfree_field(4, sp.powerlaw_profile(4.0, 1.0), seed=33)
        base = dyn.solve_controlled(x, w_inc, 60.0, cfg)
        errs = []
        for scale in (1e-3, 5e-4, 2.5e-4):
            pert = w_inc.copy()
            pert[cfg.n_steps // 2] = pert[cfg.n_steps // 2] + scale * delta.coeffs
            rec = dyn.solve_controlled(x, pert, 60.0, cfg)
            errs.append(np.abs(rec.series[-1] - base.series[-1]).max())
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= errs[0] / 2

    def test_precondition_guard(self):
        cfg = self._cfg()
        big = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 5.0), seed=34)
        with pytest.raises(dyn.ControlError):
            dyn.build_control(big, big, cfg.t_end, 60.0, cfg)

    @pytest.mark.parametrize("which", ["x", "y"])
    def test_nonfinite_end_point_is_rejected(self, which):
        # a NaN compares False with every bound, so a guard written as
        # w2 > bound would let it through to a NaN control
        cfg = self._cfg()
        x, y = self._fields()
        bad = sp.SpectralField(4, (x if which == "x" else y).coeffs.copy())
        bad.coeffs[3, 1] = np.nan
        ends = (bad, y) if which == "x" else (x, bad)
        with pytest.raises(dyn.ControlError, match=f"\\|{which}\\|_W"):
            dyn.build_control(*ends, cfg.t_end, 60.0, cfg)


    @pytest.mark.parametrize("nu, exit_step", [(0.01, 80), (0.001, 78)])
    def test_free_leg_hands_over_halfway_to_the_ball_exit(self, nu, exit_step):
        # from |x|_W^2 = 0.4995 R the free drift leaves the W-ball at step
        # exit_step + 1, before S // 2 = 100; the leg keeps half the steps inside
        R = 1e9
        cfg = dyn.SimConfig(n=4, dt=1e-5, t_end=2e-3, scheme="em", mode="cutoff", r=R,
                            alpha0=0.25, nu=nu, q0=1.0, seed=0)
        x = sp.random_divfree_field(4, sp.powerlaw_profile(1.0), 0)
        x = x * np.sqrt(0.4995 * R / sp.sobolev_norm_sq(x.coeffs, x.table.lam, sp.theta(0.25)))
        _, y = self._fields()
        _, designed, info = dyn.build_control(x, y, cfg.t_end, R, cfg)
        free = [x]
        for _ in range(exit_step + 1):
            free.append(dyn.step(free[-1], cfg))
        w2 = [sp.sobolev_norm_sq(u.coeffs, u.table.lam, sp.theta(0.25)) for u in free]
        assert max(w2[:-1]) <= R < w2[-1]
        t_star = exit_step // 2
        assert round(info["t_star"] / cfg.dt) == t_star
        assert np.array_equal(designed[:t_star + 1], [u.coeffs for u in free[:t_star + 1]])

class TestEnsembleMachinery:
    def test_worker_count_invariance(self, fft_workers):
        # 1 and 2 tile threads give the same bytes, and every field of the
        # record is the concatenation of separate runs on ragged slices
        cfg = dyn.SimConfig(n=3, dt=2e-4, t_end=2e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=10.0, seed=40)
        phis = [vf.TestFunction.build(single_mode_field(3, (1, 0, 0), [0, 1.0, 0]),
                                      cfg.covariance(), "phi1")]
        ids = np.arange(2005)
        runs = []
        for threads in (1, 2):
            fft_workers(threads)
            runs.append(dyn.run_ensemble(cfg, ids, phis=phis))
        r1, r2 = runs
        assert np.array_equal(r1.final, r2.final)
        assert np.array_equal(r1.h2, r2.h2)
        parts = [record_rows(dyn.run_ensemble(cfg, part, phis=phis))
                 for part in np.split(ids, [1, 997, 1000, 1999])]
        for key, a in record_rows(r2).items():
            assert a.tobytes() == np.concatenate([p[key] for p in parts]).tobytes(), key

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blowup_census(self):
        # absurd initial amplitude blows up the explicit advection term
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=2e-3, scheme="expo-em",
                            mode="deterministic", alpha0=0.75, q0=1.0, seed=41)
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(1.0, 1e150), seed=42)
        rec = dyn.run_ensemble(cfg, np.arange(3), x0=x0.coeffs)
        assert rec.blown.all()
        assert (rec.blow_step > 0).all()

    def test_one_path_record_is_a_row_of_the_ensemble(self):
        cfg = dyn.SimConfig(n=3, dt=2e-4, t_end=2e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=10.0, seed=43, n_max=3)
        rec = dyn.run_ensemble(cfg, np.arange(5), keep_series=True)
        one = rec.path(3)
        R = float(np.median(rec.w2))
        for n in (1, 2, 3):
            assert one.energy_series(n).tobytes() == rec.energy_series(n)[3].tobytes()
        assert one.tau_r(R) == rec.tau_r(R)[3]
        single = dyn.run_ensemble(cfg, [3], keep_series=True).path(0)
        assert single.series.tobytes() == one.series.tobytes()
        assert single.h2.tobytes() == rec.h2[3].tobytes()

    def test_export_csv_row_count(self, tmp_path):
        cfg = cfg_small(q0=5.0, snapshot_stride=2)
        rec = dyn.simulate_path(cfg)
        p = tmp_path / "path.csv"
        dyn.export_path_csv(rec, p, stride=2)
        rows = p.read_text().splitlines()
        assert len(rows) - 1 == cfg.n_steps // 2 + 1


def test_mphi_increment_is_the_noise_pairing_in_cutoff_mode():
    # the em cut-off step is u - dt (nu A u + chi B(u, u)) + g, so with chi's
    # B in the drift each M^phi increment is <g, phi> to roundoff; a drift
    # with the full B leaves dt (1 - chi) <B, phi> in it
    cfg = dyn.SimConfig(n=4, dt=2e-4, t_end=2e-3, scheme="em", mode="cutoff", r=39.0,
                        alpha0=0.25, q0=5.0, seed=170)
    x = sp.random_divfree_field(4, sp.powerlaw_profile(2.0), seed=171).coeffs
    x *= np.sqrt(40.5 / sp.sobolev_norm_sq(x, sp.mode_table(4).lam, sp.theta(0.25)))
    phis = [vf.TestFunction.build(f, cfg.covariance(), f"phi{i}") for i, f in enumerate(
        (single_mode_field(4, (1, 0, 0), [0, 1.0, 0.5j]),
         sp.random_divfree_field(4, sp.powerlaw_profile(2.0), seed=172)))]
    ids = np.arange(6)
    rec = dyn.run_ensemble(cfg, ids, x0=x, phis=phis, noise=dyn._noise_block)
    assert (dyn.chi_r(rec.w2[:, :-1], cfg.r) < 1.0).any()
    g = np.stack([dyn._noise_block(cfg, cfg.covariance(), ids, s) for s in range(cfg.n_steps)],
                 axis=1)
    for j, phi in enumerate(phis):
        inc = np.diff(rec.mphi[j], axis=1)
        scale = np.abs(np.diff(rec.proj_phi[j], axis=1)).max()
        assert np.abs(inc - sp.pair_with(g, phi.coeffs)).max() <= 1e-12 * scale, phi.name


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_path_raises_typed_blowup():
    # strong noise at low viscosity blows path 0 up within the horizon
    cfg = dyn.SimConfig(n=3, dt=1e-3, t_end=0.02, nu=0.01, scheme="expo-em", q0=1e9)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dyn.BlowupError) as exc:
            dyn.simulate_path(cfg)
    assert exc.value.step > 0
    assert exc.value.partial_record.blown


@pytest.mark.parametrize("mode", ["full", "cutoff", "stokes", "deterministic"])
@pytest.mark.parametrize("scheme", ["em", "expo-em"])
def test_public_step_matches_engine(scheme, mode):
    x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.2), seed=61)
    w2 = float(sp.sobolev_norm_sq(x0.coeffs, x0.table.lam, sp.theta(0.75)))
    r = max(w2 - 1.5, 1.0) if mode == "cutoff" else None
    cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=1e-4, scheme=scheme, mode=mode, r=r,
                        alpha0=0.75, q0=10.0, seed=60)
    if mode == "cutoff":
        assert dyn.chi_r(w2, r) < 1.0
    cov = cfg.covariance()
    if scheme == "em":
        g = ns.wiener_block(cov, cfg.dt, cfg.seed, [0], 0)
    else:
        g = ns.ou_block(cov, cfg.dt, cfg.seed, [0], 0, cfg.nu)
    u1 = dyn.step(x0, cfg, sp.SpectralField(3, g[0]))
    rec = dyn.run_ensemble(cfg, [0], x0=x0.coeffs, keep_final=True)
    assert u1.coeffs.tobytes() == rec.final[0].tobytes()


@pytest.mark.parametrize("mode", ["full", "cutoff"])
@pytest.mark.parametrize("scheme", ["em", "expo-em"])
def test_restart_with_shifted_noise_continues_bitwise(scheme, mode):
    # the Markov cocycle of the truncated system: the path from x over S
    # steps is the path from its state u_s over S - s steps, driven by the
    # noise shifted by s steps
    dt, S = (5e-4 if scheme == "em" else 1e-3), 8
    cfg = dyn.SimConfig(n=4, dt=dt, t_end=S * dt, scheme=scheme, mode=mode,
                        r=12.0 if mode == "cutoff" else None, alpha0=0.25, q0=30.0, seed=140)
    ids = np.arange(60)
    rec = dyn.run_ensemble(cfg, ids, keep_series=True)
    if mode == "cutoff":   # the cut-off acts on some path-steps and not on others
        chi = dyn.chi_r(rec.w2[:, :-1], cfg.r)
        assert (chi < 1.0).any() and (chi == 1.0).any()
    for s in (1, 4, 7):
        def shifted(c, cov, p, k, s=s):
            return dyn._noise_block(c, cov, p, k + s)

        rest = dyn.run_ensemble(replace(cfg, t_end=(S - s) * dt), ids, x0=rec.series[:, s],
                                noise=shifted)
        assert rest.final.tobytes() == rec.final.tobytes(), s
        assert rest.w2.tobytes() == rec.w2[:, s:].tobytes(), s


def test_step_zero_state_zero_noise():
    cfg = dyn.SimConfig(n=2, dt=1e-4, t_end=1e-4, scheme="em", mode="full",
                        alpha0=0.75, q0=1.0, seed=62)
    out = dyn.step(sp.SpectralField.zero(2), cfg, None)
    assert np.abs(out.coeffs).max() == 0.0


@pytest.mark.parametrize("mode", ["full", "cutoff"])
@pytest.mark.parametrize("scheme", ["em", "expo-em"])
def test_tangent_ensemble_state_is_engine_state(scheme, mode):
    # the state half of the tangent ensemble is the engine's path, bit for bit
    n, w2x = 3, 12.0
    x = sp.random_divfree_field(n, sp.powerlaw_profile(2.0), seed=77)
    x = x * np.sqrt(w2x / float(sp.sobolev_norm_sq(x.coeffs, x.table.lam, sp.theta(0.25))))
    r = w2x - 1.5 if mode == "cutoff" else None   # x starts mid-band, so chi' fires
    cfg = dyn.SimConfig(n=n, dt=2e-4, t_end=2e-3, scheme=scheme, mode=mode, r=r,
                        alpha0=0.25, q0=5.0, seed=77)
    if mode == "cutoff":
        assert dyn.chi_r_prime(w2x, r) != 0.0
    h = sp.random_divfree_field(n, sp.powerlaw_profile(3.0), seed=78)
    ids = np.arange(20)
    out = dyn.run_tangent_ensemble(cfg, x.coeffs, h.coeffs, ids)
    rec = dyn.run_ensemble(cfg, ids, x0=x.coeffs)
    assert out["final"].tobytes() == rec.final.tobytes()


@pytest.mark.parametrize("scheme", ["em", "expo-em"])
def test_paired_run_is_two_engine_runs(scheme):
    # the weak-strong pair steps both members exactly as run_ensemble does
    cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.01, scheme=scheme, mode="full",
                        alpha0=0.75, q0=60.0, seed=79)
    ids, R = np.arange(12), 20.0
    res = dyn.paired_full_cutoff(cfg, ids, R=R)
    assert res["crossings"] > 0
    full = dyn.run_ensemble(cfg, ids)
    cut = dyn.run_ensemble(dyn.SimConfig(**{**cfg.__dict__, "mode": "cutoff", "r": R}), ids)
    assert res["w2_full"].tobytes() == full.w2.tobytes()
    assert res["w2_cutoff"].tobytes() == cut.w2.tobytes()
    assert (dyn.chi_r(cut.w2, R) < 1.0).any()


def _advance_expression(sch, u, b, chi=None, g=None):
    """Scheme.advance written as the plain expression its bytes must equal."""
    dt = sch.cfg.dt
    if sch.decay is None:
        drift = sch.cfg.nu * sch.lam[None, :, None] * u
        if b is not None:
            drift = drift + (b if chi is None else chi[:, None, None] * b)
        out = u - dt * drift
    elif b is None:
        out = sch.decay[None, :, None] * u
    else:
        out = sch.decay[None, :, None] * (
            u - dt * (b if chi is None else chi[:, None, None] * b))
    return out if g is None else out + g


@pytest.mark.parametrize("cdtype", [np.complex128, np.complex64])
@pytest.mark.parametrize("scheme", ["em", "expo-em"])
def test_advance_matches_plain_expression(scheme, cdtype):
    # every branch of the out= chain: Stokes, b and chi b, each with and without g
    sch = dyn.Scheme(dyn.SimConfig(n=3, dt=1e-3, t_end=1e-3, scheme=scheme, nu=0.7,
                                   q0=5.0), cdtype)
    real = np.finfo(cdtype).dtype
    rng = np.random.default_rng(80)
    shape = (5, sch.tab.n_modes, 3)

    def draw():
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(cdtype)
        a.real[0, :4], a.imag[1, :4] = -0.0, -0.0   # signed zeros must survive
        return a

    u, b, g = draw(), draw(), draw()
    chi = np.array([1.0, 0.5, 0.0, 1.0, 0.25], dtype=real)
    for bb, cc in ((None, None), (b, None), (b, chi)):
        for gg in (None, g):
            got = sch.advance(u, bb, cc, gg)
            want = _advance_expression(sch, u, bb, cc, gg)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_paired_run_evaluates_b_once_per_distinct_state(monkeypatch):
    # equal full and cut-off rows share one B row; rows apart are evaluated on
    # their own, in a second call on just those rows.  A cut-off row with the
    # full row's bytes also takes its W-norm, and with chi = 1 its stepped row.
    cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.01, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=60.0, seed=79)
    ids, S = np.arange(12), cfg.n_steps
    P = ids.size
    rows, stepped, normed = [], [], []
    b_self_batch, advance, norm_sq = dyn.b_self_batch, dyn.Scheme.advance, dyn._norm_sq

    def spy(u, tab, grid):
        rows.append(u.shape[0])
        return b_self_batch(u, tab, grid)

    def advance_spy(sch, u, *args, **kwargs):
        stepped.append(u.shape[0])
        return advance(sch, u, *args, **kwargs)

    def norm_spy(coeffs, *weights):
        normed.append(coeffs.shape[0])
        return norm_sq(coeffs, *weights)

    monkeypatch.setattr(dyn, "b_self_batch", spy)
    monkeypatch.setattr(dyn.Scheme, "advance", advance_spy)
    monkeypatch.setattr(dyn, "_norm_sq", norm_spy)
    dyn.paired_full_cutoff(cfg, ids, R=1e9)
    assert rows == [P] * S
    assert stepped == [P] * S and normed == [P] * (S + 1)
    for spied in (rows, stepped, normed):
        spied.clear()
    x = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.05), seed=81).coeffs
    dyn.paired_full_cutoff(cfg, ids, R=1e9, x0=x, x0_cutoff=x * (1 + 1e-12))
    assert rows == [P, P] * S
    assert stepped == [P, P] * S and normed == [P, P] * (S + 1)
    for spied in (rows, stepped, normed):
        spied.clear()
    R = 20.0
    res = dyn.paired_full_cutoff(cfg, ids, R=R)
    apart = (res["w2_full"] != res["w2_cutoff"]).sum(axis=0)
    own = ((res["w2_full"] != res["w2_cutoff"]) | (dyn.chi_r(res["w2_cutoff"], R) < 1.0))
    own = own[:, :S].sum(axis=0)
    assert apart[0] == 0 and apart[-1] > 0   # shared at first, apart after crossings
    assert own[0] == 0 and (own > apart[:S]).any()   # chi < 1 before the states part
    assert rows == [n for k in apart[:S] for n in (P, k) if n]
    assert stepped == [n for k in own for n in (P, k) if n]
    assert normed == [n for k in apart for n in (P, k) if n]


def test_broadcast_starts_run_step_zero_on_one_kernel_row(fft_workers, monkeypatch):
    # every path of a run from one start has one state at step 0, so each
    # path tile runs B there on one kernel row; later steps, and a start set
    # of distinct rows, run on all of the tile's rows
    cfg = dyn.SimConfig(n=N_TILED, dt=0.01, t_end=0.03, scheme="expo-em", alpha0=0.25,
                        q0=30.0, seed=611)
    ids, S = np.arange(P_TILED), cfg.n_steps
    x = tiled_starts(1.0, 60.0, 0.25)
    h = sp.random_divfree_field(N_TILED, sp.powerlaw_profile(3.0, 0.5), seed=612).coeffs
    pair_tile = nl.tile_paths(12, nl.dealias_grid(N_TILED), 8)
    assert S == 3 and P_TILED > 2 * TILE

    def expect(tile, one_state):
        """Kernel rows per _irfft_block call, tile by tile, step by step."""
        sizes = [min(tile, P_TILED - lo) for lo in range(0, P_TILED, tile)]
        return [r for m in sizes for r in [1 if one_state else m] + [m] * (S - 1)]

    rows = []
    irfft = nl._irfft_block
    monkeypatch.setattr(nl, "_irfft_block",
                        lambda hat, *a: rows.append(len(hat)) or irfft(hat, *a))
    fft_workers(1)   # the tiles run in order on this thread
    for run, want in ((lambda: dyn.run_ensemble(cfg, ids), expect(TILE, True)),
                      (lambda: dyn.run_ensemble(cfg, ids, x0=x[0]), expect(TILE, True)),
                      (lambda: dyn.run_ensemble(cfg, ids, x0=x), expect(TILE, False)),
                      (lambda: dyn.paired_full_cutoff(cfg, ids, R=1e9), expect(TILE, True)),
                      (lambda: dyn.run_tangent_ensemble(cfg, x[0], h, ids),
                       expect(pair_tile, True))):
        rows.clear()
        run()
        assert rows == want


# -- tiled steppers: several tiles plus a ragged one, against per-path runs ------

WORKER_SETTINGS = (-1, 1, 5)   # all cores, serial, more threads than cores
N_TILED = 4
TILE = nl.tile_paths(6, nl.dealias_grid(N_TILED), 8)   # 23; the float32 pair's too
P_TILED = 2 * TILE + 4


def tiled_phis(cfg):
    cov = cfg.covariance()
    out = []
    for k, name in (((1, 0, 0), "phi1"), ((0, 1, 1), "phi2")):
        f = single_mode_field(cfg.n, k, cov.table.pol[cov.table.index_of(k), 0])
        out.append(vf.TestFunction.build(f, cov, name))
    return out


def tiled_starts(w2_lo, w2_hi, alpha0):
    """P_TILED start fields whose |x|_W^2 run evenly from w2_lo to w2_hi."""
    tab = sp.mode_table(N_TILED)
    out = []
    for i, w2 in enumerate(np.linspace(w2_lo, w2_hi, P_TILED)):
        x = sp.random_divfree_field(N_TILED, sp.powerlaw_profile(3.0), seed=600 + i).coeffs
        out.append(x * np.sqrt(w2 / sp.sobolev_norm_sq(x, tab.lam, sp.theta(alpha0))))
    return np.array(out)


def ensemble_case(name):
    """(cfg, x0, run_ensemble keywords) of one tiled-ensemble case."""
    base = dict(n=N_TILED, alpha0=0.25, q0=30.0, seed=610)
    if name == "expo-em-series":
        cfg = dyn.SimConfig(dt=0.01, t_end=0.03, scheme="expo-em", **base)
        return cfg, tiled_starts(1.0, 60.0, 0.25), dict(keep_series=True)
    if name == "em-cutoff":   # starts across the chi band [R+1, R+2] and beyond
        cfg = dyn.SimConfig(dt=2e-4, t_end=6e-4, scheme="em", mode="cutoff", r=20.0, **base)
        return cfg, tiled_starts(18.0, 25.0, 0.25), {}
    if name == "coupled-coarse":
        cfg = dyn.SimConfig(dt=0.01, t_end=0.03, scheme="expo-em", **base)
        return cfg, tiled_starts(1.0, 60.0, 0.25), dict(noise=dyn.coupled_coarse_noise)
    if name == "stokes":   # no B: the tiles run in order on the calling thread
        cfg = dyn.SimConfig(dt=0.01, t_end=0.03, scheme="expo-em", mode="stokes", **base)
        return cfg, tiled_starts(1.0, 60.0, 0.25), dict(keep_series=True)
    # one start so large that its explicit advection overflows mid-run
    cfg = dyn.SimConfig(dt=0.01, t_end=0.05, scheme="expo-em", **base)
    x0 = tiled_starts(1.0, 60.0, 0.25)
    x0[BLOWN_ROW] *= 1e100
    return cfg, x0, {}


BLOWN_ROW = TILE + 7   # in the second tile
ENSEMBLE_CASES = ("expo-em-series", "em-cutoff", "coupled-coarse", "blow-up", "stokes")


def record_rows(rec):
    """The per-path arrays of a record, path axis first, by name."""
    out = {f: getattr(rec, f) for f in ("final", "h2", "v2", "w2", "int_v2", "series",
                                        "blown", "blow_step")}
    out.update({f"int_h2nm2_v2[{n}]": a for n, a in rec.int_h2nm2_v2.items()})
    out.update({f"int_h2nm2[{n}]": a for n, a in rec.int_h2nm2.items()})
    out.update({f"{f}[{j}]": a for f in ("mphi", "proj_phi")
                for j, a in enumerate(getattr(rec, f))})
    return {k: a for k, a in out.items() if a is not None}


@pytest.fixture(scope="module")
def per_path_ensembles():
    """Each case run path by path, stacked: the bytes every tiling must give."""
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for name in ENSEMBLE_CASES:
            cfg, x0, kw = ensemble_case(name)
            rows = [record_rows(dyn.run_ensemble(cfg, [i], x0=x0[i], phis=tiled_phis(cfg), **kw))
                    for i in range(P_TILED)]
            out[name] = {k: np.concatenate([r[k] for r in rows]) for k in rows[0]}
    return out


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("workers", WORKER_SETTINGS)
@pytest.mark.parametrize("case", ENSEMBLE_CASES)
def test_tiled_ensemble_matches_per_path_runs(case, workers, fft_workers, per_path_ensembles):
    cfg, x0, kw = ensemble_case(case)
    fft_workers(workers)
    rec = dyn.run_ensemble(cfg, np.arange(P_TILED), x0=x0, phis=tiled_phis(cfg), **kw)
    got, expect = record_rows(rec), per_path_ensembles[case]
    assert got.keys() == expect.keys()
    for key, a in got.items():
        assert a.tobytes() == expect[key].tobytes(), key
    if case == "em-cutoff":   # some paths step with 0 < chi < 1
        chi = dyn.chi_r(rec.w2[:, :-1], cfg.r)
        assert ((chi > 0.0) & (chi < 1.0)).any() and (chi == 1.0).any()
    if case == "blow-up":
        assert rec.blown.tolist() == [i == BLOWN_ROW for i in range(P_TILED)]
        assert 1 < rec.blow_step[BLOWN_ROW] < cfg.n_steps
        assert np.isnan(rec.final[BLOWN_ROW]).all()
        assert np.isfinite(np.delete(rec.h2, BLOWN_ROW, axis=0)).all()


def paired_case(name):
    """(cfg, paired_full_cutoff keywords); R = 31 is the median of max |u|_W^2."""
    cfg = dyn.SimConfig(n=N_TILED, dt=1e-3, t_end=0.02, scheme="expo-em", q0=60.0, seed=611)
    if name == "crossing":
        return cfg, dict(R=31.0)
    x = sp.random_divfree_field(N_TILED, sp.powerlaw_profile(3.0, 0.05), seed=612).coeffs
    return replace(cfg, t_end=0.005), dict(R=31.0, x0=x, x0_cutoff=x * (1 + 1e-12))


PAIRED_KEYS = ("w2_full", "w2_cutoff", "tau_full", "tau_cutoff", "mismatch_steps")


@pytest.fixture(scope="module")
def per_path_pairs():
    out = {}
    for name in ("crossing", "negative-control"):
        cfg, kw = paired_case(name)
        runs = [dyn.paired_full_cutoff(cfg, [i], **kw) for i in range(P_TILED)]
        out[name] = {k: np.concatenate([r[k] for r in runs]) for k in PAIRED_KEYS}
        out[name]["max_discrepancy"] = max(r["max_discrepancy"] for r in runs)
    return out


@pytest.mark.parametrize("workers", WORKER_SETTINGS)
@pytest.mark.parametrize("case", ("crossing", "negative-control"))
def test_tiled_pair_matches_per_path_runs(case, workers, fft_workers, per_path_pairs):
    cfg, kw = paired_case(case)
    fft_workers(workers)
    res = dyn.paired_full_cutoff(cfg, np.arange(P_TILED), **kw)
    expect = per_path_pairs[case]
    for key in PAIRED_KEYS:
        assert res[key].tobytes() == expect[key].tobytes(), key
    assert res["max_discrepancy"] == expect["max_discrepancy"]
    if case == "crossing":
        assert 0 < res["crossings"] < P_TILED and res["max_discrepancy"] == 0.0
    else:
        assert (res["mismatch_steps"] > 0).all() and res["max_discrepancy"] > 0.0


def tangent_case():
    # x starts above the chi band; the viscous decay carries |u|_W^2 into it
    # mid-path, on some paths of a step and not on others
    cfg = dyn.SimConfig(n=N_TILED, dt=1e-3, t_end=4e-3, scheme="expo-em", mode="cutoff",
                        r=170.0, alpha0=0.25, q0=30.0, seed=613)
    x = tiled_starts(282.8, 282.8, 0.25)[0]
    h = sp.random_divfree_field(N_TILED, sp.powerlaw_profile(3.0, 0.5), seed=614).coeffs
    return cfg, x, h


@pytest.fixture(scope="module")
def per_path_tangents():
    cfg, x, h = tangent_case()
    runs = [dyn.run_tangent_ensemble(cfg, x, h, [i], precision="single")
            for i in range(P_TILED)]
    return {k: np.concatenate([r[k] for r in runs]) for k in ("final", "bel_sum")}


@pytest.mark.parametrize("workers", WORKER_SETTINGS)
def test_tiled_tangent_matches_per_path_runs(workers, fft_workers, per_path_tangents):
    assert nl.tile_paths(12, nl.dealias_grid(N_TILED), 4) == TILE
    cfg, x, h = tangent_case()
    band = dyn.chi_r_prime(dyn.run_ensemble(cfg, np.arange(P_TILED), x0=x).w2[:, :-1],
                           cfg.r) != 0.0
    assert (band.any(axis=0) & ~band.all(axis=0)).any()   # chi' fires on part of a step
    fft_workers(workers)
    out = dyn.run_tangent_ensemble(cfg, x, h, np.arange(P_TILED), precision="single")
    assert out["final"].dtype == np.complex64
    for key, a in per_path_tangents.items():
        assert out[key].tobytes() == a.tobytes(), key


def traced_peak(run):
    """Peak bytes that tracemalloc sees allocated during run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each tile thread holds one tile's arrays, so the memory guards below fix
# the thread count at two, whatever the number of cores.

def n6_ensemble_case():
    cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=2e-3, scheme="expo-em", q0=30.0, seed=615)
    phis = [vf.TestFunction.build(single_mode_field(6, (1, 0, 0), [0, 1.0, 0]),
                                  cfg.covariance(), "phi1")]
    return cfg, phis, 1000 * sp.mode_table(6).n_modes * 3 * 16   # 1000 states' bytes


def test_ensemble_holds_one_state(fft_workers):
    # the tiles write their final states straight into rec.final, and every
    # other state array is per tile: the two buffer sets, B, the noise
    cfg, phis, state_bytes = n6_ensemble_case()
    fft_workers(2)
    dyn.run_ensemble(cfg, np.arange(2), phis=phis)   # tables and layouts outside the count
    peak = traced_peak(lambda: dyn.run_ensemble(cfg, np.arange(1000), phis=phis))
    assert peak < 1.6 * state_bytes, peak / state_bytes


def test_steppers_without_final_states_hold_no_state_set(fft_workers):
    # a pair run and a run_ensemble with keep_final=False start from
    # broadcast views and keep no final states: only per-tile arrays
    cfg, phis, state_bytes = n6_ensemble_case()
    fft_workers(2)
    dyn.run_ensemble(cfg, np.arange(2), phis=phis)
    peaks = dict(
        pair=traced_peak(lambda: dyn.paired_full_cutoff(cfg, np.arange(1000), R=20.0)),
        ensemble=traced_peak(lambda: dyn.run_ensemble(cfg, np.arange(1000), phis=phis,
                                                      keep_final=False)))
    assert all(p < 0.5 * state_bytes for p in peaks.values()), \
        {k: p / state_bytes for k, p in peaks.items()}


def test_tangent_ensemble_builds_each_set_once(fft_workers):
    # the tiles write their final states straight into the returned final
    # states and keep no tangent set; the rest is per tile
    cfg = dyn.SimConfig(n=4, dt=0.025, t_end=0.1, scheme="expo-em", mode="cutoff",
                        r=5.0, alpha0=0.25, seed=616)
    x = sp.random_divfree_field(4, sp.powerlaw_profile(3.0), seed=617).coeffs
    h = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.5), seed=618).coeffs
    P = 1000
    state_bytes = P * sp.mode_table(4).n_modes * 3 * 8   # complex64
    fft_workers(2)
    dyn.run_tangent_ensemble(cfg, x, h, np.arange(2), precision="single")   # tables outside
    peak = traced_peak(lambda: dyn.run_tangent_ensemble(cfg, x, h, np.arange(P),
                                                        precision="single"))
    assert peak < 2.6 * state_bytes, peak / state_bytes
