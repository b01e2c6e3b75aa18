from dataclasses import replace

import numpy as np
import pytest

from navsto import dynamics as dyn
from navsto import noise as ns
from navsto import spectral as sp


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
        rec = dyn.simulate_path(cfg_small(mode="deterministic"), keep_series=True)
        assert np.abs(rec.series).max() == 0.0
        assert rec.tau_r(5.0) == np.inf

    def test_em_linear_decay(self):
        cfg = cfg_small(mode="deterministic")
        x0 = single_mode_field(2, (1, 0, 0), [0, 0.5 + 0.1j, -0.2j])
        rec = dyn.simulate_path(cfg, x0=x0, keep_series=True)
        lam = sp.stokes_eigenvalue((1, 0, 0))
        expected = x0.get((1, 0, 0)) * (1 - lam * cfg.dt) ** cfg.n_steps
        got = sp.SpectralField(2, rec.series[-1]).get((1, 0, 0))
        assert np.allclose(got, expected, rtol=1e-13)

    def test_expo_linear_decay_exact(self):
        cfg = cfg_small(mode="deterministic", scheme="expo-em")
        x0 = single_mode_field(2, (1, 0, 0), [0, 0.5, 0.25])
        rec = dyn.simulate_path(cfg, x0=x0, keep_series=True)
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
        rec = dyn.simulate_path(cfg, x0=x0)
        e1 = rec.energy_series(1)
        assert np.all(np.diff(e1) < 0)

    def test_discrete_energy_identity(self):
        # |Delta|u|^2 + 2 nu dt |u|_V^2| <= C dt^2 per step, B on, noise off
        cfg = dyn.SimConfig(n=3, dt=5e-5, t_end=2e-3, scheme="em",
                            mode="deterministic", alpha0=0.75, q0=1.0, seed=5)
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.3), seed=6)
        rec = dyn.simulate_path(cfg, x0=x0)
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

    def test_auxiliary_reduction_to_deterministic(self):
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=2e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=1.0, seed=10)
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.2), seed=11)
        z = np.zeros((cfg.n_steps + 1, sp.mode_table(3).n_modes, 3), dtype=complex)
        v_rec = dyn.solve_auxiliary_v(x0, z, cfg)
        det = dyn.simulate_path(dyn.SimConfig(**{**cfg.__dict__, "mode": "deterministic"}),
                                x0=x0, keep_series=True)
        assert np.abs(v_rec.series - det.series).max() <= 1e-12

    def test_v_plus_z_reconstructs_u(self):
        cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.02, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=20.0, seed=12)
        x0 = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 1.0), seed=13)
        u = dyn.simulate_path(cfg, path_id=5, x0=x0, keep_series=True)
        z = stokes_z(cfg, path_id=5)
        v = dyn.solve_auxiliary_v(x0, z.series, cfg)
        sup = np.abs((v.series + z.series) - u.series).max()
        assert sup <= 10 * cfg.dt * max(1.0, np.abs(u.series).max())
        # V-norm stays finite over the window (discrete regularity clause)
        assert np.isfinite(v.v2).all()


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
        up = dyn.simulate_path(cfg, path_id=0, x0=sp.SpectralField(n, x0.coeffs + eps * h.coeffs),
                               keep_series=True)
        um = dyn.simulate_path(cfg, path_id=0, x0=sp.SpectralField(n, x0.coeffs - eps * h.coeffs),
                               keep_series=True)
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
    def test_worker_count_invariance(self):
        cfg = dyn.SimConfig(n=3, dt=2e-4, t_end=2e-3, scheme="em", mode="full",
                            alpha0=0.75, q0=10.0, seed=40)
        r1 = dyn.run_ensemble(cfg, np.arange(2 * dyn.CHUNK + 5), workers=1)
        r2 = dyn.run_ensemble(cfg, np.arange(2 * dyn.CHUNK + 5), workers=2)
        assert np.array_equal(r1.final, r2.final)
        assert np.array_equal(r1.h2, r2.h2)

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
        single = dyn.simulate_path(cfg, path_id=3, keep_series=True)
        assert single.series.tobytes() == one.series.tobytes()
        assert single.h2.tobytes() == rec.h2[3].tobytes()

    def test_export_csv_row_count(self, tmp_path):
        cfg = cfg_small(q0=5.0, snapshot_stride=2)
        rec = dyn.simulate_path(cfg)
        p = tmp_path / "path.csv"
        dyn.export_path_csv(rec, p, stride=2)
        rows = p.read_text().splitlines()
        assert len(rows) - 1 == cfg.n_steps // 2 + 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_path_raises_typed_blowup():
    cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=2e-3, scheme="expo-em",
                        mode="deterministic", alpha0=0.75, q0=1.0, seed=50)
    x0 = sp.random_divfree_field(3, sp.powerlaw_profile(1.0, 1e150), seed=51)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(dyn.BlowupError) as exc:
            dyn.simulate_path(cfg, x0=x0)
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
    # equal full and cut-off rows share one B row; rows apart are evaluated on their own
    cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.01, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=60.0, seed=79)
    ids, S = np.arange(12), cfg.n_steps
    P = ids.size
    rows = []
    b_self_batch = dyn.b_self_batch

    def spy(u, tab, grid):
        rows.append(u.shape[0])
        return b_self_batch(u, tab, grid)

    monkeypatch.setattr(dyn, "b_self_batch", spy)
    dyn.paired_full_cutoff(cfg, ids, R=1e9)
    assert rows == [P] * S
    rows.clear()
    x = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.05), seed=81).coeffs
    dyn.paired_full_cutoff(cfg, ids, R=1e9, x0=x, x0_cutoff=x * (1 + 1e-12))
    assert rows == [2 * P] * S
    rows.clear()
    res = dyn.paired_full_cutoff(cfg, ids, R=20.0)
    apart = (res["w2_full"] != res["w2_cutoff"])[:, :S].sum(axis=0)
    assert apart[0] == 0 and apart[-1] > 0   # shared at first, apart after crossings
    assert rows == (P + apart).tolist()
