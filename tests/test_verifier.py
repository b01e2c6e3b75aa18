import numpy as np
import pytest

from navsto import dynamics as dyn
from navsto import noise as ns
from navsto import spectral as sp
from navsto import verifier as vf


def _phi(n, cov, k=(1, 0, 0), name="phi1"):
    tab = sp.mode_table(n)
    f = sp.SpectralField.zero(n)
    i = tab.index_of(k)
    f.coeffs[i] = tab.pol[i, 0] + 0.5 * tab.pol[i, 1]
    return vf.TestFunction.build(f, cov, name)


@pytest.fixture(scope="module")
def mp2_setup():
    cfg = dyn.SimConfig(n=3, dt=1e-3, t_end=0.012, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=30.0, seed=223)
    cov = cfg.covariance()
    phis = [_phi(3, cov), _phi(3, cov, k=(0, 1, 1), name="phi2")]
    rec = dyn.run_ensemble(cfg, np.arange(1500), phis=phis)
    return cfg, cov, phis, rec


CPS = [0.003, 0.006, 0.009, 0.012]


class TestTestFunction:
    def test_q_form_exact(self):
        cov = ns.build_covariance(0.5, 2.0, 3)
        phi = _phi(3, cov)
        manual = 2.0 * (cov.sigma**2 * (np.abs(phi.coeffs)**2).sum(axis=1)).sum()
        assert phi.q_sq == pytest.approx(manual, rel=1e-14)

    def test_resolution_guard(self):
        cov = ns.build_covariance(0.5, 2.0, 3)
        f = sp.SpectralField.zero(4)
        with pytest.raises(ValueError):
            vf.TestFunction.build(f, cov, "bad")


class TestMP2:
    def test_positive_control_passes(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        rep = vf.test_mp2_martingale(rec, phis, CPS, cov)
        assert rep.verdict == "pass", rep.failures

    def test_negative_control_fails_variance(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        bad_cfg = dyn.SimConfig(**{**cfg.__dict__, "noise_amplitude": 1.5})
        bad = dyn.run_ensemble(bad_cfg, np.arange(600), phis=phis)
        rep = vf.test_mp2_martingale(rec, phis, CPS, cov, corrupted=bad)
        assert rep.verdict == "pass"           # suite valid: control failed
        assert rep.controls[0]["valid"]
        assert any("varratio" in f for f in rep.controls[0]["observed_failures"])

    def test_unscaled_control_invalidates_suite(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        good = dyn.run_ensemble(cfg, np.arange(2000, 2600), phis=phis)
        rep = vf.test_mp2_martingale(rec, phis, CPS, cov, corrupted=good)
        assert rep.verdict == "fail"
        assert not rep.controls[0]["valid"]

    def test_zero_noise_residual(self):
        # em scheme: the accumulator cancels the compensators exactly
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=2e-3, scheme="em",
                            mode="deterministic", alpha0=0.75, q0=10.0, seed=7)
        cov = cfg.covariance()
        phis = [_phi(3, cov)]
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.3), seed=8)
        rec = dyn.run_ensemble(cfg, np.arange(4), x0=x0.coeffs, phis=phis)
        assert np.abs(rec.mphi).max() <= 1e-12

    def test_zero_noise_residual_expo(self):
        # exponential scheme leaves an O(dt) deterministic weak-form residual
        cfg = dyn.SimConfig(n=3, dt=1e-4, t_end=2e-3, scheme="expo-em",
                            mode="deterministic", alpha0=0.75, q0=10.0, seed=7)
        cov = cfg.covariance()
        phis = [_phi(3, cov)]
        x0 = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.3), seed=8)
        rec = dyn.run_ensemble(cfg, np.arange(2), x0=x0.coeffs, phis=phis)
        scale = np.sqrt(rec.h2[0, 0])
        assert np.abs(rec.mphi).max() <= 10.0 * cfg.dt * max(scale, 1.0)

    def test_qv_reference_scheme_correction(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        em_cfg = dyn.SimConfig(**{**cfg.__dict__, "scheme": "em", "dt": 1e-5})
        v_em = vf.mphi_variance_reference(em_cfg, cov, phis[0], 1)
        assert v_em == pytest.approx(phis[0].q_sq * em_cfg.dt, rel=1e-12)
        v_expo = vf.mphi_variance_reference(cfg, cov, phis[0], 1)
        assert v_expo < phis[0].q_sq * cfg.dt  # damped reference


class TestEnergy:
    def test_e1_and_e2_pass(self, mp2_setup):
        # the exponential scheme's E1 mean carries a real O(dt) bias that the
        # coupled Richardson pilot must absorb into the band
        cfg, cov, phis, rec = mp2_setup
        bias = vf.richardson_bias(cfg, np.arange(300), phis, CPS)
        rep1 = vf.test_energy_supermartingale(rec, 1, CPS, bias=bias)
        assert rep1.verdict == "pass", rep1.failures
        rep2 = vf.test_energy_supermartingale(rec, 2, CPS, bias=bias)
        assert rep2.verdict == "pass", rep2.failures

    def test_moment_guard(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        with pytest.raises(ValueError):
            vf.test_energy_supermartingale(rec, 0, CPS)

    def test_corrupted_energy_fails(self, mp2_setup):
        # stronger noise than booked: E1 drifts up, out of the two-sided band
        cfg, cov, phis, rec = mp2_setup
        bad_cfg = dyn.SimConfig(**{**cfg.__dict__, "noise_amplitude": 1.5})
        bad = dyn.run_ensemble(bad_cfg, np.arange(1500), phis=phis)
        rep = vf.test_energy_supermartingale(bad, 1, CPS)
        assert rep.verdict == "fail"


class TestDoob:
    def test_passes_on_ensemble(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        top = float(np.nanmax(rec.h2)) * 3
        grid = np.linspace(top / 8, top, 8)
        rep = vf.test_doob(rec, 1, (0.003, 0.012), grid)
        assert rep.verdict == "pass", rep.failures

    def test_large_lambda_trivial(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        rep = vf.test_doob(rec, 1, (0.003, 0.012), [1e12])
        lhs = [e for e in rep.estimates if e["label"].startswith("lhs")][0]["value"]
        assert lhs == 0.0 and rep.verdict == "pass"

    def test_moment_guard(self, mp2_setup):
        # E^n exists for n >= 1, for energy_series and Doob alike
        cfg, cov, phis, rec = mp2_setup
        with pytest.raises(ValueError, match="must be >= 1"):
            vf.test_doob(rec, 0, (0.003, 0.012), [1.0])

    def test_degenerate_zero_paths(self):
        cfg = dyn.SimConfig(n=2, dt=1e-3, t_end=0.004, scheme="em",
                            mode="deterministic", alpha0=0.75, q0=10.0, seed=1)
        rec = dyn.run_ensemble(cfg, np.arange(8))
        rep = vf.test_doob(rec, 1, (0.001, 0.004), [0.5, 1.0])
        # left side vanishes, right side keeps the positive compensator term
        assert rep.verdict == "pass"
        rhs = [e for e in rep.estimates if e["label"].startswith("rhs")][0]["value"]
        assert rhs > 0


class TestWeakStrong:
    def test_no_crossing_identity(self):
        cfg = dyn.SimConfig(n=3, dt=5e-4, t_end=0.01, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=5.0, seed=33)
        rep = vf.test_weak_strong(cfg, np.arange(6), R=1e9)
        assert rep.verdict == "pass"
        assert rep.estimates[0]["value"] == 0.0

    def test_crossing_paths_still_identical(self):
        cfg = dyn.SimConfig(n=3, dt=5e-4, t_end=0.05, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=60.0, seed=34)
        pilot = dyn.run_ensemble(cfg, np.arange(20))
        R = max(float(np.percentile(np.nanmax(pilot.w2, axis=1), 50)), 1.0)
        rep = vf.test_weak_strong(cfg, np.arange(20), R=R, min_crossings=3)
        assert rep.verdict == "pass", rep.failures
        assert rep.estimates[1]["value"] >= 3


class TestBelProbe:
    def test_zero_direction_gives_zero(self):
        cfg = dyn.SimConfig(n=2, dt=1e-3, t_end=0.01, scheme="expo-em", mode="cutoff",
                            r=100.0, alpha0=0.25, q0=1.0, seed=40)
        x = sp.random_divfree_field(2, sp.powerlaw_profile(3.0, 0.01), seed=41)
        out = dyn.run_tangent_ensemble(cfg, x.coeffs, 0.0 * x.coeffs, np.arange(16))
        assert np.abs(out["bel_sum"]).max() == 0.0

    def test_linear_case_matches_analytic(self):
        cfg = dyn.SimConfig(n=2, dt=1e-3, t_end=0.1, scheme="expo-em", mode="stokes",
                            alpha0=0.25, q0=1.0, seed=42)
        x = sp.SpectralField.zero(2); x.set((1, 0, 0), [0, 0.02, 0.01])
        h = sp.SpectralField.zero(2); h.set((1, 0, 0), [0, 0.5, -0.25])
        phi = sp.SpectralField.zero(2); phi.set((1, 0, 0), [0, 1.0, 0.0])
        lam = sp.stokes_eigenvalue((1, 0, 0))
        analytic = np.exp(-lam * cfg.t_end) * sp.h_inner(h, phi)
        psi = vf.make_psi("proj", clip=1e3, phi=phi)
        rep = vf.bel_gradient_probe(cfg, x, h, psi, np.arange(800),
                                    fd_path_ids=np.arange(64), fd_eps=1e-3)
        fd = rep.estimates[1]["value"]
        bel, bel_se = rep.estimates[0]["value"], rep.standard_errors[0]["value"]
        assert abs(fd - analytic) <= 1e-6
        assert abs(bel - analytic) <= 4 * bel_se
        assert rep.verdict == "pass"

    def test_nonlinear_agreement_small(self):
        cfg = dyn.SimConfig(n=3, dt=0.02, t_end=0.1, scheme="expo-em", mode="cutoff",
                            r=600.0, alpha0=0.25, q0=1.0, seed=43)
        x = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.3), seed=44)
        h = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.5), seed=45)
        phi = sp.SpectralField.zero(3); phi.set((1, 0, 0), [0, 1.0, 0.5])
        psi = vf.make_psi("proj", clip=10.0, phi=phi)
        rep = vf.bel_gradient_probe(cfg, x, h, psi, np.arange(3000),
                                    fd_path_ids=np.arange(500), fd_eps=3e-2)
        assert rep.verdict == "pass", rep.failures

    def test_psi_menu(self):
        with pytest.raises(ValueError):
            vf.make_psi("proj", clip=-1.0)
        with pytest.raises(ValueError):
            vf.make_psi("unknown", clip=1.0)
        psi = vf.make_psi("h2", clip=2.0)
        fake = np.zeros((5, 4, 3), dtype=complex)
        fake[:, 0, 0] = 10.0
        assert np.all(psi(fake) == 2.0)  # clipped

    def test_degenerate_horizon_guard(self):
        with pytest.raises(ValueError):
            dyn.SimConfig(n=2, dt=1e-3, t_end=0.0, scheme="em", mode="full")


class TestSweep:
    def test_empty_sweep(self):
        spec = vf.SweepSpec(alphas=(), include_half=False, resolutions=(4,), trials=0)
        rows, summary, verdict = vf.inequality_sweep(spec)
        assert rows == [] and summary == {} and verdict == "bounded"

    def test_delegation_matches_breg_ratio(self):
        from navsto.nonlinearity import b_pseudospectral
        spec = vf.SweepSpec(alphas=(0.75,), include_half=False, resolutions=(4,),
                            trials=2, profile_exponent=5.0, seed=91)
        rows, _, _ = vf.inequality_sweep(spec)
        for label, n, trial, ratio in rows:
            u = sp.random_divfree_field(4, sp.powerlaw_profile(5.0), 91, stream=2 * trial)
            v = sp.random_divfree_field(4, sp.powerlaw_profile(5.0), 91, stream=2 * trial + 1)
            ref = (sp.sobolev_norm(b_pseudospectral(u, v), 0.5)
                   / (sp.sobolev_norm(u, 1.0) * sp.sobolev_norm(v, 1.0)))
            assert ratio == pytest.approx(ref, rel=1e-12)

    def test_m2_endpoint_fit_feasible(self):
        out = vf.fit_m2_endpoint(seed=77)
        assert out["verdict"] == "pass"
        assert out["C"] > 0 and out["p"] >= 1.0


class TestReportDeterminism:
    def test_bitwise_reproducible_modulo_runtime(self, mp2_setup):
        cfg, cov, phis, rec = mp2_setup
        r1 = vf.test_mp2_martingale(rec, phis, CPS, cov)
        r2 = vf.test_mp2_martingale(rec, phis, CPS, cov)
        assert r1.to_json_dict() == r2.to_json_dict()


class TestBandRule:
    """Every banded sub-test fails unless lo <= estimate <= hi, so NaN fails."""

    def test_nan_fails_every_band_it_reaches(self):
        from dataclasses import replace as dc_replace
        cfg = dyn.SimConfig(n=3, dt=1e-3, t_end=0.012, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=30.0, seed=224)
        cov = cfg.covariance()
        phis = [_phi(3, cov), _phi(3, cov, k=(0, 1, 1), name="phi2")]
        rec = dyn.run_ensemble(cfg, np.arange(200), phis=phis)
        i = cfg.step_index(0.006)
        mphi, h2 = rec.mphi.copy(), rec.h2.copy()
        mphi[0, 3, i] = np.nan   # phi1 on one path
        h2[3, i] = np.nan
        bad = dc_replace(rec, mphi=mphi, h2=h2)
        # phi1's windows on either side of 0.006 see the NaN increment, and the
        # window starting there sees the NaN H2 of every phi; E^2's running
        # integrals carry it into every later window
        cases = [
            (lambda r: vf.test_mp2_martingale(r, phis, CPS, cov),
             {"mean[phi1@t=0.006]", "varratio[phi1@t=0.006]",
              "corr[phi1,H2@(0.003,0.006)]", "corr[phi1,proj@(0.003,0.006)]",
              "corr[phi1,H2@(0.006,0.009)]", "corr[phi1,proj@(0.006,0.009)]",
              "corr[phi2,H2@(0.006,0.009)]"}),
            (lambda r: vf.test_energy_supermartingale(r, 1, CPS),
             {"meanE1@t=0.006", "incE1@(0.003,0.006)", "incE1@(0.006,0.009)"}),
            (lambda r: vf.test_energy_supermartingale(r, 2, CPS),
             {"incE2@(0.003,0.006)", "incE2@(0.006,0.009)", "incE2@(0.009,0.012)"}),
        ]
        for run, labels in cases:
            clean, broken = run(rec), run(bad)
            assert not labels & set(clean.failures), labels
            assert set(broken.failures) == set(clean.failures) | labels, labels
            assert broken.verdict == "fail"


class TestNegativeControls:
    """Every statistical test ships a corruption that must fail."""

    def test_doob_control_without_compensator(self, mp2_setup):
        from dataclasses import replace as dc_replace
        cfg, cov, phis, rec = mp2_setup
        broken = dc_replace(rec, sigma_sq=0.0)  # books no noise trace at all
        top = float(np.nanmax(broken.h2)) * 1.5
        rep = vf.test_doob(broken, 1, (rec.times[1], 0.012), np.linspace(top / 8, top, 8))
        assert rep.verdict == "fail"

    def test_weak_strong_control_perturbed_start(self):
        cfg = dyn.SimConfig(n=3, dt=5e-4, t_end=0.005, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=5.0, seed=55)
        x = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.05), seed=56)
        out = dyn.paired_full_cutoff(cfg, np.arange(4), R=1e9, x0=x.coeffs,
                                     x0_cutoff=x.coeffs * (1 + 1e-12))
        assert out["mismatch_steps"].sum() > 0
        assert out["max_discrepancy"] > 0.0

    def test_weak_strong_nonfinite_discrepancy_is_inf(self):
        cfg = dyn.SimConfig(n=3, dt=5e-4, t_end=0.005, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=5.0, seed=55)
        x = sp.random_divfree_field(3, sp.powerlaw_profile(3.0, 0.05), seed=56)
        bad = x.coeffs.copy()
        bad[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            out = dyn.paired_full_cutoff(cfg, np.arange(4), R=1e9, x0=x.coeffs,
                                         x0_cutoff=bad)
        assert out["mismatch_steps"].tolist() == [11] * 4
        assert out["max_discrepancy"] == np.inf

    def test_weak_strong_sees_chi_one_ulp_below_one(self, monkeypatch):
        # the shared B must not hide a cut-off factor that is not exactly 1.0
        cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.01, scheme="expo-em", mode="full",
                            alpha0=0.75, q0=60.0, seed=79)
        ids, R = np.arange(12), 20.0
        chi_r = dyn.chi_r

        def nudged(r, level):
            chi = chi_r(r, level)
            return np.where(chi == 1.0, np.nextafter(1.0, 0.0), chi)

        monkeypatch.setattr(dyn, "chi_r", nudged)
        out = dyn.paired_full_cutoff(cfg, ids, R=R)
        assert out["crossings"] > 0
        assert out["mismatch_steps"].sum() > 0
        assert vf.test_weak_strong(cfg, ids, R=R).verdict == "fail"

    def test_bel_control_scaled_weight(self):
        cfg = dyn.SimConfig(n=2, dt=2e-3, t_end=0.05, scheme="expo-em", mode="stokes",
                            alpha0=0.25, q0=1.0, seed=57)
        x = sp.SpectralField.zero(2); x.set((1, 0, 0), [0, 0.02, 0.01])
        h = sp.SpectralField.zero(2); h.set((1, 0, 0), [0, 0.5, -0.25])
        phi = sp.SpectralField.zero(2); phi.set((1, 0, 0), [0, 1.0, 0.0])
        psi = vf.make_psi("proj", clip=1e3, phi=phi)
        out = dyn.run_tangent_ensemble(cfg, x.coeffs, h.coeffs, np.arange(3000))
        good = psi(out["final"]) * out["bel_sum"] / out["n_steps"]
        bad = 2.0 * good  # mis-booked inverse-variance weight
        lam = sp.stokes_eigenvalue((1, 0, 0))
        truth = np.exp(-lam * cfg.t_end) * sp.h_inner(h, phi)
        se = good.std(ddof=1) / np.sqrt(good.size)
        assert abs(good.mean() - truth) <= 4 * se
        assert abs(bad.mean() - truth) > 4 * 2 * se

    def test_sweep_control_divergent_profile(self):
        spec = vf.SweepSpec(alphas=(1.0,), include_half=False, resolutions=(8, 16),
                            trials=10, profile_exponent=3.0, seed=58)
        _, _, verdict = vf.inequality_sweep(spec)
        assert verdict == "unbounded"


def test_mp2_size_script_runs(monkeypatch):
    """tests/calibrate_mp2_size.py, which pytest does not collect, on 2 blocks of 20 paths."""
    import calibrate_mp2_size as cal
    monkeypatch.setattr(cal, "PILOT_PATHS", 20)
    out = cal.main(["--blocks", "2", "--paths", "20"])
    assert out["blocks"] == 2 and out["paths_per_block"] == 20
    assert sorted(out["sub_tests"]) == ["doob", "energy-E1", "energy-E2", "mp2"]
