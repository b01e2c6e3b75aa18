"""Pinned SHA-256 digests of small frozen-seed outputs of the production path.

Every optimisation of the B kernels and the noise block promises unchanged
bytes; these digests make any bit change, including a flipped sign of zero,
fail loudly.  They hold for the numpy/scipy pair the suite runs on (pocketfft,
numpy's OpenBLAS, whose GEMMs run the B kernels' z passes, and the Philox
normal sampler fix the bits); a library upgrade that changes them must be
re-pinned on its own, never together with a code change.
"""

import hashlib

import numpy as np

from navsto import cli
from navsto import dynamics as dyn
from navsto import noise as ns
from navsto import nonlinearity as nl
from navsto import spectral as sp
from navsto import verifier as vf


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def field(n, seed, s=2.0, amplitude=1.0):
    return sp.random_divfree_field(n, sp.powerlaw_profile(s, amplitude), seed).coeffs


def test_run_ensemble_expo_em_n4():
    # 48 paths span several B tiles at N=4 plus a ragged last one
    cfg = dyn.SimConfig(n=4, dt=0.01, t_end=0.03, scheme="expo-em", q0=30.0, seed=4101)
    rec = dyn.run_ensemble(cfg, np.arange(48), x0=field(4, 4102))
    assert digest(rec.final, rec.h2, rec.v2, rec.w2) == (
        "35c7331a2e4bfc9c1d219aa3aeb8b022d3898e033637d8dc8d82c5fa29017220")


def test_run_tangent_ensemble_float32_chi_prime_active():
    x = sp.random_divfree_field(4, sp.powerlaw_profile(3.0), seed=4103)
    w2 = float(sp.sobolev_norm_sq(x.coeffs, x.table.lam, sp.theta(0.25)))
    x = x * np.sqrt(282.8 / w2)
    R = 281.3   # the start sits mid-band in [R+1, R+2], so chi' fires
    cfg = dyn.SimConfig(n=4, dt=0.025, t_end=0.075, scheme="expo-em", mode="cutoff",
                        r=R, alpha0=0.25, q0=1.0, seed=4104)
    assert dyn.chi_r_prime(282.8, R) != 0.0
    out = dyn.run_tangent_ensemble(cfg, x.coeffs, field(4, 4105, 3.0, 0.5),
                                   np.arange(48), precision="single")
    assert out["final"].dtype == np.complex64
    assert digest(out["final"], out["bel_sum"]) == (
        "ebb40171bd247df4db0377571655fbf6a4225fdd066042ad27f2357497b46dd5")


def test_paired_full_cutoff():
    cfg = dyn.SimConfig(n=4, dt=1e-3, t_end=0.02, scheme="expo-em", q0=60.0, seed=4106)
    res = dyn.paired_full_cutoff(cfg, np.arange(24), R=20.0)
    assert res["crossings"] > 0
    assert digest(res["w2_full"], res["w2_cutoff"], res["tau_full"], res["tau_cutoff"],
                  res["mismatch_steps"]) == (
        "3d9012192548da794599ba2871b0bb1e670925ce4aacf7a304d342b37afd7725")


def test_b_batch_n8():
    tab = sp.mode_table(8)
    out = nl.b_batch(field(8, 4107), field(8, 4108), tab, nl.dealias_grid(8))
    assert digest(out) == (
        "34b79d8fc16958c808a69285cba7d14cd309a5ce20f48a6812d3b0dca8f5a60b")


def test_ou_block_n6():
    cov = ns.build_covariance(0.75, 30.0, 6)
    g = ns.ou_block(cov, 1e-3, seed=4109, path_ids=np.arange(40), step=3)
    assert digest(g) == (
        "f5d89aac640dcfce10e4eca17d08252240175a511ff79cf30ca8452bbf2e3081")


# -- the scheme step on every production path ----------------------------------------
#
# One digest per public stepper, recorded before the steppers shared one scheme
# object, so that sharing it cannot move a bit.  The cut-off cases sit where
# chi < 1 (and chi' != 0 for the derivative flow), so the cut-off factor is
# exercised, not just multiplied by 1.

def scaled_field(n, seed, alpha0, w2, s=2.0):
    """Seeded field rescaled to |u|_W^2 = w2."""
    u = sp.random_divfree_field(n, sp.powerlaw_profile(s), seed)
    now = float(sp.sobolev_norm_sq(u.coeffs, u.table.lam, sp.theta(alpha0)))
    return u * np.sqrt(w2 / now)


def phis_n4(cfg):
    cov = cfg.covariance()
    out = []
    for name, k in (("zeta", (1, 0, 0)), ("alpha", (0, 1, 1))):
        f = sp.SpectralField.zero(4)
        i = f.table.index_of(k)
        f.coeffs[i] = f.table.pol[i, 0] + 0.5 * f.table.pol[i, 1]
        out.append(vf.TestFunction.build(f, cov, name))
    return out


def em_cutoff_n4(**kw):
    # |x|_W^2 = 40.5 starts mid-band in [R+1, R+2] at R = 39
    base = dict(n=4, dt=2e-4, t_end=2e-3, scheme="em", mode="cutoff", r=39.0,
                alpha0=0.25, q0=5.0, seed=4110)
    base.update(kw)
    return dyn.SimConfig(**base)


def em_cutoff_phis_record():
    cfg = em_cutoff_n4()
    x = scaled_field(4, 4111, 0.25, 40.5)
    rec = dyn.run_ensemble(cfg, np.arange(48), x0=x.coeffs, phis=phis_n4(cfg))
    assert (dyn.chi_r(rec.w2[:, :-1], cfg.r) < 1.0).any()
    return rec


def test_run_ensemble_em_cutoff_phis():
    rec = em_cutoff_phis_record()
    assert digest(rec.final, rec.h2, rec.v2, rec.w2, rec.int_v2, rec.int_h2nm2_v2[2],
                  rec.int_h2nm2[2], rec.proj_phi) == (
        "4f3eff934c3b061632f70ec0e1f1867fe7c92427ca16cae7b2d9e4a4e199c684")


def test_run_ensemble_em_cutoff_mphi():
    # M^phi's drift carries the chi B the cut-off step used
    assert digest(em_cutoff_phis_record().mphi) == (
        "404bfb5d497873380b9ef29a0b417916a88ebd92ba0c1d0fec45e651e86f08e0")


def test_step_em_cutoff():
    cfg = em_cutoff_n4(t_end=2e-4)
    x = scaled_field(4, 4112, 0.25, 40.5)
    assert dyn.chi_r(40.5, cfg.r) < 1.0
    g = sp.SpectralField(4, ns.wiener_block(cfg.covariance(), cfg.dt, cfg.seed, [3], 0)[0])
    assert digest(dyn.step(x, cfg, g).coeffs, dyn.step(x, cfg, None).coeffs) == (
        "61aea9c31d6e0c2982d8c259ba0cb88ca5dfc448c42aa466147abe658885460c")


def test_linearized_flow_em_cutoff_chi_prime_active():
    # W^2 = 2.5 in (R+1, R+2); the final tangent of path 0, pinned as the end
    # point of the stored-trajectory linearized flow that it replaced
    n = 3
    cfg = dyn.SimConfig(n=n, dt=5e-5, t_end=1e-3, scheme="em", mode="cutoff",
                        r=1.0, alpha0=0.25, q0=1.0, seed=4115)
    x = scaled_field(n, 4116, 0.25, 2.5)
    u = dyn.simulate_path(cfg, x0=x, keep_series=True)
    w2 = sp.sobolev_norm_sq(u.series, sp.mode_table(n).lam, sp.theta(0.25))
    assert (dyn.chi_r_prime(w2, cfg.r) != 0.0).any()
    h = sp.random_divfree_field(n, sp.powerlaw_profile(3.0), 4117)
    _, du, _ = dyn._tangent_chunk(cfg, x.coeffs, h.coeffs, np.array([0]))
    assert digest(du[0]) == (
        "00569f5e056f84f5435aded2ea93c8a9e23c36d13f9639b96d1d00a9b55e11fd")


def test_paired_full_cutoff_em():
    cfg = dyn.SimConfig(n=4, dt=5e-4, t_end=0.02, scheme="em", alpha0=0.75, q0=60.0,
                        seed=4118)
    res = dyn.paired_full_cutoff(cfg, np.arange(24), R=20.0)
    assert res["crossings"] > 0
    assert digest(res["w2_full"], res["w2_cutoff"], res["tau_full"], res["tau_cutoff"],
                  res["mismatch_steps"]) == (
        "5666235cd2ef1608ea63749e8dd3f769571b6906b4909911a279ed70d803af31")


def test_build_control_and_replay_n4():
    cfg = dyn.SimConfig(n=4, dt=2e-4, t_end=0.02, scheme="em", mode="cutoff", r=60.0,
                        alpha0=0.75, q0=1.0, seed=4119)
    x = sp.random_divfree_field(4, sp.powerlaw_profile(4.0, 0.02), seed=4120)
    y = sp.random_divfree_field(4, sp.powerlaw_profile(4.0, 0.01), seed=4121)
    w_inc, designed, info = dyn.build_control(x, y, cfg.t_end, 60.0, cfg)
    rec = dyn.solve_controlled(x, w_inc, 60.0, cfg)
    assert digest(w_inc, designed, np.array([info["t_star"], info["sup_w2"]]),
                  rec.series, rec.h2, rec.v2, rec.w2) == (
        "867953fbe6a890dc808449d219943c50c979debb7b5c1a7431be3b92ac2bb891")
    # the replay's quadrature is the engine's cumsum(dt v2), not cumsum(v2) dt
    assert digest(rec.int_v2) == (
        "1d4b7da7f29b9b2933744d25a7d874064cbac36d8a1b44ee3ce16861fdf27a05")


def test_simulate_path_csv_with_phis(tmp_path):
    # names out of sorted order: the CSV sorts its M^phi columns by name
    cfg = em_cutoff_n4(mode="full", r=None, q0=10.0)
    rec = dyn.simulate_path(cfg, path_id=1, phis=phis_n4(cfg))
    dyn.export_path_csv(rec, tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_text()
    assert text.splitlines()[0].endswith("M_alpha,M_zeta")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "56d130dc70dfd5388859f00607e71edcc680ff8a7adf69b98312c3cf7ba3c0c7")


def test_cli_simulate_artifacts(tmp_path):
    cfgp = tmp_path / "run.cfg"
    cfgp.write_text("resolution = 3\ndt = 2e-4\nhorizon = 0.002\nscheme = em\nmode = full\n"
                    "alpha0 = 0.75\nq0 = 10.0\nseed = 4122\nsnapshot_stride = 4\n")
    assert cli.main(["simulate", "--config", str(cfgp), "--seeds", "0..1",
                     "--out", str(tmp_path / "out")]) == 0
    run_dir = next((tmp_path / "out").glob("simulate-*"))
    files = sorted(f for f in run_dir.iterdir() if f.name != "manifest.json")
    assert len([f for f in files if f.suffix == ".bin"]) == 6
    h = hashlib.sha256()
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == (
        "3ed8c39935c62766972f49735e3571f724eba1b9bbde24398ae9c21373ffc859")


REPORT_RUNS = (  # (subcommand, seeds, config lines on top of an N=3 expo-em base)
    ("verify-mp2", "0..199", "dt = 1e-3\nhorizon = 0.008\nseed = 4123\n"
     "checkpoints = 0.002,0.004,0.006,0.008\ncontrol_paths = 100\npilot_paths = 40\n"),
    ("verify-energy", "0..199", "dt = 1e-3\nhorizon = 0.008\nseed = 4124\nmoment = 2\n"
     "pilot_paths = 40\n"),
    ("verify-doob", "0..199", "dt = 1e-3\nhorizon = 0.008\nseed = 4125\n"),
    ("verify-weak-strong", "0..19", "dt = 1e-3\nhorizon = 0.02\nq0 = 60.0\nseed = 4126\n"
     "weak_strong_r = 10.0\n"),
    ("bel-probe", "0..0", "dt = 5e-3\nhorizon = 0.02\nseed = 4127\nmode = cutoff\n"
     "cutoff_r = 600.0\nbel_paths = 200\nfd_paths = 100\n"),
)


def test_cli_report_artifacts(tmp_path):
    # every banded report the command line writes, estimates to verdict
    h = hashlib.sha256()
    for sub, seeds, text in REPORT_RUNS:
        cfgp = tmp_path / f"{sub}.cfg"
        cfgp.write_text("resolution = 3\nscheme = expo-em\nalpha0 = 0.75\nq0 = 30.0\n" + text)
        assert cli.main([sub, "--config", str(cfgp), "--seeds", seeds,
                         "--out", str(tmp_path / "out")]) == 0
        run_dir = next((tmp_path / "out").glob(f"{sub}-*"))
        for f in sorted(run_dir.glob("report*.json")):
            h.update(f"{sub}/{f.name}".encode())
            h.update(f.read_bytes())
    assert h.hexdigest() == (
        "9c63632f282ce0cf42713c4272b2eea17cbd344f54387bd7cf6e4ed1557ba676")
