"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion.  The statistical criteria run at fixed seeds, so outcomes are
reproducible bit for bit; the shared N=6 ensemble behind criteria 3-5 is
built once per session.
"""

import sys
import time

import numpy as np
import pytest

from navsto import cli
from navsto import dynamics as dyn
from navsto import nonlinearity as nl
from navsto import selection as sel
from navsto import spectral as sp
from navsto import verifier as vf

RESULTS = []


def _report(num, name, ok, seconds, budget):
    margin = 100.0 * (budget - seconds) / budget   # share of the budget left unused
    line = (f"ACCEPTANCE {num:>2} [{name}] {'PASS' if ok else 'FAIL'} "
            f"({seconds:.1f}s / budget {budget:.0f}s, margin {margin:.0f}%)")
    RESULTS.append(line)
    print("\n" + line)
    sys.stdout.flush()
    assert ok, line
    assert seconds < budget, line


def _phi(n, cov, k, name):
    tab = sp.mode_table(n)
    f = sp.SpectralField.zero(n)
    i = tab.index_of(k)
    f.coeffs[i] = tab.pol[i, 0] + 0.5 * tab.pol[i, 1]
    return vf.TestFunction.build(f, cov, name)


# ---------------------------------------------------------------- criteria 3-5

MP2_CPS = [0.002, 0.004, 0.006, 0.008]


@pytest.fixture(scope="session")
def shared_ensemble():
    """The N=6 verification ensemble behind criteria 3, 4 and 5.

    The em guard forbids dt = 1e-3 at N = 6 (dt * lam_max > 4), so the suite
    runs the exponential scheme with its exact discrete quadratic-variation
    reference.
    """
    t0 = time.perf_counter()
    cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=0.008, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=30.0, seed=2026)
    cov = cfg.covariance()
    phis = [_phi(6, cov, (1, 0, 0), "phi1"), _phi(6, cov, (0, 1, 1), "phi2")]
    rec = dyn.run_ensemble(cfg, np.arange(10_000), phis=phis)
    bad_cfg = dyn.SimConfig(**{**cfg.__dict__, "noise_amplitude": 1.5})
    corrupted = dyn.run_ensemble(bad_cfg, np.arange(2000), phis=phis)
    bias = vf.richardson_bias(cfg, np.arange(400), phis, MP2_CPS)
    build = time.perf_counter() - t0
    return dict(cfg=cfg, cov=cov, phis=phis, rec=rec, corrupted=corrupted,
                bias=bias, build_s=build)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_operator_identities():
    t0 = time.perf_counter()
    ok = True
    for n in (4, 6, 8):
        tab = sp.mode_table(n)
        grid_q = 2 * n + 1
        prev = None
        for trial in range(100):
            u = sp.random_divfree_field(n, sp.powerlaw_profile(2.5), seed=1000 + trial,
                                        stream=n)
            ok &= sp.divergence_residual(u) <= 1e-12
            # reality: the implicit-conjugate cube inverts to a real field
            cube = np.zeros((3, grid_q, grid_q, grid_q), dtype=np.complex128)
            idx = tuple((tab.kvec % grid_q).T)
            nidx = tuple(((-tab.kvec) % grid_q).T)
            for j in range(3):
                cube[j][idx] = u.coeffs[:, j]
                cube[j][nidx] = np.conj(u.coeffs[:, j])
            phys = np.fft.ifftn(cube, axes=(1, 2, 3)) * grid_q**3
            ok &= np.abs(phys.imag).max() <= 1e-12 * np.abs(phys.real).max()
            # Leray idempotence on perturbed coefficients
            raw = u.coeffs + 0.1 * np.roll(u.coeffs, 1, axis=0)
            p1 = sp.leray_project(raw, tab)
            p2 = sp.leray_project(p1, tab)
            ok &= np.abs(p2 - p1).max() <= 1e-12 * max(np.abs(p1).max(), 1e-300)
            # Parseval against grid quadrature
            h = sp.sobolev_norm(u, 0.0)
            ok &= abs(sp.l2_norm_physical(sp.to_physical(u, grid_q)) - h) <= 1e-12 * h
            # skew pairing against the previous trial's field
            if prev is not None:
                ok &= nl.skew_pairing_residual(prev, u) <= 1e-12
            prev = u
    _report(1, "operator-identity-suite", ok, time.perf_counter() - t0, 30)


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 6, 8):
        for trial in range(50):
            u = sp.random_divfree_field(n, sp.powerlaw_profile(2.0), seed=2000 + trial,
                                        stream=2 * n)
            v = sp.random_divfree_field(n, sp.powerlaw_profile(2.0), seed=2000 + trial,
                                        stream=2 * n + 1)
            bd = nl.b_direct(u, v)
            bp = nl.b_pseudospectral(u, v)
            scale = np.abs(bd.coeffs).max()
            worst = max(worst, np.abs(bp.coeffs - bd.coeffs).max() / scale)
    _report(2, "oracle-equivalence", worst <= 1e-10, time.perf_counter() - t0, 60)


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_mp2_martingale_suite(shared_ensemble):
    se = shared_ensemble
    t0 = time.perf_counter()
    rep = vf.test_mp2_martingale(se["rec"], se["phis"], MP2_CPS, se["cov"],
                                 bias=se["bias"], corrupted=se["corrupted"])
    ok = rep.verdict == "pass" and rep.controls[0]["valid"]
    if not ok:
        print("MP2 failures:", rep.failures)
    elapsed = time.perf_counter() - t0 + se["build_s"]
    _report(3, "mp2-martingale-suite", ok, elapsed, 600)


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_energy_supermartingales(shared_ensemble):
    se = shared_ensemble
    t0 = time.perf_counter()
    rep1 = vf.test_energy_supermartingale(se["rec"], 1, MP2_CPS, bias=se["bias"])
    rep2 = vf.test_energy_supermartingale(se["rec"], 2, MP2_CPS, bias=se["bias"])
    ok = rep1.verdict == "pass" and rep2.verdict == "pass"
    if not ok:
        print("energy failures:", rep1.failures, rep2.failures)
    _report(4, "energy-supermartingales", ok, time.perf_counter() - t0, 120)


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_doob_maximal(shared_ensemble):
    se = shared_ensemble
    t0 = time.perf_counter()
    top = float(np.nanmax(se["rec"].h2)) * 3.0
    lam_grid = np.linspace(top / 8.0, top, 8)
    rep = vf.test_doob(se["rec"], 1, (0.002, 0.008), lam_grid)
    ok = rep.verdict == "pass"
    if not ok:
        print("doob failures:", rep.failures)
    _report(5, "doob-maximal-inequality", ok, time.perf_counter() - t0, 120)


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_weak_strong_identity():
    t0 = time.perf_counter()
    cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=0.05, scheme="expo-em", mode="full",
                        alpha0=0.75, q0=60.0, seed=606)
    rep = vf.test_weak_strong(cfg, np.arange(100), R=42.0, min_crossings=20)
    ok = rep.verdict == "pass" and rep.estimates[0]["value"] == 0.0
    if not ok:
        print("weak-strong failures:", rep.failures)
    _report(6, "weak-strong-identity", ok, time.perf_counter() - t0, 300)


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_bel_gradient_probe():
    t0 = time.perf_counter()
    # linear case: common-random-number differencing is deterministic for the
    # exponential scheme, so it must hit the analytic derivative to 1e-6; the
    # probability-weight estimate agrees within its own 4 SE band
    cfg_lin = dyn.SimConfig(n=2, dt=1e-3, t_end=0.1, scheme="expo-em", mode="stokes",
                            alpha0=0.25, q0=1.0, seed=700)
    x = sp.SpectralField.zero(2); x.set((1, 0, 0), [0, 0.02, 0.01])
    h = sp.SpectralField.zero(2); h.set((1, 0, 0), [0, 0.5, -0.25])
    phi = sp.SpectralField.zero(2); phi.set((1, 0, 0), [0, 1.0, 0.0])
    analytic = np.exp(-sp.stokes_eigenvalue((1, 0, 0)) * 0.1) * sp.h_inner(h, phi)
    psi = vf.make_psi("proj", clip=1e3, phi=phi)
    rep_lin = vf.bel_gradient_probe(cfg_lin, x, h, psi, np.arange(2000),
                                    fd_path_ids=np.arange(128), fd_eps=1e-3)
    fd = rep_lin.estimates[1]["value"]
    bel = rep_lin.estimates[0]["value"]
    bel_se = rep_lin.standard_errors[0]["value"]
    ok = abs(fd - analytic) <= 1e-6 and abs(bel - analytic) <= 4 * bel_se

    # nonlinear case at the stated scale, single-precision tangent ensemble
    cfg_nl = dyn.SimConfig(n=4, dt=0.025, t_end=0.1, scheme="expo-em", mode="cutoff",
                           r=600.0, alpha0=0.25, q0=1.0, seed=701)
    xf = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.3), seed=21)
    hf = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.5), seed=22)
    phif = sp.SpectralField.zero(4); phif.set((1, 0, 0), [0, 1.0, 0.5])
    psif = vf.make_psi("proj", clip=10.0, phi=phif)
    out = dyn.run_tangent_ensemble(cfg_nl, xf.coeffs, hf.coeffs, np.arange(100_000),
                                   precision="single")
    vals = psif(out["final"]) * out["bel_sum"] / out["n_steps"]
    bel_nl, bel_nl_se = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
    plus = dyn.run_ensemble(cfg_nl, np.arange(20_000), x0=xf.coeffs + 3e-2 * hf.coeffs)
    minus = dyn.run_ensemble(cfg_nl, np.arange(20_000), x0=xf.coeffs - 3e-2 * hf.coeffs)
    d = (psif(plus.final) - psif(minus.final)) / (2 * 3e-2)
    fd_nl, fd_nl_se = float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))
    gap = abs(bel_nl - fd_nl)
    band = 4.0 * float(np.hypot(bel_nl_se, fd_nl_se))
    ok = ok and gap <= band
    if not (gap <= band):
        print(f"BEL nonlinear: bel={bel_nl:.5f}+-{bel_nl_se:.5f} "
              f"fd={fd_nl:.5f}+-{fd_nl_se:.2e} gap={gap:.5f} band={band:.5f}")
    _report(7, "bel-gradient-probe", ok, time.perf_counter() - t0, 900)


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_bilinear_estimate_sweep():
    t0 = time.perf_counter()
    spec = vf.SweepSpec(alphas=(0.3, 0.75, 1.0), include_half=True, eps_half=0.01,
                        resolutions=(8, 16, 32), trials=100,
                        profile_exponent=5.0, seed=2024, spread_tol=0.10)
    rows, summary, verdict = vf.inequality_sweep(spec)
    ok = verdict == "bounded" and len(rows) == 4 * 3 * 100
    if not ok:
        print("sweep summary:", {k: v["max_spread"] for k, v in summary.items()})
    _report(8, "bilinear-estimate-sweep", ok, time.perf_counter() - t0, 600)


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_controllability_loop():
    t0 = time.perf_counter()
    n, R, T = 8, 40.0, 0.02
    cfg = dyn.SimConfig(n=n, dt=1e-4, t_end=T, scheme="em", mode="cutoff", r=R,
                        alpha0=0.75, q0=1.0, seed=900)
    x = sp.random_divfree_field(n, sp.powerlaw_profile(4.0, 0.02), seed=911)
    y = sp.random_divfree_field(n, sp.powerlaw_profile(4.0, 0.01), seed=913)
    w_inc, designed, info = dyn.build_control(x, y, T, R, cfg)
    ok = np.array_equal(designed[-1], y.coeffs)          # endpoint by construction
    ok &= info["sup_w2"] <= R
    rec = dyn.solve_controlled(x, w_inc, R, cfg)
    w_w = sp.mode_table(n).lam ** (2 * sp.theta(cfg.alpha0))
    end_w = np.sqrt(2 * ((np.abs(rec.series[-1] - y.coeffs) ** 2).sum(-1) * w_w).sum())
    ok &= end_w <= 1e-8
    # continuity along the controllers: endpoint deviation decreasing in the
    # perturbation scale over a three-point sequence
    delta = sp.random_divfree_field(n, sp.powerlaw_profile(4.0, 1.0), seed=914)
    errs = []
    for scale in (1e-3, 5e-4, 2.5e-4):
        pert = w_inc.copy()
        pert[len(pert) // 2] = pert[len(pert) // 2] + scale * delta.coeffs
        rec_p = dyn.solve_controlled(x, pert, R, cfg)
        errs.append(float(np.abs(rec_p.series[-1] - rec.series[-1]).max()))
    ok &= errs[0] > errs[1] > errs[2]
    if not ok:
        print("control: end_w", end_w, "sup_w2", info["sup_w2"], "errs", errs)
    _report(9, "controllability-closed-loop", bool(ok), time.perf_counter() - t0, 120)


# --------------------------------------------------------------- criterion 10

def test_criterion_10_selection_demo():
    t0 = time.perf_counter()
    dt, horizon = 1e-3, 25.0
    s_grid = np.linspace(0.0, 10.0, 200)
    funnel = sel.enumerate_funnel(0.0, horizon, s_grid, dt)
    cascade = [sel.SelectionCriterion(1.0, "x2"), sel.SelectionCriterion(1.0, "x")]

    def inline_j(m, crit):
        # independent composite-Simpson coding of the discounted observable
        y = np.exp(-crit.lam * m.times) * crit.f(m.values)
        assert (y.size - 1) % 2 == 0
        return (dt / 3.0) * (y[0] + y[-1] + 4 * y[1:-1:2].sum() + 2 * y[2:-2:2].sum())

    # brute force over the whole funnel confirms every cascade argmax stage
    survivors = list(funnel.members)
    ok = True
    for crit in cascade:
        js = np.array([inline_j(m, crit) for m in survivors])
        brute = {m.label() for m, j in zip(survivors, js) if j >= js.max() - sel.ARGMAX_TOL}
        lib = sel.argmax_set(sel.SolutionFunnel(0.0, horizon, dt, survivors), crit)
        ok &= lib == brute
        survivors = [m for m in survivors if m.label() in brute]
    # the even stage keeps both signs at s=0; the odd stage resolves the tie
    ok &= len(survivors) == 1 and survivors[0].label() == "+phi(s=0)"
    best = sel.select(funnel, cascade)
    ok &= best.label() == "+phi(s=0)"
    # argmax-set invariance under criterion scaling, exactly at the set level
    for crit in cascade:
        scaled = sel.SelectionCriterion(crit.lam, crit.f_name, scale=7.25)
        ok &= sel.argmax_set(funnel, crit) == sel.argmax_set(funnel, scaled)
    # semiflow property of the selected family
    S = sel.make_selection_map(horizon, dt, s_grid, cascade)
    defect = sel.check_semiflow(S, [0.0, 0.5, -0.5], [0.0, 1.0, 3.0], dt)
    ok &= defect <= 10 * dt * dt
    if not ok:
        print("selection: best", best.label(), "defect", defect)
    _report(10, "selection-demo", bool(ok), time.perf_counter() - t0, 60)


# --------------------------------------------------------------- criterion 11

def test_criterion_11_determinism_audit(tmp_path):
    t0 = time.perf_counter()
    cfgp = tmp_path / "audit.cfg"
    cfgp.write_text("""
resolution = 3
dt = 1e-3
horizon = 0.006
scheme = expo-em
mode = full
alpha0 = 0.75
q0 = 30.0
seed = 78
checkpoints = 0.002,0.004,0.006
control_paths = 100
snapshot_stride = 3
""")
    ok = True
    for sub, seeds in (("simulate", "0..1"), ("verify-mp2", "0..199")):
        outs = []
        for tag in ("a", "b"):
            rc = cli.main([sub, "--config", str(cfgp), "--seeds", seeds,
                           "--out", str(tmp_path / f"{sub}-{tag}")])
            ok &= rc == 0
            outs.append(next((tmp_path / f"{sub}-{tag}").glob(f"{sub}-*")))
        assert outs[0].name == outs[1].name
        for f in sorted(outs[0].iterdir()):
            if f.name == "manifest.json":
                continue  # wall clock lives only here
            ok &= f.read_bytes() == (outs[1] / f.name).read_bytes()
    _report(11, "determinism-audit", bool(ok), time.perf_counter() - t0, 300)


def test_zz_summary():
    print("\n" + "=" * 72)
    for line in RESULTS:
        print(line)
    print("=" * 72)
