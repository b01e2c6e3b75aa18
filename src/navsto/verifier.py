"""Monte-Carlo verification of the martingale-problem structure.

Each test turns an ensemble of integrated paths into a TestReport whose
verdict follows deterministically from the estimates, their standard errors
and the stated band rule.  Band widths are 4 standard errors for mean-type
tests and a 99% chi-square interval for the variance-ratio test; systematic
dt-bias enters the bands explicitly, either through the scheme's exact
per-step noise variance (variance ratio) or through a Richardson pilot that
couples a coarse path to its half-step twin (mean tests).

The suite carries deliberately corrupted configurations as negative
controls; a release is invalid unless every control fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sstats

from . import dynamics as dyn
from .dynamics import EnsembleRecord, SimConfig, scheme_step_variance
from .noise import CovarianceSpec, q_form_sq
from .nonlinearity import dealias_grid
from .spectral import (
    SpectralField,
    apply_stokes_power,
    mode_table,
    pair_with,
    sobolev_norm_sq,
    theta,
)


@dataclass
class TestFunction:
    """Finite-mode divergence-free test function with precomputed pairings."""

    name: str
    field: SpectralField
    coeffs: np.ndarray
    a_coeffs: np.ndarray
    q_sq: float  # |Q^(1/2) phi|_H^2

    @classmethod
    def build(cls, field: SpectralField, cov: CovarianceSpec, name: str) -> "TestFunction":
        if field.n != cov.n:
            raise ValueError("test function resolution does not match covariance")
        a = apply_stokes_power(field, 1.0)
        return cls(name=name, field=field, coeffs=field.coeffs,
                   a_coeffs=a.coeffs, q_sq=q_form_sq(cov, field.coeffs))


@dataclass
class TestReport:
    """Sub-tests in order under the one band rule; the verdict fails exactly
    when a sub-test or a negative control did."""

    name: str
    ensemble_size: int
    threshold_rule: str
    params: dict
    estimates: list = field(default_factory=list)        # [{"label", "value"}]
    standard_errors: list = field(default_factory=list)  # [{"label", "value"}]
    bands: list = field(default_factory=list)            # [{"label", "lo", "hi"}]
    controls: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.failures else "fail"

    def add(self, label, value, se, lo, hi):
        """A sub-test whose estimate is `value` itself."""
        self.estimates.append({"label": label, "value": value})
        self.check(label, value, se, lo, hi)

    def check(self, label, value, se, lo, hi):
        """The standard error and band of `label`; it fails unless
        lo <= value <= hi, so a NaN value fails every band."""
        self.standard_errors.append({"label": label, "value": se})
        self.bands.append({"label": label, "lo": lo, "hi": hi})
        if not (lo <= value <= hi):
            self.failures.append(label)

    def to_json_dict(self) -> dict:
        return dict(name=self.name, ensemble_size=self.ensemble_size,
                    threshold_rule=self.threshold_rule, params=self.params,
                    estimates=self.estimates, se=self.standard_errors, band=self.bands,
                    verdict=self.verdict, controls=self.controls, failures=self.failures)


def _mean_se(x: np.ndarray):
    x = np.asarray(x, dtype=np.float64)
    m = float(x.mean())
    se = float(x.std(ddof=1) / np.sqrt(x.size)) if x.size > 1 else 0.0
    return m, se


def _windows(checkpoints) -> list:
    """Consecutive checkpoint windows (s, t), the first starting at 0."""
    return list(zip([0.0, *checkpoints[:-1]], checkpoints))


def mphi_variance_reference(cfg: SimConfig, cov: CovarianceSpec, phi: TestFunction,
                            n_steps: int) -> float:
    """Exact variance of the discrete M^phi accumulator at step n, zero start.

    The accumulator uses the integral formula with left-endpoint quadrature,
    so besides the noise projection each step picks up the compensator
    residual c_k u_n with c_k = D_k - 1 + nu lam_k dt (zero for plain
    Euler-Maruyama, where the reference reduces to n |Q^(1/2) phi|^2 dt).
    Summing the linear chain exactly gives, per mode,

        Var = v_k * sum_{j<n} (1 + c_k (1 - D_k^j) / (1 - D_k))^2.

    This is the scheme's dt-exact quadratic variation; the advection feeds
    in only at higher order and is absorbed by the statistical band.
    """
    lam = cov.table.lam
    v = scheme_step_variance(cfg, cov)
    if cfg.scheme == "em":
        decay = 1.0 - cfg.nu * lam * cfg.dt
        c = np.zeros_like(lam)
    else:
        decay = np.exp(-cfg.nu * lam * cfg.dt)
        c = decay - 1.0 + cfg.nu * lam * cfg.dt
    j = np.arange(n_steps)
    amp = 1.0 + c[:, None] * (1.0 - decay[:, None] ** j[None, :]) / (1.0 - decay[:, None])
    factor = (amp**2).sum(axis=1)  # (K,), equals n_steps when c = 0
    mag = (phi.coeffs.real**2 + phi.coeffs.imag**2).sum(axis=-1)
    return float(2.0 * (v * factor * mag).sum())


# -- Richardson bias pilot ------------------------------------------------------

def richardson_bias(cfg: SimConfig, path_ids, phis, checkpoints) -> dict:
    """Coupled coarse/fine pilot; returns conservative dt-bias allowances.

    For a weak-order-one scheme the bias at dt is about twice the coupled
    coarse-minus-fine difference; the allowance adds two standard errors of
    that difference before doubling.
    """
    coarse, fine = dyn.coupled_bias_pilot(cfg, path_ids, phis=phis)
    out = {"mphi_mean": {}, "e_mean": {}, "e_inc": {}}

    def allowance(delta):
        m, se = _mean_se(delta)
        return 2.0 * (abs(m) + 2.0 * se)

    for j, phi in enumerate(phis):
        for t in checkpoints:
            ic = coarse.checkpoint_index(t)
            delta = coarse.mphi[j, :, ic] - fine.mphi[j, :, 2 * ic]
            out["mphi_mean"][(phi.name, t)] = allowance(delta)
    for n in (1, 2):
        ec = coarse.energy_series(n)
        ef = fine.energy_series(n)
        for t in checkpoints:
            ic = coarse.checkpoint_index(t)
            out["e_mean"][(n, t)] = allowance(ec[:, ic] - ef[:, 2 * ic])
        for s, t in _windows(checkpoints):
            i_s, i_t = coarse.checkpoint_index(s), coarse.checkpoint_index(t)
            dc = ec[:, i_t] - ec[:, i_s]
            df = ef[:, 2 * i_t] - ef[:, 2 * i_s]
            out["e_inc"][(n, s, t)] = allowance(dc - df)
    return out


# -- MP2: martingale with prescribed quadratic variation -------------------------

def _var_ratio(rec: EnsembleRecord, cfg: SimConfig, cov: CovarianceSpec, j: int,
               phi: TestFunction, t: float):
    """Sample variance of M^phi at t over the scheme-exact QV of `cfg`, with
    its standard error and 99% chi-square band: (ratio, se, lo, hi)."""
    i = rec.checkpoint_index(t)
    P = rec.path_ids.size
    ratio = float(rec.mphi[j, :, i].var(ddof=1) / mphi_variance_reference(cfg, cov, phi, i))
    return (ratio, float(np.sqrt(2.0 / (P - 1))),
            sstats.chi2.ppf(0.005, P - 1) / (P - 1), sstats.chi2.ppf(0.995, P - 1) / (P - 1))


def test_mp2_martingale(rec: EnsembleRecord, phis, checkpoints,
                        cov: CovarianceSpec, bias: dict | None = None,
                        corrupted: EnsembleRecord | None = None) -> TestReport:
    """Three sub-tests per test function and checkpoint: zero mean, variance
    ratio against the exact discrete quadratic variation, and orthogonality
    of increments to functionals of the past."""
    cfg = rec.cfg
    P = rec.path_ids.size
    rep = TestReport(
        "mp2-martingale", P,
        "|mean| <= 4 SE + bias; var ratio in 99% chi-square band "
        "around the scheme-exact QV; |corr| <= 4/sqrt(M)",
        dict(n=cfg.n, dt=cfg.dt, scheme=cfg.scheme, seed=cfg.seed,
             checkpoints=list(checkpoints), phis=[p.name for p in phis]))
    mphi_bias = (bias or {}).get("mphi_mean", {})

    for j, phi in enumerate(phis):
        for t in checkpoints:
            label = f"{phi.name}@t={t:g}"
            m, se = _mean_se(rec.mphi[j, :, rec.checkpoint_index(t)])
            allow = 4.0 * se + mphi_bias.get((phi.name, t), 0.0)
            rep.add(f"mean[{label}]", m, se, -allow, allow)
            rep.add(f"varratio[{label}]", *_var_ratio(rec, cfg, cov, j, phi, t))
        # increment orthogonality over consecutive checkpoint windows
        corr_band = 4.0 / np.sqrt(P)
        for s, t in _windows(checkpoints):
            i_s, i_t = rec.checkpoint_index(s), rec.checkpoint_index(t)
            inc = rec.mphi[j, :, i_t] - rec.mphi[j, :, i_s]
            for gname, g in (("H2", rec.h2[:, i_s]), ("proj", rec.proj_phi[j, :, i_s])):
                if inc.std() == 0.0 or g.std() == 0.0:
                    c = 0.0
                else:
                    c = float(np.corrcoef(inc, g)[0, 1])
                rep.add(f"corr[{phi.name},{gname}@({s:g},{t:g})]", c, 1.0 / np.sqrt(P),
                        -corr_band, corr_band)

    if corrupted is not None:
        # the negative control is the variance sub-test on the corrupted ensemble
        ctrl = TestReport("noise-amplitude-x1.5", corrupted.path_ids.size,
                          "var ratio in 99% chi-square band", {})
        for j, phi in enumerate(phis):
            for t in checkpoints:
                ratio, se, lo, hi = _var_ratio(corrupted, cfg, cov, j, phi, t)
                ctrl.add(f"varratio[{phi.name}@t={t:g}]={ratio:.3f}", ratio, se, lo, hi)
        rep.controls.append({"name": ctrl.name, "expected": "fail",
                             "observed_failures": ctrl.failures,
                             "valid": ctrl.verdict == "fail"})
        if ctrl.verdict == "pass":
            rep.failures.append("negative control passed the variance test")
    return rep


# -- MP3/MP4: energy super-martingales --------------------------------------------

def test_energy_supermartingale(rec: EnsembleRecord, n: int, checkpoints,
                                bias: dict | None = None) -> TestReport:
    """Ensemble-mean super-martingale test for the n-th energy functional.

    Mean increments over checkpoint windows must not exceed the band; the
    n = 1 functional is a martingale for the truncated system, so its mean
    is additionally pinned two-sided around zero.
    """
    cfg = rec.cfg
    E = rec.energy_series(n)   # rejects a moment beyond the tracked n_max
    e_mean = (bias or {}).get("e_mean", {})
    e_inc = (bias or {}).get("e_inc", {})
    rep = TestReport(
        f"energy-supermartingale-E{n}", rec.path_ids.size,
        "mean increment <= 4 SE + bias (E1 also |mean| <= 4 SE + bias)",
        dict(n_res=cfg.n, dt=cfg.dt, scheme=cfg.scheme, seed=cfg.seed,
             moment=n, checkpoints=list(checkpoints)))

    if n == 1:
        for t in checkpoints:
            m, se = _mean_se(E[:, rec.checkpoint_index(t)])
            allow = 4.0 * se + e_mean.get((1, t), 0.0)
            rep.add(f"meanE1@t={t:g}", m, se, -allow, allow)
    for s, t in _windows(checkpoints):
        m, se = _mean_se(E[:, rec.checkpoint_index(t)] - E[:, rec.checkpoint_index(s)])
        rep.add(f"incE{n}@({s:g},{t:g})", m, se, -np.inf,
                4.0 * se + e_inc.get((n, s, t), 0.0))
    return rep


# -- Doob-type maximal inequality --------------------------------------------------

def test_doob(rec: EnsembleRecord, n: int, interval, lam_grid) -> TestReport:
    """lambda P[sup alpha >= lambda] <= 2 (E theta_a + E theta_b^- + E beta_b) + 4 SE.

    theta = E^n splits into the increasing part alpha (norm plus dissipation)
    and the non-decreasing compensator beta.
    """
    cfg = rec.cfg
    a, b = interval
    i_a, i_b = rec.checkpoint_index(a), rec.checkpoint_index(b)
    nu = cfg.nu
    if n == 1:
        diss, ito = rec.int_v2, rec.times[None, :]
    else:
        diss, ito = rec.int_h2nm2_v2[n], rec.int_h2nm2[n]
    alpha = rec.h2**n + 2.0 * n * nu * diss
    beta = rec.h2[:, :1]**n + n * (2 * n - 1) * rec.sigma_sq * ito
    theta_ = alpha - beta
    sup_alpha = alpha[:, i_a:i_b + 1].max(axis=1)
    P = rec.path_ids.size
    rhs_paths = 2.0 * (theta_[:, i_a] + np.maximum(-theta_[:, i_b], 0.0) + beta[:, i_b])
    rhs, rhs_se = _mean_se(rhs_paths)
    rep = TestReport(
        "doob-maximal", P,
        "lam P[sup alpha >= lam] <= 2(E theta_a + E theta_b^- + E beta_b) + 4 SE",
        dict(n_res=cfg.n, dt=cfg.dt, moment=n, interval=[a, b],
             lam_grid=list(map(float, lam_grid)), seed=cfg.seed))
    for lam in lam_grid:
        p_hat = float((sup_alpha >= lam).mean())
        lhs = lam * p_hat
        lhs_se = lam * np.sqrt(max(p_hat * (1 - p_hat), 0.0) / P)
        se = float(np.hypot(lhs_se, rhs_se))
        label = f"lam={lam:g}"
        rep.estimates += [{"label": f"lhs[{label}]", "value": lhs},
                          {"label": f"rhs[{label}]", "value": rhs}]
        rep.check(label, lhs, se, -np.inf, rhs + 4.0 * se)
    return rep


# -- weak-strong coincidence --------------------------------------------------------

def test_weak_strong(cfg: SimConfig, path_ids, R: float,
                     min_crossings: int = 0) -> TestReport:
    """Paired full/cutoff runs: bitwise identity before tau_R, equal tau_R."""
    out = dyn.paired_full_cutoff(cfg, path_ids, R)
    tau_f, tau_c = out["tau_full"], out["tau_cutoff"]
    same_tau = np.array_equal(np.nan_to_num(tau_f, posinf=-1.0),
                              np.nan_to_num(tau_c, posinf=-1.0))
    mismatches = int(out["mismatch_steps"].sum())
    failures = []
    if mismatches:
        failures.append(f"{mismatches} pre-tau bitwise mismatches")
    if not same_tau:
        failures.append("tau_R differs between paired runs")
    if out["crossings"] < min_crossings:
        failures.append(f"only {out['crossings']} crossings < required {min_crossings}")
    return TestReport(
        "weak-strong-identity", len(np.atleast_1d(path_ids)),
        "bitwise identity up to tau_R detection; tau_R equal on every pair",
        dict(n=cfg.n, dt=cfg.dt, scheme=cfg.scheme, R=R, seed=cfg.seed),
        estimates=[{"label": "max_discrepancy", "value": out["max_discrepancy"]},
                   {"label": "crossings", "value": float(out["crossings"])}],
        bands=[{"label": "max_discrepancy", "lo": 0.0, "hi": 0.0}], failures=failures)


# -- gradient probe ------------------------------------------------------------------

def make_psi(kind: str, clip: float, phi: SpectralField | None = None):
    """Bounded observables for the gradient probe (hard clip at +/- clip)."""
    if clip <= 0:
        raise ValueError("clip level must be positive")
    if kind == "proj":
        if phi is None:
            raise ValueError("proj observable needs a field")
        ph = phi.coeffs

        def psi(final):
            return np.clip(pair_with(final, ph), -clip, clip)
    elif kind == "h2":
        def psi(final):
            mag = 2.0 * (final.real**2 + final.imag**2).sum(axis=(-2, -1))
            return np.clip(mag, 0.0, clip)
    else:
        raise ValueError(f"unknown observable kind {kind!r}")
    psi.kind = kind
    psi.clip = clip
    return psi


def bel_gradient_probe(cfg: SimConfig, x: SpectralField, h: SpectralField, psi,
                       path_ids, fd_path_ids, fd_eps: float = 1e-2) -> TestReport:
    """Derivative of E[psi(u_t)] in direction h, two independent ways.

    The probability-weight route integrates the tangent flow against the
    driving noise (right-endpoint tangent, which is exactly unbiased for the
    discrete chain); the cross-check is a central finite difference with
    common random numbers.  Agreement within 4 combined standard errors.
    """
    if cfg.t_end <= 0:
        raise ValueError("probe horizon must be positive")
    out = dyn.run_tangent_ensemble(cfg, x.coeffs, h.coeffs, path_ids)
    vals = psi(out["final"]) * out["bel_sum"] / out["n_steps"]
    bel, bel_se = _mean_se(vals)

    plus = dyn.run_ensemble(cfg, fd_path_ids, x0=x.coeffs + fd_eps * h.coeffs)
    minus = dyn.run_ensemble(cfg, fd_path_ids, x0=x.coeffs - fd_eps * h.coeffs)
    d = (psi(plus.final) - psi(minus.final)) / (2.0 * fd_eps)
    fd, fd_se = _mean_se(d)

    se = float(np.hypot(bel_se, fd_se))
    gap = abs(bel - fd)
    failures = [] if gap <= 4.0 * se else [f"BEL vs FD gap {gap:.3e} > 4 SE {4*se:.3e}"]
    return TestReport(
        "bel-gradient-probe", len(np.atleast_1d(path_ids)),
        "|BEL - FD(CRN)| <= 4 sqrt(SE_bel^2 + SE_fd^2)",
        dict(n=cfg.n, dt=cfg.dt, t=cfg.t_end, scheme=cfg.scheme, R=cfg.r,
             eps=fd_eps, psi=getattr(psi, "kind", "?"), seed=cfg.seed),
        estimates=[{"label": "bel", "value": bel}, {"label": "fd", "value": fd},
                   {"label": "gap", "value": gap}],
        standard_errors=[{"label": "bel", "value": bel_se}, {"label": "fd", "value": fd_se}],
        bands=[{"label": "gap", "lo": 0.0, "hi": 4.0 * se}], failures=failures)


# -- inequality sweeps ----------------------------------------------------------------

@dataclass
class SweepSpec:
    alphas: tuple = (0.3, 0.75, 1.0)
    include_half: bool = True
    eps_half: float = 0.01
    resolutions: tuple = (8, 16, 32)
    trials: int = 100
    profile_exponent: float = 5.0
    seed: int = 2024
    spread_tol: float = 0.10


def inequality_sweep(spec: SweepSpec):
    """Boundedness sweep for the bilinear continuity estimate.

    Returns (rows, summary, verdict): rows are (alpha_label, N, seed, ratio);
    summary holds per-cell max/median; verdict is "bounded" when each alpha's
    max ratio varies at most spread_tol across resolutions.
    """
    from .spectral import powerlaw_profile, random_divfree_field, restrict_field
    from .nonlinearity import b_batch

    alphas: list[tuple[str, float, float | None]] = [
        (f"{a:g}", a, None) for a in spec.alphas]
    if spec.include_half:
        alphas.append((f"0.5(eps={spec.eps_half:g})", 0.5, spec.eps_half))
    rows = []
    n_top = max(spec.resolutions)
    prof = powerlaw_profile(spec.profile_exponent)
    # |A^s f|^2 weights lam^(2s) per N: s = theta(alpha) for u and v, the target for B
    exps = [(theta(a), (0.25 - eps) if eps is not None else (a - 0.25)) for _, a, eps in alphas]
    weights = {n: [[mode_table(n).lam ** (2.0 * e[i]) for e in exps] for i in (0, 1)]
               for n in spec.resolutions}
    for trial in range(spec.trials):
        # nested test family: the same field viewed at every truncation, so
        # the spread across N reflects truncation trends, not fresh sampling
        u_top = random_divfree_field(n_top, prof, spec.seed, stream=2 * trial)
        v_top = random_divfree_field(n_top, prof, spec.seed, stream=2 * trial + 1)
        for n in spec.resolutions:
            tab = mode_table(n)
            grid = dealias_grid(n)
            u = u_top if n == n_top else restrict_field(u_top, n)
            v = v_top if n == n_top else restrict_field(v_top, n)
            b = b_batch(u.coeffs, v.coeffs, tab, grid)
            # each field's |f_k|^2 is formed once for all its exponents
            nu2, nv2, nb2 = (np.atleast_1d(dyn._norm_sq(f, *weights[n][i]))
                             for f, i in ((u.coeffs, 0), (v.coeffs, 0), (b, 1)))
            for i, (label, _, _) in enumerate(alphas):
                num, den = np.sqrt(nb2[i]), np.sqrt(nu2[i] * nv2[i])
                rows.append((label, n, trial, float(num / den)))
    summary = {}
    for label, a, eps in alphas:
        per_n = {}
        for n in spec.resolutions:
            vals = [r[3] for r in rows if r[0] == label and r[1] == n]
            per_n[n] = {"max": float(np.max(vals)), "median": float(np.median(vals))}
        maxima = [per_n[n]["max"] for n in spec.resolutions]
        spread = (max(maxima) - min(maxima)) / min(maxima)
        summary[label] = {"cells": per_n, "max_spread": float(spread)}
    bounded = all(s["max_spread"] <= spec.spread_tol for s in summary.values())
    return rows, summary, ("bounded" if bounded else "unbounded")


def fit_m2_endpoint(seed: int = 77):
    """Empirical (C, p) for the m = 2 endpoint pairing inequality.

    Fits <A^2 v, B(v+z, v+z)> <= 1/2 |A^(3/2) v|^2 + C (1 + |v|_V + |A z|)^p
    on 100 random smooth pairs at N = 8, then re-verifies on 100 fresh ones;
    the constants are recorded artifacts, not asserted against any given value.
    """
    from .spectral import powerlaw_profile, random_divfree_field
    from .nonlinearity import b_batch

    n, trials = 8, 100
    tab = mode_table(n)
    grid = dealias_grid(n)
    prof = powerlaw_profile(3.5)

    def sample(trial, stream0):
        v = random_divfree_field(n, prof, seed, stream=stream0 + 2 * trial)
        z = random_divfree_field(n, prof, seed, stream=stream0 + 2 * trial + 1)
        total = v.coeffs + z.coeffs
        b = b_batch(total, total, tab, grid)
        a2v = v.coeffs * (tab.lam**2)[:, None]
        lhs = 2.0 * np.real(np.einsum("kj,kj->", a2v, np.conj(b)))
        excess = lhs - 0.5 * sobolev_norm_sq(v.coeffs, tab.lam, 1.5)
        base = 1.0 + np.sqrt(sobolev_norm_sq(v.coeffs, tab.lam, 0.5)) \
            + np.sqrt(sobolev_norm_sq(z.coeffs, tab.lam, 1.0))
        return float(excess), float(base)

    fit = [sample(t, 0) for t in range(trials)]
    pos = [(e, b) for e, b in fit if e > 0]
    if len(pos) >= 3:
        loge = np.log([e for e, _ in pos])
        logb = np.log([b for _, b in pos])
        p = float(np.polyfit(logb, loge, 1)[0])
        p = max(p, 1.0)
    else:
        p = 4.0
    c_vals = [e / b**p for e, b in fit if e > 0]
    C = 1.25 * (max(c_vals) if c_vals else 1e-12)

    fresh = [sample(t, 10_000) for t in range(trials)]
    ok = sum(1 for e, b in fresh if e <= C * b**p)
    return dict(C=float(C), p=float(p), feasible=ok, total=trials,
                verdict="pass" if ok == trials else "fail")
