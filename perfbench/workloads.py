"""The three benchmark workloads, each shaped like a group of acceptance criteria.

A workload turns the benchmark seed into inputs, sets up (tables, pad
layouts, covariances, one warm-up call) and then runs timed *units*.  A unit
is one complete workload run from its first library call to its last
verdict; every unit of a run repeats the same inputs, so its outputs must be
bitwise identical from unit to unit.  Checks are computed from a unit's
outputs; ``corrupt=True`` feeds a deliberately corrupted output through the
same checks (the benchmark's negative control).

Every library call goes through a module attribute (``dyn.run_ensemble``,
``vf.test_doob``, ...) so that the traced run can wrap it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np
from scipy import stats

from navsto import dynamics as dyn
from navsto import nonlinearity as nl
from navsto import spectral as sp
from navsto import verifier as vf


@dataclass
class UnitResult:
    checks: list            # [(label, passed)]
    paths: int              # simulated paths whose blow-up status is known
    blown: int
    path_steps: int         # paired full/cut-off step = 2, tangent step = 1
    b_evals: int            # field-level B(u, v) evaluations in `b_seconds`
    b_seconds: float | None  # time of the phase they are counted in; None: whole unit
    digest: str             # SHA-256 of the unit's output arrays
    notes: dict             # reported, not counted


#: two-sided tail of the suite's 4 SE mean bands
FOUR_SE_TAIL = 2.0 * stats.norm.sf(4.0)


def _sub_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _report_values(rep) -> np.ndarray:
    return np.array([e["value"] for e in rep.estimates], dtype=np.float64)


def mp2_passes_at_4se_tail(rep) -> bool:
    """The MP2 verdict with each variance-ratio band taken at the 4 SE tail.

    The suite's ratio bands are 99% chi-square intervals, so with several of
    them the verdict fails on correct code for a few seeds in a hundred.
    Every other sub-test keeps its own band.
    """
    dof = rep.ensemble_size - 1
    lo = stats.chi2.ppf(FOUR_SE_TAIL / 2, dof) / dof
    hi = stats.chi2.isf(FOUR_SE_TAIL / 2, dof) / dof
    ratios = {e["label"]: e["value"] for e in rep.estimates
              if e["label"].startswith("varratio")}
    return all(f in ratios and lo <= ratios[f] <= hi for f in rep.failures)


def _flip_largest(a: np.ndarray) -> np.ndarray:
    """Copy of `a` with its largest-magnitude coefficient negated."""
    out = a.copy()
    i = np.unravel_index(np.argmax(np.abs(out)), out.shape)
    out[i] = -out[i]
    return out


def _field_with_w2(n: int, profile, seed: int, alpha0: float, w2: float) -> sp.SpectralField:
    """Seeded random field rescaled to |u|_W^2 = w2, so every seed sits in one regime."""
    u = sp.random_divfree_field(n, profile, seed=seed)
    now = float(sp.sobolev_norm_sq(u.coeffs, sp.mode_table(n).lam, sp.theta(alpha0)))
    return u * np.sqrt(w2 / now)


def _grid_bytes(paths: int, fields: int, grid: int, itemsize: int) -> int:
    return paths * fields * grid**3 * itemsize


# -- ensemble-n6: criteria 3-6 ------------------------------------------------------

class EnsembleN6:
    """N=6 expo-em ensemble with the MP2/energy/Doob suite and a paired run."""

    name = "ensemble-n6"
    PATHS = 1000            # one full ensemble chunk
    CORRUPTED_PATHS = 250   # 1.5x noise control; its variance ratio is ~2.25
    PILOT_PATHS = 100
    PAIRED_PATHS = 100
    PAIRED_STEPS = 50       # criterion 6 horizon, so its crossing count applies
    MIN_CROSSINGS = 20 * PAIRED_PATHS // 100
    ORACLE_STATES = 3
    CHECKPOINTS = (0.001, 0.002)

    def __init__(self, seed: int):
        s_ens, s_ws, s_pick = _sub_seeds(seed, 3)
        self.cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=0.002, scheme="expo-em", mode="full",
                                 alpha0=0.75, q0=30.0, seed=s_ens)
        self.ws_cfg = dyn.SimConfig(n=6, dt=1e-3, t_end=self.PAIRED_STEPS * 1e-3,
                                    scheme="expo-em", mode="full", alpha0=0.75, q0=60.0,
                                    seed=s_ws)
        rng = np.random.default_rng(s_pick)
        self.oracle_rows = np.sort(rng.choice(self.PATHS, self.ORACLE_STATES, replace=False))
        self.grid = nl.dealias_grid(6)

    def setup(self) -> None:
        self.tab = sp.mode_table(6)
        self.tab.pad_layout(self.grid)
        self.cov = self.cfg.covariance()
        self.phis = [self._phi((1, 0, 0), "phi1"), self._phi((0, 1, 1), "phi2")]
        dyn.run_ensemble(replace(self.cfg, t_end=self.cfg.dt), np.arange(self.PATHS),
                         phis=self.phis)

    def _phi(self, k, name):
        f = sp.SpectralField.zero(6)
        i = self.tab.index_of(k)
        f.coeffs[i] = self.tab.pol[i, 0] + 0.5 * self.tab.pol[i, 1]
        return vf.TestFunction.build(f, self.cov, name)

    def largest_array_bytes(self) -> int:
        return _grid_bytes(self.PATHS, 6, self.grid, 8)  # the six real products

    def unit(self, corrupt: bool = False) -> UnitResult:
        cfg, phis, cps = self.cfg, self.phis, self.CHECKPOINTS
        rec = dyn.run_ensemble(cfg, np.arange(self.PATHS), phis=phis)
        bad = dyn.run_ensemble(replace(cfg, noise_amplitude=1.5),
                               np.arange(self.CORRUPTED_PATHS), phis=phis)
        bias = vf.richardson_bias(cfg, np.arange(self.PILOT_PATHS), phis, cps)
        # negative control: the 1.5x ensemble stands in for the real one
        tested = bad if corrupt else rec
        mp2 = vf.test_mp2_martingale(tested, phis, cps, self.cov, bias=bias, corrupted=bad)
        e1 = vf.test_energy_supermartingale(tested, 1, cps, bias=bias)
        e2 = vf.test_energy_supermartingale(tested, 2, cps, bias=bias)
        top = float(np.nanmax(tested.h2)) * 3.0
        doob = vf.test_doob(tested, 1, cps, np.linspace(top / 8.0, top, 8))
        ws = vf.test_weak_strong(self.ws_cfg, np.arange(self.PAIRED_PATHS), R=42.0,
                                 min_crossings=self.MIN_CROSSINGS)

        states = rec.final[self.oracle_rows]
        fast = nl.b_self_batch(states, self.tab, self.grid)
        if corrupt:
            fast = _flip_largest(fast)
        oracle_err = 0.0
        for state, b in zip(states, fast):
            u = sp.SpectralField(6, state)
            ref = nl.b_direct(u, u).coeffs
            oracle_err = max(oracle_err, float(np.abs(b - ref).max() / np.abs(ref).max()))

        checks = [
            ("mp2_pass", mp2_passes_at_4se_tail(mp2)),
            ("corrupted_control_fails_variance", bool(mp2.controls[0]["valid"])),
            ("energy_e1_pass", e1.verdict == "pass"),
            ("energy_e2_pass", e2.verdict == "pass"),
            ("doob_pass", doob.verdict == "pass"),
            # zero pre-tau mismatches, equal tau_R, enough crossings
            ("weak_strong_pass", ws.verdict == "pass"),
            ("oracle_agreement_1e-10", oracle_err <= 1e-10),
        ]
        S, Sw = cfg.n_steps, self.PAIRED_STEPS
        path_steps = (S * (self.PATHS + self.CORRUPTED_PATHS + 3 * self.PILOT_PATHS)
                      + 2 * Sw * self.PAIRED_PATHS)
        blown = int(rec.blown.sum() + bad.blown.sum())
        digest = _digest([rec.final, rec.mphi, rec.h2, bad.mphi, fast]
                         + [_report_values(r) for r in (mp2, e1, e2, doob, ws)])
        notes = dict(mp2_suite_verdict=mp2.verdict, mp2_suite_failures=mp2.failures)
        return UnitResult(checks, self.PATHS + self.CORRUPTED_PATHS, blown, path_steps,
                          path_steps + 2 * self.ORACLE_STATES, None, digest, notes)


# -- tangent-n4: criterion 7 ----------------------------------------------------------

class TangentN4:
    """Single-precision tangent ensemble with chi' active, against +/- CRN pairs."""

    name = "tangent-n4"
    PATHS = 1000
    FD_PATHS = 1000
    FD_EPS = 3e-2
    #: |x|_W^2 of criterion 7's start field (seed 21); R = W2_X - 1.5 puts step 0
    #: in the middle of the chi transition band [R+1, R+2], so chi' fires there
    #: (at the criterion's R = 600 it never does)
    W2_X = 282.8
    R = W2_X - 1.5

    def __init__(self, seed: int):
        self.s_x, self.s_h, self.s_noise = _sub_seeds(seed, 3)
        self.grid = nl.dealias_grid(4)

    def setup(self) -> None:
        tab = sp.mode_table(4)
        tab.pad_layout(self.grid)
        x = _field_with_w2(4, sp.powerlaw_profile(3.0), self.s_x, 0.25, self.W2_X)
        h = sp.random_divfree_field(4, sp.powerlaw_profile(3.0, 0.5), seed=self.s_h)
        self.cfg = dyn.SimConfig(n=4, dt=0.025, t_end=0.1, scheme="expo-em", mode="cutoff",
                                 r=self.R, alpha0=0.25, q0=1.0, seed=self.s_noise)
        self.cfg.covariance()
        self.x, self.h = x.coeffs, h.coeffs
        phi = sp.SpectralField.zero(4)
        phi.set((1, 0, 0), [0, 1.0, 0.5])
        self.psi = vf.make_psi("proj", clip=10.0, phi=phi)
        dyn.run_tangent_ensemble(replace(self.cfg, t_end=self.cfg.dt), self.x, self.h,
                                 np.arange(self.PATHS), precision="single")

    def largest_array_bytes(self) -> int:
        return _grid_bytes(self.PATHS, 12, self.grid, 4)  # twelve float32 products

    def unit(self, corrupt: bool = False) -> UnitResult:
        cfg, eps = self.cfg, self.FD_EPS
        out = dyn.run_tangent_ensemble(cfg, self.x, self.h, np.arange(self.PATHS),
                                       precision="single")
        final = out["final"]
        if corrupt:
            final = final.copy()
            final[0, 0, 0] = np.nan
        vals = self.psi(final) * out["bel_sum"] / out["n_steps"]
        bel, bel_se = float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))
        ids = np.arange(self.FD_PATHS)
        plus = dyn.run_ensemble(cfg, ids, x0=self.x + eps * self.h)
        minus = dyn.run_ensemble(cfg, ids, x0=self.x - eps * self.h)
        d = (self.psi(plus.final) - self.psi(minus.final)) / (2 * eps)
        fd, fd_se = float(d.mean()), float(d.std(ddof=1) / np.sqrt(d.size))
        gap, band = abs(bel - fd), 4.0 * float(np.hypot(bel_se, fd_se))

        finite = np.isfinite(final).all(axis=(1, 2))
        checks = [
            ("bel_vs_fd_within_4se", gap <= band),
            ("tangent_final_states_finite", bool(finite.all())),
        ]
        S = cfg.n_steps
        path_steps = S * (self.PATHS + 2 * self.FD_PATHS)
        blown = int((~finite).sum() + plus.blown.sum() + minus.blown.sum())
        digest = _digest([final, out["bel_sum"], plus.final, minus.final])
        # b_self_and_linpair is B(u,u) plus the pair B(y,u) + B(u,y)
        b_evals = S * (3 * self.PATHS + 2 * self.FD_PATHS)
        notes = dict(bel=bel, fd=fd, gap=gap, band=band)
        return UnitResult(checks, self.PATHS + 2 * self.FD_PATHS, blown, path_steps,
                          b_evals, None, digest, notes)


# -- single-state: criteria 2, 8 and 9 -------------------------------------------------

class SingleState:
    """Batch-1 B calls: inequality sweep, oracle agreement and the control loop."""

    name = "single-state"
    SWEEP_TRIALS = 4
    RESOLUTIONS = (8, 16, 32)
    ORACLE_RESOLUTIONS = (4, 6, 8)
    #: criterion 9's set-up; x and y keep its W-norms (seeds 911, 913) within R/2
    CONTROL = dict(n=8, R=40.0, T=0.02, dt=1e-4, w2_x=14.6, w2_y=4.59)

    def __init__(self, seed: int):
        self.s_sweep, self.s_oracle, self.s_x, self.s_y = _sub_seeds(seed, 4)

    def setup(self) -> None:
        for n in self.RESOLUTIONS + self.ORACLE_RESOLUTIONS:
            sp.mode_table(n).pad_layout(nl.dealias_grid(n))
        c = self.CONTROL
        self.cfg = dyn.SimConfig(n=c["n"], dt=c["dt"], t_end=c["T"], scheme="em",
                                 mode="cutoff", r=c["R"], alpha0=0.75, q0=1.0, seed=0)
        self.cfg.covariance()
        prof = sp.powerlaw_profile(4.0)
        self.x = _field_with_w2(c["n"], prof, self.s_x, 0.75, c["w2_x"])
        self.y = _field_with_w2(c["n"], prof, self.s_y, 0.75, c["w2_y"])
        n = max(self.RESOLUTIONS)
        u = sp.random_divfree_field(n, sp.powerlaw_profile(5.0), self.s_sweep)
        nl.b_batch(u.coeffs, u.coeffs, sp.mode_table(n), nl.dealias_grid(n))

    def largest_array_bytes(self) -> int:
        # the three complex half-cube gradients of v in one batch-1 b_batch at N=32
        g = nl.dealias_grid(max(self.RESOLUTIONS))
        return 3 * g * g * (g // 2 + 1) * 16

    def unit(self, corrupt: bool = False) -> UnitResult:
        t0 = time.perf_counter()
        spec = vf.SweepSpec(alphas=(0.3, 0.75, 1.0), include_half=True, eps_half=0.01,
                            resolutions=self.RESOLUTIONS, trials=self.SWEEP_TRIALS,
                            profile_exponent=5.0, seed=self.s_sweep, spread_tol=0.10)
        rows, _, verdict = vf.inequality_sweep(spec)
        sweep_s = time.perf_counter() - t0

        oracle_err, fast_out = 0.0, []
        for n in self.ORACLE_RESOLUTIONS:
            u = sp.random_divfree_field(n, sp.powerlaw_profile(2.0), self.s_oracle, stream=2 * n)
            v = sp.random_divfree_field(n, sp.powerlaw_profile(2.0), self.s_oracle,
                                        stream=2 * n + 1)
            ref = nl.b_direct(u, v).coeffs
            fast = nl.b_pseudospectral(u, v).coeffs
            if corrupt and n == self.ORACLE_RESOLUTIONS[-1]:
                fast = _flip_largest(fast)
            fast_out.append(fast)
            oracle_err = max(oracle_err, float(np.abs(fast - ref).max() / np.abs(ref).max()))

        c = self.CONTROL
        w_inc, designed, info = dyn.build_control(self.x, self.y, c["T"], c["R"], self.cfg)
        rec = dyn.solve_controlled(self.x, w_inc, c["R"], self.cfg)
        end = rec.series[-1]
        if corrupt:
            end = _flip_largest(end)
        w_w = sp.mode_table(c["n"]).lam ** (2 * sp.theta(self.cfg.alpha0))
        end_w = float(np.sqrt(2 * ((np.abs(end - self.y.coeffs) ** 2).sum(-1) * w_w).sum()))

        n_alpha = 4
        checks = [
            ("sweep_bounded", verdict == "bounded"
             and len(rows) == n_alpha * len(self.RESOLUTIONS) * self.SWEEP_TRIALS),
            ("oracle_agreement_1e-10", oracle_err <= 1e-10),
            ("control_endpoint_1e-8", end_w <= 1e-8),
            ("control_sup_w2_le_R", info["sup_w2"] <= c["R"]),
        ]
        S = self.cfg.n_steps
        digest = _digest([np.array([r[3] for r in rows]), w_inc, rec.series] + fast_out)
        # build_control drifts S steps (free leg plus residual leg); the replay S more
        notes = dict(oracle_rel_err=oracle_err, control_endpoint_w=end_w,
                     control_sup_w2=info["sup_w2"])
        return UnitResult(checks, 1, int(rec.blown), 2 * S,
                          len(self.RESOLUTIONS) * self.SWEEP_TRIALS, sweep_s, digest, notes)


WORKLOADS = {w.name: w for w in (EnsembleN6, TangentN4, SingleState)}
