"""Time integration of the truncated stochastic Navier-Stokes system.

Schemes: plain Euler-Maruyama (`em`, cleanest Ito correspondence, explicit
stability guard dt * nu * lam_max <= 1) and an exponential variant
(`expo-em`) that integrates the linear/noise part per mode as an exact
Ornstein-Uhlenbeck update with the advection term explicit.

Modes: `full` (the real dynamics), `cutoff` (advection multiplied by
chi_R(|u|_W^2)), `deterministic` (noise off), `stokes` (advection off).
In cutoff mode chi evaluates to exactly 1.0 while |u|_W^2 <= R+1, so full
and cutoff runs with the same noise are bitwise identical until the
stopping level is reached.

All cumulative functionals use left-endpoint quadrature, consistent with
the Ito convention and the discrete schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod
from .nonlinearity import b_linpair_batch, b_self_batch, dealias_grid
from .noise import CovarianceSpec, build_covariance, ou_decay, ou_variance
from .spectral import SpectralField, mode_table, pair_with, theta

#: fixed ensemble chunk size; constant so artifacts do not depend on worker count
CHUNK = 1000

SCHEMES = ("em", "expo-em")
MODES = ("full", "cutoff", "deterministic", "stokes")


class BlowupError(RuntimeError):
    def __init__(self, step: int, path_id: int):
        super().__init__(f"nonfinite state at step {step} (path {path_id})")
        self.step = step
        self.path_id = path_id


class ControlError(RuntimeError):
    pass


@dataclass
class SimConfig:
    n: int
    dt: float
    t_end: float
    nu: float = 1.0
    scheme: str = "em"
    mode: str = "full"
    r: float | None = None
    alpha0: float = 0.75
    q0: float = 1.0
    seed: int = 0
    snapshot_stride: int = 0
    n_max: int = 2
    pad_factor: float = 1.5
    noise_amplitude: float = 1.0  # sampling-side corruption knob; bookkeeping unscaled

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.mode == "cutoff":
            if self.r is None or self.r < 1:
                raise ValueError("cutoff mode needs a level R >= 1")
        lam_max = float(mode_table(self.n).lam.max())
        if self.scheme == "em" and self.dt * self.nu * lam_max > 1.0 + 1e-12:
            raise ValueError(
                f"em scheme unstable: dt*nu*lam_max = {self.dt * self.nu * lam_max:.3g} > 1 "
                "(use expo-em or shrink dt)")

    @property
    def n_steps(self) -> int:
        steps = int(round(self.t_end / self.dt))
        if abs(steps * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        return steps

    def covariance(self) -> CovarianceSpec:
        return build_covariance(self.alpha0, self.q0, self.n)


def chi_r(r, R: float):
    """Cut-off profile: 1 on [0, R+1], cubic smoothstep down to 0 at R+2.

    C^1, non-increasing, max slope 3/2 on the unit transition interval.
    """
    if R < 1:
        raise ValueError("cut-off level R must be >= 1")
    r = np.asarray(r, dtype=np.float64)
    s = np.clip(r - (R + 1.0), 0.0, 1.0)
    out = 1.0 - s * s * (3.0 - 2.0 * s)
    return out if out.ndim else float(out)


def chi_r_prime(r, R: float):
    """Derivative of chi_r; nonzero only on the transition band."""
    r = np.asarray(r, dtype=np.float64)
    s = r - (R + 1.0)
    inside = (s > 0.0) & (s < 1.0)
    out = np.where(inside, -6.0 * s * (1.0 - s), 0.0)
    return out if out.ndim else float(out)


# -- noise providers -----------------------------------------------------------

def _noise_block(cfg: SimConfig, cov: CovarianceSpec, path_ids, step: int,
                 provider: str = "native", fine_dt: float | None = None):
    """One step of scheme noise for a batch of paths.

    provider "native": increments match the scheme at cfg.dt.
    provider "coupled-coarse": compose the two fine half-steps at fine_dt =
    cfg.dt/2 so a coarse path is pathwise coupled to its fine twin (used by
    the Richardson bias pilot).
    """
    if cfg.mode == "deterministic" or cfg.noise_amplitude == 0.0:
        P = len(np.atleast_1d(path_ids))
        return np.zeros((P, cov.table.n_modes, 3), dtype=np.complex128)
    amp = cfg.noise_amplitude
    if provider == "native":
        if cfg.scheme == "em":
            return noise_mod.wiener_block(cov, cfg.dt, cfg.seed, path_ids, step, amp)
        return noise_mod.ou_block(cov, cfg.dt, cfg.seed, path_ids, step, cfg.nu, amp)
    if provider == "coupled-coarse":
        if fine_dt is None:
            fine_dt = cfg.dt / 2.0
        g1 = None
        if cfg.scheme == "em":
            g1 = noise_mod.wiener_block(cov, fine_dt, cfg.seed, path_ids, 2 * step, amp)
            g2 = noise_mod.wiener_block(cov, fine_dt, cfg.seed, path_ids, 2 * step + 1, amp)
            return g1 + g2
        g1 = noise_mod.ou_block(cov, fine_dt, cfg.seed, path_ids, 2 * step, cfg.nu, amp)
        g2 = noise_mod.ou_block(cov, fine_dt, cfg.seed, path_ids, 2 * step + 1, cfg.nu, amp)
        half_decay = ou_decay(cov, fine_dt, cfg.nu)
        return half_decay[None, :, None] * g1 + g2
    raise ValueError(f"unknown noise provider {provider!r}")


# -- ensemble records ----------------------------------------------------------

@dataclass
class EnsembleRecord:
    """Per-path functional time series for an ensemble run."""

    cfg: SimConfig
    path_ids: np.ndarray
    times: np.ndarray                      # (S+1,)
    h2: np.ndarray                         # (P, S+1)  |u|_H^2
    v2: np.ndarray                         # (P, S+1)  |u|_V^2
    w2: np.ndarray                         # (P, S+1)  |u|_W^2
    int_v2: np.ndarray                     # (P, S+1)  cumulative |u|_V^2
    int_h2nm2_v2: dict                     # n -> (P, S+1) cumulative |u|^{2n-2}|u|_V^2
    int_h2nm2: dict                        # n -> (P, S+1) cumulative |u|^{2n-2}
    sigma_sq: float
    mphi: np.ndarray | None = None         # (n_phi, P, S+1)
    proj_phi: np.ndarray | None = None     # (n_phi, P, S+1)
    final: np.ndarray | None = None        # (P, K, 3)
    blown: np.ndarray | None = None        # (P,) bool
    blow_step: np.ndarray | None = None
    series: np.ndarray | None = None       # (P, S+1, K, 3) when state series kept

    def energy_series(self, n: int) -> np.ndarray:
        """E^n per path on the grid (left-endpoint quadrature inside)."""
        nu = self.cfg.nu
        if n == 1:
            diss = self.int_v2
            ito = self.times[None, :]
        else:
            if n not in self.int_h2nm2_v2:
                raise ValueError(f"moment n={n} beyond tracked n_max")
            diss = self.int_h2nm2_v2[n]
            ito = self.int_h2nm2[n]
        return (self.h2**n + 2.0 * n * nu * diss
                - self.h2[:, :1]**n - n * (2 * n - 1) * self.sigma_sq * ito)

    def checkpoint_index(self, t: float) -> int:
        i = int(round(t / self.cfg.dt))
        if not (0 <= i < self.times.size) or abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the grid")
        return i

    def tau_r(self, R: float) -> np.ndarray:
        return stopping_time_tau_r_series(self.w2, self.times, R)


def stopping_time_tau_r_series(w2: np.ndarray, times: np.ndarray, R: float) -> np.ndarray:
    """First grid time with |u|_W^2 >= R per path; +inf when never reached."""
    hit = w2 >= R
    any_hit = hit.any(axis=-1)
    first = hit.argmax(axis=-1)
    out = np.where(any_hit, times[first], np.inf)
    return out


def stopping_time_tau_r(record, R: float) -> float:
    """Right-continuous grid detection of the exit time for a single record."""
    w2 = np.atleast_2d(record.w2)
    return float(stopping_time_tau_r_series(w2, record.times, R)[0])


# -- the batched stepper -------------------------------------------------------

def _w_weights(cfg: SimConfig, tab) -> np.ndarray:
    return tab.lam ** (2.0 * theta(cfg.alpha0))


def _norm_sq(coeffs: np.ndarray, *weights):
    """Per-path 2 sum_k w_k |u_k|^2 for each weight vector w (None: unweighted).

    |u_k|^2 is formed once and shared by all the sums.  With at most one
    weight the sum itself comes back, otherwise a tuple in the given order.
    """
    mag = (coeffs.real**2 + coeffs.imag**2).sum(axis=-1)
    sums = tuple(2.0 * (mag if w is None else mag * w).sum(axis=-1)
                 for w in weights or (None,))
    return sums[0] if len(sums) == 1 else sums


def _chi_of(cfg: SimConfig, w2: np.ndarray) -> np.ndarray:
    if cfg.mode == "cutoff":
        return np.asarray(chi_r(w2, cfg.r), dtype=np.float64)
    return np.ones_like(w2)


def run_ensemble(cfg: SimConfig, path_ids, x0=None, phis=(), chunk: int = CHUNK,
                 noise_provider: str = "native", keep_final: bool = True,
                 keep_series: bool = False, workers: int = 1) -> EnsembleRecord:
    """Integrate an ensemble of paths, tracking the martingale-problem functionals.

    phis: sequence of TestFunction-like objects exposing .coeffs, .a_coeffs.
    Results are independent of `chunk`-internal batching because every path's
    arithmetic touches only its own slice; CHUNK is fixed for reproducibility.
    """
    path_ids = np.asarray(path_ids, dtype=np.int64)
    parts = [slice(i, min(i + chunk, path_ids.size))
             for i in range(0, path_ids.size, chunk)]
    args = [(cfg, path_ids[s], _x0_block(x0, s, path_ids.size), phis,
             noise_provider, keep_final, keep_series) for s in parts]
    results = _map_tasks(_run_chunk_star, args, workers)
    return _merge_records(cfg, path_ids, results)


def _pool_init():
    from .nonlinearity import set_fft_workers
    set_fft_workers(1)


def _map_tasks(fn, args, workers: int):
    """Order-preserving chunk map; byte-identical for any worker count."""
    if workers > 1 and len(args) > 1:
        import multiprocessing as mp
        with mp.get_context("fork").Pool(workers, initializer=_pool_init) as pool:
            return pool.map(fn, args)
    return [fn(a) for a in args]


def _x0_block(x0, sl: slice, total: int):
    if x0 is None:
        return None
    x0 = np.asarray(x0, dtype=np.complex128)
    if x0.ndim == 2:
        return x0
    if x0.ndim == 3 and x0.shape[0] == total:
        return x0[sl]
    raise ValueError("x0 must be (K,3) or (P,K,3)")


def _run_chunk_star(args):
    return _run_chunk(*args)


def _run_chunk(cfg: SimConfig, ids: np.ndarray, x0, phis, noise_provider: str,
               keep_final: bool, keep_series: bool) -> dict:
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    P, K = ids.size, tab.n_modes
    dt, nu = cfg.dt, cfg.nu
    w_w = _w_weights(cfg, tab)
    lam = tab.lam

    u = np.zeros((P, K, 3), dtype=np.complex128)
    if x0 is not None:
        u[:] = x0
    decay = ou_decay(cov, dt, nu) if cfg.scheme == "expo-em" else None

    h2 = np.empty((P, S + 1)); v2 = np.empty((P, S + 1)); w2 = np.empty((P, S + 1))
    int_v2 = np.zeros((P, S + 1))
    moments = range(2, cfg.n_max + 1)
    int_h2nm2_v2 = {n: np.zeros((P, S + 1)) for n in moments}
    int_h2nm2 = {n: np.zeros((P, S + 1)) for n in moments}
    n_phi = len(phis)
    mphi = np.zeros((n_phi, P, S + 1)) if n_phi else None
    proj = np.zeros((n_phi, P, S + 1)) if n_phi else None
    blown = np.zeros(P, dtype=bool)
    blow_step = np.full(P, -1, dtype=np.int64)
    series = np.empty((P, S + 1, K, 3), dtype=np.complex128) if keep_series else None

    use_b = cfg.mode != "stokes"
    for s in range(S + 1):
        h2[:, s], v2[:, s], w2[:, s] = _norm_sq(u, None, lam, w_w)
        if n_phi:
            for j, phi in enumerate(phis):
                proj[j, :, s] = pair_with(u, phi.coeffs)
        if keep_series:
            series[:, s] = u
        if s == S:
            break
        # left-endpoint quadrature of the running integrals
        int_v2[:, s + 1] = int_v2[:, s] + dt * v2[:, s]
        for n in moments:
            hp = h2[:, s] ** (n - 1)
            int_h2nm2_v2[n][:, s + 1] = int_h2nm2_v2[n][:, s] + dt * hp * v2[:, s]
            int_h2nm2[n][:, s + 1] = int_h2nm2[n][:, s] + dt * hp

        b = b_self_batch(u, tab, grid) if use_b else None
        chi = _chi_of(cfg, w2[:, s])
        g = _noise_block(cfg, cov, ids, s, noise_provider)
        if cfg.scheme == "em":
            drift = nu * lam[None, :, None] * u
            if use_b:
                drift = drift + chi[:, None, None] * b
            u_next = u - dt * drift + g
        else:
            core = u - dt * (chi[:, None, None] * b) if use_b else u
            u_next = decay[None, :, None] * core + g
        if n_phi:
            du = u_next - u
            for j, phi in enumerate(phis):
                inc = (pair_with(du, phi.coeffs)
                       + dt * nu * pair_with(u, phi.a_coeffs))
                if use_b:
                    inc = inc + dt * pair_with(b, phi.coeffs)
                mphi[j, :, s + 1] = mphi[j, :, s] + inc
        bad = ~np.isfinite(u_next).all(axis=(1, 2))
        fresh = bad & ~blown
        if fresh.any():
            blown |= fresh
            blow_step[fresh] = s + 1
            u_next[fresh] = np.nan
        u = u_next

    out = dict(ids=ids, h2=h2, v2=v2, w2=w2, int_v2=int_v2,
               int_h2nm2_v2=int_h2nm2_v2, int_h2nm2=int_h2nm2,
               mphi=mphi, proj=proj, blown=blown, blow_step=blow_step,
               sigma_sq=cov.sigma_sq_total)
    if keep_final:
        out["final"] = u
    if keep_series:
        out["series"] = series
    return out


def _merge_records(cfg: SimConfig, path_ids: np.ndarray, chunks: list[dict]) -> EnsembleRecord:
    S = cfg.n_steps
    times = np.arange(S + 1) * cfg.dt

    def cat(key):
        vals = [c[key] for c in chunks]
        if vals[0] is None:
            return None
        axis = 1 if key in ("mphi", "proj") else 0
        return np.concatenate(vals, axis=axis)

    moments = chunks[0]["int_h2nm2_v2"].keys()
    return EnsembleRecord(
        cfg=cfg, path_ids=path_ids, times=times,
        h2=cat("h2"), v2=cat("v2"), w2=cat("w2"), int_v2=cat("int_v2"),
        int_h2nm2_v2={n: np.concatenate([c["int_h2nm2_v2"][n] for c in chunks]) for n in moments},
        int_h2nm2={n: np.concatenate([c["int_h2nm2"][n] for c in chunks]) for n in moments},
        sigma_sq=chunks[0]["sigma_sq"],
        mphi=cat("mphi"), proj_phi=cat("proj"),
        final=cat("final") if "final" in chunks[0] else None,
        blown=cat("blown"), blow_step=cat("blow_step"),
        series=cat("series") if "series" in chunks[0] else None,
    )


def step(u: SpectralField, cfg: SimConfig, noise: SpectralField | None = None) -> SpectralField:
    """One scheme step of a single state, with the given noise increment.

    Matches the ensemble engine's arithmetic exactly (same kernels, same
    cutoff evaluation); deterministic/stokes modes ignore/skip the advection
    and noise accordingly.
    """
    from .nonlinearity import b_self_batch
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    uc = u.coeffs[None]
    w2 = _norm_sq(uc, _w_weights(cfg, tab))
    chi = _chi_of(cfg, w2)
    b = b_self_batch(uc, tab, grid) if cfg.mode != "stokes" else None
    g = np.zeros_like(uc)
    if noise is not None and cfg.mode != "deterministic":
        g = noise.coeffs[None]
    if cfg.scheme == "em":
        drift = cfg.nu * tab.lam[None, :, None] * uc
        if b is not None:
            drift = drift + chi[:, None, None] * b
        out = uc - cfg.dt * drift + g
    else:
        decay = ou_decay(cov, cfg.dt, cfg.nu)
        core = uc - cfg.dt * (chi[:, None, None] * b) if b is not None else uc
        out = decay[None, :, None] * core + g
    if not np.isfinite(out).all():
        raise BlowupError(0, -1)
    return SpectralField(cfg.n, out[0])


# -- single-path front door ----------------------------------------------------

@dataclass
class PathRecord:
    """One path's trajectory functionals plus optional field snapshots."""

    cfg: SimConfig
    times: np.ndarray
    h2: np.ndarray
    v2: np.ndarray
    w2: np.ndarray
    int_v2: np.ndarray
    int_h2nm2_v2: dict
    int_h2nm2: dict
    sigma_sq: float
    mphi: dict                      # name -> (S+1,) accumulator
    snapshots: list                 # [(t, SpectralField)]
    blown: bool
    blow_step: int
    series: np.ndarray | None = None

    def energy_series(self, n: int) -> np.ndarray:
        nu = self.cfg.nu
        if n == 1:
            diss, ito = self.int_v2, self.times
        else:
            diss, ito = self.int_h2nm2_v2[n], self.int_h2nm2[n]
        return (self.h2**n + 2.0 * n * nu * diss
                - self.h2[0]**n - n * (2 * n - 1) * self.sigma_sq * ito)

    def tau_r(self, R: float) -> float:
        return stopping_time_tau_r(self, R)


def _record_from_ensemble(rec: EnsembleRecord, cfg: SimConfig, phis, names) -> PathRecord:
    snapshots = []
    if cfg.snapshot_stride and rec.series is not None:
        for s in range(0, rec.times.size, cfg.snapshot_stride):
            snapshots.append((rec.times[s], SpectralField(cfg.n, rec.series[0, s].copy())))
    mphi = {}
    if rec.mphi is not None:
        for j, name in enumerate(names):
            mphi[name] = rec.mphi[j, 0]
    return PathRecord(
        cfg=cfg, times=rec.times, h2=rec.h2[0], v2=rec.v2[0], w2=rec.w2[0],
        int_v2=rec.int_v2[0],
        int_h2nm2_v2={n: a[0] for n, a in rec.int_h2nm2_v2.items()},
        int_h2nm2={n: a[0] for n, a in rec.int_h2nm2.items()},
        sigma_sq=rec.sigma_sq, mphi=mphi, snapshots=snapshots,
        blown=bool(rec.blown[0]), blow_step=int(rec.blow_step[0]),
        series=rec.series[0] if rec.series is not None else None,
    )


def simulate_path(cfg: SimConfig, path_id: int = 0, x0: SpectralField | None = None,
                  phis=(), keep_series: bool | None = None,
                  raise_on_blowup: bool = True) -> PathRecord:
    """Integrate one path.

    A nonfinite state aborts with BlowupError carrying the step index and
    the partial record; ensembles instead census blow-ups per path.
    """
    keep = bool(cfg.snapshot_stride) if keep_series is None else keep_series
    x = None if x0 is None else x0.coeffs
    rec = run_ensemble(cfg, [path_id], x0=x, phis=phis, keep_series=keep)
    names = [getattr(p, "name", f"phi{j}") for j, p in enumerate(phis)]
    record = _record_from_ensemble(rec, cfg, phis, names)
    if record.blown and raise_on_blowup:
        err = BlowupError(record.blow_step, path_id)
        err.partial_record = record
        raise err
    return record


def solve_stokes_z(cfg: SimConfig, path_id: int = 0,
                   keep_series: bool = True) -> PathRecord:
    """Linear (advection-off) path driven by the same noise stream as the
    full dynamics for the same (seed, path)."""
    zcfg = replace(cfg, mode="stokes")
    rec = run_ensemble(zcfg, [path_id], keep_series=keep_series)
    return _record_from_ensemble(rec, zcfg, (), ())


def solve_auxiliary_v(u0: SpectralField, z_series: np.ndarray, cfg: SimConfig) -> PathRecord:
    """Deterministic auxiliary equation dv/dt + Av + B(v+z, v+z) = 0.

    z_series is the (S+1, K, 3) trajectory of the linear part on the same
    grid; v + z reconstructs the full-mode path driven by that noise.
    """
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    if z_series.shape[0] != S + 1:
        raise ValueError("z series grid does not match the configured horizon")
    dt, nu = cfg.dt, cfg.nu
    lam = tab.lam
    decay = ou_decay(cov, dt, nu) if cfg.scheme == "expo-em" else None
    v = u0.coeffs[None, :, :].astype(np.complex128).copy()
    h2 = np.empty(S + 1); v2 = np.empty(S + 1); w2 = np.empty(S + 1)
    w_w = _w_weights(cfg, tab)
    series = np.empty((S + 1, tab.n_modes, 3), dtype=np.complex128)
    blown, blow_step = False, -1
    for s in range(S + 1):
        h2[s], v2[s], w2[s] = (x[0] for x in _norm_sq(v, None, lam, w_w))
        series[s] = v[0]
        if s == S:
            break
        total = v + z_series[None, s]
        b = b_self_batch(total, tab, grid)
        if cfg.scheme == "em":
            v = v - dt * (nu * lam[None, :, None] * v + b)
        else:
            v = decay[None, :, None] * (v - dt * b)
        if not np.isfinite(v).all() and not blown:
            blown, blow_step = True, s + 1
            v[:] = np.nan
    times = np.arange(S + 1) * dt
    return PathRecord(cfg=cfg, times=times, h2=h2, v2=v2, w2=w2,
                      int_v2=np.concatenate([[0.0], np.cumsum(v2[:-1]) * dt]),
                      int_h2nm2_v2={}, int_h2nm2={}, sigma_sq=cov.sigma_sq_total,
                      mphi={}, snapshots=[], blown=blown, blow_step=blow_step,
                      series=series)


def linearized_flow(u_series: np.ndarray, h: SpectralField, cfg: SimConfig) -> np.ndarray:
    """Derivative flow along a stored trajectory: exact Jacobian of the scheme.

    Solves the linearization of the cutoff dynamics with Du(0) = h, using the
    same scheme and grid that produced u_series.  Returns (S+1, K, 3).
    """
    if cfg.mode not in ("cutoff", "full", "deterministic", "stokes"):
        raise ValueError("unsupported mode")
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    if u_series.shape[0] != S + 1:
        raise ValueError("u series grid does not match the configured horizon")
    dt, nu = cfg.dt, cfg.nu
    lam = tab.lam
    w_w = _w_weights(cfg, tab)
    decay = ou_decay(cov, dt, nu) if cfg.scheme == "expo-em" else None
    y = h.coeffs[None, :, :].astype(np.complex128).copy()
    out = np.empty((S + 1, tab.n_modes, 3), dtype=np.complex128)
    out[0] = y[0]
    for s in range(S):
        u = u_series[None, s]
        y = _linearized_step(y, u, cfg, tab, cov, grid, lam, w_w, decay)
        out[s + 1] = y[0]
    return out


def _linearized_step(y, u, cfg, tab, cov, grid, lam, w_w, decay):
    """One exact-Jacobian step of the scheme for a batch of tangents."""
    dt, nu = cfg.dt, cfg.nu
    if cfg.mode == "stokes":
        lin = None
    else:
        lin = b_linpair_batch(u, y, tab, grid)
        if cfg.mode == "cutoff":
            w2 = _norm_sq(u, w_w)
            chi = np.asarray(chi_r(w2, cfg.r))
            chip = np.asarray(chi_r_prime(w2, cfg.r))
            lin = chi[:, None, None] * lin
            if np.any(chip != 0.0):
                buu = b_self_batch(u, tab, grid)
                wpair = 2.0 * np.real(np.einsum("pkj,pkj,k->p", u, np.conj(y), w_w))
                lin = lin + (2.0 * chip * wpair)[:, None, None] * buu
    if cfg.scheme == "em":
        drift = nu * lam[None, :, None] * y
        if lin is not None:
            drift = drift + lin
        return y - dt * drift
    core = y - dt * lin if lin is not None else y
    return decay[None, :, None] * core


# -- weak-strong paired runs ---------------------------------------------------

def paired_full_cutoff(cfg: SimConfig, path_ids, R: float, x0=None,
                       x0_cutoff=None):
    """Lockstep full vs cutoff runs with identical noise, compared bitwise.

    Both runs batch the same paths with identical array shapes, so each
    path's floating-point stream is reproducible; while |u|_W^2 <= R+1 the
    cutoff factor is exactly 1.0 and the two states must agree bit for bit.

    x0_cutoff perturbs the cutoff member's start; it exists purely as a
    negative control (any divergence must be flagged).

    Returns a dict with tau arrays, the number of per-path bitwise
    mismatches at steps up to and including tau detection, and the maximum
    absolute coefficient discrepancy seen over that window (0.0 on pass).
    """
    full_cfg = replace(cfg, mode="full", r=None)
    cut_cfg = replace(cfg, mode="cutoff", r=R)
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    path_ids = np.asarray(path_ids, dtype=np.int64)
    P = path_ids.size
    dt, nu = cfg.dt, cfg.nu
    lam = tab.lam
    w_w = _w_weights(cfg, tab)
    decay = ou_decay(cov, dt, nu) if cfg.scheme == "expo-em" else None

    uf = np.zeros((P, tab.n_modes, 3), dtype=np.complex128)
    if x0 is not None:
        uf[:] = x0
    uc = uf.copy()
    if x0_cutoff is not None:
        uc[:] = x0_cutoff
    w2f = np.empty((P, S + 1)); w2c = np.empty((P, S + 1))
    detected = np.full(P, S + 1, dtype=np.int64)  # step index of tau detection
    mismatch = np.zeros(P, dtype=np.int64)
    max_disc = 0.0

    def advance(u, b, g, chi):
        if cfg.scheme == "em":
            return u - dt * (nu * lam[None, :, None] * u + chi[:, None, None] * b) + g
        return decay[None, :, None] * (u - dt * (chi[:, None, None] * b)) + g

    for s in range(S + 1):
        w2f[:, s] = _norm_sq(uf, w_w)
        w2c[:, s] = _norm_sq(uc, w_w)
        hit = (w2c[:, s] >= R) & (detected > S)
        detected[hit] = s
        live = detected >= s  # up to and including the detection step
        if live.any():
            eq = (uf == uc).all(axis=(1, 2))
            bad = live & ~eq
            if bad.any():
                mismatch[bad] += 1
                max_disc = max(max_disc, float(np.abs(uf[bad] - uc[bad]).max()))
        if s == S:
            break
        g = _noise_block(full_cfg, cov, path_ids, s)
        bf = b_self_batch(uf, tab, grid)
        bc = b_self_batch(uc, tab, grid)
        uf = advance(uf, bf, g, np.ones(P))
        uc = advance(uc, bc, g, np.asarray(chi_r(w2c[:, s], R)))

    times = np.arange(S + 1) * dt
    tau_f = stopping_time_tau_r_series(w2f, times, R)
    tau_c = stopping_time_tau_r_series(w2c, times, R)
    return dict(times=times, tau_full=tau_f, tau_cutoff=tau_c,
                mismatch_steps=mismatch, max_discrepancy=max_disc,
                crossings=int(np.isfinite(tau_c).sum()),
                w2_full=w2f, w2_cutoff=w2c)


# -- controllability -----------------------------------------------------------

def _euler_drift(u, cfg, tab, cov, grid, R):
    lam = mode_table(cfg.n).lam
    w2 = _norm_sq(u, _w_weights(cfg, tab))
    chi = np.asarray(chi_r(w2, R))
    b = b_self_batch(u, tab, grid)
    return cfg.nu * lam[None, :, None] * u + chi[:, None, None] * b


def solve_controlled(x: SpectralField, w_increments: np.ndarray, R: float,
                     cfg: SimConfig) -> PathRecord:
    """Forward-Euler cutoff dynamics driven by control increments.

    The step matches build_control's residual definition, so replaying a
    constructed control reproduces the designed trajectory to roundoff.
    """
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    if w_increments.shape[0] != S:
        raise ValueError("control increments must cover every step")
    lam_max = float(tab.lam.max())
    if cfg.dt * cfg.nu * lam_max > 1.0 + 1e-12:
        raise ValueError("forward Euler needs dt*nu*lam_max <= 1 for the control loop")
    u = x.coeffs[None, :, :].astype(np.complex128).copy()
    w_w = _w_weights(cfg, tab)
    h2 = np.empty(S + 1); v2 = np.empty(S + 1); w2 = np.empty(S + 1)
    series = np.empty((S + 1, tab.n_modes, 3), dtype=np.complex128)
    blown, blow_step = False, -1
    for s in range(S + 1):
        h2[s], v2[s], w2[s] = (x[0] for x in _norm_sq(u, None, tab.lam, w_w))
        series[s] = u[0]
        if s == S:
            break
        u = u - cfg.dt * _euler_drift(u, cfg, tab, cov, grid, R) + w_increments[None, s]
        if not np.isfinite(u).all() and not blown:
            blown, blow_step = True, s + 1
            u[:] = np.nan
    times = np.arange(S + 1) * cfg.dt
    return PathRecord(cfg=cfg, times=times, h2=h2, v2=v2, w2=w2,
                      int_v2=np.concatenate([[0.0], np.cumsum(v2[:-1]) * cfg.dt]),
                      int_h2nm2_v2={}, int_h2nm2={}, sigma_sq=cov.sigma_sq_total,
                      mphi={}, snapshots=[], blown=blown, blow_step=blow_step,
                      series=series)


def build_control(x: SpectralField, y: SpectralField, T: float, R: float,
                  cfg: SimConfig, max_retries: int = 6):
    """Steer x to y through the cutoff dynamics: drift freely, then interpolate.

    Leg one runs the uncontrolled equation until a time T* with the W-ball
    constraint intact; leg two replaces the trajectory by the line segment to
    y and defines the control as the integrated residual.  Returns
    (w_increments (S, K, 3), designed_series (S+1, K, 3), info dict).
    """
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    w_w = _w_weights(cfg, tab)
    if _norm_sq(x.coeffs[None], w_w)[0] > R / 2 + 1e-12:
        raise ControlError("|x|_W^2 exceeds R/2")
    if _norm_sq(y.coeffs[None], w_w)[0] > R / 2 + 1e-12:
        raise ControlError("|y|_W^2 exceeds R/2")
    S = int(round(T / cfg.dt))
    if abs(S * cfg.dt - T) > 1e-9 or S < 2:
        raise ControlError("horizon must be an integer (>= 2) multiple of dt")
    cfgT = replace(cfg, t_end=T, mode="cutoff", r=R)

    # leg one: uncontrolled, shrink the budget until the W-ball holds
    budget = S // 2
    for _ in range(max_retries):
        u = x.coeffs[None, :, :].astype(np.complex128).copy()
        leg = np.empty((budget + 1, tab.n_modes, 3), dtype=np.complex128)
        leg[0] = u[0]
        ok = budget
        for s in range(budget):
            u = u - cfg.dt * _euler_drift(u, cfgT, tab, cov, grid, R)
            leg[s + 1] = u[0]
            if _norm_sq(u, w_w)[0] > R:
                ok = s  # last index still inside the ball
                break
        if ok == budget:
            break
        budget = max(ok // 2, 1)
        if budget <= 1 and ok == 0:
            raise ControlError("uncontrolled leg exits the W-ball immediately")
    else:
        raise ControlError("could not find a usable free-drift window")
    t_star_idx = budget

    designed = np.empty((S + 1, tab.n_modes, 3), dtype=np.complex128)
    designed[:t_star_idx + 1] = leg[:t_star_idx + 1]
    frac = (np.arange(t_star_idx, S + 1) - t_star_idx) / (S - t_star_idx)
    designed[t_star_idx:] = ((1.0 - frac)[:, None, None] * leg[t_star_idx]
                             + frac[:, None, None] * y.coeffs[None])
    designed[S] = y.coeffs

    w_inc = np.zeros((S, tab.n_modes, 3), dtype=np.complex128)
    for s in range(t_star_idx, S):
        u = designed[None, s]
        free = u - cfg.dt * _euler_drift(u, cfgT, tab, cov, grid, R)
        w_inc[s] = designed[s + 1] - free[0]
    sup_w2 = float(_norm_sq(designed, w_w).max())
    if sup_w2 > R * (1.0 + 1e-12):
        raise ControlError(f"designed path leaves the W-ball: sup |u|_W^2 = {sup_w2:.3g} > {R}")
    info = dict(t_star=t_star_idx * cfg.dt, sup_w2=sup_w2,
                endpoint_error_w=0.0, steps=S)
    return w_inc, designed, info


# -- derivative-flow ensemble for gradient probes --------------------------------

def run_tangent_ensemble(cfg: SimConfig, x: np.ndarray, h: np.ndarray, path_ids,
                         chunk: int = CHUNK, workers: int = 1,
                         precision: str = "double") -> dict:
    """Co-integrate u (cutoff dynamics) and its tangent Du with Du(0) = h,
    accumulating the gradient-representation integrand

        S = sum_n < Du_{n+1}, g_n >_H weighted per mode by 1 / Var(g_k).

    Du is propagated by the exact Jacobian of the discrete step, which makes
    (1/n_steps) psi(u_end) S an unbiased estimator of the derivative of the
    discrete transition operator in direction h.
    """
    if cfg.noise_amplitude != 1.0:
        raise ValueError("gradient probe requires uncorrupted noise")
    if cfg.mode not in ("cutoff", "full", "stokes"):
        raise ValueError("gradient probe runs on the (cutoff) dynamics")
    path_ids = np.asarray(path_ids, dtype=np.int64)
    tasks = [(cfg, x, h, path_ids[lo:lo + chunk], precision)
             for lo in range(0, path_ids.size, chunk)]
    results = _map_tasks(_tangent_chunk_star, tasks, workers)
    return dict(final=np.concatenate([r[0] for r in results]),
                bel_sum=np.concatenate([r[1] for r in results]), n_steps=cfg.n_steps)


def _tangent_chunk_star(args):
    return _tangent_chunk(*args)


def _tangent_chunk(cfg: SimConfig, x: np.ndarray, h: np.ndarray, ids: np.ndarray,
                   precision: str = "double"):
    """Single precision trades ~1e-7 relative state error (far below any
    Monte-Carlo standard error) for about 1.6x throughput."""
    from .nonlinearity import b_self_and_linpair
    cdtype = np.complex64 if precision == "single" else np.complex128
    tab = mode_table(cfg.n)
    cov = cfg.covariance()
    grid = dealias_grid(cfg.n, cfg.pad_factor)
    S = cfg.n_steps
    dt, nu = cfg.dt, cfg.nu
    lam = tab.lam
    w_w = _w_weights(cfg, tab)
    if cfg.scheme == "expo-em":
        decay = ou_decay(cov, dt, nu)
        var_k = ou_variance(cov, dt, nu)
    else:
        decay = None
        var_k = cov.sigma**2 * dt
    inv_var = 1.0 / var_k
    if cdtype == np.complex64:
        lam = lam.astype(np.float32)
        inv_var = inv_var.astype(np.float32)
        if decay is not None:
            decay = decay.astype(np.float32)
    P = ids.size
    u = np.broadcast_to(x, (P,) + x.shape).astype(cdtype).copy()
    y = np.broadcast_to(h, (P,) + h.shape).astype(cdtype).copy()
    acc = np.zeros(P)
    for s in range(S):
        if cfg.mode == "stokes":
            b = lin = None
        else:
            b, lin = b_self_and_linpair(u, y, tab, grid)
        if cfg.mode == "cutoff":
            w2 = _norm_sq(u, w_w)
            chi = np.asarray(chi_r(w2, cfg.r), dtype=u.real.dtype)
            chip = np.asarray(chi_r_prime(w2, cfg.r), dtype=u.real.dtype)
            lin = chi[:, None, None] * lin
            if np.any(chip != 0.0):
                wpair = 2.0 * np.real(np.einsum("pkj,pkj,k->p", u, np.conj(y),
                                                w_w.astype(u.real.dtype)))
                lin = lin + (2.0 * chip * wpair).astype(u.real.dtype)[:, None, None] * b
            drift_b = chi[:, None, None] * b
        else:
            drift_b = b
        g = _noise_block(cfg, cov, ids, s)
        if cdtype == np.complex64:
            g = g.astype(cdtype)
        if cfg.scheme == "em":
            u = u - dt * (nu * lam[None, :, None] * u) + g
            y = y - dt * (nu * lam[None, :, None] * y)
            if b is not None:
                u = u - dt * drift_b
                y = y - dt * lin
        else:
            if b is not None:
                u = decay[None, :, None] * (u - dt * drift_b) + g
                y = decay[None, :, None] * (y - dt * lin)
            else:
                u = decay[None, :, None] * u + g
                y = decay[None, :, None] * y
        acc += 2.0 * np.real(np.einsum("pkj,pkj,k->p", y, np.conj(g), inv_var)).astype(np.float64)
    return u, acc


def export_path_csv(rec: PathRecord, path, stride: int = 1) -> None:
    """Time series export: t, H norm, V^2, W^2, E^1..E^n_max, M^phi columns."""
    moments = [1] + sorted(rec.int_h2nm2_v2.keys())
    energies = {n: rec.energy_series(n) for n in moments}
    names = sorted(rec.mphi.keys())
    cols = ["t", "H", "V2", "W2"] + [f"E{n}" for n in moments] + [f"M_{m}" for m in names]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(0, rec.times.size, stride):
            row = [rec.times[s], np.sqrt(rec.h2[s]), rec.v2[s], rec.w2[s]]
            row += [energies[n][s] for n in moments]
            row += [rec.mphi[m][s] for m in names]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- Richardson bias pilot -----------------------------------------------------

def coupled_bias_pilot(cfg: SimConfig, path_ids, phis=()):
    """Coarse run at cfg.dt pathwise-coupled to a fine run at dt/2.

    The coarse noise is composed exactly from the fine increments, so
    per-path differences of any functional estimate the dt-bias with a tiny
    variance.  Returns (coarse_record, fine_record).
    """
    fine_cfg = replace(cfg, dt=cfg.dt / 2.0)
    coarse = run_ensemble(cfg, path_ids, phis=phis, noise_provider="coupled-coarse",
                          keep_final=False)
    fine = run_ensemble(fine_cfg, path_ids, phis=phis, keep_final=False)
    return coarse, fine
