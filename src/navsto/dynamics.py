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

import threading
from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod
from .nonlinearity import b_self_batch, dealias_grid, map_tiles, tile_paths
# perfbench/spans.py wraps dynamics.b_linpair_batch by name; nothing here calls it
from .nonlinearity import b_linpair_batch  # noqa: F401
from .noise import CovarianceSpec, build_covariance, ou_decay, ou_variance
from .spectral import SpectralField, mode_table, pair_with, theta
# bound here as _norm_sq, the name perfbench/spans.py wraps for the norms span
from .spectral import weighted_norm_sq as _norm_sq

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
        if self.nu <= 0 or self.dt <= 0 or self.t_end <= 0:
            raise ValueError("nu, dt and t_end must be positive")
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


# -- noise sources -------------------------------------------------------------
# A noise source is a callable (cfg, cov, path_ids, step) -> (P, K, 3) | None
# (None: no increment); run_ensemble steps with _noise_block unless given one.

def scheme_step_variance(cfg: SimConfig, cov: CovarianceSpec) -> np.ndarray:
    """Exact per-mode noise variance of one step of the configured scheme."""
    if cfg.scheme == "em":
        return cov.sigma**2 * cfg.dt
    return ou_variance(cov, cfg.dt, cfg.nu)


def _noise_block(cfg: SimConfig, cov: CovarianceSpec, path_ids, step: int) -> np.ndarray:
    """One step of the scheme's noise at cfg.dt for a batch of paths.

    A pure function of (cfg.seed, path, step), so a run restarted from its
    state at step s with this source shifted by s steps continues the path
    bit for bit.  Zeros in deterministic mode or at zero amplitude.
    """
    if cfg.mode == "deterministic" or cfg.noise_amplitude == 0.0:
        P = len(np.atleast_1d(path_ids))
        return np.zeros((P, cov.table.n_modes, 3), dtype=np.complex128)
    amp = cfg.noise_amplitude
    if cfg.scheme == "em":
        return noise_mod.wiener_block(cov, cfg.dt, cfg.seed, path_ids, step, amp)
    return noise_mod.ou_block(cov, cfg.dt, cfg.seed, path_ids, step, cfg.nu, amp)


def coupled_coarse_noise(cfg: SimConfig, cov: CovarianceSpec, path_ids, step: int) -> np.ndarray:
    """One step at cfg.dt composed from the fine steps 2 step and 2 step + 1 at
    cfg.dt / 2, so a coarse path is pathwise coupled to its fine twin (the
    Richardson bias pilot)."""
    fine = replace(cfg, dt=cfg.dt / 2.0)
    g1 = _noise_block(fine, cov, path_ids, 2 * step)
    g2 = _noise_block(fine, cov, path_ids, 2 * step + 1)
    if cfg.scheme == "em":
        return g1 + g2
    return ou_decay(cov, fine.dt, cfg.nu)[None, :, None] * g1 + g2


# -- trajectory records --------------------------------------------------------

@dataclass
class EnsembleRecord:
    """Functional time series of an ensemble of paths, or of one path.

    Per-path arrays lead with the path axis: h2 is (P, S+1), series
    (P, S+1, K, 3) and mphi (n_phi, P, S+1).  A one-path record (`path(i)`,
    `simulate_path` and `solve_controlled`) has no path axis: h2 is
    (S+1,), series (S+1, K, 3) and mphi (n_phi, S+1).
    """

    cfg: SimConfig
    path_ids: np.ndarray | int | None
    times: np.ndarray                      # (S+1,)
    h2: np.ndarray                         # |u|_H^2
    v2: np.ndarray                         # |u|_V^2
    w2: np.ndarray                         # |u|_W^2
    int_v2: np.ndarray                     # cumulative |u|_V^2
    int_h2nm2_v2: dict                     # n -> cumulative |u|^{2n-2}|u|_V^2
    int_h2nm2: dict                        # n -> cumulative |u|^{2n-2}
    sigma_sq: float
    phi_names: tuple                       # name of each M^phi row
    mphi: np.ndarray | None = None         # M^phi per test function
    proj_phi: np.ndarray | None = None     # <u, phi> per test function
    final: np.ndarray | None = None        # final state(s)
    blown: np.ndarray | bool | None = None
    blow_step: np.ndarray | int | None = None
    series: np.ndarray | None = None       # state series when kept

    def energy_series(self, n: int) -> np.ndarray:
        """E^n per path on the grid (left-endpoint quadrature inside)."""
        nu = self.cfg.nu
        if n == 1:
            diss = self.int_v2
            ito = self.times
        else:
            if n not in self.int_h2nm2_v2:
                raise ValueError(f"moment n={n} beyond tracked n_max")
            diss = self.int_h2nm2_v2[n]
            ito = self.int_h2nm2[n]
        return (self.h2**n + 2.0 * n * nu * diss
                - self.h2[..., :1]**n - n * (2 * n - 1) * self.sigma_sq * ito)

    def checkpoint_index(self, t: float) -> int:
        i = int(round(t / self.cfg.dt))
        if not (0 <= i < self.times.size) or abs(self.times[i] - t) > 1e-9:
            raise ValueError(f"time {t} is not on the grid")
        return i

    def tau_r(self, R: float) -> np.ndarray:
        return stopping_time_tau_r_series(self.w2, self.times, R)

    def path(self, i: int) -> "EnsembleRecord":
        """The one-path record of row i."""
        def row(a):
            return None if a is None else a[i]

        def phi_row(a):
            return None if a is None else a[:, i]

        return replace(
            self, path_ids=self.path_ids[i], h2=self.h2[i], v2=self.v2[i], w2=self.w2[i],
            int_v2=self.int_v2[i],
            int_h2nm2_v2={n: a[i] for n, a in self.int_h2nm2_v2.items()},
            int_h2nm2={n: a[i] for n, a in self.int_h2nm2.items()},
            mphi=phi_row(self.mphi), proj_phi=phi_row(self.proj_phi), final=row(self.final),
            blown=bool(self.blown[i]), blow_step=int(self.blow_step[i]), series=row(self.series))

    def snapshots(self) -> list:
        """[(t, field)] every cfg.snapshot_stride steps of a one-path series."""
        stride = self.cfg.snapshot_stride
        if not stride or self.series is None:
            return []
        return [(self.times[s], SpectralField(self.cfg.n, self.series[s].copy()))
                for s in range(0, self.times.size, stride)]


def stopping_time_tau_r_series(w2: np.ndarray, times: np.ndarray, R: float) -> np.ndarray:
    """First grid time with |u|_W^2 >= R per path; +inf when never reached."""
    hit = w2 >= R
    any_hit = hit.any(axis=-1)
    first = hit.argmax(axis=-1)
    out = np.where(any_hit, times[first], np.inf)
    return out


# -- the scheme ----------------------------------------------------------------

class Scheme:
    """The em or expo-em step of one SimConfig for states of one complex dtype.

    Every stepper in this module steps through `advance` and every tangent
    flow through `tangent`, so the weak-strong, gradient and control results
    exercise the arithmetic that produces the ensembles.
    """

    def __init__(self, cfg: SimConfig, cdtype):
        real = np.finfo(cdtype).dtype
        self.cfg = cfg
        self.tab = mode_table(cfg.n)
        self.cov = cfg.covariance()
        self.grid = dealias_grid(cfg.n, cfg.pad_factor)
        self.tab.pad_layout(self.grid)   # built once here, read by every tile thread
        self.tile = tile_paths(6, self.grid, real.itemsize)   # paths per B(u, u) tile
        self.lam = self.tab.lam.astype(real)
        # W-norms are summed in double whatever the state's precision
        self.w_w = self.tab.lam ** (2.0 * theta(cfg.alpha0))
        self.w_pair = self.w_w.astype(real)
        self.decay = (ou_decay(self.cov, cfg.dt, cfg.nu).astype(real)
                      if cfg.scheme == "expo-em" else None)

    def chi(self, w2: np.ndarray) -> np.ndarray | None:
        """chi_R(|u|_W^2) per path in cutoff mode; None (no weighting) otherwise."""
        if self.cfg.mode != "cutoff":
            return None
        return np.asarray(chi_r(w2, self.cfg.r), dtype=np.float64)

    def advance(self, u: np.ndarray, b: np.ndarray | None, chi=None, g=None,
                out: np.ndarray | None = None) -> np.ndarray:
        """One step of the (P, K, 3) batch u with advection b, weighted per path
        by chi when given, plus the noise increment g when given.

        b None is the Stokes step.  A missing g adds nothing, so no -0 turns
        into +0.  The step is built in one output array (fresh, or `out`,
        which must not overlap u, b or g), operation by operation in the order
        of u - dt (nu lam u + chi b) (em) and decay (u - dt chi b) (expo-em),
        so its bytes are those of the plain expression; only the em step with
        chi forms chi b in a temporary.
        """
        dt = self.cfg.dt
        if self.decay is None:
            out = np.multiply(self.cfg.nu * self.lam[None, :, None], u, out=out)
            if b is not None:
                np.add(out, b if chi is None else chi[:, None, None] * b, out=out)
            np.multiply(dt, out, out=out)
            np.subtract(u, out, out=out)
        elif b is None:
            out = np.multiply(self.decay[None, :, None], u, out=out)
        else:
            if chi is None:
                out = np.multiply(dt, b, out=out)
            else:
                out = np.multiply(chi[:, None, None], b, out=out)
                np.multiply(dt, out, out=out)
            np.subtract(u, out, out=out)
            np.multiply(self.decay[None, :, None], out, out=out)
        if g is not None:
            np.add(out, g, out=out)
        return out

    def tangent(self, u: np.ndarray, y: np.ndarray):
        """The advection and its derivative in direction y, per path:

            chi B(u, u)  and  chi (B(y, u) + B(u, y)) + 2 chi' <u, y>_W B(u, u)

        with chi, chi' at |u|_W^2 in cutoff mode (1 and 0 otherwise), from one
        b_self_and_linpair call; (None, None) in stokes mode.
        """
        # looked up per call, so a wrapper set on the nonlinearity module applies
        from .nonlinearity import b_self_and_linpair
        if self.cfg.mode == "stokes":
            return None, None
        b, lin = b_self_and_linpair(u, y, self.tab, self.grid)
        if self.cfg.mode != "cutoff":
            return b, lin
        real = self.lam.dtype
        w2 = _norm_sq(u, self.w_w)
        chi = np.asarray(chi_r(w2, self.cfg.r), dtype=real)
        chip = np.asarray(chi_r_prime(w2, self.cfg.r), dtype=real)
        lin = chi[:, None, None] * lin
        band = chip != 0.0   # rows in the transition band; elsewhere the term is 0
        if band.any():
            wpair = 2.0 * np.real(np.einsum("pkj,pkj,k->p", u[band], np.conj(y[band]),
                                            self.w_pair))
            lin[band] += (2.0 * chip[band] * wpair).astype(real)[:, None, None] * b[band]
        return chi[:, None, None] * b, lin


# -- the batched stepper -------------------------------------------------------

def _step_paths(cfg: SimConfig, tile: int, starts: tuple, step_tile, record,
                finals: tuple) -> None:
    """Step the paths of the (P, K, 3) start sets `starts` cfg.n_steps times.

    One map_tiles pass over path tiles of `tile` rows: each path reads only
    its own start and noise (the Markov cocycle), so a tile runs its whole
    path on one thread.  It copies its rows of starts (arrays or broadcast
    views, of the state dtype) into one of two one-tile buffer sets its
    thread keeps for the call (fresh ones would make glibc trim and fault a
    tile's memory back in each time; see nonlinearity._products_buffer) and
    runs record(0, rows, now).  Each step_tile(s, rows, now, nxt) writes
    step s + 1 into the other set; the sets swap and record(s + 1, rows,
    now) runs.  The last states go to the tile's rows of each finals array
    that is not None.  Stokes tiles (no B) run in order on this thread:
    their per-path noise draws hold the GIL.
    """
    P = len(starts[0])
    kept = threading.local()

    def run(lo: int) -> None:
        rows = slice(lo, lo + tile)
        if not hasattr(kept, "sets"):
            kept.sets = [tuple(np.empty((min(tile, P),) + a.shape[1:], a.dtype) for a in starts)
                         for _ in range(2)]
        m = min(tile, P - lo)
        now, nxt = (tuple(b[:m] for b in bufs) for bufs in kept.sets)
        for b, a in zip(now, starts):
            b[...] = a[rows]
        record(0, rows, now)
        for s in range(cfg.n_steps):
            step_tile(s, rows, now, nxt)
            now, nxt = nxt, now
            record(s + 1, rows, now)
        for f, a in zip(finals, now):
            if f is not None:
                f[rows] = a

    map_tiles(run, P, tile, cfg.mode != "stokes")


def run_ensemble(cfg: SimConfig, path_ids, x0=None, phis=(), noise=None,
                 keep_final: bool = True, keep_series: bool = False) -> EnsembleRecord:
    """Integrate an ensemble of paths, tracking the martingale-problem functionals.

    This is the one stepping engine: the public `step`, the control replay
    and build_control's free drift are runs of it too.  phis: sequence of
    TestFunction-like objects exposing .coeffs, .a_coeffs and optionally
    .name.  noise(cfg, cov, path_ids, step) gives each step's increments
    ((P, K, 3), or None for none); _noise_block when not given, looked up
    per call so a wrapper set on this module applies.  The record is
    allocated once and filled by one _run_chunk call over all paths, whose
    tiles write their final states straight into rec.final (none are held
    with keep_final=False).  Results are independent of the tiling because
    every path's arithmetic touches only its own slice.
    """
    noise = noise or _noise_block
    sch = Scheme(cfg, np.complex128)
    path_ids = np.asarray(path_ids, dtype=np.int64)
    P, S, K = path_ids.size, cfg.n_steps, sch.tab.n_modes
    moments = range(2, cfg.n_max + 1)
    n_phi = len(phis)
    rec = EnsembleRecord(
        cfg=cfg, path_ids=path_ids, times=np.arange(S + 1) * cfg.dt,
        h2=np.empty((P, S + 1)), v2=np.empty((P, S + 1)), w2=np.empty((P, S + 1)),
        int_v2=np.zeros((P, S + 1)),
        int_h2nm2_v2={n: np.zeros((P, S + 1)) for n in moments},
        int_h2nm2={n: np.zeros((P, S + 1)) for n in moments},
        sigma_sq=sch.cov.sigma_sq_total,
        phi_names=tuple(getattr(p, "name", f"phi{j}") for j, p in enumerate(phis)),
        mphi=np.zeros((n_phi, P, S + 1)) if n_phi else None,
        proj_phi=np.zeros((n_phi, P, S + 1)) if n_phi else None,
        final=np.empty((P, K, 3), dtype=np.complex128) if keep_final else None,
        blown=np.zeros(P, dtype=bool), blow_step=np.full(P, -1, dtype=np.int64),
        series=np.empty((P, S + 1, K, 3), dtype=np.complex128) if keep_series else None)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=np.complex128)
        if not (x0.ndim == 2 or x0.ndim == 3 and len(x0) == P):
            raise ValueError("x0 must be (K,3) or (P,K,3)")
    start = np.broadcast_to(np.complex128(0) if x0 is None else x0, (P, K, 3))
    _run_chunk(sch, rec, start, phis, noise)
    return rec


def _run_chunk(sch: Scheme, rec: EnsembleRecord, x0: np.ndarray, phis, noise) -> None:
    """Integrate every path of the record from its start state in x0 (P, K, 3).

    Named for perfbench/spans.py, which wraps it as the ensemble stepper's
    span.  A path tile's step runs B, its increments from the noise source,
    the step, the M^phi increments, the blow-up census and the norms and
    <u, phi> of its new states, writing only its own rows of the record;
    after its last step the tile forms its rows' running integrals.
    """
    cfg = sch.cfg
    dt, nu, S = cfg.dt, cfg.nu, cfg.n_steps
    ids, h2, v2, w2, mphi, proj = rec.path_ids, rec.h2, rec.v2, rec.w2, rec.mphi, rec.proj_phi
    blown, blow_step, series = rec.blown, rec.blow_step, rec.series

    def record(s: int, rows: slice, states: tuple) -> None:
        v, = states
        h2[rows, s], v2[rows, s], w2[rows, s] = _norm_sq(v, None, sch.lam, sch.w_w)
        for j, phi in enumerate(phis):
            proj[j, rows, s] = pair_with(v, phi.coeffs)
        if series is not None:
            series[rows, s] = v
        if s < S:
            return
        # left-endpoint quadrature of the running integrals: np.cumsum adds in
        # step order, as a loop of int[s + 1] = int[s] + dt f[s] would
        np.cumsum(dt * v2[rows, :-1], axis=1, out=rec.int_v2[rows, 1:])
        for n in rec.int_h2nm2_v2:
            hp = h2[rows, :-1] ** (n - 1)
            np.cumsum(dt * hp * v2[rows, :-1], axis=1, out=rec.int_h2nm2_v2[n][rows, 1:])
            np.cumsum(dt * hp, axis=1, out=rec.int_h2nm2[n][rows, 1:])

    def step_tile(s: int, rows: slice, now: tuple, nxt: tuple) -> None:
        (ut,), (un,) = now, nxt
        b = b_self_batch(ut, sch.tab, sch.grid) if cfg.mode != "stokes" else None
        g = noise(cfg, sch.cov, ids[rows], s)
        chi = sch.chi(w2[rows, s])
        sch.advance(ut, b, chi, g, out=un)
        if mphi is not None:
            du = un - ut
            for j, phi in enumerate(phis):
                inc = (pair_with(du, phi.coeffs)
                       + dt * nu * pair_with(ut, phi.a_coeffs))
                if b is not None:   # the drift of the dynamics stepped: chi B in cutoff mode
                    bphi = pair_with(b, phi.coeffs)
                    inc = inc + dt * (bphi if chi is None else chi * bphi)
                mphi[j, rows, s + 1] = mphi[j, rows, s] + inc
        fresh = ~np.isfinite(un).all(axis=(1, 2)) & ~blown[rows]
        if fresh.any():
            blown[rows] |= fresh
            blow_step[rows][fresh] = s + 1
            un[fresh] = np.nan

    _step_paths(cfg, sch.tile, (x0,), step_tile, record, (rec.final,))


def step(u: SpectralField, cfg: SimConfig, noise: SpectralField | None = None) -> SpectralField:
    """One scheme step of a single state: a one-step engine run driven by the
    given noise increment, or by zeros when it is None or the mode is
    deterministic (added, as the engine adds its zero noise block)."""
    if noise is None or cfg.mode == "deterministic":
        g = np.zeros((1,) + u.coeffs.shape, dtype=np.complex128)
    else:
        g = noise.coeffs[None]
    rec = run_ensemble(replace(cfg, t_end=cfg.dt), [0], x0=u.coeffs, noise=lambda *_: g)
    if rec.blown[0]:
        raise BlowupError(0, -1)
    return SpectralField(cfg.n, rec.final[0])


# -- single-path front door ----------------------------------------------------

def simulate_path(cfg: SimConfig, path_id: int = 0, x0: SpectralField | None = None,
                  phis=(), keep_series: bool | None = None) -> EnsembleRecord:
    """Integrate one path.

    A nonfinite state aborts with BlowupError carrying the step index and
    the partial record; ensembles instead census blow-ups per path.
    """
    keep = bool(cfg.snapshot_stride) if keep_series is None else keep_series
    x = None if x0 is None else x0.coeffs
    record = run_ensemble(cfg, [path_id], x0=x, phis=phis, keep_series=keep).path(0)
    if record.blown:
        err = BlowupError(record.blow_step, path_id)
        err.partial_record = record
        raise err
    return record


# -- weak-strong paired runs ---------------------------------------------------

def paired_full_cutoff(cfg: SimConfig, path_ids, R: float, x0=None,
                       x0_cutoff=None):
    """Lockstep full vs cutoff runs with identical noise, compared bitwise.

    Both members step through the same Scheme with the same noise; while
    |u|_W^2 <= R+1 the cutoff factor is exactly 1.0 and the two states must
    agree bit for bit.  Each path tile runs the pair's whole path, and no
    work is done twice for a row the members share:
    - B runs once per distinct state: one b_self_batch call on a tile's full
      states and, when some rows are apart, one on those cutoff rows.  A
      cutoff row equal to its full row (== also equates -0 and +0, which
      move no nonzero bit of B) takes the full row's B.
    - A cutoff row with the full row's bytes takes the full row's W-norm,
      and with chi exactly 1.0 also its stepped row.  1.0 b is b up to the
      sign of a zero, and adding the noise (never -0) leaves no zero signed.
    Each path's arithmetic depends only on its own row, so no output bit
    changes.  B's determinism across calls is guarded by the determinism
    audit (criterion 11), TestPathTiling (tests/test_nonlinearity.py) and
    test_paired_run_is_two_engine_runs (tests/test_dynamics.py), which
    checks each member against its own run_ensemble run.

    x0_cutoff perturbs the cutoff member's start; it exists purely as a
    negative control (any divergence must be flagged).

    Returns a dict with tau arrays, the number of per-path bitwise
    mismatches at steps up to and including tau detection, and the maximum
    absolute coefficient discrepancy seen over that window (0.0 on pass,
    inf when a mismatched coefficient is not finite).
    """
    full_cfg = replace(cfg, mode="full", r=None)
    sch = Scheme(full_cfg, np.complex128)
    S = cfg.n_steps
    path_ids = np.asarray(path_ids, dtype=np.int64)
    P = path_ids.size

    shape = (P, sch.tab.n_modes, 3)
    x0 = np.complex128(0) if x0 is None else np.asarray(x0, dtype=np.complex128)
    xc = x0 if x0_cutoff is None else np.asarray(x0_cutoff, dtype=np.complex128)
    w2f = np.empty((P, S + 1)); w2c = np.empty((P, S + 1))
    detected = np.full(P, S + 1, dtype=np.int64)  # step index of tau detection
    mismatch = np.zeros(P, dtype=np.int64)
    disc = np.zeros(P)                            # per-path max discrepancy
    same = np.empty(P, dtype=bool)                # cutoff row has the full row's bytes
    apart = np.empty(P, dtype=bool)               # cutoff row != full row

    def record(s: int, rows: slice, states: tuple) -> None:
        f, c = states
        w2f[rows, s] = _norm_sq(f, sch.w_w)
        eq = (f.view(np.int64) == c.view(np.int64)).all(axis=(1, 2))   # bytes, not ==
        same[rows] = eq
        w2c[rows, s] = w2f[rows, s]
        if not eq.all():
            w2c[rows, s][~eq] = _norm_sq(c[~eq], sch.w_w)
        hit = (w2c[rows, s] >= R) & (detected[rows] > S)
        detected[rows][hit] = s
        ap = ~(f == c).all(axis=(1, 2))
        apart[rows] = ap
        bad = ap & (detected[rows] >= s)  # up to and including the detection step
        if bad.any():
            mismatch[rows][bad] += 1
            d = np.abs(f[bad] - c[bad]).max(axis=(1, 2))
            d[~np.isfinite(d)] = np.inf
            disc[rows][bad] = np.maximum(disc[rows][bad], d)

    def step_tile(s: int, rows: slice, now: tuple, nxt: tuple) -> None:
        (f, c), (fn, cn) = now, nxt
        ap = apart[rows]
        g = _noise_block(full_cfg, sch.cov, path_ids[rows], s)
        b = b_self_batch(f, sch.tab, sch.grid)
        sch.advance(f, b, None, g, out=fn)
        chi = np.asarray(chi_r(w2c[rows, s], R))
        own = ~(same[rows] & (chi == 1.0))
        cn[~own] = fn[~own]
        if ap.any():
            b[ap] = b_self_batch(c[ap], sch.tab, sch.grid)
        if own.any():
            cn[own] = sch.advance(c[own], b[own], chi[own], g[own])

    _step_paths(full_cfg, sch.tile, (np.broadcast_to(x0, shape), np.broadcast_to(xc, shape)),
                step_tile, record, ())

    times = np.arange(S + 1) * cfg.dt
    tau_f = stopping_time_tau_r_series(w2f, times, R)
    tau_c = stopping_time_tau_r_series(w2c, times, R)
    return dict(times=times, tau_full=tau_f, tau_cutoff=tau_c,
                mismatch_steps=mismatch, max_discrepancy=float(disc.max(initial=0.0)),
                crossings=int(np.isfinite(tau_c).sum()),
                w2_full=w2f, w2_cutoff=w2c)


# -- controllability -----------------------------------------------------------

def _control_config(cfg: SimConfig, R: float, T: float) -> SimConfig:
    """The forward-Euler (em) cut-off dynamics at level R over horizon T."""
    return replace(cfg, t_end=T, scheme="em", mode="cutoff", r=R)


def _euler_drift(sch: Scheme, u: np.ndarray, g: np.ndarray | None) -> np.ndarray:
    """One forward-Euler step of the cut-off dynamics, plus the control increment g."""
    b = b_self_batch(u, sch.tab, sch.grid)
    return sch.advance(u, b, sch.chi(_norm_sq(u, sch.w_w)), g)


def solve_controlled(x: SpectralField, w_increments: np.ndarray, R: float,
                     cfg: SimConfig) -> EnsembleRecord:
    """Forward-Euler cutoff dynamics driven by control increments: one engine
    run whose noise at step s is w_increments[s], as a one-path record.

    The step matches build_control's residual definition, so replaying a
    constructed control reproduces the designed trajectory to roundoff.
    Forward Euler needs dt*nu*lam_max <= 1, which the em scheme's config
    check enforces.
    """
    if w_increments.shape[0] != cfg.n_steps:
        raise ValueError("control increments must cover every step")
    return run_ensemble(_control_config(cfg, R, cfg.t_end), [0], x0=x.coeffs, keep_series=True,
                        noise=lambda c, cov, ids, s: w_increments[None, s]).path(0)


def build_control(x: SpectralField, y: SpectralField, T: float, R: float,
                  cfg: SimConfig):
    """Steer x to y through the cutoff dynamics: drift freely, then interpolate.

    Leg one is an engine run of the uncontrolled equation (no noise) for
    half the horizon; it hands over at a time T* with the W-ball constraint
    intact.  Leg two replaces the trajectory by the line segment to y and
    defines the control as the integrated residual.  Nonfinite or too large
    |x|_W^2, |y|_W^2 or designed states raise ControlError.  Returns
    (w_increments (S, K, 3), designed_series (S+1, K, 3), info dict).
    """
    ctl = _control_config(cfg, R, T)
    sch = Scheme(ctl, np.complex128)
    n_modes, w_w = sch.tab.n_modes, sch.w_w
    # written as not (... <= ...), so that NaN fails them too
    if not _norm_sq(x.coeffs[None], w_w)[0] <= R / 2 + 1e-12:
        raise ControlError("|x|_W^2 exceeds R/2 or is not finite")
    if not _norm_sq(y.coeffs[None], w_w)[0] <= R / 2 + 1e-12:
        raise ControlError("|y|_W^2 exceeds R/2 or is not finite")
    S = int(round(T / cfg.dt))
    if abs(S * cfg.dt - T) > 1e-9 or S < 2:
        raise ControlError("horizon must be an integer (>= 2) multiple of dt")

    # leg one: uncontrolled for S // 2 steps or, if the drift leaves the
    # W-ball first at step s + 1, for half of those s steps
    free = run_ensemble(replace(ctl, t_end=(S // 2) * cfg.dt), [0], x0=x.coeffs,
                        noise=lambda *_: None, keep_final=False, keep_series=True)
    leg, exits = free.series[0], np.flatnonzero(free.w2[0, 1:] > R)
    t_star_idx = S // 2
    if exits.size:
        if exits[0] == 0:
            raise ControlError("uncontrolled leg exits the W-ball immediately")
        t_star_idx = max(int(exits[0]) // 2, 1)

    designed = np.empty((S + 1, n_modes, 3), dtype=np.complex128)
    designed[:t_star_idx + 1] = leg[:t_star_idx + 1]
    frac = (np.arange(t_star_idx, S + 1) - t_star_idx) / (S - t_star_idx)
    designed[t_star_idx:] = ((1.0 - frac)[:, None, None] * leg[t_star_idx]
                             + frac[:, None, None] * y.coeffs[None])
    designed[S] = y.coeffs

    # leg two's residuals, one drift call per B tile of designed states, so
    # B's working set is one tile's, as in the steppers
    w_inc = np.zeros((S, n_modes, 3), dtype=np.complex128)
    for lo in range(t_star_idx, S, sch.tile):
        hi = min(lo + sch.tile, S)
        w_inc[lo:hi] = designed[lo + 1:hi + 1] - _euler_drift(sch, designed[lo:hi], None)
    sup_w2 = float(_norm_sq(designed, w_w).max())
    if not sup_w2 <= R * (1.0 + 1e-12):
        raise ControlError(f"designed path leaves the W-ball: sup |u|_W^2 = {sup_w2:.3g} > {R}")
    info = dict(t_star=t_star_idx * cfg.dt, sup_w2=sup_w2, steps=S)
    return w_inc, designed, info


# -- derivative-flow ensemble for gradient probes --------------------------------

def run_tangent_ensemble(cfg: SimConfig, x: np.ndarray, h: np.ndarray, path_ids,
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
    cdtype = np.complex64 if precision == "single" else np.complex128
    final, bel_sum = np.empty((path_ids.size,) + x.shape, dtype=cdtype), np.zeros(path_ids.size)
    _tangent_chunk(cfg, x, h, path_ids, precision, out=(final, None, bel_sum))
    return dict(final=final, bel_sum=bel_sum, n_steps=cfg.n_steps)


def _tangent_chunk(cfg: SimConfig, x: np.ndarray, h: np.ndarray, ids: np.ndarray,
                   precision: str = "double", out: tuple | None = None):
    """Final states u, final tangents y = Du h and BEL sums acc of the paths `ids`.

    Named for perfbench/spans.py, which wraps it as the tangent span.  u
    follows the engine's path bit for bit and y the exact Jacobian of its
    steps, with chi' in cutoff mode, each path tile on one thread through the
    B pair.  The tiles write into out = (u, y or None, acc ((P,) zeros)),
    made here when not given, and returned.  Single precision trades ~1e-7
    relative state error (far below any Monte-Carlo standard error) for
    about 1.6x throughput.
    """
    cdtype = np.complex64 if precision == "single" else np.complex128
    sch = Scheme(cfg, cdtype)
    inv_var = (1.0 / scheme_step_variance(cfg, sch.cov)).astype(sch.lam.dtype)
    shape = (ids.size,) + x.shape
    u, y, acc = out or (np.empty(shape, cdtype), np.empty(shape, cdtype), np.zeros(ids.size))

    def step_tile(s: int, rows: slice, now: tuple, nxt: tuple) -> None:
        (ut, yt), (un, yn) = now, nxt
        b, lin = sch.tangent(ut, yt)
        g = _noise_block(cfg, sch.cov, ids[rows], s).astype(cdtype, copy=False)
        sch.advance(ut, b, None, g, out=un)
        sch.advance(yt, lin, out=yn)
        acc[rows] += 2.0 * np.real(
            np.einsum("pkj,pkj,k->p", yn, np.conj(g), inv_var)).astype(np.float64)

    starts = tuple(np.broadcast_to(np.asarray(a).astype(cdtype), shape) for a in (x, h))
    _step_paths(cfg, tile_paths(12, sch.grid, sch.lam.itemsize), starts, step_tile,
                lambda *_: None, (u, y))
    return u, y, acc


def export_path_csv(rec: EnsembleRecord, path, stride: int = 1) -> None:
    """Time series export of a one-path record: t, H norm, V^2, W^2,
    E^1..E^n_max and the M^phi columns sorted by name."""
    moments = [1] + sorted(rec.int_h2nm2_v2.keys())
    energies = {n: rec.energy_series(n) for n in moments}
    mphi = dict(zip(rec.phi_names, () if rec.mphi is None else rec.mphi))
    names = sorted(mphi)
    cols = ["t", "H", "V2", "W2"] + [f"E{n}" for n in moments] + [f"M_{m}" for m in names]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in range(0, rec.times.size, stride):
            row = [rec.times[s], np.sqrt(rec.h2[s]), rec.v2[s], rec.w2[s]]
            row += [energies[n][s] for n in moments]
            row += [mphi[m][s] for m in names]
            fh.write(",".join(f"{x:.17g}" for x in row) + "\n")


# -- Richardson bias pilot -----------------------------------------------------

def coupled_bias_pilot(cfg: SimConfig, path_ids, phis=()):
    """Coarse run at cfg.dt pathwise-coupled to a fine run at dt/2.

    The coarse noise is composed exactly from the fine increments, so
    per-path differences of any functional estimate the dt-bias with a tiny
    variance.  Returns (coarse_record, fine_record).
    """
    fine_cfg = replace(cfg, dt=cfg.dt / 2.0)
    coarse = run_ensemble(cfg, path_ids, phis=phis, noise=coupled_coarse_noise,
                          keep_final=False)
    fine = run_ensemble(fine_cfg, path_ids, phis=phis, keep_final=False)
    return coarse, fine
