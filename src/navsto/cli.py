"""Batch front door: configuration, orchestration, artifacts, reporting.

Output directories are content-addressed by a hash of (subcommand, config,
seed range, tool version), so identical inputs land in the same place with
byte-identical artifacts; wall-clock and other timestamps live only in the
manifest.  Exit codes: 0 all pass, 1 any fail, 2 inconclusive.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from . import dynamics as dyn
from . import nonlinearity as nl
from . import selection as sel
from . import verifier as vf
from .noise import dump_covariance_csv
from .spectral import (
    SpectralField,
    mode_table,
    random_divfree_field,
    powerlaw_profile,
    sobolev_norm_sq,
    weighted_norm_sq,
    write_snapshot,
)

# every recognised config key with parser and default (None: required by users)
_KEYS = {
    # dynamics
    "resolution": (int, 4),
    "nu": (float, 1.0),
    "dt": (float, 1e-3),
    "horizon": (float, 0.01),
    "scheme": (str, "em"),
    "mode": (str, "full"),
    "cutoff_r": (float, None),
    "alpha0": (float, 0.75),
    "q0": (float, 1.0),
    "seed": (int, 0),
    "snapshot_stride": (int, 0),
    "n_max": (int, 2),
    "pad_factor": (float, 1.5),
    # ensembles / verification
    "checkpoints": (str, ""),
    "phi_modes": (str, "1 0 0; 0 1 1"),
    "control_amplitude": (float, 1.5),
    "control_paths": (int, 0),
    "pilot_paths": (int, 0),
    "moment": (int, 1),
    "interval_a": (float, 0.0),
    "interval_b": (float, 0.0),
    "lambda_count": (int, 8),
    "weak_strong_r": (float, 2.0),
    "min_crossings": (int, 0),
    # gradient probe
    "bel_paths": (int, 2000),
    "fd_paths": (int, 1000),
    "fd_eps": (float, 1e-2),
    "psi_kind": (str, "proj"),
    "psi_clip": (float, 0.0),
    "x_seed": (int, 11),
    "x_amplitude": (float, 0.02),
    "x_exponent": (float, 4.0),
    "h_seed": (int, 12),
    "h_amplitude": (float, 1.0),
    "h_exponent": (float, 3.0),
    # inequality sweep
    "alphas": (str, "0.3,0.75,1.0"),
    "resolutions": (str, "8,16,32"),
    "trials": (int, 100),
    "profile_exponent": (float, 5.0),
    "eps_half": (float, 0.01),
    "spread_tol": (float, 0.10),
    "fit_m2": (int, 1),
    # controllability
    "control_t": (float, 0.05),
    "control_r": (float, 60.0),
    "y_seed": (int, 13),
    "y_amplitude": (float, 0.01),
    "y_exponent": (float, 4.0),
    # selection demo
    "demo_horizon": (float, 25.0),
    "demo_dt": (float, 1e-3),
    "s_span": (float, 10.0),
    "s_count": (int, 200),
    "criteria": (str, "x@1.0"),
}


class ConfigError(ValueError):
    pass


def parse_config(path) -> dict:
    """Flat `key = value` text; '#' starts a comment; unknown keys rejected."""
    cfg = {k: d for k, (_, d) in _KEYS.items()}
    if path is None:
        return cfg
    for ln, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(
                f"{path}:{ln}: unknown key {key!r}; valid keys: {', '.join(sorted(_KEYS))}")
        typ, _ = _KEYS[key]
        try:
            cfg[key] = typ(val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    return cfg


def sim_config(cfg: dict, overrides: dict | None = None) -> dyn.SimConfig:
    """The SimConfig of a parsed config; its rejections, and those of its
    step count and noise covariance, are ConfigErrors."""
    c = dict(cfg)
    c.update(overrides or {})
    try:
        sim = dyn.SimConfig(
            n=c["resolution"], nu=c["nu"], dt=c["dt"], t_end=c["horizon"],
            scheme=c["scheme"], mode=c["mode"], r=c["cutoff_r"], alpha0=c["alpha0"],
            q0=c["q0"], seed=c["seed"], snapshot_stride=c["snapshot_stride"],
            n_max=c["n_max"], pad_factor=c["pad_factor"])
        sim.n_steps   # a horizon that is not a whole number of steps is rejected here
        sim.covariance()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return sim


def _moment(cfg: dict) -> int:
    """The energy moment; the record tracks E^1..E^n_max."""
    n = cfg["moment"]
    if not 1 <= n <= cfg["n_max"]:
        raise ConfigError(f"moment = {n} must lie in 1..n_max = {cfg['n_max']}")
    return n


def _parse_floats(text: str) -> list:
    return [float(x) for x in text.replace(";", ",").split(",") if x.strip()]


def _parse_ints(text: str) -> list:
    return [int(x) for x in text.split(",") if x.strip()]


def _phi_list(cfg: dict, cov):
    phis = []
    tab = mode_table(cfg["resolution"])
    for i, part in enumerate(cfg["phi_modes"].split(";")):
        k = tuple(int(x) for x in part.split())
        f = SpectralField.zero(cfg["resolution"])
        idx = tab.index_of(k)
        f.coeffs[idx] = tab.pol[idx, 0] + 0.5 * tab.pol[idx, 1]
        phis.append(vf.TestFunction.build(f, cov, f"phi{i + 1}"))
    return phis


def _field(cfg: dict, which: str) -> SpectralField:
    prof = powerlaw_profile(cfg[f"{which}_exponent"], cfg[f"{which}_amplitude"])
    return random_divfree_field(cfg["resolution"], prof, cfg[f"{which}_seed"])


def manifest_hash(subcommand: str, cfg: dict, seeds) -> str:
    blob = json.dumps({"sub": subcommand, "cfg": cfg,
                       "seeds": [int(s) for s in seeds],
                       "version": __version__}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _out_dir(args, subcommand: str, cfg: dict, seeds) -> Path:
    root = Path(args.out or os.environ.get("NAVSTO_OUT_ROOT", "navsto-out"))
    return root / f"{subcommand}-{manifest_hash(subcommand, cfg, seeds)}"


def _grid_times(cfg: dict) -> list:
    if cfg["checkpoints"]:
        return _parse_floats(cfg["checkpoints"])
    T = cfg["horizon"]
    return [T / 4, T / 2, 3 * T / 4, T]


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1, default=float) + "\n")


def _finish(out: Path, subcommand: str, cfg: dict, seeds, artifacts: dict,
            verdicts: dict, t0: float, blowups: int) -> int:
    manifest = dict(subcommand=subcommand, config=cfg, seeds=list(map(int, seeds)),
                    tool_version=__version__, artifacts=artifacts,
                    wall_clock_s=time.time() - t0, verdicts=verdicts,
                    blowups=blowups,
                    hash=manifest_hash(subcommand, cfg, seeds))
    _write_json(out / "manifest.json", manifest)
    print(f"[{subcommand}] artifacts in {out}")
    for name, v in verdicts.items():
        print(f"  {name}: {v}")
    if any(v == "fail" for v in verdicts.values()):
        return 1
    if blowups or any(v == "inconclusive" for v in verdicts.values()):
        return 2
    return 0


def _report(out: Path, rep: vf.TestReport, blowups: int = 0):
    """report.json of one TestReport, as a handler's (artifacts, verdicts, blowups)."""
    _write_json(out / "report.json", rep.to_json_dict())
    return {"report": "report.json"}, {rep.name: rep.verdict}, blowups


def _seed_range(spec: str) -> list:
    """The ids of an inclusive range a..b or of one id; ValueError if none."""
    if ".." in spec:
        a, b = spec.split("..")
        seeds = list(range(int(a), int(b) + 1))
    else:
        seeds = [int(spec)]
    if not seeds:
        raise ValueError(f"empty seed range {spec!r}")
    return seeds


# -- subcommand bodies: each returns (artifacts, verdicts, blowups) ---------------

def cmd_simulate(args, cfg, seeds, out):
    sim = sim_config(cfg)
    artifacts, blow = {}, 0
    cov = sim.covariance()
    dump_covariance_csv(cov, out / "covariance.csv")
    artifacts["covariance"] = "covariance.csv"
    for s in seeds:
        rec = dyn.simulate_path(sim, path_id=s)
        stride = max(sim.snapshot_stride, 1)
        name = f"path_{s}.csv"
        dyn.export_path_csv(rec, out / name, stride=stride)
        artifacts[f"path_{s}"] = name
        for t, snap in rec.snapshots():
            fn = f"snap_{s}_{t:.6f}.bin"
            write_snapshot(snap, out / fn)
            artifacts[fn] = fn
        blow += int(rec.blown)
    return artifacts, {"simulate": "pass" if blow == 0 else "inconclusive"}, blow


def _ensemble_with_phis(cfg, seeds, amplitude=1.0):
    sim = sim_config(cfg)
    if amplitude != 1.0:
        sim = replace(sim, noise_amplitude=amplitude)
    cov = sim.covariance()
    phis = _phi_list(cfg, cov)
    rec = dyn.run_ensemble(sim, seeds, phis=phis)
    return sim, cov, phis, rec


def cmd_verify_mp2(args, cfg, seeds, out):
    sim, cov, phis, rec = _ensemble_with_phis(cfg, seeds)
    cps = _grid_times(cfg)
    corrupted = None
    if cfg["control_paths"]:
        _, _, _, corrupted = _ensemble_with_phis(
            cfg, np.arange(cfg["control_paths"]), amplitude=cfg["control_amplitude"])
    bias = None
    if cfg["pilot_paths"]:
        bias = vf.richardson_bias(sim, np.arange(cfg["pilot_paths"]), phis, cps)
    rep = vf.test_mp2_martingale(rec, phis, cps, cov, bias=bias, corrupted=corrupted)
    return _report(out, rep, int(rec.blown.sum()))


def cmd_verify_energy(args, cfg, seeds, out):
    moment = _moment(cfg)
    sim, cov, phis, rec = _ensemble_with_phis(cfg, seeds)
    cps = _grid_times(cfg)
    bias = None
    if cfg["pilot_paths"]:
        bias = vf.richardson_bias(sim, np.arange(cfg["pilot_paths"]), phis, cps)
    verdicts, artifacts = {}, {}
    for n in range(1, moment + 1):
        rep = vf.test_energy_supermartingale(rec, n, cps, bias=bias)
        fn = f"report_E{n}.json"
        _write_json(out / fn, rep.to_json_dict())
        artifacts[f"E{n}"] = fn
        verdicts[rep.name] = rep.verdict
    return artifacts, verdicts, int(rec.blown.sum())


def cmd_verify_doob(args, cfg, seeds, out):
    n = _moment(cfg)
    if cfg["lambda_count"] < 1:
        raise ConfigError(f"lambda_count = {cfg['lambda_count']} must be >= 1")
    sim, cov, phis, rec = _ensemble_with_phis(cfg, seeds)
    a = cfg["interval_a"] or rec.times[1]
    b = cfg["interval_b"] or rec.times[-1]
    alpha = rec.h2**n
    top = float(np.nanmax(alpha)) * (1 + 2 * n)
    lam_grid = np.linspace(top / cfg["lambda_count"], top, cfg["lambda_count"])
    return _report(out, vf.test_doob(rec, n, (a, b), lam_grid), int(rec.blown.sum()))


def cmd_verify_weak_strong(args, cfg, seeds, out):
    if cfg["weak_strong_r"] < 1:
        raise ConfigError(f"weak_strong_r = {cfg['weak_strong_r']} must be >= 1")
    sim = sim_config(cfg, {"mode": "full"})
    return _report(out, vf.test_weak_strong(sim, seeds, cfg["weak_strong_r"],
                                            min_crossings=cfg["min_crossings"]))


def cmd_bel_probe(args, cfg, seeds, out):
    sim = sim_config(cfg, {"mode": "cutoff" if cfg["cutoff_r"] else "full"})
    x = _field(cfg, "x")
    h = _field(cfg, "h")
    cov = sim.covariance()
    phis = _phi_list(cfg, cov)
    clip = cfg["psi_clip"]
    if clip <= 0:
        # clip at ten times the typical observable range, from a small pilot
        pilot = dyn.run_ensemble(sim, np.arange(128), x0=x.coeffs)
        vals = vf.make_psi(cfg["psi_kind"], clip=1e30, phi=phis[0].field)(pilot.final)
        clip = 10.0 * float(np.abs(vals).mean() + 4.0 * np.abs(vals).std())
    psi = vf.make_psi(cfg["psi_kind"], clip=clip, phi=phis[0].field)
    rep = vf.bel_gradient_probe(
        sim, x, h, psi, np.arange(cfg["bel_paths"]),
        fd_path_ids=np.arange(cfg["fd_paths"]), fd_eps=cfg["fd_eps"])
    return _report(out, rep)


def cmd_sweep(args, cfg, seeds, out):
    spec = vf.SweepSpec(
        alphas=tuple(_parse_floats(cfg["alphas"])),
        resolutions=tuple(_parse_ints(cfg["resolutions"])),
        trials=cfg["trials"], profile_exponent=cfg["profile_exponent"],
        eps_half=cfg["eps_half"], seed=cfg["seed"], spread_tol=cfg["spread_tol"])
    rows, summary, verdict = vf.inequality_sweep(spec)
    with open(out / "ratios.csv", "w") as fh:
        fh.write("alpha,N,seed,ratio\n")
        for a, n, s, r in rows:
            fh.write(f"{a},{n},{s},{r:.17g}\n")
    result = {"summary": summary, "verdict": verdict}
    if cfg["fit_m2"]:
        result["m2_endpoint"] = vf.fit_m2_endpoint(seed=cfg["seed"])
    _write_json(out / "summary.json", result)
    verdicts = {"bilinear-sweep": "pass" if verdict == "bounded" else "fail"}
    if cfg["fit_m2"]:
        verdicts["m2-endpoint"] = result["m2_endpoint"]["verdict"]
    return {"ratios": "ratios.csv", "summary": "summary.json"}, verdicts, 0


def cmd_control_steer(args, cfg, seeds, out):
    sim = sim_config(cfg, {"mode": "cutoff", "cutoff_r": cfg["control_r"],
                           "horizon": cfg["control_t"]})
    x = _field(cfg, "x")
    y = _field(cfg, "y")
    R = cfg["control_r"]
    w_inc, designed, info = dyn.build_control(x, y, cfg["control_t"], R, sim)
    replay = dyn.solve_controlled(x, w_inc, R, sim)
    sch = dyn.Scheme(sim, np.complex128)
    lam, miss = sch.tab.lam, replay.series[-1] - y.coeffs
    end_err = float(np.sqrt(sobolev_norm_sq(miss, lam, 0.0)
                            / max(sobolev_norm_sq(y.coeffs, lam, 0.0), 1e-300)))
    endpoint_w = float(np.sqrt(weighted_norm_sq(miss, sch.w_w)))
    snaps = {"designed_end": designed[-1], "replayed_end": replay.series[-1]}
    # control path (cumulative w) and designed states at quarter points
    w_path = np.concatenate([np.zeros_like(w_inc[:1]), np.cumsum(w_inc, axis=0)])
    steps = w_path.shape[0] - 1
    for q in (0, 1, 2, 3, 4):
        i = (q * steps) // 4
        snaps[f"control_q{q}"], snaps[f"state_q{q}"] = w_path[i], designed[i]
    artifacts = {"report": "report.json"}
    for name, c in snaps.items():
        write_snapshot(SpectralField(sim.n, c), out / f"{name}.bin")
        artifacts[name] = f"{name}.bin"
    report = dict(t_star=info["t_star"], sup_w2=info["sup_w2"], R=R,
                  replay_endpoint_w_error=endpoint_w,
                  replay_endpoint_rel_error=end_err)
    _write_json(out / "report.json", report)
    ok = info["sup_w2"] <= R and endpoint_w <= 1e-8
    return artifacts, {"controllability": "pass" if ok else "fail"}, 0


def cmd_select_demo(args, cfg, seeds, out):
    dt, horizon = cfg["demo_dt"], cfg["demo_horizon"]
    s_grid = np.linspace(0.0, cfg["s_span"], cfg["s_count"])
    criteria = []
    for part in cfg["criteria"].split(";"):
        fname, lam = part.split("@")
        criteria.append(sel.SelectionCriterion(float(lam), fname.strip()))
    funnel = sel.enumerate_funnel(0.0, horizon, s_grid, dt)
    with open(out / "funnel.csv", "w") as fh:
        fh.write("label,branch_time,sign\n")
        for m in funnel.members:
            fh.write(f"{m.label()},{m.branch_time:.17g},{m.sign}\n")
    with open(out / "j_table.csv", "w") as fh:
        fh.write("label," + ",".join(f"{c.f_name}@{c.lam:g}" for c in criteria) + "\n")
        for m in funnel.members:
            js = [sel.j_functional(m, c) for c in criteria]
            fh.write(m.label() + "," + ",".join(f"{j:.17g}" for j in js) + "\n")
    best = sel.select(funnel, criteria)
    np.savetxt(out / "selected.csv",
               np.column_stack([best.times, best.values]),
               delimiter=",", header="t,x", comments="", fmt="%.17g")
    S = sel.make_selection_map(horizon, dt, s_grid, criteria)
    t_grid = [0.0] + [round(round(horizon / f / dt) * dt, 12) for f in (8, 4)]
    rows = list(sel.semiflow_defects(S, [0.0, 0.5, -0.5], t_grid, dt))
    with open(out / "semiflow.csv", "w") as fh:
        fh.write("x,t,r,defect\n")
        for xs, t, r, d in rows:
            fh.write(f"{xs},{t},{r},{d:.17g}\n")
    defect = max([0.0] + [d for *_, d in rows])
    bound = 10.0 * dt * dt
    _write_json(out / "report.json",
                dict(selected=best.label(), semiflow_defect=defect, bound=bound))
    return ({"funnel": "funnel.csv", "j_table": "j_table.csv", "selected": "selected.csv",
             "semiflow": "semiflow.csv", "report": "report.json"},
            {"selection-semiflow": "pass" if defect <= bound else "fail"}, 0)


def cmd_report(args, cfg, seeds, out):
    verdicts, seen, missing = {}, set(), []
    for mpath in args.manifests:
        p = Path(mpath)
        if not p.exists():
            missing.append(str(p))
            continue
        m = json.loads(p.read_text())
        if m.get("hash") in seen:
            continue
        seen.add(m.get("hash"))
        for k, v in m.get("verdicts", {}).items():
            verdicts[f"{m['subcommand']}/{k}"] = v
    overall = "pass"
    if any(v == "fail" for v in verdicts.values()):
        overall = "fail"
    elif missing or any(v == "inconclusive" for v in verdicts.values()):
        overall = "inconclusive"
    consolidated = dict(verdicts=verdicts, missing=missing, overall=overall)
    _write_json(out / "consolidated.json", consolidated)
    print("overall:", overall)
    for k, v in sorted(verdicts.items()):
        print(f"  {k}: {v}")
    return {"consolidated": "consolidated.json"}, {"report": overall}, 0


_HANDLERS = {
    "simulate": cmd_simulate,
    "verify-mp2": cmd_verify_mp2,
    "verify-energy": cmd_verify_energy,
    "verify-doob": cmd_verify_doob,
    "verify-weak-strong": cmd_verify_weak_strong,
    "bel-probe": cmd_bel_probe,
    "sweep-inequalities": cmd_sweep,
    "control-steer": cmd_control_steer,
    "select-demo": cmd_select_demo,
    "report": cmd_report,
}
SUBCOMMANDS = tuple(_HANDLERS)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="navsto", description=__doc__)
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("manifests", nargs="*", help="manifest paths (report only)")
    ap.add_argument("--config", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seeds", default="0..0", help="inclusive range a..b or single id")
    ap.add_argument("--workers", type=int, default=None,
                    help="tile threads for this run (default: every core)")
    ap.add_argument("--dt-override", type=float, default=None)
    ap.add_argument("--scheme", default=None)
    args = ap.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        ap.error("--workers must be at least 1")
    try:
        seeds = _seed_range(args.seeds)
    except ValueError:
        ap.error(f"--seeds must be one integer or a range a..b with a <= b, not {args.seeds!r}")

    saved = nl.FFT_WORKERS   # restored on return, so an in-process caller keeps its setting
    made = None              # the output directory, when this run made it
    try:
        cfg = parse_config(args.config)
        if args.dt_override is not None:
            cfg["dt"] = args.dt_override
        if args.scheme is not None:
            cfg["scheme"] = args.scheme
        t0 = time.time()
        out = _out_dir(args, args.subcommand, cfg, seeds)
        if not out.exists():
            out.mkdir(parents=True)
            made = out
        if args.workers is not None:
            nl.set_fft_workers(args.workers)
        artifacts, verdicts, blowups = _HANDLERS[args.subcommand](args, cfg, np.array(seeds), out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        if made is not None and not any(made.iterdir()):
            made.rmdir()
        return 1
    finally:
        nl.set_fft_workers(saved)
    return _finish(out, args.subcommand, cfg, seeds, artifacts, verdicts, t0, blowups)


if __name__ == "__main__":
    sys.exit(main())
